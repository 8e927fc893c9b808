//! Backward-compatibility lock on the serialized trace formats.
//!
//! `data/all_tags.mptrace1` is a checked-in MPTRACE1 file covering every
//! operation tag; this test asserts today's reader decodes it to exactly
//! the trace that produced it, so reader changes can never silently break
//! old capture files. Regenerate (after an *intentional* format change,
//! which MPTRACE1 must never have) with:
//!
//! ```sh
//! REGEN_MPTRACE_FIXTURE=1 cargo test -p mem-trace --test format_compat
//! ```

use mem_trace::{io as trace_io, Event, Op, ThreadId, Trace};
use persist_mem::MemAddr;
use std::path::PathBuf;

/// The trace frozen into the fixture: all 11 op tags, both address
/// spaces, every access width, extreme offsets/values, non-dense program
/// order, and interleaved threads.
fn fixture_trace() -> Trace {
    let p = MemAddr::persistent(4096);
    let v = MemAddr::volatile(64);
    let events = vec![
        Event { thread: ThreadId(0), po: 0, op: Op::WorkBegin { id: 1 } },
        Event { thread: ThreadId(0), po: 1, op: Op::PAlloc { addr: p, size: 256 } },
        Event { thread: ThreadId(1), po: 0, op: Op::Store { addr: v, len: 8, value: u64::MAX } },
        Event { thread: ThreadId(0), po: 2, op: Op::Store { addr: p, len: 1, value: 0xAB } },
        Event { thread: ThreadId(0), po: 3, op: Op::Load { addr: p, len: 1, value: 0xAB } },
        Event { thread: ThreadId(1), po: 1, op: Op::Rmw { addr: v, len: 8, old: u64::MAX, new: 0 } },
        Event { thread: ThreadId(0), po: 4, op: Op::Store { addr: p.add(8), len: 3, value: 0x01_0203 } },
        Event { thread: ThreadId(0), po: 5, op: Op::PersistBarrier },
        Event { thread: ThreadId(1), po: 2, op: Op::MemBarrier },
        Event { thread: ThreadId(0), po: 6, op: Op::NewStrand },
        Event {
            thread: ThreadId(2),
            po: 0,
            op: Op::Store { addr: MemAddr::persistent((1 << 62) + 16), len: 8, value: 42 },
        },
        Event { thread: ThreadId(0), po: 7, op: Op::PersistSync },
        Event { thread: ThreadId(0), po: 8, op: Op::PFree { addr: p } },
        Event { thread: ThreadId(1), po: 3, op: Op::Load { addr: v, len: 4, value: 0 } },
        Event { thread: ThreadId(0), po: 9, op: Op::WorkEnd { id: 1 } },
    ];
    Trace::from_events(3, events)
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/all_tags.mptrace1")
}

#[test]
fn mptrace1_fixture_still_decodes() {
    let path = fixture_path();
    if std::env::var_os("REGEN_MPTRACE_FIXTURE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut buf = Vec::new();
        trace_io::write_trace(&fixture_trace(), &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
    }
    let bytes = std::fs::read(&path)
        .expect("fixture missing — run with REGEN_MPTRACE_FIXTURE=1 once and commit the file");
    let decoded = trace_io::read_trace(bytes.as_slice()).unwrap();
    assert_eq!(decoded, fixture_trace(), "MPTRACE1 reader no longer decodes old captures");

    // The writer is frozen too: re-encoding must reproduce the fixture
    // byte for byte.
    let mut reencoded = Vec::new();
    trace_io::write_trace(&decoded, &mut reencoded).unwrap();
    assert_eq!(reencoded, bytes, "MPTRACE1 writer output drifted");
}

#[test]
fn fixture_survives_v2_transcoding() {
    // Old captures can be transcoded to MPTRACE2 and back losslessly.
    let t = fixture_trace();
    let mut v2 = Vec::new();
    trace_io::write_trace2(&t, &mut v2).unwrap();
    assert_eq!(trace_io::read_trace(v2.as_slice()).unwrap(), t);
    let v1_len = {
        let mut v1 = Vec::new();
        trace_io::write_trace(&t, &mut v1).unwrap();
        v1.len()
    };
    assert!(v2.len() < v1_len, "v2 ({}) not smaller than v1 ({v1_len})", v2.len());
}
