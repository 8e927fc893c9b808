//! One protocol body, every backend.
//!
//! The kv, undo-log and Copy While Locked bodies are written once against
//! `PmemBackend`. This test runs one seeded operation sequence through
//! them over `DirectPmem` and over one-thread traced memory, and checks
//! that
//!
//! - both runs make the same backend calls (the bodies take the same
//!   decisions whatever they run on),
//! - every call on traced memory leaves exactly its mapped trace events
//!   (`store` → `Store` events tiling the written bytes, `fence` →
//!   `PersistBarrier`, `strand` → `NewStrand`, `mem_barrier` →
//!   `MemBarrier`, `flush` → nothing), and
//! - the final persistent images are equal.

use mem_trace::rng::SmallRng;
use mem_trace::{FreeRunScheduler, Op, TracedMem};
use persist_mem::{DirectPmem, MemAddr, MemoryImage, PmemBackend, CACHE_LINE_BYTES};
use pqueue::pmem::PmemCwlQueue;
use pqueue::traced::{BarrierMode, QueueLayout, QueueParams};
use pstruct::kv::PersistentKv;
use pstruct::txn::UndoLog;
use std::sync::Mutex;

/// A persistence call as a protocol body made it (loads are not logged:
/// they carry no persist ordering).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Call {
    Store(MemAddr, Vec<u8>),
    Flush(MemAddr, u64),
    Fence,
    Strand,
    MemBarrier,
}

/// Forwards every call to `inner` and logs it.
struct Recorder<B> {
    inner: B,
    calls: Vec<Call>,
}

impl<B: PmemBackend> PmemBackend for Recorder<B> {
    fn load(&mut self, addr: MemAddr, buf: &mut [u8]) {
        self.inner.load(addr, buf);
    }

    fn load_u64(&mut self, addr: MemAddr) -> u64 {
        self.inner.load_u64(addr)
    }

    fn store(&mut self, addr: MemAddr, data: &[u8]) {
        self.calls.push(Call::Store(addr, data.to_vec()));
        self.inner.store(addr, data);
    }

    fn store_u64(&mut self, addr: MemAddr, value: u64) {
        self.calls
            .push(Call::Store(addr, value.to_le_bytes().to_vec()));
        self.inner.store_u64(addr, value);
    }

    fn flush(&mut self, addr: MemAddr, len: u64) {
        self.calls.push(Call::Flush(addr, len));
        self.inner.flush(addr, len);
    }

    fn fence(&mut self) {
        self.calls.push(Call::Fence);
        self.inner.fence();
    }

    fn strand(&mut self) {
        self.calls.push(Call::Strand);
        self.inner.strand();
    }

    fn mem_barrier(&mut self) {
        self.calls.push(Call::MemBarrier);
        self.inner.mem_barrier();
    }
}

/// One logical operation of the script.
#[derive(Debug, Clone)]
enum ScriptOp {
    Put(u64, u64),
    Remove(u64),
    /// A transaction writing `(account, value)` pairs, then committing
    /// (`true`) or aborting.
    Txn(Vec<(u64, u64)>, bool),
    Insert(BarrierMode),
}

const MODES: [BarrierMode; 3] = [BarrierMode::Full, BarrierMode::Racing, BarrierMode::Elided];
const ACCOUNTS: u64 = 4;

fn account(i: u64) -> MemAddr {
    MemAddr::persistent(2048 + 8 * i)
}

fn queue_layout(mode: usize) -> QueueLayout {
    let base = 4096 + mode as u64 * 2048;
    QueueLayout {
        head: MemAddr::persistent(base),
        data: MemAddr::persistent(base + CACHE_LINE_BYTES),
        params: QueueParams::new(8),
    }
}

/// The structures one run drives, at fixed disjoint persistent addresses.
struct Structures {
    kv: PersistentKv,
    log: UndoLog,
    queues: Vec<PmemCwlQueue>,
}

impl Structures {
    fn new() -> Self {
        Structures {
            kv: PersistentKv::from_raw(MemAddr::persistent(0), 16),
            log: UndoLog::from_raw(MemAddr::persistent(1024), MemAddr::persistent(1088), 4),
            queues: MODES
                .iter()
                .enumerate()
                .map(|(i, &m)| PmemCwlQueue::new(queue_layout(i), m))
                .collect(),
        }
    }

    fn run(&mut self, mut mem: impl PmemBackend, op: &ScriptOp) {
        match op {
            ScriptOp::Put(k, v) => self.kv.put(&mut mem, *k, *v),
            ScriptOp::Remove(k) => {
                self.kv.remove(&mut mem, *k);
            }
            ScriptOp::Txn(writes, commit) => {
                let mut txn = self.log.begin(&mut mem);
                for &(a, v) in writes {
                    txn.write(&mut mem, account(a), v);
                }
                if *commit {
                    txn.commit(&mut mem);
                } else {
                    txn.abort(&mut mem);
                }
            }
            ScriptOp::Insert(mode) => {
                let i = MODES.iter().position(|m| m == mode).expect("known mode");
                self.queues[i].insert(&mut mem);
            }
        }
    }
}

/// A seeded script: kv puts (fresh keys and updates) and removes over six
/// keys, committed and aborted transactions, and inserts in every CWL
/// barrier mode.
fn script(seed: u64, len: usize) -> Vec<ScriptOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_below(6) {
            0 | 1 => ScriptOp::Put(1 + rng.gen_below(6), rng.next_u64()),
            2 => ScriptOp::Remove(1 + rng.gen_below(6)),
            3 | 4 => {
                let writes = (0..1 + rng.gen_below(3))
                    .map(|_| (rng.gen_below(ACCOUNTS), rng.next_u64()))
                    .collect();
                ScriptOp::Txn(writes, rng.gen_below(2) == 0)
            }
            _ => ScriptOp::Insert(MODES[rng.gen_index(MODES.len())]),
        })
        .collect()
}

/// Runs `ops` over `DirectPmem`: per-op calls and the final image.
fn run_direct(ops: &[ScriptOp]) -> (Vec<Vec<Call>>, MemoryImage) {
    let mut s = Structures::new();
    let mut mem = Recorder {
        inner: DirectPmem::new(),
        calls: Vec::new(),
    };
    let calls = ops
        .iter()
        .map(|op| {
            s.run(&mut mem, op);
            std::mem::take(&mut mem.calls)
        })
        .collect();
    (calls, mem.inner.into_image())
}

/// Runs `ops` over one-thread traced memory: per-op calls, per-op trace
/// events (work markers split the ops) and the final image.
fn run_traced(ops: &[ScriptOp]) -> (Vec<Vec<Call>>, Vec<Vec<Op>>, MemoryImage) {
    let calls = Mutex::new(Vec::new());
    let trace = TracedMem::new(FreeRunScheduler).run(1, |ctx| {
        let mut s = Structures::new();
        let mut mem = Recorder {
            inner: ctx,
            calls: Vec::new(),
        };
        for (i, op) in ops.iter().enumerate() {
            ctx.work_begin(i as u64);
            s.run(&mut mem, op);
            ctx.work_end(i as u64);
            calls.lock().unwrap().push(std::mem::take(&mut mem.calls));
        }
    });
    let mut events: Vec<Vec<Op>> = Vec::new();
    for e in trace.events() {
        match e.op {
            Op::WorkBegin { .. } => events.push(Vec::new()),
            Op::WorkEnd { .. } | Op::Load { .. } => {}
            op => events
                .last_mut()
                .expect("every event is inside an op")
                .push(op),
        }
    }
    (calls.into_inner().unwrap(), events, trace.final_image())
}

/// Checks that `events` are exactly the mapped trace events of `calls`.
fn assert_mapped(calls: &[Call], events: &[Op], what: &str) {
    let mut ev = events.iter();
    for call in calls {
        match call {
            Call::Store(addr, data) => {
                // The bytes arrive as word-chunk stores tiling the range.
                let mut done = 0usize;
                while done < data.len() {
                    let Some(&Op::Store {
                        addr: a,
                        len,
                        value,
                    }) = ev.next()
                    else {
                        panic!(
                            "{what}: store of {} bytes at {addr:?} ends after {done}",
                            data.len()
                        );
                    };
                    assert_eq!(a, addr.add(done as u64), "{what}: store chunk address");
                    let chunk = &data[done..done + len as usize];
                    assert_eq!(
                        &value.to_le_bytes()[..len as usize],
                        chunk,
                        "{what}: store chunk bytes"
                    );
                    done += len as usize;
                }
            }
            Call::Flush(..) => {}
            Call::Fence => assert_eq!(ev.next(), Some(&Op::PersistBarrier), "{what}: fence"),
            Call::Strand => assert_eq!(ev.next(), Some(&Op::NewStrand), "{what}: strand"),
            Call::MemBarrier => assert_eq!(ev.next(), Some(&Op::MemBarrier), "{what}: mem barrier"),
        }
    }
    assert_eq!(
        ev.next(),
        None,
        "{what}: trace has events no backend call explains"
    );
}

#[test]
fn one_body_runs_identically_on_direct_and_traced_memory() {
    for seed in [1u64, 7, 42] {
        let ops = script(seed, 80);
        let has = |f: &dyn Fn(&ScriptOp) -> bool| ops.iter().any(f);
        assert!(
            has(&|o| matches!(o, ScriptOp::Remove(_))),
            "seed {seed}: no remove"
        );
        assert!(
            has(&|o| matches!(o, ScriptOp::Txn(_, true))),
            "seed {seed}: no commit"
        );
        assert!(
            has(&|o| matches!(o, ScriptOp::Txn(_, false))),
            "seed {seed}: no abort"
        );
        for m in MODES {
            assert!(
                has(&|o| matches!(o, ScriptOp::Insert(x) if *x == m)),
                "seed {seed}: no {m:?} insert"
            );
        }

        let (direct_calls, direct_image) = run_direct(&ops);
        let (traced_calls, traced_events, traced_image) = run_traced(&ops);
        assert_eq!(traced_events.len(), ops.len());
        for (i, op) in ops.iter().enumerate() {
            let what = format!("seed {seed} op {i} {op:?}");
            assert_eq!(
                direct_calls[i], traced_calls[i],
                "{what}: backends diverged"
            );
            assert_mapped(&traced_calls[i], &traced_events[i], &what);
        }
        assert_eq!(
            direct_image, traced_image,
            "seed {seed}: final images differ"
        );
    }
}

#[test]
fn script_covers_updates_and_kv_state_survives() {
    // A put to a live key takes the invalidate/republish path: three
    // fences instead of two. The script must exercise it.
    let ops = script(7, 80);
    let (calls, image) = run_direct(&ops);
    let fences = |c: &[Call]| c.iter().filter(|c| **c == Call::Fence).count();
    let puts: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, ScriptOp::Put(..)))
        .map(|(i, _)| fences(&calls[i]))
        .collect();
    assert!(
        puts.contains(&2) && puts.contains(&3),
        "fresh puts and updates: {puts:?}"
    );

    let mut expected = std::collections::BTreeMap::new();
    for op in &ops {
        match op {
            ScriptOp::Put(k, v) => {
                expected.insert(*k, *v);
            }
            ScriptOp::Remove(k) => {
                expected.remove(k);
            }
            _ => {}
        }
    }
    let mut got = Structures::new().kv.recover(&image).unwrap();
    got.sort_unstable();
    assert_eq!(got, expected.into_iter().collect::<Vec<_>>());
}
