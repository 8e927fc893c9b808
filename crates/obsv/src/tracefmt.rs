//! Zero-dependency Chrome-trace-event (Perfetto-loadable) timeline
//! writer.
//!
//! Records **spans** (`ph: "X"` complete events) and **instants**
//! (`ph: "i"`, thread scope) onto explicit tracks: the caller assigns a
//! `pid` per logical track group (a persistency model, the analysis
//! pipeline, a crash-fuzz matrix) and a `tid` per lane (a shard, a
//! decode worker, a model×structure cell). Track labels are registered
//! once with [`name_process`] / [`name_thread`] and rendered as `"M"`
//! metadata events.
//!
//! Timestamps are nanoseconds from whatever clock the instrumentation
//! uses — virtual sim time in smoke mode, [`now_ns`] wall time
//! elsewhere — and are rendered in microseconds (the trace-event `ts`
//! unit) with fixed 3-decimal precision. [`render`] sorts every event on
//! a canonical key before emitting, so smoke-mode traces built from
//! deterministic timestamps are **byte-identical below the meta line for
//! any worker count**, matching the repo-wide determinism discipline.
//!
//! Recording is gated twice: the crate-wide [`enabled`](crate::enabled)
//! atomic AND an explicit [`set_recording`] arm (so `OBSV=1` alone — the
//! perfbench overhead run — does not pay for event buffering unless the
//! timeline is requested). High-frequency call sites additionally
//! downsample by [`sample`]. Events buffer in thread-local vectors and
//! merge on thread exit or [`crate::flush`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{self, Value};

/// Explicit arm for timeline buffering (on top of the crate gate).
static ARMED: AtomicBool = AtomicBool::new(false);

/// Keep-1-in-N sampling factor for high-frequency sites (≥ 1).
static SAMPLE: AtomicU64 = AtomicU64::new(1);

/// Arms or disarms timeline recording. Recording additionally requires
/// the crate-wide gate ([`crate::set_enabled`] / `OBSV=1`).
pub fn set_recording(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `true` when spans/instants would actually be buffered.
#[inline]
pub fn recording() -> bool {
    ARMED.load(Ordering::Relaxed) && crate::enabled()
}

/// Sets the keep-1-in-N sampling factor consulted by high-frequency
/// instrumentation sites (per-request spans, bank-stall instants).
/// Clamped to ≥ 1; structural events (batch windows, knee probes) are
/// never sampled out.
pub fn set_sample(n: u64) {
    SAMPLE.store(n.max(1), Ordering::Relaxed);
}

/// The current keep-1-in-N sampling factor.
pub fn sample() -> u64 {
    SAMPLE.load(Ordering::Relaxed).max(1)
}

/// Nanoseconds since the first call in this process — the wall-clock
/// timeline epoch for instrumentation without a virtual clock.
pub fn now_ns() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as f64
}

#[derive(Debug, Clone)]
struct Ev {
    pid: u64,
    tid: u64,
    /// Event phase: `'X'` complete span, `'i'` instant.
    ph: char,
    ts_ns: f64,
    /// Span duration; unused for instants.
    dur_ns: f64,
    name: String,
    /// Pre-rendered `"k": v` argument pairs, comma-joined; empty = none.
    args: String,
}

static GLOBAL_EVENTS: Mutex<Vec<Ev>> = Mutex::new(Vec::new());

/// Track labels: `(pid, None)` names a process, `(pid, Some(tid))` a
/// thread. BTreeMap so metadata events render in sorted order.
static TRACKS: Mutex<BTreeMap<(u64, Option<u64>), String>> = Mutex::new(BTreeMap::new());

struct LocalTrace {
    events: RefCell<Vec<Ev>>,
}

impl Drop for LocalTrace {
    fn drop(&mut self) {
        let ev = self.events.borrow();
        if !ev.is_empty() {
            GLOBAL_EVENTS.lock().unwrap().extend(ev.iter().cloned());
        }
    }
}

thread_local! {
    static LOCAL_TRACE: LocalTrace = const { LocalTrace { events: RefCell::new(Vec::new()) } };
}

/// Renders argument pairs into the pre-joined form stored on the event.
/// Values are **raw JSON fragments**: callers format numbers themselves
/// and quote strings as `Value::from(s).to_string()`.
fn render_args(args: &[(&str, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::quote(k, &mut out);
        out.push_str(": ");
        out.push_str(v);
    }
    out
}

fn push(ev: Ev) {
    LOCAL_TRACE.with(|l| l.events.borrow_mut().push(ev));
}

/// Buffers a complete span (`ph: "X"`). `args` values are raw JSON
/// fragments. No-op unless [`recording`].
pub fn span(pid: u64, tid: u64, name: &str, ts_ns: f64, dur_ns: f64, args: &[(&str, String)]) {
    if !recording() {
        return;
    }
    push(Ev {
        pid,
        tid,
        ph: 'X',
        ts_ns,
        dur_ns: dur_ns.max(0.0),
        name: name.to_string(),
        args: render_args(args),
    });
}

/// Buffers a thread-scoped instant (`ph: "i"`). No-op unless
/// [`recording`].
pub fn instant(pid: u64, tid: u64, name: &str, ts_ns: f64, args: &[(&str, String)]) {
    if !recording() {
        return;
    }
    push(Ev { pid, tid, ph: 'i', ts_ns, dur_ns: 0.0, name: name.to_string(), args: render_args(args) });
}

/// Labels process track `pid`. Idempotent; no-op unless [`recording`].
pub fn name_process(pid: u64, name: &str) {
    if !recording() {
        return;
    }
    TRACKS.lock().unwrap().entry((pid, None)).or_insert_with(|| name.to_string());
}

/// Labels thread track `tid` within `pid`. Idempotent; no-op unless
/// [`recording`].
pub fn name_thread(pid: u64, tid: u64, name: &str) {
    if !recording() {
        return;
    }
    TRACKS.lock().unwrap().entry((pid, Some(tid))).or_insert_with(|| name.to_string());
}

/// Merges the calling thread's event buffer into the global buffer.
/// [`crate::flush`] calls this.
pub fn flush() {
    LOCAL_TRACE.with(|l| {
        let mut ev = l.events.borrow_mut();
        if !ev.is_empty() {
            GLOBAL_EVENTS.lock().unwrap().append(&mut ev);
        }
    });
}

/// Clears buffered events and track labels (calling thread + global).
/// [`crate::reset`] calls this.
pub fn reset() {
    LOCAL_TRACE.with(|l| l.events.borrow_mut().clear());
    GLOBAL_EVENTS.lock().unwrap().clear();
    TRACKS.lock().unwrap().clear();
}

/// Number of events buffered globally (flushes the calling thread
/// first). Diagnostic / test helper.
pub fn event_count() -> usize {
    flush();
    GLOBAL_EVENTS.lock().unwrap().len()
}

/// Renders the buffered timeline as a Chrome trace-event JSON object:
///
/// ```json
/// {
///   "displayTimeUnit": "ns",
///   "meta": { ... },
///   "traceEvents": [ ... ]
/// }
/// ```
///
/// `meta` is the run's provenance object (the repo's `RunMeta`), which
/// renders on the one line the `grep -v '^  "meta"'` determinism filter
/// drops. Events are sorted on `(pid, tid, ts, ph, name, dur, args)`
/// before emission — byte-deterministic when the timestamps are.
///
/// # Panics
///
/// If a recorded argument value is not a JSON fragment.
pub fn render(meta: Value) -> String {
    flush();
    let mut events = GLOBAL_EVENTS.lock().unwrap().clone();
    events.sort_by(|a, b| {
        (a.pid, a.tid)
            .cmp(&(b.pid, b.tid))
            .then(a.ts_ns.total_cmp(&b.ts_ns))
            .then(a.ph.cmp(&b.ph))
            .then(a.name.cmp(&b.name))
            .then(a.dur_ns.total_cmp(&b.dur_ns))
            .then(a.args.cmp(&b.args))
    });
    let tracks = TRACKS.lock().unwrap().clone();

    let track_rows = tracks.iter().map(|((pid, tid), label)| {
        let mut row = Value::object().with("ph", "M").with("pid", *pid);
        if let Some(t) = tid {
            row.insert("tid", *t);
        }
        let kind = if tid.is_some() { "thread_name" } else { "process_name" };
        row.with("name", kind).with("args", Value::object().with("name", label.as_str()))
    });
    let event_rows = events.iter().map(|e| {
        let mut row = Value::object()
            .with("ph", e.ph.to_string())
            .with("pid", e.pid)
            .with("tid", e.tid)
            .with("ts", Value::fixed(e.ts_ns / 1000.0, 3));
        if e.ph == 'X' {
            row.insert("dur", Value::fixed(e.dur_ns / 1000.0, 3));
        } else {
            row.insert("s", "t");
        }
        row.insert("name", e.name.as_str());
        if !e.args.is_empty() {
            let args = json::parse(&format!("{{{}}}", e.args))
                .expect("timeline arguments are JSON fragments");
            row.insert("args", args);
        }
        row
    });
    Value::object()
        .with("displayTimeUnit", "ns")
        .with("meta", meta)
        .render_with_rows("traceEvents", track_rows.chain(event_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;
    use crate::tests_support::locked;

    fn armed() -> (std::sync::MutexGuard<'static, ()>, ()) {
        let g = locked();
        set_enabled(true);
        set_recording(true);
        reset();
        (g, ())
    }

    fn disarm() {
        set_recording(false);
        set_enabled(false);
        set_sample(1);
        reset();
    }

    #[test]
    fn disarmed_buffers_nothing() {
        let _g = locked();
        set_enabled(true);
        set_recording(false);
        span(1, 1, "s", 0.0, 10.0, &[]);
        instant(1, 1, "i", 5.0, &[]);
        assert_eq!(event_count(), 0);
        set_enabled(false);
    }

    #[test]
    fn render_sorts_and_shapes_events() {
        let (_g, ()) = armed();
        name_process(1, "serve epoch");
        name_thread(1, 2, "shard 1");
        instant(1, 2, "bank-stall", 3000.0, &[("wait_ns", "120".into())]);
        span(1, 2, "put", 1000.0, 500.0, &[("key", Value::from("k\"1").to_string())]);
        span(1, 1, "get", 9000.0, 250.0, &[]);
        let json = render(Value::object().with("x", 1u64));
        disarm();
        assert!(json.starts_with("{\n  \"displayTimeUnit\": \"ns\",\n  \"meta\": {\"x\": 1},\n"));
        // Sorted: metadata first, then (pid=1,tid=1) before (1,2), then ts.
        let m = json.find("process_name").unwrap();
        let g = json.find("\"name\": \"get\"").unwrap();
        let p = json.find("\"name\": \"put\"").unwrap();
        let b = json.find("bank-stall").unwrap();
        assert!(m < g && g < p && p < b, "{json}");
        assert!(json.contains("\"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"ts\": 1.000, \"dur\": 0.500"));
        assert!(json.contains("\"s\": \"t\""));
        assert!(json.contains("\"args\": {\"key\": \"k\\\"1\"}"));
    }

    #[test]
    fn cross_thread_events_render_identically() {
        let emit = || {
            for i in 0..8u64 {
                span(7, i % 2, "w", (i * 100) as f64, 50.0, &[("i", i.to_string())]);
            }
        };
        let (_g, ()) = armed();
        emit();
        let single = render(Value::object());
        reset();
        // Replay the same 8 events sharded across 4 threads: the sorted
        // render must be byte-identical.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in (t..8).step_by(4) {
                        span(7, i % 2, "w", (i * 100) as f64, 50.0, &[("i", i.to_string())]);
                    }
                    crate::flush();
                });
            }
        });
        let sharded = render(Value::object());
        disarm();
        assert_eq!(single, sharded);
    }

    #[test]
    fn empty_trace_is_valid_shape() {
        let (_g, ()) = armed();
        let json = render(Value::object());
        disarm();
        assert_eq!(json, "{\n  \"displayTimeUnit\": \"ns\",\n  \"meta\": {},\n  \"traceEvents\": []\n}\n");
    }
}
