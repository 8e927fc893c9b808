//! End-to-end tests of the time-resolved observability surface: the
//! `--timeline` Chrome-trace-event export and the `--series-ns` windowed
//! series block, driven through the `psim` binary.
//!
//! The format checks run on the workspace's JSON reader (`obsv::json`)
//! against both a freshly emitted timeline and the checked-in fixture, so
//! a writer regression and a silent format drift are both caught.

use obsv::json::{parse, Value};
use std::process::Command;

fn psim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_psim"))
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("psim-timeline-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

/// Validates the Chrome-trace-event contract Perfetto relies on: the
/// time unit, and per-event `ph`/`pid`/`ts` fields by phase type.
fn check_trace_format(text: &str) -> Value {
    let doc = parse(text).expect("timeline parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ns"),
        "displayTimeUnit must be ns"
    );
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
        .to_vec();
    assert!(!events.is_empty(), "timeline recorded no events");
    for ev in &events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("every event has ph");
        assert!(ev.get("pid").and_then(Value::as_f64).is_some(), "every event has pid");
        match ph {
            "M" => {
                let name = ev.get("name").and_then(Value::as_str).unwrap_or_default();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "metadata events name tracks, got {name:?}"
                );
                assert!(ev.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" => {
                assert!(ev.get("tid").and_then(Value::as_f64).is_some());
                assert!(ev.get("ts").and_then(Value::as_f64).is_some_and(|t| t >= 0.0));
                assert!(ev.get("dur").and_then(Value::as_f64).is_some_and(|d| d >= 0.0));
                assert!(ev.get("name").and_then(Value::as_str).is_some());
            }
            "i" => {
                assert!(ev.get("tid").and_then(Value::as_f64).is_some());
                assert!(ev.get("ts").and_then(Value::as_f64).is_some());
                assert_eq!(ev.get("s").and_then(Value::as_str), Some("t"), "instant scope");
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    doc
}

/// Parses a report and drops its wall-clock `meta` member, so runs can
/// be compared value for value.
fn below_meta(text: &str) -> Value {
    let mut doc = parse(text).expect("output parses as JSON");
    assert!(doc.remove("meta").is_some(), "report carries meta");
    doc
}

fn serve_smoke(threads: &str, timeline: &str) -> String {
    let out = psim()
        .args([
            "serve", "--smoke", "--model", "epoch", "--ops", "10000", "--shards", "4", "--batch",
            "16", "--json", "--series-ns", "1000000", "--timeline", timeline,
        ])
        .env("SWEEP_THREADS", threads)
        .output()
        .expect("run psim serve");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn smoke_timeline_and_series_are_byte_identical_across_worker_counts() {
    let tl1 = tmp("serve1.timeline.json");
    let tl4 = tmp("serve4.timeline.json");
    let json1 = serve_smoke("1", &tl1);
    let json4 = serve_smoke("4", &tl4);

    assert_eq!(
        below_meta(&json1),
        below_meta(&json4),
        "serve --json (with series block) diverged between 1 and 4 workers"
    );
    let read = |p: &str| std::fs::read_to_string(p).expect("timeline written");
    assert_eq!(
        below_meta(&read(&tl1)),
        below_meta(&read(&tl4)),
        "timeline diverged between 1 and 4 workers"
    );

    // The report carries the versioned series block with per-window data.
    let series = below_meta(&json1).get("series").cloned().expect("series block");
    assert_eq!(series.get("schema").and_then(Value::as_str), Some("obsv_series_v1"));
    let named = series.get("series").expect("named series");
    assert!(named.get("serve.win.completed.epoch").is_some(), "missing completed series");
    assert!(named.get("serve.win.latency_ns.epoch").is_some(), "missing latency series");
}

#[test]
fn fresh_timeline_satisfies_chrome_trace_format() {
    let tl = tmp("format.timeline.json");
    serve_smoke("2", &tl);
    let doc = check_trace_format(&std::fs::read_to_string(&tl).expect("timeline written"));

    // The serve harness names its tracks: a "serve <model>" process row
    // with one thread lane per shard.
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap().to_vec();
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
        .collect();
    assert!(track_names.contains(&"serve epoch"), "missing process track: {track_names:?}");
    assert!(track_names.contains(&"shard 0"), "missing shard lane: {track_names:?}");
    // Request spans and group-persist markers both made it onto the
    // timeline.
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(Value::as_str)).collect();
    assert!(names.iter().any(|n| *n == "get" || *n == "put"), "no request spans: {names:?}");
    assert!(names.contains(&"group-persist"), "no group-persist instants");
}

#[test]
fn checked_in_fixture_satisfies_chrome_trace_format() {
    // Guards the format contract itself: a writer change that still
    // self-validates against freshly emitted output cannot silently
    // redefine the format under Perfetto.
    let fixture = include_str!("fixtures/serve_smoke_timeline.json");
    check_trace_format(fixture);
}

#[test]
fn serve_obsv_flag_embeds_counter_block() {
    let out = psim()
        .args([
            "serve", "--smoke", "--model", "strand", "--ops", "5000", "--shards", "2", "--json",
            "--obsv",
        ])
        .env("SWEEP_THREADS", "2")
        .output()
        .expect("run psim serve --obsv");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = parse(&text).expect("serve --json parses");
    let obsv = doc.get("obsv").expect("obsv block embedded");
    let counters = obsv.get("counters").expect("counters section");
    assert!(
        counters.get("serve.completed").and_then(Value::as_u64).is_some_and(|v| v > 0),
        "serve.completed counter missing from obsv block:\n{text}"
    );
}

#[test]
fn crash_fuzz_series_block_is_embedded() {
    let out = psim()
        .args([
            "crash-fuzz", "--structure", "kv", "--model", "epoch", "--ops", "12", "--injections",
            "120", "--json", "--series-ns", "1000000",
        ])
        .output()
        .expect("run psim crash-fuzz");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = parse(&text).expect("crash-fuzz --json parses");
    let series = doc.get("series").expect("series block embedded");
    assert_eq!(series.get("schema").and_then(Value::as_str), Some("obsv_series_v1"));
    // Injections/sec is wall-clock data: window indices vary run to run,
    // but the per-model series itself must be present with the full count.
    let inj = series
        .get("series")
        .and_then(|s| s.get("pfi.win.injections.epoch"))
        .expect("pfi.win.injections.epoch series");
    assert_eq!(inj.get("kind").and_then(Value::as_str), Some("counter"));
    let total: u64 = inj
        .get("windows")
        .and_then(Value::as_array)
        .expect("windows array")
        .iter()
        .map(|w| w.as_array().and_then(|p| p[1].as_u64()).unwrap_or(0))
        .sum();
    assert_eq!(total, 120, "series total must equal the injection count");
}
