//! End-to-end tests of the `psim` CLI binary.

use obsv::json::{parse, Value};
use std::process::Command;

fn psim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_psim"))
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("psim-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn capture_analyze_cuts_crash_roundtrip() {
    let trace = tmp("roundtrip.trace");
    let out = psim()
        .args(["capture", "--queue", "cwl", "--threads", "2", "--inserts", "8", "--out", &trace])
        .output()
        .expect("run psim capture");
    assert!(out.status.success(), "capture failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("16 inserts"));
    assert!(std::path::Path::new(&format!("{trace}.meta")).exists());

    let out = psim().args(["analyze", "--trace", &trace]).output().expect("analyze");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for model in ["strict", "strict-rmo", "epoch", "bpfs", "strand"] {
        assert!(text.contains(model), "analyze output missing {model}:\n{text}");
    }

    let out = psim()
        .args(["cuts", "--trace", &trace, "--model", "epoch", "--samples", "20"])
        .output()
        .expect("cuts");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("recovery states"));

    let out = psim()
        .args(["crash", "--trace", &trace, "--model", "strand", "--samples", "50"])
        .output()
        .expect("crash");
    assert!(out.status.success(), "crash check failed: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("consistent"));
}

#[test]
fn capture_bounded_and_crash_under_strand() {
    let trace = tmp("bounded.trace");
    let out = psim()
        .args([
            "capture", "--queue", "bounded", "--threads", "1", "--inserts", "10", "--capacity",
            "4", "--out", &trace,
        ])
        .output()
        .expect("capture bounded");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = psim()
        .args(["crash", "--trace", &trace, "--model", "strand", "--samples", "60"])
        .output()
        .expect("crash bounded");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn analyze_respects_granularity_flags() {
    let trace = tmp("gran.trace");
    assert!(psim()
        .args(["capture", "--queue", "cwl", "--inserts", "20", "--out", &trace])
        .status()
        .expect("capture")
        .success());
    let fine = psim()
        .args(["analyze", "--trace", &trace, "--model", "strict", "--atomic", "8"])
        .output()
        .expect("analyze fine");
    let coarse = psim()
        .args(["analyze", "--trace", &trace, "--model", "strict", "--atomic", "256"])
        .output()
        .expect("analyze coarse");
    // Figure 4's effect visible through the CLI: coarse atomic persists
    // shrink strict's critical path.
    let cp = |o: &std::process::Output| -> u64 {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .find(|l| l.trim_start().starts_with("strict "))
            .and_then(|l| l.split_whitespace().nth(1).map(|v| v.parse().unwrap()))
            .expect("strict row")
    };
    assert!(cp(&fine) > cp(&coarse), "fine {} vs coarse {}", cp(&fine), cp(&coarse));
}

#[test]
fn profile_json_is_byte_identical_across_worker_counts() {
    let trace = tmp("profile.trace");
    assert!(psim()
        .args(["capture", "--queue", "cwl", "--threads", "2", "--inserts", "30", "--out", &trace])
        .status()
        .expect("capture")
        .success());

    let run = |threads: &str| -> Value {
        let out = psim()
            .args(["profile", "--trace", &trace, "--model", "epoch", "--barriers", "16", "--json"])
            .env("SWEEP_THREADS", threads)
            .output()
            .expect("profile");
        assert!(out.status.success(), "profile failed: {}", String::from_utf8_lossy(&out.stderr));
        // Only the meta object may vary (it records the effective worker
        // count and timestamp).
        let mut doc = parse(&String::from_utf8_lossy(&out.stdout)).expect("profile JSON parses");
        assert!(doc.remove("meta").is_some());
        doc
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "profile JSON diverged between 1 and 4 workers");
    assert_eq!(serial.get("schema").and_then(Value::as_str), Some("psim_profile_v1"));
    assert!(serial.get("critical_path").and_then(Value::as_u64).is_some());
    assert!(serial.get("barriers").and_then(|b| b.get("checks")).is_some());
}

#[test]
fn profile_table_reports_sources_and_barriers() {
    let trace = tmp("profile_table.trace");
    assert!(psim()
        .args(["capture", "--queue", "2lc", "--threads", "2", "--inserts", "20", "--out", &trace])
        .status()
        .expect("capture")
        .success());
    let out = psim()
        .args(["profile", "--trace", &trace, "--model", "epoch"])
        .output()
        .expect("profile");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("critical path"), "missing header:\n{text}");
    assert!(text.contains("top constraint sources"), "missing sources:\n{text}");
    assert!(text.contains("barriers:"), "missing barrier section:\n{text}");
}

#[test]
fn errors_are_reported_cleanly() {
    // Unknown command.
    let out = psim().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing trace file.
    let out = psim().args(["analyze", "--trace", "/nonexistent.trace"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("open"));

    // Bad model name.
    let trace = tmp("err.trace");
    assert!(psim()
        .args(["capture", "--queue", "cwl", "--inserts", "3", "--out", &trace])
        .status()
        .expect("capture")
        .success());
    let out = psim().args(["analyze", "--trace", &trace, "--model", "sc"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown model"));

    // Corrupt trace file.
    let bad = tmp("bad.trace");
    std::fs::write(&bad, b"definitely not a trace").unwrap();
    let out = psim().args(["analyze", "--trace", &bad]).output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn capture_rejects_zero_threads() {
    let trace = tmp("zero-threads.trace");
    let _ = std::fs::remove_file(&trace);
    let out = psim()
        .args(["capture", "--queue", "cwl", "--threads", "0", "--out", &trace])
        .output()
        .expect("run");
    assert!(!out.status.success(), "--threads 0 must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads must be at least 1"));
    assert!(!std::path::Path::new(&trace).exists(), "no trace is written");
}

/// Runs `psim serve --smoke` with `flag 0` and expects a nonzero exit
/// naming the flag, with no report on stdout.
fn assert_serve_rejects_zero(flag: &str) {
    let out = psim()
        .args(["serve", "--smoke", "--structure", "kv", flag, "0"])
        .output()
        .expect("run");
    assert!(!out.status.success(), "{flag} 0 must fail");
    let want = format!("{flag} must be at least 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains(&want), "{flag} 0: no `{want}`");
    assert!(out.stdout.is_empty(), "{flag} 0 must not print a report");
}

#[test]
fn serve_rejects_zero_shards() {
    assert_serve_rejects_zero("--shards");
}

#[test]
fn serve_rejects_zero_keys() {
    assert_serve_rejects_zero("--keys");
}

#[test]
fn serve_rejects_zero_qdepth() {
    assert_serve_rejects_zero("--qdepth");
}

#[test]
fn serve_rejects_zero_batch() {
    assert_serve_rejects_zero("--batch");
}

#[test]
fn serve_rejects_zero_banks() {
    assert_serve_rejects_zero("--banks");
}

/// Runs `psim serve --smoke --json` with extra flags and expects a
/// nonzero exit naming `flag` as needing a finite number, with no report
/// on stdout.
fn assert_serve_rejects_nonfinite(extra: &[&str], flag: &str) {
    let out = psim()
        .args(["serve", "--smoke", "--structure", "kv", "--ops", "2000", "--json"])
        .args(extra)
        .output()
        .expect("run");
    assert!(!out.status.success(), "{extra:?} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("{flag} expects a finite number")), "{extra:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{extra:?} panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{extra:?} must not print a report");
}

#[test]
fn serve_rejects_nan_rate() {
    assert_serve_rejects_nonfinite(&["--rate", "nan"], "--rate");
}

#[test]
fn serve_rejects_infinite_rate() {
    assert_serve_rejects_nonfinite(&["--rate", "inf"], "--rate");
}

#[test]
fn serve_rejects_nan_batch_wait() {
    assert_serve_rejects_nonfinite(&["--batch-wait-ns", "nan"], "--batch-wait-ns");
}

#[test]
fn serve_rejects_infinite_knee_p99() {
    assert_serve_rejects_nonfinite(&["--knee", "--knee-p99", "inf"], "--knee-p99");
}

/// Runs `psim serve --smoke` with `flag value` and expects a nonzero exit
/// whose message names the flag and `want`, with no panic and no report.
fn assert_serve_rejects(flag: &str, value: &str, want: &str) {
    let out = psim()
        .args(["serve", "--smoke", "--structure", "kv", "--ops", "2000", "--json", flag, value])
        .output()
        .expect("run");
    assert!(!out.status.success(), "{flag} {value} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("{flag} {want}")), "{flag} {value}: {stderr}");
    assert!(!stderr.contains("panicked"), "{flag} {value} panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{flag} {value} must not print a report");
}

#[test]
fn serve_rejects_nonpositive_latency() {
    assert_serve_rejects("--latency", "0", "must be positive and finite");
    assert_serve_rejects("--latency", "-5", "must be positive and finite");
}

#[test]
fn serve_rejects_interleave_not_power_of_two() {
    assert_serve_rejects("--interleave", "3", "must be a power of two");
    assert_serve_rejects("--interleave", "0", "must be a power of two");
}

#[test]
fn serve_rejects_negative_cpu_and_batch_wait() {
    assert_serve_rejects("--cpu-ns", "-1", "must be non-negative and finite");
    assert_serve_rejects("--batch-wait-ns", "-1", "must be non-negative and finite");
}

/// Runs psim with `args`, which must succeed, and returns its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = psim().args(args).output().expect("run psim");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 report")
}

/// The knee report echoes its search bounds as given: the shortest text
/// that parses back to each value, for explicit flags and defaults alike.
#[test]
fn knee_echoes_config_in_shortest_form() {
    let serve = ["serve", "--smoke", "--ops", "3000", "--shards", "2", "--keys", "500", "--json"];
    let echo = |extra: &[&str]| -> Vec<String> {
        let text = stdout_of(&[&serve[..], &["--knee", "--knee-probes", "2"], extra].concat());
        let doc = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let config = doc.get("config").expect("config object");
        ["shed_frac_max", "p99_limit_ns", "rate_floor"]
            .iter()
            .map(|k| config.get(k).unwrap_or_else(|| panic!("no {k}")).to_string())
            .collect()
    };
    assert_eq!(echo(&[]), ["0.01", "0", "50000"]);
    assert_eq!(
        echo(&["--knee-shed", "0.001", "--knee-p99", "2500.5", "--knee-floor", "60000"]),
        ["0.001", "2500.5", "60000"]
    );
}

/// Every `--json` producer, on small inputs: the output parses with the
/// workspace's JSON reader, carries its schema tag, and keeps `meta` on
/// the one line that `grep -v '^  "meta"'` drops.
#[test]
fn every_json_report_parses_with_schema_and_one_meta_line() {
    let trace = tmp("schema.trace");
    let timeline = tmp("schema.timeline.json");
    stdout_of(&["capture", "--queue", "cwl", "--threads", "2", "--inserts", "6", "--out", &trace]);
    let serve = ["serve", "--smoke", "--ops", "3000", "--shards", "2", "--keys", "500", "--json"];
    let reports = [
        ("psim_analyze_v1", stdout_of(&["analyze", "--trace", &trace, "--json"])),
        ("psim_cuts_v1", stdout_of(&["cuts", "--trace", &trace, "--samples", "10", "--json"])),
        ("psim_crash_v1", stdout_of(&["crash", "--trace", &trace, "--samples", "10", "--json"])),
        (
            "pfi_crash_fuzz_v1",
            stdout_of(&[
                "crash-fuzz", "--structure", "stock", "--ops", "8", "--injections", "20", "--json",
            ]),
        ),
        (
            "psim_profile_v1",
            stdout_of(&["profile", "--trace", &trace, "--barriers", "4", "--json"]),
        ),
        ("psim_serve_v1", stdout_of(&[&serve[..], &["--timeline", &timeline]].concat())),
        (
            "psim_serve_knee_v1",
            stdout_of(&[&serve[..], &["--knee", "--knee-probes", "2"]].concat()),
        ),
    ];
    let timeline = std::fs::read_to_string(&timeline).expect("timeline written");
    for (schema, text) in reports.iter().map(|(s, t)| (*s, t)).chain([("timeline", &timeline)]) {
        let doc = parse(text).unwrap_or_else(|e| panic!("{schema}: {e}\n{text}"));
        if schema == "timeline" {
            assert_eq!(doc.get("displayTimeUnit").and_then(Value::as_str), Some("ns"));
        } else {
            assert_eq!(doc.get("schema").and_then(Value::as_str), Some(schema), "{text}");
        }
        let meta_lines: Vec<&str> = text.lines().filter(|l| l.contains("\"meta\"")).collect();
        assert_eq!(meta_lines.len(), 1, "{schema}: one meta line");
        assert!(meta_lines[0].starts_with("  \"meta\": {") && meta_lines[0].ends_with("},"));
        let meta = doc.get("meta").expect("meta member");
        assert!(meta.get("git_rev").is_some() && meta.get("workers_effective").is_some());
    }
}

#[test]
fn analyze_obsv_embeds_analyze_counters() {
    let trace = tmp("obsv.trace");
    stdout_of(&["capture", "--queue", "cwl", "--inserts", "10", "--out", &trace]);
    let text = stdout_of(&["analyze", "--trace", &trace, "--json", "--obsv"]);
    let doc = parse(&text).expect("analyze --json parses");
    let counters = doc.get("obsv").and_then(|o| o.get("counters")).expect("obsv counters");
    let Value::Obj(members) = counters else { panic!("counters is an object: {text}") };
    assert!(!members.is_empty(), "no counters embedded: {text}");
    assert!(members.iter().all(|(k, _)| k.starts_with("analyze.")), "{text}");
    assert_eq!(counters.get("analyze.passes").and_then(Value::as_u64), Some(6), "{text}");
}

/// A trace smaller than the write buffer reaches the disk only when the
/// buffer is flushed, so a full disk must surface there as an error.
#[cfg(target_os = "linux")]
#[test]
fn capture_reports_write_errors_on_full_disk() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = psim()
        .args(["capture", "--queue", "cwl", "--inserts", "3", "--out", "/dev/full"])
        .output()
        .expect("run");
    assert!(!out.status.success(), "a failed write must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stderr).contains("write /dev/full"));
}

#[test]
fn help_prints_usage() {
    let out = psim().arg("--help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["capture", "analyze", "cuts", "crash", "profile"] {
        assert!(text.contains(cmd));
    }
}
