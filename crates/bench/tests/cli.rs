//! End-to-end tests of the `psim` CLI binary.

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

    let run = |threads: &str| -> String {
        let out = psim()
            .args(["profile", "--trace", &trace, "--model", "epoch", "--barriers", "16", "--json"])
            .env("SWEEP_THREADS", threads)
            .output()
            .expect("profile");
        assert!(out.status.success(), "profile failed: {}", String::from_utf8_lossy(&out.stderr));
        // Only the single-line meta object may vary (it records the
        // effective worker count and timestamp).
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"meta\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "profile JSON diverged between 1 and 4 workers");
    assert!(serial.contains("\"schema\": \"psim_profile_v1\""));
    assert!(serial.contains("\"critical_path\""));
    assert!(serial.contains("\"checks\""));
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
