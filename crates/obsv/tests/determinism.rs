//! Merge-determinism: the deterministic snapshot sections must be
//! byte-identical however the recording work is sharded across threads,
//! mirroring the determinism discipline of the workspace pool
//! (`obsv::par_map`).

use std::sync::Mutex;

/// Both tests reset the process-global registry, so they serialize.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn record_cell(i: usize) {
    // Deterministic per-item payload: what gets recorded depends only on
    // the item, never on the thread that claimed it.
    obsv::counter_add("det.cells", 1);
    obsv::counter_add("det.events", (i as u64 + 1) * 17);
    obsv::observe("det.cell_events", (i as u64 % 11) * 100);
    obsv::observe("det.critical_path", i as u64 * i as u64);
}

#[test]
fn snapshot_json_is_identical_for_1_2_8_workers() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(true);
    const ITEMS: usize = 200;

    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 8] {
        obsv::reset();
        // Whatever thread claims an item records its metrics.
        obsv::par_map(ITEMS, workers, record_cell);
        let json = obsv::snapshot().filter_prefix("det.").to_json().to_string();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(&json, r, "snapshot diverged at {workers} workers"),
        }
    }

    let r = reference.unwrap();
    assert!(r.contains("\"det.cells\": 200"));
    // Sum of (i+1)*17 for i in 0..200.
    assert!(r.contains(&format!("\"det.events\": {}", 17 * (200 * 201) / 2)));
}

#[test]
fn timings_are_excluded_from_deterministic_json() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(true);
    obsv::reset();
    {
        let _s = obsv::span("det2.section");
        obsv::counter_add("det2.c", 1);
    }
    let snap = obsv::snapshot().filter_prefix("det2.");
    assert!(snap.to_json().get("timings").is_none());
    assert!(snap.to_json_full().get("timings").and_then(|t| t.get("det2.section")).is_some());
    assert_eq!(snap.timings["det2.section"].count, 1);
}
