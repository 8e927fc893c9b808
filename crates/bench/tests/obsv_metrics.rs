//! Metric-merge determinism through the real sweep pipeline: a
//! `SweepRunner` fan-out that records counters and histograms from its
//! worker threads must yield a byte-identical deterministic snapshot for
//! any worker count, because thread-local buffers merge by commutative
//! addition.

use bench::SweepRunner;
use std::sync::Mutex;

/// The obsv registry and enable flag are process-global; tests that touch
/// them serialize here.
static OBSV_LOCK: Mutex<()> = Mutex::new(());

fn record_cell(i: usize, inserts: &u64) {
    obsv::counter_add("bsw.cells", 1);
    obsv::counter_add("bsw.inserts", *inserts);
    obsv::observe("bsw.cell_inserts", *inserts);
    obsv::observe("bsw.cell_index_sq", (i as u64) * (i as u64));
}

#[test]
fn sweep_metrics_snapshot_is_identical_for_1_2_8_workers() {
    let _g = OBSV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(true);
    let items: Vec<u64> = (0..160).map(|i| 10 + i % 23).collect();

    let mut reference: Option<String> = None;
    for workers in [1usize, 2, 8] {
        obsv::reset();
        SweepRunner::new(workers).run(&items, record_cell);
        let json = obsv::snapshot().filter_prefix("bsw.").to_json().to_string();
        match &reference {
            None => reference = Some(json),
            Some(r) => assert_eq!(&json, r, "snapshot diverged at {workers} workers"),
        }
    }
    let r = reference.unwrap();
    assert!(r.contains("\"bsw.cells\": 160"), "missing cells counter: {r}");
    let total: u64 = items.iter().sum();
    assert!(r.contains(&format!("\"bsw.inserts\": {total}")), "missing inserts sum: {r}");
}

#[test]
fn disabled_metrics_record_nothing_through_the_sweep() {
    let _g = OBSV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obsv::set_enabled(false);
    obsv::reset();
    let items: Vec<u64> = (0..32).collect();
    SweepRunner::new(4).run(&items, record_cell);
    obsv::set_enabled(true); // snapshot() flushes; flag only gates recording
    let snap = obsv::snapshot().filter_prefix("bsw.");
    assert!(snap.counters.is_empty(), "disabled run recorded counters: {:?}", snap.counters);
    assert!(snap.histograms.is_empty());
}
