//! `psim profile` pipeline: parallel barrier scoring and report
//! rendering.
//!
//! The attribution analysis itself lives in [`persistency::profile`]; this
//! module owns the harness side — fanning the per-barrier what-if
//! re-analyses out across a [`SweepRunner`] (each one is an independent
//! full timing pass) and rendering the report as a human table or a JSON
//! artifact.
//!
//! Rendering is deterministic: everything but the `meta` object depends
//! only on (trace, config, top, max_barriers), never on worker count —
//! the determinism tests compare the parsed reports across worker counts
//! with `meta` removed.

use crate::sweep::SweepRunner;
use mem_trace::Trace;
use obsv::Value;
use persistency::dag::{DagError, PersistDag};
use persistency::profile::{profile_dag, record_metrics, score_barrier, EdgeKind, ProfileReport};
use persistency::AnalysisConfig;
use std::fmt::Write as _;

/// Path steps included in the JSON artifact; longer paths are truncated
/// (the table never prints the raw path).
const JSON_PATH_CAP: usize = 10_000;

/// Profiles `trace` under `config`, scoring up to `max_barriers` ordering
/// barriers in parallel on `runner`.
///
/// # Errors
///
/// Returns [`DagError::TooManyPersists`] if the trace exceeds the DAG
/// node cap.
pub fn run_profile(
    trace: &Trace,
    config: &AnalysisConfig,
    max_barriers: usize,
    runner: &SweepRunner,
) -> Result<ProfileReport, DagError> {
    let dag = PersistDag::build(trace, config)?;
    let mut report = profile_dag(trace, &dag, 0);
    let candidates: Vec<usize> = persistency::profile::barrier_candidates(trace)
        .into_iter()
        .take(max_barriers)
        .collect();
    let baseline = report.timing_critical_path;
    // Each what-if is a full timing re-analysis of the reduced trace —
    // independent cells, so they sweep in parallel. Results come back in
    // candidate order regardless of worker interleaving.
    report.barriers =
        runner.run(&candidates, |_, &i| score_barrier(trace, config, baseline, i));
    record_metrics(&report);
    Ok(report)
}

/// Renders the human-readable profile table.
pub fn render_table(r: &ProfileReport, top: usize) -> String {
    let mut out = String::new();
    let cfg = &r.config;
    let _ = writeln!(
        out,
        "profile: model {}, critical path {} ({} persist nodes, atomic {} B, tracking {} B)",
        cfg.model,
        r.critical_path,
        r.persist_nodes,
        cfg.atomic_persist.bytes(),
        cfg.tracking.bytes()
    );
    let kinds: Vec<String> = r
        .edge_counts()
        .iter()
        .filter(|(k, c)| *c > 0 && *k != EdgeKind::Root)
        .map(|(k, c)| format!("{} {}", k.name(), c))
        .collect();
    let _ = writeln!(
        out,
        "path edges: {}",
        if kinds.is_empty() { "none".to_string() } else { kinds.join(", ") }
    );

    let _ = writeln!(out);
    let _ = writeln!(out, "top constraint sources (critical-path steps by thread/epoch):");
    let _ = writeln!(
        out,
        "{:>4} {:>7} {:>7} {:>7} {:>12} {:>8}",
        "#", "thread", "epoch", "steps", "first-level", "share"
    );
    for (i, s) in r.sources.iter().take(top).enumerate() {
        let share = if r.critical_path > 0 {
            100.0 * s.steps as f64 / r.critical_path as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>7} {:>7} {:>12} {:>7.1}%",
            i + 1,
            s.thread.0,
            s.epoch,
            s.steps,
            s.first_level,
            share
        );
    }
    if r.sources.len() > top {
        let _ = writeln!(out, "  ... {} more sources", r.sources.len() - top);
    }

    let _ = writeln!(out);
    if r.barriers.is_empty() {
        let _ = writeln!(
            out,
            "barriers: {} candidates, none scored (use --barriers N)",
            r.barrier_candidates
        );
    } else {
        let redundant = r.barriers.iter().filter(|b| b.redundant).count();
        let _ = writeln!(
            out,
            "barriers: scored {} of {} candidates, {} redundant (removal keeps timing critical path {})",
            r.barriers.len(),
            r.barrier_candidates,
            redundant,
            r.timing_critical_path
        );
        let _ = writeln!(
            out,
            "{:>10} {:>7} {:<16} {:>11} {:<9}",
            "event", "thread", "kind", "cp-without", "verdict"
        );
        for b in &r.barriers {
            let _ = writeln!(
                out,
                "{:>10} {:>7} {:<16} {:>11} {:<9}",
                b.trace_index,
                b.thread.0,
                b.op.name(),
                b.critical_path_without,
                if b.redundant { "redundant" } else { "needed" }
            );
        }
    }
    out
}

/// The machine-readable profile artifact, with the run's provenance
/// object as `meta`: the only line that varies between runs with
/// identical inputs.
pub fn report_json(r: &ProfileReport, meta: Value, top: usize) -> Value {
    let cfg = &r.config;
    let edge_counts = r
        .edge_counts()
        .iter()
        .filter(|(k, _)| *k != EdgeKind::Root)
        .map(|(k, c)| (k.name().to_string(), Value::from(*c)))
        .collect();
    let sources = r.sources.iter().take(top).map(|s| {
        Value::object()
            .with("thread", s.thread.0)
            .with("epoch", s.epoch)
            .with("steps", s.steps)
            .with("first_level", s.first_level)
    });
    let path = r.path.iter().take(JSON_PATH_CAP).map(|s| {
        Value::object()
            .with("node", s.node)
            .with("level", s.level)
            .with("thread", s.thread.0)
            .with("epoch", s.epoch)
            .with("work", s.work)
            .with("addr", s.addr.offset())
            .with("len", s.len)
            .with("trace_index", s.trace_index)
            .with("edge", s.edge.name())
    });
    let checks = r.barriers.iter().map(|b| {
        Value::object()
            .with("trace_index", b.trace_index)
            .with("thread", b.thread.0)
            .with("kind", b.op.name())
            .with("critical_path_without", b.critical_path_without)
            .with("redundant", b.redundant)
    });
    let barriers = Value::object()
        .with("candidates", r.barrier_candidates)
        .with("scored", r.barriers.len())
        .with("redundant", r.barriers.iter().filter(|b| b.redundant).count())
        .with("checks", checks.collect::<Value>());
    Value::object()
        .with("schema", "psim_profile_v1")
        .with("meta", meta)
        .with("model", cfg.model.name())
        .with("atomic_persist_bytes", cfg.atomic_persist.bytes())
        .with("tracking_bytes", cfg.tracking.bytes())
        .with("critical_path", r.critical_path)
        .with("timing_critical_path", r.timing_critical_path)
        .with("persist_nodes", r.persist_nodes)
        .with("edge_counts", Value::Obj(edge_counts))
        .with("sources", sources.collect::<Value>())
        .with("path_len", r.path.len())
        .with("path", path.collect::<Value>())
        .with("barriers", barriers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{FreeRunScheduler, TracedMem};
    use obsv::RunMeta;
    use persistency::Model;

    fn sample_trace() -> Trace {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(2, |ctx| {
            let a = ctx.palloc(1024, 64).unwrap();
            let base = ctx.thread_id().index() as u64 * 512;
            for i in 0..8 {
                ctx.store_u64(a.add(base + 8 * i), i);
                if i % 2 == 0 {
                    ctx.persist_barrier();
                }
            }
        })
    }

    #[test]
    fn rendered_output_is_worker_count_independent() {
        let trace = sample_trace();
        let cfg = AnalysisConfig::new(Model::Epoch);
        let mut outputs = Vec::new();
        for workers in [1usize, 2, 8] {
            let runner = SweepRunner::new(workers);
            let r = run_profile(&trace, &cfg, 16, &runner).unwrap();
            let meta = RunMeta {
                git_rev: "test".into(),
                timestamp_utc: "1970-01-01T00:00:00Z".into(),
                host_cores: workers,
                workers_configured: workers,
                workers_effective: workers,
            };
            // The meta object varies by construction; everything else
            // must not.
            let mut json = report_json(&r, meta.to_json(), 10);
            assert!(json.remove("meta").is_some());
            outputs.push((render_table(&r, 10), json));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn table_mentions_scored_barriers() {
        let trace = sample_trace();
        let cfg = AnalysisConfig::new(Model::Epoch);
        let r = run_profile(&trace, &cfg, 4, &SweepRunner::serial()).unwrap();
        assert_eq!(r.barriers.len(), 4);
        let table = render_table(&r, 5);
        assert!(table.contains("scored 4 of"));
        assert!(table.contains("top constraint sources"));
    }
}
