//! Automatic saturation-knee rate sweeps.
//!
//! A single serve run answers "what does model M do at rate R?"; the
//! operational question is usually the inverse — *how much offered load
//! can each model carry before it falls over?* This module walks the
//! offered rate per model until the run stops passing the caller's
//! service criteria (shed fraction, optionally a p99 ceiling): a
//! geometric ramp doubles the rate from a floor until the first failure
//! brackets the knee, then a fixed number of bisection probes narrows the
//! bracket. The knee is the highest probed rate that still passes.
//!
//! Everything runs in virtual-time mode, so the sweep is deterministic:
//! the same config yields the same knee bytes on any host and any worker
//! count, which is what lets CI gate on model-ordering properties
//! (buffered knees ≥ strict knee) without tolerance fudge.

use crate::harness::{model_track, run_model, Mode, ModelReport, ServeConfig};
use obsv::{tracefmt, Value};
use persistency::Model;

/// Knee-sweep acceptance criteria and search parameters.
#[derive(Debug, Clone)]
pub struct KneeConfig {
    /// Maximum acceptable shed fraction (shed / offered) for a rate to
    /// count as sustained.
    pub shed_frac: f64,
    /// Maximum acceptable p99 latency, nanoseconds; 0 disables the
    /// latency criterion (shed-only knee).
    pub p99_limit_ns: f64,
    /// Starting offered rate for the geometric ramp, ops/s.
    pub rate_floor: f64,
    /// Bisection probes after the ramp brackets the knee. Each probe
    /// halves the bracket, so the knee rate is resolved to
    /// `bracket / 2^probes`.
    pub probes: usize,
    /// Worker threads per probe run.
    pub workers: usize,
}

impl Default for KneeConfig {
    fn default() -> Self {
        KneeConfig {
            shed_frac: 0.01,
            p99_limit_ns: 0.0,
            rate_floor: 50_000.0,
            probes: 6,
            workers: 1,
        }
    }
}

/// Why the sweep stopped raising the rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KneeLimit {
    /// The first failing rate shed more than the threshold.
    Shed,
    /// The first failing rate exceeded the p99 ceiling.
    P99,
    /// Even the floor rate failed; the reported knee is the floor.
    Floor,
    /// The ramp never found a failing rate (criteria too loose for this
    /// config); the reported knee is the last rate probed.
    Ceiling,
}

impl KneeLimit {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            KneeLimit::Shed => "shed",
            KneeLimit::P99 => "p99",
            KneeLimit::Floor => "floor",
            KneeLimit::Ceiling => "ceiling",
        }
    }
}

/// One model's knee.
#[derive(Debug, Clone)]
pub struct KneeResult {
    /// Model swept.
    pub model: Model,
    /// Highest probed offered rate that passed the criteria, ops/s.
    pub knee_rate: f64,
    /// The full report at the knee rate.
    pub report: ModelReport,
    /// Which criterion bounded the knee.
    pub limited_by: KneeLimit,
    /// Total harness runs the search spent.
    pub runs: usize,
}

fn passes(knee: &KneeConfig, r: &ModelReport) -> bool {
    r.shed_frac() <= knee.shed_frac
        && (knee.p99_limit_ns <= 0.0 || r.latency.quantile(0.99) <= knee.p99_limit_ns)
}

fn fail_reason(knee: &KneeConfig, r: &ModelReport) -> KneeLimit {
    if r.shed_frac() > knee.shed_frac {
        KneeLimit::Shed
    } else {
        KneeLimit::P99
    }
}

/// Finds one model's saturation knee by geometric ramp + bisection.
///
/// # Errors
///
/// Propagates shard validation failures from any probe run.
pub fn find_knee(
    cfg: &ServeConfig,
    model: Model,
    knee: &KneeConfig,
) -> Result<KneeResult, String> {
    let mut probe_cfg = cfg.clone();
    let mut runs = 0usize;
    if tracefmt::recording() {
        // Probe markers share the model's track group on a dedicated
        // "knee" lane (tid 0, below the shard lanes).
        tracefmt::name_process(model_track(model), &format!("serve {}", model.name()));
        tracefmt::name_thread(model_track(model), 0, "knee");
    }
    let run_at = |rate: f64, probe_cfg: &mut ServeConfig, runs: &mut usize| {
        probe_cfg.rate_ops_per_sec = rate;
        *runs += 1;
        let r = run_model(probe_cfg, model, Mode::Virtual, knee.workers);
        if let Ok(rep) = &r {
            // One marker per probe, spaced 1 µs apart in probe order (the
            // sweep has no shared clock across its independent runs);
            // deterministic because the probe sequence is.
            tracefmt::instant(
                model_track(model),
                0,
                "knee-probe",
                (*runs as f64) * 1_000.0,
                &[
                    ("rate_ops_per_sec", format!("{rate:.0}")),
                    ("shed_frac", format!("{:.4}", rep.shed_frac())),
                    ("p99_ns", format!("{:.0}", rep.latency.quantile(0.99))),
                    ("pass", passes(knee, rep).to_string()),
                ],
            );
        }
        r
    };

    let floor = knee.rate_floor.max(1.0);
    let first = run_at(floor, &mut probe_cfg, &mut runs)?;
    if !passes(knee, &first) {
        return Ok(KneeResult {
            model,
            knee_rate: floor,
            report: first,
            limited_by: KneeLimit::Floor,
            runs,
        });
    }

    // Geometric ramp: double until the first failure brackets the knee.
    let mut lo = floor;
    let mut lo_report = first;
    let mut bracket = None;
    for _ in 0..32 {
        let rate = lo * 2.0;
        let r = run_at(rate, &mut probe_cfg, &mut runs)?;
        if passes(knee, &r) {
            lo = rate;
            lo_report = r;
        } else {
            bracket = Some((rate, fail_reason(knee, &r)));
            break;
        }
    }
    let Some((mut hi, mut limited_by)) = bracket else {
        return Ok(KneeResult {
            model,
            knee_rate: lo,
            report: lo_report,
            limited_by: KneeLimit::Ceiling,
            runs,
        });
    };

    // Bisection: each probe halves the (pass, fail) bracket.
    for _ in 0..knee.probes {
        let mid = (lo + hi) / 2.0;
        let r = run_at(mid, &mut probe_cfg, &mut runs)?;
        if passes(knee, &r) {
            lo = mid;
            lo_report = r;
        } else {
            hi = mid;
            limited_by = fail_reason(knee, &r);
        }
    }
    Ok(KneeResult { model, knee_rate: lo, report: lo_report, limited_by, runs })
}

/// Sweeps every requested model.
///
/// # Errors
///
/// As [`find_knee`].
pub fn find_knees(
    cfg: &ServeConfig,
    models: &[Model],
    knee: &KneeConfig,
) -> Result<Vec<KneeResult>, String> {
    models.iter().map(|&m| find_knee(cfg, m, knee)).collect()
}

/// The `psim_serve_knee_v1` report, with the run's provenance object as
/// `meta`.
pub fn knee_json(
    cfg: &ServeConfig,
    knee: &KneeConfig,
    results: &[KneeResult],
    meta: Value,
) -> Value {
    let config = Value::object()
        .with("structure", cfg.kind.name())
        .with("shards", cfg.shards)
        .with("keys", cfg.keys)
        .with("ops", cfg.ops)
        .with("zipf_theta", Value::fixed(cfg.theta, 2))
        .with("get_ratio", Value::fixed(cfg.get_ratio, 2))
        .with("qdepth", cfg.qdepth)
        .with("batch", cfg.batch)
        .with("batch_wait_ns", Value::fixed(cfg.batch_wait_ns, 0))
        .with("cpu_ns", Value::fixed(cfg.cpu_ns, 0))
        .with("banks", cfg.banks)
        .with("write_latency_ns", Value::fixed(cfg.write_latency_ns, 0))
        .with("seed", cfg.seed)
        .with("shed_frac_max", knee.shed_frac)
        .with("p99_limit_ns", knee.p99_limit_ns)
        .with("rate_floor", knee.rate_floor)
        .with("probes", knee.probes);
    let models = results.iter().map(|k| {
        let r = &k.report;
        let at_knee = Value::object()
            .with("offered", r.offered)
            .with("completed", r.completed)
            .with("shed", r.shed)
            .with("shed_frac", Value::fixed(r.shed_frac(), 4))
            .with("p50_ns", Value::fixed(r.latency.quantile(0.50), 0))
            .with("p99_ns", Value::fixed(r.latency.quantile(0.99), 0))
            .with("p999_ns", Value::fixed(r.latency.quantile(0.999), 0))
            .with("throughput_ops_per_sec", Value::fixed(r.throughput(), 0))
            .with("batches", r.batches)
            .with("batches_full", r.batches_full)
            .with("mean_batch_fill", Value::fixed(r.mean_batch_fill(), 2))
            .with("absorbed", r.device.absorbed());
        Value::object()
            .with("model", k.model.name())
            .with("knee_rate_ops_per_sec", Value::fixed(k.knee_rate, 0))
            .with("limited_by", k.limited_by.name())
            .with("runs", k.runs)
            .with("at_knee", at_knee)
    });
    Value::object()
        .with("schema", "psim_serve_knee_v1")
        .with("meta", meta)
        .with("config", config)
        .with("models", models.collect::<Value>())
}

/// Renders the human-readable knee table.
pub fn render_knee_table(cfg: &ServeConfig, knee: &KneeConfig, results: &[KneeResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve knee: {} over {} shards, {} ops/probe, qdepth {}, batch {} ({:.0} ns wait); pass = shed ≤ {:.2}%{}\n",
        cfg.kind.name(),
        cfg.shards,
        cfg.ops,
        cfg.qdepth,
        cfg.batch,
        cfg.batch_wait_ns,
        knee.shed_frac * 100.0,
        if knee.p99_limit_ns > 0.0 {
            format!(" and p99 ≤ {:.0} ns", knee.p99_limit_ns)
        } else {
            String::new()
        }
    ));
    out.push_str(&format!(
        "{:<11} {:>12} {:>8} {:>5} {:>9} {:>9} {:>9} {:>9} {:>6}\n",
        "model", "knee-ops/s", "limit", "runs", "p50-ns", "p99-ns", "p999-ns", "shed%", "fill"
    ));
    for k in results {
        out.push_str(&format!(
            "{:<11} {:>12.0} {:>8} {:>5} {:>9.0} {:>9.0} {:>9.0} {:>9.3} {:>6.2}\n",
            k.model.to_string(),
            k.knee_rate,
            k.limited_by.name(),
            k.runs,
            k.report.latency.quantile(0.50),
            k.report.latency.quantile(0.99),
            k.report.latency.quantile(0.999),
            k.report.shed_frac() * 100.0,
            k.report.mean_batch_fill()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::StoreKind;

    fn tiny() -> ServeConfig {
        ServeConfig {
            keys: 4_000,
            ops: 12_000,
            shards: 4,
            ..ServeConfig::new(StoreKind::Kv)
        }
    }

    #[test]
    fn knee_is_deterministic_and_bracketed() {
        let cfg = tiny();
        let knee = KneeConfig { probes: 4, ..KneeConfig::default() };
        let a = find_knee(&cfg, Model::Epoch, &knee).unwrap();
        let b = find_knee(&cfg, Model::Epoch, &knee).unwrap();
        assert_eq!(a.knee_rate, b.knee_rate);
        assert_eq!(a.runs, b.runs);
        assert!(a.knee_rate >= knee.rate_floor);
        // The knee report itself passes the criteria.
        assert!(a.report.shed_frac() <= knee.shed_frac);
    }

    #[test]
    fn floor_failure_is_reported() {
        let cfg = tiny();
        // An impossible criterion: zero shed with a one-slot queue at a
        // rate far beyond service capacity.
        let cfg = ServeConfig { qdepth: 1, ..cfg };
        let knee = KneeConfig {
            shed_frac: 0.0,
            rate_floor: 50_000_000.0,
            probes: 2,
            ..KneeConfig::default()
        };
        let k = find_knee(&cfg, Model::Strict, &knee).unwrap();
        assert_eq!(k.limited_by, KneeLimit::Floor);
        assert_eq!(k.knee_rate, 50_000_000.0);
    }

    #[test]
    fn strict_knee_not_above_buffered_knees() {
        let cfg = tiny();
        let knee = KneeConfig { probes: 3, ..KneeConfig::default() };
        let strict = find_knee(&cfg, Model::Strict, &knee).unwrap();
        for m in [Model::Epoch, Model::Bpfs, Model::Strand] {
            let k = find_knee(&cfg, m, &knee).unwrap();
            assert!(
                k.knee_rate >= strict.knee_rate,
                "{m} knee {} < strict knee {}",
                k.knee_rate,
                strict.knee_rate
            );
        }
    }
}
