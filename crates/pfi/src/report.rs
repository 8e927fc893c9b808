//! JSON rendering of crash-fuzz results (schema `pfi_crash_fuzz_v1`).
//!
//! The report is self-contained: configuration, overall verdict, and one
//! object per cell with its shrunk first failure, so CI can archive a
//! single artifact.

use crate::fuzz::{CellReport, FuzzConfig};
use obsv::Value;

/// `true` if every cell passed.
pub fn all_passed(cells: &[CellReport]) -> bool {
    cells.iter().all(CellReport::passed)
}

/// Renders a full crash-fuzz report.
pub fn render(cfg: &FuzzConfig, cells: &[CellReport]) -> String {
    to_json(cfg, cells, None).render()
}

/// The crash-fuzz report as a JSON object, with the run's provenance
/// object as `meta` when given. The meta line is the only part of the
/// report that may vary between identically-configured runs.
pub fn to_json(cfg: &FuzzConfig, cells: &[CellReport], meta: Option<Value>) -> Value {
    let mut out = Value::object().with("schema", "pfi_crash_fuzz_v1");
    if let Some(m) = meta {
        out.insert("meta", m);
    }
    let config = Value::object()
        .with("ops", cfg.ops)
        .with("injections", cfg.injections)
        .with("seed", cfg.seed)
        .with("multi_crash", cfg.multi_crash)
        .with("torn", cfg.torn);
    let rows = cells.iter().map(|c| {
        let failure = c.first_failure.as_ref().map(|f| {
            let dropped_lines = f.dropped_lines.iter().map(|&l| Value::from(l));
            Value::object()
                .with("injection", f.injection)
                .with("crash_point", f.crash_point)
                .with("second_crash_point", f.second_crash_point)
                .with("during_recovery", f.during_recovery)
                .with("dropped_lines", dropped_lines.collect::<Value>())
                .with("message", f.message.as_str())
        });
        Value::object()
            .with("structure", c.structure)
            .with("model", c.model)
            .with("events", c.events)
            .with("injections", c.injections)
            .with("recovery_crashes", c.recovery_crashes)
            .with("failures", c.failures)
            .with("first_failure", failure)
    });
    out.with("config", config)
        .with("pass", all_passed(cells))
        .with("cells", rows.collect::<Value>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FailureReport;

    #[test]
    fn renders_pass_and_failure_cells() {
        let cells = vec![
            CellReport {
                structure: "cwl",
                model: "strict",
                events: 10,
                injections: 5,
                recovery_crashes: 0,
                failures: 0,
                first_failure: None,
            },
            CellReport {
                structure: "cwl-elided",
                model: "epoch",
                events: 10,
                injections: 5,
                recovery_crashes: 0,
                failures: 2,
                first_failure: Some(FailureReport {
                    injection: 1,
                    crash_point: 7,
                    second_crash_point: None,
                    during_recovery: false,
                    dropped_lines: vec![1, 2],
                    message: "entry \"lost\"".into(),
                }),
            },
        ];
        let json = render(&FuzzConfig::default(), &cells);
        assert!(json.contains("\"pass\": false"));
        assert!(json.contains("\"dropped_lines\": [1, 2]"));
        assert!(json.contains("entry \\\"lost\\\""));
        assert!(!all_passed(&cells));
        // Minimal structural sanity: braces balance.
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }
}
