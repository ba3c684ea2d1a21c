//! Bench-only crate: `benches/pipeline.rs` is the one criterion target,
//! the *tracked* set CI gates.
//!
//! The library half holds the regression-gate logic consumed by the
//! `bench_gate` binary: compare a freshly measured `BENCH_pipeline.json`
//! (written by the vendored criterion shim via `DPSAN_BENCH_JSON`)
//! against the committed baseline and fail on large median regressions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use criterion::json::parse_flat_object;

/// Maximum tolerated `current / baseline` median ratio before the gate
/// fails. 2× absorbs shared-runner noise and hardware drift between the
/// baseline machine and CI while still catching real hot-path
/// regressions.
pub const DEFAULT_MAX_RATIO: f64 = 2.0;

/// Outcome of gating one tracked bench. Every variant carries the raw
/// baseline (and, where measured, current) medians so a failing gate
/// can print the full per-entry evidence, not just the one bad ratio.
#[derive(Debug, Clone, PartialEq)]
pub enum GateFinding {
    /// Bench present in both files; ratio within the gate.
    Ok {
        /// Bench id.
        name: String,
        /// `current / baseline` median ratio.
        ratio: f64,
        /// Committed baseline median, nanoseconds.
        baseline_ns: f64,
        /// Freshly measured median, nanoseconds.
        current_ns: f64,
    },
    /// Bench regressed beyond the allowed ratio.
    Regressed {
        /// Bench id.
        name: String,
        /// `current / baseline` median ratio.
        ratio: f64,
        /// Committed baseline median, nanoseconds.
        baseline_ns: f64,
        /// Freshly measured median, nanoseconds.
        current_ns: f64,
    },
    /// Bench *improved* beyond `1/max_ratio` without the baseline being
    /// refreshed. This also fails the gate: a baseline that lags the
    /// real performance by 2× leaves a silent 2× regression budget —
    /// the very thing the gate exists to catch. Refresh the committed
    /// baseline (and say why) in the PR that made the hot path faster.
    StaleBaseline {
        /// Bench id.
        name: String,
        /// `current / baseline` median ratio (here `< 1/max_ratio`).
        ratio: f64,
        /// Committed baseline median, nanoseconds.
        baseline_ns: f64,
        /// Freshly measured median, nanoseconds.
        current_ns: f64,
    },
    /// Bench tracked in the baseline but absent from the current run.
    Missing {
        /// Bench id.
        name: String,
        /// Committed baseline median, nanoseconds.
        baseline_ns: f64,
    },
}

/// Compare two flat `{"bench": median_ns}` JSON files. Every baseline
/// entry must appear in `current` and stay within `[1/max_ratio,
/// max_ratio]` of it — above is a regression, below a stale baseline
/// masking future regressions; entries only in `current` (newly added
/// benches) are ignored until the baseline is refreshed.
pub fn gate(baseline: &str, current: &str, max_ratio: f64) -> Vec<GateFinding> {
    let base = parse_flat_object(baseline);
    let cur = parse_flat_object(current);
    base.into_iter()
        .map(|(name, base_ns)| match cur.iter().find(|(k, _)| *k == name) {
            None => GateFinding::Missing { name, baseline_ns: base_ns },
            Some(&(_, cur_ns)) => {
                let ratio = if base_ns > 0.0 { cur_ns / base_ns } else { f64::INFINITY };
                // fail closed as a regression: a NaN ratio (corrupt
                // measurement) must neither pass nor be misreported as
                // an improvement awaiting a baseline refresh
                if !ratio.is_finite() || ratio > max_ratio {
                    GateFinding::Regressed { name, ratio, baseline_ns: base_ns, current_ns: cur_ns }
                } else if ratio >= 1.0 / max_ratio {
                    GateFinding::Ok { name, ratio, baseline_ns: base_ns, current_ns: cur_ns }
                } else {
                    GateFinding::StaleBaseline {
                        name,
                        ratio,
                        baseline_ns: base_ns,
                        current_ns: cur_ns,
                    }
                }
            }
        })
        .collect()
}

/// Whether a finding set passes (no regressions, nothing missing).
pub fn passes(findings: &[GateFinding]) -> bool {
    findings.iter().all(|f| matches!(f, GateFinding::Ok { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{ "pipeline/a": 100.0, "pipeline/b": 1000.0 }"#;

    #[test]
    fn within_ratio_passes() {
        let cur = r#"{ "pipeline/a": 150.0, "pipeline/b": 900.0, "pipeline/new": 5.0 }"#;
        let f = gate(BASE, cur, 2.0);
        assert!(passes(&f), "{f:?}");
        assert_eq!(f.len(), 2, "new benches are not gated yet");
    }

    #[test]
    fn unrefreshed_improvement_fails_as_stale_baseline() {
        // pipeline/a got 4x faster but the baseline was not refreshed:
        // the stale entry would hide a later 2-3x regression, so the
        // gate must flag it
        let cur = r#"{ "pipeline/a": 25.0, "pipeline/b": 900.0 }"#;
        let f = gate(BASE, cur, 2.0);
        assert!(!passes(&f), "{f:?}");
        assert!(f.iter().any(
            |x| matches!(x, GateFinding::StaleBaseline { name, ratio, .. } if name == "pipeline/a" && *ratio < 0.5)
        ));
    }

    #[test]
    fn improvement_within_ratio_still_passes() {
        // a 1.6x improvement is inside the symmetric band: no refresh
        // required (shared-runner noise can explain it)
        let cur = r#"{ "pipeline/a": 62.5, "pipeline/b": 1000.0 }"#;
        assert!(passes(&gate(BASE, cur, 2.0)));
    }

    #[test]
    fn regression_fails() {
        let cur = r#"{ "pipeline/a": 250.0, "pipeline/b": 900.0 }"#;
        let f = gate(BASE, cur, 2.0);
        assert!(!passes(&f));
        assert!(f.iter().any(
            |x| matches!(x, GateFinding::Regressed { name, ratio, .. } if name == "pipeline/a" && *ratio > 2.4)
        ));
    }

    #[test]
    fn missing_bench_fails() {
        let cur = r#"{ "pipeline/a": 100.0 }"#;
        let f = gate(BASE, cur, 2.0);
        assert!(!passes(&f));
        assert!(f
            .iter()
            .any(|x| matches!(x, GateFinding::Missing { name, .. } if name == "pipeline/b")));
    }

    #[test]
    fn zero_baseline_counts_as_regression() {
        let f = gate(r#"{ "x": 0.0 }"#, r#"{ "x": 1.0 }"#, 2.0);
        assert!(!passes(&f));
    }

    #[test]
    fn nan_measurement_fails_closed() {
        let f = gate(r#"{ "x": 100.0 }"#, r#"{ "x": NaN }"#, 2.0);
        assert!(!passes(&f), "a corrupt (NaN) measurement must not pass the gate");
        assert!(
            f.iter().all(|x| !matches!(x, GateFinding::StaleBaseline { .. })),
            "a corrupt measurement must not masquerade as an improvement: {f:?}"
        );
    }
}
