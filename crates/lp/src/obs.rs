//! Sparse-kernel telemetry handles.
//!
//! | series | type | meaning |
//! |---|---|---|
//! | `dpsan_lp_factor_nnz` | gauge | nonzeros stored by the most recent sparse LU factorization (L + U, diagonals included) |
//! | `dpsan_lp_factor_seconds` | histogram | wall-clock latency of sparse LU basis factorizations |
//! | `dpsan_lp_sparse_factorizations_total` | counter | basis factorizations performed on the sparse simplex route |
//!
//! Per the telemetry convention these handles are observational only:
//! the solver never reads a metric to make a decision, and recording is
//! cheap enough to leave on unconditionally (one gauge store and one
//! histogram record per *refactorization*, not per iteration). Only
//! sparse-route factorizations are recorded: dense-route solves are
//! small (under `SPARSE_MIN_ROWS` rows), and their per-solve cost is
//! already visible through `dpsan_solve_refactorizations_total`.

use dpsan_obs::histogram::Histogram;
use dpsan_obs::{default_latency_bounds, global, Counter, Gauge};
use std::sync::{Arc, OnceLock};

/// Nonzeros in the most recent sparse LU factors. A gauge, not a
/// counter: fill-in level is a point-in-time property of the current
/// basis, and watching it drift up signals the eta file should be
/// folded in sooner.
pub fn factor_nnz() -> &'static Gauge {
    static G: OnceLock<Gauge> = OnceLock::new();
    G.get_or_init(|| global().gauge("dpsan_lp_factor_nnz"))
}

/// Latency of sparse LU basis factorizations, in seconds.
pub fn factor_seconds() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| global().histogram("dpsan_lp_factor_seconds", default_latency_bounds()))
}

/// Count of basis factorizations taken on the sparse route.
pub fn sparse_factorizations_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| global().counter("dpsan_lp_sparse_factorizations_total"))
}

/// Record one sparse-route factorization: its latency and the fill of
/// the produced factors.
pub fn record_factorization(seconds: f64, nnz: usize) {
    sparse_factorizations_total().inc();
    factor_seconds().record(seconds);
    factor_nnz().set(nnz as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_register_and_record() {
        record_factorization(0.0005, 123);
        let snap = global().snapshot();
        assert!(snap.counter("dpsan_lp_sparse_factorizations_total") >= 1);
        assert_eq!(snap.gauge("dpsan_lp_factor_nnz"), 123.0);
        assert!(snap.histogram("dpsan_lp_factor_seconds").is_some());
    }
}
