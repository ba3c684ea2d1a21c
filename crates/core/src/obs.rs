//! Solver telemetry handles.
//!
//! | series | type | meaning |
//! |---|---|---|
//! | `dpsan_solves_total{path=...}` | counter | solves by route: `cold_primal`, `cold_primal_sparse` when the LP layer routed the solve onto its sparse kernels, or `packing` when a production (anytime) O-UMP took the packing solver, as every `sanitize` and serve O-UMP release does |
//! | `dpsan_solve_iterations_total` | counter | simplex iterations |
//! | `dpsan_solve_refactorizations_total` | counter | basis (re)factorizations |
//! | `dpsan_solves_capped_total` | counter | O-UMP solves that returned an anytime answer: every packing-route answer, so it equals `dpsan_solves_total{path="packing"}` |
//!
//! These mirror [`crate::SessionStats`] one-for-one: every increment in
//! `SolveSession` lands in both the per-session struct and the
//! process-wide registry, and [`crate::SessionStats::from_snapshot`]
//! reads a registry snapshot back into the struct, so every stat line
//! renders from one type and both sources agree by construction.

use dpsan_obs::{global, Counter};
use std::sync::OnceLock;

/// Solves on the dense (`cold_primal`) or sparse (`cold_primal_sparse`)
/// kernel route. Handles are cached per route so the solve loop never
/// touches the registry lock.
pub fn solves_total(sparse: bool) -> &'static Counter {
    static DENSE: OnceLock<Counter> = OnceLock::new();
    static SPARSE: OnceLock<Counter> = OnceLock::new();
    let (cache, path) =
        if sparse { (&SPARSE, "cold_primal_sparse") } else { (&DENSE, "cold_primal") };
    cache.get_or_init(|| global().counter_with("dpsan_solves_total", "path", path))
}

/// O-UMP solves answered by the packing route (`path="packing"`).
pub fn packing_solves_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter_with("dpsan_solves_total", "path", "packing"))
}

/// Simplex iterations summed over all solves.
pub fn iterations_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_solve_iterations_total"))
}

/// Basis (re)factorizations summed over all solves.
pub fn refactorizations_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_solve_refactorizations_total"))
}

/// O-UMP solves accepted as anytime (packing-route) answers.
pub fn solves_capped_total() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| global().counter("dpsan_solves_capped_total"))
}
