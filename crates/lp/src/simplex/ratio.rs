//! Bounded-variable ratio test.
//!
//! The entering variable `q` moves by `t ≥ 0` in direction `dir`; every
//! basic variable changes by `−dir·t·w_i` and blocks at whichever of its
//! bounds it approaches. The entering variable itself blocks at its
//! opposite bound (a *bound flip*, no basis change).
//!
//! The test runs in two passes (Harris-style): pass 1 finds the minimum
//! blocking step with each candidate's bound relaxed by `tol_pivot`
//! *scaled by its own rate of approach* `|w_i|`; pass 2 picks, among
//! every candidate whose exact ratio fits under that relaxed step, the
//! one with the largest pivot magnitude `|w_i|`. Under degeneracy many
//! candidates tie at (near-)zero step; preferring the biggest pivot
//! keeps the basis factorization well-conditioned instead of letting
//! whichever tiny pivot appears first poison the eta file.

use super::{Core, Direction, TOL_PIVOT};
use crate::sparse::SparseVec;

/// Outcome of the ratio test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RatioOutcome {
    /// No bound blocks the move: the LP is unbounded.
    Unbounded,
    /// The entering variable reaches its own opposite bound first.
    BoundFlip {
        /// Step length.
        t: f64,
    },
    /// A basic variable blocks at a bound and leaves the basis.
    Pivot {
        /// Step length (possibly 0 under degeneracy).
        t: f64,
        /// Row position of the leaving variable.
        leaving_pos: usize,
        /// Whether the leaving variable exits at its upper bound.
        to_upper: bool,
    },
}

/// Exact and relaxed blocking ratios of basic position `i` against the
/// bound it approaches, or `None` when that bound is infinite.
#[inline]
fn blocking_ratio(core: &Core, i: usize, delta: f64, tol: f64) -> Option<(f64, f64, bool)> {
    let col = core.basis_col(i);
    let (lo, hi) = core.bounds_of(col);
    let xb = core.value_of(col);
    if delta > 0.0 {
        // basic decreases toward its lower bound
        lo.is_finite()
            .then(|| (((xb - lo) / delta).max(0.0), ((xb - lo + tol) / delta).max(0.0), false))
    } else {
        // basic increases toward its upper bound
        hi.is_finite()
            .then(|| (((hi - xb) / -delta).max(0.0), ((hi - xb + tol) / -delta).max(0.0), true))
    }
}

/// Ratio test over the direction `w = B⁻¹ A_q`: only the rows in `w`'s
/// pattern can block. `w.pattern` must be sorted ascending, so the
/// first-seen tie-break is the lowest row among equal pivots whichever
/// kernel produced `w`.
pub(crate) fn ratio_test(core: &Core, q: usize, dir: Direction, w: &SparseVec) -> RatioOutcome {
    debug_assert!(w.pattern.windows(2).all(|p| p[0] < p[1]), "pattern must be sorted");
    let entries = w.pattern.iter().map(|&i| (i, w.values[i]));
    let tol_pivot = TOL_PIVOT;

    let (q_lo, q_hi) = core.bounds_of(q);
    let own_limit = q_hi - q_lo; // may be inf

    // pass 1: the relaxed minimum blocking step, each candidate's bound
    // softened by tol_pivot (so its relaxation in step space is
    // tol_pivot / |w_i| — tighter for fast-moving candidates)
    let mut t_relaxed = f64::INFINITY;
    for (i, wi) in entries.clone() {
        if wi.abs() <= tol_pivot {
            continue;
        }
        let delta = dir.sign() * wi; // basic value changes by -delta * t
        if let Some((_, relaxed, _)) = blocking_ratio(core, i, delta, tol_pivot) {
            t_relaxed = t_relaxed.min(relaxed);
        }
    }

    // the entering variable's own bound participates in the same relaxed
    // comparison: candidates beyond it cannot block
    let cap = t_relaxed.min(own_limit + tol_pivot);

    // pass 2: among candidates whose exact ratio fits under the cap,
    // prefer the largest pivot magnitude
    let mut best: Option<(usize, bool, f64, f64)> = None; // (pos, to_upper, |pivot|, ratio)
    for (i, wi) in entries {
        if wi.abs() <= tol_pivot {
            continue;
        }
        let delta = dir.sign() * wi;
        let Some((exact, _, to_upper)) = blocking_ratio(core, i, delta, tol_pivot) else {
            continue;
        };
        if exact <= cap {
            let mag = wi.abs();
            if best.is_none_or(|(_, _, m, _)| mag > m) {
                best = Some((i, to_upper, mag, exact));
            }
        }
    }

    match best {
        Some((pos, to_upper, _, ratio)) => {
            // a tie between a basic block and the own bound still pivots
            // (keeps the basis square); the step never exceeds the
            // entering variable's own range
            RatioOutcome::Pivot { t: ratio.min(own_limit), leaving_pos: pos, to_upper }
        }
        None if own_limit.is_finite() => RatioOutcome::BoundFlip { t: own_limit },
        None => RatioOutcome::Unbounded,
    }
}
