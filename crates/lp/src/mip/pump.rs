//! Feasibility-pump-style heuristic for packing binary programs.
//!
//! Plays the role of NEOS `feaspump` in the paper's Table 7 solver
//! comparison. Packing structure makes pure feasibility trivial (all
//! zeros), so the pump here hunts for *good* feasible points: randomized
//! threshold rounding of the LP relaxation, SPE-style repair of violated
//! rows, then greedy improvement — repeated over several restarts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::problem::Problem;
use crate::simplex::{solve, SimplexOptions, SolveStatus};

use super::rounding::{greedy_raise, is_packing};

/// Pump options.
#[derive(Debug, Clone)]
pub struct PumpOptions {
    /// Number of randomized rounding restarts.
    pub restarts: usize,
    /// RNG seed (the heuristic is deterministic given the seed).
    pub seed: u64,
}

impl Default for PumpOptions {
    fn default() -> Self {
        PumpOptions { restarts: 12, seed: 0x5eed }
    }
}

/// Run the pump on a packing binary program; returns the best feasible
/// 0/1 point found, or `None` if the relaxation (solved at the default
/// simplex options) fails.
pub fn pump_packing(problem: &Problem, opts: &PumpOptions) -> Option<Vec<f64>> {
    assert!(is_packing(problem), "pump_packing requires a packing model");
    let relax = solve(problem, &SimplexOptions::default()).ok()?;
    if relax.status != SolveStatus::Optimal {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let a = problem.matrix();
    let n = problem.n_cols();

    let mut best: Option<(f64, Vec<f64>)> = None;
    for restart in 0..opts.restarts.max(1) {
        // randomized threshold rounding: keep deterministic round on the
        // first restart, then perturb
        let mut x: Vec<f64> = (0..n)
            .map(|j| {
                if !problem.integers()[j] {
                    return relax.x[j];
                }
                let threshold = if restart == 0 { 0.5 } else { rng.random::<f64>() };
                if relax.x[j] >= threshold {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();

        // repair: while a row is violated, zero out the set variable
        // with the largest coefficient in the most-violated row
        let mut activity = a.matvec(&x);
        loop {
            let mut worst_row = None;
            let mut worst_excess = 1e-9;
            for (i, rb) in problem.row_bounds().iter().enumerate() {
                let excess = activity[i] - rb.upper;
                if excess > worst_excess {
                    worst_excess = excess;
                    worst_row = Some(i);
                }
            }
            let Some(_row) = worst_row else { break };
            // find max-coefficient set variable in any violated row
            let mut victim: Option<(usize, f64)> = None;
            for &(r, c, v) in problem.triplets() {
                if x[c] >= 1.0
                    && problem.integers()[c]
                    && activity[r] > problem.row_bounds()[r].upper + 1e-9
                    && victim.is_none_or(|(_, bv)| v > bv)
                {
                    victim = Some((c, v));
                }
            }
            let Some((c, _)) = victim else { break };
            x[c] = 0.0;
            let (rows, vals) = a.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                activity[r] -= v;
            }
        }

        // improve: greedy raise in random order
        let mut order: Vec<usize> = (0..n).filter(|&j| problem.integers()[j]).collect();
        // Fisher–Yates
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        greedy_raise(problem, &mut x, &order);

        if problem.max_violation(&x) <= 1e-9 {
            let obj = problem.objective_value(&x);
            if best.as_ref().is_none_or(|(b, _)| obj > *b) {
                best = Some((obj, x));
            }
        }
    }
    best.map(|(_, x)| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RowBounds, Sense, VarBounds};

    fn chain_bip(n: usize) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        for _ in 0..n {
            let j = p.add_col(1.0, VarBounds::unit()).unwrap();
            p.set_integer(j).unwrap();
        }
        for i in 0..n - 1 {
            p.add_row(RowBounds::at_most(1.0), &[(i, 0.7), (i + 1, 0.7)]).unwrap();
        }
        p
    }

    #[test]
    fn finds_feasible_good_point() {
        let p = chain_bip(9);
        let x = pump_packing(&p, &PumpOptions::default()).unwrap();
        assert!(p.max_violation(&x) <= 1e-9);
        // optimum is alternating = 5; pump should reach at least 4
        assert!(p.objective_value(&x) >= 4.0, "objective {}", p.objective_value(&x));
    }

    #[test]
    fn deterministic_given_seed() {
        let p = chain_bip(7);
        let a = pump_packing(&p, &PumpOptions::default()).unwrap();
        let b = pump_packing(&p, &PumpOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_restart_still_works() {
        let p = chain_bip(5);
        let o = PumpOptions { restarts: 1, ..Default::default() };
        let x = pump_packing(&p, &o).unwrap();
        assert!(p.max_violation(&x) <= 1e-9);
    }

    #[test]
    #[should_panic(expected = "packing model")]
    fn non_packing_rejected() {
        let mut p = Problem::new(Sense::Maximize);
        let j = p.add_col(1.0, VarBounds::unit()).unwrap();
        p.set_integer(j).unwrap();
        p.add_row(RowBounds::at_least(1.0), &[(j, 1.0)]).unwrap();
        let _ = pump_packing(&p, &PumpOptions::default());
    }
}
