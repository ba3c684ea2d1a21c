//! D-UMP: the Diversity Utility-Maximizing Problem (Section 5.3).
//!
//! After Theorem 2's reduction, the D-UMP is the packing BIP
//!
//! ```text
//! max  Σ_ij y_ij
//! s.t. ∀A_k:  Σ_{(i,j)∈A_k} y_ij ln t_ijk ≤ B,   y ∈ {0,1}
//! ```
//!
//! which is NP-hard. The paper's answer is the **Sensitive query–url
//! Pair Eliminating (SPE)** heuristic (Algorithm 2): start from all
//! pairs selected and repeatedly drop the pair with the largest
//! `t_ijk` until every constraint holds. This module implements SPE in
//! its paper-literal form, a variant restricted to violated rows (an
//! ablation), and the comparison solvers standing in for Matlab
//! `bintprog` / NEOS `qsopt_ex` / `scip` / `feaspump` of Table 7:
//! LP-rounding, a feasibility-pump-style heuristic, and exact (or
//! limit-bounded) branch & bound.

use std::collections::BinaryHeap;

use dpsan_lp::mip::{lp_round_packing, pump_packing, solve_mip, BbOptions, MipStatus, PumpOptions};
use dpsan_lp::problem::{Problem, Sense, VarBounds};
use dpsan_lp::simplex::SolveStatus;

use crate::constraints::PrivacyConstraints;
use crate::error::CoreError;
use crate::session::SolveSession;
use crate::ump::verify_counts;

/// Which solver attacks the BIP.
#[derive(Debug, Clone, PartialEq)]
pub enum DumpSolver {
    /// Algorithm 2 exactly as printed: repeatedly remove the *globally*
    /// largest `t_ijk` among selected pairs.
    Spe,
    /// SPE restricted to entries of currently *violated* rows (never
    /// wastes a removal on an already-satisfied constraint).
    SpeViolated,
    /// LP relaxation + round-down + greedy raise
    /// (the `qsopt_ex`-style comparator).
    LpRound,
    /// Feasibility-pump-style randomized rounding with repair
    /// (the `feaspump`-style comparator).
    Pump {
        /// Number of randomized restarts.
        restarts: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Branch & bound (the `bintprog`/`scip`-style exact comparator);
    /// returns the incumbent when the node limit is hit.
    BranchBound {
        /// Node limit.
        max_nodes: usize,
    },
}

/// D-UMP options.
#[derive(Debug, Clone)]
pub struct DumpOptions {
    /// Solver choice.
    pub solver: DumpSolver,
}

impl Default for DumpOptions {
    fn default() -> Self {
        DumpOptions { solver: DumpSolver::Spe }
    }
}

/// D-UMP solution.
#[derive(Debug, Clone)]
pub struct DumpSolution {
    /// Selection indicator per pair (`y*`), as 0/1 counts: the
    /// sanitizer samples one multinomial trial per kept pair.
    pub counts: Vec<u64>,
    /// Number of pairs retained (`Σ y*`).
    pub retained: usize,
    /// Whether the solver proved optimality (only for branch & bound
    /// within limits).
    pub proven_optimal: bool,
}

impl SolveSession {
    /// Solve the D-UMP through this session. Only the LP-relaxation
    /// solve of [`DumpSolver::LpRound`] goes through (and is counted
    /// by) the session; the combinatorial solvers (SPE, pump, branch &
    /// bound) run their own relaxations at the default simplex options,
    /// uncounted.
    pub fn solve_dump(
        &mut self,
        constraints: &PrivacyConstraints,
        opts: &DumpOptions,
    ) -> Result<DumpSolution, CoreError> {
        if constraints.n_pairs() == 0 {
            return Ok(DumpSolution { counts: vec![], retained: 0, proven_optimal: true });
        }
        let (counts, proven) = match &opts.solver {
            DumpSolver::Spe => (spe(constraints, false), false),
            DumpSolver::SpeViolated => (spe(constraints, true), false),
            DumpSolver::LpRound => {
                let p = build_bip(constraints);
                let relax = self.solve(&p)?;
                if relax.status != SolveStatus::Optimal {
                    return Err(CoreError::UnexpectedStatus("LP relaxation of D-UMP failed"));
                }
                let x = lp_round_packing(&p, &relax.x);
                (x.iter().map(|&v| v.round() as u64).collect(), false)
            }
            DumpSolver::Pump { restarts, seed } => {
                let p = build_bip(constraints);
                let pump = PumpOptions { restarts: *restarts, seed: *seed };
                let x = pump_packing(&p, &pump)
                    .ok_or(CoreError::UnexpectedStatus("pump failed on D-UMP"))?;
                (x.iter().map(|&v| v.round() as u64).collect(), false)
            }
            DumpSolver::BranchBound { max_nodes } => {
                let s = solve_mip(&build_bip(constraints), &BbOptions { max_nodes: *max_nodes });
                match s.status {
                    MipStatus::Optimal | MipStatus::Feasible => (
                        s.x.iter().map(|&v| v.round() as u64).collect(),
                        s.status == MipStatus::Optimal,
                    ),
                    _ => return Err(CoreError::UnexpectedStatus("branch & bound found no point")),
                }
            }
        };

        verify_counts(constraints, &counts)?;
        let retained = counts.iter().filter(|&&c| c > 0).count();
        Ok(DumpSolution { counts, retained, proven_optimal: proven })
    }
}

/// Build the packing BIP of Equation (8).
fn build_bip(constraints: &PrivacyConstraints) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let cols: Vec<usize> = (0..constraints.n_pairs())
        .map(|_| {
            let j = p.add_col(1.0, VarBounds::unit()).expect("valid column");
            p.set_integer(j).expect("column exists");
            j
        })
        .collect();
    constraints.add_to_problem(&mut p, &cols);
    p
}

/// The SPE heuristic (Algorithm 2). `violated_only` restricts victim
/// selection to entries of currently violated rows.
fn spe(constraints: &PrivacyConstraints, violated_only: bool) -> Vec<u64> {
    let n = constraints.n_pairs();
    let m = constraints.n_rows();
    let budget = constraints.budget();

    let mut selected = vec![true; n];
    // row sums of the selected entries
    let mut row_sum = vec![0.0f64; m];
    // pair -> rows & coefficients (column view for cheap removal)
    let mut pair_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (i, rs) in row_sum.iter_mut().enumerate() {
        for &(pj, v) in constraints.row(i) {
            *rs += v;
            pair_rows[pj].push((i, v));
        }
    }
    let mut violated = row_sum.iter().filter(|&&s| s > budget + 1e-12).count();

    // max-heap of candidate victims, ordered by coefficient
    #[derive(PartialEq)]
    struct Candidate {
        coef: f64,
        row: usize,
        pair: usize,
    }
    impl Eq for Candidate {}
    impl Ord for Candidate {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.coef
                .partial_cmp(&other.coef)
                .expect("coefficients are finite")
                .then(self.pair.cmp(&other.pair))
        }
    }
    impl PartialOrd for Candidate {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = BinaryHeap::with_capacity(n * 2);
    for i in 0..m {
        for &(pj, v) in constraints.row(i) {
            heap.push(Candidate { coef: v, row: i, pair: pj });
        }
    }

    while violated > 0 {
        let Some(c) = heap.pop() else { break };
        if !selected[c.pair] {
            continue; // lazy deletion
        }
        if violated_only && row_sum[c.row] <= budget + 1e-12 {
            continue; // restricted variant skips satisfied rows
        }
        // eliminate the sensitive pair
        selected[c.pair] = false;
        for &(i, v) in &pair_rows[c.pair] {
            let was_violated = row_sum[i] > budget + 1e-12;
            row_sum[i] -= v;
            if was_violated && row_sum[i] <= budget + 1e-12 {
                violated -= 1;
            }
        }
    }

    selected.iter().map(|&s| u64::from(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_dp::params::PrivacyParams;
    use dpsan_lp::simplex::SimplexOptions;
    use dpsan_searchlog::{preprocess, SearchLog, SearchLogBuilder};

    /// Solve through a fresh default session.
    fn solve_dump_with(
        constraints: &PrivacyConstraints,
        opts: &DumpOptions,
    ) -> Result<DumpSolution, CoreError> {
        SolveSession::new(SimplexOptions::default()).solve_dump(constraints, opts)
    }

    /// Build the constraints and solve through a fresh default session.
    fn solve_dump(
        log: &SearchLog,
        params: PrivacyParams,
        opts: &DumpOptions,
    ) -> Result<DumpSolution, CoreError> {
        solve_dump_with(&PrivacyConstraints::build(log, params)?, opts)
    }

    /// 6 shared pairs over 4 users with mixed sensitivities.
    fn diverse_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        let spec: [(&str, &[(&str, u64)]); 6] = [
            ("q0", &[("u1", 9), ("u2", 1)]),            // u1-dominated: large t
            ("q1", &[("u1", 1), ("u2", 1)]),            // balanced: t = 2
            ("q2", &[("u2", 3), ("u3", 3)]),            // balanced
            ("q3", &[("u3", 1), ("u4", 5)]),            // u4-heavy
            ("q4", &[("u1", 2), ("u4", 2)]),            // balanced
            ("q5", &[("u2", 1), ("u3", 1), ("u4", 1)]), // well spread
        ];
        for (q, holders) in spec {
            for &(user, c) in holders {
                b.add(user, q, &format!("{q}.com"), c).unwrap();
            }
        }
        let (log, _) = preprocess(&b.build());
        log
    }

    fn params(e_eps: f64, delta: f64) -> PrivacyParams {
        PrivacyParams::from_e_epsilon(e_eps, delta)
    }

    fn all_solvers() -> Vec<DumpSolver> {
        vec![
            DumpSolver::Spe,
            DumpSolver::SpeViolated,
            DumpSolver::LpRound,
            DumpSolver::Pump { restarts: 8, seed: 7 },
            DumpSolver::BranchBound { max_nodes: 10_000 },
        ]
    }

    #[test]
    fn every_solver_returns_feasible_binary_points() {
        let log = diverse_log();
        let c = PrivacyConstraints::build(&log, params(1.7, 0.2)).unwrap();
        for solver in all_solvers() {
            let s = solve_dump_with(&c, &DumpOptions { solver: solver.clone() }).unwrap();
            assert!(c.satisfied_by(&s.counts, 1e-9), "{solver:?} infeasible");
            assert!(s.counts.iter().all(|&v| v <= 1), "{solver:?} not binary");
            assert_eq!(s.retained, s.counts.iter().sum::<u64>() as usize);
        }
    }

    #[test]
    fn branch_and_bound_dominates_heuristics() {
        let log = diverse_log();
        for (e, d) in [(1.1, 0.1), (1.7, 0.2), (2.3, 0.5)] {
            let c = PrivacyConstraints::build(&log, params(e, d)).unwrap();
            let exact = solve_dump_with(
                &c,
                &DumpOptions { solver: DumpSolver::BranchBound { max_nodes: 50_000 } },
            )
            .unwrap();
            assert!(exact.proven_optimal);
            for solver in all_solvers() {
                let s = solve_dump_with(&c, &DumpOptions { solver }).unwrap();
                assert!(
                    s.retained <= exact.retained,
                    "heuristic beat the proven optimum at ({e}, {d})"
                );
            }
        }
    }

    #[test]
    fn diversity_monotone_in_budget() {
        let log = diverse_log();
        let mut prev = 0usize;
        for e_eps in [1.01, 1.1, 1.4, 1.7, 2.0, 2.3] {
            let s = solve_dump(&log, params(e_eps, 0.5), &DumpOptions::default()).unwrap();
            assert!(s.retained >= prev, "diversity must grow with ε");
            prev = s.retained;
        }
    }

    #[test]
    fn generous_budget_keeps_everything() {
        let log = diverse_log();
        // budget far above the sum of all coefficients
        let s =
            solve_dump(&log, PrivacyParams::new(50.0, 0.999999), &DumpOptions::default()).unwrap();
        assert_eq!(s.retained, log.n_pairs());
    }

    #[test]
    fn spe_removes_most_sensitive_pair_first() {
        let log = diverse_log();
        // pick a budget that forces at least one removal
        let c = PrivacyConstraints::build(&log, params(1.4, 0.2)).unwrap();
        let s = solve_dump_with(&c, &DumpOptions::default()).unwrap();
        if s.retained < log.n_pairs() {
            // the globally most sensitive pair (q0: t = 10) must be gone
            let (_, pair, _) = c.max_coefficient().unwrap();
            assert_eq!(s.counts[pair], 0, "SPE must eliminate the max-t pair first");
        }
    }

    #[test]
    fn spe_violated_variant_never_retains_less() {
        // The restricted variant skips removals in satisfied rows, so it
        // can only keep more pairs (on these instances).
        let log = diverse_log();
        for (e, d) in [(1.05, 0.05), (1.4, 0.2), (2.0, 0.5)] {
            let c = PrivacyConstraints::build(&log, params(e, d)).unwrap();
            let global = solve_dump_with(&c, &DumpOptions::default()).unwrap();
            let restricted =
                solve_dump_with(&c, &DumpOptions { solver: DumpSolver::SpeViolated }).unwrap();
            assert!(
                restricted.retained >= global.retained,
                "violated-only SPE retained {} < global {} at ({e}, {d})",
                restricted.retained,
                global.retained
            );
        }
    }

    #[test]
    fn session_lp_round_stays_feasible_across_budget_sweep() {
        let log = diverse_log();
        let mut session = SolveSession::new(SimplexOptions::default());
        let opts = DumpOptions { solver: DumpSolver::LpRound };
        let exact_opts = DumpOptions { solver: DumpSolver::BranchBound { max_nodes: 50_000 } };
        for e_eps in [1.1, 1.4, 1.7, 2.0, 2.3] {
            let c = PrivacyConstraints::build(&log, params(e_eps, 0.2)).unwrap();
            let swept = session.solve_dump(&c, &opts).unwrap();
            // the rounded relaxation must stay feasible and binary, and
            // the exact optimum must still dominate the heuristic
            assert!(c.satisfied_by(&swept.counts, 1e-9), "LP-round infeasible at {e_eps}");
            assert!(swept.counts.iter().all(|&v| v <= 1), "not binary at {e_eps}");
            let exact = solve_dump_with(&c, &exact_opts).unwrap();
            assert!(exact.retained >= swept.retained, "heuristic beat the optimum at {e_eps}");
        }
        assert_eq!(session.stats().solves, 5, "one relaxation solve per budget");
    }

    #[test]
    fn empty_constraints_trivial() {
        let log = SearchLogBuilder::new().build();
        let s = solve_dump(&log, params(2.0, 0.5), &DumpOptions::default()).unwrap();
        assert_eq!(s.retained, 0);
        assert!(s.proven_optimal);
    }
}
