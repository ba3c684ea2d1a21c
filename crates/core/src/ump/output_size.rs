//! O-UMP: the Output-size Utility-Maximizing Problem (Section 5.1).
//!
//! ```text
//! max  Σ_ij x_ij
//! s.t. ∀A_k:  Σ_{(i,j)∈A_k} x_ij ln t_ijk ≤ B,   x ≥ 0 integer
//! ```
//!
//! Solved by linear relaxation + floor (Lemma 1: `⌊x*⌋` still satisfies
//! the constraints since `M ≥ 0`). The optimal value is the maximum
//! output size λ used by Table 4 and as the upper bound of the F-UMP's
//! `|O|` parameter.
//!
//! Anytime solves ([`OumpOptions::anytime`]) skip the simplex at every
//! size and take the packing route ([`crate::ump::packing`]): a
//! dual-guided greedy whose integer counts lie in the same polytope.
//! Every answer, on either route, carries a certified
//! [`OumpSolution::upper_bound`] on the optimal λ.

use dpsan_lp::problem::{Problem, Sense, VarBounds};
use dpsan_lp::simplex::{SimplexOptions, SolveStatus};

use crate::constraints::PrivacyConstraints;
use crate::error::CoreError;
use crate::session::SolveSession;
use crate::ump::{floor_counts, packing, verify_counts};

/// O-UMP options.
#[derive(Debug, Clone)]
pub struct OumpOptions {
    /// Ignored: the session's options govern; kept for the perfbench
    /// driver.
    pub lp: SimplexOptions,
    /// Cap every output count at its input count (`x_ij ≤ c_ij`).
    ///
    /// The paper's Equation-(4) constraint set has no upper bounds, under
    /// which the LP optimum λ is *provably linear* in the budget
    /// `B = min{ε, ln 1/(1−δ)}` — yet the paper's Table 4 is strongly
    /// sublinear in `B`, so the authors' implementation must have bounded
    /// the counts. Capping at `c_ij` is the natural choice (a sanitized
    /// pair should not out-support its input; every example in the paper
    /// satisfies it) and reproduces the saturation shape. Upper bounds
    /// never break Lemma 1: `⌊x*⌋ ≤ x* ≤ c`.
    pub cap_at_input: bool,
    /// Answer on the packing route ([`packing::solve`]) instead of the
    /// paper's LP + floor ("anytime" mode), at every size.
    ///
    /// The packing greedy's integer counts lie in the same polytope as
    /// `⌊x*⌋` (Lemma 1 makes the floor only one feasible integer point)
    /// and usually release more: λ = 20 vs 9 on the tiny preset, 141 vs
    /// 71 on the small one. The answer is not proven optimal, so it is
    /// reported as capped, with its certified bound; the session's
    /// `max_iter` is unused. [`verify_counts`] still checks the counts
    /// against every constraint as a backstop. Off by default: the exact
    /// simplex serves `repro`, and a solve that exhausts its iteration
    /// budget there is an error.
    pub anytime: bool,
}

impl Default for OumpOptions {
    fn default() -> Self {
        OumpOptions { lp: SimplexOptions::default(), cap_at_input: true, anytime: false }
    }
}

/// O-UMP solution.
#[derive(Debug, Clone)]
pub struct OumpSolution {
    /// Floored optimal counts `⌊x*_ij⌋`, one per pair (on the packing
    /// route, the greedy's integer counts).
    pub counts: Vec<u64>,
    /// The LP-optimal counts before flooring (on the packing route, the
    /// counts themselves).
    pub lp_counts: Vec<f64>,
    /// The integer maximum output size `λ = Σ ⌊x*_ij⌋`.
    pub lambda: u64,
    /// The objective at `lp_counts`: the LP optimum before flooring.
    pub lp_value: f64,
    /// Simplex iterations used (0 on the packing route).
    pub iterations: usize,
    /// Whether the answer is not proven optimal: the packing route
    /// answered (anytime mode). The counts are feasible either way; a
    /// capped λ is a lower bound on the optimal one.
    pub capped: bool,
    /// A certified upper bound on the optimal LP value, hence on every
    /// feasible λ: `UB(y)` of [`packing::upper_bound`] at the packing
    /// dual, or at the simplex row duals clamped at 0. `1 − λ / UB`
    /// bounds how far λ can be from optimal.
    pub upper_bound: f64,
}

/// Build the O-UMP linear program of Section 5.1 over the polytope.
fn build_problem(constraints: &PrivacyConstraints, opts: &OumpOptions) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let cols: Vec<usize> = (0..constraints.n_pairs())
        .map(|pi| {
            let upper = if opts.cap_at_input {
                constraints.pair_totals()[pi] as f64
            } else {
                f64::INFINITY
            };
            p.add_col(1.0, VarBounds { lower: 0.0, upper }).expect("valid column")
        })
        .collect();
    constraints.add_to_problem(&mut p, &cols);
    p
}

impl SolveSession {
    /// Solve the O-UMP through this session, counting the solve (and
    /// whether it was capped) in the session's stats.
    pub fn solve_oump(
        &mut self,
        constraints: &PrivacyConstraints,
        opts: &OumpOptions,
    ) -> Result<OumpSolution, CoreError> {
        if constraints.n_pairs() == 0 {
            return Ok(OumpSolution {
                counts: vec![],
                lp_counts: vec![],
                lambda: 0,
                lp_value: 0.0,
                iterations: 0,
                capped: false,
                upper_bound: 0.0,
            });
        }

        if opts.anytime {
            let sol = packing::solve(constraints, opts.cap_at_input);
            self.count_packing_solve();
            verify_counts(constraints, &sol.counts)?;
            let lambda = sol.counts.iter().sum();
            return Ok(OumpSolution {
                lp_counts: sol.counts.iter().map(|&c| c as f64).collect(),
                counts: sol.counts,
                lambda,
                lp_value: lambda as f64,
                iterations: 0,
                capped: true,
                upper_bound: sol.upper_bound,
            });
        }

        let sol = self.solve(&build_problem(constraints, opts))?;
        if sol.status != SolveStatus::Optimal {
            return Err(CoreError::UnexpectedStatus(match sol.status {
                SolveStatus::Infeasible => {
                    "O-UMP reported infeasible (impossible for Mx ≤ b, b > 0)"
                }
                SolveStatus::Unbounded => "O-UMP reported unbounded (impossible for M ≥ 0)",
                _ => "iteration limit on O-UMP",
            }));
        }
        let counts = floor_counts(&sol.x);
        verify_counts(constraints, &counts)?;
        let lambda = counts.iter().sum();
        let bounds = packing::column_bounds(constraints, opts.cap_at_input);
        Ok(OumpSolution {
            counts,
            lp_counts: sol.x,
            lambda,
            lp_value: sol.objective,
            iterations: sol.iterations,
            capped: false,
            upper_bound: packing::upper_bound(constraints, &bounds, &sol.duals),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_dp::params::PrivacyParams;
    use dpsan_searchlog::{preprocess, SearchLog, SearchLogBuilder};

    /// Build the constraints and solve through a fresh default session.
    fn solve_oump(
        log: &SearchLog,
        params: PrivacyParams,
        opts: &OumpOptions,
    ) -> Result<OumpSolution, CoreError> {
        let c = PrivacyConstraints::build(log, params)?;
        SolveSession::new(SimplexOptions::default()).solve_oump(&c, opts)
    }

    fn two_pair_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        b.add("u1", "google", "google.com", 15).unwrap();
        b.add("u2", "google", "google.com", 7).unwrap();
        b.add("u3", "google", "google.com", 17).unwrap();
        b.add("u1", "book", "amazon.com", 3).unwrap();
        b.add("u3", "book", "amazon.com", 1).unwrap();
        let (log, _) = preprocess(&b.build());
        log
    }

    fn params(e_eps: f64, delta: f64) -> PrivacyParams {
        PrivacyParams::from_e_epsilon(e_eps, delta)
    }

    #[test]
    fn counts_satisfy_constraints() {
        let log = two_pair_log();
        let s = solve_oump(&log, params(2.0, 0.5), &OumpOptions::default()).unwrap();
        let c = PrivacyConstraints::build(&log, params(2.0, 0.5)).unwrap();
        assert!(c.satisfied_by(&s.counts, 1e-9));
        assert!(s.lambda > 0, "a positive output size is achievable");
        assert_eq!(s.lambda, s.counts.iter().sum::<u64>());
        assert!(s.lp_value >= s.lambda as f64 - 1e-6, "floor cannot exceed the LP optimum");
    }

    #[test]
    fn lambda_monotone_in_epsilon() {
        let log = two_pair_log();
        let mut prev = 0u64;
        for e_eps in [1.01, 1.1, 1.4, 2.0, 2.3] {
            let s = solve_oump(&log, params(e_eps, 0.8), &OumpOptions::default()).unwrap();
            assert!(s.lambda >= prev, "λ must grow with ε (e^ε={e_eps})");
            prev = s.lambda;
        }
    }

    #[test]
    fn lambda_monotone_in_delta() {
        let log = two_pair_log();
        let mut prev = 0u64;
        for delta in [1e-3, 1e-2, 0.1, 0.5, 0.8] {
            let s = solve_oump(&log, params(2.3, delta), &OumpOptions::default()).unwrap();
            assert!(s.lambda >= prev, "λ must grow with δ (δ={delta})");
            prev = s.lambda;
        }
    }

    #[test]
    fn lambda_depends_only_on_collapsed_budget() {
        let log = two_pair_log();
        // ε = ln 1.4 binds in both cells
        let a = solve_oump(&log, params(1.4, 0.5), &OumpOptions::default()).unwrap();
        let b = solve_oump(&log, params(1.4, 0.8), &OumpOptions::default()).unwrap();
        assert_eq!(a.lambda, b.lambda, "Table 4 plateau: same budget, same λ");
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn lp_value_scales_linearly_in_budget_without_caps() {
        // λ_LP(B) = B · λ_LP(1) for the pure Equation-(4) polytope —
        // the property that makes the paper's Table 4 non-reproducible
        // from the published constraint set alone (see DESIGN.md)
        let log = two_pair_log();
        let no_cap = OumpOptions { cap_at_input: false, ..Default::default() };
        let s1 = solve_oump(&log, PrivacyParams::new(0.2, 0.9999), &no_cap).unwrap();
        let s2 = solve_oump(&log, PrivacyParams::new(0.4, 0.9999), &no_cap).unwrap();
        assert!(
            (s2.lp_value - 2.0 * s1.lp_value).abs() < 1e-6,
            "{} vs 2×{}",
            s2.lp_value,
            s1.lp_value
        );
    }

    #[test]
    fn caps_bound_lambda_by_input_size() {
        let log = two_pair_log();
        // a budget beyond every row's worst case (Σ c·ln t < 25 here):
        // with caps, λ saturates at |D| = Σ c_ij
        let generous = PrivacyParams::new(100.0, 1.0 - 1e-12);
        let s = solve_oump(&log, generous, &OumpOptions::default()).unwrap();
        assert_eq!(s.lambda, log.size(), "caps saturate λ at Σ c_ij");
        // without caps the same budget yields a larger output
        let unc =
            solve_oump(&log, generous, &OumpOptions { cap_at_input: false, ..Default::default() })
                .unwrap();
        assert!(unc.lambda > s.lambda);
    }

    #[test]
    fn empty_log_yields_zero_lambda() {
        let log = SearchLogBuilder::new().build();
        let s = solve_oump(&log, params(2.0, 0.5), &OumpOptions::default()).unwrap();
        assert_eq!(s.lambda, 0);
        assert!(s.counts.is_empty());
    }

    #[test]
    fn session_counts_capped_solves() {
        let log = two_pair_log();
        let c = PrivacyConstraints::build(&log, params(2.0, 0.5)).unwrap();
        let lp = SimplexOptions { max_iter: 1, ..SimplexOptions::default() };
        let mut session = SolveSession::new(lp);
        let anytime = OumpOptions { anytime: true, ..Default::default() };
        assert!(session.solve_oump(&c, &anytime).unwrap().capped);
        assert_eq!((session.stats().solves, session.stats().capped), (1, 1));
        // a strict solve that hits the cap is an error, not a capped solve
        let strict = OumpOptions { anytime: false, ..anytime };
        assert!(session.solve_oump(&c, &strict).is_err());
        assert_eq!((session.stats().solves, session.stats().capped), (2, 1));
    }

    #[test]
    fn tiny_budget_still_feasible() {
        let log = two_pair_log();
        let s = solve_oump(&log, PrivacyParams::new(1e-6, 1e-6), &OumpOptions::default()).unwrap();
        // counts floor to zero but the solve must succeed
        assert_eq!(s.lambda, 0);
    }
}
