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

use dpsan_dp::params::PrivacyParams;
use dpsan_lp::problem::{Problem, Sense, VarBounds};
use dpsan_lp::simplex::{solve, SimplexOptions, Solution, SolveStatus};
use dpsan_searchlog::SearchLog;

use crate::constraints::PrivacyConstraints;
use crate::error::CoreError;
use crate::session::SolveSession;
use crate::ump::{floor_counts, verify_counts};

/// O-UMP options.
#[derive(Debug, Clone)]
pub struct OumpOptions {
    /// LP solver options.
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
    /// Accept the best iterate found so far when the LP hits
    /// `lp.max_iter` before proving optimality ("anytime" mode).
    ///
    /// Sound because the O-UMP starts primal feasible (x = 0 satisfies
    /// `Mx ≤ b`, `b > 0`) and every phase-2 simplex iterate stays
    /// primal feasible — a capped solve sacrifices utility (a smaller
    /// λ), never privacy. [`verify_counts`] still checks the returned
    /// counts against every constraint as a backstop. Off by default:
    /// an uncapped solve that exhausts its iteration budget remains an
    /// error.
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
    /// Floored optimal counts `⌊x*_ij⌋`, one per pair.
    pub counts: Vec<u64>,
    /// The LP-optimal counts before flooring.
    pub lp_counts: Vec<f64>,
    /// The integer maximum output size `λ = Σ ⌊x*_ij⌋`.
    pub lambda: u64,
    /// The LP optimum before flooring.
    pub lp_value: f64,
    /// Simplex iterations used.
    pub iterations: usize,
    /// Whether the solve stopped at the iteration budget (anytime
    /// mode) rather than at a proven optimum. The counts are feasible
    /// either way; a capped λ is a lower bound on the optimal one.
    pub capped: bool,
}

/// Solve the O-UMP on a preprocessed log.
pub fn solve_oump(
    log: &SearchLog,
    params: PrivacyParams,
    opts: &OumpOptions,
) -> Result<OumpSolution, CoreError> {
    let constraints = PrivacyConstraints::build(log, params)?;
    solve_oump_with(&constraints, opts)
}

/// Solve the O-UMP given prebuilt constraints (lets callers cache the
/// constraint system across parameter grids).
pub fn solve_oump_with(
    constraints: &PrivacyConstraints,
    opts: &OumpOptions,
) -> Result<OumpSolution, CoreError> {
    solve_oump_inner(constraints, opts, None)
}

impl SolveSession {
    /// Solve the O-UMP through this session, counting the solve (and
    /// whether it was capped) in the session's stats. The session's LP
    /// options override `opts.lp`.
    pub fn solve_oump(
        &mut self,
        constraints: &PrivacyConstraints,
        opts: &OumpOptions,
    ) -> Result<OumpSolution, CoreError> {
        let sol = solve_oump_inner(constraints, opts, Some(&mut *self))?;
        if sol.capped {
            self.count_capped();
        }
        Ok(sol)
    }
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

fn solve_oump_inner(
    constraints: &PrivacyConstraints,
    opts: &OumpOptions,
    session: Option<&mut SolveSession>,
) -> Result<OumpSolution, CoreError> {
    if constraints.n_pairs() == 0 {
        return Ok(OumpSolution {
            counts: vec![],
            lp_counts: vec![],
            lambda: 0,
            lp_value: 0.0,
            iterations: 0,
            capped: false,
        });
    }

    let p = build_problem(constraints, opts);
    let sol: Solution = match session {
        Some(s) => s.solve(&p)?,
        None => solve(&p, &opts.lp)?,
    };
    let capped = sol.status == SolveStatus::IterationLimit && opts.anytime;
    if sol.status != SolveStatus::Optimal && !capped {
        return Err(CoreError::UnexpectedStatus(match sol.status {
            SolveStatus::Infeasible => "O-UMP reported infeasible (impossible for Mx ≤ b, b > 0)",
            SolveStatus::Unbounded => "O-UMP reported unbounded (impossible for M ≥ 0)",
            _ => "iteration limit on O-UMP",
        }));
    }

    let counts = floor_counts(&sol.x);
    verify_counts(constraints, &counts)?;
    let lambda = counts.iter().sum();
    Ok(OumpSolution {
        counts,
        lp_counts: sol.x,
        lambda,
        lp_value: sol.objective,
        iterations: sol.iterations,
        capped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_searchlog::{preprocess, SearchLogBuilder};

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
    fn anytime_cap_returns_feasible_incumbent() {
        let log = two_pair_log();
        let p = params(2.0, 0.5);
        // one iteration is never enough to prove optimality here
        let lp = SimplexOptions { max_iter: 1, ..SimplexOptions::default() };
        // without anytime, hitting the budget is an error
        let strict = OumpOptions { lp: lp.clone(), ..Default::default() };
        assert!(solve_oump(&log, p, &strict).is_err());
        // with anytime, the incumbent comes back flagged and feasible
        let anytime = OumpOptions { lp, anytime: true, ..Default::default() };
        let s = solve_oump(&log, p, &anytime).unwrap();
        assert!(s.capped, "one iteration cannot prove optimality on this LP");
        let c = PrivacyConstraints::build(&log, p).unwrap();
        assert!(c.satisfied_by(&s.counts, 1e-9), "capped counts stay privacy-feasible");
        // the capped λ lower-bounds the optimum
        let full = solve_oump(&log, p, &OumpOptions::default()).unwrap();
        assert!(!full.capped);
        assert!(s.lambda <= full.lambda);
    }

    #[test]
    fn session_counts_capped_solves() {
        let log = two_pair_log();
        let c = PrivacyConstraints::build(&log, params(2.0, 0.5)).unwrap();
        let lp = SimplexOptions { max_iter: 1, ..SimplexOptions::default() };
        let mut session = SolveSession::new(lp.clone());
        let anytime = OumpOptions { lp, anytime: true, ..Default::default() };
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
