//! F-UMP: the Frequent query–url pair Utility-Maximizing Problem
//! (Section 5.2).
//!
//! With a fixed output size `|O| ∈ (0, λ]` and minimum support `s`:
//!
//! ```text
//! min  Σ_{f frequent} y_f
//! s.t. privacy rows           Σ_{A_k} x_ij ln t_ijk ≤ B
//!      fixed output size      Σ_ij x_ij = |O|
//!      abs-value split        y_f ≥  x_f/|O| − c_f/|D|
//!                             y_f ≥ −x_f/|O| + c_f/|D|
//!      x ≥ 0 integer
//! ```
//!
//! Solved by linear relaxation + floor (Lemma 2). Note the floored
//! counts may sum to slightly less than `|O|` — the equality is a
//! utility device, not a privacy constraint, so feasibility is kept.

use dpsan_dp::params::PrivacyParams;
use dpsan_lp::problem::{Problem, RowBounds, Sense, VarBounds};
use dpsan_lp::simplex::{solve, SimplexOptions, SolveStatus};
use dpsan_searchlog::{frequent_pairs, FrequentPair, SearchLog};

use crate::constraints::PrivacyConstraints;
use crate::error::CoreError;
use crate::session::SolveSession;
use crate::ump::{floor_counts, verify_counts};

/// F-UMP options.
#[derive(Debug, Clone)]
pub struct FumpOptions {
    /// Minimum support `s` defining the frequent pairs.
    pub min_support: f64,
    /// Target output size `|O|` (must be in `(0, λ]` for feasibility).
    pub output_size: u64,
    /// LP solver options.
    pub lp: SimplexOptions,
    /// Cap counts at `x_ij ≤ c_ij` (see
    /// [`crate::ump::output_size::OumpOptions::cap_at_input`]).
    pub cap_at_input: bool,
}

impl FumpOptions {
    /// Options with the given support and output size, defaults
    /// elsewhere.
    pub fn new(min_support: f64, output_size: u64) -> Self {
        FumpOptions { min_support, output_size, lp: SimplexOptions::default(), cap_at_input: true }
    }
}

/// F-UMP solution.
#[derive(Debug, Clone)]
pub struct FumpSolution {
    /// Floored optimal counts `⌊x*_ij⌋`, one per pair.
    pub counts: Vec<u64>,
    /// The LP-optimal counts before flooring (for utility measurement;
    /// sampling always uses the floored `counts`).
    pub lp_counts: Vec<f64>,
    /// The LP optimum: the minimum sum of support distances over the
    /// frequent pairs (at the *relaxed* solution).
    pub lp_objective: f64,
    /// The frequent pairs the objective protected.
    pub frequent: Vec<FrequentPair>,
    /// Simplex iterations used.
    pub iterations: usize,
}

/// Solve the F-UMP on a preprocessed log.
pub fn solve_fump(
    log: &SearchLog,
    params: PrivacyParams,
    opts: &FumpOptions,
) -> Result<FumpSolution, CoreError> {
    let constraints = PrivacyConstraints::build(log, params)?;
    solve_fump_with(log, &constraints, opts)
}

/// Solve the F-UMP given prebuilt constraints.
pub fn solve_fump_with(
    log: &SearchLog,
    constraints: &PrivacyConstraints,
    opts: &FumpOptions,
) -> Result<FumpSolution, CoreError> {
    solve_fump_inner(log, constraints, opts, None)
}

impl SolveSession {
    /// Solve the F-UMP through this session, counting the solve in the
    /// session's stats. The session's LP options override `opts.lp`.
    pub fn solve_fump(
        &mut self,
        log: &SearchLog,
        constraints: &PrivacyConstraints,
        opts: &FumpOptions,
    ) -> Result<FumpSolution, CoreError> {
        solve_fump_inner(log, constraints, opts, Some(self))
    }
}

/// Build the F-UMP linear program of Section 5.2 (privacy rows, fixed
/// output size, abs-value split on the frequent pairs).
fn build_problem(
    log: &SearchLog,
    constraints: &PrivacyConstraints,
    opts: &FumpOptions,
    frequent: &[FrequentPair],
) -> Problem {
    let n = constraints.n_pairs();
    let size_d = log.size() as f64;
    let size_o = opts.output_size as f64;

    let mut p = Problem::new(Sense::Minimize);
    let x_cols: Vec<usize> = (0..n)
        .map(|pi| {
            let upper = if opts.cap_at_input {
                constraints.pair_totals()[pi] as f64
            } else {
                f64::INFINITY
            };
            p.add_col(0.0, VarBounds { lower: 0.0, upper }).expect("valid column")
        })
        .collect();
    constraints.add_to_problem(&mut p, &x_cols);

    // Σ x = |O|
    let all: Vec<(usize, f64)> = x_cols.iter().map(|&j| (j, 1.0)).collect();
    p.add_row(RowBounds::equal(size_o), &all).expect("valid row");

    // abs-value split per frequent pair
    for f in frequent {
        let y = p.add_col(1.0, VarBounds::non_negative()).expect("valid column");
        let xj = x_cols[f.pair.index()];
        let target = f.count as f64 / size_d;
        // y + x/|O| >= target  and  y - x/|O| >= -target
        p.add_row(RowBounds::at_least(target), &[(y, 1.0), (xj, 1.0 / size_o)]).expect("valid row");
        p.add_row(RowBounds::at_least(-target), &[(y, 1.0), (xj, -1.0 / size_o)])
            .expect("valid row");
    }
    p
}

fn solve_fump_inner(
    log: &SearchLog,
    constraints: &PrivacyConstraints,
    opts: &FumpOptions,
    session: Option<&mut SolveSession>,
) -> Result<FumpSolution, CoreError> {
    assert!(opts.min_support > 0.0 && opts.min_support <= 1.0, "support must be in (0, 1]");
    if opts.output_size == 0 {
        return Err(CoreError::OutputSizeInfeasible { requested: 0 });
    }
    if constraints.n_pairs() == 0 {
        return Err(CoreError::OutputSizeInfeasible { requested: opts.output_size });
    }

    let n = constraints.n_pairs();
    let frequent = frequent_pairs(log, opts.min_support);
    let p = build_problem(log, constraints, opts, &frequent);

    let sol = match session {
        Some(s) => s.solve(&p)?,
        None => solve(&p, &opts.lp)?,
    };
    match sol.status {
        SolveStatus::Optimal => {}
        SolveStatus::Infeasible => {
            return Err(CoreError::OutputSizeInfeasible { requested: opts.output_size })
        }
        _ => return Err(CoreError::UnexpectedStatus("F-UMP did not reach optimality")),
    }

    let counts = floor_counts(&sol.x[..n]);
    verify_counts(constraints, &counts)?;
    Ok(FumpSolution {
        counts,
        lp_counts: sol.x[..n].to_vec(),
        lp_objective: sol.objective,
        frequent,
        iterations: sol.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ump::output_size::{solve_oump, OumpOptions};
    use dpsan_searchlog::{preprocess, SearchLogBuilder};

    /// A log with a clear frequency skew over four shared pairs. Each
    /// pair is spread across many holders with small shares, the regime
    /// of real search logs (small `ln t_ijk`, so integer counts survive
    /// the LP-relaxation floor).
    fn skewed_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        // google: 10 holders x 12 clicks -> support 120/216
        for k in 0..10 {
            b.add(&format!("u{k}"), "google", "google.com", 12).unwrap();
        }
        // weather: 8 holders x 6 clicks -> 48/216
        for k in 0..8 {
            b.add(&format!("u{k}"), "weather", "weather.com", 6).unwrap();
        }
        // book: 6 holders x 5 clicks -> 30/216
        for k in 2..8 {
            b.add(&format!("u{k}"), "book", "amazon.com", 5).unwrap();
        }
        // rare: 6 holders x 3 clicks -> 18/216
        for k in 4..10 {
            b.add(&format!("u{k}"), "rare", "rare.org", 3).unwrap();
        }
        let (log, _) = preprocess(&b.build());
        log
    }

    fn params() -> PrivacyParams {
        PrivacyParams::from_e_epsilon(2.0, 0.5)
    }

    fn opts(s: f64, o: u64) -> FumpOptions {
        FumpOptions::new(s, o)
    }

    #[test]
    fn solution_is_private_and_sized() {
        let log = skewed_log();
        let lambda = solve_oump(&log, params(), &OumpOptions::default()).unwrap().lambda;
        assert!(lambda > 4, "need room for a meaningful output size (λ={lambda})");
        let o = lambda / 2;
        let s = solve_fump(&log, params(), &opts(0.05, o)).unwrap();
        let c = PrivacyConstraints::build(&log, params()).unwrap();
        assert!(c.satisfied_by(&s.counts, 1e-9));
        let total: u64 = s.counts.iter().sum();
        assert!(total <= o, "floored total cannot exceed |O|");
        assert!(total + s.counts.len() as u64 >= o, "flooring loses < 1 per pair");
    }

    #[test]
    fn frequent_supports_tracked_when_budget_allows() {
        let log = skewed_log();
        let lambda = solve_oump(&log, params(), &OumpOptions::default()).unwrap().lambda;
        let o = lambda.min(log.size() / 3).max(1);
        let s = solve_fump(&log, params(), &opts(0.2, o)).unwrap();
        assert!(!s.frequent.is_empty(), "google pair is frequent at s=0.2 (support 120/216)");
        // objective is a sum of distances: non-negative and bounded by
        // the number of frequent pairs
        assert!(s.lp_objective >= -1e-9);
        assert!(s.lp_objective <= s.frequent.len() as f64 + 1e-9);
    }

    #[test]
    fn objective_decreases_with_looser_privacy() {
        let log = skewed_log();
        let tight = PrivacyParams::from_e_epsilon(1.4, 0.2);
        let loose = PrivacyParams::from_e_epsilon(2.3, 0.8);
        // pick an output size feasible under both budgets (λ is monotone)
        let o = solve_oump(&log, tight, &OumpOptions::default()).unwrap().lambda;
        assert!(o > 0, "tight budget still admits a positive output size");
        let d_tight = solve_fump(&log, tight, &opts(0.1, o)).unwrap().lp_objective;
        let d_loose = solve_fump(&log, loose, &opts(0.1, o)).unwrap().lp_objective;
        assert!(
            d_loose <= d_tight + 1e-9,
            "looser privacy cannot hurt the optimum: {d_loose} vs {d_tight}"
        );
    }

    #[test]
    fn output_size_beyond_lambda_is_infeasible() {
        let log = skewed_log();
        let lambda = solve_oump(&log, params(), &OumpOptions::default()).unwrap().lambda;
        let err = solve_fump(&log, params(), &opts(0.1, lambda * 10 + 100)).unwrap_err();
        assert!(matches!(err, CoreError::OutputSizeInfeasible { .. }));
    }

    #[test]
    fn zero_output_size_rejected() {
        let log = skewed_log();
        assert!(matches!(
            solve_fump(&log, params(), &opts(0.1, 0)),
            Err(CoreError::OutputSizeInfeasible { requested: 0 })
        ));
    }

    #[test]
    fn no_frequent_pairs_reduces_to_feasibility() {
        let log = skewed_log();
        // support threshold of 1.0: nothing is frequent; objective 0
        let lambda = solve_oump(&log, params(), &OumpOptions::default()).unwrap().lambda;
        let s = solve_fump(&log, params(), &opts(1.0, lambda.max(1) / 2)).unwrap();
        assert!(s.frequent.is_empty());
        assert!(s.lp_objective.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "support must be in (0, 1]")]
    fn bad_support_panics() {
        let log = skewed_log();
        let _ = solve_fump(&log, params(), &opts(0.0, 10));
    }
}
