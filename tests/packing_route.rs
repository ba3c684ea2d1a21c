//! The packing route of the O-UMP and the certified bound every O-UMP
//! answer carries.
//!
//! * `UB(y)` is a weak-duality bound: for any row prices `y ≥ 0` it is
//!   at least the LP optimum, checked against the independent dense
//!   tableau oracle (`dense_simplex`) on random capped packing LPs
//!   (random preprocessed search logs) and on the tiny preset, and
//!   against the exact revised-simplex optimum on the small preset.
//! * The packing answer is integer, capped, privacy-feasible, below
//!   its own bound, and deterministic; on the tiny and small presets
//!   its λ, counts and bound bits are pinned, so any reordering of the
//!   dual's floating-point arithmetic fails here.
//! * An anytime solve takes the packing route at every size, below
//!   and above the sparse-kernel threshold of 512 rows; at scale it
//!   releases at least what 2,000 capped simplex pivots plus a floor
//!   would.
//! * Production O-UMP (`UmpSanitizer`) never releases less than the
//!   paper's exact LP + floor: on every distinct Table-4 budget of the
//!   tiny preset and at the reference cell of the small one.

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::mechanism::{Sanitizer, UmpSanitizer, UtilityObjective};
use dpsan_core::session::SolveSession;
use dpsan_core::ump::output_size::{OumpOptions, OumpSolution};
use dpsan_core::ump::{floor_counts, packing, verify_counts};
use dpsan_datagen::{generate, presets, AolLikeConfig};
use dpsan_dp::params::PrivacyParams;
use dpsan_eval::grids::{reference_params, DELTA_GRID, E_EPS_GRID};
use dpsan_lp::dense_simplex::solve_dense;
use dpsan_lp::problem::{Problem, Sense, VarBounds};
use dpsan_lp::simplex::{self, SimplexOptions, SolveStatus, SPARSE_MIN_ROWS};
use dpsan_searchlog::{preprocess, SearchLog, SearchLogBuilder};
use proptest::prelude::*;

fn params() -> PrivacyParams {
    PrivacyParams::from_e_epsilon(2.0, 0.5)
}

/// The O-UMP through a fresh session on the given kernel route
/// (`None`: chosen by size).
fn solve_oump(c: &PrivacyConstraints, sparse: Option<bool>, opts: &OumpOptions) -> OumpSolution {
    SolveSession::new(SimplexOptions { sparse, ..SimplexOptions::default() })
        .solve_oump(c, opts)
        .unwrap()
}

/// The O-UMP linear program over the constraints, as
/// `SolveSession::solve_oump` builds it.
fn oump_problem(c: &PrivacyConstraints) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let cols: Vec<usize> = c
        .pair_totals()
        .iter()
        .map(|&cap| p.add_col(1.0, VarBounds { lower: 0.0, upper: cap as f64 }).unwrap())
        .collect();
    c.add_to_problem(&mut p, &cols);
    p
}

/// A random search log: `users × pairs` counts read row-major from
/// `flat`, preprocessed (so every pair has at least two holders).
fn random_log(users: usize, pairs: usize, flat: &[u64]) -> SearchLog {
    let mut b = SearchLogBuilder::new();
    for u in 0..users {
        for p in 0..pairs {
            let count = flat[u * pairs + p];
            if count > 0 {
                b.add(&format!("u{u}"), &format!("q{p}"), "x.com", count).unwrap();
            }
        }
    }
    preprocess(&b.build()).0
}

/// `UB(y)` at every route's `y` and at the given random prices, each
/// checked against `lp_star`.
fn assert_bounds_cover(c: &PrivacyConstraints, lp_star: f64, prices: &[f64]) {
    let tol = 1e-9;
    let bounds = packing::column_bounds(c);
    let y: Vec<f64> = (0..c.n_rows()).map(|i| prices[i % prices.len()]).collect();
    let random = packing::upper_bound(c, &bounds, &y);
    assert!(random >= lp_star - tol, "random y: UB {random} < LP* {lp_star}");
    assert!(packing::upper_bound(c, &bounds, &vec![0.0; c.n_rows()]) >= lp_star - tol);
    let pack = packing::solve(c).upper_bound;
    assert!(pack >= lp_star - tol, "packing dual: UB {pack} < LP* {lp_star}");
    for sparse in [false, true] {
        let ub = solve_oump(c, Some(sparse), &OumpOptions::default()).upper_bound;
        assert!(ub >= lp_star - tol, "simplex duals (sparse={sparse}): UB {ub} < LP* {lp_star}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn upper_bound_covers_the_dense_optimum_on_random_packing_lps(
        users in 2usize..7,
        pairs in 1usize..6,
        flat in prop::collection::vec(0u64..30, 36),
        prices in prop::collection::vec(0.0f64..3.0, 8),
    ) {
        let log = random_log(users, pairs, &flat);
        prop_assume!(log.n_pairs() > 0);
        let c = PrivacyConstraints::build(&log, params()).unwrap();
        let dense = solve_dense(&oump_problem(&c));
        assert_bounds_cover(&c, dense.objective, &prices);
    }

    #[test]
    fn packing_answer_is_integer_capped_feasible_and_repeatable(
        users in 2usize..7,
        pairs in 1usize..6,
        flat in prop::collection::vec(0u64..30, 36),
        e_eps in 1.05f64..4.0,
    ) {
        let log = random_log(users, pairs, &flat);
        prop_assume!(log.n_pairs() > 0);
        let c = PrivacyConstraints::build(&log, PrivacyParams::from_e_epsilon(e_eps, 0.5))
            .unwrap();
        let a = packing::solve(&c);
        for (&x, &c_ij) in a.counts.iter().zip(c.pair_totals()) {
            prop_assert!(x <= c_ij, "count {} above its cap {}", x, c_ij);
        }
        prop_assert!(verify_counts(&c, &a.counts).is_ok());
        let lambda: u64 = a.counts.iter().sum();
        prop_assert!(lambda as f64 <= a.upper_bound + 1e-9, "λ {} > UB {}", lambda, a.upper_bound);
        let b = packing::solve(&c);
        prop_assert_eq!(&a.counts, &b.counts);
        prop_assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
    }
}

/// The packing answer on a preset at `params()`: λ, a position-weighted
/// checksum of the counts (`Σ (j + 1)·x_j`) and the bound's bits.
fn packing_pin(cfg: &AolLikeConfig) -> (u64, u64, u64) {
    let (pre, _) = preprocess(&generate(cfg));
    let a = packing::solve(&PrivacyConstraints::build(&pre, params()).unwrap());
    let checksum = a.counts.iter().enumerate().map(|(j, &x)| (j as u64 + 1) * x).sum();
    (a.counts.iter().sum(), checksum, a.upper_bound.to_bits())
}

#[test]
fn packing_answer_is_pinned_on_the_tiny_and_small_presets() {
    // tiny: UB 28.520759939287267; small: UB 209.84814431766276
    assert_eq!(packing_pin(&presets::aol_tiny()), (20, 1_209, 0x403c_8550_85fc_4e46));
    assert_eq!(packing_pin(&presets::aol_small()), (141, 110_591, 0x406a_3b23_ff8d_54cb));
}

#[test]
fn upper_bound_covers_the_tiny_preset_optimum() {
    let (pre, _) = preprocess(&generate(&presets::aol_tiny()));
    let c = PrivacyConstraints::build(&pre, params()).unwrap();
    let dense = solve_dense(&oump_problem(&c));
    assert_bounds_cover(&c, dense.objective, &[0.3, 1.0, 0.0, 2.5]);
}

#[test]
fn upper_bound_covers_the_small_preset_optimum() {
    // the dense tableau oracle is meant for a few dozen rows; at 394
    // rows × 1,741 columns the exact revised-simplex optimum stands in
    let (pre, _) = preprocess(&generate(&presets::aol_small()));
    let c = PrivacyConstraints::build(&pre, params()).unwrap();
    let exact = solve_oump(&c, None, &OumpOptions::default());
    assert!(!exact.capped);
    assert_bounds_cover(&c, exact.lp_value, &[0.05, 0.0, 0.2]);
    // at a proven optimum the simplex duals certify it: the gap closes
    assert!(
        exact.upper_bound <= exact.lp_value * (1.0 + 1e-6) + 1e-6,
        "exact solve: UB {} vs LP* {}",
        exact.upper_bound,
        exact.lp_value
    );
}

/// The small preset's sharing shape at `users` users, with the query
/// vocabulary scaled along (as `genlog --users` does).
fn scaled_small(users: usize) -> AolLikeConfig {
    let mut cfg = presets::aol_small();
    let ratio = users as f64 / cfg.n_users as f64;
    cfg.n_queries = ((cfg.n_queries as f64 * ratio).ceil() as usize).max(1);
    cfg.n_users = users;
    cfg
}

/// An anytime O-UMP through a fresh session with `lp`: it must take the
/// packing route — one capped solve, no simplex iterations, the
/// greedy's privacy-feasible counts under their own bound.
fn assert_packing_route(c: &PrivacyConstraints, lp: &SimplexOptions) -> OumpSolution {
    let mut session = SolveSession::new(lp.clone());
    let opts = OumpOptions { anytime: true, ..OumpOptions::default() };
    let sol = session.solve_oump(c, &opts).unwrap();
    assert!(sol.capped, "a packing answer is not proven optimal");
    assert_eq!(sol.iterations, 0);
    let stats = session.stats();
    assert_eq!((stats.solves, stats.iterations, stats.capped), (1, 0, 1));
    assert_eq!(sol.counts, packing::solve(c).counts, "the packing greedy's counts");
    assert!(verify_counts(c, &sol.counts).is_ok());
    assert!(sol.lambda as f64 <= sol.upper_bound);
    sol
}

#[test]
fn anytime_solve_at_scale_takes_the_packing_route() {
    let (pre, _) = preprocess(&generate(&scaled_small(1_000)));
    let c = PrivacyConstraints::build(&pre, params()).unwrap();
    assert!(c.n_rows() >= SPARSE_MIN_ROWS, "{} rows", c.n_rows());
    let lp = SimplexOptions { max_iter: 2_000, ..SimplexOptions::default() };
    let sol = assert_packing_route(&c, &lp);

    // the same constraints through 2,000 capped simplex pivots + floor
    let capped = simplex::solve(&oump_problem(&c), &lp).unwrap();
    assert_eq!(capped.status, SolveStatus::IterationLimit);
    let floored: u64 = floor_counts(&capped.x).iter().sum();
    assert!(sol.lambda >= floored, "packing λ {} < capped simplex λ {floored}", sol.lambda);
}

#[test]
fn anytime_solve_below_the_sparse_threshold_takes_the_packing_route() {
    let (pre, _) = preprocess(&generate(&presets::aol_tiny()));
    let c = PrivacyConstraints::build(&pre, params()).unwrap();
    assert!(c.n_rows() < SPARSE_MIN_ROWS, "{} rows", c.n_rows());
    assert_packing_route(&c, &SimplexOptions::default());
}

/// The λ a production O-UMP release carries (packing route) and the
/// λ of the paper's exact LP + floor, on one preprocessed log.
fn production_and_exact_lambda(pre: &SearchLog, params: PrivacyParams) -> (u64, u64) {
    let release =
        UmpSanitizer::new(UtilityObjective::OutputSize).sanitize(pre, params, 0xd95a_11ce).unwrap();
    assert_eq!(release.solver.iterations, 0, "production takes the packing route");
    let c = PrivacyConstraints::build(pre, params).unwrap();
    let exact = solve_oump(&c, None, &OumpOptions::default());
    assert!(!exact.capped);
    (release.counts.iter().sum(), exact.lambda)
}

#[test]
fn production_lambda_is_at_least_the_exact_floor_on_every_tiny_table4_budget() {
    let (pre, _) = preprocess(&generate(&presets::aol_tiny()));
    let mut budgets: Vec<(f64, PrivacyParams)> = Vec::new();
    for &e_eps in &E_EPS_GRID {
        for &delta in &DELTA_GRID {
            let p = PrivacyParams::from_e_epsilon(e_eps, delta);
            let b = p.budget().value();
            if !budgets.iter().any(|&(seen, _)| seen == b) {
                budgets.push((b, p));
            }
        }
    }
    assert_eq!(budgets.len(), 12, "Table 4's 7 × 7 grid collapses to 12 budgets");
    for (b, p) in budgets {
        let (production, exact) = production_and_exact_lambda(&pre, p);
        assert!(production >= exact, "B = {b}: production λ {production} < exact λ {exact}");
    }
}

#[test]
fn production_lambda_is_at_least_the_exact_floor_on_the_small_preset() {
    let (pre, _) = preprocess(&generate(&presets::aol_small()));
    let (production, exact) = production_and_exact_lambda(&pre, reference_params());
    assert!(production >= exact, "production λ {production} < exact λ {exact}");
}
