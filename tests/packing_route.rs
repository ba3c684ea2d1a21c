//! The packing route of the O-UMP and the certified bound every O-UMP
//! answer carries.
//!
//! * `UB(y)` is a weak-duality bound: for any row prices `y ≥ 0` it is
//!   at least the LP optimum, checked against the independent dense
//!   tableau oracle (`dense_simplex`) on random capped packing LPs
//!   (random preprocessed search logs) and on the tiny preset, and
//!   against the exact revised-simplex optimum on the small preset.
//! * The packing answer is integer, capped, privacy-feasible, below
//!   its own bound, and deterministic.
//! * An anytime solve with ≥ 512 rows takes the packing route and
//!   releases at least what 2,000 capped simplex pivots plus a floor
//!   would.

use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::session::SolveSession;
use dpsan_core::ump::output_size::{OumpOptions, OumpSolution};
use dpsan_core::ump::{floor_counts, packing, verify_counts};
use dpsan_datagen::{generate, presets, AolLikeConfig};
use dpsan_dp::params::PrivacyParams;
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
fn oump_problem(c: &PrivacyConstraints, cap_at_input: bool) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let cols: Vec<usize> = (0..c.n_pairs())
        .map(|pi| {
            let upper = if cap_at_input { c.pair_totals()[pi] as f64 } else { f64::INFINITY };
            p.add_col(1.0, VarBounds { lower: 0.0, upper }).unwrap()
        })
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
fn assert_bounds_cover(c: &PrivacyConstraints, cap: bool, lp_star: f64, prices: &[f64]) {
    let tol = 1e-9;
    let bounds = packing::column_bounds(c, cap);
    let y: Vec<f64> = (0..c.n_rows()).map(|i| prices[i % prices.len()]).collect();
    let random = packing::upper_bound(c, &bounds, &y);
    assert!(random >= lp_star - tol, "random y: UB {random} < LP* {lp_star}");
    assert!(packing::upper_bound(c, &bounds, &vec![0.0; c.n_rows()]) >= lp_star - tol);
    let pack = packing::solve(c, cap).upper_bound;
    assert!(pack >= lp_star - tol, "packing dual: UB {pack} < LP* {lp_star}");
    let opts = OumpOptions { cap_at_input: cap, ..OumpOptions::default() };
    for sparse in [false, true] {
        let ub = solve_oump(c, Some(sparse), &opts).upper_bound;
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
        cap in 0u8..2,
    ) {
        let log = random_log(users, pairs, &flat);
        prop_assume!(log.n_pairs() > 0);
        let c = PrivacyConstraints::build(&log, params()).unwrap();
        let cap = cap == 1;
        let dense = solve_dense(&oump_problem(&c, cap));
        assert_bounds_cover(&c, cap, dense.objective, &prices);
    }

    #[test]
    fn packing_answer_is_integer_capped_feasible_and_repeatable(
        users in 2usize..7,
        pairs in 1usize..6,
        flat in prop::collection::vec(0u64..30, 36),
        e_eps in 1.05f64..4.0,
        cap in 0u8..2,
    ) {
        let log = random_log(users, pairs, &flat);
        prop_assume!(log.n_pairs() > 0);
        let c = PrivacyConstraints::build(&log, PrivacyParams::from_e_epsilon(e_eps, 0.5))
            .unwrap();
        let cap = cap == 1;
        let a = packing::solve(&c, cap);
        if cap {
            for (&x, &c_ij) in a.counts.iter().zip(c.pair_totals()) {
                prop_assert!(x <= c_ij, "count {} above its cap {}", x, c_ij);
            }
        }
        prop_assert!(verify_counts(&c, &a.counts).is_ok());
        let lambda: u64 = a.counts.iter().sum();
        prop_assert!(lambda as f64 <= a.upper_bound + 1e-9, "λ {} > UB {}", lambda, a.upper_bound);
        let b = packing::solve(&c, cap);
        prop_assert_eq!(&a.counts, &b.counts);
        prop_assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
    }
}

#[test]
fn upper_bound_covers_the_tiny_preset_optimum() {
    let (pre, _) = preprocess(&generate(&presets::aol_tiny()));
    let c = PrivacyConstraints::build(&pre, params()).unwrap();
    let dense = solve_dense(&oump_problem(&c, true));
    assert_bounds_cover(&c, true, dense.objective, &[0.3, 1.0, 0.0, 2.5]);
}

#[test]
fn upper_bound_covers_the_small_preset_optimum() {
    // the dense tableau oracle is meant for a few dozen rows; at 394
    // rows × 1,741 columns the exact revised-simplex optimum stands in
    let (pre, _) = preprocess(&generate(&presets::aol_small()));
    let c = PrivacyConstraints::build(&pre, params()).unwrap();
    let exact = solve_oump(&c, None, &OumpOptions::default());
    assert!(!exact.capped);
    assert_bounds_cover(&c, true, exact.lp_value, &[0.05, 0.0, 0.2]);
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

#[test]
fn anytime_solve_at_scale_takes_the_packing_route() {
    let (pre, _) = preprocess(&generate(&scaled_small(1_000)));
    let c = PrivacyConstraints::build(&pre, params()).unwrap();
    assert!(c.n_rows() >= SPARSE_MIN_ROWS, "{} rows", c.n_rows());

    let lp = SimplexOptions { max_iter: 2_000, ..SimplexOptions::default() };
    let mut session = SolveSession::new(lp.clone());
    let opts = OumpOptions { anytime: true, ..OumpOptions::default() };
    let sol = session.solve_oump(&c, &opts).unwrap();
    assert!(sol.capped, "a packing answer is not proven optimal");
    assert_eq!(sol.iterations, 0);
    let stats = session.stats();
    assert_eq!((stats.solves, stats.iterations, stats.capped), (1, 0, 1));
    assert!(verify_counts(&c, &sol.counts).is_ok());
    assert!(sol.lambda as f64 <= sol.upper_bound);

    // the same constraints through 2,000 capped simplex pivots + floor
    let capped = simplex::solve(&oump_problem(&c, true), &lp).unwrap();
    assert_eq!(capped.status, SolveStatus::IterationLimit);
    let floored: u64 = floor_counts(&capped.x).iter().sum();
    assert!(sol.lambda >= floored, "packing λ {} < capped simplex λ {floored}", sol.lambda);
}
