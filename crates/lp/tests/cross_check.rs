//! Cross-checks between the revised simplex and the independent dense
//! reference implementation, plus property tests on random models.

use dpsan_lp::dense_simplex::solve_dense;
use dpsan_lp::mip::{solve_mip, BbOptions};
use dpsan_lp::problem::{Problem, RowBounds, Sense, VarBounds};
use dpsan_lp::simplex::{solve, SimplexOptions, Solution, SolveStatus};
use proptest::prelude::*;

/// A random bounded LP: maximize over non-negative variables with
/// `≤` rows whose coefficients are non-negative and whose diagonal-ish
/// structure guarantees bounded optima.
fn random_packing_lp(n: usize, m: usize, coefs: Vec<f64>, rhs: Vec<f64>) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    for _ in 0..n {
        p.add_col(1.0, VarBounds::non_negative()).unwrap();
    }
    let mut it = coefs.into_iter();
    for (i, &rhs_i) in rhs.iter().enumerate().take(m) {
        let entries: Vec<(usize, f64)> =
            (0..n).filter_map(|j| it.next().map(|v| (j, v))).filter(|&(_, v)| v > 0.01).collect();
        let entries = if entries.is_empty() { vec![(i % n, 0.5)] } else { entries };
        p.add_row(RowBounds::at_most(rhs_i), &entries).unwrap();
    }
    // cover all columns to keep the LP bounded
    let cover: Vec<(usize, f64)> = (0..n).map(|j| (j, 0.1)).collect();
    p.add_row(RowBounds::at_most(20.0), &cover).unwrap();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn revised_matches_dense_on_random_packing(
        n in 2usize..8,
        m in 1usize..6,
        coefs in prop::collection::vec(0.0f64..2.0, 48),
        rhs in prop::collection::vec(0.5f64..4.0, 6),
    ) {
        let p = random_packing_lp(n, m, coefs, rhs);
        let fast = solve(&p, &SimplexOptions::default()).unwrap();
        let slow = solve_dense(&p);
        prop_assert_eq!(fast.status, SolveStatus::Optimal);
        prop_assert_eq!(slow.status, SolveStatus::Optimal);
        prop_assert!((fast.objective - slow.objective).abs() < 1e-5,
            "revised {} vs dense {}", fast.objective, slow.objective);
        prop_assert!(p.max_violation(&fast.x) < 1e-6);
    }

    #[test]
    fn bb_beats_or_matches_rounding_and_is_feasible(
        n in 2usize..7,
        m in 1usize..5,
        coefs in prop::collection::vec(0.0f64..1.5, 35),
        rhs in prop::collection::vec(0.6f64..2.5, 5),
    ) {
        let mut p = random_packing_lp(n, m, coefs, rhs);
        for j in 0..n {
            p.set_bounds(j, VarBounds::unit()).unwrap();
            p.set_integer(j).unwrap();
        }
        let s = solve_mip(&p, &BbOptions::default());
        prop_assert_eq!(s.status, dpsan_lp::mip::MipStatus::Optimal);
        prop_assert!(p.max_violation(&s.x) < 1e-6);
        prop_assert!(p.is_integral(&s.x, 1e-6));
        // exact optimum dominates any heuristic point
        let relax = solve(&p, &SimplexOptions::default()).unwrap();
        if relax.status == SolveStatus::Optimal {
            let hx = dpsan_lp::mip::lp_round_packing(&p, &relax.x);
            prop_assert!(s.objective >= p.objective_value(&hx) - 1e-6);
        }
    }

    #[test]
    fn lp_relaxation_bounds_the_integer_optimum(
        n in 2usize..7,
        m in 1usize..5,
        coefs in prop::collection::vec(0.0f64..1.5, 35),
        rhs in prop::collection::vec(0.6f64..2.5, 5),
    ) {
        let mut p = random_packing_lp(n, m, coefs, rhs);
        for j in 0..n {
            p.set_bounds(j, VarBounds::unit()).unwrap();
            p.set_integer(j).unwrap();
        }
        let relax = solve(&p, &SimplexOptions::default()).unwrap();
        let exact = solve_mip(&p, &BbOptions::default());
        prop_assert!(relax.objective >= exact.objective - 1e-6,
            "LP {} < IP {}", relax.objective, exact.objective);
    }
}

/// A bounded packing LP in the O-UMP shape: `max Σ x`, non-negative
/// rows `a'x ≤ rhs_i`, and column caps (the O-UMP's `x_ij ≤ c_ij`)
/// keeping every optimum finite without a covering row.
fn capped_packing_lp(n: usize, m: usize, coefs: &[f64], rhs: &[f64]) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    for _ in 0..n {
        p.add_col(1.0, VarBounds { lower: 0.0, upper: 8.0 }).unwrap();
    }
    let mut it = coefs.iter().copied();
    for (i, &rhs_i) in rhs.iter().enumerate().take(m) {
        let entries: Vec<(usize, f64)> =
            (0..n).filter_map(|j| it.next().map(|v| (j, v))).filter(|&(_, v)| v > 0.05).collect();
        let entries = if entries.is_empty() { vec![(i % n, 0.5)] } else { entries };
        p.add_row(RowBounds::at_most(rhs_i), &entries).unwrap();
    }
    p
}

/// Rebuild the LP with rhs scaled by `t` and every column cap scaled by
/// `s` — the budget-grid and retraction perturbations of the O-UMP
/// (same matrix, moved polytope).
fn perturb_rhs_and_caps(p: &Problem, t: f64, s: f64) -> Problem {
    let mut q = Problem::new(Sense::Maximize);
    for (j, b) in p.col_bounds().iter().enumerate() {
        q.add_col(p.objective()[j], VarBounds { lower: b.lower, upper: b.upper * s }).unwrap();
    }
    for (i, rb) in p.row_bounds().iter().enumerate() {
        let entries: Vec<(usize, f64)> =
            p.triplets().iter().filter(|&&(r, _, _)| r == i).map(|&(_, c, v)| (c, v)).collect();
        q.add_row(RowBounds::at_most(rb.upper * t), &entries).unwrap();
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Capped columns make many optimal vertices sit on upper bounds,
    /// which the uncapped generator above never exercises: the default
    /// route must still land on the dense tableau reference to 1e-9.
    #[test]
    fn revised_matches_dense_on_capped_packing_after_rhs_and_cap_moves(
        n in 2usize..8,
        m in 1usize..6,
        coefs in prop::collection::vec(0.0f64..2.0, 48),
        rhs in prop::collection::vec(0.5f64..4.0, 6),
        t in 0.2f64..3.0,
        s in 0.3f64..2.0,
    ) {
        let p = perturb_rhs_and_caps(&capped_packing_lp(n, m, &coefs, &rhs), t, s);
        capped_packing_matches_dense(&p, &SimplexOptions::default())?;
    }

    /// The same capped, perturbed packing LPs forced onto the sparse
    /// kernel route.
    #[test]
    fn sparse_route_matches_dense_on_capped_packing_after_rhs_and_cap_moves(
        n in 2usize..8,
        m in 1usize..6,
        coefs in prop::collection::vec(0.0f64..2.0, 48),
        rhs in prop::collection::vec(0.5f64..4.0, 6),
        t in 0.2f64..3.0,
        s in 0.3f64..2.0,
    ) {
        let p = perturb_rhs_and_caps(&capped_packing_lp(n, m, &coefs, &rhs), t, s);
        let sol = capped_packing_matches_dense(&p, &force_sparse())?;
        prop_assert!(sol.sparse, "forced sparse must be honored");
    }
}

/// Solve `p` cold under `opts` and check it against the dense tableau
/// reference: both optimal, objectives within 1e-9, revised vertex
/// feasible.
fn capped_packing_matches_dense(
    p: &Problem,
    opts: &SimplexOptions,
) -> Result<Solution, TestCaseError> {
    let dense = solve_dense(p);
    prop_assert_eq!(dense.status, SolveStatus::Optimal);
    let cold = solve(p, opts).unwrap();
    prop_assert_eq!(cold.status, SolveStatus::Optimal);
    prop_assert!(
        (cold.objective - dense.objective).abs() <= 1e-9,
        "sparse={}: revised {} vs dense {}",
        cold.sparse,
        cold.objective,
        dense.objective
    );
    prop_assert!(p.max_violation(&cold.x) < 1e-6);
    Ok(cold)
}

#[test]
fn moderate_lp_solves_quickly_and_feasibly() {
    // a 200-var, 80-row packing LP in the O-UMP shape
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    let n = 200;
    let m = 80;
    let mut p = Problem::new(Sense::Maximize);
    for _ in 0..n {
        p.add_col(1.0, VarBounds::non_negative()).unwrap();
    }
    for _ in 0..m {
        let k = rng.random_range(3..12);
        let entries: Vec<(usize, f64)> =
            (0..k).map(|_| (rng.random_range(0..n), rng.random::<f64>() * 0.5 + 0.001)).collect();
        p.add_row(RowBounds::at_most(0.7), &entries).unwrap();
    }
    let cover: Vec<(usize, f64)> = (0..n).map(|j| (j, 0.01)).collect();
    p.add_row(RowBounds::at_most(30.0), &cover).unwrap();
    let s = solve(&p, &SimplexOptions::default()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert!(p.max_violation(&s.x) < 1e-6, "violation {}", p.max_violation(&s.x));
    assert!(s.objective > 0.0);
}

/// The F-UMP shape (packing rows + equality + abs-split ≥ rows) at a
/// given budget rhs; shared by the dense- and sparse-route sweeps.
fn fump_sweep_problem(budget: f64) -> Problem {
    let n = 4;
    let total = 6.0;
    let targets = [0.4, 0.3, 0.2, 0.1];
    let mut p = Problem::new(Sense::Minimize);
    let xs: Vec<usize> =
        (0..n).map(|_| p.add_col(0.0, VarBounds { lower: 0.0, upper: 9.0 }).unwrap()).collect();
    let ys: Vec<usize> =
        (0..n).map(|_| p.add_col(1.0, VarBounds::non_negative()).unwrap()).collect();
    p.add_row(RowBounds::at_most(budget), &[(xs[0], 0.8), (xs[1], 0.4)]).unwrap();
    p.add_row(RowBounds::at_most(budget), &[(xs[2], 0.5), (xs[3], 0.3)]).unwrap();
    let all: Vec<(usize, f64)> = xs.iter().map(|&j| (j, 1.0)).collect();
    p.add_row(RowBounds::equal(total), &all).unwrap();
    for f in 0..n {
        p.add_row(RowBounds::at_least(-targets[f]), &[(ys[f], 1.0), (xs[f], -1.0 / total)])
            .unwrap();
        p.add_row(RowBounds::at_least(targets[f]), &[(ys[f], 1.0), (xs[f], 1.0 / total)]).unwrap();
    }
    p
}

/// Sweep the F-UMP shape over its budget rhs out of order, as a grid
/// shard visits it: every cold solve under `opts` must track the
/// independent dense solver to 1e-9 at every step.
fn fump_budget_sweep_tracks_dense(opts: &SimplexOptions) {
    for budget in [4.0, 3.0, 2.2, 2.8, 1.9, 3.5] {
        let p = fump_sweep_problem(budget);
        let fast = solve(&p, opts).unwrap();
        let slow = solve_dense(&p);
        assert_eq!(fast.status, SolveStatus::Optimal, "budget {budget}");
        assert_eq!(slow.status, SolveStatus::Optimal, "budget {budget}");
        assert!(
            (fast.objective - slow.objective).abs() < 1e-9,
            "budget {budget} (sparse={}): revised {} vs dense {}",
            fast.sparse,
            fast.objective,
            slow.objective
        );
        assert!(p.max_violation(&fast.x) < 1e-7, "budget {budget}");
    }
}

#[test]
fn fump_budget_sweep_matches_dense() {
    fump_budget_sweep_tracks_dense(&SimplexOptions::default());
}

#[test]
fn sparse_route_fump_budget_sweep_matches_dense() {
    let opts = force_sparse();
    assert!(solve(&fump_sweep_problem(4.0), &opts).unwrap().sparse, "forced sparse");
    fump_budget_sweep_tracks_dense(&opts);
}

#[test]
fn fump_shaped_lp_with_equality_and_abs_split() {
    // minimize sum |x_f/T - target_f| with a fixed total T and packing
    // rows — the F-UMP shape — cross-checked against the dense solver.
    let n = 5;
    let total = 10.0;
    let targets = [0.35, 0.25, 0.2, 0.15, 0.05];
    let mut p = Problem::new(Sense::Minimize);
    let xs: Vec<usize> =
        (0..n).map(|_| p.add_col(0.0, VarBounds::non_negative()).unwrap()).collect();
    let ys: Vec<usize> =
        (0..n).map(|_| p.add_col(1.0, VarBounds::non_negative()).unwrap()).collect();
    // budget rows
    p.add_row(RowBounds::at_most(6.0), &[(xs[0], 0.9), (xs[1], 0.3)]).unwrap();
    p.add_row(RowBounds::at_most(6.0), &[(xs[2], 0.4), (xs[3], 0.6), (xs[4], 0.2)]).unwrap();
    // total
    let all: Vec<(usize, f64)> = xs.iter().map(|&j| (j, 1.0)).collect();
    p.add_row(RowBounds::equal(total), &all).unwrap();
    // |x/T - t| split
    for f in 0..n {
        p.add_row(RowBounds::at_least(-targets[f]), &[(ys[f], 1.0), (xs[f], -1.0 / total)])
            .unwrap();
        p.add_row(RowBounds::at_least(targets[f]), &[(ys[f], 1.0), (xs[f], 1.0 / total)]).unwrap();
    }
    let fast = solve(&p, &SimplexOptions::default()).unwrap();
    let slow = solve_dense(&p);
    assert_eq!(fast.status, SolveStatus::Optimal);
    assert_eq!(slow.status, SolveStatus::Optimal);
    assert!(
        (fast.objective - slow.objective).abs() < 1e-6,
        "revised {} vs dense {}",
        fast.objective,
        slow.objective
    );
    assert!(p.max_violation(&fast.x) < 1e-6);
}

// ---------------------------------------------------------------------
// sparse route vs dense route (the dense route is the 1e-9 oracle)
// ---------------------------------------------------------------------

const ROUTE_TOL: f64 = 1e-9;

fn force_sparse() -> SimplexOptions {
    SimplexOptions { sparse: Some(true), ..Default::default() }
}

fn force_dense() -> SimplexOptions {
    SimplexOptions { sparse: Some(false), ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_route_matches_dense_route_on_random_packing(
        n in 2usize..8,
        m in 1usize..6,
        coefs in prop::collection::vec(0.0f64..2.0, 48),
        rhs in prop::collection::vec(0.5f64..4.0, 6),
    ) {
        let p = random_packing_lp(n, m, coefs, rhs);
        let sp = solve(&p, &force_sparse()).unwrap();
        let de = solve(&p, &force_dense()).unwrap();
        prop_assert_eq!(sp.status, SolveStatus::Optimal);
        prop_assert_eq!(de.status, SolveStatus::Optimal);
        prop_assert!((sp.objective - de.objective).abs() < ROUTE_TOL,
            "sparse {} vs dense {}", sp.objective, de.objective);
        prop_assert!(p.max_violation(&sp.x) < 1e-7);
    }
}

#[test]
fn sparse_route_matches_dense_on_fump_and_moderate_shapes() {
    // the real tiny F-UMP shape across its budget sweep, plus a
    // moderate random packing LP: forced-sparse and forced-dense
    // routes must land on the same objective to 1e-9
    for budget in [4.0, 3.0, 2.2, 1.9] {
        let p = fump_sweep_problem(budget);
        let sp = solve(&p, &force_sparse()).unwrap();
        let de = solve(&p, &force_dense()).unwrap();
        assert_eq!(sp.status, SolveStatus::Optimal, "budget {budget}");
        assert!(
            (sp.objective - de.objective).abs() < ROUTE_TOL,
            "budget {budget}: sparse {} vs dense {}",
            sp.objective,
            de.objective
        );
        assert!(p.max_violation(&sp.x) < 1e-7, "budget {budget}");
    }

    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(11);
    let n = 300;
    let m = 120;
    let mut p = Problem::new(Sense::Maximize);
    for _ in 0..n {
        p.add_col(1.0, VarBounds::non_negative()).unwrap();
    }
    for _ in 0..m {
        let k = rng.random_range(3..10);
        let entries: Vec<(usize, f64)> =
            (0..k).map(|_| (rng.random_range(0..n), rng.random::<f64>() * 0.5 + 0.001)).collect();
        p.add_row(RowBounds::at_most(0.7), &entries).unwrap();
    }
    let cover: Vec<(usize, f64)> = (0..n).map(|j| (j, 0.01)).collect();
    p.add_row(RowBounds::at_most(30.0), &cover).unwrap();
    let sp = solve(&p, &force_sparse()).unwrap();
    let de = solve(&p, &force_dense()).unwrap();
    assert_eq!(sp.status, SolveStatus::Optimal);
    assert!(
        (sp.objective - de.objective).abs() < ROUTE_TOL * sp.objective.abs().max(1.0),
        "sparse {} vs dense {}",
        sp.objective,
        de.objective
    );
    assert!(p.max_violation(&sp.x) < 1e-7);
}

#[test]
fn auto_routing_selects_sparse_at_scale_and_matches_dense() {
    // an O-UMP-shaped block LP with ≥ 512 rows routes sparse by
    // default; the answer must still match the forced-dense oracle
    let blocks = 280; // 280 users x 2 rows/user = 560 rows ≥ 512
    let mut p = Problem::new(Sense::Maximize);
    let mut cols = Vec::new();
    for _ in 0..blocks {
        for _ in 0..3 {
            cols.push(p.add_col(1.0, VarBounds { lower: 0.0, upper: 2.0 }).unwrap());
        }
    }
    for b in 0..blocks {
        let base = 3 * b;
        let w = 0.3 + 0.4 * ((b % 7) as f64) / 7.0;
        p.add_row(
            RowBounds::at_most(1.5),
            &[(cols[base], w), (cols[base + 1], 0.9 - w), (cols[base + 2], 0.5)],
        )
        .unwrap();
        p.add_row(RowBounds::at_most(1.0), &[(cols[base + 1], 0.6), (cols[base + 2], 0.2)])
            .unwrap();
    }
    let auto = solve(&p, &SimplexOptions::default()).unwrap();
    assert!(auto.sparse, "560-row LP must route sparse by default");
    assert_eq!(auto.status, SolveStatus::Optimal);
    let de = solve(&p, &force_dense()).unwrap();
    assert!(
        (auto.objective - de.objective).abs() < ROUTE_TOL * de.objective.abs().max(1.0),
        "sparse {} vs dense {}",
        auto.objective,
        de.objective
    );
}

#[test]
fn long_eta_chain_matches_refactorization() {
    // drive a long pivot chain through the product-form update and
    // check the updated factorization still solves exactly like a
    // from-scratch refactorization of the final basis (1e-9)
    use dpsan_lp::factor::lu::LuScratch;
    use dpsan_lp::factor::BasisFactor;
    use dpsan_lp::sparse::{CscMatrix, SparseVec};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let mut rng = StdRng::seed_from_u64(23);
    let m = 60;
    let extra = 120;
    // columns: an identity block (starting basis) plus random sparse
    // candidates with a strong diagonal-ish anchor
    let mut trips: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..m {
        trips.push((i, i, 1.0));
    }
    for j in 0..extra {
        let col = m + j;
        let anchor = j % m;
        trips.push((anchor, col, 2.0 + rng.random::<f64>()));
        for _ in 0..3 {
            let r = rng.random_range(0..m);
            if r != anchor {
                trips.push((r, col, rng.random::<f64>() - 0.5));
            }
        }
    }
    let a = CscMatrix::from_triplets(m, m + extra, &trips);
    let mut basis: Vec<usize> = (0..m).collect();
    let mut f = BasisFactor::factor(&a, &basis).unwrap();
    let mut ws = LuScratch::new(m);

    let mut chain = 0usize;
    let mut attempt = 0usize;
    while chain < 40 {
        attempt += 1;
        assert!(attempt < 4000, "could not build a 40-pivot chain");
        let q = m + rng.random_range(0..extra);
        if basis.contains(&q) {
            continue;
        }
        // w = B^-1 A_q through the updated factors
        let mut w = SparseVec::new(m);
        let (rows, vals) = a.col(q);
        for (&r, &v) in rows.iter().zip(vals) {
            w.add(r, v);
        }
        f.ftran_sparse(&mut w, &mut ws);
        w.sort_pattern();
        // pivot on the largest entry to keep the chain well-conditioned
        let Some(&r) = w
            .pattern
            .iter()
            .max_by(|&&x, &&y| w.values[x].abs().partial_cmp(&w.values[y].abs()).unwrap())
        else {
            continue;
        };
        if w.values[r].abs() < 0.5 {
            continue;
        }
        if f.update_sparse(r, &mut w).is_err() {
            continue;
        }
        basis[r] = q;
        chain += 1;
    }
    assert!(f.n_updates() >= 40);

    let fresh = BasisFactor::factor(&a, &basis).unwrap();
    for trial in 0..8 {
        let rhs: Vec<f64> = (0..m).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
        let mut through_etas = rhs.clone();
        f.ftran(&mut through_etas);
        let mut refreshed = rhs.clone();
        fresh.ftran(&mut refreshed);
        for i in 0..m {
            assert!(
                (through_etas[i] - refreshed[i]).abs() < 1e-9,
                "ftran trial {trial} row {i}: {} vs {}",
                through_etas[i],
                refreshed[i]
            );
        }
        let mut through_etas = rhs.clone();
        f.btran(&mut through_etas);
        let mut refreshed = rhs;
        fresh.btran(&mut refreshed);
        for i in 0..m {
            assert!(
                (through_etas[i] - refreshed[i]).abs() < 1e-9,
                "btran trial {trial} row {i}: {} vs {}",
                through_etas[i],
                refreshed[i]
            );
        }
    }
}
