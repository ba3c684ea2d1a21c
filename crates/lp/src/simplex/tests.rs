//! Unit tests for the revised simplex on hand-checkable models.

use super::*;
use crate::problem::{RowBounds, VarBounds};

fn opts() -> SimplexOptions {
    SimplexOptions::default()
}

fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

#[test]
fn textbook_max_lp() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, z=36
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(3.0, VarBounds::non_negative()).unwrap();
    let y = p.add_col(5.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_most(4.0), &[(x, 1.0)]).unwrap();
    p.add_row(RowBounds::at_most(12.0), &[(y, 2.0)]).unwrap();
    p.add_row(RowBounds::at_most(18.0), &[(x, 3.0), (y, 2.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 36.0, 1e-7, "objective");
    assert_close(s.x[0], 2.0, 1e-7, "x");
    assert_close(s.x[1], 6.0, 1e-7, "y");
}

#[test]
fn min_with_equality_needs_phase1() {
    // min x + 2y s.t. x + y = 10, x <= 6 -> x=6, y=4, z=14
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    let y = p.add_col(2.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::equal(10.0), &[(x, 1.0), (y, 1.0)]).unwrap();
    p.add_row(RowBounds::at_most(6.0), &[(x, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 14.0, 1e-7, "objective");
    assert_close(s.x[0], 6.0, 1e-7, "x");
    assert_close(s.x[1], 4.0, 1e-7, "y");
}

#[test]
fn geq_rows_with_positive_rhs() {
    // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6 -> x=3, y=1, z=9
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_col(2.0, VarBounds::non_negative()).unwrap();
    let y = p.add_col(3.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_least(4.0), &[(x, 1.0), (y, 1.0)]).unwrap();
    p.add_row(RowBounds::at_least(6.0), &[(x, 1.0), (y, 3.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 9.0, 1e-7, "objective");
}

#[test]
fn infeasible_detected() {
    // x <= 1 and x >= 3
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_most(1.0), &[(x, 1.0)]).unwrap();
    p.add_row(RowBounds::at_least(3.0), &[(x, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Infeasible);
}

#[test]
fn unbounded_detected() {
    // max x with x >= 0 and one irrelevant row
    let mut p = Problem::new(Sense::Maximize);
    let _x = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    let y = p.add_col(0.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_most(5.0), &[(y, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Unbounded);
}

#[test]
fn upper_bounded_variables_flip() {
    // max x + y with x,y in [0,1] and x + y <= 1.5 -> 1.5
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(1.0, VarBounds::unit()).unwrap();
    let y = p.add_col(1.0, VarBounds::unit()).unwrap();
    p.add_row(RowBounds::at_most(1.5), &[(x, 1.0), (y, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 1.5, 1e-7, "objective");
    assert!(p.max_violation(&s.x) < 1e-7);
}

#[test]
fn free_variable_equality() {
    // min |style| problem: min y s.t. y free, y = 7 - x, x in [0, 3]
    // -> x=3, y=4
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_col(0.0, VarBounds { lower: 0.0, upper: 3.0 }).unwrap();
    let y = p.add_col(1.0, VarBounds::free()).unwrap();
    p.add_row(RowBounds::equal(7.0), &[(x, 1.0), (y, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 4.0, 1e-7, "objective");
    assert_close(s.x[1], 4.0, 1e-7, "y");
}

#[test]
fn negative_rhs_geq_feasible_at_origin() {
    // y >= -c is satisfied by the origin: no phase 1 needed
    let mut p = Problem::new(Sense::Minimize);
    let y = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_least(-2.0), &[(y, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 0.0, 1e-9, "objective");
}

#[test]
fn range_row_respected() {
    // max x s.t. 2 <= x <= 5 via a range row on activity
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds { lower: 2.0, upper: 5.0 }, &[(x, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 5.0, 1e-7, "objective");
}

#[test]
fn fixed_variable_is_respected() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(10.0, VarBounds::fixed(2.0)).unwrap();
    let y = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_most(6.0), &[(x, 1.0), (y, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.x[0], 2.0, 1e-9, "fixed x");
    assert_close(s.objective, 24.0, 1e-7, "objective");
}

#[test]
fn no_rows_goes_to_best_bounds() {
    let mut p = Problem::new(Sense::Maximize);
    p.add_col(1.0, VarBounds::unit()).unwrap();
    p.add_col(-1.0, VarBounds::unit()).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_eq!(s.x, vec![1.0, 0.0]);
}

#[test]
fn no_rows_unbounded() {
    let mut p = Problem::new(Sense::Maximize);
    p.add_col(1.0, VarBounds::non_negative()).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Unbounded);
}

#[test]
fn degenerate_lp_terminates() {
    // classic degeneracy: several redundant rows through the optimum
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    let y = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    for _ in 0..6 {
        p.add_row(RowBounds::at_most(1.0), &[(x, 1.0), (y, 1.0)]).unwrap();
    }
    p.add_row(RowBounds::at_most(1.0), &[(x, 1.0)]).unwrap();
    p.add_row(RowBounds::at_most(1.0), &[(y, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 1.0, 1e-7, "objective");
}

#[test]
fn packing_lp_like_oump() {
    // max sum x s.t. per-"user" budget rows with positive coefficients
    // (the O-UMP shape): 0.1 x0 + 0.5 x1 <= 1; 0.2 x1 + 0.3 x2 <= 1
    let mut p = Problem::new(Sense::Maximize);
    let x0 = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    let x1 = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    let x2 = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_most(1.0), &[(x0, 0.1), (x1, 0.5)]).unwrap();
    p.add_row(RowBounds::at_most(1.0), &[(x1, 0.2), (x2, 0.3)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    // optimum: x1 = 0 (expensive in both rows), x0 = 10, x2 = 10/3
    assert_close(s.objective, 10.0 + 10.0 / 3.0, 1e-6, "objective");
    assert!(p.max_violation(&s.x) < 1e-7);
}

#[test]
fn budget_scaling_linearity() {
    // for Mx <= B·1, x >= 0 the optimum scales linearly in B
    let build = |b: f64| {
        let mut p = Problem::new(Sense::Maximize);
        let x0 = p.add_col(1.0, VarBounds::non_negative()).unwrap();
        let x1 = p.add_col(1.0, VarBounds::non_negative()).unwrap();
        p.add_row(RowBounds::at_most(b), &[(x0, 0.3), (x1, 0.7)]).unwrap();
        p.add_row(RowBounds::at_most(b), &[(x0, 0.6), (x1, 0.1)]).unwrap();
        p
    };
    let s1 = solve(&build(1.0), &opts()).unwrap();
    let s3 = solve(&build(3.0), &opts()).unwrap();
    assert_close(s3.objective, 3.0 * s1.objective, 1e-6, "linearity in B");
}

#[test]
fn duals_satisfy_strong_duality_on_max_lp() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(3.0, VarBounds::non_negative()).unwrap();
    let y = p.add_col(5.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_most(4.0), &[(x, 1.0)]).unwrap();
    p.add_row(RowBounds::at_most(12.0), &[(y, 2.0)]).unwrap();
    p.add_row(RowBounds::at_most(18.0), &[(x, 3.0), (y, 2.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    // strong duality: b' y == objective
    let b_dot_y: f64 = [4.0, 12.0, 18.0].iter().zip(&s.duals).map(|(&b, &d)| b * d).sum();
    assert_close(b_dot_y, s.objective, 1e-6, "strong duality");
}

#[test]
fn solution_feasible_within_tolerance_on_random_packing() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..10 {
        let n = 30;
        let m = 12;
        let mut p = Problem::new(Sense::Maximize);
        for _ in 0..n {
            p.add_col(1.0, VarBounds::non_negative()).unwrap();
        }
        for _ in 0..m {
            let k = rng.random_range(2..6);
            let entries: Vec<(usize, f64)> = (0..k)
                .map(|_| (rng.random_range(0..n), rng.random::<f64>() * 2.0 + 0.01))
                .collect();
            p.add_row(RowBounds::at_most(1.0 + rng.random::<f64>()), &entries).unwrap();
        }
        // cover every column so the maximization stays bounded
        let cover: Vec<(usize, f64)> = (0..n).map(|j| (j, 0.05)).collect();
        p.add_row(RowBounds::at_most(50.0), &cover).unwrap();
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal, "trial {trial}");
        assert!(p.max_violation(&s.x) < 1e-6, "trial {trial}: viol {}", p.max_violation(&s.x));
    }
}

#[test]
fn tiny_coefficient_row_solves() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(1.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_most(2.0), &[(x, 1e-4)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 2e4, 1e-3, "objective");
}

#[test]
fn iteration_limit_reported() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(3.0, VarBounds::non_negative()).unwrap();
    let y = p.add_col(5.0, VarBounds::non_negative()).unwrap();
    p.add_row(RowBounds::at_most(4.0), &[(x, 1.0)]).unwrap();
    p.add_row(RowBounds::at_most(12.0), &[(y, 2.0)]).unwrap();
    let mut o = opts();
    o.max_iter = 0;
    let s = solve(&p, &o).unwrap();
    assert_eq!(s.status, SolveStatus::IterationLimit);
}

#[test]
fn equality_chain_solved() {
    // x0 = 1; x_{i} - x_{i-1} = 1 -> x_i = i + 1; min sum
    let mut p = Problem::new(Sense::Minimize);
    let n = 10;
    let cols: Vec<usize> = (0..n).map(|_| p.add_col(1.0, VarBounds::free()).unwrap()).collect();
    p.add_row(RowBounds::equal(1.0), &[(cols[0], 1.0)]).unwrap();
    for i in 1..n {
        p.add_row(RowBounds::equal(1.0), &[(cols[i], 1.0), (cols[i - 1], -1.0)]).unwrap();
    }
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    for (i, &xi) in s.x.iter().enumerate() {
        assert_close(xi, (i + 1) as f64, 1e-6, "x_i");
    }
}

#[test]
fn ratio_test_tie_prefers_large_pivot() {
    // two rows block at the same (degenerate, zero) step; the tiny
    // 1e-3 pivot appears first, the 1.0 pivot second. The tie-break
    // must take the large pivot so the eta update stays conditioned.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(1.0, VarBounds { lower: 0.0, upper: 5.0 }).unwrap();
    p.add_row(RowBounds::at_most(0.0), &[(x, 1e-3)]).unwrap();
    p.add_row(RowBounds::at_most(0.0), &[(x, 1.0)]).unwrap();
    let s = solve(&p, &opts()).unwrap();
    assert_eq!(s.status, SolveStatus::Optimal);
    assert_close(s.objective, 0.0, 1e-12, "objective");

    // and directly on the unscaled standard form (raw pivot
    // magnitudes): fabricate the blocked step and inspect the choice
    let sf = StandardForm::from_problem(&p);
    let core = Core::new(sf, &opts());
    // moving x up changes slack0 by -1e-3 t, slack1 by -1.0 t; both
    // slacks sit at 0 with lower bound 0 -> both ratios are exactly 0
    let w = vec![1e-3, 1.0];
    match ratio_test(&core, 0, Direction::Up, &w) {
        RatioOutcome::Pivot { t, leaving_pos, .. } => {
            assert_eq!(leaving_pos, 1, "the 1.0-magnitude pivot must win the tie");
            assert_close(t, 0.0, 1e-12, "degenerate step");
        }
        other => panic!("expected a pivot, got {other:?}"),
    }
}

#[test]
fn near_tie_within_pivot_window_prefers_large_pivot() {
    // ratios 0 (pivot 1e-3) and 5e-10 (pivot 1.0): farther than the old
    // blunt 1e-9 ratio tolerance would reliably see, but well inside
    // the tol_pivot-adjusted window (1e-9 / 1e-3 = 1e-6), so the large
    // pivot must still win.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_col(1.0, VarBounds { lower: 0.0, upper: 5.0 }).unwrap();
    p.add_row(RowBounds::at_most(0.0), &[(x, 1e-3)]).unwrap();
    p.add_row(RowBounds::at_most(5e-10), &[(x, 1.0)]).unwrap();
    let sf = StandardForm::from_problem(&p);
    let core = Core::new(sf, &opts());
    let w = vec![1e-3, 1.0];
    match ratio_test(&core, 0, Direction::Up, &w) {
        RatioOutcome::Pivot { leaving_pos, .. } => {
            assert_eq!(leaving_pos, 1, "near-tie in the adjusted window takes the big pivot");
        }
        other => panic!("expected a pivot, got {other:?}"),
    }
}
