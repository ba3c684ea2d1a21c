//! Packing-aware rounding utilities.
//!
//! For a packing model (`≤` rows, non-negative coefficients, variables
//! bounded below at 0) any point can be rounded *down* without losing
//! feasibility; utility can then be recovered by greedily raising
//! variables while slack remains.

use crate::problem::Problem;

/// Whether the model is a packing program: every row is `a'x ≤ u` with
/// `a ≥ 0`, `u ≥ 0`, and every column has lower bound 0.
pub fn is_packing(p: &Problem) -> bool {
    p.row_bounds().iter().all(|rb| rb.lower == f64::NEG_INFINITY && rb.upper >= 0.0)
        && p.triplets().iter().all(|&(_, _, v)| v >= 0.0)
        && p.col_bounds().iter().all(|b| b.lower == 0.0)
}

/// Round integer-marked variables down to the nearest integer
/// (feasible for packing models by construction).
pub fn round_down(p: &Problem, x: &[f64]) -> Vec<f64> {
    x.iter()
        .zip(p.integers())
        .map(|(&v, &is_int)| if is_int { (v + 1e-9).floor() } else { v })
        .collect()
}

/// Greedily raise integer variables by +1 steps while all rows stay
/// feasible. Candidates are visited in the given order (e.g. by LP
/// fractional value); returns the improved point.
pub fn greedy_raise(p: &Problem, x: &mut [f64], order: &[usize]) {
    debug_assert!(is_packing(p), "greedy_raise requires a packing model");
    let a = p.matrix();
    let mut activity = a.matvec(x);
    for &j in order {
        if !p.integers()[j] {
            continue;
        }
        loop {
            if x[j] + 1.0 > p.col_bounds()[j].upper + 1e-9 {
                break;
            }
            // feasible to add one unit of column j?
            let (rows, vals) = a.col(j);
            let ok = rows
                .iter()
                .zip(vals)
                .all(|(&r, &v)| activity[r] + v <= p.row_bounds()[r].upper + 1e-9);
            if !ok {
                break;
            }
            x[j] += 1.0;
            for (&r, &v) in rows.iter().zip(vals) {
                activity[r] += v;
            }
        }
    }
}

/// LP-relaxation rounding for packing models: round an optimal
/// relaxation point down, then greedily raise in descending order of
/// the LP fractional values. The caller solves the relaxation, so the
/// solve can go through a counting session.
pub fn lp_round_packing(p: &Problem, relax_x: &[f64]) -> Vec<f64> {
    let mut x = round_down(p, relax_x);
    let mut order: Vec<usize> = (0..p.n_cols()).filter(|&j| p.integers()[j]).collect();
    order.sort_by(|&a, &b| {
        let fa = relax_x[a] - relax_x[a].floor();
        let fb = relax_x[b] - relax_x[b].floor();
        fb.partial_cmp(&fa).expect("fractional parts are finite")
    });
    greedy_raise(p, &mut x, &order);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RowBounds, Sense, VarBounds};
    use crate::simplex::{solve, SimplexOptions, SolveStatus};

    fn packing_bip() -> Problem {
        // max y0 + y1 + y2 s.t. 0.6 y0 + 0.6 y1 <= 1, 0.6 y1 + 0.6 y2 <= 1
        let mut p = Problem::new(Sense::Maximize);
        for _ in 0..3 {
            let j = p.add_col(1.0, VarBounds::unit()).unwrap();
            p.set_integer(j).unwrap();
        }
        p.add_row(RowBounds::at_most(1.0), &[(0, 0.6), (1, 0.6)]).unwrap();
        p.add_row(RowBounds::at_most(1.0), &[(1, 0.6), (2, 0.6)]).unwrap();
        p
    }

    #[test]
    fn packing_detection() {
        assert!(is_packing(&packing_bip()));
        let mut p = packing_bip();
        p.add_row(RowBounds::at_least(0.5), &[(0, 1.0)]).unwrap();
        assert!(!is_packing(&p));
    }

    #[test]
    fn round_down_is_feasible() {
        let p = packing_bip();
        let x = round_down(&p, &[0.9, 0.9, 0.9]);
        assert_eq!(x, vec![0.0, 0.0, 0.0]);
        assert!(p.max_violation(&x) <= 0.0);
    }

    #[test]
    fn greedy_raise_fills_slack() {
        let p = packing_bip();
        let mut x = vec![0.0, 0.0, 0.0];
        greedy_raise(&p, &mut x, &[0, 1, 2]);
        // raising order 0,1,2: y0=1 ok; y1 would overflow row0; y2=1 ok
        assert_eq!(x, vec![1.0, 0.0, 1.0]);
        assert!(p.max_violation(&x) <= 1e-9);
    }

    #[test]
    fn lp_round_reaches_optimum_here() {
        let p = packing_bip();
        let relax = solve(&p, &SimplexOptions::default()).unwrap();
        assert_eq!(relax.status, SolveStatus::Optimal);
        let x = lp_round_packing(&p, &relax.x);
        let obj = p.objective_value(&x);
        // optimum of this BIP is 2 (y0 = y2 = 1)
        assert_eq!(obj, 2.0);
    }

    #[test]
    fn greedy_respects_upper_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let j = p.add_col(1.0, VarBounds { lower: 0.0, upper: 2.0 }).unwrap();
        p.set_integer(j).unwrap();
        p.add_row(RowBounds::at_most(10.0), &[(j, 1.0)]).unwrap();
        let mut x = vec![0.0];
        greedy_raise(&p, &mut x, &[0]);
        assert_eq!(x, vec![2.0], "stops at the column upper bound");
    }

    #[test]
    fn continuous_columns_left_alone() {
        let mut p = Problem::new(Sense::Maximize);
        let _c = p.add_col(1.0, VarBounds::unit()).unwrap(); // continuous
        p.add_row(RowBounds::at_most(1.0), &[(0, 1.0)]).unwrap();
        let x = round_down(&p, &[0.7]);
        assert_eq!(x, vec![0.7]);
        let mut x2 = x.clone();
        greedy_raise(&p, &mut x2, &[0]);
        assert_eq!(x2, vec![0.7]);
    }
}
