//! Conversion to computational standard form.
//!
//! The simplex works on `min c'x` s.t. `A x = b`, `l ≤ x ≤ u`, where one
//! slack column is appended per row:
//!
//! * `a'x ≤ ru`            →  `a'x + s = ru`, `s ∈ [0, ∞)`
//! * `a'x ≥ rl`            →  `a'x + s = rl`, `s ∈ (−∞, 0]`
//! * `a'x = b`             →  `a'x + s = b`,  `s ∈ [0, 0]`
//! * `rl ≤ a'x ≤ ru`       →  `a'x + s = ru`, `s ∈ [0, ru − rl]`
//!
//! Maximization is converted to minimization by negating the objective;
//! [`StandardForm::user_objective`] converts back.

use crate::problem::{Problem, Sense};
use crate::sparse::CscMatrix;

/// The standard-form data consumed by the simplex.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Row count `m`.
    pub m: usize,
    /// Total column count (structural + slack).
    pub n: usize,
    /// Structural (original) column count.
    pub n_structural: usize,
    /// `m × n` matrix including the slack identity block.
    pub a: CscMatrix,
    /// Equality right-hand side.
    pub b: Vec<f64>,
    /// Minimization objective over all `n` columns (slacks are 0).
    pub c: Vec<f64>,
    /// Column lower bounds.
    pub lower: Vec<f64>,
    /// Column upper bounds.
    pub upper: Vec<f64>,
    /// Whether the user problem was a maximization (objective sign flip).
    pub maximize: bool,
}

impl StandardForm {
    /// Build the standard form of a problem.
    pub fn from_problem(p: &Problem) -> StandardForm {
        let m = p.n_rows();
        let n_structural = p.n_cols();
        let maximize = p.sense() == Sense::Maximize;

        let mut c: Vec<f64> =
            p.objective().iter().map(|&v| if maximize { -v } else { v }).collect();
        let mut lower: Vec<f64> = p.col_bounds().iter().map(|b| b.lower).collect();
        let mut upper: Vec<f64> = p.col_bounds().iter().map(|b| b.upper).collect();

        let mut b = Vec::with_capacity(m);
        let mut slack_cols = Vec::with_capacity(m);
        for (i, rb) in p.row_bounds().iter().enumerate() {
            let (rhs, s_lo, s_hi) = if rb.upper.is_finite() {
                // a'x + s = ru with s in [0, ru - rl]
                let hi = if rb.lower.is_finite() { rb.upper - rb.lower } else { f64::INFINITY };
                (rb.upper, 0.0, hi)
            } else if rb.lower.is_finite() {
                // pure >= row
                (rb.lower, f64::NEG_INFINITY, 0.0)
            } else {
                // row with no finite side: vacuous, freely satisfied
                (0.0, f64::NEG_INFINITY, f64::INFINITY)
            };
            b.push(rhs);
            slack_cols.push(vec![(i, 1.0)]);
            c.push(0.0);
            lower.push(s_lo);
            upper.push(s_hi);
        }

        let a = p.matrix().with_extra_cols(&slack_cols);
        StandardForm { m, n: n_structural + m, n_structural, a, b, c, lower, upper, maximize }
    }

    /// Convert an internal (minimization) objective value back to the
    /// user's sense.
    pub fn user_objective(&self, internal: f64) -> f64 {
        if self.maximize {
            -internal
        } else {
            internal
        }
    }

    /// A starting value for a nonbasic column: its finite lower bound if
    /// any, else its finite upper bound, else 0 (free).
    pub fn nonbasic_start(&self, j: usize) -> f64 {
        if self.lower[j].is_finite() {
            self.lower[j]
        } else if self.upper[j].is_finite() {
            self.upper[j]
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{RowBounds, VarBounds};

    fn model() -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_col(3.0, VarBounds::non_negative()).unwrap();
        let y = p.add_col(1.0, VarBounds::free()).unwrap();
        p.add_row(RowBounds::at_most(10.0), &[(x, 1.0), (y, 2.0)]).unwrap();
        p.add_row(RowBounds::at_least(-5.0), &[(y, 1.0)]).unwrap();
        p.add_row(RowBounds::equal(4.0), &[(x, 1.0), (y, 1.0)]).unwrap();
        p.add_row(RowBounds { lower: 1.0, upper: 3.0 }, &[(x, 1.0)]).unwrap();
        p
    }

    #[test]
    fn dimensions_and_slack_block() {
        let sf = StandardForm::from_problem(&model());
        assert_eq!(sf.m, 4);
        assert_eq!(sf.n_structural, 2);
        assert_eq!(sf.n, 6);
        let d = sf.a.to_dense();
        for i in 0..4 {
            assert_eq!(d[i][2 + i], 1.0, "slack identity at row {i}");
        }
    }

    #[test]
    fn slack_bounds_encode_row_types() {
        let sf = StandardForm::from_problem(&model());
        // <= row: s in [0, inf)
        assert_eq!((sf.lower[2], sf.upper[2]), (0.0, f64::INFINITY));
        // >= row: s in (-inf, 0], rhs = rl
        assert_eq!((sf.lower[3], sf.upper[3]), (f64::NEG_INFINITY, 0.0));
        assert_eq!(sf.b[1], -5.0);
        // = row: s fixed at 0
        assert_eq!((sf.lower[4], sf.upper[4]), (0.0, 0.0));
        // range row: s in [0, ru - rl], rhs = ru
        assert_eq!((sf.lower[5], sf.upper[5]), (0.0, 2.0));
        assert_eq!(sf.b[3], 3.0);
    }

    #[test]
    fn maximization_flips_objective() {
        let sf = StandardForm::from_problem(&model());
        assert!(sf.maximize);
        assert_eq!(sf.c[0], -3.0);
        assert_eq!(sf.user_objective(-7.0), 7.0);
    }

    #[test]
    fn nonbasic_start_prefers_finite_lower() {
        let sf = StandardForm::from_problem(&model());
        assert_eq!(sf.nonbasic_start(0), 0.0); // [0, inf)
        assert_eq!(sf.nonbasic_start(1), 0.0); // free
        assert_eq!(sf.nonbasic_start(3), 0.0); // (-inf, 0] -> upper
    }

    #[test]
    fn minimize_keeps_sign() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_col(5.0, VarBounds::non_negative()).unwrap();
        let sf = StandardForm::from_problem(&p);
        assert_eq!(sf.c[0], 5.0);
        assert_eq!(sf.user_objective(5.0), 5.0);
    }
}
