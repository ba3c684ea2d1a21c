//! The O-UMP as the packing LP it is.
//!
//! ```text
//! max 1ᵀx   s.t.   M x ≤ B·1,   0 ≤ x ≤ c,   M ≥ 0
//! ```
//!
//! Every output of a sanitizer only has to lie in this (Theorem-1)
//! polytope; Lemma 1's `⌊x*⌋` is one feasible integer point of it, not
//! the only one. This module answers the O-UMP from the packing
//! structure alone, in three parts:
//!
//! * **Certified bound.** For any row prices `y ≥ 0`, weak duality
//!   gives `λ* ≤ UB(y) = B·Σy + Σ_j u_j·(1 − (Mᵀy)_j)₊`, where `u_j` is
//!   the column's cap `c_j` tightened to `B / max_i M_ij`, the cap the
//!   rows already imply.
//!   [`upper_bound`] costs one sparse mat-vec, which is why every O-UMP
//!   answer — exact simplex or packing — carries one.
//! * **Dual.** [`DUAL_STEPS`] projected-subgradient steps on `UB(y)`
//!   from `y = 0`, each two sparse mat-vecs. The step is a quarter of
//!   the Polyak step toward the λ of the `y = 0` greedy (a known
//!   feasible value, so well below `UB*`; the full step overshoots).
//!   The lowest-`UB` iterate is kept.
//! * **Greedy.** Walk the columns in ascending `(Mᵀy)_j` (ties by pair
//!   id) and give each the largest integer `≤ c_j` that keeps every
//!   row it touches `≤ B`, in the spirit of Koufogiannakis–Young's
//!   packing PTAS: columns that are cheap under the dual go first.
//!
//! All arithmetic is sequential and in a fixed order, so the answer is
//! a function of the constraint system alone.

use crate::constraints::PrivacyConstraints;

/// Projected-subgradient steps the dual runs before the greedy. At
/// 2·10⁴ users each step is two mat-vecs over ≈3.6·10⁵ nonzeros (about
/// 2 ms); 100 or 200 steps tightened the bound by under 1 % and moved
/// the greedy's λ by under 0.3 %.
pub const DUAL_STEPS: usize = 50;

/// The fraction of the Polyak step the dual takes. Its target, the
/// `y = 0` greedy's λ, sits far below `UB*`, and full steps overshoot:
/// at 2·10⁴ users 1/4 ends 9 % lower than 1 after the same 50 steps.
const STEP_SCALE: f64 = 0.25;

/// A packing-route answer.
#[derive(Debug, Clone)]
pub struct PackingSolution {
    /// Integer counts, one per pair: feasible, each `≤` its cap.
    pub counts: Vec<u64>,
    /// `UB(y)` at the dual the greedy ordered columns by:
    /// `Σ counts ≤ λ* ≤ upper_bound`.
    pub upper_bound: f64,
}

/// The constraint matrix by column: a CSC transpose of the rows of a
/// [`PrivacyConstraints`], built in O(nnz). Entries of each column are
/// in ascending row order.
struct Columns {
    start: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<f64>,
}

impl Columns {
    /// Transpose the constraint rows.
    fn build(constraints: &PrivacyConstraints) -> Columns {
        let n = constraints.n_pairs();
        let mut start = vec![0usize; n + 1];
        for i in 0..constraints.n_rows() {
            for &(p, _) in constraints.row(i) {
                start[p + 1] += 1;
            }
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let nnz = start[n];
        let mut next = start[..n].to_vec();
        let (mut rows, mut vals) = (vec![0usize; nnz], vec![0.0; nnz]);
        for i in 0..constraints.n_rows() {
            for &(p, v) in constraints.row(i) {
                rows[next[p]] = i;
                vals[next[p]] = v;
                next[p] += 1;
            }
        }
        Columns { start, rows, vals }
    }

    /// Number of columns.
    fn n_cols(&self) -> usize {
        self.start.len() - 1
    }

    /// Column `j` as `(row indices, coefficients)`.
    fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let r = self.start[j]..self.start[j + 1];
        (&self.rows[r.clone()], &self.vals[r])
    }

    /// `Mᵀy`: the price of every column under row prices `y`.
    fn prices(&self, y: &[f64]) -> Vec<f64> {
        (0..self.n_cols())
            .map(|j| {
                let (rows, vals) = self.col(j);
                rows.iter().zip(vals).map(|(&i, &v)| y[i] * v).sum()
            })
            .collect()
    }
}

/// The column bounds `u_j` of [`upper_bound`]: the cap `c_j` tightened
/// to `B / max_i M_ij`. The tightening is implied by the rows, so it
/// never cuts off a feasible point.
pub fn column_bounds(constraints: &PrivacyConstraints) -> Vec<f64> {
    let mut max_coef = vec![0.0f64; constraints.n_pairs()];
    for i in 0..constraints.n_rows() {
        for &(p, v) in constraints.row(i) {
            max_coef[p] = max_coef[p].max(v);
        }
    }
    let b = constraints.budget();
    max_coef
        .iter()
        .zip(constraints.pair_totals())
        .map(|(&m, &c)| if m > 0.0 { (c as f64).min(b / m) } else { c as f64 })
        .collect()
}

/// `UB(y) = B·Σy + Σ_j u_j·(1 − (Mᵀy)_j)₊` given the column prices
/// `prices = Mᵀy`.
fn bound_at(budget: f64, y: &[f64], bounds: &[f64], prices: &[f64]) -> f64 {
    let mut ub = budget * y.iter().sum::<f64>();
    for (&u, &s) in bounds.iter().zip(prices) {
        if s < 1.0 {
            ub += u * (1.0 - s);
        }
    }
    ub
}

/// The certified bound `UB(y) ≥ λ*` for any row prices `y` (negative
/// entries are clamped to 0, so simplex row duals can be passed as-is).
/// One pass over the rows; `bounds` comes from [`column_bounds`].
pub fn upper_bound(constraints: &PrivacyConstraints, bounds: &[f64], y: &[f64]) -> f64 {
    assert_eq!(y.len(), constraints.n_rows(), "one price per row");
    let y: Vec<f64> = y.iter().map(|&v| v.max(0.0)).collect();
    let mut prices = vec![0.0; constraints.n_pairs()];
    for (i, &yi) in y.iter().enumerate() {
        if yi > 0.0 {
            for &(p, v) in constraints.row(i) {
                prices[p] += yi * v;
            }
        }
    }
    bound_at(constraints.budget(), &y, bounds, &prices)
}

/// Solve the O-UMP on the packing route: the [`DUAL_STEPS`]-step dual,
/// then the dual-guided greedy. The counts are feasible integers; the
/// answer is not proven optimal, and `upper_bound` says how far off it
/// can be.
pub fn solve(constraints: &PrivacyConstraints) -> PackingSolution {
    let cols = Columns::build(constraints);
    let bounds = column_bounds(constraints);
    let budget = constraints.budget();
    let m = constraints.n_rows();

    // the y = 0 greedy (pair-id order) fixes the Polyak target
    let mut y = vec![0.0; m];
    let mut prices = vec![0.0; cols.n_cols()];
    let target = greedy(constraints, &cols, &bounds, &prices).iter().sum::<u64>() as f64;

    let mut best = (f64::INFINITY, y.clone());
    for step in 0..=DUAL_STEPS {
        let ub = bound_at(budget, &y, &bounds, &prices);
        if ub < best.0 {
            best = (ub, y.clone());
        }
        if step == DUAL_STEPS || ub <= target {
            break;
        }
        // subgradient of UB at y: B − Σ_{j: price < 1} u_j·M_·j
        let mut g = vec![budget; m];
        for (j, (&u, &s)) in bounds.iter().zip(&prices).enumerate() {
            if s < 1.0 {
                let (rows, vals) = cols.col(j);
                for (&i, &v) in rows.iter().zip(vals) {
                    g[i] -= u * v;
                }
            }
        }
        let norm2: f64 = g.iter().map(|v| v * v).sum();
        if norm2 <= 0.0 || !norm2.is_finite() {
            break;
        }
        let t = STEP_SCALE * (ub - target) / norm2;
        for (yi, gi) in y.iter_mut().zip(&g) {
            *yi = (*yi - t * gi).max(0.0);
        }
        prices = cols.prices(&y);
    }

    let (upper_bound, dual) = best;
    let counts = greedy(constraints, &cols, &bounds, &cols.prices(&dual));
    PackingSolution { counts, upper_bound }
}

/// Walk the columns in ascending `(price, pair id)` and give each the
/// largest integer `≤ bounds[j]` (from [`column_bounds`], so `≤ c_j`)
/// that keeps every row it touches `≤ B`.
fn greedy(
    constraints: &PrivacyConstraints,
    cols: &Columns,
    bounds: &[f64],
    prices: &[f64],
) -> Vec<u64> {
    let budget = constraints.budget();
    let mut order: Vec<usize> = (0..cols.n_cols()).collect();
    order.sort_by(|&a, &b| prices[a].total_cmp(&prices[b]).then(a.cmp(&b)));
    let mut activity = vec![0.0f64; constraints.n_rows()];
    let mut counts = vec![0u64; cols.n_cols()];
    for j in order {
        let (rows, vals) = cols.col(j);
        let mut room = bounds[j].floor();
        for (&i, &v) in rows.iter().zip(vals) {
            room = room.min(((budget - activity[i]) / v).floor());
        }
        if room >= 1.0 {
            counts[j] = room as u64;
            for (&i, &v) in rows.iter().zip(vals) {
                activity[i] += v * room;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_dp::params::PrivacyParams;
    use dpsan_searchlog::{preprocess, SearchLogBuilder};

    fn constraints() -> PrivacyConstraints {
        let mut b = SearchLogBuilder::new();
        b.add("u1", "google", "google.com", 15).unwrap();
        b.add("u2", "google", "google.com", 7).unwrap();
        b.add("u3", "google", "google.com", 17).unwrap();
        b.add("u1", "book", "amazon.com", 3).unwrap();
        b.add("u3", "book", "amazon.com", 1).unwrap();
        let (log, _) = preprocess(&b.build());
        PrivacyConstraints::build(&log, PrivacyParams::from_e_epsilon(2.0, 0.5)).unwrap()
    }

    #[test]
    fn transpose_lists_every_row_entry_by_column() {
        let c = constraints();
        let cols = Columns::build(&c);
        assert_eq!(cols.n_cols(), c.n_pairs());
        for i in 0..c.n_rows() {
            for &(p, v) in c.row(i) {
                let (rows, vals) = cols.col(p);
                let k = rows.iter().position(|&r| r == i).expect("entry transposed");
                assert_eq!(vals[k], v);
            }
        }
        let nnz: usize = (0..c.n_rows()).map(|i| c.row(i).len()).sum();
        assert_eq!((0..cols.n_cols()).map(|j| cols.col(j).0.len()).sum::<usize>(), nnz);
    }

    #[test]
    fn bound_at_zero_prices_is_the_sum_of_column_bounds() {
        let c = constraints();
        let bounds = column_bounds(&c);
        for (&u, &cap) in bounds.iter().zip(c.pair_totals()) {
            assert!(u > 0.0 && u <= cap as f64);
        }
        let ub = upper_bound(&c, &bounds, &vec![0.0; c.n_rows()]);
        assert!((ub - bounds.iter().sum::<f64>()).abs() < 1e-12);
        // negative prices are clamped, not trusted
        assert_eq!(upper_bound(&c, &bounds, &vec![-5.0; c.n_rows()]), ub);
    }
}
