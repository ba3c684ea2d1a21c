//! Sparse LU factorization with Markowitz-style threshold pivoting.
//!
//! A Gilbert–Peierls left-looking scheme: for each column the set of
//! pivots to eliminate against is computed as a graph reach over the
//! already-built `L` pattern (instead of scanning all prior pivots),
//! so factoring a column costs time proportional to the fill it
//! produces. Pivots are chosen by a threshold Markowitz rule: among
//! candidate rows whose magnitude is within a factor of the column
//! maximum, prefer the sparsest row (fewest entries in the basis
//! matrix), which keeps fill-in low on the near-block-diagonal bases
//! the UMP LPs produce (`P B = L U`, row permutation only).
//!
//! Solves are flat sweeps in place over full working vectors
//! ([`SparseLu::ftran`], [`SparseLu::btran`]): each visits every pivot
//! position once, in order. The simplex re-derives a result's nonzero
//! pattern with one scan ([`crate::sparse::SparseVec::rescan_pattern`]).

/// Relative magnitude threshold for Markowitz pivot admissibility: a
/// row is a pivot candidate when `|v| >= 0.1 * max|v|` in the column.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// Absolute floor under which a pivot is considered numerically zero.
const PIVOT_TOL: f64 = 1e-11;

/// Sparse LU factors of a square matrix.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Column k of `L` (strictly below the pivot, unit diagonal
    /// implicit), stored by *original row index*, ascending.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Column j of `U` strictly above the diagonal: entries `(k, v)`
    /// meaning pivot position `k` (`k < j`), ascending in `k`.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U` per pivot position.
    u_diag: Vec<f64>,
    /// `p[k]` = original row chosen as pivot of position `k`.
    p: Vec<usize>,
    /// Inverse permutation: `pinv[row] = pivot position`.
    pinv: Vec<usize>,
}

impl SparseLu {
    /// Factor a square matrix given as `n` sparse columns
    /// (`(row_indices, values)` per column). Returns `None` when the
    /// matrix is numerically singular.
    pub fn factor(n: usize, cols: &[(&[usize], &[f64])]) -> Option<SparseLu> {
        assert_eq!(cols.len(), n, "need exactly n columns");

        // static Markowitz row counts: entries per row of the input
        // matrix (cheap proxy for the active-submatrix count)
        let mut row_count = vec![0usize; n];
        for &(rows, _) in cols {
            for &r in rows {
                debug_assert!(r < n);
                row_count[r] += 1;
            }
        }

        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut u_diag = Vec::with_capacity(n);
        let mut p: Vec<usize> = Vec::with_capacity(n);
        let mut pinv: Vec<Option<usize>> = vec![None; n];

        // dense working vector + occupancy tracking
        let mut work = vec![0.0f64; n];
        let mut in_work = vec![false; n];
        let mut touched: Vec<usize> = Vec::with_capacity(64);
        // reach traversal buffers over pivot positions
        let mut visited = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut reach: Vec<usize> = Vec::new();

        for (j, &(rows, vals)) in cols.iter().enumerate() {
            // scatter column j
            for (&r, &v) in rows.iter().zip(vals) {
                debug_assert!(r < n);
                if v != 0.0 && !in_work[r] {
                    in_work[r] = true;
                    touched.push(r);
                }
                work[r] += v;
            }

            // structural reach: every pivot position whose row can be
            // hit, including via fill, found by closing over L edges
            reach.clear();
            for &r in &touched {
                if let Some(k) = pinv[r] {
                    if !visited[k] {
                        visited[k] = true;
                        stack.push(k);
                    }
                }
            }
            while let Some(k) = stack.pop() {
                reach.push(k);
                for &(r, _) in &l_cols[k] {
                    if let Some(k2) = pinv[r] {
                        if !visited[k2] {
                            visited[k2] = true;
                            stack.push(k2);
                        }
                    }
                }
            }
            // ascending pivot order is a valid topological order: every
            // L edge k -> pinv[r] points to a later pivot (row r was
            // non-pivotal when column k was built)
            reach.sort_unstable();
            for &k in &reach {
                visited[k] = false;
            }

            // eliminate against reachable pivots in order
            let mut u_col = Vec::new();
            for &k in &reach {
                let pivot_row = p[k];
                let xk = work[pivot_row];
                if xk == 0.0 {
                    continue;
                }
                u_col.push((k, xk));
                work[pivot_row] = 0.0;
                for &(r, l) in &l_cols[k] {
                    if !in_work[r] {
                        in_work[r] = true;
                        touched.push(r);
                    }
                    work[r] -= l * xk;
                }
            }

            // threshold Markowitz pivot: among rows within
            // MARKOWITZ_THRESHOLD of the column max, take the fewest
            // static row entries; break ties by larger magnitude, then
            // smaller row index (determinism)
            touched.sort_unstable();
            let mut vmax = 0.0f64;
            for &r in &touched {
                if pinv[r].is_none() {
                    vmax = vmax.max(work[r].abs());
                }
            }
            if vmax < PIVOT_TOL {
                return None;
            }
            let admissible = (MARKOWITZ_THRESHOLD * vmax).max(PIVOT_TOL);
            let mut pivot_row = usize::MAX;
            let mut pivot_abs = 0.0f64;
            let mut pivot_cnt = usize::MAX;
            for &r in &touched {
                if pinv[r].is_some() {
                    continue;
                }
                let a = work[r].abs();
                if a < admissible {
                    continue;
                }
                let c = row_count[r];
                if c < pivot_cnt || (c == pivot_cnt && a > pivot_abs) {
                    pivot_row = r;
                    pivot_abs = a;
                    pivot_cnt = c;
                }
            }
            debug_assert!(pivot_row != usize::MAX);
            let pivot_val = work[pivot_row];

            // gather the normalized L column (ascending row order) and
            // reset the workspace
            let mut l_col = Vec::new();
            for &r in &touched {
                let v = work[r];
                work[r] = 0.0;
                in_work[r] = false;
                if v != 0.0 && r != pivot_row && pinv[r].is_none() {
                    l_col.push((r, v / pivot_val));
                }
            }
            touched.clear();

            pinv[pivot_row] = Some(j);
            p.push(pivot_row);
            u_diag.push(pivot_val);
            u_cols.push(u_col);
            l_cols.push(l_col);
        }

        let pinv: Vec<usize> = pinv.into_iter().map(|x| x.expect("all rows pivoted")).collect();

        Some(SparseLu { n, l_cols, u_cols, u_diag, p, pinv })
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total stored nonzeros in `L` and `U` (including the unit and
    /// `U` diagonals).
    pub fn nnz(&self) -> usize {
        let l: usize = self.l_cols.iter().map(Vec::len).sum();
        let u: usize = self.u_cols.iter().map(Vec::len).sum();
        l + u + 2 * self.n
    }

    /// Solve `B z = rhs` in place; `rhs` is indexed by original row on
    /// entry and by basis position on exit.
    pub fn ftran(&self, rhs: &mut [f64]) {
        assert_eq!(rhs.len(), self.n, "dimension mismatch");
        // L y = P rhs: process pivots in order, values live at original rows.
        for k in 0..self.n {
            let yk = rhs[self.p[k]];
            if yk != 0.0 {
                for &(r, l) in &self.l_cols[k] {
                    rhs[r] -= l * yk;
                }
            }
        }
        // U z = y (backward by columns); z indexed by position.
        let mut z = vec![0.0f64; self.n];
        for j in (0..self.n).rev() {
            let zj = rhs[self.p[j]] / self.u_diag[j];
            z[j] = zj;
            if zj != 0.0 {
                for &(k, u) in &self.u_cols[j] {
                    rhs[self.p[k]] -= u * zj;
                }
            }
        }
        rhs.copy_from_slice(&z);
    }

    /// Solve `B' z = rhs` in place; `rhs` is indexed by basis position on
    /// entry and by original row on exit.
    pub fn btran(&self, rhs: &mut [f64]) {
        assert_eq!(rhs.len(), self.n, "dimension mismatch");
        // U' w = rhs (forward): w_j = (rhs_j - sum_{k<j} U[k][j] w_k) / diag_j
        let mut w = vec![0.0f64; self.n];
        for j in 0..self.n {
            let mut v = rhs[j];
            for &(k, u) in &self.u_cols[j] {
                v -= u * w[k];
            }
            w[j] = v / self.u_diag[j];
        }
        // L' v = w (backward): v_k = w_k - sum_{(r, l) in Lcol_k} l * v[pinv[r]]
        for k in (0..self.n).rev() {
            let mut v = w[k];
            for &(r, l) in &self.l_cols[k] {
                v -= l * w[self.pinv[r]];
            }
            w[k] = v;
        }
        // z[p[k]] = v_k
        for k in 0..self.n {
            rhs[self.p[k]] = w[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{matvec, DenseLu};
    use crate::sparse::CscMatrix;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn lu_of(m: &CscMatrix) -> Option<SparseLu> {
        let cols: Vec<(&[usize], &[f64])> = (0..m.ncols()).map(|j| m.col(j)).collect();
        SparseLu::factor(m.nrows(), &cols)
    }

    fn random_sparse_nonsingular(n: usize, rng: &mut StdRng) -> CscMatrix {
        // diagonally dominant: guaranteed nonsingular
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, i, 4.0 + rng.random::<f64>()));
            for _ in 0..2 {
                let j = rng.random_range(0..n);
                if j != i {
                    trips.push((i, j, rng.random::<f64>() - 0.5));
                }
            }
        }
        CscMatrix::from_triplets(n, n, &trips)
    }

    #[test]
    fn ftran_matches_dense_lu() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 5, 20, 60] {
            let m = random_sparse_nonsingular(n, &mut rng);
            let lu = lu_of(&m).expect("nonsingular");
            let dense = DenseLu::factor(&m.to_dense()).expect("nonsingular");
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
            let mut z = b.clone();
            lu.ftran(&mut z);
            let z_ref = dense.solve(&b);
            for (a, b) in z.iter().zip(&z_ref) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn btran_matches_dense_lu() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 3, 10, 40] {
            let m = random_sparse_nonsingular(n, &mut rng);
            let lu = lu_of(&m).expect("nonsingular");
            let dense = DenseLu::factor(&m.to_dense()).expect("nonsingular");
            let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let mut z = b.clone();
            lu.btran(&mut z);
            let z_ref = dense.solve_transpose(&b);
            for (a, b) in z.iter().zip(&z_ref) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn nnz_counts_factors() {
        let m = CscMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0), (1, 0, 1.0)]);
        let lu = lu_of(&m).unwrap();
        // L has one off-diagonal entry or U does, plus both diagonals
        assert!(lu.nnz() >= 4);
    }

    #[test]
    fn solves_verify_via_residual() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = random_sparse_nonsingular(30, &mut rng);
        let lu = lu_of(&m).unwrap();
        let b: Vec<f64> = (0..30).map(|i| i as f64 * 0.1 - 1.0).collect();
        let mut z = b.clone();
        lu.ftran(&mut z);
        let dense = m.to_dense();
        let res: f64 =
            matvec(&dense, &z).iter().zip(&b).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(res < 1e-9, "residual {res}");
    }

    #[test]
    fn permuted_identity_factors() {
        // columns of a permutation matrix
        let m = CscMatrix::from_triplets(3, 3, &[(2, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]);
        let lu = lu_of(&m).unwrap();
        let mut z = vec![5.0, 7.0, 9.0];
        lu.ftran(&mut z);
        // B z = b with B = P -> z = P' b
        let dense = m.to_dense();
        let res: f64 = matvec(&dense, &z)
            .iter()
            .zip(&[5.0, 7.0, 9.0])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(res < 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let m = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        assert!(lu_of(&m).is_none());
    }

    #[test]
    fn zero_column_returns_none() {
        let m = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        assert!(lu_of(&m).is_none());
    }
}
