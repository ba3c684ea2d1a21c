//! Compressed sparse column matrices.
//!
//! The revised simplex is column-oriented: it repeatedly fetches single
//! columns (`A_q` for FTRAN, basis columns for refactorization) and
//! computes sparse dot products against a dense dual vector. CSC is the
//! natural layout for both.

/// An immutable CSC matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build from triplets `(row, col, value)`. Duplicate entries are
    /// summed; explicit zeros (and duplicate sums that cancel to zero)
    /// are dropped.
    ///
    /// # Panics
    /// Panics on out-of-range indices or non-finite values.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = triplets
            .iter()
            .map(|&(r, c, v)| {
                assert!(r < nrows, "row index {r} out of range ({nrows} rows)");
                assert!(c < ncols, "col index {c} out of range ({ncols} cols)");
                assert!(v.is_finite(), "matrix entries must be finite");
                (c, r, v)
            })
            .collect();
        sorted.sort_unstable_by_key(|&(c, r, _)| (c, r));

        let mut col_ptr = vec![0usize; ncols + 1];
        let mut row_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for &(c, r, v) in &sorted {
            // entries are sorted by (c, r), so duplicates are adjacent
            if last == Some((c, r)) {
                *values.last_mut().expect("duplicate implies a previous entry") += v;
                continue;
            }
            row_idx.push(r);
            values.push(v);
            col_ptr[c + 1] += 1;
            last = Some((c, r));
        }
        for c in 0..ncols {
            col_ptr[c + 1] += col_ptr[c];
        }

        let mut m = CscMatrix { nrows, ncols, col_ptr, row_idx, values };
        m.drop_zeros();
        m
    }

    fn drop_zeros(&mut self) {
        if self.values.iter().all(|&v| v != 0.0) {
            return;
        }
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut row_idx = Vec::with_capacity(self.row_idx.len());
        let mut values = Vec::with_capacity(self.values.len());
        for c in 0..self.ncols {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                if self.values[k] != 0.0 {
                    row_idx.push(self.row_idx[k]);
                    values.push(self.values[k]);
                    col_ptr[c + 1] += 1;
                }
            }
        }
        for c in 0..self.ncols {
            col_ptr[c + 1] += col_ptr[c];
        }
        self.col_ptr = col_ptr;
        self.row_idx = row_idx;
        self.values = values;
    }

    /// An `nrows x ncols` zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix { nrows, ncols, col_ptr: vec![0; ncols + 1], row_idx: vec![], values: vec![] }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(row_indices, values)` slices of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Sparse dot product of column `j` with a dense vector.
    #[inline]
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| v * dense[r]).sum()
    }

    /// `y += alpha * A_j` scatter of column `j` into a dense vector.
    #[inline]
    pub fn col_axpy(&self, j: usize, alpha: f64, dense: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            dense[r] += alpha * v;
        }
    }

    /// Dense matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                self.col_axpy(j, xj, &mut y);
            }
        }
        y
    }

    /// Materialize as a dense row-major matrix (tests and the dense LU).
    #[allow(clippy::needless_range_loop)] // j scatters a CSC column into row-major rows
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                d[r][j] = v;
            }
        }
        d
    }

    /// Append extra columns given as `(rows, values)` sparse vectors,
    /// returning a new matrix. Used to add slack/artificial columns.
    pub fn with_extra_cols(&self, cols: &[Vec<(usize, f64)>]) -> CscMatrix {
        let ncols = self.ncols + cols.len();
        let extra_nnz: usize = cols.iter().map(|c| c.len()).sum();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.extend_from_slice(&self.col_ptr);
        let mut row_idx = Vec::with_capacity(self.nnz() + extra_nnz);
        row_idx.extend_from_slice(&self.row_idx);
        let mut values = Vec::with_capacity(self.nnz() + extra_nnz);
        values.extend_from_slice(&self.values);
        for col in cols {
            for &(r, v) in col {
                assert!(r < self.nrows, "extra column row index out of range");
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix { nrows: self.nrows, ncols, col_ptr, row_idx, values }
    }
}

/// A CSR mirror of a [`CscMatrix`], for the row-oriented passes of the
/// revised simplex (devex reference-weight updates and the dual ratio
/// test both need `rho' A` restricted to the rows where `rho` is
/// nonzero — that is a union of matrix *rows*, not columns).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build the CSR mirror of a CSC matrix. Entries within each row
    /// come out sorted by column index (the CSC column sweep visits
    /// columns in ascending order).
    pub fn from_csc(a: &CscMatrix) -> Self {
        let nrows = a.nrows();
        let ncols = a.ncols();
        let nnz = a.nnz();
        let mut row_ptr = vec![0usize; nrows + 1];
        for &r in &a.row_idx {
            row_ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for j in 0..ncols {
            let (rows, vals) = a.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                let slot = next[r];
                col_idx[slot] = j;
                values[slot] = v;
                next[r] += 1;
            }
        }
        CsrMatrix { nrows, ncols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The `(col_indices, values)` slices of row `i`, sorted by column.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }
}

/// A sparse working vector with explicit nonzero tracking: a dense
/// value array plus the list of positions that may be nonzero.
///
/// This is the workhorse of the sparse FTRAN/BTRAN path. Kernels
/// scatter into `values` and record each newly touched index in
/// `pattern` (guarded by the `marked` bitmap so an index is recorded
/// once); [`SparseVec::clear`] then resets only the touched entries,
/// so a solve whose result has `k` nonzeros costs `O(k)` to clean up
/// instead of `O(n)`.
///
/// Entries listed in `pattern` may still hold an exact `0.0` (numeric
/// cancellation); consumers that care filter on the value.
#[derive(Debug, Clone)]
pub struct SparseVec {
    /// Dense value array, indexable by position.
    pub values: Vec<f64>,
    /// Indices with (structurally) nonzero values, in scatter order
    /// unless [`SparseVec::sort_pattern`] has been called.
    pub pattern: Vec<usize>,
    marked: Vec<bool>,
}

impl SparseVec {
    /// An all-zero vector of dimension `n`.
    pub fn new(n: usize) -> Self {
        SparseVec { values: vec![0.0; n], pattern: Vec::new(), marked: vec![false; n] }
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the pattern is empty (the vector may still be
    /// numerically zero with a non-empty pattern after cancellation).
    pub fn is_empty(&self) -> bool {
        self.pattern.is_empty()
    }

    /// Number of tracked (structural) nonzeros.
    pub fn nnz(&self) -> usize {
        self.pattern.len()
    }

    /// Reset to the zero vector in `O(nnz)` time.
    pub fn clear(&mut self) {
        for &i in &self.pattern {
            self.values[i] = 0.0;
            self.marked[i] = false;
        }
        self.pattern.clear();
    }

    /// Resize to dimension `n`, clearing all entries.
    pub fn resize(&mut self, n: usize) {
        self.clear();
        self.values.resize(n, 0.0);
        self.marked.resize(n, false);
    }

    /// Add `i` to the tracked pattern (idempotent). Does not touch the
    /// value.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.pattern.push(i);
        }
    }

    /// `values[i] += v`, tracking `i` in the pattern.
    #[inline]
    pub fn add(&mut self, i: usize, v: f64) {
        self.mark(i);
        self.values[i] += v;
    }

    /// `values[i] = v`, tracking `i` in the pattern.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        self.mark(i);
        self.values[i] = v;
    }

    /// Sort the pattern into ascending index order. Pattern-driven
    /// consumers that must match a dense left-to-right sweep (the
    /// Harris ratio test's tie-breaking, ascending-row dot products)
    /// call this first.
    pub fn sort_pattern(&mut self) {
        self.pattern.sort_unstable();
    }

    /// Re-derive the pattern by scanning the dense values — for use
    /// after a dense kernel has written `values` directly. The pattern
    /// comes out sorted ascending, as after
    /// [`SparseVec::sort_pattern`].
    pub fn rescan_pattern(&mut self) {
        for &i in &self.pattern {
            self.marked[i] = false;
        }
        self.pattern.clear();
        for i in 0..self.values.len() {
            if self.values[i] != 0.0 {
                self.marked[i] = true;
                self.pattern.push(i);
            }
        }
    }

    /// Load from a dense slice, tracking every nonzero.
    pub fn assign_dense(&mut self, dense: &[f64]) {
        self.clear();
        debug_assert_eq!(dense.len(), self.values.len());
        for (i, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                self.set(i, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        CscMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 3.0), (0, 2, 2.0)])
    }

    #[test]
    fn dims_and_nnz() {
        let m = sample();
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (2, 3, 3));
    }

    #[test]
    fn duplicates_sum() {
        let m = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense()[0][0], 3.5);
    }

    #[test]
    fn explicit_zeros_dropped() {
        let m = CscMatrix::from_triplets(2, 2, &[(0, 0, 0.0), (1, 0, 1.0)]);
        assert_eq!(m.nnz(), 1);
        let m = CscMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, -1.0)]);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn col_access() {
        let m = sample();
        let (rows, vals) = m.col(2);
        assert_eq!(rows, &[0]);
        assert_eq!(vals, &[2.0]);
        let (rows, _) = m.col(1);
        assert_eq!(rows, &[1]);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let y = m.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0 + 6.0, 6.0]);
    }

    #[test]
    fn col_dot_and_axpy() {
        let m = sample();
        assert_eq!(m.col_dot(0, &[4.0, 7.0]), 4.0);
        let mut dense = vec![1.0, 1.0];
        m.col_axpy(1, 2.0, &mut dense);
        assert_eq!(dense, vec![1.0, 7.0]);
    }

    #[test]
    fn with_extra_cols_appends_identity() {
        let m = sample();
        let ext = m.with_extra_cols(&[vec![(0, 1.0)], vec![(1, -1.0)]]);
        assert_eq!(ext.ncols(), 5);
        let d = ext.to_dense();
        assert_eq!(d[0][3], 1.0);
        assert_eq!(d[1][4], -1.0);
        assert_eq!(d[0][0], 1.0, "original columns preserved");
    }

    #[test]
    fn zeros_matrix() {
        let m = CscMatrix::zeros(3, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.matvec(&[1.0; 4]), vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "row index")]
    fn bad_row_panics() {
        let _ = CscMatrix::from_triplets(1, 1, &[(5, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_panics() {
        let _ = CscMatrix::from_triplets(1, 1, &[(0, 0, f64::NAN)]);
    }

    #[test]
    fn csr_mirrors_csc() {
        let m = CscMatrix::from_triplets(
            3,
            4,
            &[(0, 0, 1.0), (2, 0, -2.0), (0, 2, 3.0), (1, 3, 4.0), (2, 2, 5.0)],
        );
        let r = CsrMatrix::from_csc(&m);
        assert_eq!((r.nrows(), r.ncols()), (3, 4));
        let (cols, vals) = r.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 3.0]);
        let (cols, vals) = r.row(1);
        assert_eq!(cols, &[3]);
        assert_eq!(vals, &[4.0]);
        let (cols, vals) = r.row(2);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[-2.0, 5.0]);
    }

    #[test]
    fn csr_rows_sorted_by_column() {
        let m = CscMatrix::from_triplets(2, 3, &[(0, 2, 7.0), (0, 0, 1.0), (0, 1, 2.0)]);
        let r = CsrMatrix::from_csc(&m);
        let (cols, _) = r.row(0);
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sparse_vec_tracks_and_clears() {
        let mut v = SparseVec::new(5);
        assert!(v.is_empty());
        v.add(3, 2.0);
        v.add(1, -1.0);
        v.add(3, 0.5);
        assert_eq!(v.nnz(), 2, "duplicate index tracked once");
        assert_eq!(v.values[3], 2.5);
        v.sort_pattern();
        assert_eq!(v.pattern, vec![1, 3]);
        v.clear();
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.values, vec![0.0; 5]);
        // marked bitmap was reset too: re-adding works
        v.set(3, 9.0);
        assert_eq!(v.pattern, vec![3]);
    }

    #[test]
    fn sparse_vec_assign_dense() {
        let mut v = SparseVec::new(4);
        v.add(0, 5.0);
        v.assign_dense(&[0.0, 1.0, 0.0, -2.0]);
        let mut p = v.pattern.clone();
        p.sort_unstable();
        assert_eq!(p, vec![1, 3]);
        assert_eq!(v.values, vec![0.0, 1.0, 0.0, -2.0]);
    }
}
