//! Basis factorization for the revised simplex.
//!
//! [`lu::SparseLu`] factors the basis matrix once; [`eta::EtaFile`]
//! absorbs subsequent pivots in product form. [`BasisFactor`] bundles the
//! two and exposes the FTRAN/BTRAN solves the simplex needs.

pub mod eta;
pub mod lu;

use crate::error::LpError;
use crate::sparse::{CscMatrix, SparseVec};
use eta::EtaFile;
use lu::SparseLu;

/// LU factorization of the current basis plus the eta updates applied
/// since the last refactorization.
#[derive(Debug)]
pub struct BasisFactor {
    lu: SparseLu,
    etas: EtaFile,
}

impl BasisFactor {
    /// Factor the basis given by `basis[i]` = column of `a` that is
    /// basic in row position `i`.
    pub fn factor(a: &CscMatrix, basis: &[usize]) -> Result<BasisFactor, LpError> {
        let cols: Vec<(&[usize], &[f64])> = basis.iter().map(|&j| a.col(j)).collect();
        let lu = SparseLu::factor(a.nrows(), &cols).ok_or(LpError::SingularBasis)?;
        Ok(BasisFactor { lu, etas: EtaFile::new() })
    }

    /// Solve `B z = rhs` in place (FTRAN). On return, `rhs[i]` is the
    /// coefficient of the basis column in row position `i`.
    pub fn ftran(&self, rhs: &mut [f64]) {
        self.lu.ftran(rhs);
        self.etas.ftran(rhs);
    }

    /// Solve `B' z = rhs` in place (BTRAN).
    pub fn btran(&self, rhs: &mut [f64]) {
        self.etas.btran(rhs);
        self.lu.btran(rhs);
    }

    /// Number of eta updates accumulated since the last refactorization
    /// (drives the refactorization cadence).
    pub fn n_updates(&self) -> usize {
        self.etas.len()
    }

    /// Stored nonzeros in the LU factors (excluding eta updates); feeds
    /// the `dpsan_lp_factor_nnz` gauge.
    pub fn lu_nnz(&self) -> usize {
        self.lu.nnz()
    }

    /// Total nonzeros across the accumulated etas. Every BTRAN pays a
    /// gather over all of them, so the sparse route refactors when this
    /// outgrows the LU fill rather than waiting out the update cadence.
    pub fn eta_nnz(&self) -> usize {
        self.etas.nnz()
    }

    /// Record a pivot: basis row position `r` is replaced by a column
    /// whose FTRAN image is the spike `w`. The spike's pattern is sorted
    /// in place. Fails when the pivot element is numerically zero.
    pub fn update_sparse(&mut self, r: usize, w: &mut SparseVec) -> Result<(), LpError> {
        self.etas.push_sparse(r, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_solves_and_updates() {
        // A = [1 2 0; 0 1 0; 1 0 1], basis = all three columns
        let a = CscMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (2, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0), (2, 2, 1.0)],
        );
        let basis = vec![0, 1, 2];
        let mut f = BasisFactor::factor(&a, &basis).unwrap();

        // FTRAN: solve B z = [1, 0, 0]
        let mut z = vec![1.0, 0.0, 0.0];
        f.ftran(&mut z);
        // B z = e0 -> z = [1, 0, -1]
        assert!((z[0] - 1.0).abs() < 1e-12 && z[1].abs() < 1e-12 && (z[2] + 1.0).abs() < 1e-12);

        // BTRAN: solve B' y = [0, 1, 0], i.e. y·col_j = e1_j:
        // y0 + y2 = 0, 2 y0 + y1 = 1, y2 = 0 -> y = [0, 1, 0]
        let mut y = vec![0.0, 1.0, 0.0];
        f.btran(&mut y);
        assert!(y[0].abs() < 1e-12 && (y[1] - 1.0).abs() < 1e-12 && y[2].abs() < 1e-12, "{y:?}");

        // Update: replace position 0 with a column whose ftran image is w.
        let mut w = SparseVec::new(3);
        w.assign_dense(&[2.0, 0.0, 1.0]);
        f.update_sparse(0, &mut w).unwrap();
        assert_eq!(f.n_updates(), 1);
        // New basis column at position 0 is B_old * w = a0*2 + a2*1 = [2,0,3].
        // Check: ftran of [2,0,3] must give e0.
        let mut rhs = vec![2.0, 0.0, 3.0];
        f.ftran(&mut rhs);
        assert!((rhs[0] - 1.0).abs() < 1e-12 && rhs[1].abs() < 1e-12 && rhs[2].abs() < 1e-12);
    }

    #[test]
    fn singular_basis_detected() {
        let a = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0)]);
        assert!(matches!(BasisFactor::factor(&a, &[0, 1]), Err(LpError::SingularBasis)));
    }
}
