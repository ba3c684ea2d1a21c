//! Product-form-of-the-inverse eta updates.
//!
//! After a pivot that makes column `q` basic in row position `r`, the new
//! basis is `B_new = B_old · E`, where `E` is the identity with column
//! `r` replaced by `w = B_old⁻¹ A_q`. Solves against `B_new` compose the
//! old solve with a cheap rank-one style elimination per eta.

use crate::error::LpError;
use crate::sparse::SparseVec;

#[derive(Debug, Clone)]
struct Eta {
    /// Pivot position `r`.
    r: usize,
    /// Pivot element `w_r`.
    pivot: f64,
    /// Off-pivot nonzeros `(i, w_i)`, `i ≠ r`.
    entries: Vec<(usize, f64)>,
}

/// A chronological list of eta updates since the last refactorization.
#[derive(Debug, Default)]
pub struct EtaFile {
    etas: Vec<Eta>,
    nnz: usize,
}

impl EtaFile {
    /// Empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded etas.
    pub fn len(&self) -> usize {
        self.etas.len()
    }

    /// Whether no etas are recorded.
    pub fn is_empty(&self) -> bool {
        self.etas.is_empty()
    }

    /// Total stored nonzeros across all etas (pivots included). Every
    /// BTRAN gathers over every stored entry, so this — not the eta
    /// count — is the per-solve cost the refactorization cadence must
    /// bound.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Continue an FTRAN: given `z` with `B_base z' = rhs` already
    /// applied, apply `E_1 … E_k` so that `z` solves the updated basis.
    pub fn ftran(&self, z: &mut [f64]) {
        for eta in &self.etas {
            // Solve E y = z:  y_r = z_r / w_r,  y_i = z_i − w_i y_r.
            let yr = z[eta.r] / eta.pivot;
            if yr != 0.0 {
                for &(i, w) in &eta.entries {
                    z[i] -= w * yr;
                }
            }
            z[eta.r] = yr;
        }
    }

    /// Start a BTRAN: apply the transposed etas in reverse order, after
    /// which the base factorization's BTRAN completes the solve.
    pub fn btran(&self, z: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            // Solve E' u = z:  u_i = z_i (i ≠ r),
            //                  u_r = (z_r − Σ_{i≠r} w_i z_i) / w_r.
            let mut v = z[eta.r];
            for &(i, w) in &eta.entries {
                v -= w * z[i];
            }
            z[eta.r] = v / eta.pivot;
        }
    }

    /// Record an eta from the spike `w` with pivot position `r`. The
    /// pattern is sorted so the stored entries come out in ascending
    /// index order, as a left-to-right sweep of the dense spike would
    /// store them, whatever order the caller built `w` in.
    pub fn push_sparse(&mut self, r: usize, w: &mut SparseVec) -> Result<(), LpError> {
        let pivot = w.values[r];
        if pivot.abs() < 1e-11 {
            return Err(LpError::SingularBasis);
        }
        w.sort_pattern();
        let entries: Vec<(usize, f64)> = w
            .pattern
            .iter()
            .map(|&i| (i, w.values[i]))
            .filter(|&(i, v)| i != r && v != 0.0)
            .collect();
        self.nnz += entries.len() + 1;
        self.etas.push(Eta { r, pivot, entries });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record an eta from a dense spike.
    fn push(file: &mut EtaFile, r: usize, w: &[f64]) -> Result<(), LpError> {
        let mut spike = SparseVec::new(w.len());
        spike.assign_dense(w);
        file.push_sparse(r, &mut spike)
    }

    #[test]
    fn single_eta_ftran_btran_are_inverses_of_e() {
        let mut file = EtaFile::new();
        let w = vec![0.5, 2.0, -1.0];
        push(&mut file, 1, &w).unwrap();

        // E = I with column 1 = w. Pick y, compute z = E y, check
        // ftran(z) == y (with base = identity).
        let y = vec![3.0, -2.0, 1.0];
        let z = vec![y[0] + w[0] * y[1], w[1] * y[1], y[2] + w[2] * y[1]];
        let mut out = z.clone();
        file.ftran(&mut out);
        for (a, b) in out.iter().zip(&y) {
            assert!((a - b).abs() < 1e-12, "{out:?}");
        }

        // E' u = c: pick u, compute c = E' u, check btran(c) == u.
        let u = vec![1.0, 4.0, -3.0];
        let c = vec![u[0], w[0] * u[0] + w[1] * u[1] + w[2] * u[2], u[2]];
        let mut out = c.clone();
        file.btran(&mut out);
        for (a, b) in out.iter().zip(&u) {
            assert!((a - b).abs() < 1e-12, "{out:?}");
        }
    }

    #[test]
    fn etas_compose_in_order() {
        let mut file = EtaFile::new();
        push(&mut file, 0, &[2.0, 0.0]).unwrap();
        push(&mut file, 1, &[1.0, 4.0]).unwrap();
        // B = E1 E2 with E1 = diag(2,1), E2 = [[1,1],[0,4]]
        // B = [[2,2],[0,4]]
        // Solve B z = [2, 4] -> z = [−0? ]: 2z0+2z1=2, 4z1=4 -> z1=1, z0=0.
        let mut z = vec![2.0, 4.0];
        file.ftran(&mut z);
        assert!((z[0] - 0.0).abs() < 1e-12 && (z[1] - 1.0).abs() < 1e-12, "{z:?}");
        // Solve B' y = [2, 6]: B' = [[2,0],[2,4]] -> y0 = 1, 2*1 + 4 y1 = 6 -> y1 = 1.
        let mut y = vec![2.0, 6.0];
        file.btran(&mut y);
        assert!((y[0] - 1.0).abs() < 1e-12 && (y[1] - 1.0).abs() < 1e-12, "{y:?}");
    }

    #[test]
    fn zero_pivot_rejected() {
        let mut file = EtaFile::new();
        assert!(matches!(push(&mut file, 0, &[0.0, 1.0]), Err(LpError::SingularBasis)));
        assert!(file.is_empty());
    }

    #[test]
    fn len_counts_updates() {
        let mut file = EtaFile::new();
        assert_eq!(file.len(), 0);
        push(&mut file, 0, &[1.0]).unwrap();
        push(&mut file, 0, &[2.0]).unwrap();
        assert_eq!(file.len(), 2);
    }
}
