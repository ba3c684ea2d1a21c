//! Dense linear-algebra kernels.
//!
//! Used by the dense reference simplex and by tests that cross-check the
//! sparse LU. Matrices are row-major `Vec<Vec<f64>>` — clarity over
//! speed; nothing here sits on the solver hot path.

/// Dense LU factorization with partial pivoting, `P A = L U`.
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    /// Combined `L\U` storage, row-major; `L` has an implicit unit
    /// diagonal.
    lu: Vec<Vec<f64>>,
    /// `perm[k]` = original row index that acts as the k-th pivot row.
    perm: Vec<usize>,
}

impl DenseLu {
    /// Factor a square matrix. Returns `None` when (numerically)
    /// singular.
    pub fn factor(a: &[Vec<f64>]) -> Option<DenseLu> {
        let n = a.len();
        let mut lu: Vec<Vec<f64>> = a.to_vec();
        for row in &lu {
            assert_eq!(row.len(), n, "matrix must be square");
        }
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // partial pivoting on column k
            let (mut best, mut best_val) = (k, lu[perm[k]][k].abs());
            for (i, &p) in perm.iter().enumerate().skip(k + 1) {
                let v = lu[p][k].abs();
                if v > best_val {
                    best = i;
                    best_val = v;
                }
            }
            if best_val < 1e-12 {
                return None;
            }
            perm.swap(k, best);
            let pk = perm[k];
            let pivot = lu[pk][k];
            // take the pivot row out so eliminated rows can borrow it
            let pivot_row = std::mem::take(&mut lu[pk]);
            for &pi in perm.iter().skip(k + 1) {
                let factor = lu[pi][k] / pivot;
                if factor != 0.0 {
                    for (dst, &src) in lu[pi][k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                        *dst -= factor * src;
                    }
                }
                lu[pi][k] = factor;
            }
            lu[pk] = pivot_row;
        }
        Some(DenseLu { n, lu, perm })
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        // forward: L y = P b
        let mut y = vec![0.0; self.n];
        for k in 0..self.n {
            let row = &self.lu[self.perm[k]];
            let s: f64 = row[..k].iter().zip(&y[..k]).map(|(&l, &yj)| l * yj).sum();
            y[k] = b[self.perm[k]] - s;
        }
        // backward: U x = y
        let mut x = vec![0.0; self.n];
        for k in (0..self.n).rev() {
            let row = &self.lu[self.perm[k]];
            let s: f64 = row[k + 1..].iter().zip(&x[k + 1..]).map(|(&u, &xj)| u * xj).sum();
            x[k] = (y[k] - s) / row[k];
        }
        x
    }

    /// Solve `A' x = b`.
    pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        // A' = U' L' P: first U' y = b (forward), then L' z = y
        // (backward), then x = P' z.
        let mut y = vec![0.0; self.n];
        for k in 0..self.n {
            let s: f64 = self.perm.iter().zip(&y[..k]).map(|(&pj, &yj)| self.lu[pj][k] * yj).sum();
            y[k] = (b[k] - s) / self.lu[self.perm[k]][k];
        }
        let mut z = vec![0.0; self.n];
        for k in (0..self.n).rev() {
            let s: f64 =
                self.perm.iter().zip(&z).skip(k + 1).map(|(&pj, &zj)| self.lu[pj][k] * zj).sum();
            z[k] = y[k] - s;
        }
        let mut x = vec![0.0; self.n];
        for k in 0..self.n {
            x[self.perm[k]] = z[k];
        }
        x
    }
}

/// Dense matrix–vector product.
pub fn matvec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    a.iter()
        .map(|row| {
            assert_eq!(row.len(), x.len(), "dimension mismatch");
            row.iter().zip(x).map(|(&r, &v)| r * v).sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<f64>> {
        vec![vec![2.0, 1.0, 1.0], vec![4.0, -6.0, 0.0], vec![-2.0, 7.0, 2.0]]
    }

    #[test]
    fn solve_recovers_solution() {
        let a = sample();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = matvec(&a, &x_true);
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn solve_transpose_recovers_solution() {
        let a = sample();
        let x_true = vec![0.5, 2.0, -1.0];
        // b = A' x
        let at: Vec<Vec<f64>> = (0..3).map(|i| (0..3).map(|j| a[j][i]).collect()).collect();
        let b = matvec(&at, &x_true);
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve_transpose(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(DenseLu::factor(&a).is_none());
    }

    #[test]
    fn identity_solves_trivially() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let lu = DenseLu::factor(&a).unwrap();
        assert_eq!(lu.solve(&[3.0, 4.0]), vec![3.0, 4.0]);
        assert_eq!(lu.solve_transpose(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let lu = DenseLu::factor(&a).unwrap();
        let x = lu.solve(&[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }
}
