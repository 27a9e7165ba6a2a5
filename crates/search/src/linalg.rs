//! Minimal dense linear algebra for repair's least-squares solve: row-major
//! matrices, Cholesky factorization of SPD systems, and regularized least
//! squares via normal equations. Sizes here are tiny (tens of
//! rows/columns), so clarity beats asymptotics.
//!
//! Index-style loops are kept deliberately (they mirror the textbook
//! formulas), hence the lint allowance.
#![allow(clippy::needless_range_loop)]

/// Row-major dense matrix of `f64` (no dyadic restriction, unlike
/// `fmm_core::CoeffMatrix`).
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major entries.
    pub data: Vec<f64>,
}

impl Mat {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// From row-major data.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    /// Entry accessor.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// `self * other`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul dims");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for p in 0..self.cols {
                let a = self.at(i, p);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.at(p, j);
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn t(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.at(i, j));
            }
        }
        out
    }

    /// Gram matrix `selfᵀ·self` (`cols x cols`, symmetric).
    pub fn gram(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.cols);
        for p in 0..self.rows {
            let row = &self.data[p * self.cols..(p + 1) * self.cols];
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    out.data[i * self.cols + j] += ri * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                out.data[i * self.cols + j] = out.data[j * self.cols + i];
            }
        }
        out
    }
}

/// Cholesky factorization of an SPD matrix (in place lower factor).
/// Returns `None` if the matrix is not positive definite.
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Factor `a` (must be square, symmetric, positive definite).
    pub fn new(a: &Mat) -> Option<Self> {
        assert_eq!(a.rows, a.cols, "Cholesky needs a square matrix");
        let n = a.rows;
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.at(i, j);
                for p in 0..j {
                    sum -= l.at(i, p) * l.at(j, p);
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.at(j, j));
                }
            }
        }
        Some(Self { l })
    }

    /// Solve `A x = b` for one right-hand side (length `n`).
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows;
        assert_eq!(b.len(), n);
        // Forward: L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for p in 0..i {
                y[i] -= self.l.at(i, p) * y[p];
            }
            y[i] /= self.l.at(i, i);
        }
        // Backward: Lᵀ x = y.
        let mut x = y;
        for i in (0..n).rev() {
            for p in i + 1..n {
                x[i] -= self.l.at(p, i) * x[p];
            }
            x[i] /= self.l.at(i, i);
        }
        x
    }

    /// Solve `A X = B` column-by-column (`B` is `n x m`).
    pub fn solve_mat(&self, b: &Mat) -> Mat {
        assert_eq!(b.rows, self.l.rows);
        let mut out = Mat::zeros(b.rows, b.cols);
        let mut col = vec![0.0; b.rows];
        for j in 0..b.cols {
            for i in 0..b.rows {
                col[i] = b.at(i, j);
            }
            let x = self.solve_vec(&col);
            for i in 0..b.rows {
                out.set(i, j, x[i]);
            }
        }
        out
    }
}

/// Regularized least squares: minimize `||Z x - y||² + ridge·||x||²` for
/// every column `y` of `rhs`, i.e. solve `(ZᵀZ + ridge·I) X = Zᵀ·rhs`.
///
/// Returns `X` with shape `(z.cols, rhs.cols)`.
pub fn ridge_lstsq(z: &Mat, rhs: &Mat, ridge: f64) -> Option<Mat> {
    assert_eq!(z.rows, rhs.rows, "ridge_lstsq: row mismatch");
    let mut gram = z.gram();
    for i in 0..gram.rows {
        gram.data[i * gram.cols + i] += ridge;
    }
    let chol = Cholesky::new(&gram)?;
    let zty = z.t().matmul(rhs);
    Some(chol.solve_mat(&zty))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_and_transpose() {
        let a = Mat::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_rows(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
        assert_eq!(a.t().at(2, 1), 6.0);
    }

    #[test]
    fn gram_is_xtx() {
        let a = Mat::from_rows(3, 2, vec![1.0, 2.0, 0.0, 1.0, -1.0, 0.5]);
        let g = a.gram();
        let expect = a.t().matmul(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g.at(i, j) - expect.at(i, j)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = Mᵀ M + I is SPD.
        let m = Mat::from_rows(3, 3, vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let mut a = m.gram();
        for i in 0..3 {
            a.data[i * 3 + i] += 1.0;
        }
        let chol = Cholesky::new(&a).unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let mut b = [0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                b[i] += a.at(i, j) * x_true[j];
            }
        }
        let x = chol.solve_vec(&b);
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(Cholesky::new(&a).is_none());
    }

    #[test]
    fn ridge_lstsq_recovers_exact_solution() {
        // Overdetermined consistent system.
        let z = Mat::from_rows(4, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, -1.0]);
        let x_true = Mat::from_rows(2, 1, vec![3.0, -1.0]);
        let rhs = z.matmul(&x_true);
        let x = ridge_lstsq(&z, &rhs, 1e-12).unwrap();
        assert!((x.at(0, 0) - 3.0).abs() < 1e-6);
        assert!((x.at(1, 0) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn ridge_shrinks_toward_zero() {
        let z = Mat::from_rows(2, 1, vec![1.0, 1.0]);
        let rhs = Mat::from_rows(2, 1, vec![1.0, 1.0]);
        let x_small = ridge_lstsq(&z, &rhs, 1e-9).unwrap().at(0, 0);
        let x_big = ridge_lstsq(&z, &rhs, 10.0).unwrap().at(0, 0);
        assert!(x_small > 0.99);
        assert!(x_big < 0.2);
    }
}
