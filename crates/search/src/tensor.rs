//! The `<m̃, k̃, ñ>` matrix multiplication tensor.

/// Dense order-3 tensor `T[a, b, c]` with mode sizes
/// `(m̃k̃, k̃ñ, m̃ñ)`, where `T[(i,κ), (κ',j), (i',j')] = δ_{κκ'}δ_{ii'}δ_{jj'}`
/// — the target of the rank decomposition (a rank-R decomposition *is* a
/// `[[U,V,W]]` algorithm).
#[derive(Clone, Debug, PartialEq)]
pub struct MatMulTensor {
    mt: usize,
    kt: usize,
    nt: usize,
    /// Dense entries, index `(a * dim_b + b) * dim_c + c`.
    data: Vec<f64>,
}

impl MatMulTensor {
    /// Build the tensor for partition dims `(m̃, k̃, ñ)`.
    pub fn new(mt: usize, kt: usize, nt: usize) -> Self {
        assert!(mt >= 1 && kt >= 1 && nt >= 1);
        let (da, db, dc) = (mt * kt, kt * nt, mt * nt);
        let mut data = vec![0.0; da * db * dc];
        for i in 0..mt {
            for ka in 0..kt {
                for j in 0..nt {
                    let a = i * kt + ka;
                    let b = ka * nt + j;
                    let c = i * nt + j;
                    data[(a * db + b) * dc + c] = 1.0;
                }
            }
        }
        Self { mt, kt, nt, data }
    }

    /// Partition dims.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.mt, self.kt, self.nt)
    }

    /// Mode sizes `(m̃k̃, k̃ñ, m̃ñ)`.
    pub fn mode_sizes(&self) -> (usize, usize, usize) {
        (self.mt * self.kt, self.kt * self.nt, self.mt * self.nt)
    }

    /// The residual `T - Σ_r u_r ⊗ v_r ⊗ w_r` of a rank-R factor triple
    /// (`U: da x R`, `V: db x R`, `W: dc x R`, all row-major), entry
    /// `(a * db + b) * dc + c`. Exact for factors of small integers.
    pub fn residual(&self, u: &[f64], v: &[f64], w: &[f64], r: usize) -> Vec<f64> {
        let (da, db, dc) = self.mode_sizes();
        assert_eq!(u.len(), da * r);
        assert_eq!(v.len(), db * r);
        assert_eq!(w.len(), dc * r);
        let mut out = self.data.clone();
        for (idx, x) in out.iter_mut().enumerate() {
            let (a, b, c) = (idx / (db * dc), idx / dc % db, idx % dc);
            for rr in 0..r {
                *x -= u[a * r + rr] * v[b * r + rr] * w[c * r + rr];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_has_mkn_ones() {
        let nnz = |t: MatMulTensor| t.data.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nnz(MatMulTensor::new(2, 2, 2)), 8);
        assert_eq!(nnz(MatMulTensor::new(3, 3, 3)), 27);
    }

    #[test]
    fn entries_follow_delta_pattern() {
        let t = MatMulTensor::new(2, 3, 2);
        // Mode sizes (6, 6, 4).
        let at = |a: usize, b: usize, c: usize| t.data[(a * 6 + b) * 4 + c];
        // (i,κ)=(1,2) -> a = 1*3+2 = 5; (κ,j)=(2,1) -> b = 2*2+1 = 5;
        // (i,j)=(1,1) -> c = 1*2+1 = 3.
        assert_eq!(at(5, 5, 3), 1.0);
        // Mismatched κ: (κ',j)=(1,1) -> b = 3.
        assert_eq!(at(5, 3, 3), 0.0);
    }

    #[test]
    fn residual_of_exact_decomposition_is_zero() {
        // Classical <1,1,1>: u=v=w=[1].
        let t = MatMulTensor::new(1, 1, 1);
        assert_eq!(t.residual(&[1.0], &[1.0], &[1.0], 1), vec![0.0]);
        // Strassen as factors: residual must be exactly 0.
        let s = fmm_core::registry::strassen();
        let t222 = MatMulTensor::new(2, 2, 2);
        let to_row_major = |m: &fmm_core::CoeffMatrix| -> Vec<f64> {
            let mut out = Vec::with_capacity(m.rows() * m.cols());
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    out.push(m.at(i, j));
                }
            }
            out
        };
        let res =
            t222.residual(&to_row_major(s.u()), &to_row_major(s.v()), &to_row_major(s.w()), 7);
        assert!(res.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn residual_detects_wrong_factors() {
        let t = MatMulTensor::new(1, 1, 1);
        assert_eq!(t.residual(&[0.5], &[1.0], &[1.0], 1), vec![0.5]);
    }
}
