//! Exact repair: with `U` and `V` fixed, the `W` of a tensor decomposition
//! solves a *linear* least-squares problem. Solving it exactly, then
//! snapping and verifying, recovers a correct `W` from a hand-remembered
//! `(U, V)` pair.

use crate::linalg::{ridge_lstsq, Mat};
use crate::rounding::{self, DEFAULT_GRID};
use crate::tensor::MatMulTensor;
use fmm_core::{CoeffMatrix, FmmAlgorithm};

/// Solve `W` from `(U, V)`: minimize `||T_(3)ᵀ - (U ⊙ V)·Wᵀ||`.
/// Returns `None` if the system is too ill-conditioned to solve.
pub(crate) fn solve_w(t: &MatMulTensor, u: &Mat, v: &Mat) -> Option<Mat> {
    let (da, db, dc) = t.mode_sizes();
    let z = khatri_rao(u, v); // (da*db) x R, row index a*db + b
    let t3t = Mat::from_rows(dc, da * db, t.unfold_3()).t();
    let wt = ridge_lstsq(&z, &t3t, 1e-10)?;
    Some(wt.t())
}

/// Convert raw factor matrices into a Brent-verified [`FmmAlgorithm`].
pub(crate) fn to_algorithm(
    t: &MatMulTensor,
    u: &Mat,
    v: &Mat,
    w: &Mat,
    name: &str,
) -> Result<FmmAlgorithm, String> {
    let dims = t.dims();
    let conv = |m: &Mat| -> Result<CoeffMatrix, String> {
        for &x in &m.data {
            if !fmm_core::coeffs::is_dyadic(x) {
                return Err(format!("non-dyadic coefficient {x}"));
            }
        }
        Ok(CoeffMatrix::from_rows(m.rows, m.cols, m.data.clone()))
    };
    FmmAlgorithm::new(name, dims, conv(u)?, conv(v)?, conv(w)?)
}

/// Repair a hand-remembered algorithm guess: keep its `(U, V)`, re-solve
/// `W` exactly, snap, verify.
pub(crate) fn repair_w(guess: &FmmAlgorithm, grid: &[f64]) -> Option<FmmAlgorithm> {
    let (mt, kt, nt) = guess.dims();
    let t = MatMulTensor::new(mt, kt, nt);
    let conv = |m: &CoeffMatrix| {
        let mut data = Vec::with_capacity(m.rows() * m.cols());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                data.push(m.at(i, j));
            }
        }
        Mat::from_rows(m.rows(), m.cols(), data)
    };
    let u = conv(guess.u());
    let v = conv(guess.v());
    let mut w = solve_w(&t, &u, &v)?;
    rounding::snap_all(&mut w.data, grid);
    to_algorithm(&t, &u, &v, &w, &format!("repaired({})", guess.name())).ok()
}

/// Convenience: repair with the default grid.
pub fn repair_w_default(guess: &FmmAlgorithm) -> Option<FmmAlgorithm> {
    repair_w(guess, DEFAULT_GRID)
}

/// Khatri–Rao product: column `r` of the result is `x[:,r] ⊗ y[:,r]`
/// (shape `(x.rows*y.rows) x R`).
fn khatri_rao(x: &Mat, y: &Mat) -> Mat {
    assert_eq!(x.cols, y.cols, "khatri_rao: rank mismatch");
    let r = x.cols;
    let mut out = Mat::zeros(x.rows * y.rows, r);
    for i in 0..x.rows {
        for j in 0..y.rows {
            let row = i * y.rows + j;
            for rr in 0..r {
                out.data[row * r + rr] = x.at(i, rr) * y.at(j, rr);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::registry::strassen;

    fn strassen_mats() -> (MatMulTensor, Mat, Mat, Mat) {
        let s = strassen();
        let conv = |m: &CoeffMatrix| {
            let mut data = Vec::new();
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    data.push(m.at(i, j));
                }
            }
            Mat::from_rows(m.rows(), m.cols(), data)
        };
        (MatMulTensor::new(2, 2, 2), conv(s.u()), conv(s.v()), conv(s.w()))
    }

    #[test]
    fn solve_w_recovers_strassens_w() {
        let (t, u, v, w_true) = strassen_mats();
        let mut w = solve_w(&t, &u, &v).unwrap();
        rounding::snap_all(&mut w.data, DEFAULT_GRID);
        assert_eq!(w.data, w_true.data);
    }

    #[test]
    fn repair_w_fixes_a_corrupted_w() {
        // Corrupt several W entries; (U, V) still determine W uniquely.
        let s = strassen();
        let mut w = s.w().clone();
        w.set(0, 0, 0.0);
        w.set(3, 4, 1.0);
        w.set(2, 1, -1.0);
        let broken =
            FmmAlgorithm::new_unchecked("broken", (2, 2, 2), s.u().clone(), s.v().clone(), w);
        assert!(fmm_core::brent::verify(&broken).is_err());
        let fixed = repair_w_default(&broken).expect("repair succeeds");
        assert_eq!(fixed.rank(), 7);
        assert_eq!(fixed.dims(), (2, 2, 2));
        // Repaired W is Strassen's W again.
        for i in 0..4 {
            for j in 0..7 {
                assert_eq!(fixed.w().at(i, j), s.w().at(i, j));
            }
        }
    }

    #[test]
    fn repair_cannot_fix_a_rank_deficient_uv() {
        // Zero out a whole U column: only 6 effective products remain, and
        // rank-6 <2,2,2> decompositions do not exist, so repair must fail.
        let s = strassen();
        let mut u = s.u().clone();
        for i in 0..4 {
            u.set(i, 0, 0.0);
        }
        let broken =
            FmmAlgorithm::new_unchecked("broken", (2, 2, 2), u, s.v().clone(), s.w().clone());
        assert!(repair_w_default(&broken).is_none());
    }

    #[test]
    fn khatri_rao_columns_are_kron() {
        let x = Mat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = Mat::from_rows(3, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 2.0]);
        let z = khatri_rao(&x, &y);
        assert_eq!(z.rows, 6);
        // Column 0: x[:,0] ⊗ y[:,0] = [1,0,2, 3,0,6].
        let col0: Vec<f64> = (0..6).map(|i| z.at(i, 0)).collect();
        assert_eq!(col0, vec![1.0, 0.0, 2.0, 3.0, 0.0, 6.0]);
    }
}
