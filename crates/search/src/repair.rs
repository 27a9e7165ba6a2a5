//! Exact repair: with two factors fixed, the third factor of a tensor
//! decomposition solves a *linear* least-squares problem. After ALS +
//! rounding, re-solving one factor exactly (then snapping and verifying)
//! turns a near-solution into an exact algorithm — and can also recover a
//! correct `W` from a hand-remembered `(U, V)` pair.

use crate::als::{khatri_rao, Factors};
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

/// Solve `U` from `(V, W)`.
pub(crate) fn solve_u(t: &MatMulTensor, v: &Mat, w: &Mat) -> Option<Mat> {
    let (da, db, dc) = t.mode_sizes();
    let z = khatri_rao(v, w); // row index b*dc + c
    let t1t = Mat::from_rows(da, db * dc, t.unfold_1()).t();
    let ut = ridge_lstsq(&z, &t1t, 1e-10)?;
    Some(ut.t())
}

/// Solve `V` from `(U, W)`.
pub(crate) fn solve_v(t: &MatMulTensor, u: &Mat, w: &Mat) -> Option<Mat> {
    let (da, db, dc) = t.mode_sizes();
    let z = khatri_rao(u, w); // row index a*dc + c
    let t2t = Mat::from_rows(db, da * dc, t.unfold_2()).t();
    let vt = ridge_lstsq(&z, &t2t, 1e-10)?;
    Some(vt.t())
}

/// Try to turn approximate factors into a verified algorithm:
/// normalize → snap `U`,`V` to the grid → exactly re-solve `W` → snap `W` →
/// verify the Brent equations. Returns the verified algorithm or `None`.
pub(crate) fn finalize(
    t: &MatMulTensor,
    factors: &Factors,
    name: &str,
    grid: &[f64],
) -> Option<FmmAlgorithm> {
    let mut f = factors.clone();
    rounding::normalize_columns(&mut f.u, &mut f.v, &mut f.w);
    rounding::snap_all(&mut f.u.data, grid);
    rounding::snap_all(&mut f.v.data, grid);
    let w = solve_w(t, &f.u, &f.v)?;
    let mut w = w;
    rounding::snap_all(&mut w.data, grid);
    to_algorithm(t, &f.u, &f.v, &w, name).ok()
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

/// Try every single-factor exact repair of a near-solution: `W` from
/// `(U,V)`, `U` from `(V,W)`, `V` from `(U,W)`, then the two-factor chains
/// `V→W` and `U→W`. Returns the first verified algorithm.
pub(crate) fn repair_any(
    t: &MatMulTensor,
    factors: &Factors,
    name: &str,
    grid: &[f64],
) -> Option<FmmAlgorithm> {
    let snap = |mut m: Mat| {
        rounding::snap_all(&mut m.data, grid);
        m
    };
    // Single-factor repairs.
    if let Some(w) = solve_w(t, &factors.u, &factors.v) {
        let w = snap(w);
        if let Ok(a) = to_algorithm(t, &factors.u, &factors.v, &w, name) {
            return Some(a);
        }
    }
    if let Some(u) = solve_u(t, &factors.v, &factors.w) {
        let u = snap(u);
        if let Ok(a) = to_algorithm(t, &u, &factors.v, &factors.w, name) {
            return Some(a);
        }
    }
    if let Some(v) = solve_v(t, &factors.u, &factors.w) {
        let v = snap(v);
        if let Ok(a) = to_algorithm(t, &factors.u, &v, &factors.w, name) {
            return Some(a);
        }
    }
    // Chained repairs: refresh one factor, then re-solve another.
    if let Some(v) = solve_v(t, &factors.u, &factors.w) {
        let v = snap(v);
        if let Some(w) = solve_w(t, &factors.u, &v) {
            let w = snap(w);
            if let Ok(a) = to_algorithm(t, &factors.u, &v, &w, name) {
                return Some(a);
            }
        }
    }
    if let Some(u) = solve_u(t, &factors.v, &factors.w) {
        let u = snap(u);
        if let Some(w) = solve_w(t, &u, &factors.v) {
            let w = snap(w);
            if let Ok(a) = to_algorithm(t, &u, &factors.v, &w, name) {
                return Some(a);
            }
        }
    }
    None
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
    fn solve_u_and_v_recover_strassen() {
        let (t, u_true, v_true, w) = strassen_mats();
        let mut u = solve_u(&t, &v_true, &w).unwrap();
        rounding::snap_all(&mut u.data, DEFAULT_GRID);
        assert_eq!(u.data, u_true.data);
        let mut v = solve_v(&t, &u_true, &w).unwrap();
        rounding::snap_all(&mut v.data, DEFAULT_GRID);
        assert_eq!(v.data, v_true.data);
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
    fn finalize_accepts_exact_factors_with_noise() {
        // Perturb Strassen's factors by small noise; finalize must recover.
        let (t, mut u, mut v, w) = strassen_mats();
        for (idx, x) in u.data.iter_mut().enumerate() {
            *x += 0.02 * ((idx % 5) as f64 - 2.0) / 2.0;
        }
        for (idx, x) in v.data.iter_mut().enumerate() {
            *x -= 0.015 * ((idx % 3) as f64 - 1.0);
        }
        let f = Factors { u, v, w };
        let algo = finalize(&t, &f, "recovered", DEFAULT_GRID).expect("finalize succeeds");
        assert_eq!(algo.rank(), 7);
    }
}
