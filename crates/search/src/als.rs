//! Alternating least squares on the matrix multiplication tensor.
//!
//! Each sweep solves three regularized linear least-squares problems: with
//! `V, W` fixed, the optimal `U` minimizes
//! `||T_(1) - U·(V ⊙ W)ᵀ||_F² + ridge·||U||²` (`⊙` = Khatri–Rao, columnwise
//! Kronecker), and cyclically for `V` and `W`. This is the workhorse
//! Benson–Ballard used to find the algorithm family the paper benchmarks.

use crate::linalg::{ridge_lstsq, Mat};
use crate::tensor::MatMulTensor;
use rand::rngs::StdRng;
use rand::Rng;

/// A (possibly approximate) rank-`r` factor triple; row-major factors.
#[derive(Clone, Debug)]
pub struct Factors {
    /// `(m̃k̃) x R`.
    pub u: Mat,
    /// `(k̃ñ) x R`.
    pub v: Mat,
    /// `(m̃ñ) x R`.
    pub w: Mat,
}

impl Factors {
    /// Random initialization with entries in `[-1, 1]`.
    pub fn random(t: &MatMulTensor, r: usize, rng: &mut StdRng) -> Self {
        let (da, db, dc) = t.mode_sizes();
        let mut gen = |rows: usize| {
            Mat::from_rows(rows, r, (0..rows * r).map(|_| rng.gen_range(-1.0..1.0)).collect())
        };
        Self { u: gen(da), v: gen(db), w: gen(dc) }
    }

    /// Rank of the decomposition.
    pub fn rank(&self) -> usize {
        self.u.cols
    }

    /// Squared Frobenius residual against `t`.
    pub fn residual_sq(&self, t: &MatMulTensor) -> f64 {
        t.residual_sq(&self.u.data, &self.v.data, &self.w.data, self.rank())
    }
}

/// Khatri–Rao product: column `r` of the result is `x[:,r] ⊗ y[:,r]`
/// (shape `(x.rows*y.rows) x R`).
pub fn khatri_rao(x: &Mat, y: &Mat) -> Mat {
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

/// ALS hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct AlsOptions {
    /// Ridge regularization added to every normal-equation solve.
    pub ridge: f64,
    /// Clamp factor entries to `[-limit, limit]` after each sweep
    /// (discourages the wild coefficients that never round to dyadics).
    pub clamp: f64,
}

impl Default for AlsOptions {
    fn default() -> Self {
        Self { ridge: 1e-4, clamp: 4.0 }
    }
}

/// One ALS sweep (update `U`, then `V`, then `W`) in place.
/// Returns `false` if a solve failed (singular Gram matrix).
pub fn sweep(t: &MatMulTensor, f: &mut Factors, opts: &AlsOptions) -> bool {
    sweep_discrete(t, f, opts, 0.0, &[])
}

/// One quantization-regularized sweep: each factor update carries a
/// proximal pull of weight `mu` toward the entrywise snap of the current
/// factor onto `grid` (no pull when `mu == 0`).
pub fn sweep_discrete(
    t: &MatMulTensor,
    f: &mut Factors,
    opts: &AlsOptions,
    mu: f64,
    grid: &[f64],
) -> bool {
    let (da, db, dc) = t.mode_sizes();
    let solve = |z: &Mat, rhs: &Mat, cur: &Mat| -> Option<Mat> {
        if mu > 0.0 {
            let mut prior = cur.t();
            crate::rounding::snap_all(&mut prior.data, grid);
            crate::linalg::ridge_lstsq_with_prior(z, rhs, opts.ridge, mu, &prior)
        } else {
            ridge_lstsq(z, rhs, opts.ridge)
        }
    };
    // Mode 1: rows of T1 are indexed by a; columns by (b, c).
    // T1ᵀ has shape (db*dc) x da; Z = V ⊙ W matches its rows.
    let t1t = transpose_unfold(&t.unfold_1(), da, db * dc);
    let z1 = khatri_rao(&f.v, &f.w);
    let Some(u_new) = solve(&z1, &t1t, &f.u) else { return false };
    f.u = clamp(u_new.t(), opts.clamp);

    let t2t = transpose_unfold(&t.unfold_2(), db, da * dc);
    let z2 = khatri_rao(&f.u, &f.w);
    let Some(v_new) = solve(&z2, &t2t, &f.v) else { return false };
    f.v = clamp(v_new.t(), opts.clamp);

    let t3t = transpose_unfold(&t.unfold_3(), dc, da * db);
    let z3 = khatri_rao(&f.u, &f.v);
    let Some(w_new) = solve(&z3, &t3t, &f.w) else { return false };
    f.w = clamp(w_new.t(), opts.clamp);
    true
}

/// Largest distance of any factor entry to the grid — 0 when the triple is
/// fully discrete.
pub fn discreteness(f: &Factors, grid: &[f64]) -> f64 {
    let mut worst = 0.0_f64;
    for m in [&f.u, &f.v, &f.w] {
        for &x in &m.data {
            worst = worst.max((x - crate::rounding::snap(x, grid)).abs());
        }
    }
    worst
}

/// Run up to `max_sweeps` sweeps, stopping early below `target_residual`.
/// Returns the final squared residual.
pub fn run(
    t: &MatMulTensor,
    f: &mut Factors,
    opts: &AlsOptions,
    max_sweeps: usize,
    target_residual: f64,
) -> f64 {
    let mut res = f.residual_sq(t);
    for _ in 0..max_sweeps {
        if res <= target_residual {
            break;
        }
        if !sweep(t, f, opts) {
            break;
        }
        res = f.residual_sq(t);
    }
    res
}

fn transpose_unfold(unfolded: &[f64], rows: usize, cols: usize) -> Mat {
    let m = Mat::from_rows(rows, cols, unfolded.to_vec());
    m.t()
}

fn clamp(mut m: Mat, limit: f64) -> Mat {
    for x in &mut m.data {
        *x = x.clamp(-limit, limit);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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

    #[test]
    fn als_at_full_rank_converges_fast() {
        // <2,2,2> at rank 8 (classical rank): ALS must reach a residual on
        // the order of the ridge floor.
        let t = MatMulTensor::new(2, 2, 2);
        let mut f = Factors::random(&t, 8, &mut StdRng::seed_from_u64(42));
        let res = run(&t, &mut f, &AlsOptions { ridge: 1e-7, clamp: 8.0 }, 200, 1e-8);
        assert!(res < 1e-3, "residual {res}");
    }

    #[test]
    fn als_monotonically_decreases_residual_mostly() {
        let t = MatMulTensor::new(2, 2, 2);
        let mut f = Factors::random(&t, 7, &mut StdRng::seed_from_u64(7));
        let opts = AlsOptions::default();
        let r0 = f.residual_sq(&t);
        sweep(&t, &mut f, &opts);
        let r1 = f.residual_sq(&t);
        assert!(r1 < r0, "first sweep must improve: {r0} -> {r1}");
    }

    #[test]
    fn exact_factors_stay_fixed() {
        // Feed Strassen's exact factors: residual 0 and a sweep keeps it ~0.
        let t = MatMulTensor::new(2, 2, 2);
        let s = fmm_core::registry::strassen();
        let conv = |m: &fmm_core::CoeffMatrix| {
            let mut data = Vec::new();
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    data.push(m.at(i, j));
                }
            }
            Mat::from_rows(m.rows(), m.cols(), data)
        };
        let mut f = Factors { u: conv(s.u()), v: conv(s.v()), w: conv(s.w()) };
        assert_eq!(f.residual_sq(&t), 0.0);
        sweep(&t, &mut f, &AlsOptions { ridge: 1e-10, clamp: 4.0 });
        assert!(f.residual_sq(&t) < 1e-12);
    }
}
