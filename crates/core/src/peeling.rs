//! Dynamic peeling for problem sizes not divisible by the partition dims
//! (paper §4.1, citing Thottethodi et al. \[16\]).
//!
//! For `C(m x n) += A(m x k) · B(k x n)` under aggregate partition dims
//! `(M̃, K̃, Ñ)`, the problem splits into a *core* of dimensions
//! `(⌊m/M̃⌋·M̃, ⌊k/K̃⌋·K̃, ⌊n/Ñ⌋·Ñ)` handled by FMM plus at most three
//! *rim* GEMM calls covering the fringes — no padding, no extra workspace:
//!
//! ```text
//! C[0..m', 0..n']  += A[0..m', 0..k'] B[0..k', 0..n']   (core: FMM)
//! C[0..m', 0..n']  += A[0..m', k'..k] B[k'..k, 0..n']   (rim: k-fringe)
//! C[0..m', n'..n]  += A[0..m', 0..k]  B[0..k,  n'..n]   (rim: n-fringe)
//! C[m'..m, 0..n]   += A[m'..m, 0..k]  B[0..k,  0..n]    (rim: m-fringe)
//! ```

/// A rectangular region of the three operands for one rim GEMM call:
/// `C[c_rows, c_cols] += A[c_rows, k_range] · B[k_range, c_cols]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RimCall {
    /// Row range of `C` (and of `A`).
    pub rows: std::ops::Range<usize>,
    /// Column range of `C` (and of `B`).
    pub cols: std::ops::Range<usize>,
    /// Inner (`k`) range of `A`'s columns and `B`'s rows.
    pub inner: std::ops::Range<usize>,
}

/// The decomposition produced by [`peel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeelPlan {
    /// Core dimensions `(m', k', n')`, each a multiple of the aggregate
    /// partition dims. Any may be zero (then the core is skipped).
    pub core: (usize, usize, usize),
    /// Rim GEMM calls, in execution order.
    pub rims: Vec<RimCall>,
}

impl PeelPlan {
    /// True if the whole problem is handled by the FMM core.
    pub fn is_exact(&self) -> bool {
        self.rims.is_empty()
    }

    /// Total scalar multiply-adds delegated to rim GEMMs.
    pub fn rim_flops(&self) -> usize {
        self.rims.iter().map(|r| r.rows.len() * r.cols.len() * r.inner.len()).sum()
    }
}

/// Compute the peeling decomposition of `(m, k, n)` for aggregate partition
/// dims `(mt, kt, nt)`.
pub fn peel(m: usize, k: usize, n: usize, (mt, kt, nt): (usize, usize, usize)) -> PeelPlan {
    assert!(mt >= 1 && kt >= 1 && nt >= 1, "partition dims must be positive");
    let mc = (m / mt) * mt;
    let kc = (k / kt) * kt;
    let nc = (n / nt) * nt;
    let mut rims = Vec::new();
    // k-fringe: completes the core rows/cols to full depth k.
    if kc < k && mc > 0 && nc > 0 {
        rims.push(RimCall { rows: 0..mc, cols: 0..nc, inner: kc..k });
    }
    // n-fringe: remaining columns, full depth.
    if nc < n && mc > 0 {
        rims.push(RimCall { rows: 0..mc, cols: nc..n, inner: 0..k });
    }
    // m-fringe: remaining rows, full width and depth.
    if mc < m {
        rims.push(RimCall { rows: mc..m, cols: 0..n, inner: 0..k });
    }
    PeelPlan { core: (mc, kc, nc), rims }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verify the core + rims tile the full iteration space
    /// `{(i, j, p) : i < m, j < n, p < k}` exactly once.
    fn assert_exact_cover(m: usize, k: usize, n: usize, dims: (usize, usize, usize)) {
        let plan = peel(m, k, n, dims);
        let mut count = vec![0u8; m * k * n];
        let (mc, kc, nc) = plan.core;
        for i in 0..mc {
            for j in 0..nc {
                for p in 0..kc {
                    count[(i * n + j) * k + p] += 1;
                }
            }
        }
        for rim in &plan.rims {
            for i in rim.rows.clone() {
                for j in rim.cols.clone() {
                    for p in rim.inner.clone() {
                        count[(i * n + j) * k + p] += 1;
                    }
                }
            }
        }
        assert!(
            count.iter().all(|&c| c == 1),
            "m={m} k={k} n={n} dims={dims:?}: cover counts {:?}",
            count.iter().filter(|&&c| c != 1).count()
        );
    }

    #[test]
    fn divisible_sizes_need_no_rims() {
        let plan = peel(8, 8, 8, (2, 2, 2));
        assert!(plan.is_exact());
        assert_eq!(plan.core, (8, 8, 8));
        assert_eq!(plan.rim_flops(), 0);
    }

    #[test]
    fn single_fringe_each_dimension() {
        let p_k = peel(4, 5, 4, (2, 2, 2));
        assert_eq!(p_k.core, (4, 4, 4));
        assert_eq!(p_k.rims.len(), 1);
        assert_eq!(p_k.rims[0].inner, 4..5);

        let p_n = peel(4, 4, 5, (2, 2, 2));
        assert_eq!(p_n.rims.len(), 1);
        assert_eq!(p_n.rims[0].cols, 4..5);

        let p_m = peel(5, 4, 4, (2, 2, 2));
        assert_eq!(p_m.rims.len(), 1);
        assert_eq!(p_m.rims[0].rows, 4..5);
    }

    #[test]
    fn all_fringes_cover_exactly() {
        for (m, k, n) in [(5, 5, 5), (7, 9, 11), (6, 5, 4), (2, 3, 2), (13, 13, 13)] {
            assert_exact_cover(m, k, n, (2, 2, 2));
            assert_exact_cover(m, k, n, (2, 3, 2));
            assert_exact_cover(m, k, n, (3, 2, 4));
        }
    }

    #[test]
    fn too_small_problem_is_all_rim() {
        // m < mt: core is empty, one rim covers everything.
        let plan = peel(1, 8, 8, (2, 2, 2));
        assert_eq!(plan.core.0, 0);
        assert_eq!(plan.rims.len(), 1);
        assert_eq!(plan.rims[0].rows, 0..1);
        assert_eq!(plan.rim_flops(), 64);
        assert_exact_cover(1, 8, 8, (2, 2, 2));
    }

    #[test]
    fn zero_dims_produce_empty_plans() {
        let plan = peel(0, 4, 4, (2, 2, 2));
        assert_eq!(plan.core, (0, 4, 4));
        assert!(plan.rims.is_empty());
    }

    #[test]
    fn rim_flops_accounts_fringe_volume() {
        let plan = peel(5, 4, 4, (2, 2, 2));
        // m-fringe: 1 row x 4 cols x 4 depth.
        assert_eq!(plan.rim_flops(), 16);
    }
}
