//! Operation counts for plans — the inputs to the performance model
//! (paper Fig. 5's `nnz(⊗U)`, `nnz(⊗V)`, `nnz(⊗W)`, `R_L` quantities).

use crate::plan::FmmPlan;

/// Static counts of an L-level plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanCounts {
    /// `R_L = ∏ R_l` — number of block products.
    pub r: usize,
    /// `nnz(⊗U)`.
    pub nnz_u: usize,
    /// `nnz(⊗V)`.
    pub nnz_v: usize,
    /// `nnz(⊗W)`.
    pub nnz_w: usize,
    /// `M̃_L = ∏ m̃_l`.
    pub mt: usize,
    /// `K̃_L = ∏ k̃_l`.
    pub kt: usize,
    /// `Ñ_L = ∏ ñ_l`.
    pub nt: usize,
}

impl PlanCounts {
    /// The counts a plan stores from construction; reads no coefficient.
    pub fn of(plan: &FmmPlan) -> Self {
        let (mt, kt, nt) = plan.partition_dims();
        let (nnz_u, nnz_v, nnz_w) = plan.nnz();
        Self { r: plan.rank(), nnz_u, nnz_v, nnz_w, mt, kt, nt }
    }

    /// Block-level additions on the A side: `nnz(⊗U) - R_L`
    /// (each product with `q` non-zero U entries costs `q - 1` additions).
    pub fn a_additions(&self) -> usize {
        self.nnz_u - self.r
    }

    /// Block-level additions on the B side: `nnz(⊗V) - R_L`.
    pub fn b_additions(&self) -> usize {
        self.nnz_v - self.r
    }

    /// Block-level updates of `C`: `nnz(⊗W)`.
    pub fn c_updates(&self) -> usize {
        self.nnz_w
    }
}

/// Classical flop count `2·m·n·k` — the numerator of "Effective GFLOPS"
/// (paper Fig. 5, eq. 1): FMM implementations are *credited* with the
/// classical count so that speedups show up as GFLOPS above the machine
/// peak.
pub fn classical_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// Effective GFLOPS: `2·m·n·k / time / 1e9`.
pub fn effective_gflops(m: usize, k: usize, n: usize, seconds: f64) -> f64 {
    classical_flops(m, k, n) / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::strassen;

    #[test]
    fn strassen_counts() {
        let plan = FmmPlan::new(vec![strassen()]);
        let c = PlanCounts::of(&plan);
        assert_eq!(c.r, 7);
        assert_eq!(c.nnz_u, 12);
        assert_eq!(c.nnz_v, 12);
        assert_eq!(c.nnz_w, 12);
        assert_eq!(c.a_additions(), 5); // the 5 A-side additions of eq. (2)
        assert_eq!(c.b_additions(), 5);
        assert_eq!(c.c_updates(), 12); // 12 C updates in eq. (2)
        assert_eq!((c.mt, c.kt, c.nt), (2, 2, 2));
    }

    #[test]
    fn two_level_counts_square() {
        let plan = FmmPlan::uniform(strassen(), 2);
        let c = PlanCounts::of(&plan);
        assert_eq!(c.r, 49);
        assert_eq!(c.nnz_u, 144); // 12^2
        assert_eq!(c.nnz_w, 144);
        assert_eq!((c.mt, c.kt, c.nt), (4, 4, 4));
    }

    #[test]
    fn effective_gflops_scales() {
        let g = effective_gflops(1000, 1000, 1000, 1.0);
        assert!((g - 2.0).abs() < 1e-12);
        let g2 = effective_gflops(1000, 1000, 1000, 0.5);
        assert!((g2 - 4.0).abs() < 1e-12);
    }
}
