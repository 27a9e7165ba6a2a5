//! The generated performance model for FMM implementations (paper §4.2,
//! Figures 4 and 5).
//!
//! The model predicts total execution time `T = Ta + Tm` from:
//!
//! * architecture parameters `τ_a` (seconds per flop), `τ_b` (seconds per
//!   8-byte word moved from DRAM), and the prefetch efficiency `λ`
//!   ([`arch::ArchParams`]);
//! * the plan's static counts `R_L`, `nnz(⊗U)`, `nnz(⊗V)`, `nnz(⊗W)` and
//!   aggregate partition dims ([`fmm_core::counts::PlanCounts`]);
//! * the problem size `(m, k, n)` and the GEMM blocking parameters.
//!
//! [`terms`] transcribes the two coefficient tables of Figure 5 verbatim;
//! [`predict`] assembles them into per-variant predictions;
//! [`calibrate`] fits `τ_a`, `τ_b`, `λ` on the running machine;
//! [`parallel`] extends them to a schedule over `p` workers and holds the
//! one ranker, [`rank_scheduled`], behind the paper's §4.4 model-guided
//! choice of implementation; [`select`]'s [`rank_candidates`] is its
//! one-worker case, the sequential ranking. [`replay`] holds the paper's
//! Fig. 9 as committed measurements, and the guard band the ranker
//! derives from them: a fast algorithm is ranked ahead of GEMM only when
//! its predicted margin exceeds the model's measured error.
//!
//! # Example
//!
//! ```
//! use fmm_core::{counts::PlanCounts, registry, FmmPlan};
//! use fmm_model::{arch::ArchParams, predict::predict_fmm, Impl};
//!
//! let plan = FmmPlan::new(vec![registry::strassen()]);
//! let arch = ArchParams::paper_machine();
//! let p = predict_fmm(Impl::Abc, &PlanCounts::of(&plan), 1024, 1024, 1024, &arch);
//! assert!(p.total > 0.0);
//! ```

pub mod arch;
pub mod calibrate;
pub mod parallel;
pub mod predict;
pub mod replay;
pub mod select;
pub mod terms;

pub use arch::ArchParams;
pub use fmm_core::tasks::Strategy;
pub use parallel::{predict_gemm_parallel, predict_scheduled, rank_scheduled, ScheduledCandidate};
pub use predict::{predict_fmm, predict_gemm, Prediction};
pub use replay::{ReplayRow, ReplayTable, GUARD_BAND};
pub use select::{rank_candidates, Candidate};

/// Which implementation the model is asked about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Impl {
    /// Plain blocked GEMM (the BLIS-style baseline).
    Gemm,
    /// Naive FMM (temporaries for operand sums and `M_r`).
    Naive,
    /// AB FMM (sums in packing, `M_r` materialized).
    Ab,
    /// ABC FMM (sums in packing, multi-destination micro-kernel).
    Abc,
}

impl Impl {
    /// The three FMM variants (excluding plain GEMM).
    pub const FMM_VARIANTS: [Impl; 3] = [Impl::Naive, Impl::Ab, Impl::Abc];

    /// Map from the executor's variant enum.
    pub fn from_variant(v: fmm_core::Variant) -> Self {
        match v {
            fmm_core::Variant::Naive => Impl::Naive,
            fmm_core::Variant::Ab => Impl::Ab,
            fmm_core::Variant::Abc => Impl::Abc,
        }
    }

    /// Map to the executor's variant enum (`None` for [`Impl::Gemm`]).
    pub fn to_variant(self) -> Option<fmm_core::Variant> {
        match self {
            Impl::Gemm => None,
            Impl::Naive => Some(fmm_core::Variant::Naive),
            Impl::Ab => Some(fmm_core::Variant::Ab),
            Impl::Abc => Some(fmm_core::Variant::Abc),
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Impl::Gemm => "GEMM",
            Impl::Naive => "Naive",
            Impl::Ab => "AB",
            Impl::Abc => "ABC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impl_variant_roundtrip() {
        for v in fmm_core::Variant::ALL {
            let i = Impl::from_variant(v);
            assert_eq!(i.to_variant(), Some(v));
        }
        assert_eq!(Impl::Gemm.to_variant(), None);
    }
}
