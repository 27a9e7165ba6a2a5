//! Fast matrix multiplication core: the paper's primary contribution.
//!
//! A fast matrix multiplication (FMM) algorithm is a partition
//! `<m̃, k̃, ñ>` plus a coefficient triple `[[U, V, W]]` (paper §3.1). This
//! crate provides:
//!
//! * [`coeffs::CoeffMatrix`] — exact dyadic-rational coefficient matrices
//!   with the Kronecker product used for multi-level composition (§3.2–3.5);
//! * [`algorithm::FmmAlgorithm`] — a verified `[[U, V, W]]` triple;
//! * [`brent`] — exact verification against the Brent equations;
//! * [`compose`] — direct sums, nesting, and the symmetry transforms that
//!   generate algorithm families from base algorithms;
//! * [`registry`] — the named algorithm family of the paper's Figure 2;
//! * [`plan::FmmPlan`] — an L-level algorithm; coefficients composed on first use;
//! * [`indexing`] — recursive block (Morton-like) storage indexing (§3.3);
//! * [`peeling`] — dynamic peeling for arbitrary problem sizes (§4.1);
//! * [`executor`] — the Naive / AB / ABC implementations built on the
//!   `fmm-gemm` packing and micro-kernel primitives (§4.1, Fig. 1 right);
//! * [`tasks`] — the BFS/DFS/hybrid scheduling vocabulary and per-task
//!   workspace shapes consumed by the `fmm-sched` scheduler.
//!
//! Plans and coefficients are dtype-free (`U`/`V`/`W` stay `f64`); the
//! execution machinery ([`executor::FmmContext`], the arena, the block
//! grids, all three variants) is generic over `fmm_gemm::GemmScalar`
//! (`f64` default, `f32` supported), with coefficients narrowed to the
//! execution scalar at [`executor::gather_terms`].
//!
//! # Example
//!
//! ```
//! use fmm_core::prelude::*;
//! use fmm_dense::{fill, Matrix};
//!
//! let strassen = fmm_core::registry::strassen();
//! let plan = FmmPlan::new(vec![strassen]);
//! let a = fill::bench_workload(64, 64, 1);
//! let b = fill::bench_workload(64, 64, 2);
//! let mut c = Matrix::zeros(64, 64);
//! let mut ctx = FmmContext::with_defaults();
//! fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
//!
//! let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
//! assert!(fmm_dense::norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-10);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod algorithm;
pub mod brent;
pub mod coeffs;
pub mod compose;
pub mod counts;
pub mod executor;
pub mod indexing;
pub mod json;
pub mod peeling;
pub mod plan;
pub mod registry;
pub mod tasks;

pub use algorithm::FmmAlgorithm;
pub use coeffs::CoeffMatrix;
pub use executor::{fmm_execute, fmm_execute_parallel, FmmContext, Variant};
pub use plan::FmmPlan;
pub use tasks::Strategy;

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::algorithm::FmmAlgorithm;
    pub use crate::coeffs::CoeffMatrix;
    pub use crate::executor::{fmm_execute, fmm_execute_parallel, FmmContext, Variant};
    pub use crate::plan::FmmPlan;
    pub use crate::registry;
    pub use crate::tasks::Strategy;
}
