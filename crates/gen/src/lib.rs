//! One frozen specialized FMM implementation (paper §4.1).
//!
//! The paper's generator, like Benson & Ballard's, writes each
//! algorithm's `[[U,V,W]]` out as code. Here the coefficient-driven
//! executors in `fmm-core` make the same `gemm_sums` calls straight from
//! the coefficients, at the same speed, so the repository keeps one
//! implementation and no emitter. [`generated`] holds the one module the
//! deleted emitter last wrote, one-level Strassen ABC, unchanged: the
//! benchmark's `gen.generated_vs_interp` row times it against the
//! interpreted executor, and its tests check that both agree bit for bit.

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod generated;
