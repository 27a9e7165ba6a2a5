//! `fmm` — families of practical fast matrix multiplication algorithms.
//!
//! This is the umbrella crate of the workspace reproducing Huang, Rice,
//! Matthews & van de Geijn, *"Generating Families of Practical Fast Matrix
//! Multiplication Algorithms"* (IPDPS 2017). It re-exports the component
//! crates and offers a batteries-included entry point, [`multiply`]: a thin
//! wrapper over a process-global [`FmmEngine`] that performs model-guided
//! algorithm selection (the paper's poly-algorithm, §4.4) once per problem
//! shape, caches the decision, and executes with pooled, preplanned
//! workspaces — repeated traffic does no plan recomposition, no re-ranking,
//! and no workspace allocation.
//!
//! Components:
//!
//! * [`dense`] — column-major matrices and strided views;
//! * [`gemm`] — the BLIS-style blocked GEMM substrate (packing with sums,
//!   multi-destination micro-kernel epilogue, rayon loop-3 parallelism,
//!   pooled packing workspaces);
//! * [`core`] — `[[U,V,W]]` algorithms, Kronecker multi-level plans,
//!   dynamic peeling, the arena-backed Naive/AB/ABC executors, and the
//!   Figure-2 registry;
//! * [`model`] — the generated performance model (Figures 4–5),
//!   selection, and the parallel-time strategy ranking;
//! * [`sched`] — the task-parallel BFS/DFS/hybrid scheduler
//!   (Benson–Ballard-style task parallelism across submultiplications);
//! * [`tune`] — host calibration of the model's machine constants
//!   (measured once per process, never persisted);
//! * [`engine`] — the long-lived, cached, model-routed execution engine
//!   with the batched [`multiply_batch`] entry point;
//! * [`serve`] — the multi-client TCP serving daemon: a length-prefixed
//!   binary frame protocol, a cross-request micro-batching dispatcher
//!   over [`FmmEngine::multiply_batch`], bounded-queue admission control
//!   with typed backpressure, live metrics, a client library, and the
//!   `fmm_serve` CLI;
//! * [`search`] — discovery of new algorithms: [`search::search`] walks the
//!   flip graph over GF(2) and Hensel-lifts finds to ℤ under one wall-clock
//!   budget;
//! * [`gen`] — the source-code generator for specialized implementations.
//!
//! # Quickstart
//!
//! ```
//! use fmm_dense::{fill, Matrix};
//!
//! let a = fill::bench_workload(96, 64, 1);
//! let b = fill::bench_workload(64, 80, 2);
//! let mut c = Matrix::zeros(96, 80);
//! fmm::multiply(c.as_mut(), a.as_ref(), b.as_ref());
//!
//! let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
//! assert!(fmm_dense::norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-10);
//! ```
//!
//! For long-lived services, hold an [`FmmEngine`] directly (or use
//! [`engine()`]): it exposes warmup ([`FmmEngine::prepare`]), explicit
//! plan execution, and cache statistics.
//!
//! # Precision
//!
//! The execution stack is generic over `fmm_dense::Scalar`. [`multiply`]
//! serves `f64` (the paper's DGEMM experiments); [`multiply_f32`] serves
//! `f32` through its own process-global engine — dtype-specific kernels
//! (a 32x8 register tile, sixteen AVX-512 accumulators where available),
//! per-dtype caches and workspace pools, and model rankings charged at 4
//! bytes per element.
//! The `f32` accuracy contract is `Scalar::accuracy_bound`: within the
//! `f32`-epsilon-derived bound of an `f64`-computed reference.

pub use fmm_core as core;
pub use fmm_dense as dense;
// Module and function live in different namespaces: `fmm::engine` is the
// component crate, `fmm::engine()` the process-global instance.
pub use fmm_engine as engine;
pub use fmm_gemm as gemm;
pub use fmm_gen as gen;
pub use fmm_model as model;
pub use fmm_sched as sched;
pub use fmm_search as search;
pub use fmm_serve as serve;
pub use fmm_tune as tune;

pub use fmm_core::Strategy;
pub use fmm_engine::{ArchSource, BatchItem, EngineConfig, EngineStats, FmmEngine, Routing};

use fmm_dense::{MatMut, MatRef};
use std::sync::OnceLock;

/// The engine behind the free-function `f64` API: one model-routed
/// [`FmmEngine`] with default configuration, built on first use and shared
/// by the whole process. Use it directly for warmup, statistics, or
/// explicit plan execution. The `f32` traffic has its own engine
/// ([`engine_f32`]) — one process-global engine per dtype, so decision and
/// plan caches never mix element types.
pub fn engine() -> &'static FmmEngine {
    static ENGINE: OnceLock<FmmEngine> = OnceLock::new();
    ENGINE.get_or_init(FmmEngine::with_defaults)
}

/// The process-global single-precision engine behind [`multiply_f32`]:
/// same routing and caching as [`engine()`], executing over the `f32`
/// kernel stack (32x8 register tile, AVX-512 where available), with the
/// model's memory terms charged at 4 bytes per element.
pub fn engine_f32() -> &'static FmmEngine<f32> {
    static ENGINE: OnceLock<FmmEngine<f32>> = OnceLock::new();
    ENGINE.get_or_init(FmmEngine::<f32>::with_defaults)
}

/// `C += A·B` through the process-global [`engine()`]: model-guided
/// selection over the standard registry, with every cache layer
/// (decisions, composed plans, workspaces) shared across calls and
/// threads.
pub fn multiply(c: MatMut<'_>, a: MatRef<'_>, b: MatRef<'_>) {
    engine().multiply(c, a, b)
}

/// Single-precision `C += A·B` through the process-global [`engine_f32`].
/// Accuracy contract: the result matches an `f64`-computed reference
/// within [`fmm_dense::Scalar::accuracy_bound`] for `f32` at the plan's
/// inner dimension and level count.
pub fn multiply_f32(c: MatMut<'_, f32>, a: MatRef<'_, f32>, b: MatRef<'_, f32>) {
    engine_f32().multiply(c, a, b)
}

/// Execute many independent `C += A·B` problems through the process-global
/// [`engine()`] in one call. See [`FmmEngine::multiply_batch`]; the
/// default engine is sequential, so items run in order — build a parallel
/// [`FmmEngine`] for inter-problem parallelism.
pub fn multiply_batch(items: &mut [BatchItem<'_>]) {
    engine().multiply_batch(items)
}

/// Single-precision [`multiply_batch`], through [`engine_f32`].
pub fn multiply_batch_f32(items: &mut [BatchItem<'_, f32>]) {
    engine_f32().multiply_batch(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_dense::{fill, norms, Matrix};

    #[test]
    fn multiply_matches_reference_on_awkward_sizes() {
        for (m, k, n) in [(37, 29, 41), (120, 120, 120), (5, 300, 5)] {
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            multiply(c.as_mut(), a.as_ref(), b.as_ref());
            let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
            assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn parallel_engine_config_multiplies_correctly() {
        // What the removed `multiply_with { parallel: true }` shim covered,
        // on the supported surface: a parallel engine held by the caller.
        let engine = FmmEngine::new(EngineConfig {
            arch: fmm_model::ArchParams::paper_machine().into(),
            parallel: true,
            ..EngineConfig::default()
        });
        let a = fill::bench_workload(64, 48, 3);
        let b = fill::bench_workload(48, 56, 4);
        let mut c = Matrix::zeros(64, 56);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9);
    }

    #[test]
    fn multiply_batch_matches_reference() {
        let a = fill::bench_workload(37, 29, 9);
        let b = fill::bench_workload(29, 41, 10);
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        let mut cs: Vec<Matrix> = (0..4).map(|_| Matrix::zeros(37, 41)).collect();
        {
            let mut items: Vec<BatchItem<'_>> =
                cs.iter_mut().map(|c| BatchItem::new(c.as_mut(), a.as_ref(), b.as_ref())).collect();
            multiply_batch(&mut items);
        }
        for c in &cs {
            assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9);
        }
    }

    #[test]
    fn multiply_accumulates() {
        let a = Matrix::identity(8);
        let b = Matrix::filled(8, 8, 2.0);
        let mut c = Matrix::filled(8, 8, 1.0);
        multiply(c.as_mut(), a.as_ref(), b.as_ref());
        assert_eq!(c, Matrix::filled(8, 8, 3.0));
    }

    #[test]
    fn global_engine_is_shared_and_caches_decisions() {
        let a = fill::bench_workload(40, 24, 1);
        let b = fill::bench_workload(24, 32, 2);
        let before = engine().stats();
        for _ in 0..3 {
            let mut c = Matrix::zeros(40, 32);
            multiply(c.as_mut(), a.as_ref(), b.as_ref());
        }
        let after = engine().stats();
        // >=, not ==: sibling tests share the process-global engine and may
        // run between the two snapshots.
        assert!(after.executions >= before.executions + 3);
        // The shape is ranked at most once process-wide; at least the last
        // two calls must be decision-cache hits.
        assert!(after.decision_hits >= before.decision_hits + 2);
    }
}
