//! BLIS / GotoBLAS-style blocked matrix multiplication substrate.
//!
//! This crate reimplements the GEMM structure of Figure 1 (left) of the
//! reproduced paper — the five loops around a register-blocked micro-kernel,
//! with `A` packed into `mC x kC` blocks of `mR`-row micro-panels and `B`
//! packed into `kC x nC` row panels of `nR`-column micro-panels — plus the
//! two generalizations of Figure 1 (right) that make Strassen-like fast
//! matrix multiplication practical:
//!
//! * **packing with linear combinations** ([`pack::pack_a_sum`],
//!   [`pack::pack_b_sum`]): the packed buffer receives `sum_i gamma_i * X_i`
//!   of several same-shape submatrices, at no extra memory traffic;
//! * **multi-destination micro-kernel epilogue** ([`driver::gemm_sums_with`]):
//!   the register tile is added with per-destination coefficients into
//!   several submatrices of `C` straight from registers
//!   ([`GemmScalar::tile_update`]), avoiding temporaries for the
//!   intermediate products `M_r`.
//!
//! [`driver`] holds the one loop nest. Its entry [`gemm_sums_with`] takes
//! two choices as arguments: accumulate into or overwrite the destinations
//! ([`Update`]), and run the `ic` loop inline or in parallel ([`IcLoop`]).
//! [`gemm_sums`] is its accumulating, inline case. Plain GEMM ([`gemm`],
//! [`gemm_parallel`]) is the special case with one term per operand and one
//! destination; the FMM executors in `fmm-core` call the general entry
//! directly.
//!
//! The whole substrate is generic over the packed element type through
//! [`GemmScalar`] (`f64` default, `f32` supported): the trait owns the
//! register tile (`8x4` doubles, `16x4` singles), the runtime-selected
//! micro-kernel, and a per-dtype global packing pool. Every micro-kernel
//! is one generic source, instantiated per instruction set and dtype:
//! `avx512f_8x4`, `avx2_fma_8x4` and `portable_8x4` for `f64`,
//! `avx2_fma_16x4` and `portable_16x4` for `f32`, the first one the CPU
//! supports picked once per process. Each has two entries: into a
//! destination list straight from registers ([`GemmScalar::tile_update`]),
//! which every full tile of column-major destinations takes, plain GEMM's
//! as FMM's, and into a stack accumulator ([`GemmScalar::micro_kernel`]),
//! which edge tiles and other strides take. Callers pass one
//! `BlockingParams`; the driver swaps in the kernel's register tile via
//! [`BlockingParams::with_register_tile`] while keeping the cache-level
//! blocking as configured.
//!
//! Parallelism mirrors the paper's OpenMP scheme: the third loop around the
//! micro-kernel (the `ic` loop) is data-parallel over rayon worker threads
//! when the caller passes [`IcLoop::Parallel`].
//!
//! # Example
//!
//! ```
//! use fmm_dense::{fill, Matrix, norms};
//!
//! let a = fill::bench_workload(64, 48, 1);
//! let b = fill::bench_workload(48, 80, 2);
//! let mut c = Matrix::zeros(64, 80);
//! fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref());
//!
//! let mut c_ref = Matrix::zeros(64, 80);
//! fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
//! assert!(fmm_dense::norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-12);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod driver;
mod kernel;
mod obs_hooks;
pub mod pack;
pub mod params;
pub mod reference;
pub mod workspace;

pub use driver::{gemm_sums, gemm_sums_with, DestTile, IcLoop, Update};
pub use kernel::{GemmScalar, MicroKernelFn};
pub use params::BlockingParams;
pub use workspace::{GemmWorkspace, PooledWorkspace, WorkspacePool};

use fmm_dense::{MatMut, MatRef};

/// `C += A * B`, sequential, with default blocking parameters, generic
/// over the [`GemmScalar`] element (`f64` or `f32`). Packing buffers come
/// from the dtype's global [`WorkspacePool`], so repeated calls allocate
/// no packing buffer. Each call still makes `1 + ⌈n/nC⌉·⌈k/kC⌉·(1 +
/// ⌈m/mC⌉)` small heap calls for the driver's destination and slice
/// lists: 3 for a problem inside one block.
pub fn gemm<T: GemmScalar>(c: MatMut<'_, T>, a: MatRef<'_, T>, b: MatRef<'_, T>) {
    gemm_with_params(c, a, b, &BlockingParams::default())
}

/// As [`gemm`], with explicit blocking parameters — e.g.
/// [`BlockingParams::for_workers`]-shrunk panels when several sequential
/// GEMMs run co-resident on one shared cache.
pub fn gemm_with_params<T: GemmScalar>(
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    params: &BlockingParams,
) {
    let mut ws = T::global_pool().acquire(params);
    driver::gemm_sums(
        &mut [DestTile::new(c, T::ONE)],
        &[(T::ONE, a)],
        &[(T::ONE, b)],
        params,
        &mut ws,
    );
}

/// `C += A * B`, parallel over the `ic` loop using the global rayon pool.
pub fn gemm_parallel<T: GemmScalar>(c: MatMut<'_, T>, a: MatRef<'_, T>, b: MatRef<'_, T>) {
    gemm_sums_with(
        &mut [DestTile::new(c, T::ONE)],
        &[(T::ONE, a)],
        &[(T::ONE, b)],
        &BlockingParams::default(),
        Update::Accumulate,
        IcLoop::Parallel,
    );
}
