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
//!   of several same-shape submatrices, each term folded in registers on
//!   the kernel's lane and each packed element written once, so a sum
//!   costs the reads of its terms and no extra writes;
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
//! register tile (`16x8` doubles, `32x8` singles: sixteen AVX-512
//! accumulators either way), the runtime-selected micro-kernel, and a
//! per-dtype global packing pool. Every micro-kernel is one generic
//! source, instantiated per instruction set and dtype: `avx512f_16x8`,
//! `avx2_fma_16x8` and `portable_16x8` for `f64`, `avx512f_32x8`,
//! `avx2_fma_32x8` and `portable_32x8` for `f32`, the first one the CPU
//! supports picked once per process. Rows whose registers cannot hold the
//! tile run it as a grid of smaller sub-tiles over the same packed panels,
//! so every row of a dtype gives the same bits. Its one C-update
//! ([`GemmScalar::tile_update`]) adds the tile into a destination list
//! straight from registers, for every tile, plain GEMM's as FMM's: a full
//! tile of column-major destinations by whole lanes, an edge tile on the
//! narrowest sub-tiles that cover its valid part and through masked
//! lanes, and a destination of any other row stride an element at a
//! time. [`GemmScalar::micro_kernel`] is its one-destination case, into an
//! `MR x NR` tile at coefficient 1. Callers pass one
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
/// from the dtype's global [`WorkspacePool`], sized to the block and panel
/// the problem packs ([`BlockingParams::fit`]), so repeated calls allocate
/// no packing buffer once the pool has served as large a problem. Each
/// call still makes `1 + ⌈n/nC⌉·⌈k/kC⌉·(1 + ⌈m/mC⌉)` small heap calls for
/// the driver's destination and slice lists: 3 for a problem inside one
/// block (up to `512 x 256 x 4096` at the default blocking), 13 at 1024³.
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
    // Buffers for the block and panel this problem packs, in the
    // orientation the driver runs it: a row-major `C` as `Cᵀ = Bᵀ·Aᵀ`.
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (m, n) = if driver::row_major(c.row_stride(), c.col_stride()) { (n, m) } else { (m, n) };
    let mut ws = T::global_pool().acquire(&params.with_register_tile(T::MR, T::NR).fit(m, k, n));
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
