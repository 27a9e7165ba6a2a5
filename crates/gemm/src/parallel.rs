//! Data-parallel GEMM: the third loop around the micro-kernel (the `ic`
//! loop) is distributed over rayon workers, mirroring the paper's OpenMP
//! scheme (§5.1, citing Smith et al. IPDPS'14).
//!
//! Each worker packs its own `Ã_i` block (private, lives in that core's L2)
//! while all workers share the packed `B̃_p` panel (lives in L3) — exactly
//! the sharing pattern BLIS uses. Workers write disjoint row ranges
//! `[ic, ic + mc)` of every destination, so no synchronization on `C` is
//! needed beyond the loop barrier.

use crate::driver::{check_shapes, macro_kernel, oriented, transpose_row_major, DestTile, RawDest};
use crate::kernel::GemmScalar;
use crate::pack;
use crate::params::BlockingParams;
use fmm_dense::MatRef;
use rayon::prelude::*;

/// Parallel generalized GEMM: `C_d += w_d * (sum A_i)(sum B_j)` for every
/// destination, with the `ic` loop parallelized over the current rayon pool.
pub fn gemm_sums_parallel<T: GemmScalar>(
    dests: &mut [DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
) {
    gemm_sums_parallel_impl(dests, a_terms, b_terms, params, false)
}

/// Parallel variant of [`crate::driver::gemm_sums_overwrite`].
pub fn gemm_sums_parallel_overwrite<T: GemmScalar>(
    dests: &mut [DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
) {
    gemm_sums_parallel_impl(dests, a_terms, b_terms, params, true)
}

fn gemm_sums_parallel_impl<T: GemmScalar>(
    dests: &mut [DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
    overwrite: bool,
) {
    let (m, k, n) = check_shapes(dests, a_terms, b_terms);
    // As in the sequential driver: pack for `T`'s kernel tile.
    let params = &params.with_register_tile(T::MR, T::NR);
    params.validate().expect("invalid blocking parameters");
    if m == 0 || n == 0 {
        return;
    }
    let mut raw: Vec<RawDest<T>> = dests.iter_mut().map(|d| d.raw()).collect();
    if k == 0 {
        if overwrite {
            // Zero all destinations (k = 0 product is the zero matrix).
            for d in raw {
                for j in 0..d.cols {
                    for i in 0..d.rows {
                        // SAFETY: (i, j) in bounds; single-threaded here.
                        unsafe { *d.ptr.offset(i as isize * d.rs + j as isize * d.cs) = T::ZERO };
                    }
                }
            }
        }
        return;
    }
    let transposed = transpose_row_major(&mut raw);
    let (a_terms, b_terms, m, n) =
        if transposed { (b_terms, a_terms, n, m) } else { (a_terms, b_terms, m, n) };
    let ukr = T::micro_kernel();
    let n_ic_blocks = m.div_ceil(params.mc);

    // Shared B̃ panel, packed once per (jc, pc) iteration. Pooled (one pool
    // per dtype), so the warm path allocates nothing.
    let mut bws = T::global_pool().acquire(params);
    let bbuf = &mut bws.bbuf;

    let mut jc = 0;
    while jc < n {
        let nb = params.nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb = params.kc.min(k - pc);
            let b_slices: Vec<(T, MatRef<'_, T>)> = b_terms
                .iter()
                .map(|(g, b)| (*g, oriented(*b, transposed).submatrix(pc, jc, kb, nb)))
                .collect();
            let t_pack = crate::obs_hooks::phase_start();
            pack::pack_b_sum(bbuf, &b_slices, params.nr);
            crate::obs_hooks::pack_done(t_pack);
            let store = overwrite && pc == 0;
            let bshared: &[T] = bbuf;

            (0..n_ic_blocks).into_par_iter().for_each_init(
                // Per-worker packing buffers come from the global pool,
                // so steady-state parallel GEMM allocates nothing.
                || T::global_pool().acquire(params),
                |ws, blk| {
                    let ic = blk * params.mc;
                    let mb = params.mc.min(m - ic);
                    let a_slices: Vec<(T, MatRef<'_, T>)> = a_terms
                        .iter()
                        .map(|(g, a)| (*g, oriented(*a, transposed).submatrix(ic, pc, mb, kb)))
                        .collect();
                    let t_pack = crate::obs_hooks::phase_start();
                    pack::pack_a_sum(&mut ws.abuf, &a_slices, params.mr);
                    crate::obs_hooks::pack_done(t_pack);
                    // Each task owns rows [ic, ic + mb) of every
                    // destination; tasks are disjoint in `ic`, so the
                    // writes through RawDest cannot race.
                    let mut local = raw.clone();
                    let t_kernel = crate::obs_hooks::phase_start();
                    macro_kernel(&mut local, &ws.abuf, bshared, ic, jc, mb, nb, kb, ukr, store);
                    crate::obs_hooks::kernel_done(t_kernel);
                },
            );
            pc += params.kc;
        }
        jc += params.nc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::gemm_sums;
    use crate::reference;
    use crate::workspace::GemmWorkspace;
    use fmm_dense::{fill, norms, Matrix};

    #[test]
    fn parallel_matches_sequential_driver() {
        let p = BlockingParams::tiny();
        for (m, k, n) in [(64, 32, 48), (33, 17, 29), (100, 7, 3)] {
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c_par = fill::bench_workload(m, n, 3);
            let mut c_seq = c_par.clone();

            gemm_sums_parallel(
                &mut [DestTile::new(c_par.as_mut(), 1.0)],
                &[(1.0, a.as_ref())],
                &[(1.0, b.as_ref())],
                &p,
            );
            let mut ws = GemmWorkspace::for_params(&p);
            gemm_sums(
                &mut [DestTile::new(c_seq.as_mut(), 1.0)],
                &[(1.0, a.as_ref())],
                &[(1.0, b.as_ref())],
                &p,
                &mut ws,
            );
            // Same packing, same kernel, same summation order per element:
            // results are bit-identical.
            assert_eq!(c_par, c_seq, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn parallel_multi_dest_and_sums() {
        let p = BlockingParams::tiny();
        let m = 48;
        let k = 20;
        let n = 36;
        let a0 = fill::bench_workload(m, k, 4);
        let a1 = fill::bench_workload(m, k, 5);
        let b0 = fill::bench_workload(k, n, 6);
        let mut c0 = Matrix::zeros(m, n);
        let mut c1 = Matrix::zeros(m, n);
        gemm_sums_parallel(
            &mut [DestTile::new(c0.as_mut(), 2.0), DestTile::new(c1.as_mut(), -1.0)],
            &[(1.0, a0.as_ref()), (-1.0, a1.as_ref())],
            &[(1.0, b0.as_ref())],
            &p,
        );
        let mut asum = Matrix::zeros(m, k);
        fmm_dense::ops::linear_combination(
            asum.as_mut(),
            &[(1.0, a0.as_ref()), (-1.0, a1.as_ref())],
        )
        .unwrap();
        let prod = reference::matmul(asum.as_ref(), b0.as_ref());
        for j in 0..n {
            for i in 0..m {
                assert!((c0.get(i, j) - 2.0 * prod.get(i, j)).abs() < 1e-12);
                assert!((c1.get(i, j) + prod.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn parallel_overwrite_semantics() {
        let p = BlockingParams::tiny();
        let a = fill::bench_workload(24, 25, 7);
        let b = fill::bench_workload(25, 16, 8);
        let mut c = Matrix::filled(24, 16, 55.0);
        gemm_sums_parallel_overwrite(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
        );
        let c_ref = reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-12);
    }

    #[test]
    fn gemm_parallel_entry_point() {
        let a = fill::bench_workload(70, 30, 9);
        let b = fill::bench_workload(30, 50, 10);
        let mut c = Matrix::zeros(70, 50);
        crate::gemm_parallel(c.as_mut(), a.as_ref(), b.as_ref());
        let c_ref = reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-11);
    }
}
