//! The five-loop GEMM driver, generalized for fast matrix multiplication.
//!
//! [`gemm_sums`] computes `P = (sum_i alpha_i A_i) * (sum_j beta_j B_j)` and
//! applies `C_d += w_d * P` for every destination `d`, without ever
//! materializing the operand sums or `P`:
//!
//! * operand sums are folded into the packing ([`crate::pack`]);
//! * the destination updates are applied straight from the micro-kernel
//!   accumulator (the multi-destination epilogue of the paper's ABC variant).
//!
//! Loop structure (paper Fig. 1): `jc` over `n` in steps of `nc` (loop 5),
//! `pc` over `k` in steps of `kc` (loop 4, packs `B̃`), `ic` over `m` in
//! steps of `mc` (loop 3, packs `Ã`), then the macro-kernel: `jr` (loop 2)
//! and `ir` (loop 1) over micro-tiles.

use crate::kernel::{GemmScalar, MicroKernelFn, ACC_CAP};
use crate::pack;
use crate::params::BlockingParams;
use crate::workspace::GemmWorkspace;
use fmm_dense::{MatMut, MatRef, Scalar};

/// One destination of a generalized GEMM: a mutable view plus the scalar
/// coefficient `w` applied to the product before accumulation.
pub struct DestTile<'a, T = f64> {
    view: MatMut<'a, T>,
    coeff: T,
}

impl<'a, T: Scalar> DestTile<'a, T> {
    /// Destination `view += coeff * P`.
    pub fn new(view: MatMut<'a, T>, coeff: T) -> Self {
        Self { view, coeff }
    }

    /// The coefficient `w` for this destination.
    pub fn coeff(&self) -> T {
        self.coeff
    }

    /// Shape of the destination.
    pub fn shape(&self) -> (usize, usize) {
        (self.view.rows(), self.view.cols())
    }

    /// Immutable raw parts, used by the parallel driver.
    pub(crate) fn raw(&mut self) -> RawDest<T> {
        RawDest {
            ptr: self.view.as_mut_ptr(),
            rows: self.view.rows(),
            cols: self.view.cols(),
            rs: self.view.row_stride(),
            cs: self.view.col_stride(),
            coeff: self.coeff,
        }
    }
}

/// Raw-pointer form of a destination, `Copy` so the macro-kernel can keep an
/// array of them. Writes through it are only sound while the originating
/// `DestTile` borrow is live and writers touch disjoint element sets.
#[derive(Debug)]
pub(crate) struct RawDest<T> {
    pub ptr: *mut T,
    pub rows: usize,
    pub cols: usize,
    pub rs: isize,
    pub cs: isize,
    pub coeff: T,
}

impl<T: Scalar> Clone for RawDest<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Scalar> Copy for RawDest<T> {}

// SAFETY: see the invariant on the type — the parallel driver partitions
// writers by disjoint row ranges, and the sequential driver is single
// threaded. The pointer itself is as sendable as the `&mut` it came from.
unsafe impl<T: Scalar> Send for RawDest<T> {}
unsafe impl<T: Scalar> Sync for RawDest<T> {}

/// Row-major destinations run as the column-major problem they transpose
/// to. When every destination has unit *column* stride, turn `raw` into
/// views of `C_dᵀ` and return `true`: `C_dᵀ += w_d·Bᵀ·Aᵀ` is the same
/// update with the roles of `m` and `n` swapped, and the transposed
/// destinations have the unit row stride the tile epilogue is written for.
/// The caller then packs [`oriented`] blocks of `b_terms` as the left
/// operand and of `a_terms` as the right. `false` (and `raw` untouched)
/// for any other stride mix.
///
/// Operand layout is not consulted. Row-major operands (the serving
/// daemon's) gain the most, `Bᵀ` being the column-major left operand
/// `pack_a_one` copies by columns: 1.31x at 32³, 1.17x at 64³, 1.08x at
/// 128³, 1.02–1.15x above. Column-major operands with row-major
/// destinations trade that copy for the epilogue: 0.90x at 32³, 0.97x at
/// 64³–128³, even from 256³.
pub(crate) fn transpose_row_major<T: Scalar>(raw: &mut [RawDest<T>]) -> bool {
    if !raw.iter().all(|d| d.cs == 1 && d.rs != 1) {
        return false;
    }
    for d in raw.iter_mut() {
        std::mem::swap(&mut d.rows, &mut d.cols);
        std::mem::swap(&mut d.rs, &mut d.cs);
    }
    true
}

/// `x`, or `xᵀ` in a problem [`transpose_row_major`] transposed.
pub(crate) fn oriented<T: Scalar>(x: MatRef<'_, T>, transposed: bool) -> MatRef<'_, T> {
    if transposed {
        x.t()
    } else {
        x
    }
}

/// Generalized GEMM: for every destination `d`,
/// `C_d (+)= w_d * (sum a_terms) * (sum b_terms)`.
///
/// All `a_terms` must share one shape `(m, k)`, all `b_terms` one shape
/// `(k, n)`, and all destinations one shape `(m, n)`.
///
/// `overwrite = false` accumulates (`+=`, the FMM/GEMM default). Use
/// [`gemm_sums_overwrite`] for `=` semantics (used for `M_r` temporaries).
///
/// Any strides are accepted. Column-major destinations (unit row stride)
/// are the fast case; destinations that are all row-major run as the
/// column-major problem `C_dᵀ (+)= w_d · Bᵀ·Aᵀ`, on views.
pub fn gemm_sums<T: GemmScalar>(
    dests: &mut [DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
    ws: &mut GemmWorkspace<T>,
) {
    gemm_sums_impl(dests, a_terms, b_terms, params, ws, false)
}

/// As [`gemm_sums`], but destinations are overwritten (`C_d = w_d * P`)
/// instead of accumulated into.
pub fn gemm_sums_overwrite<T: GemmScalar>(
    dests: &mut [DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
    ws: &mut GemmWorkspace<T>,
) {
    gemm_sums_impl(dests, a_terms, b_terms, params, ws, true)
}

fn gemm_sums_impl<T: GemmScalar>(
    dests: &mut [DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
    ws: &mut GemmWorkspace<T>,
    overwrite: bool,
) {
    let (m, k, n) = check_shapes(dests, a_terms, b_terms);
    // The register tile is the kernel's property, not the caller's: pack
    // micro-panels for `T`'s kernel, keep the caller's cache blocking.
    let params = params.with_register_tile(T::MR, T::NR);
    params.validate().expect("invalid blocking parameters");
    ws.ensure(&params);
    let mut raw: Vec<RawDest<T>> = dests.iter_mut().map(|d| d.raw()).collect();
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if overwrite {
            for d in dests {
                d.view.fill(T::ZERO);
            }
        }
        return;
    }
    let transposed = transpose_row_major(&mut raw);
    let (a_terms, b_terms, m, n) =
        if transposed { (b_terms, a_terms, n, m) } else { (a_terms, b_terms, m, n) };
    let ukr = T::micro_kernel();

    let mut jc = 0;
    while jc < n {
        let nb = params.nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb = params.kc.min(k - pc);
            // Loop 4 body: pack (the sum of) B into B̃.
            let b_slices: Vec<(T, MatRef<'_, T>)> = b_terms
                .iter()
                .map(|(g, b)| (*g, oriented(*b, transposed).submatrix(pc, jc, kb, nb)))
                .collect();
            let t_pack = crate::obs_hooks::phase_start();
            pack::pack_b_sum(&mut ws.bbuf, &b_slices, params.nr);
            crate::obs_hooks::pack_done(t_pack);
            // First k-panel overwrites if requested; later panels accumulate.
            let store = overwrite && pc == 0;

            let mut ic = 0;
            while ic < m {
                let mb = params.mc.min(m - ic);
                // Loop 3 body: pack (the sum of) A into Ã.
                let a_slices: Vec<(T, MatRef<'_, T>)> = a_terms
                    .iter()
                    .map(|(g, a)| (*g, oriented(*a, transposed).submatrix(ic, pc, mb, kb)))
                    .collect();
                let t_pack = crate::obs_hooks::phase_start();
                pack::pack_a_sum(&mut ws.abuf, &a_slices, params.mr);
                crate::obs_hooks::pack_done(t_pack);

                let t_kernel = crate::obs_hooks::phase_start();
                macro_kernel(&mut raw, &ws.abuf, &ws.bbuf, ic, jc, mb, nb, kb, ukr, store);
                crate::obs_hooks::kernel_done(t_kernel);
                ic += params.mc;
            }
            pc += params.kc;
        }
        jc += params.nc;
    }
}

/// Loops 2 and 1: sweep `nr x mr` micro-tiles of the current block, run the
/// micro-kernel, and scatter the accumulator into every destination.
#[allow(clippy::too_many_arguments)]
pub(crate) fn macro_kernel<T: GemmScalar>(
    dests: &mut [RawDest<T>],
    abuf: &[T],
    bbuf: &[T],
    ic: usize,
    jc: usize,
    mb: usize,
    nb: usize,
    kb: usize,
    ukr: MicroKernelFn<T>,
    store: bool,
) {
    let (mr, nr) = (T::MR, T::NR);
    debug_assert!(mr * nr <= ACC_CAP);
    let mut jr = 0;
    while jr < nb {
        let nr_eff = nr.min(nb - jr);
        let bpanel = &bbuf[(jr / nr) * nr * kb..];
        let mut ir = 0;
        while ir < mb {
            let mr_eff = mr.min(mb - ir);
            let apanel = &abuf[(ir / mr) * mr * kb..];
            // Stack accumulator sized for the largest supported tile; the
            // kernel touches only its own `mr * nr` prefix.
            let mut acc = [T::ZERO; ACC_CAP];
            // SAFETY: packed panels hold kb * mr and kb * nr elements
            // (zero-padded), as produced by pack_a_sum / pack_b_sum, and
            // `acc` has at least mr * nr writable elements.
            unsafe { ukr(kb, apanel.as_ptr(), bpanel.as_ptr(), acc.as_mut_ptr()) };
            for d in dests.iter() {
                // SAFETY: ic + mr_eff <= m and jc + nr_eff <= n for every
                // destination (shapes checked at entry); distinct (i, j)
                // address distinct elements per the MatMut contract.
                unsafe { apply_tile(d, ic + ir, jc + jr, mr_eff, nr_eff, &acc, store) };
            }
            ir += mr;
        }
        jr += nr;
    }
}

/// Add (or store) `coeff * acc[0..mr_eff, 0..nr_eff]` at `(i0, j0)` of `d`.
///
/// # Safety
/// `(i0 + mr_eff, j0 + nr_eff)` must be within `d`'s bounds and no other
/// thread may concurrently touch those elements.
unsafe fn apply_tile<T: GemmScalar>(
    d: &RawDest<T>,
    i0: usize,
    j0: usize,
    mr_eff: usize,
    nr_eff: usize,
    acc: &[T; ACC_CAP],
    store: bool,
) {
    debug_assert!(i0 + mr_eff <= d.rows && j0 + nr_eff <= d.cols);
    let mr = T::MR;
    let w = d.coeff;
    for j in 0..nr_eff {
        // SAFETY: every offset below stays inside the `mr_eff x nr_eff`
        // tile at `(i0, j0)`, in-bounds and exclusively owned per the
        // caller's contract.
        unsafe {
            let colbase = d.ptr.offset((i0 as isize) * d.rs + (j0 + j) as isize * d.cs);
            if d.rs == 1 {
                let src = &acc[j * mr..j * mr + mr_eff];
                if store {
                    for (i, &v) in src.iter().enumerate() {
                        *colbase.add(i) = w * v;
                    }
                } else {
                    for (i, &v) in src.iter().enumerate() {
                        *colbase.add(i) += w * v;
                    }
                }
            } else {
                for i in 0..mr_eff {
                    let p = colbase.offset(i as isize * d.rs);
                    let v = w * acc[i + j * mr];
                    if store {
                        *p = v;
                    } else {
                        *p += v;
                    }
                }
            }
        }
    }
}

pub(crate) fn check_shapes<T: Scalar>(
    dests: &[DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
) -> (usize, usize, usize) {
    let (m, k) = {
        let first = a_terms.first().expect("gemm_sums: at least one A term");
        (first.1.rows(), first.1.cols())
    };
    for (_, a) in a_terms {
        assert_eq!((a.rows(), a.cols()), (m, k), "A terms shape mismatch");
    }
    let n = {
        let first = b_terms.first().expect("gemm_sums: at least one B term");
        assert_eq!(first.1.rows(), k, "A/B inner dimension mismatch");
        first.1.cols()
    };
    for (_, b) in b_terms {
        assert_eq!((b.rows(), b.cols()), (k, n), "B terms shape mismatch");
    }
    assert!(!dests.is_empty(), "gemm_sums: at least one destination");
    for d in dests {
        assert_eq!(d.shape(), (m, n), "destination shape mismatch");
    }
    (m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fmm_dense::{fill, norms, Matrix};

    fn run_gemm(m: usize, k: usize, n: usize, params: &BlockingParams) {
        let a = fill::bench_workload(m, k, 11);
        let b = fill::bench_workload(k, n, 22);
        let mut c = fill::bench_workload(m, n, 33);
        let mut c_ref = c.clone();

        let mut ws = GemmWorkspace::for_params(params);
        gemm_sums(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            params,
            &mut ws,
        );
        reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
        let err = norms::max_abs_diff(c.as_ref(), c_ref.as_ref());
        assert!(err < 1e-11 * (k as f64).max(1.0), "m={m} k={k} n={n}: err={err}");
    }

    #[test]
    fn matches_reference_on_blocked_sizes() {
        let p = BlockingParams::tiny();
        run_gemm(16, 8, 12, &p); // exactly one block each
        run_gemm(32, 16, 24, &p); // multiple full blocks
    }

    #[test]
    fn matches_reference_on_ragged_sizes() {
        let p = BlockingParams::tiny();
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (17, 9, 13), (33, 17, 29), (40, 1, 7)] {
            run_gemm(m, k, n, &p);
        }
    }

    #[test]
    fn matches_reference_with_default_params() {
        run_gemm(150, 300, 70, &BlockingParams::default());
    }

    #[test]
    fn empty_dims_are_noops() {
        let p = BlockingParams::tiny();
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        let mut c = Matrix::zeros(0, 4);
        let mut ws = GemmWorkspace::for_params(&p);
        gemm_sums(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            &mut ws,
        );
    }

    #[test]
    fn k_zero_overwrite_zeroes_dest() {
        let p = BlockingParams::tiny();
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::filled(4, 4, 7.0);
        let mut ws = GemmWorkspace::for_params(&p);
        gemm_sums_overwrite(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            &mut ws,
        );
        assert_eq!(c, Matrix::zeros(4, 4));
    }

    #[test]
    fn operand_sums_match_explicit_sums() {
        // (A0 - A1) * (B0 + 2 B1) computed via packing sums vs explicitly.
        let m = 19;
        let k = 11;
        let n = 9;
        let a0 = fill::bench_workload(m, k, 1);
        let a1 = fill::bench_workload(m, k, 2);
        let b0 = fill::bench_workload(k, n, 3);
        let b1 = fill::bench_workload(k, n, 4);
        let p = BlockingParams::tiny();
        let mut ws = GemmWorkspace::for_params(&p);

        let mut c = Matrix::zeros(m, n);
        gemm_sums(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a0.as_ref()), (-1.0, a1.as_ref())],
            &[(1.0, b0.as_ref()), (2.0, b1.as_ref())],
            &p,
            &mut ws,
        );

        let mut asum = Matrix::zeros(m, k);
        fmm_dense::ops::linear_combination(
            asum.as_mut(),
            &[(1.0, a0.as_ref()), (-1.0, a1.as_ref())],
        )
        .unwrap();
        let mut bsum = Matrix::zeros(k, n);
        fmm_dense::ops::linear_combination(
            bsum.as_mut(),
            &[(1.0, b0.as_ref()), (2.0, b1.as_ref())],
        )
        .unwrap();
        let c_ref = reference::matmul(asum.as_ref(), bsum.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-12);
    }

    #[test]
    fn multi_destination_epilogue_scales_each_dest() {
        let m = 12;
        let k = 10;
        let n = 8;
        let a = fill::bench_workload(m, k, 5);
        let b = fill::bench_workload(k, n, 6);
        let p = BlockingParams::tiny();
        let mut ws = GemmWorkspace::for_params(&p);

        let mut c0 = Matrix::filled(m, n, 1.0);
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm_sums(
            &mut [
                DestTile::new(c0.as_mut(), 1.0),
                DestTile::new(c1.as_mut(), -1.0),
                DestTile::new(c2.as_mut(), 0.5),
            ],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            &mut ws,
        );
        let prod = reference::matmul(a.as_ref(), b.as_ref());
        for j in 0..n {
            for i in 0..m {
                assert!((c0.get(i, j) - (1.0 + prod.get(i, j))).abs() < 1e-12);
                assert!((c1.get(i, j) + prod.get(i, j)).abs() < 1e-12);
                assert!((c2.get(i, j) - 0.5 * prod.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn overwrite_ignores_prior_contents_across_k_panels() {
        // k spans multiple kc panels: only the first panel may overwrite.
        let p = BlockingParams::tiny(); // kc = 8
        let m = 9;
        let k = 25;
        let n = 5;
        let a = fill::bench_workload(m, k, 7);
        let b = fill::bench_workload(k, n, 8);
        let mut c = Matrix::filled(m, n, 123.0);
        let mut ws = GemmWorkspace::for_params(&p);
        gemm_sums_overwrite(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            &mut ws,
        );
        let c_ref = reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-12);
    }

    #[test]
    fn destinations_as_submatrices_of_one_allocation() {
        // Mimics FMM: two quadrants of one C updated from one product.
        let p = BlockingParams::tiny();
        let a = fill::bench_workload(6, 6, 9);
        let b = fill::bench_workload(6, 6, 10);
        let mut c = Matrix::zeros(12, 12);
        let mut ws = GemmWorkspace::for_params(&p);
        {
            let (top, bottom) = c.as_mut().split_rows(6);
            let (c00, _) = top.split_cols(6);
            let (_, c11) = bottom.split_cols(6);
            gemm_sums(
                &mut [DestTile::new(c00, 1.0), DestTile::new(c11, -1.0)],
                &[(1.0, a.as_ref())],
                &[(1.0, b.as_ref())],
                &p,
                &mut ws,
            );
        }
        let prod = reference::matmul(a.as_ref(), b.as_ref());
        for j in 0..6 {
            for i in 0..6 {
                assert!((c.get(i, j) - prod.get(i, j)).abs() < 1e-12);
                assert!((c.get(i + 6, j + 6) + prod.get(i, j)).abs() < 1e-12);
                assert_eq!(c.get(i + 6, j), 0.0);
                assert_eq!(c.get(i, j + 6), 0.0);
            }
        }
    }

    #[test]
    fn f32_gemm_matches_f64_reference() {
        // The f32 driver (16x4 kernel, f32 packing) against the same
        // product computed in f64, at the f32-derived bound.
        use fmm_dense::Scalar;
        for (m, k, n) in [(37, 29, 41), (64, 64, 64), (16, 100, 8)] {
            let a = fill::bench_workload_t::<f32>(m, k, 11);
            let b = fill::bench_workload_t::<f32>(k, n, 22);
            let mut c = Matrix::<f32>::zeros(m, n);
            let mut ws = GemmWorkspace::<f32>::for_params(&BlockingParams::tiny());
            gemm_sums(
                &mut [DestTile::new(c.as_mut(), 1.0f32)],
                &[(1.0f32, a.as_ref())],
                &[(1.0f32, b.as_ref())],
                &BlockingParams::tiny(),
                &mut ws,
            );
            let c_ref = reference::matmul(a.cast::<f64>().as_ref(), b.cast::<f64>().as_ref());
            let err = norms::rel_error(c.cast::<f64>().as_ref(), c_ref.as_ref());
            let bound = <f32 as Scalar>::accuracy_bound(k, 0);
            assert!(err < bound, "m={m} k={k} n={n}: err={err} bound={bound}");
        }
    }

    #[test]
    #[should_panic(expected = "destination shape mismatch")]
    fn dest_shape_mismatch_panics() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(4, 4);
        let mut c = Matrix::zeros(5, 4);
        let p = BlockingParams::tiny();
        let mut ws = GemmWorkspace::for_params(&p);
        gemm_sums(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            &mut ws,
        );
    }
}
