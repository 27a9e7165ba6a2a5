//! The five-loop GEMM driver, generalized for fast matrix multiplication.
//!
//! [`gemm_sums_with`] computes `P = (sum_i alpha_i A_i) * (sum_j beta_j B_j)`
//! and applies `C_d += w_d * P` (or `C_d = w_d * P`) for every destination
//! `d`, without ever materializing the operand sums or `P`:
//!
//! * operand sums are folded into the packing ([`crate::pack`]);
//! * the destination updates are applied straight from the micro-kernel's
//!   registers (the multi-destination epilogue of the paper's ABC variant).
//!
//! Loop structure (paper Fig. 1): `jc` over `n` in steps of `nc` (loop 5),
//! `pc` over `k` in steps of `kc` (loop 4, packs `B̃`), `ic` over `m` in
//! steps of `mc` (loop 3, packs `Ã`), then the macro-kernel: `jr` (loop 2)
//! and `ir` (loop 1) over micro-tiles. There is one such nest; its `ic` loop
//! runs inline or over rayon workers as its [`IcLoop`] argument says, which
//! is all the paper's data parallelism (§5.1) needs.

use crate::kernel::{GemmScalar, RawDest, Tile, TileUpdateFn};
use crate::obs_hooks::Operand;
use crate::pack;
use crate::params::BlockingParams;
use crate::workspace::{GemmWorkspace, PooledWorkspace};
use fmm_dense::{MatMut, MatRef, Scalar};
use rayon::prelude::*;

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

    /// Raw parts, which the `ic` loop's workers share.
    fn raw(&mut self) -> RawDest<T> {
        RawDest {
            ptr: self.view.as_mut_ptr(),
            rs: self.view.row_stride(),
            cs: self.view.col_stride(),
            coeff: self.coeff,
        }
    }
}

/// Row-major destinations run as the column-major problem they transpose
/// to. When every destination has unit *column* stride, turn `raw` into
/// views of `C_dᵀ` and return `true`: `C_dᵀ += w_d·Bᵀ·Aᵀ` is the same
/// update with the roles of `m` and `n` swapped, and the transposed
/// destinations have the unit row stride the tile update writes by lanes.
/// The caller then packs [`oriented`] blocks of `b_terms` as the left
/// operand and of `a_terms` as the right. `false` (and `raw` untouched)
/// for any other stride mix.
///
/// Operand layout is not consulted. Row-major operands (the serving
/// daemon's) gain the most, `Bᵀ` being a column-major left operand the A
/// pack reads by columns: 1.31x at 32³, 1.17x at 64³, 1.08x at 128³,
/// 1.02–1.15x above, when this was introduced. Column-major operands with
/// row-major destinations trade that for the epilogue: 0.90x at 32³,
/// 0.97x at 64³–128³, even from 256³.
fn transpose_row_major<T: Scalar>(raw: &mut [RawDest<T>]) -> bool {
    if !raw.iter().all(|d| row_major(d.rs, d.cs)) {
        return false;
    }
    for d in raw.iter_mut() {
        std::mem::swap(&mut d.rs, &mut d.cs);
    }
    true
}

/// Whether a destination of row stride `rs` and column stride `cs` is
/// one [`transpose_row_major`] transposes.
pub(crate) fn row_major(rs: isize, cs: isize) -> bool {
    cs == 1 && rs != 1
}

/// `x`, or `xᵀ` in a problem [`transpose_row_major`] transposed.
fn oriented<T: Scalar>(x: MatRef<'_, T>, transposed: bool) -> MatRef<'_, T> {
    if transposed {
        x.t()
    } else {
        x
    }
}

/// How a generalized GEMM writes its destinations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    /// `C_d += w_d * P`, the FMM/GEMM default.
    Accumulate,
    /// `C_d = w_d * P`, for `M_r` temporaries.
    Overwrite,
}

/// Where the `ic` loop (loop 3) runs, and so where packing buffers come
/// from.
pub enum IcLoop<'w, T = f64> {
    /// Inline on the calling thread, packing into the caller's workspace
    /// (sized on first use).
    Inline(&'w mut GemmWorkspace<T>),
    /// Over the rayon pool, mirroring the paper's OpenMP scheme (§5.1,
    /// citing Smith et al. IPDPS'14). Each worker packs its own `Ã` block
    /// (private, in that core's L2) while all share the packed `B̃` panel
    /// (in L3), the sharing pattern BLIS uses; both come from
    /// [`GemmScalar::global_pool`]. The rows are shared evenly over a
    /// multiple of the pool's width of blocks of at most `mc` rows, and
    /// workers write disjoint row ranges of every destination, so `C`
    /// needs no synchronization beyond the loop barrier.
    Parallel,
}

impl<T> IcLoop<'_, T> {
    /// The same choice for a shorter borrow, so one choice can drive
    /// several calls.
    pub fn reborrow(&mut self) -> IcLoop<'_, T> {
        match self {
            IcLoop::Inline(ws) => IcLoop::Inline(ws),
            IcLoop::Parallel => IcLoop::Parallel,
        }
    }
}

/// Generalized GEMM: for every destination `d`,
/// `C_d += w_d * (sum a_terms) * (sum b_terms)`, sequentially, packing
/// into `ws`. [`gemm_sums_with`] with [`Update::Accumulate`] and
/// [`IcLoop::Inline`].
///
/// All `a_terms` must share one shape `(m, k)`, all `b_terms` one shape
/// `(k, n)`, and all destinations one shape `(m, n)`.
pub fn gemm_sums<T: GemmScalar>(
    dests: &mut [DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
    ws: &mut GemmWorkspace<T>,
) {
    gemm_sums_with(dests, a_terms, b_terms, params, Update::Accumulate, IcLoop::Inline(ws))
}

/// The five-loop nest: `C_d (+)= w_d * (sum a_terms) * (sum b_terms)` for
/// every destination, written as `update` says, with the `ic` loop run as
/// `ic_loop` says. Shapes as for [`gemm_sums`].
///
/// Any strides are accepted. Column-major destinations (unit row stride)
/// are the fast case; destinations that are all row-major run as the
/// column-major problem `C_dᵀ (+)= w_d · Bᵀ·Aᵀ`, on views. Every tile,
/// plain GEMM's as FMM's, is updated straight from the kernel's registers
/// ([`GemmScalar::tile_update`]): a full tile of column-major destinations
/// by whole lanes, an edge tile on the narrowest sub-tiles that cover it
/// and through masked lanes, and a destination of any other stride an
/// element at a time. Every path gives the same bits.
pub fn gemm_sums_with<T: GemmScalar>(
    dests: &mut [DestTile<'_, T>],
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
    update: Update,
    ic_loop: IcLoop<'_, T>,
) {
    let (m, k, n) = check_shapes(dests, a_terms, b_terms);
    // The register tile is the kernel's property, not the caller's: pack
    // micro-panels for `T`'s kernel, keep the caller's cache blocking.
    let params = params.with_register_tile(T::MR, T::NR);
    params.validate().expect("invalid blocking parameters");
    let mut raw: Vec<RawDest<T>> = dests.iter_mut().map(|d| d.raw()).collect();
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if update == Update::Overwrite {
            for d in dests {
                d.view.fill(T::ZERO);
            }
        }
        return;
    }
    let transposed = transpose_row_major(&mut raw);
    let (a_terms, b_terms, m, n) =
        if transposed { (b_terms, a_terms, n, m) } else { (a_terms, b_terms, m, n) };
    // Same blocks, buffers no larger than the block and panel packed.
    let params = params.fit(m, k, n);
    let update_tile = T::tile_update();
    let parallel = matches!(ic_loop, IcLoop::Parallel);
    // Rows per `ic` block: `mc` inline; a parallel loop shares the rows
    // evenly between its workers (see `ic_step`).
    let step = if parallel {
        ic_step(m, params.mc, T::MR, rayon::current_num_threads())
    } else {
        params.mc
    };
    // The shared B̃ panel, packed once per (jc, pc) iteration. Pooled in
    // parallel mode (one pool per dtype), so the warm path allocates
    // nothing. Every parallel checkout asks for the same sizes, so which
    // one holds the panel and which an Ã block never grows a buffer.
    let block_params = BlockingParams { mc: step, ..params };
    let mut pooled: Option<PooledWorkspace<'_, T>> = None;
    let ws: &mut GemmWorkspace<T> = match ic_loop {
        IcLoop::Inline(ws) => {
            ws.ensure(&params);
            ws
        }
        IcLoop::Parallel => pooled.insert(T::global_pool().acquire(&block_params)),
    };

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
            crate::obs_hooks::pack_done(t_pack, Operand::B, b_slices.len(), kb * nb);
            // First k-panel overwrites if requested; later panels accumulate.
            let store = update == Update::Overwrite && pc == 0;
            let bbuf: &[T] = &ws.bbuf;

            // Loop 3 body: pack (the sum of) A into Ã, then the
            // macro-kernel. Each call owns rows [ic, ic + mb) of every
            // destination, so parallel calls (disjoint in `ic`) cannot race
            // on the writes through RawDest.
            let block = |abuf: &mut [T], ic: usize| {
                let mb = step.min(m - ic);
                let a_slices: Vec<(T, MatRef<'_, T>)> = a_terms
                    .iter()
                    .map(|(g, a)| (*g, oriented(*a, transposed).submatrix(ic, pc, mb, kb)))
                    .collect();
                let t_pack = crate::obs_hooks::phase_start();
                pack::pack_a_sum(abuf, &a_slices, params.mr);
                // The kernel phase starts where the pack phase ends.
                let t_kernel =
                    crate::obs_hooks::pack_done(t_pack, Operand::A, a_slices.len(), mb * kb);
                macro_kernel(&raw, abuf, bbuf, ic, jc, mb, nb, kb, update_tile, store);
                crate::obs_hooks::kernel_done(t_kernel);
            };
            if parallel {
                (0..m.div_ceil(step)).into_par_iter().for_each_init(
                    || T::global_pool().acquire(&block_params),
                    |aws, blk| block(&mut aws.abuf, blk * step),
                );
            } else {
                let mut ic = 0;
                while ic < m {
                    block(&mut ws.abuf, ic);
                    ic += step;
                }
            }
            pc += params.kc;
        }
        jc += params.nc;
    }
}

/// Rows per block of a parallel `ic` loop over `m` rows on `width`
/// workers. The `⌈m/mc⌉` blocks `mc` needs are rounded up to a multiple of
/// `width` and the rows shared evenly between them, in whole `mr`
/// micro-panels and at most `mc`: a problem of at most `mc` rows still
/// splits across the pool, and 1536 rows on two workers run as four
/// blocks of 384 rather than three of 512, two of which would land on one
/// worker. Rows regroup only; no output changes bits.
fn ic_step(m: usize, mc: usize, mr: usize, width: usize) -> usize {
    let blocks = m.div_ceil(mc).next_multiple_of(width.max(1)).max(1);
    mc.min(m.div_ceil(blocks).next_multiple_of(mr))
}

/// Loops 2 and 1: sweep `nr x mr` micro-tiles of the current block and
/// update each, full or edge, in every one of `dests` from the kernel's
/// registers.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: GemmScalar>(
    dests: &[RawDest<T>],
    abuf: &[T],
    bbuf: &[T],
    ic: usize,
    jc: usize,
    mb: usize,
    nb: usize,
    kb: usize,
    update: TileUpdateFn<T>,
    store: bool,
) {
    let (mr, nr) = (T::MR, T::NR);
    for jr in (0..nb).step_by(nr) {
        let bpanel = &bbuf[(jr / nr) * nr * kb..];
        for ir in (0..mb).step_by(mr) {
            let apanel = &abuf[(ir / mr) * mr * kb..];
            let tile =
                Tile { i: ic + ir, j: jc + jr, rows: mr.min(mb - ir), cols: nr.min(nb - jr) };
            // SAFETY: packed panels hold kb * mr and kb * nr elements
            // (zero-padded), as produced by pack_a_sum / pack_b_sum; the
            // valid part of the tile lies inside every destination (shapes
            // checked at entry), this call's rows [ic, ic + mb) are its
            // own, and distinct destinations are disjoint per the MatMut
            // contract.
            unsafe { update(kb, apanel.as_ptr(), bpanel.as_ptr(), dests, tile, store) };
        }
    }
}

fn check_shapes<T: Scalar>(
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

    /// Operand sums packed by the kernel's row give the bits of the same
    /// sums gathered: the gathered run reads the same values through
    /// row-major views, which `pack_*_sum` send to the gather. One to three
    /// terms per operand with rounding coefficients, one or two
    /// destinations, default blocking on a shape past `mc` and `kc` with
    /// ragged edges, both dtypes, accumulating and overwriting.
    #[test]
    fn lane_packed_sums_give_the_gathered_bits() {
        /// The first `terms` of `mats` with their coefficients: as they
        /// lie, or as row-major views of their column-major transposes.
        fn sum<'a, T: Scalar>(
            mats: &'a [(Matrix<T>, Matrix<T>)],
            terms: usize,
            gathered: bool,
        ) -> Vec<(T, MatRef<'a, T>)> {
            let coeffs = [0.5, -1.0, 0.3].map(T::from_f64);
            let view = |(x, xt): &'a (Matrix<T>, Matrix<T>)| {
                if gathered {
                    xt.as_ref().t()
                } else {
                    x.as_ref()
                }
            };
            coeffs.into_iter().zip(mats.iter().map(view)).take(terms).collect()
        }
        fn run<T: GemmScalar>() {
            let (m, k, n) = (100, 300, 37);
            let with_copy = |x: Matrix<T>| {
                let xt = x.transposed();
                (x, xt)
            };
            let xs: Vec<_> = (0..3).map(|t| with_copy(fill::bench_workload_t(m, k, t))).collect();
            let ys: Vec<_> = (3..6).map(|t| with_copy(fill::bench_workload_t(k, n, t))).collect();
            let params = BlockingParams::default();
            let runs = [(1, Update::Accumulate), (2, Update::Overwrite), (3, Update::Accumulate)];
            for (terms, update) in runs {
                for dests in 1..=2 {
                    let product = |gathered: bool| {
                        let mut cs: Vec<Matrix<T>> = (0..dests)
                            .map(|d| fill::bench_workload_t(m, n, 9 + d as u64))
                            .collect();
                        let weights = [T::ONE, T::from_f64(-0.7)];
                        let mut tiles: Vec<DestTile<'_, T>> = cs
                            .iter_mut()
                            .zip(weights)
                            .map(|(c, w)| DestTile::new(c.as_mut(), w))
                            .collect();
                        let (a, b) = (sum(&xs, terms, gathered), sum(&ys, terms, gathered));
                        let mut ws = GemmWorkspace::for_params(&params);
                        gemm_sums_with(
                            &mut tiles,
                            &a,
                            &b,
                            &params,
                            update,
                            IcLoop::Inline(&mut ws),
                        );
                        drop(tiles);
                        let bits = |c: &Matrix<T>| -> Vec<u64> {
                            (0..n)
                                .flat_map(|j| (0..m).map(move |i| (i, j)))
                                .map(|(i, j)| c.get(i, j).to_f64().to_bits())
                                .collect()
                        };
                        cs.iter().map(bits).collect::<Vec<_>>()
                    };
                    let what = format!("{} terms={terms} dests={dests} {update:?}", T::NAME);
                    assert!(product(false) == product(true), "{what}");
                }
            }
        }
        run::<f64>();
        run::<f32>();
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
        gemm_sums_with(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            Update::Overwrite,
            IcLoop::Inline(&mut ws),
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
        gemm_sums_with(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            Update::Overwrite,
            IcLoop::Inline(&mut ws),
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
        // The f32 driver (32x8 kernel, f32 packing) against the same
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

    #[test]
    fn parallel_matches_sequential_driver() {
        let p = BlockingParams::tiny();
        for (m, k, n) in [(64, 32, 48), (33, 17, 29), (100, 7, 3)] {
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c_par = fill::bench_workload(m, n, 3);
            let mut c_seq = c_par.clone();

            gemm_sums_with(
                &mut [DestTile::new(c_par.as_mut(), 1.0)],
                &[(1.0, a.as_ref())],
                &[(1.0, b.as_ref())],
                &p,
                Update::Accumulate,
                IcLoop::Parallel,
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

    /// A parallel `ic` loop splits every problem of more than one
    /// micro-panel across the pool, in whole micro-panels of at most `mc`
    /// rows, and into a multiple of the pool's width where the panels
    /// allow.
    #[test]
    fn ic_step_splits_every_problem_evenly_across_the_pool() {
        let (mc, mr) = (512, 16);
        // (m, step at widths 1, 2, 4).
        let table = [
            (1, [16, 16, 16]),
            (16, [16, 16, 16]),
            (100, [112, 64, 32]),
            (300, [304, 160, 80]),
            (512, [512, 256, 128]),
            (513, [272, 272, 144]),
            (1000, [512, 512, 256]),
            (1536, [512, 384, 384]),
            (4096, [512, 512, 512]),
        ];
        for (m, steps) in table {
            for (width, want) in [1, 2, 4].into_iter().zip(steps) {
                let step = ic_step(m, mc, mr, width);
                assert_eq!(step, want, "m {m} width {width}");
                let blocks = m.div_ceil(step);
                let most = m.div_ceil(mc).next_multiple_of(width);
                assert!(step <= mc && step.is_multiple_of(mr), "m {m} width {width}: step {step}");
                assert!(blocks <= most, "m {m} width {width}: {blocks} blocks");
                if width > 1 && m > mr {
                    assert!(blocks > 1, "m {m} runs on one of {width} workers");
                }
                if m >= width * mc {
                    assert!(blocks.is_multiple_of(width), "m {m} width {width}: {blocks} blocks");
                }
            }
        }
        assert_eq!(ic_step(40, 512, 16, 0), 48, "width 0 counts as one worker");
        assert_eq!(ic_step(1000, 100, 16, 2), 100, "mc bounds a step it does not divide");
    }

    /// The parallel `ic` loop at the default blocking gives the inline
    /// loop's bits on problems of fewer rows than `mc`, which it splits
    /// across the pool, and of more.
    #[test]
    fn parallel_matches_sequential_at_default_blocking() {
        let p = BlockingParams::default();
        for m in [100, 300, 513] {
            let (k, n) = (270, 45);
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c_par = fill::bench_workload(m, n, 3);
            let mut c_seq = c_par.clone();
            let (a, b) = (&[(1.0, a.as_ref())], &[(1.0, b.as_ref())]);
            let par = IcLoop::Parallel;
            gemm_sums_with(
                &mut [DestTile::new(c_par.as_mut(), 1.0)],
                a,
                b,
                &p,
                Update::Accumulate,
                par,
            );
            let mut ws = GemmWorkspace::empty();
            gemm_sums(&mut [DestTile::new(c_seq.as_mut(), 1.0)], a, b, &p, &mut ws);
            let bits = |c: &Matrix| c.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c_par), bits(&c_seq), "m={m}");
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
        gemm_sums_with(
            &mut [DestTile::new(c0.as_mut(), 2.0), DestTile::new(c1.as_mut(), -1.0)],
            &[(1.0, a0.as_ref()), (-1.0, a1.as_ref())],
            &[(1.0, b0.as_ref())],
            &p,
            Update::Accumulate,
            IcLoop::Parallel,
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
        gemm_sums_with(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            Update::Overwrite,
            IcLoop::Parallel,
        );
        let c_ref = reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-12);
    }

    /// The tile update's lane writes and its element writes give the same
    /// bits. Column-major destinations take whole and masked lanes, alone
    /// (plain GEMM at one term) or two at a time; pairing one with a
    /// row-major copy of the other sends every tile of both down the path
    /// that spills the registers and writes the row-major one an element
    /// at a time. One- and two-term operands, coefficients that round,
    /// fringes on every side, and both update modes.
    #[test]
    fn register_and_accumulator_epilogues_agree_bit_for_bit() {
        let (m, k, n) = (37, 29, 23);
        let a: Vec<_> = (1..3).map(|s| fill::bench_workload(m, k, s)).collect();
        let b: Vec<_> = (3..5).map(|s| fill::bench_workload(k, n, s)).collect();
        let a_sum = [(1.0, a[0].as_ref()), (-0.5, a[1].as_ref())];
        let b_sum = [(1.0, b[0].as_ref()), (0.75, b[1].as_ref())];
        let bits = |x: &Matrix| x.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for terms in [1, 2] {
            let (a_terms, b_terms) = (&a_sum[..terms], &b_sum[..terms]);
            for params in [BlockingParams::tiny(), BlockingParams::default()] {
                for update in [Update::Accumulate, Update::Overwrite] {
                    let what = format!("{terms} terms, {update:?}, {params:?}");
                    let mut ws = GemmWorkspace::for_params(&params);
                    let c0 = fill::bench_workload(m, n, 5);
                    let (mut one, mut reg0, mut reg1) = (c0.clone(), c0.clone(), c0.clone());
                    gemm_sums_with(
                        &mut [DestTile::new(one.as_mut(), 1.0)],
                        a_terms,
                        b_terms,
                        &params,
                        update,
                        IcLoop::Inline(&mut ws),
                    );
                    gemm_sums_with(
                        &mut [
                            DestTile::new(reg0.as_mut(), 1.0),
                            DestTile::new(reg1.as_mut(), -1.25),
                        ],
                        a_terms,
                        b_terms,
                        &params,
                        update,
                        IcLoop::Inline(&mut ws),
                    );
                    let (mut acc0, mut acc1t) = (c0.clone(), c0.transposed());
                    // SAFETY: `acc1t` is `n x m` column-major, so its elements
                    // read as `m x n` at row stride `n` and column stride 1.
                    let acc1 = unsafe {
                        MatMut::from_raw_parts(acc1t.as_mut().as_mut_ptr(), m, n, n as isize, 1)
                    };
                    gemm_sums_with(
                        &mut [DestTile::new(acc0.as_mut(), 1.0), DestTile::new(acc1, -1.25)],
                        a_terms,
                        b_terms,
                        &params,
                        update,
                        IcLoop::Inline(&mut ws),
                    );
                    assert_eq!(bits(&one), bits(&acc0), "one destination, {what}");
                    assert_eq!(bits(&reg0), bits(&acc0), "{what}");
                    assert_eq!(bits(&reg1), bits(&acc1t.transposed()), "{what}");
                }
            }
        }
    }

    /// Edge tiles give full tiles' bits: `gemm` on every `m x n` in
    /// `1..=2·MR+1 x 1..=2·NR+1`, at depths 1, 7, 256 and 257 (one and two
    /// `kc` panels), equals the top-left block of the same product on the
    /// operands zero-padded to whole tiles, which runs only full tiles.
    /// Both dtypes. Prints the kernel row it ran and that row's edge paths
    /// (`--nocapture`), so a CI log shows which paths were checked.
    #[test]
    fn fringes_equal_the_padded_product_bit_for_bit() {
        fn run<T: GemmScalar>(table: &[crate::kernel::Instance<T>]) {
            let row = table.iter().find(|row| row.name == T::micro_kernel_name()).unwrap();
            println!("fringe test on {} ({}): {}", row.name, T::NAME, row.edge_paths());
            let (mr, nr) = (T::MR, T::NR);
            for k in [1, 7, 256, 257] {
                let a = fill::bench_workload_t::<T>(2 * mr + 1, k, 1);
                let b = fill::bench_workload_t::<T>(k, 2 * nr + 1, 2);
                let c0 = fill::bench_workload_t::<T>(2 * mr + 1, 2 * nr + 1, 3);
                for m in 1..=2 * mr + 1 {
                    let pm = m.next_multiple_of(mr);
                    let a_pad =
                        Matrix::from_fn(pm, k, |i, p| if i < m { a.get(i, p) } else { T::ZERO });
                    for n in 1..=2 * nr + 1 {
                        let pn = n.next_multiple_of(nr);
                        let b_pad =
                            Matrix::from_fn(
                                k,
                                pn,
                                |p, j| if j < n { b.get(p, j) } else { T::ZERO },
                            );
                        let at = |i, j| if i < m && j < n { c0.get(i, j) } else { T::ZERO };
                        let mut c = Matrix::from_fn(m, n, at);
                        let mut c_pad = Matrix::from_fn(pm, pn, at);
                        let (a, b) =
                            (a.as_ref().submatrix(0, 0, m, k), b.as_ref().submatrix(0, 0, k, n));
                        crate::gemm(c.as_mut(), a, b);
                        crate::gemm(c_pad.as_mut(), a_pad.as_ref(), b_pad.as_ref());
                        for j in 0..n {
                            for i in 0..m {
                                let (got, want) = (c.get(i, j).to_f64(), c_pad.get(i, j).to_f64());
                                let what = format_args!("{} {m}x{k}x{n} at ({i}, {j})", T::NAME);
                                assert_eq!(got.to_bits(), want.to_bits(), "{what}");
                            }
                        }
                    }
                }
            }
        }
        run::<f64>(crate::kernel::F64_KERNELS);
        run::<f32>(crate::kernel::F32_KERNELS);
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
