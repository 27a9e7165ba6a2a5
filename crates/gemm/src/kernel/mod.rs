//! The register-blocked micro-kernel, written once.
//!
//! [`product`] computes the rank-`kc` product `Ã * B̃` of an
//! `MV * Lane::W x NR` sub-tile of two packed micro-panels in registers:
//! `MV` lanes per column times `NR` columns, `MV * NR` accumulators.
//! [`update`] adds the products of a `TM x TN` tile, scaled, into the tile
//! of every destination of a list straight from registers, after
//! prefetching each destination's tile so the misses overlap the depth
//! loop. A tile is one sub-tile when the lane's register file holds it,
//! and a grid of sub-tiles over the same packed panels when it does not,
//! so every instance of a dtype packs the same panels and none spills.
//! Both are generic over a [`Lane`] (a SIMD vector, or an array the
//! compiler vectorises), the sub-tile and the tile. An instance is that
//! source compiled with its lane's target features:
//!
//! | name | lane | sub-tile (`MV x NR`) | sub-tiles | edge sub-tiles | CPU check |
//! |---|---|---|---|---|---|
//! | `avx512f_16x8` | `__m512d` | 16x8 (2 x 8) | 1 | 8x8, 16x4, 8x4 | `avx512f` |
//! | `avx2_fma_16x8` | `__m256d` | 8x4 (2 x 4) | 2 x 2 | 4x4 | `avx2` and `fma` |
//! | `portable_16x8` | `[f64; 4]` | 4x4 (1 x 4) | 4 x 2 | none | none |
//! | `avx512f_32x8` | `__m512` | 32x8 (2 x 8) | 1 | 16x8, 32x4, 16x4 | `avx512f` |
//! | `avx2_fma_32x8` | `__m256` | 16x4 (2 x 4) | 2 x 2 | 8x4 | `avx2` and `fma` |
//! | `portable_32x8` | `[f32; 8]` | 8x4 (1 x 4) | 4 x 2 | none | none |
//!
//! The AVX-512 rows hold 16 of the 32 `zmm` registers as accumulators:
//! sixteen independent FMA chains, enough to cover two FMA ports at four
//! cycles' latency, where the paper's 8x4 tile (sized for sixteen 256-bit
//! registers) gives four. The AVX2 rows keep the paper's tile as their
//! sub-tile, eight of the sixteen `ymm` registers. The portable rows
//! compile for the baseline target's sixteen 128-bit `xmm` registers, where
//! a 4x4 sub-tile of doubles (or 8x4 of singles) is eight.
//!
//! Every tile goes through [`update`], full or partial, whatever the
//! destinations' strides. A full tile of column-major destinations runs
//! the static code above. Any other tile skips the sub-tiles that lie
//! wholly outside its valid rows and columns, runs a sub-tile with at most
//! one lane of valid rows on one lane (`MV = 1`) and one with at most four
//! valid columns on four (the "edge sub-tiles" above), and writes the
//! valid part through masked lanes ([`Lane::load_first`],
//! [`Lane::store_first`]), or element by element into a destination of
//! non-unit row stride. Each element's chain of FMAs is the same whatever
//! sub-tile computes it, so an edge tile has a full tile's bits.
//!
//! A row also carries the packs that feed its kernel: `pack_a_lanes` and
//! `pack_b_lanes` of [`crate::pack`], compiled for the row's lane, which
//! fold operand sums in the lane's registers and build B̃ rows with
//! [`Lane::transpose8`]. The B pack transposes eight columns, so every
//! tile is `TM x 8`.
//!
//! Each dtype lists its instances in preference order; the first one the
//! CPU supports is picked once per process and reached through
//! [`GemmScalar`], the tile update and both packs from the same row. A
//! new tile or lane is a new row of these tables.

use crate::pack::{pack_a_lanes, pack_b_lanes, PackFn};
use crate::workspace::WorkspacePool;
use fmm_dense::{MatRef, Scalar};
use std::any::Any;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Raw generic micro-kernel signature: `acc` (an `MR x NR` column-major
/// tile of `T`) accumulates the rank-`kc` product of two packed panels.
///
/// # Safety
/// `a` must point to `kc * MR` readable elements, `b` to `kc * NR`, and
/// `acc` to `MR * NR` writable elements, for the `MR`/`NR` of `T`.
pub type MicroKernelFn<T> = unsafe fn(kc: usize, a: *const T, b: *const T, acc: *mut T);

/// One destination of a generalized GEMM in raw-pointer form: element
/// `(0, 0)` of a view of `C` at strides `rs`/`cs`, and the coefficient `w`
/// in `C += w * P`. `Copy`, so the driver's `ic` workers
/// and the micro-kernel share one list of them. Writes through it are only
/// sound while the `&mut` view it was taken from is live and writers touch
/// disjoint element sets.
#[derive(Clone, Copy, Debug)]
pub struct RawDest<T> {
    pub ptr: *mut T,
    pub rs: isize,
    pub cs: isize,
    pub coeff: T,
}

// SAFETY: see the invariant on the type — the parallel `ic` loop partitions
// writers by disjoint row ranges, and the inline one is single threaded.
// The pointer itself is as sendable as the `&mut` it came from.
unsafe impl<T: Scalar> Send for RawDest<T> {}
// SAFETY: shared `RawDest`s are only read (copied) by the workers, and
// the writes through their pointers are disjoint, as for `Send` above.
unsafe impl<T: Scalar> Sync for RawDest<T> {}

impl<T> RawDest<T> {
    /// The address of element `(i, j)`.
    ///
    /// # Safety
    /// `(i, j)` lies inside the view.
    #[inline(always)]
    unsafe fn at(&self, i: usize, j: usize) -> *mut T {
        // SAFETY: the caller's contract.
        unsafe { self.ptr.offset(i as isize * self.rs + j as isize * self.cs) }
    }
}

/// Where a [`TileUpdateFn`] writes: the tile whose element `(0, 0)` is at
/// row `i`, column `j` of every destination, of which the first `rows` of
/// `T::MR` rows and `cols` of `T::NR` columns lie inside the destinations
/// (`1 <= rows <= MR`, `1 <= cols <= NR`). A full tile has `rows = MR` and
/// `cols = NR`; an edge tile fewer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    pub i: usize,
    pub j: usize,
    pub rows: usize,
    pub cols: usize,
}

/// The micro-kernel with the C-update in it (the paper's §4.1 ABC
/// epilogue): the rank-`kc` product `P` of two packed panels, kept in
/// registers, is added into the valid part of `tile` in every destination
/// as `C += w * P` — or, with `store`, written as `C = w * P`. Each element
/// gets `C + w * P`, multiply then add. Nothing outside the valid part is
/// read or written.
///
/// # Safety
/// As [`MicroKernelFn`] for `a` and `b`; every destination must be valid
/// for reads and writes of the valid part of `tile`, and no two
/// destinations' tiles may overlap.
pub type TileUpdateFn<T> =
    unsafe fn(kc: usize, a: *const T, b: *const T, dests: &[RawDest<T>], tile: Tile, store: bool);

/// The per-scalar kernel dispatch the generic GEMM driver runs on: the
/// register tile shape, the runtime-selected micro-kernel, and the
/// process-wide packing-workspace pool for this dtype.
pub trait GemmScalar: Scalar {
    /// Micro-tile rows the kernels of this scalar compute.
    const MR: usize;
    /// Micro-tile columns.
    const NR: usize;

    /// The best micro-kernel for the running CPU (detected once): its
    /// [`GemmScalar::tile_update`] into the one destination `acc`.
    fn micro_kernel() -> MicroKernelFn<Self> {
        accumulate::<Self>
    }
    /// Name of the kernel [`GemmScalar::micro_kernel`] runs.
    fn micro_kernel_name() -> &'static str;
    /// The same instance's update of a destination list.
    fn tile_update() -> TileUpdateFn<Self>;
    /// The process-wide packing-workspace pool for this dtype (each scalar
    /// gets its own, so `f32` and `f64` traffic never trade buffers).
    fn global_pool() -> &'static WorkspacePool<Self>;
}

impl GemmScalar for f64 {
    const MR: usize = 16;
    const NR: usize = 8;
    fn micro_kernel_name() -> &'static str {
        selected(&F64_CHOICE, F64_KERNELS).name
    }
    fn tile_update() -> TileUpdateFn<f64> {
        selected(&F64_CHOICE, F64_KERNELS).update
    }
    fn global_pool() -> &'static WorkspacePool<f64> {
        static POOL: WorkspacePool<f64> = WorkspacePool::new();
        &POOL
    }
}

impl GemmScalar for f32 {
    const MR: usize = 32;
    const NR: usize = 8;
    fn micro_kernel_name() -> &'static str {
        selected(&F32_CHOICE, F32_KERNELS).name
    }
    fn tile_update() -> TileUpdateFn<f32> {
        selected(&F32_CHOICE, F32_KERNELS).update
    }
    fn global_pool() -> &'static WorkspacePool<f32> {
        static POOL: WorkspacePool<f32> = WorkspacePool::new();
        &POOL
    }
}

/// [`GemmScalar::micro_kernel`]: the selected tile update with one
/// destination, the column-major `MR x NR` tile `acc` at coefficient 1.
/// That is `acc + 1·P`, which has the bits of `acc + P`.
///
/// # Safety
/// As [`MicroKernelFn`].
unsafe fn accumulate<T: GemmScalar>(kc: usize, a: *const T, b: *const T, acc: *mut T) {
    let (rows, cols) = (T::MR, T::NR);
    let dest = RawDest { ptr: acc, rs: 1, cs: rows as isize, coeff: T::ONE };
    // SAFETY: the panels are as the caller promises, and `acc` is the one
    // destination, holding the full tile at (0, 0).
    unsafe { T::tile_update()(kc, a, b, &[dest], Tile { i: 0, j: 0, rows, cols }, false) }
}

/// One row of a dtype's instance table: the micro-kernel's tile update
/// and the packs that feed it, all compiled for one lane.
#[derive(Clone, Copy)]
pub(crate) struct Instance<T> {
    pub(crate) name: &'static str,
    pub(crate) supported: fn() -> bool,
    update: TileUpdateFn<T>,
    pub(crate) packs: Packs<T>,
    /// The lane width and the sub-tile, `(W, MV, NR)`, which the tests
    /// report the edge paths of.
    #[cfg(test)]
    shape: (usize, usize, usize),
}

/// A row's packs of column-major terms, and the tile they pack for.
#[derive(Clone, Copy)]
pub(crate) struct Packs<T> {
    pub(crate) mr: usize,
    pub(crate) nr: usize,
    /// `Ã` micro-panels of height `mr` ([`crate::pack::pack_a_lanes`]).
    pub(crate) a: PackFn<T>,
    /// `B̃` micro-panels of width `nr` ([`crate::pack::pack_b_lanes`]).
    pub(crate) b: PackFn<T>,
}

impl<T: GemmScalar> Instance<T> {
    /// [`update`] on lane `L`, running the `TM x TN` tile as `MV * L::W x NR`
    /// sub-tiles; a tile other than `T`'s, or a sub-tile that does not
    /// divide it, fails to compile.
    const fn new<
        L: Lane<Elem = T>,
        const MV: usize,
        const NR: usize,
        const TM: usize,
        const TN: usize,
    >(
        name: &'static str,
    ) -> Self {
        assert!(TM == T::MR && TN == T::NR, "instance tile is not T::MR x T::NR");
        assert!(
            TM.is_multiple_of(MV * L::W) && TN.is_multiple_of(NR),
            "sub-tile does not divide the tile"
        );
        assert!(TN == 8, "the B pack transposes eight columns");
        Self {
            name,
            supported: L::supported,
            update: L::update_instance::<MV, NR, TM, TN>,
            packs: Packs { mr: TM, nr: TN, a: L::pack_a_instance::<TM>, b: L::pack_b_instance },
            #[cfg(test)]
            shape: (L::W, MV, NR),
        }
    }
}

pub(crate) static F64_KERNELS: &[Instance<f64>] = &[
    #[cfg(target_arch = "x86_64")]
    Instance::new::<__m512d, 2, 8, 16, 8>("avx512f_16x8"),
    #[cfg(target_arch = "x86_64")]
    Instance::new::<__m256d, 2, 4, 16, 8>("avx2_fma_16x8"),
    Instance::new::<[f64; 4], 1, 4, 16, 8>("portable_16x8"),
];

pub(crate) static F32_KERNELS: &[Instance<f32>] = &[
    #[cfg(target_arch = "x86_64")]
    Instance::new::<__m512, 2, 8, 32, 8>("avx512f_32x8"),
    #[cfg(target_arch = "x86_64")]
    Instance::new::<__m256, 2, 4, 32, 8>("avx2_fma_32x8"),
    Instance::new::<[f32; 8], 1, 4, 32, 8>("portable_32x8"),
];

static F64_CHOICE: OnceLock<Instance<f64>> = OnceLock::new();
static F32_CHOICE: OnceLock<Instance<f32>> = OnceLock::new();

/// The first row of `table` this CPU supports, found once into `choice`.
fn selected<T: Copy>(choice: &'static OnceLock<Instance<T>>, table: &[Instance<T>]) -> Instance<T> {
    let first = || table.iter().copied().find(|row| (row.supported)());
    *choice.get_or_init(|| first().expect("the portable row runs everywhere"))
}

/// The packs of `T`'s selected row, the row [`GemmScalar::micro_kernel`]
/// comes from; `None` for a scalar with no kernel table. Reached through
/// `Any`, so that packing, generic over every [`Scalar`], runs the lane
/// the kernel runs.
pub(crate) fn selected_packs<T: Scalar>() -> Option<Packs<T>> {
    let mut packs: Option<Packs<T>> = None;
    let slot: &mut dyn Any = &mut packs;
    if let Some(slot) = slot.downcast_mut::<Option<Packs<f64>>>() {
        *slot = Some(selected(&F64_CHOICE, F64_KERNELS).packs);
    } else if let Some(slot) = slot.downcast_mut::<Option<Packs<f32>>>() {
        *slot = Some(selected(&F32_CHOICE, F32_KERNELS).packs);
    }
    packs
}

/// The widest lane, in elements ([`Lane::transpose8`]'s scratch).
const MAX_W: usize = 16;

/// `W` elements the kernel moves and multiplies as one: a SIMD vector or an array.
///
/// # Safety
/// Every `unsafe` method needs a CPU with the lane's target features (what
/// [`Lane::supported`] checks), and pointers valid for `W` elements.
pub(crate) trait Lane: Copy {
    type Elem: Scalar;
    const W: usize;
    /// Whether this CPU has the lane's target features.
    fn supported() -> bool;
    /// # Safety
    /// See [`Lane`].
    unsafe fn load(p: *const Self::Elem) -> Self;
    /// # Safety
    /// See [`Lane`].
    unsafe fn splat(x: Self::Elem) -> Self;
    /// # Safety
    /// See [`Lane`]. `c + self * b`, fused for SIMD lanes, unfused for arrays.
    unsafe fn mul_add(self, b: Self, c: Self) -> Self;
    /// # Safety
    /// See [`Lane`].
    unsafe fn mul(self, b: Self) -> Self;
    /// # Safety
    /// See [`Lane`].
    unsafe fn add(self, b: Self) -> Self;
    /// # Safety
    /// See [`Lane`]. Adds `self` into the `W` elements at `p`.
    unsafe fn add_store(self, p: *mut Self::Elem);
    /// # Safety
    /// See [`Lane`]. Writes `self` over the `W` elements at `p`.
    unsafe fn store(self, p: *mut Self::Elem);
    /// The `n < W` elements at `p`, then zeros. The elements past `n` are
    /// not read, so they may lie outside any allocation.
    ///
    /// # Safety
    /// See [`Lane`], with `p` valid for `n` reads.
    unsafe fn load_first(p: *const Self::Elem, n: usize) -> Self;
    /// Writes the first `n < W` elements of `self` over those at `p`,
    /// and nothing past them.
    ///
    /// # Safety
    /// See [`Lane`], with `p` valid for `n` writes.
    unsafe fn store_first(self, p: *mut Self::Elem, n: usize);
    /// The `W x 8` block whose column `j` is `cols[j]`, as the `W` rows of
    /// eight it holds laid end to end and cut into lanes: element `(p, j)`
    /// lands at `p * 8 + j`. SIMD lanes override this with shuffles; here
    /// it goes through the stack.
    ///
    /// # Safety
    /// See [`Lane`].
    #[inline(always)]
    unsafe fn transpose8(cols: [Self; 8]) -> [Self; 8] {
        const { assert!(Self::W <= MAX_W, "lane wider than the transpose scratch") };
        let zero = Self::Elem::ZERO;
        let (mut col, mut rows) = ([zero; MAX_W], [zero; 8 * MAX_W]);
        // SAFETY: the features are present (the contract), `col` holds
        // `W` elements and `rows` `8 * W`.
        unsafe {
            for (j, c) in cols.iter().enumerate() {
                c.store(col.as_mut_ptr());
                for (p, x) in col[..Self::W].iter().enumerate() {
                    rows[p * 8 + j] = *x;
                }
            }
            std::array::from_fn(|v| Self::load(rows.as_ptr().add(v * Self::W)))
        }
    }
    /// # Safety
    /// As [`pack_a_lanes`] at height `TM`, and the CPU has the lane's
    /// features; overridden as [`Lane::update_instance`] is.
    unsafe fn pack_a_instance<const TM: usize>(
        dst: &mut [Self::Elem],
        terms: &[(Self::Elem, MatRef<'_, Self::Elem>)],
    ) {
        // SAFETY: forwarded contract.
        unsafe { pack_a_lanes::<Self, TM>(dst, terms) }
    }
    /// # Safety
    /// As [`pack_b_lanes`], and the CPU has the lane's features;
    /// overridden as [`Lane::update_instance`] is.
    unsafe fn pack_b_instance(
        dst: &mut [Self::Elem],
        terms: &[(Self::Elem, MatRef<'_, Self::Elem>)],
    ) {
        // SAFETY: forwarded contract.
        unsafe { pack_b_lanes::<Self>(dst, terms) }
    }
    /// # Safety
    /// As [`update`], which this is at `MV x NR` sub-tiles of `TM x TN`.
    /// SIMD lanes override it to compile the update with their target
    /// features.
    unsafe fn update_instance<
        const MV: usize,
        const NR: usize,
        const TM: usize,
        const TN: usize,
    >(
        kc: usize,
        a: *const Self::Elem,
        b: *const Self::Elem,
        dests: &[RawDest<Self::Elem>],
        tile: Tile,
        store: bool,
    ) {
        // SAFETY: forwarded contract.
        unsafe { update::<Self, MV, NR, TM, TN>(kc, a, b, dests, tile, store) }
    }
}

/// `Ã * B̃` over depth `kc` for an `MV * L::W x NR` sub-tile, in `MV * NR`
/// lanes that start at zero. The sub-tile's rows are read from `a` and its
/// columns from `b`, at `tm` and `tn` elements per depth step: the panels
/// of the whole tile the sub-tile lies in. The depth loop is unrolled
/// twice; each lane's chain stays in depth order.
///
/// # Safety
/// The CPU has `L`'s target features; for every depth `p < kc`, the
/// `MV * L::W` elements at `a + p * tm` and the `NR` at `b + p * tn` are
/// readable.
#[inline(always)]
unsafe fn product<L: Lane, const MV: usize, const NR: usize>(
    kc: usize,
    a: *const L::Elem,
    b: *const L::Elem,
    tm: usize,
    tn: usize,
) -> [[L; MV]; NR] {
    // SAFETY: `L`'s features are present, and every offset stays within
    // the panels.
    unsafe {
        let mut c = [[L::splat(L::Elem::ZERO); MV]; NR];
        let (mut ap, mut bp) = (a, b);
        for _ in 0..kc / 2 {
            step(&mut c, ap, bp);
            step(&mut c, ap.add(tm), bp.add(tn));
            ap = ap.add(2 * tm);
            bp = bp.add(2 * tn);
        }
        if kc % 2 == 1 {
            step(&mut c, ap, bp);
        }
        c
    }
}

/// `C_d (+)= w_d * (Ã * B̃)` on the valid part of `tile` in every
/// destination. A full tile of column-major destinations runs [`full`];
/// any other tile [`edge`].
///
/// # Safety
/// The CPU has `L`'s target features; `a` points to `kc * TM` readable
/// elements and `b` to `kc * TN`; `dests` and `tile` are as the
/// [`TileUpdateFn`] contract says.
#[inline(always)]
unsafe fn update<L: Lane, const MV: usize, const NR: usize, const TM: usize, const TN: usize>(
    kc: usize,
    a: *const L::Elem,
    b: *const L::Elem,
    dests: &[RawDest<L::Elem>],
    tile: Tile,
    store: bool,
) {
    // SAFETY: forwarded contract; `full` gets only the full tile of
    // column-major destinations it needs.
    unsafe {
        if tile.rows == TM && tile.cols == TN && dests.iter().all(|d| d.rs == 1) {
            full::<L, MV, NR, TM, TN>(kc, a, b, dests, tile.i, tile.j, store)
        } else {
            edge::<L, MV, NR, TM, TN>(kc, a, b, dests, tile, store)
        }
    }
}

/// [`update`] of a full tile at `(i, j)` of column-major destinations,
/// straight from each sub-tile's [`product`] registers: per destination
/// and column, `MV` vector multiplies, then loads, adds and stores. Every
/// loop bound is static, so the accumulators stay in registers.
///
/// # Safety
/// As [`update`], with every destination of unit row stride and holding
/// the full tile at `(i, j)`.
#[inline(always)]
unsafe fn full<L: Lane, const MV: usize, const NR: usize, const TM: usize, const TN: usize>(
    kc: usize,
    a: *const L::Elem,
    b: *const L::Elem,
    dests: &[RawDest<L::Elem>],
    i: usize,
    j: usize,
    store: bool,
) {
    // SAFETY: as above; each destination holds the full tile at `(i, j)`.
    unsafe {
        let tile = |d: &RawDest<L::Elem>, jj: usize| d.ptr.add(i).offset((j + jj) as isize * d.cs);
        // Ask for every destination column's first and last element now,
        // so the C misses overlap the depth loop instead of following it.
        for d in dests {
            for jj in 0..TN {
                prefetch(tile(d, jj));
                prefetch(tile(d, jj).add(TM - 1));
            }
        }
        for j0 in (0..TN).step_by(NR) {
            for i0 in (0..TM).step_by(MV * L::W) {
                let c = product::<L, MV, NR>(kc, a.add(i0), b.add(j0), TM, TN);
                for d in dests {
                    let w = L::splat(d.coeff);
                    for (jj, col) in c.iter().enumerate() {
                        let cj = tile(d, j0 + jj).add(i0);
                        for (v, lane) in col.iter().enumerate() {
                            let (x, p) = (lane.mul(w), cj.add(v * L::W));
                            if store {
                                x.store(p);
                            } else {
                                x.add_store(p);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// [`update`] of an edge tile, or of any tile with a destination of
/// non-unit row stride: only the sub-tiles that hold valid elements run,
/// each on the narrowest sub-tile that covers its valid part — one lane
/// of rows (`MV = 1`) when at most `W` rows are valid, four columns when
/// at most four are — and [`edge_sub_tile`] writes the valid part.
///
/// # Safety
/// As [`update`].
#[inline(always)]
unsafe fn edge<L: Lane, const MV: usize, const NR: usize, const TM: usize, const TN: usize>(
    kc: usize,
    a: *const L::Elem,
    b: *const L::Elem,
    dests: &[RawDest<L::Elem>],
    tile: Tile,
    store: bool,
) {
    // SAFETY: as above; every sub-tile read lies inside the `TM x TN`
    // panels (a narrow one inside the sub-tile it replaces), and every
    // write inside the valid part of `tile`.
    unsafe {
        for d in dests {
            for jj in 0..tile.cols {
                prefetch(d.at(tile.i, tile.j + jj));
                prefetch(d.at(tile.i + tile.rows - 1, tile.j + jj));
            }
        }
        for j0 in (0..tile.cols).step_by(NR) {
            for i0 in (0..tile.rows).step_by(MV * L::W) {
                let (a, b, panels) = (a.add(i0), b.add(j0), (TM, TN));
                let sub = Tile {
                    i: tile.i + i0,
                    j: tile.j + j0,
                    rows: (tile.rows - i0).min(MV * L::W),
                    cols: (tile.cols - j0).min(NR),
                };
                match (MV > 1 && sub.rows <= L::W, NR > 4 && sub.cols <= 4) {
                    (false, false) => {
                        edge_sub_tile::<L, MV, NR>(kc, a, b, panels, dests, sub, store)
                    }
                    (true, false) => edge_sub_tile::<L, 1, NR>(kc, a, b, panels, dests, sub, store),
                    (false, true) => edge_sub_tile::<L, MV, 4>(kc, a, b, panels, dests, sub, store),
                    (true, true) => edge_sub_tile::<L, 1, 4>(kc, a, b, panels, dests, sub, store),
                }
            }
        }
    }
}

/// The [`product`] of one `MV * L::W x NR` sub-tile of `tm x tn` panels,
/// written into the valid part of `sub` in every destination: spilled to
/// the stack once the depth loop is done, then, per destination and valid
/// column, a lane at a time (the last one masked) into a column-major
/// destination, or an element at a time into any other. The writes are
/// bounded by the valid rows and columns at run time, so they read the
/// spill and the depth loop keeps its accumulators in registers.
///
/// # Safety
/// As [`product`] for `a` and `b`, and as [`update`] for `dests` at `sub`,
/// which has at most `MV * L::W` rows and `NR` columns.
#[inline(always)]
unsafe fn edge_sub_tile<L: Lane, const MV: usize, const NR: usize>(
    kc: usize,
    a: *const L::Elem,
    b: *const L::Elem,
    (tm, tn): (usize, usize),
    dests: &[RawDest<L::Elem>],
    sub: Tile,
    store: bool,
) {
    const {
        let elem = std::mem::size_of::<L::Elem>();
        assert!(std::mem::size_of::<L>() == L::W * elem, "a lane is not W packed elements");
    };
    // SAFETY: as above; the spill holds the `MV * L::W x NR` sub-tile,
    // column-major, and every write lies inside the valid part of `sub`.
    unsafe {
        let c = product::<L, MV, NR>(kc, a, b, tm, tn);
        let mut spill = [[L::splat(L::Elem::ZERO); MV]; NR];
        let s = spill.as_mut_ptr().cast::<L::Elem>();
        for (jj, col) in c.iter().enumerate() {
            for (v, lane) in col.iter().enumerate() {
                lane.store(s.add((jj * MV + v) * L::W));
            }
        }
        for d in dests {
            let w = L::splat(d.coeff);
            for jj in 0..sub.cols {
                let (src, cj) = (s.add(jj * MV * L::W), d.at(sub.i, sub.j + jj));
                if d.rs == 1 {
                    for i0 in (0..sub.rows).step_by(L::W) {
                        let x = L::load(src.add(i0)).mul(w);
                        write_first(x, cj.add(i0), L::W.min(sub.rows - i0), store);
                    }
                } else {
                    for e in 0..sub.rows {
                        let (x, p) = (d.coeff * *src.add(e), cj.offset(e as isize * d.rs));
                        *p = if store { x } else { *p + x };
                    }
                }
            }
        }
    }
}

/// `x` added into (or, with `store`, written over) the first `n <= W`
/// elements at `p`: a whole lane, or a masked one.
///
/// # Safety
/// The CPU has `L`'s target features, and `p` is valid for `n` reads and
/// writes.
#[inline(always)]
pub(crate) unsafe fn write_first<L: Lane>(x: L, p: *mut L::Elem, n: usize, store: bool) {
    // SAFETY: the caller's contract.
    unsafe {
        match (n == L::W, store) {
            (true, true) => x.store(p),
            (true, false) => x.add_store(p),
            (false, true) => x.store_first(p, n),
            (false, false) => L::load_first(p, n).add(x).store_first(p, n),
        }
    }
}

/// A hint to load the cache line holding `p`; it never faults.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    // SAFETY: a prefetch reads nothing the program observes and does not
    // fault on any address; SSE, which it needs, is in the x86_64 baseline.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        _mm_prefetch::<_MM_HINT_T0>(p.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One depth step: `c[j][v] += a[v] * b[j]`.
///
/// # Safety
/// As [`product`] at `kc = 1`.
#[inline(always)]
unsafe fn step<L: Lane, const MV: usize, const NR: usize>(
    c: &mut [[L; MV]; NR],
    a: *const L::Elem,
    b: *const L::Elem,
) {
    // SAFETY: `L`'s features are present and the reads stay within the
    // `MV * L::W` column of `a` and the `NR` row of `b`.
    unsafe {
        let mut av = [L::splat(L::Elem::ZERO); MV];
        for (v, x) in av.iter_mut().enumerate() {
            *x = L::load(a.add(v * L::W));
        }
        for (j, col) in c.iter_mut().enumerate() {
            let bj = L::splat(*b.add(j));
            for (x, cv) in av.iter().zip(col.iter_mut()) {
                *cv = x.mul_add(bj, *cv);
            }
        }
    }
}

/// The portable lane: plain arithmetic that LLVM vectorises for the
/// baseline target. It multiplies, then adds, unfused, so hosts without
/// FMA never pay for a libm call.
impl<T: Scalar, const N: usize> Lane for [T; N] {
    type Elem = T;
    const W: usize = N;
    fn supported() -> bool {
        true
    }
    // SAFETY: `p` is valid for `N` reads (the `Lane` contract).
    #[inline(always)]
    unsafe fn load(p: *const T) -> Self {
        // SAFETY: as above; an unaligned read needs no more than that.
        unsafe { p.cast::<[T; N]>().read_unaligned() }
    }
    // SAFETY: no requirement; `unsafe` only to match the trait.
    #[inline(always)]
    unsafe fn splat(x: T) -> Self {
        [x; N]
    }
    // SAFETY: no requirement; `unsafe` only to match the trait.
    #[inline(always)]
    unsafe fn mul_add(self, b: Self, c: Self) -> Self {
        std::array::from_fn(|i| c[i] + self[i] * b[i])
    }
    // SAFETY: no requirement; `unsafe` only to match the trait.
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        std::array::from_fn(|i| self[i] * b[i])
    }
    // SAFETY: no requirement; `unsafe` only to match the trait.
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        std::array::from_fn(|i| self[i] + b[i])
    }
    // SAFETY: `p` is valid for `N` reads and writes (the `Lane` contract).
    #[inline(always)]
    unsafe fn add_store(self, p: *mut T) {
        for (i, x) in self.into_iter().enumerate() {
            // SAFETY: as above, and `i < N`.
            unsafe { *p.add(i) += x };
        }
    }
    // SAFETY: `p` is valid for `N` writes (the `Lane` contract).
    #[inline(always)]
    unsafe fn store(self, p: *mut T) {
        // SAFETY: as above; an unaligned write needs no more than that.
        unsafe { p.cast::<[T; N]>().write_unaligned(self) }
    }
    // SAFETY: `p` is valid for `n` reads (the `Lane` contract).
    #[inline(always)]
    unsafe fn load_first(p: *const T, n: usize) -> Self {
        let mut x = [T::ZERO; N];
        for (i, x) in x.iter_mut().enumerate().take(n) {
            // SAFETY: as above, and `i < n`.
            *x = unsafe { *p.add(i) };
        }
        x
    }
    // SAFETY: `p` is valid for `n` writes (the `Lane` contract).
    #[inline(always)]
    unsafe fn store_first(self, p: *mut T, n: usize) {
        for (i, x) in self.into_iter().enumerate().take(n) {
            // SAFETY: as above, and `i < n`.
            unsafe { *p.add(i) = x };
        }
    }
}

/// [`Lane`] for `std::arch` vectors: per lane its type, element, width and
/// target features, then its load, broadcast, FMA, multiply, add, store,
/// the mask of its first `n` elements with the masked load and store that
/// take it, and its 8-column transpose.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_lanes {
    ($($lane:ty, $elem:ty, $w:literal, [$($feature:tt),+],
       $load:ident, $set1:ident, $fmadd:ident, $mul:ident, $add:ident, $store:ident,
       $mask:ident, $mask_load:ident, $mask_store:ident, $transpose:ident;)+) => {$(
        impl Lane for $lane {
            type Elem = $elem;
            const W: usize = $w;
            fn supported() -> bool { $(is_x86_feature_detected!($feature))&&+ }
            // SAFETY: the `Lane` contract: features present, `p` valid for `W`.
            #[inline(always)]
            unsafe fn load(p: *const $elem) -> Self { unsafe { $load(p) } }
            // SAFETY: the `Lane` contract: the features are present.
            #[inline(always)]
            unsafe fn splat(x: $elem) -> Self { unsafe { $set1(x) } }
            // SAFETY: the `Lane` contract: the features are present.
            #[inline(always)]
            unsafe fn mul_add(self, b: Self, c: Self) -> Self { unsafe { $fmadd(self, b, c) } }
            // SAFETY: the `Lane` contract: the features are present.
            #[inline(always)]
            unsafe fn mul(self, b: Self) -> Self { unsafe { $mul(self, b) } }
            // SAFETY: the `Lane` contract: the features are present.
            #[inline(always)]
            unsafe fn add(self, b: Self) -> Self { unsafe { $add(self, b) } }
            // SAFETY: as for `load`.
            #[inline(always)]
            unsafe fn add_store(self, p: *mut $elem) { unsafe { $store(p, $add($load(p), self)) } }
            // SAFETY: as for `load`.
            #[inline(always)]
            unsafe fn store(self, p: *mut $elem) { unsafe { $store(p, self) } }
            #[inline(always)]
            unsafe fn load_first(p: *const $elem, n: usize) -> Self {
                // SAFETY: the `Lane` contract: features present, `p` valid
                // for `n`; masked-off elements are neither read nor faulted on.
                unsafe { $mask_load(p, $mask(n)) }
            }
            #[inline(always)]
            unsafe fn store_first(self, p: *mut $elem, n: usize) {
                // SAFETY: as for `load_first`, for writes.
                unsafe { $mask_store(p, $mask(n), self) }
            }
            // SAFETY: the `Lane` contract: the features are present.
            #[inline(always)]
            unsafe fn transpose8(cols: [Self; 8]) -> [Self; 8] { unsafe { $transpose(cols) } }
            // SAFETY: `update`'s contract, the features included.
            #[target_feature($(enable = $feature),+)]
            unsafe fn update_instance<
                const MV: usize, const NR: usize, const TM: usize, const TN: usize,
            >(
                kc: usize, a: *const $elem, b: *const $elem, dests: &[RawDest<$elem>],
                tile: Tile, store: bool,
            ) {
                // SAFETY: as above.
                unsafe { update::<Self, MV, NR, TM, TN>(kc, a, b, dests, tile, store) }
            }
            // SAFETY: `pack_a_lanes`'s contract, the features included.
            #[target_feature($(enable = $feature),+)]
            unsafe fn pack_a_instance<const TM: usize>(
                dst: &mut [$elem], terms: &[($elem, MatRef<'_, $elem>)],
            ) {
                // SAFETY: as above.
                unsafe { pack_a_lanes::<Self, TM>(dst, terms) }
            }
            // SAFETY: `pack_b_lanes`'s contract, the features included.
            #[target_feature($(enable = $feature),+)]
            unsafe fn pack_b_instance(dst: &mut [$elem], terms: &[($elem, MatRef<'_, $elem>)]) {
                // SAFETY: as above.
                unsafe { pack_b_lanes::<Self>(dst, terms) }
            }
        }
    )+};
}

#[cfg(target_arch = "x86_64")]
x86_lanes! {
    __m512d, f64, 8, ["avx512f"],
        _mm512_loadu_pd, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_mul_pd, _mm512_add_pd,
        _mm512_storeu_pd, first_of_8, maskz_loadu_pd, _mm512_mask_storeu_pd, transpose8_m512d;
    __m512, f32, 16, ["avx512f"],
        _mm512_loadu_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_mul_ps, _mm512_add_ps,
        _mm512_storeu_ps, first_of_16, maskz_loadu_ps, _mm512_mask_storeu_ps, transpose8_m512;
    __m256d, f64, 4, ["avx2", "fma"],
        _mm256_loadu_pd, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_mul_pd, _mm256_add_pd,
        _mm256_storeu_pd, first_of_4x64, _mm256_maskload_pd, _mm256_maskstore_pd,
        transpose8_m256d;
    __m256, f32, 8, ["avx2", "fma"],
        _mm256_loadu_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_mul_ps, _mm256_add_ps,
        _mm256_storeu_ps, first_of_8x32, _mm256_maskload_ps, _mm256_maskstore_ps,
        transpose8_m256;
}

/// The `k` mask of the first `n < 8` elements of a lane of eight.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn first_of_8(n: usize) -> __mmask8 {
    ((1u32 << n) - 1) as __mmask8
}

/// The `k` mask of the first `n < 16` elements of a lane of sixteen.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn first_of_16(n: usize) -> __mmask16 {
    ((1u32 << n) - 1) as __mmask16
}

/// The vector mask (sign bits) of the first `n < 4` of four doubles.
///
/// # Safety
/// The CPU has `avx2`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn first_of_4x64(n: usize) -> __m256i {
    // SAFETY: the caller's contract.
    unsafe { _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3)) }
}

/// The vector mask (sign bits) of the first `n < 8` of eight singles.
///
/// # Safety
/// The CPU has `avx2`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn first_of_8x32(n: usize) -> __m256i {
    // SAFETY: the caller's contract.
    unsafe {
        let index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), index)
    }
}

/// `_mm512_maskz_loadu_pd` with the pointer first, as AVX2's masked loads take it.
///
/// # Safety
/// The CPU has `avx512f`, and `p` is valid for the elements `k` selects.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn maskz_loadu_pd(p: *const f64, k: __mmask8) -> __m512d {
    // SAFETY: the caller's contract.
    unsafe { _mm512_maskz_loadu_pd(k, p) }
}

/// `_mm512_maskz_loadu_ps` with the pointer first, as AVX2's masked loads take it.
///
/// # Safety
/// The CPU has `avx512f`, and `p` is valid for the elements `k` selects.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn maskz_loadu_ps(p: *const f32, k: __mmask16) -> __m512 {
    // SAFETY: the caller's contract.
    unsafe { _mm512_maskz_loadu_ps(k, p) }
}

/// [`Lane::transpose8`] of eight columns of eight doubles: the rows.
///
/// # Safety
/// The CPU has `avx512f`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose8_m512d(c: [__m512d; 8]) -> [__m512d; 8] {
    // SAFETY: the caller's contract.
    unsafe {
        // Columns j and j + 1 interleaved per 128-bit block, at the even
        // depths (`e`) and the odd ones (`o`).
        let e01 = _mm512_unpacklo_pd(c[0], c[1]);
        let o01 = _mm512_unpackhi_pd(c[0], c[1]);
        let e23 = _mm512_unpacklo_pd(c[2], c[3]);
        let o23 = _mm512_unpackhi_pd(c[2], c[3]);
        let e45 = _mm512_unpacklo_pd(c[4], c[5]);
        let o45 = _mm512_unpackhi_pd(c[4], c[5]);
        let e67 = _mm512_unpacklo_pd(c[6], c[7]);
        let o67 = _mm512_unpackhi_pd(c[6], c[7]);
        // Four columns at depths p and p + 4: `l` for columns 0-3, `h` for 4-7.
        let l0 = _mm512_shuffle_f64x2::<0x88>(e01, e23);
        let l2 = _mm512_shuffle_f64x2::<0xDD>(e01, e23);
        let l1 = _mm512_shuffle_f64x2::<0x88>(o01, o23);
        let l3 = _mm512_shuffle_f64x2::<0xDD>(o01, o23);
        let h0 = _mm512_shuffle_f64x2::<0x88>(e45, e67);
        let h2 = _mm512_shuffle_f64x2::<0xDD>(e45, e67);
        let h1 = _mm512_shuffle_f64x2::<0x88>(o45, o67);
        let h3 = _mm512_shuffle_f64x2::<0xDD>(o45, o67);
        [
            _mm512_shuffle_f64x2::<0x88>(l0, h0),
            _mm512_shuffle_f64x2::<0x88>(l1, h1),
            _mm512_shuffle_f64x2::<0x88>(l2, h2),
            _mm512_shuffle_f64x2::<0x88>(l3, h3),
            _mm512_shuffle_f64x2::<0xDD>(l0, h0),
            _mm512_shuffle_f64x2::<0xDD>(l1, h1),
            _mm512_shuffle_f64x2::<0xDD>(l2, h2),
            _mm512_shuffle_f64x2::<0xDD>(l3, h3),
        ]
    }
}

/// [`Lane::transpose8`] of eight columns of eight singles: the rows.
///
/// # Safety
/// The CPU has `avx`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose8_m256(c: [__m256; 8]) -> [__m256; 8] {
    // SAFETY: the caller's contract.
    unsafe {
        // Columns j and j + 1 interleaved per 128-bit half, at depths
        // (0, 1 | 4, 5) (`a`) and (2, 3 | 6, 7) (`b`).
        let a01 = _mm256_unpacklo_ps(c[0], c[1]);
        let b01 = _mm256_unpackhi_ps(c[0], c[1]);
        let a23 = _mm256_unpacklo_ps(c[2], c[3]);
        let b23 = _mm256_unpackhi_ps(c[2], c[3]);
        let a45 = _mm256_unpacklo_ps(c[4], c[5]);
        let b45 = _mm256_unpackhi_ps(c[4], c[5]);
        let a67 = _mm256_unpacklo_ps(c[6], c[7]);
        let b67 = _mm256_unpackhi_ps(c[6], c[7]);
        // Four columns at depths p | p + 4: `l` for columns 0-3, `h` for 4-7.
        let l0 = _mm256_shuffle_ps::<0x44>(a01, a23);
        let l1 = _mm256_shuffle_ps::<0xEE>(a01, a23);
        let l2 = _mm256_shuffle_ps::<0x44>(b01, b23);
        let l3 = _mm256_shuffle_ps::<0xEE>(b01, b23);
        let h0 = _mm256_shuffle_ps::<0x44>(a45, a67);
        let h1 = _mm256_shuffle_ps::<0xEE>(a45, a67);
        let h2 = _mm256_shuffle_ps::<0x44>(b45, b67);
        let h3 = _mm256_shuffle_ps::<0xEE>(b45, b67);
        [
            _mm256_permute2f128_ps::<0x20>(l0, h0),
            _mm256_permute2f128_ps::<0x20>(l1, h1),
            _mm256_permute2f128_ps::<0x20>(l2, h2),
            _mm256_permute2f128_ps::<0x20>(l3, h3),
            _mm256_permute2f128_ps::<0x31>(l0, h0),
            _mm256_permute2f128_ps::<0x31>(l1, h1),
            _mm256_permute2f128_ps::<0x31>(l2, h2),
            _mm256_permute2f128_ps::<0x31>(l3, h3),
        ]
    }
}

/// The 4 x 4 transpose of four columns of four doubles: the rows.
///
/// # Safety
/// The CPU has `avx`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose4_m256d(c0: __m256d, c1: __m256d, c2: __m256d, c3: __m256d) -> [__m256d; 4] {
    // SAFETY: the caller's contract.
    unsafe {
        let e01 = _mm256_unpacklo_pd(c0, c1);
        let o01 = _mm256_unpackhi_pd(c0, c1);
        let e23 = _mm256_unpacklo_pd(c2, c3);
        let o23 = _mm256_unpackhi_pd(c2, c3);
        [
            _mm256_permute2f128_pd::<0x20>(e01, e23),
            _mm256_permute2f128_pd::<0x20>(o01, o23),
            _mm256_permute2f128_pd::<0x31>(e01, e23),
            _mm256_permute2f128_pd::<0x31>(o01, o23),
        ]
    }
}

/// [`Lane::transpose8`] of eight columns of four doubles: per depth, the
/// row's first four columns, then its last four.
///
/// # Safety
/// The CPU has `avx`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose8_m256d(c: [__m256d; 8]) -> [__m256d; 8] {
    // SAFETY: the caller's contract.
    unsafe {
        let l = transpose4_m256d(c[0], c[1], c[2], c[3]);
        let r = transpose4_m256d(c[4], c[5], c[6], c[7]);
        [l[0], r[0], l[1], r[1], l[2], r[2], l[3], r[3]]
    }
}

/// `a` then `b` in one 512-bit lane.
///
/// # Safety
/// The CPU has `avx512f`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn join_m256(a: __m256, b: __m256) -> __m512 {
    // SAFETY: the caller's contract.
    unsafe {
        let a = _mm512_castpd256_pd512(_mm256_castps_pd(a));
        _mm512_castpd_ps(_mm512_insertf64x4::<1>(a, _mm256_castps_pd(b)))
    }
}

/// [`Lane::transpose8`] of eight columns of sixteen singles: two rows per
/// lane, from two 8 x 8 transposes of the columns' halves.
///
/// # Safety
/// The CPU has `avx512f`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose8_m512(c: [__m512; 8]) -> [__m512; 8] {
    // SAFETY: the caller's contract (`avx512f` implies `avx`).
    unsafe {
        let (mut lo, mut hi) = ([_mm256_setzero_ps(); 8], [_mm256_setzero_ps(); 8]);
        for j in 0..8 {
            let x = _mm512_castps_pd(c[j]);
            lo[j] = _mm256_castpd_ps(_mm512_castpd512_pd256(x));
            hi[j] = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(x));
        }
        let (lo, hi) = (transpose8_m256(lo), transpose8_m256(hi));
        let mut rows = [_mm512_setzero_ps(); 8];
        for v in 0..4 {
            rows[v] = join_m256(lo[2 * v], lo[2 * v + 1]);
            rows[v + 4] = join_m256(hi[2 * v], hi[2 * v + 1]);
        }
        rows
    }
}

#[cfg(test)]
impl<T> Instance<T> {
    /// The edge paths this row's update has: masked lanes always, and the
    /// narrow sub-tiles its sub-tile is wider than.
    pub(crate) fn edge_paths(&self) -> String {
        let (w, mv, nr) = self.shape;
        let mut paths = vec![format!("masked lanes of {w}")];
        if mv > 1 {
            paths.push(format!("narrow MV ({w}x{nr} for {}x{nr})", mv * w));
        }
        if nr > 4 {
            paths.push(format!("narrow NR ({}x4 for {}x{nr})", mv * w, mv * w));
        }
        paths.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Odd and even depths (the unroll's remainder), and both sides of 256.
    const DEPTHS: [usize; 10] = [0, 1, 2, 3, 5, 64, 173, 255, 256, 257];
    /// The depths at which every edge shape runs, not just the full tile.
    const EDGE_DEPTHS: [usize; 4] = [0, 1, 2, 257];

    /// A fused multiply-add `x * y + c`, or `None` for multiply-then-add.
    type Fma<T> = Option<fn(T, T, T) -> T>;

    /// Values in [-1, 1) whose products round, so a fused and an unfused
    /// multiply-add, or two orders of one chain, give different bits.
    fn values<T: Scalar>(len: usize, seed: u64) -> Vec<T> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                T::from_f64((s >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
            })
            .collect()
    }

    fn assert_bits<T: Scalar>(got: T, want: T, what: std::fmt::Arguments<'_>) {
        assert_eq!(
            got.to_f64().to_bits(),
            want.to_f64().to_bits(),
            "{what}: got {got}, want {want}"
        );
    }

    /// Every element of an `mr x nr` product of `kc`-deep panels as a
    /// scalar replay of its chain: `c = 0`, then `c = fma(a, b, c)` (or
    /// `c + a * b`) in depth order. Column-major, with the panels.
    fn chains<T: Scalar>(kc: usize, mr: usize, nr: usize, fma: Fma<T>) -> (Vec<T>, Vec<T>, Vec<T>) {
        let (a, b) = (values::<T>(kc * mr, 1), values::<T>(kc * nr, 2));
        let mut c = vec![T::ZERO; mr * nr];
        for j in 0..nr {
            for i in 0..mr {
                for p in 0..kc {
                    let (x, y, acc) = (a[p * mr + i], b[p * nr + j], c[i + j * mr]);
                    c[i + j * mr] = fma.map_or(acc + x * y, |f| f(x, y, acc));
                }
            }
        }
        (c, a, b)
    }

    /// Run an `mr x nr` tile update on lanes of `w` and check each element
    /// bit for bit against [`chains`], at every edge shape: rows 1, `w - 1`,
    /// `w`, `w + 1`, `mr - 1` and `mr` against columns 1, 3, 4, 5, 7 and 8,
    /// those inside the tile, the full tile among them. Each shape writes
    /// the tile at (1, 2) of two destinations, one of coefficient 1 and one
    /// whose products round, column-major and row-major, accumulating
    /// (`C + w * c`, multiply then add) and storing (`w * c`); nothing
    /// outside the tile's valid part may change. The full tile runs at
    /// every one of [`DEPTHS`], the edge shapes at [`EDGE_DEPTHS`].
    fn check<T: GemmScalar>(
        name: &str,
        update: TileUpdateFn<T>,
        (mr, nr): (usize, usize),
        w: usize,
        fma: Fma<T>,
    ) {
        let mut rows: Vec<usize> =
            [1, w - 1, w, w + 1, mr - 1, mr].into_iter().filter(|r| (1..=mr).contains(r)).collect();
        rows.dedup();
        let cols: Vec<usize> = [1, 3, 4, 5, 7, 8].into_iter().filter(|c| *c <= nr).collect();
        for kc in DEPTHS {
            let (chain, a, b) = chains::<T>(kc, mr, nr, fma);
            let (ld, width) = (mr + 5, nr + 4);
            let coeffs = [T::ONE, T::from_f64(-0.75)];
            let shapes = rows.iter().flat_map(|&r| cols.iter().map(move |&c| (r, c)));
            let edges = EDGE_DEPTHS.contains(&kc);
            for (r, c_valid) in shapes.filter(|&shape| edges || shape == (mr, nr)) {
                for (store, row_major) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let (rs, cs) = if row_major { (width, 1) } else { (1, ld) };
                    let c0 = values::<T>(2 * ld * width, 4);
                    let mut c = c0.clone();
                    let base = c.as_mut_ptr();
                    let dests = [0, 1].map(|d| RawDest {
                        ptr: base.wrapping_add(d * ld * width),
                        rs: rs as isize,
                        cs: cs as isize,
                        coeff: coeffs[d],
                    });
                    let tile = Tile { i: 1, j: 2, rows: r, cols: c_valid };
                    // SAFETY: each destination is one `ld x width` half of
                    // `c`, which holds the tile at (1, 2) at either layout;
                    // the panels hold `kc * mr` and `kc * nr` elements, and
                    // callers pass only instances this CPU supports.
                    unsafe { update(kc, a.as_ptr(), b.as_ptr(), &dests, tile, store) };
                    for (d, w) in coeffs.into_iter().enumerate() {
                        for col in 0..width {
                            for row in 0..ld {
                                let at = d * ld * width + row * rs + col * cs;
                                let inside =
                                    (1..=r).contains(&row) && (2..2 + c_valid).contains(&col);
                                let want = if inside {
                                    let p = w * chain[row - 1 + (col - 2) * mr];
                                    if store {
                                        p
                                    } else {
                                        c0[at] + p
                                    }
                                } else {
                                    c0[at]
                                };
                                let what = format_args!(
                                    "{name} {mr}x{nr} kc={kc} tile {r}x{c_valid} store={store} \
                                     row_major={row_major} dest {d} ({row}, {col})"
                                );
                                assert_bits(c[at], want, what);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Portable rows multiply, then add; every other row fuses.
    fn fma_of<T>(row: &Instance<T>, fma: fn(T, T, T) -> T) -> Fma<T> {
        (!row.name.starts_with("portable")).then_some(fma)
    }

    /// The one source on lane `L` at a tile no production instance uses,
    /// `TM x TN` as `MV·W x NR` sub-tiles, if this CPU supports the lane.
    fn check_tiles<L: Lane, const MV: usize, const NR: usize, const TM: usize, const TN: usize>(
        fma: Fma<L::Elem>,
    ) where
        L::Elem: GemmScalar,
    {
        if L::supported() {
            check("test tile", L::update_instance::<MV, NR, TM, TN>, (TM, TN), L::W, fma);
        }
    }

    /// `T::micro_kernel()` runs the first row of `table` this CPU supports,
    /// whose update is checked, and from a non-zero `acc` gives `acc + c`.
    fn check_selected<T: GemmScalar>(table: &[Instance<T>], fma: fn(T, T, T) -> T) {
        let first = table.iter().find(|row| (row.supported)()).unwrap();
        assert_eq!(T::micro_kernel_name(), first.name);
        let (mr, nr, fma) = (T::MR, T::NR, fma_of(first, fma));
        check(first.name, T::tile_update(), (mr, nr), first.shape.0, fma);
        for kc in DEPTHS {
            let (chain, a, b) = chains::<T>(kc, mr, nr, fma);
            let acc0 = values::<T>(mr * nr, 3);
            let mut acc = acc0.clone();
            // SAFETY: the panels and the tile have the lengths an `mr x nr`
            // kernel reads and writes, and the kernel was selected for this
            // CPU.
            unsafe { T::micro_kernel()(kc, a.as_ptr(), b.as_ptr(), acc.as_mut_ptr()) };
            for (e, (got, c)) in acc.into_iter().zip(chain).enumerate() {
                let what = format_args!(
                    "{} micro_kernel kc={kc} acc ({}, {})",
                    first.name,
                    e % mr,
                    e / mr
                );
                assert_bits(got, acc0[e] + c, what);
            }
        }
    }

    /// Every instance this CPU supports, both dtypes, at every edge shape,
    /// exactly: the table rows at their dtype's tile (the sub-tiled portable
    /// rows on every host), then on every supported lane the 256-bit tiles
    /// (f64 8x4, f32 16x4) as one sub-tile, a 3 x 2 grid of them, and on
    /// the AVX-512 lanes a 24-accumulator tile and the dtype tile as a 2 x 2
    /// grid. Prints each row and the edge paths it checked (`--nocapture`),
    /// so a CI log shows which rows ran.
    #[test]
    fn all_available_kernels_agree_exactly() {
        fn rows<T: GemmScalar>(table: &[Instance<T>], fma: fn(T, T, T) -> T) {
            for row in table {
                if (row.supported)() {
                    println!("kernel row {}: checked, edges: {}", row.name, row.edge_paths());
                    let (mr, nr) = (T::MR, T::NR);
                    check(row.name, row.update, (mr, nr), row.shape.0, fma_of(row, fma));
                } else {
                    println!("kernel row {}: not supported here", row.name);
                }
            }
        }
        rows(F64_KERNELS, f64::mul_add);
        rows(F32_KERNELS, f32::mul_add);
        check_tiles::<[f64; 4], 2, 4, 8, 4>(None);
        check_tiles::<[f64; 4], 2, 4, 24, 8>(None);
        check_tiles::<[f32; 8], 2, 4, 16, 4>(None);
        check_tiles::<[f32; 8], 2, 4, 48, 8>(None);
        #[cfg(target_arch = "x86_64")]
        {
            let (fma64, fma32) = (Some(f64::mul_add as fn(_, _, _) -> _), Some(f32::mul_add as _));
            check_tiles::<__m512d, 1, 4, 8, 4>(fma64);
            check_tiles::<__m512d, 1, 4, 24, 8>(fma64);
            check_tiles::<__m512d, 3, 8, 24, 8>(fma64);
            check_tiles::<__m512d, 1, 4, 16, 8>(fma64);
            check_tiles::<__m512, 1, 4, 16, 4>(fma32);
            check_tiles::<__m512, 1, 4, 48, 8>(fma32);
            check_tiles::<__m512, 3, 8, 48, 8>(fma32);
            check_tiles::<__m512, 1, 4, 32, 8>(fma32);
            check_tiles::<__m256d, 2, 4, 8, 4>(fma64);
            check_tiles::<__m256d, 2, 4, 24, 8>(fma64);
            check_tiles::<__m256, 2, 4, 16, 4>(fma32);
            check_tiles::<__m256, 2, 4, 48, 8>(fma32);
        }
    }

    #[test]
    fn selected_kernel_matches_scalar() {
        check_selected(F64_KERNELS, f64::mul_add);
    }

    #[test]
    fn selected_f32_kernel_matches_scalar() {
        check_selected(F32_KERNELS, f32::mul_add);
    }

    /// The tiles, and the accumulators each row's sub-tile keeps: at most
    /// sixteen registers, which every lane's register file holds.
    #[test]
    fn gemm_scalar_tiles_fit_the_accumulator() {
        assert_eq!((<f64 as GemmScalar>::MR, <f64 as GemmScalar>::NR), (16, 8));
        assert_eq!((<f32 as GemmScalar>::MR, <f32 as GemmScalar>::NR), (32, 8));
        let shapes = F64_KERNELS.iter().map(|r| r.shape).chain(F32_KERNELS.iter().map(|r| r.shape));
        for (_, mv, nr) in shapes {
            assert!(mv * nr <= 16, "{mv} x {nr} accumulators");
        }
        // The f32 tile doubles the f64 rows, as its lanes hold twice as many.
        assert_eq!(<f32 as GemmScalar>::MR, 2 * <f64 as GemmScalar>::MR);
    }
}
