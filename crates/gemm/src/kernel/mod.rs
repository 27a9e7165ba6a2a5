//! The register-blocked micro-kernel, written once.
//!
//! [`product`] computes the rank-`kc` product `Ã * B̃` of an
//! `MV * Lane::W x NR` sub-tile of two packed micro-panels in registers:
//! `MV` lanes per column times `NR` columns, `MV * NR` accumulators.
//! [`kernel`] adds the products of a `TM x TN` tile into a stack tile
//! `acc`; [`update`] adds them, scaled, into the tile of every destination
//! of a list straight from registers, after prefetching each destination's
//! tile so the misses overlap the depth loop. A tile is one sub-tile when
//! the lane's register file holds it, and a grid of sub-tiles over the
//! same packed panels when it does not, so every instance of a dtype packs
//! the same panels and none spills. All three are generic over a [`Lane`]
//! (a SIMD vector, or an array the compiler vectorises), the sub-tile and
//! the tile. An instance is that source compiled with its lane's target
//! features:
//!
//! | name | lane | sub-tile (`MV x NR`) | sub-tiles | CPU check |
//! |---|---|---|---|---|
//! | `avx512f_16x8` | `__m512d` | 16x8 (2 x 8) | 1 | `avx512f` |
//! | `avx2_fma_16x8` | `__m256d` | 8x4 (2 x 4) | 2 x 2 | `avx2` and `fma` |
//! | `portable_16x8` | `[f64; 4]` | 4x4 (1 x 4) | 4 x 2 | none |
//! | `avx512f_32x8` | `__m512` | 32x8 (2 x 8) | 1 | `avx512f` |
//! | `avx2_fma_32x8` | `__m256` | 16x4 (2 x 4) | 2 x 2 | `avx2` and `fma` |
//! | `portable_32x8` | `[f32; 8]` | 8x4 (1 x 4) | 4 x 2 | none |
//!
//! The AVX-512 rows hold 16 of the 32 `zmm` registers as accumulators:
//! sixteen independent FMA chains, enough to cover two FMA ports at four
//! cycles' latency, where the paper's 8x4 tile (sized for sixteen 256-bit
//! registers) gives four. The AVX2 rows keep the paper's tile as their
//! sub-tile, eight of the sixteen `ymm` registers. The portable rows
//! compile for the baseline target's sixteen 128-bit `xmm` registers, where
//! a 4x4 sub-tile of doubles (or 8x4 of singles) is eight.
//!
//! A row also carries the packs that feed its kernel: `pack_a_lanes` and
//! `pack_b_lanes` of [`crate::pack`], compiled for the row's lane, which
//! fold operand sums in the lane's registers and build B̃ rows with
//! [`Lane::transpose8`]. The B pack transposes eight columns, so every
//! tile is `TM x 8`.
//!
//! Each dtype lists its instances in preference order; the first one the
//! CPU supports is picked once per process and reached through
//! [`GemmScalar`], both kernel entries and both packs from the same row. A
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
/// `(0, 0)` of a `rows x cols` view of `C` at strides `rs`/`cs`, and the
/// coefficient `w` in `C += w * P`. `Copy`, so the driver's `ic` workers
/// and the micro-kernel share one list of them. Writes through it are only
/// sound while the `&mut` view it was taken from is live and writers touch
/// disjoint element sets.
#[derive(Clone, Copy, Debug)]
pub struct RawDest<T> {
    pub ptr: *mut T,
    pub rows: usize,
    pub cols: usize,
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

/// The micro-kernel with the C-update in it (the paper's §4.1 ABC
/// epilogue): the rank-`kc` product `P` of two packed panels, kept in
/// registers, is added into the `MR x NR` tile at row `i`, column `j` of
/// every destination as `C += w * P` — or, with `store`, written as
/// `C = w * P`. Each element gets `C + w * P`, multiply then add, as the
/// accumulator path does.
///
/// # Safety
/// As [`MicroKernelFn`] for `a` and `b`; every destination must have unit
/// row stride and be valid for reads and writes of the full tile at
/// `(i, j)`, and no two destinations' tiles may overlap.
pub type TileUpdateFn<T> = unsafe fn(
    kc: usize,
    a: *const T,
    b: *const T,
    dests: &[RawDest<T>],
    i: usize,
    j: usize,
    store: bool,
);

/// The per-scalar kernel dispatch the generic GEMM driver runs on: the
/// register tile shape, the runtime-selected micro-kernel, and the
/// process-wide packing-workspace pool for this dtype.
pub trait GemmScalar: Scalar {
    /// Micro-tile rows the kernels of this scalar compute.
    const MR: usize;
    /// Micro-tile columns.
    const NR: usize;

    /// The best micro-kernel for the running CPU (detected once).
    fn micro_kernel() -> MicroKernelFn<Self>;
    /// Name of the kernel [`GemmScalar::micro_kernel`] returns.
    fn micro_kernel_name() -> &'static str;
    /// The same instance with the C-update in registers.
    fn tile_update() -> TileUpdateFn<Self>;
    /// The process-wide packing-workspace pool for this dtype (each scalar
    /// gets its own, so `f32` and `f64` traffic never trade buffers).
    fn global_pool() -> &'static WorkspacePool<Self>;
}

impl GemmScalar for f64 {
    const MR: usize = 16;
    const NR: usize = 8;
    fn micro_kernel() -> MicroKernelFn<f64> {
        selected(&F64_CHOICE, F64_KERNELS).run
    }
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
    fn micro_kernel() -> MicroKernelFn<f32> {
        selected(&F32_CHOICE, F32_KERNELS).run
    }
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

/// One row of a dtype's instance table: the micro-kernel in both forms
/// and the packs that feed it, all compiled for one lane.
#[derive(Clone, Copy)]
pub(crate) struct Instance<T> {
    pub(crate) name: &'static str,
    pub(crate) supported: fn() -> bool,
    run: MicroKernelFn<T>,
    update: TileUpdateFn<T>,
    pub(crate) packs: Packs<T>,
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
    /// [`kernel`] on lane `L`, running the `TM x TN` tile as `MV * L::W x NR`
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
            run: L::instance::<MV, NR, TM, TN>,
            update: L::update_instance::<MV, NR, TM, TN>,
            packs: Packs { mr: TM, nr: TN, a: L::pack_a_instance::<TM>, b: L::pack_b_instance },
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
    /// features; overridden as [`Lane::instance`] is.
    unsafe fn pack_a_instance<const TM: usize>(
        dst: &mut [Self::Elem],
        terms: &[(Self::Elem, MatRef<'_, Self::Elem>)],
    ) {
        // SAFETY: forwarded contract.
        unsafe { pack_a_lanes::<Self, TM>(dst, terms) }
    }
    /// # Safety
    /// As [`pack_b_lanes`], and the CPU has the lane's features;
    /// overridden as [`Lane::instance`] is.
    unsafe fn pack_b_instance(
        dst: &mut [Self::Elem],
        terms: &[(Self::Elem, MatRef<'_, Self::Elem>)],
    ) {
        // SAFETY: forwarded contract.
        unsafe { pack_b_lanes::<Self>(dst, terms) }
    }
    /// # Safety
    /// As [`kernel`], which this is at `MV x NR` sub-tiles of `TM x TN`.
    /// SIMD lanes override it to compile the kernel with their target
    /// features.
    unsafe fn instance<const MV: usize, const NR: usize, const TM: usize, const TN: usize>(
        kc: usize,
        a: *const Self::Elem,
        b: *const Self::Elem,
        acc: *mut Self::Elem,
    ) {
        // SAFETY: forwarded contract.
        unsafe { kernel::<Self, MV, NR, TM, TN>(kc, a, b, acc) }
    }
    /// # Safety
    /// As [`update`], which this is at `MV x NR` sub-tiles of `TM x TN`;
    /// overridden as [`Lane::instance`] is.
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
        i: usize,
        j: usize,
        store: bool,
    ) {
        // SAFETY: forwarded contract.
        unsafe { update::<Self, MV, NR, TM, TN>(kc, a, b, dests, i, j, store) }
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

/// `acc += Ã * B̃`: the [`product`] of every `MV * L::W x NR` sub-tile
/// added into its part of the column-major `TM x TN` tile `acc` once.
///
/// # Safety
/// The CPU has `L`'s target features; `a` points to `kc * TM` readable
/// elements, `b` to `kc * TN`, and `acc` to `TM * TN` writable elements.
#[inline(always)]
unsafe fn kernel<L: Lane, const MV: usize, const NR: usize, const TM: usize, const TN: usize>(
    kc: usize,
    a: *const L::Elem,
    b: *const L::Elem,
    acc: *mut L::Elem,
) {
    // SAFETY: as above; each sub-tile lies inside the panels and the
    // stores inside the `TM * TN` tile.
    unsafe {
        for j0 in (0..TN).step_by(NR) {
            for i0 in (0..TM).step_by(MV * L::W) {
                let c = product::<L, MV, NR>(kc, a.add(i0), b.add(j0), TM, TN);
                for (j, col) in c.iter().enumerate() {
                    for (v, lane) in col.iter().enumerate() {
                        lane.add_store(acc.add((j0 + j) * TM + i0 + v * L::W));
                    }
                }
            }
        }
    }
}

/// `C_d (+)= w_d * (Ã * B̃)` on the `TM x TN` tile at `(i, j)` of every
/// destination, straight from each sub-tile's [`product`] registers: per
/// destination and column, `MV` vector multiplies, then loads, adds and
/// stores.
///
/// # Safety
/// As [`kernel`] for `a` and `b`, and the [`TileUpdateFn`] contract for
/// `dests`.
#[inline(always)]
unsafe fn update<L: Lane, const MV: usize, const NR: usize, const TM: usize, const TN: usize>(
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
}

/// [`Lane`] for `std::arch` vectors: per lane its type, element, width and
/// target features, then its load, broadcast, FMA, multiply, add, store
/// and 8-column transpose.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_lanes {
    ($($lane:ty, $elem:ty, $w:literal, [$($feature:tt),+],
       $load:ident, $set1:ident, $fmadd:ident, $mul:ident, $add:ident, $store:ident,
       $transpose:ident;)+) => {$(
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
            // SAFETY: the `Lane` contract: the features are present.
            #[inline(always)]
            unsafe fn transpose8(cols: [Self; 8]) -> [Self; 8] { unsafe { $transpose(cols) } }
            // SAFETY: `kernel`'s contract, the features included.
            #[target_feature($(enable = $feature),+)]
            unsafe fn instance<const MV: usize, const NR: usize, const TM: usize, const TN: usize>(
                kc: usize, a: *const $elem, b: *const $elem, acc: *mut $elem,
            ) {
                // SAFETY: as above.
                unsafe { kernel::<Self, MV, NR, TM, TN>(kc, a, b, acc) }
            }
            // SAFETY: `update`'s contract, the features included.
            #[target_feature($(enable = $feature),+)]
            unsafe fn update_instance<
                const MV: usize, const NR: usize, const TM: usize, const TN: usize,
            >(
                kc: usize, a: *const $elem, b: *const $elem, dests: &[RawDest<$elem>],
                i: usize, j: usize, store: bool,
            ) {
                // SAFETY: as above.
                unsafe { update::<Self, MV, NR, TM, TN>(kc, a, b, dests, i, j, store) }
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
        _mm512_storeu_pd, transpose8_m512d;
    __m512, f32, 16, ["avx512f"],
        _mm512_loadu_ps, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_mul_ps, _mm512_add_ps,
        _mm512_storeu_ps, transpose8_m512;
    __m256d, f64, 4, ["avx2", "fma"],
        _mm256_loadu_pd, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_mul_pd, _mm256_add_pd,
        _mm256_storeu_pd, transpose8_m256d;
    __m256, f32, 8, ["avx2", "fma"],
        _mm256_loadu_ps, _mm256_set1_ps, _mm256_fmadd_ps, _mm256_mul_ps, _mm256_add_ps,
        _mm256_storeu_ps, transpose8_m256;
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
mod tests {
    use super::*;
    use crate::driver::ACC_CAP;

    /// Odd and even depths (the unroll's remainder), and both sides of 256.
    const DEPTHS: [usize; 10] = [0, 1, 2, 3, 5, 64, 173, 255, 256, 257];

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

    /// Run an `mr x nr` instance's two forms and check each element bit for
    /// bit against a scalar replay of its chain: `c = 0`, then
    /// `c = fma(a, b, c)` (or `c + a * b`) in depth order. The accumulator
    /// form, from a non-zero `acc`, must give `acc + c`. The update form
    /// writes the tile at `(1, 2)` of two column-major destinations, one of
    /// coefficient 1 and one whose products round: `C + w * c` (multiply,
    /// then add), or `w * c` when storing, and nothing outside the tile.
    fn check<T: GemmScalar>(
        name: &str,
        (run, update): (MicroKernelFn<T>, TileUpdateFn<T>),
        mr: usize,
        nr: usize,
        fma: Fma<T>,
    ) {
        for kc in DEPTHS {
            let (a, b) = (values::<T>(kc * mr, 1), values::<T>(kc * nr, 2));
            let chain = |i: usize, j: usize| {
                let mut c = T::ZERO;
                for p in 0..kc {
                    let (x, y) = (a[p * mr + i], b[p * nr + j]);
                    c = fma.map_or(c + x * y, |f| f(x, y, c));
                }
                c
            };
            let acc0 = values::<T>(mr * nr, 3);
            let mut acc = acc0.clone();
            // SAFETY: the panels and the tile have the lengths an `mr x nr`
            // kernel reads and writes, and callers pass only instances this
            // CPU supports.
            unsafe { run(kc, a.as_ptr(), b.as_ptr(), acc.as_mut_ptr()) };
            for j in 0..nr {
                for i in 0..mr {
                    let want = acc0[i + j * mr] + chain(i, j);
                    assert_bits(
                        acc[i + j * mr],
                        want,
                        format_args!("{name} {mr}x{nr} kc={kc} acc ({i}, {j})"),
                    );
                }
            }
            let (ld, cols) = (mr + 5, nr + 4);
            let coeffs = [T::ONE, T::from_f64(-0.75)];
            for store in [false, true] {
                let c0 = values::<T>(2 * ld * cols, 4);
                let mut c = c0.clone();
                let base = c.as_mut_ptr();
                let dests = [0, 1].map(|d| RawDest {
                    ptr: base.wrapping_add(d * ld * cols),
                    rows: ld,
                    cols,
                    rs: 1,
                    cs: ld as isize,
                    coeff: coeffs[d],
                });
                // SAFETY: each destination is one `ld x cols` half of `c`,
                // which holds the tile at (1, 2) at column stride `ld`; the
                // panels and the CPU are as for `run`.
                unsafe { update(kc, a.as_ptr(), b.as_ptr(), &dests, 1, 2, store) };
                for (d, w) in coeffs.into_iter().enumerate() {
                    for col in 0..cols {
                        for row in 0..ld {
                            let at = d * ld * cols + row + col * ld;
                            let want = if (1..=mr).contains(&row) && (2..2 + nr).contains(&col) {
                                let p = w * chain(row - 1, col - 2);
                                if store {
                                    p
                                } else {
                                    c0[at] + p
                                }
                            } else {
                                c0[at]
                            };
                            let what = format_args!(
                                "{name} {mr}x{nr} kc={kc} store={store} dest {d} ({row}, {col})"
                            );
                            assert_bits(c[at], want, what);
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
            let run: MicroKernelFn<L::Elem> = L::instance::<MV, NR, TM, TN>;
            check("test tile", (run, L::update_instance::<MV, NR, TM, TN>), TM, TN, fma);
        }
    }

    /// `T::micro_kernel()` is the first row of `table` this CPU supports.
    fn check_selected<T: GemmScalar>(table: &[Instance<T>], fma: fn(T, T, T) -> T) {
        let first = table.iter().find(|row| (row.supported)()).unwrap();
        assert_eq!(T::micro_kernel_name(), first.name);
        let kernels = (T::micro_kernel(), T::tile_update());
        check(first.name, kernels, T::MR, T::NR, fma_of(first, fma));
    }

    /// Every instance this CPU supports, both dtypes, both forms, exactly:
    /// the table rows at their dtype's tile (the sub-tiled portable rows on
    /// every host), then on every supported lane the parent tiles (f64 8x4,
    /// f32 16x4) as one sub-tile, a 3 x 2 grid of them, and on the AVX-512
    /// lanes a 24-accumulator tile and the dtype tile as a 2 x 2 grid.
    #[test]
    fn all_available_kernels_agree_exactly() {
        // Printed (under `--nocapture`), so a CI log shows which rows ran.
        let report = |name: &str, ran: bool| {
            println!("kernel row {name}: {}", if ran { "checked" } else { "not supported here" })
        };
        for row in F64_KERNELS {
            report(row.name, (row.supported)());
            if (row.supported)() {
                let fma = fma_of(row, f64::mul_add);
                check(row.name, (row.run, row.update), f64::MR, f64::NR, fma);
            }
        }
        for row in F32_KERNELS {
            report(row.name, (row.supported)());
            if (row.supported)() {
                let fma = fma_of(row, f32::mul_add);
                check(row.name, (row.run, row.update), f32::MR, f32::NR, fma);
            }
        }
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

    #[test]
    fn gemm_scalar_tiles_fit_the_accumulator() {
        assert_eq!((<f64 as GemmScalar>::MR, <f64 as GemmScalar>::NR), (16, 8));
        assert_eq!((<f32 as GemmScalar>::MR, <f32 as GemmScalar>::NR), (32, 8));
        assert_eq!(<f32 as GemmScalar>::MR * <f32 as GemmScalar>::NR, ACC_CAP);
        // The f32 tile doubles the f64 rows, as its lanes hold twice as many.
        assert_eq!(<f32 as GemmScalar>::MR, 2 * <f64 as GemmScalar>::MR);
    }
}
