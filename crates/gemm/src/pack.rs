//! Packing routines, including packing of *linear combinations* of
//! submatrices — the key primitive that lets FMM ride on GEMM (paper Fig. 1,
//! right: "Pack X + Y -> Ã", "Pack V + W -> B̃").
//!
//! # Packed layouts
//!
//! **A block** (`mb x kb`, register rows `mr`): stored as `ceil(mb/mr)`
//! micro-panels. Panel `q` holds rows `[q*mr, q*mr + mr)`; within a panel the
//! storage is `p`-major: for each depth index `p` in `[0, kb)` the `mr` row
//! values are contiguous. Rows beyond `mb` are zero-padded so the
//! micro-kernel never needs a row bound.
//!
//! **B panel** (`kb x nb`, register columns `nr`): `ceil(nb/nr)` micro-panels;
//! panel `q` holds columns `[q*nr, q*nr + nr)`, `p`-major with `nr`
//! contiguous column values per depth index, zero-padded past `nb`.
//!
//! # Speed
//!
//! Column-major terms at the kernel's tile are packed on the kernel's own
//! lane (`pack_a_lanes`, `pack_b_lanes`): each lane of every term is
//! folded in registers and each packed element is written once, so a sum
//! costs the reads of its terms and one write. That is the paper's premise
//! that packing `X + Y` costs what packing `X` costs. B̃ panel rows come
//! out of 8-column in-register transposes (`Lane::transpose8`), not
//! element stores at stride `nr`. Source bytes per ns on a 2-vCPU AVX-512
//! Xeon VM (best of three; the per-term folds these replaced in brackets):
//!
//! | block | A | B |
//! |---|---|---|
//! | hot 128² f64, one term | 15 (10) | 25 (7.5) |
//! | hot 128² f64, three terms | 33 (9) | 38 (7) |
//! | hot 128² f32, one term | 15 (7) | 16 (4) |
//! | hot 128² f32, three terms | 36 (6) | 35 (3.5) |
//! | three quadrants of a 2048² f64 matrix, out of cache | 5.7–7.6 (4.5–6.3) | 6.8–8.5 (3.8–4.1) |
//!
//! The last row is the ledger's `gemm.pack_*_sum3_gbs` over three traced
//! runs. Out of cache a sum reads at about the host's stream rate
//! (7.0–7.1 GB/s), so most of the gain is on hot blocks, which small GEMMs
//! and FMM products pack.
//!
//! The tails run on the same lanes, masked (`Lane::load_first`,
//! `Lane::store_first`): the partial last lane of a partial A panel's
//! column, and the last `kb mod W` depths of a B̃ micro-panel, whose panel
//! rows alone are stored. Elements past the tail are neither read nor
//! written. On the same VM (f32, best of 300, ranges over interleaved
//! runs; tails folded an element at a time in brackets), a
//! 256-column B panel packs in 6.7–7.9 µs at `kb = 127` (9.2–9.8) against
//! 6.2–6.5 at `kb = 128`, and a `kb = 256` A block in 6.3–6.4 µs at
//! `mb = 95` (6.9–7.5) against 6.0–6.4 at `mb = 96`.
//!
//! Packing runs on every warm request and never touches the heap:
//! destinations are always caller-provided slices carved from pooled
//! arenas. `fmm-engine`'s `tests/warm_alloc.rs` calls [`pack_a_sum`] and
//! [`pack_b_sum`] under a counting allocator and asserts zero heap calls.

use crate::kernel::{prefetch, selected_packs, write_first, Lane};
use fmm_dense::{MatRef, Scalar};

/// A kernel row's pack of column-major terms at its tile: `dst` receives
/// `sum_t terms[t].0 * terms[t].1` in the packed layout.
///
/// # Safety
/// The CPU has the row's lane features; every term has unit row stride and
/// the first term's shape; `dst` holds the packed block.
pub(crate) type PackFn<T> = unsafe fn(dst: &mut [T], terms: &[(T, MatRef<'_, T>)]);

/// How many columns ahead the A pack asks for the column it will read.
const AHEAD: usize = 4;

/// Ask for the cache lines of the `len` contiguous elements at `p`.
#[inline(always)]
fn prefetch_run<T>(p: *const T, len: usize) {
    for i in (0..len).step_by(64 / std::mem::size_of::<T>()) {
        prefetch(p.wrapping_add(i));
    }
    prefetch(p.wrapping_add(len.saturating_sub(1)));
}

/// Pack `sum_t terms[t].0 * terms[t].1` (all of shape `mb x kb`) into `dst`
/// using the packed-A micro-panel layout with register blocking `mr`.
///
/// With a single term of coefficient 1.0 this is exactly the BLIS `packm`
/// operation; with several terms it implements the AB/ABC-variant
/// pack-and-add, at the same memory traffic as a plain pack: each packed
/// element is written once, whatever the number of terms.
///
/// Column-major terms (unit row stride) at `mr = T::MR` are packed by the
/// kernel's own row (`pack_a_lanes` on the lane the micro-kernel runs),
/// so every GEMM, FMM product and rim call packs at the speed of its data.
/// Any other stride, or any other `mr`, is gathered element by element.
/// Both paths give each element the bits of `0 + Σ g_t·x_t` summed in term
/// order, up to the sign of a zero.
pub fn pack_a_sum<T: Scalar>(dst: &mut [T], terms: &[(T, MatRef<'_, T>)], mr: usize) {
    let (mb, kb) = shape_of(terms);
    let panels = mb.div_ceil(mr);
    assert!(dst.len() >= panels * mr * kb, "pack_a_sum: dst too small");
    match selected_packs::<T>() {
        Some(row) if row.mr == mr && column_major(terms) => {
            // SAFETY: the selected row runs on this CPU, the terms are
            // column-major and share a shape, and `dst` holds the block.
            unsafe { (row.a)(dst, terms) }
        }
        _ => pack_a_gather(dst, terms, mr),
    }
}

fn column_major<T: Scalar>(terms: &[(T, MatRef<'_, T>)]) -> bool {
    terms.iter().all(|(_, x)| x.row_stride() == 1)
}

/// The address of element `(i, j)` of `x`.
///
/// # Safety
/// `x` has unit row stride, and `(i, j)` is inside it.
#[inline(always)]
unsafe fn at<T: Scalar>(x: &MatRef<'_, T>, i: usize, j: usize) -> *const T {
    // SAFETY: the caller's contract.
    unsafe { x.as_ptr().offset(j as isize * x.col_stride()).add(i) }
}

/// `Σ g_t·x_t` over the first `n` elements of one lane of every term, in
/// registers, the lane of term `x` at `addr(x)`: the first term copied
/// (coefficient 1) or scaled, each later one added as `acc + g·x`,
/// multiply then add. `n < L::W` loads the lanes masked: the elements past
/// `n` are zero and not read.
///
/// # Safety
/// The CPU has `L`'s features and `addr` gives `n <= L::W` readable
/// elements of every term.
#[inline(always)]
unsafe fn fold<L: Lane>(
    terms: &[(L::Elem, MatRef<'_, L::Elem>)],
    n: usize,
    addr: impl Fn(&MatRef<'_, L::Elem>) -> *const L::Elem,
) -> L {
    // SAFETY: the caller's contract.
    unsafe {
        let (g, x) = &terms[0];
        let x = load_n::<L>(addr(x), n);
        let mut acc = if *g == L::Elem::ONE { x } else { x.mul(L::splat(*g)) };
        for (g, x) in &terms[1..] {
            acc = acc.add(load_n::<L>(addr(x), n).mul(L::splat(*g)));
        }
        acc
    }
}

/// The first `n <= L::W` elements at `p`: a whole lane, or a masked one.
/// A function, not a closure, so that inlined into a lane's
/// `#[target_feature]` instance it takes the instance's features.
///
/// # Safety
/// The CPU has `L`'s features, and `p` is valid for `n` reads.
#[inline(always)]
unsafe fn load_n<L: Lane>(p: *const L::Elem, n: usize) -> L {
    // SAFETY: the caller's contract.
    unsafe {
        if n == L::W {
            L::load(p)
        } else {
            L::load_first(p, n)
        }
    }
}

/// [`pack_a_sum`] of column-major terms at `mr = TM` on lane `L`: a column
/// at a time, each `TM`-row chunk of it folded across the terms in
/// [`fold`] and stored once, a partial last lane of a partial panel loaded
/// and stored masked. Rows past `mb` are zero.
///
/// # Safety
/// As [`PackFn`], on the CPU features of `L`.
#[inline(always)]
pub(crate) unsafe fn pack_a_lanes<L: Lane, const TM: usize>(
    dst: &mut [L::Elem],
    terms: &[(L::Elem, MatRef<'_, L::Elem>)],
) {
    let (mb, kb) = shape_of(terms);
    let (full, rest) = (mb / TM, mb % TM);
    debug_assert!(dst.len() >= mb.div_ceil(TM) * TM * kb);
    let out = dst.as_mut_ptr();
    // SAFETY: every read is at row < mb and column < kb of a column-major
    // term, and every write inside the `mb.div_ceil(TM) * TM * kb` block.
    unsafe {
        for p in 0..kb {
            // Each column is a page from the last at practical leading
            // dimensions, beyond the hardware prefetcher's reach.
            if p + AHEAD < kb {
                for (_, x) in terms {
                    let ahead = (p + AHEAD) as isize * x.col_stride();
                    prefetch_run(x.as_ptr().wrapping_offset(ahead), mb);
                }
            }
            for q in 0..full {
                let o = out.add(q * TM * kb + p * TM);
                for v in (0..TM).step_by(L::W) {
                    fold::<L>(terms, L::W, |x| at(x, q * TM + v, p)).store(o.add(v));
                }
            }
            if rest > 0 {
                let (i0, o) = (full * TM, out.add(full * TM * kb + p * TM));
                for v in (0..rest).step_by(L::W) {
                    let n = L::W.min(rest - v);
                    write_first(fold::<L>(terms, n, |x| at(x, i0 + v, p)), o.add(v), n, true);
                }
                std::slice::from_raw_parts_mut(o.add(rest), TM - rest).fill(L::Elem::ZERO);
            }
        }
    }
}

/// [`pack_b_sum`] of column-major terms at `nr = 8` on lane `L`: per
/// micro-panel, `W` depths of its eight columns at a time, each column's
/// lane folded across the terms in [`fold`], the `W x 8` block turned into
/// `W` panel rows by [`Lane::transpose8`] and stored once. Columns past
/// `nb` are zero; the last `kb mod W` depths are loaded masked and only
/// their panel rows stored.
///
/// # Safety
/// As [`PackFn`], on the CPU features of `L`.
#[inline(always)]
pub(crate) unsafe fn pack_b_lanes<L: Lane>(
    dst: &mut [L::Elem],
    terms: &[(L::Elem, MatRef<'_, L::Elem>)],
) {
    const NR: usize = 8;
    let (kb, nb) = shape_of(terms);
    debug_assert!(dst.len() >= nb.div_ceil(NR) * NR * kb);
    let out = dst.as_mut_ptr();
    // SAFETY: every read is at row < kb and column < nb of a column-major
    // term, and every write inside the `nb.div_ceil(NR) * NR * kb` block.
    unsafe {
        for q in 0..nb.div_ceil(NR) {
            let (j0, cols) = (q * NR, NR.min(nb - q * NR));
            let panel = out.add(q * NR * kb);
            let whole = kb / L::W * L::W;
            for p in (0..whole).step_by(L::W) {
                for (v, x) in panel_rows::<L>(terms, p, L::W, j0, cols).into_iter().enumerate() {
                    x.store(panel.add(p * NR + v * L::W));
                }
            }
            if whole < kb {
                // Panel rows `whole..kb` are the first `(kb - whole) * NR`
                // elements of the lanes.
                let (o, len) = (panel.add(whole * NR), (kb - whole) * NR);
                let rows = panel_rows::<L>(terms, whole, kb - whole, j0, cols);
                for (v, x) in rows.into_iter().enumerate().take(len.div_ceil(L::W)) {
                    write_first(x, o.add(v * L::W), L::W.min(len - v * L::W), true);
                }
            }
        }
    }
}

/// Panel rows `p..p + depths` (`depths <= L::W`) of the B̃ micro-panel of
/// columns `j0..j0 + cols` (`cols <= 8`): each column's lane folded across
/// the terms in [`fold`] and the `W x 8` block transposed, so panel row
/// `p + d` is elements `d * 8..` of the lanes returned. Columns past
/// `cols` are zero. A function, not a closure, as [`load_n`] is.
///
/// # Safety
/// The CPU has `L`'s features, and the block lies inside every term, all
/// column-major.
#[inline(always)]
unsafe fn panel_rows<L: Lane>(
    terms: &[(L::Elem, MatRef<'_, L::Elem>)],
    p: usize,
    depths: usize,
    j0: usize,
    cols: usize,
) -> [L; 8] {
    // SAFETY: the caller's contract.
    unsafe {
        let mut block = [L::splat(L::Elem::ZERO); 8];
        for (j, x) in block.iter_mut().enumerate().take(cols) {
            *x = fold::<L>(terms, depths, |x| at(x, p, j0 + j));
        }
        L::transpose8(block)
    }
}

fn pack_a_gather<T: Scalar>(dst: &mut [T], terms: &[(T, MatRef<'_, T>)], mr: usize) {
    let (mb, kb) = shape_of(terms);
    let panels = mb.div_ceil(mr);
    for q in 0..panels {
        let i0 = q * mr;
        let rows = mr.min(mb - i0);
        let base = q * mr * kb;
        for p in 0..kb {
            for i in 0..rows {
                let mut acc = T::ZERO;
                for (g, a) in terms {
                    // SAFETY: i0 + i < mb, p < kb, all terms share the shape.
                    acc += *g * unsafe { a.at_unchecked(i0 + i, p) };
                }
                dst[base + p * mr + i] = acc;
            }
            for i in rows..mr {
                dst[base + p * mr + i] = T::ZERO;
            }
        }
    }
}

/// Pack `sum_t terms[t].0 * terms[t].1` (all of shape `kb x nb`) into `dst`
/// using the packed-B micro-panel layout with register blocking `nr`.
///
/// Column-major terms at `nr = T::NR` are packed by the kernel's own row,
/// as in [`pack_a_sum`]: `pack_b_lanes` reads `W` depths of each of a
/// micro-panel's columns, folds the terms in registers and writes the
/// panel rows by in-register transposes. Any other stride or `nr` is
/// gathered.
pub fn pack_b_sum<T: Scalar>(dst: &mut [T], terms: &[(T, MatRef<'_, T>)], nr: usize) {
    let (kb, nb) = shape_of(terms);
    let panels = nb.div_ceil(nr);
    assert!(dst.len() >= panels * nr * kb, "pack_b_sum: dst too small");
    match selected_packs::<T>() {
        Some(row) if row.nr == nr && column_major(terms) => {
            // SAFETY: as in `pack_a_sum`.
            unsafe { (row.b)(dst, terms) }
        }
        _ => pack_b_gather(dst, terms, nr),
    }
}

fn pack_b_gather<T: Scalar>(dst: &mut [T], terms: &[(T, MatRef<'_, T>)], nr: usize) {
    let (kb, nb) = shape_of(terms);
    let panels = nb.div_ceil(nr);
    for q in 0..panels {
        let j0 = q * nr;
        let cols = nr.min(nb - j0);
        let base = q * nr * kb;
        for p in 0..kb {
            for j in 0..cols {
                let mut acc = T::ZERO;
                for (g, b) in terms {
                    // SAFETY: p < kb, j0 + j < nb, shared shape.
                    acc += *g * unsafe { b.at_unchecked(p, j0 + j) };
                }
                dst[base + p * nr + j] = acc;
            }
            for j in cols..nr {
                dst[base + p * nr + j] = T::ZERO;
            }
        }
    }
}

fn shape_of<T: Scalar>(terms: &[(T, MatRef<'_, T>)]) -> (usize, usize) {
    let first = terms.first().expect("pack: at least one term required for shape");
    let shape = (first.1.rows(), first.1.cols());
    for (_, t) in terms {
        assert_eq!((t.rows(), t.cols()), shape, "pack: operand term shapes differ");
    }
    shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_dense::{fill, Matrix};

    fn unpack_a(packed: &[f64], mb: usize, kb: usize, mr: usize) -> Matrix {
        let mut m = Matrix::zeros(mb, kb);
        for q in 0..mb.div_ceil(mr) {
            for p in 0..kb {
                for i in 0..mr {
                    let gi = q * mr + i;
                    if gi < mb {
                        m.set(gi, p, packed[q * mr * kb + p * mr + i]);
                    }
                }
            }
        }
        m
    }

    fn unpack_b(packed: &[f64], kb: usize, nb: usize, nr: usize) -> Matrix {
        let mut m = Matrix::zeros(kb, nb);
        for q in 0..nb.div_ceil(nr) {
            for p in 0..kb {
                for j in 0..nr {
                    let gj = q * nr + j;
                    if gj < nb {
                        m.set(p, gj, packed[q * nr * kb + p * nr + j]);
                    }
                }
            }
        }
        m
    }

    #[test]
    fn pack_a_single_term_roundtrips() {
        let a = fill::counter(13, 7); // 13 rows: one full + one partial panel at mr=8
        let mut dst = vec![f64::NAN; 16 * 7];
        pack_a_sum(&mut dst, &[(1.0, a.as_ref())], 8);
        assert_eq!(unpack_a(&dst, 13, 7, 8), a);
        // Zero padding of the partial panel.
        for p in 0..7 {
            for i in 5..8 {
                assert_eq!(dst[8 * 7 + p * 8 + i], 0.0, "pad at p={p} i={i}");
            }
        }
    }

    #[test]
    fn pack_a_sum_of_three_matches_linear_combination() {
        let x = fill::bench_workload(10, 6, 1);
        let y = fill::bench_workload(10, 6, 2);
        let z = fill::bench_workload(10, 6, 3);
        let mut dst = vec![0.0; 16 * 6];
        pack_a_sum(&mut dst, &[(1.0, x.as_ref()), (-1.0, y.as_ref()), (0.5, z.as_ref())], 8);
        let got = unpack_a(&dst, 10, 6, 8);
        for j in 0..6 {
            for i in 0..10 {
                let expect = x.get(i, j) - y.get(i, j) + 0.5 * z.get(i, j);
                assert!((got.get(i, j) - expect).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn pack_a_strided_view_matches_dense() {
        let big = fill::counter(20, 20);
        let sub = big.as_ref().submatrix(3, 5, 9, 6);
        let mut dst = vec![0.0; 16 * 6];
        pack_a_sum(&mut dst, &[(1.0, sub)], 8);
        assert_eq!(unpack_a(&dst, 9, 6, 8), sub.to_owned());
    }

    #[test]
    fn pack_a_transposed_view_packs_transpose() {
        let a = fill::counter(6, 9);
        let mut dst = vec![0.0; 16 * 6];
        pack_a_sum(&mut dst, &[(1.0, a.as_ref().t())], 8);
        assert_eq!(unpack_a(&dst, 9, 6, 8), a.transposed());
    }

    #[test]
    fn pack_b_single_term_roundtrips() {
        let b = fill::counter(5, 11); // 11 cols at nr=4: 2 full + 1 partial panel
        let mut dst = vec![f64::NAN; 12 * 5];
        pack_b_sum(&mut dst, &[(1.0, b.as_ref())], 4);
        assert_eq!(unpack_b(&dst, 5, 11, 4), b);
        // Padding columns of the last panel are zero.
        for p in 0..5 {
            assert_eq!(dst[2 * 4 * 5 + p * 4 + 3], 0.0);
        }
    }

    #[test]
    fn pack_b_sum_matches_linear_combination() {
        let v = fill::bench_workload(7, 9, 4);
        let w = fill::bench_workload(7, 9, 5);
        let mut dst = vec![0.0; 12 * 7];
        pack_b_sum(&mut dst, &[(2.0, v.as_ref()), (-1.0, w.as_ref())], 4);
        let got = unpack_b(&dst, 7, 9, 4);
        for j in 0..9 {
            for i in 0..7 {
                let expect = 2.0 * v.get(i, j) - w.get(i, j);
                assert!((got.get(i, j) - expect).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn pack_exact_multiple_has_no_padding_rows() {
        let a = fill::counter(16, 4);
        let mut dst = vec![f64::NAN; 16 * 4];
        pack_a_sum(&mut dst, &[(1.0, a.as_ref())], 8);
        assert!(dst.iter().all(|v| !v.is_nan()));
        assert_eq!(unpack_a(&dst, 16, 4, 8), a);
    }

    /// Every kernel row's packs that this CPU runs give the gather's bits,
    /// for both operands and dtypes, at the row's tile (`T::MR x T::NR`):
    /// partial panels, depths off every lane width, dense operands and
    /// offset views into a parent of odd leading dimension, one to four
    /// terms with unit and rounding coefficients. The public entries, which
    /// run the selected row, give them too. Prints each row as checked or
    /// not supported (`--nocapture`), so a CI log shows which rows ran.
    #[test]
    fn column_folds_match_the_gather_bit_for_bit() {
        use crate::kernel::{Packs, F32_KERNELS, F64_KERNELS};
        type Pack<'f, T> = &'f dyn Fn(&mut [T], &[(T, MatRef<'_, T>)]);

        fn same<T: Scalar>(x: &[T], y: &[T]) -> bool {
            x.iter().zip(y).all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
        }
        /// `count` terms of shape `rows x cols`: dense, or at (3, 2) in a
        /// parent whose leading dimension is odd.
        fn operands<T: Scalar>(
            rows: usize,
            cols: usize,
            count: usize,
            offset: bool,
        ) -> Vec<Matrix<T>> {
            let (pr, pc) = if offset { ((rows + 4) | 1, cols + 3) } else { (rows, cols) };
            (0..count).map(|t| fill::bench_workload_t(pr, pc, 7 + t as u64)).collect()
        }
        fn view<T: Scalar>(x: &Matrix<T>, rows: usize, cols: usize, offset: bool) -> MatRef<'_, T> {
            let (i, j) = if offset { (3, 2) } else { (0, 0) };
            x.as_ref().submatrix(i, j, rows, cols)
        }
        /// Pack every case with `a`/`b` and with the gathers; compare.
        fn cases<T: Scalar>(
            name: &str,
            (mr, nr): (usize, usize),
            a: impl Fn(&mut [T], &[(T, MatRef<'_, T>)]),
            b: impl Fn(&mut [T], &[(T, MatRef<'_, T>)]),
        ) {
            let (a, b): (Pack<'_, T>, Pack<'_, T>) = (&a, &b);
            let coeffs: [&[f64]; 7] = [
                &[1.0],
                &[-1.0],
                &[0.1],
                &[1.0, -1.0],
                &[0.5, 1.0, -3.0],
                &[1.0, 1.0, 1.0, -1.0],
                &[0.1, -0.7, 1.3, 1.0 / 3.0],
            ];
            let a_shapes =
                [(1, 1), (5, 7), (mr - 1, 9), (mr, 8), (mr + 1, 3), (3 * mr + 5, 17), (96, 33)];
            let b_shapes = [(1, 1), (7, 5), (8, 8), (9, 13), (15, 16), (17, 3), (33, 24), (70, 31)];
            for gs in coeffs {
                for offset in [false, true] {
                    let check = |rows, cols, width, pack: Pack<'_, T>, is_a: bool| {
                        let mats = operands::<T>(rows, cols, gs.len(), offset);
                        let terms: Vec<(T, MatRef<'_, T>)> = gs
                            .iter()
                            .zip(&mats)
                            .map(|(g, x)| (T::from_f64(*g), view(x, rows, cols, offset)))
                            .collect();
                        let panels = if is_a { rows } else { cols }.div_ceil(width);
                        let len = panels * width * if is_a { cols } else { rows };
                        let (mut fast, mut gather) = (vec![T::ONE; len], vec![T::ONE; len]);
                        pack(&mut fast, &terms);
                        if is_a {
                            pack_a_gather(&mut gather, &terms, width);
                        } else {
                            pack_b_gather(&mut gather, &terms, width);
                        }
                        let what = if is_a { "A" } else { "B" };
                        assert!(
                            same(&fast, &gather),
                            "{name}: {what} {rows}x{cols} {gs:?} offset={offset}"
                        );
                    };
                    for (mb, kb) in a_shapes {
                        check(mb, kb, mr, a, true);
                    }
                    for (kb, nb) in b_shapes {
                        check(kb, nb, nr, b, false);
                    }
                }
            }
        }
        fn table<T: crate::GemmScalar>(rows: &[crate::kernel::Instance<T>]) {
            for row in rows {
                let ran = (row.supported)();
                println!(
                    "pack row {}: {}",
                    row.name,
                    if ran { "checked" } else { "not supported here" }
                );
                if ran {
                    let Packs { mr, nr, a, b } = row.packs;
                    cases(
                        row.name,
                        (mr, nr),
                        // SAFETY: the row runs on this CPU, and `cases`
                        // passes column-major terms of one shape and a full
                        // block.
                        |d, t| unsafe { a(d, t) },
                        // SAFETY: as for `a`.
                        |d, t| unsafe { b(d, t) },
                    );
                }
            }
            let (mr, nr) = (T::MR, T::NR);
            cases(
                "pack_a_sum/pack_b_sum",
                (mr, nr),
                |d: &mut [T], t| pack_a_sum(d, t, mr),
                |d, t| pack_b_sum(d, t, nr),
            );
        }
        table::<f64>(F64_KERNELS);
        table::<f32>(F32_KERNELS);
    }

    #[test]
    #[should_panic(expected = "shapes differ")]
    fn mismatched_term_shapes_panic() {
        let x = Matrix::zeros(4, 4);
        let y = Matrix::zeros(4, 5);
        let mut dst = vec![0.0; 64];
        pack_a_sum(&mut dst, &[(1.0, x.as_ref()), (1.0, y.as_ref())], 8);
    }
}
