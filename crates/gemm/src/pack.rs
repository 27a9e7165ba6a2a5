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
//! Packing runs on every warm request and never touches the heap:
//! destinations are always caller-provided slices carved from pooled
//! arenas. `fmm-engine`'s `tests/warm_alloc.rs` calls [`pack_a_sum`] and
//! [`pack_b_sum`] under a counting allocator and asserts zero heap calls.

use fmm_dense::{MatRef, Scalar};

/// Pack `sum_t terms[t].0 * terms[t].1` (all of shape `mb x kb`) into `dst`
/// using the packed-A micro-panel layout with register blocking `mr`.
///
/// With a single term of coefficient 1.0 this is exactly the BLIS `packm`
/// operation; with several terms it implements the AB/ABC-variant
/// pack-and-add at the same memory traffic as a plain pack.
///
/// Column-major terms (unit row stride) are read one column at a time,
/// `mb` contiguous elements per term, and folded into every micro-panel in
/// fixed chunks the compiler vectorises; a lone unit term, plain GEMM's,
/// is copied that way. Reading a panel at a time instead strides across
/// `kb` columns, a page apart at practical leading dimensions, per `mr`
/// elements: on a 2048² f64 matrix the column order packs three quadrant
/// terms at 5.5–7 GB/s against 2.0–2.2 (2-vCPU Xeon VM). Any other stride
/// is gathered element by element. Both paths give each element the bits
/// of `0 + Σ g_t·x_t` summed in term order, up to the sign of a zero.
pub fn pack_a_sum<T: Scalar>(dst: &mut [T], terms: &[(T, MatRef<'_, T>)], mr: usize) {
    let (mb, kb) = shape_of(terms);
    let panels = mb.div_ceil(mr);
    assert!(dst.len() >= panels * mr * kb, "pack_a_sum: dst too small");
    if terms.iter().all(|(_, a)| a.row_stride() == 1) {
        pack_a_columns(dst, terms, mr);
    } else {
        pack_a_gather(dst, terms, mr);
    }
}

/// [`pack_a_sum`] of column-major terms.
fn pack_a_columns<T: Scalar>(dst: &mut [T], terms: &[(T, MatRef<'_, T>)], mr: usize) {
    let (mb, kb) = shape_of(terms);
    let rest = mb % mr;
    for p in 0..kb {
        for (t, (g, a)) in terms.iter().enumerate() {
            // SAFETY: unit row stride, so column `p`'s `mb` rows are
            // contiguous and in bounds.
            let col = unsafe {
                std::slice::from_raw_parts(a.as_ptr().offset(p as isize * a.col_stride()), mb)
            };
            for (q, x) in col.chunks(mr).enumerate() {
                let at = q * mr * kb + p * mr;
                fold(&mut dst[at..at + x.len()], x, *g, t == 0);
            }
        }
        if rest > 0 {
            dst[mb / mr * mr * kb + p * mr..][rest..mr].fill(T::ZERO);
        }
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
/// Column-major terms are folded into one micro-panel at a time, a term
/// at a time, each of its `nr` columns read contiguously and written at
/// stride `nr` into the panel (which stays in L1): 1.2–2x the
/// element-by-element gather on the matrix [`pack_a_sum`] cites. Any other
/// stride is gathered.
pub fn pack_b_sum<T: Scalar>(dst: &mut [T], terms: &[(T, MatRef<'_, T>)], nr: usize) {
    let (kb, nb) = shape_of(terms);
    let panels = nb.div_ceil(nr);
    assert!(dst.len() >= panels * nr * kb, "pack_b_sum: dst too small");
    if terms.iter().all(|(_, b)| b.row_stride() == 1) {
        pack_b_columns(dst, terms, nr);
    } else {
        pack_b_gather(dst, terms, nr);
    }
}

/// [`pack_b_sum`] of column-major terms.
fn pack_b_columns<T: Scalar>(dst: &mut [T], terms: &[(T, MatRef<'_, T>)], nr: usize) {
    let (kb, nb) = shape_of(terms);
    for q in 0..nb.div_ceil(nr) {
        let j0 = q * nr;
        let cols = nr.min(nb - j0);
        let panel = &mut dst[q * nr * kb..(q + 1) * nr * kb];
        for (t, (g, b)) in terms.iter().enumerate() {
            for j in 0..cols {
                // SAFETY: unit row stride, so column `j0 + j`'s `kb` rows
                // are contiguous and in bounds.
                let col = unsafe {
                    std::slice::from_raw_parts(
                        b.as_ptr().offset((j0 + j) as isize * b.col_stride()),
                        kb,
                    )
                };
                let out = panel[j..].iter_mut().step_by(nr).zip(col);
                if t == 0 {
                    out.for_each(|(o, x)| *o = *g * *x);
                } else {
                    out.for_each(|(o, x)| *o += *g * *x);
                }
            }
        }
        for j in cols..nr {
            panel[j..].iter_mut().step_by(nr).for_each(|x| *x = T::ZERO);
        }
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

/// One term of a packed sum: `out = g·x` for the first term, `out += g·x`
/// for the others, so each element is the gather's `0 + Σ g_t·x_t` (up to
/// the sign of a zero). A first term of coefficient 1, every term of a
/// plain GEMM, is a copy, in the same chunks.
#[inline(always)]
fn fold<T: Scalar>(out: &mut [T], x: &[T], g: T, first: bool) {
    if first && g == T::ONE {
        zip_chunks(out, x, |_, x| x);
    } else if first {
        zip_chunks(out, x, |_, x| g * x);
    } else {
        zip_chunks(out, x, |o, x| o + g * x);
    }
}

/// `out[i] = f(out[i], x[i])` in fixed chunks of eight, which the compiler
/// vectorises, then the remainder.
#[inline(always)]
fn zip_chunks<T: Scalar>(out: &mut [T], x: &[T], f: impl Fn(T, T) -> T) {
    let mut outs = out.chunks_exact_mut(8);
    let mut xs = x.chunks_exact(8);
    for (o, x) in (&mut outs).zip(&mut xs) {
        for i in 0..8 {
            o[i] = f(o[i], x[i]);
        }
    }
    for (o, x) in outs.into_remainder().iter_mut().zip(xs.remainder()) {
        *o = f(*o, *x);
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

    /// The column folds give the gather's bits, for both operands and
    /// dtypes, at the production tiles and one no kernel has yet, on ragged
    /// shapes, with unit and rounding coefficients; a lone unit term is
    /// plain GEMM's pack.
    #[test]
    fn column_folds_match_the_gather_bit_for_bit() {
        fn same<T: Scalar>(x: &[T], y: &[T]) -> bool {
            x.iter().zip(y).all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
        }
        fn both<T: Scalar>(mr: usize) {
            let nr = 4;
            let coeffs: [&[f64]; 5] =
                [&[1.0], &[-1.0], &[1.0, -1.0], &[0.5, 1.0, -3.0], &[1.0, 1.0, 1.0, -1.0]];
            for (mb, kb) in [(1, 1), (5, 7), (mr, 3), (3 * mr + 5, 17), (40, 33)] {
                for gs in coeffs {
                    let mats: Vec<Matrix<T>> =
                        (0..gs.len()).map(|t| fill::bench_workload_t(mb, kb, t as u64)).collect();
                    let terms: Vec<(T, MatRef<'_, T>)> =
                        gs.iter().zip(&mats).map(|(g, x)| (T::from_f64(*g), x.as_ref())).collect();
                    let len = mb.div_ceil(mr) * mr * kb;
                    let (mut fast, mut gather) = (vec![T::ONE; len], vec![T::ONE; len]);
                    pack_a_sum(&mut fast, &terms, mr);
                    pack_a_gather(&mut gather, &terms, mr);
                    assert!(same(&fast, &gather), "A {mb}x{kb} {gs:?}");

                    // The same sums as `kb x mb` B operands: column-major
                    // copies for the folds, row-major views for the gather.
                    let copies: Vec<Matrix<T>> = mats.iter().map(|x| x.transposed()).collect();
                    let cols: Vec<_> =
                        terms.iter().zip(&copies).map(|((g, _), x)| (*g, x.as_ref())).collect();
                    let rows: Vec<_> = terms.iter().map(|(g, x)| (*g, x.t())).collect();
                    let len = mb.div_ceil(nr) * nr * kb;
                    let (mut fast, mut gather) = (vec![T::ONE; len], vec![T::ONE; len]);
                    pack_b_sum(&mut fast, &cols, nr);
                    pack_b_gather(&mut gather, &rows, nr);
                    assert!(same(&fast, &gather), "B {kb}x{mb} {gs:?}");
                }
            }
        }
        both::<f64>(8);
        both::<f32>(16);
        both::<f64>(24);
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
