//! Elementwise matrix kernels: copy, scale, axpy, and linear combinations.
//!
//! These are the scalar building blocks the Naive/AB FMM variants use to form
//! `sum_i u_ir * A_i` temporaries and to distribute `M_r` into submatrices of
//! `C`. They are deliberately simple loops over strided views; the
//! column-major fast path (`rs == 1`) is special-cased so LLVM vectorizes it.

use crate::errors::DimError;
use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};

fn check_same_shape<T: Scalar>(
    op: &'static str,
    rows: usize,
    cols: usize,
    b: &MatRef<'_, T>,
) -> Result<(), DimError> {
    if b.rows() != rows || b.cols() != cols {
        return Err(DimError::new(op, &[rows, cols, b.rows(), b.cols()]));
    }
    Ok(())
}

/// `dst = src`.
pub fn copy<T: Scalar>(mut dst: MatMut<'_, T>, src: MatRef<'_, T>) -> Result<(), DimError> {
    check_same_shape("copy", dst.rows(), dst.cols(), &src)?;
    for j in 0..dst.cols() {
        for i in 0..dst.rows() {
            // SAFETY: loop bounds are the shared shape.
            let v = unsafe { src.at_unchecked(i, j) };
            dst.set(i, j, v);
        }
    }
    Ok(())
}

/// `dst += alpha * src`.
pub fn axpy<T: Scalar>(
    mut dst: MatMut<'_, T>,
    alpha: T,
    src: MatRef<'_, T>,
) -> Result<(), DimError> {
    check_same_shape("axpy", dst.rows(), dst.cols(), &src)?;
    let (rows, cols) = (dst.rows(), dst.cols());
    if dst.row_stride() == 1 && src.row_stride() == 1 {
        // Contiguous-column fast path.
        for j in 0..cols {
            // SAFETY: column j has `rows` contiguous elements in both views.
            unsafe {
                let d = dst.as_mut_ptr().offset(j as isize * dst.col_stride());
                let s = src.as_ptr().offset(j as isize * src.col_stride());
                for i in 0..rows {
                    *d.add(i) += alpha * *s.add(i);
                }
            }
        }
    } else {
        for j in 0..cols {
            for i in 0..rows {
                // SAFETY: loop bounds are the shared shape.
                let v = unsafe { src.at_unchecked(i, j) };
                dst.add_at(i, j, alpha * v);
            }
        }
    }
    Ok(())
}

/// `dst *= alpha`.
pub fn scale<T: Scalar>(mut dst: MatMut<'_, T>, alpha: T) {
    for j in 0..dst.cols() {
        for i in 0..dst.rows() {
            let v = dst.at(i, j);
            dst.set(i, j, alpha * v);
        }
    }
}

/// `dst = sum_i terms[i].0 * terms[i].1` (overwrites `dst`).
///
/// This is the operand-side linear combination of eq. (3) in the paper,
/// materialized into a temporary — the Naive-FMM path.
pub fn linear_combination<T: Scalar>(
    mut dst: MatMut<'_, T>,
    terms: &[(T, MatRef<'_, T>)],
) -> Result<(), DimError> {
    let (rows, cols) = (dst.rows(), dst.cols());
    for (_, t) in terms {
        check_same_shape("linear_combination", rows, cols, t)?;
    }
    match terms {
        [] => dst.fill(T::ZERO),
        [(a0, t0)] => {
            for j in 0..cols {
                for i in 0..rows {
                    // SAFETY: shape checked above.
                    let v = unsafe { t0.at_unchecked(i, j) };
                    dst.set(i, j, *a0 * v);
                }
            }
        }
        _ => {
            let (first, rest) = terms.split_first().expect("non-empty by match");
            for j in 0..cols {
                for i in 0..rows {
                    // SAFETY: shape checked above.
                    let mut acc = first.0 * unsafe { first.1.at_unchecked(i, j) };
                    for (a, t) in rest {
                        // SAFETY: every term was shape-checked above.
                        acc = a.mul_add(unsafe { t.at_unchecked(i, j) }, acc);
                    }
                    dst.set(i, j, acc);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn copy_roundtrip() {
        let src = Matrix::from_fn(3, 4, |i, j| (i * 7 + j) as f64);
        let mut dst = Matrix::zeros(3, 4);
        copy(dst.as_mut(), src.as_ref()).unwrap();
        assert_eq!(dst, src);
    }

    #[test]
    fn copy_shape_mismatch_errors() {
        let src = Matrix::<f64>::zeros(3, 4);
        let mut dst = Matrix::zeros(4, 3);
        assert!(copy(dst.as_mut(), src.as_ref()).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let src = Matrix::filled(2, 2, 3.0);
        let mut dst = Matrix::filled(2, 2, 1.0);
        axpy(dst.as_mut(), 2.0, src.as_ref()).unwrap();
        assert_eq!(dst, Matrix::filled(2, 2, 7.0));
        axpy(dst.as_mut(), -1.0, src.as_ref()).unwrap();
        assert_eq!(dst, Matrix::filled(2, 2, 4.0));
    }

    #[test]
    fn axpy_on_transposed_view_uses_slow_path() {
        let src = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        let mut dst = Matrix::zeros(3, 2);
        axpy(dst.as_mut(), 1.0, src.as_ref().t()).unwrap();
        assert_eq!(dst, src.transposed());
    }

    #[test]
    fn scale_multiplies_all() {
        let mut m = Matrix::filled(3, 3, 2.0);
        scale(m.as_mut(), -0.5);
        assert_eq!(m, Matrix::filled(3, 3, -1.0));
    }

    #[test]
    fn linear_combination_empty_zeroes() {
        let mut dst = Matrix::filled(2, 2, 9.0);
        linear_combination(dst.as_mut(), &[]).unwrap();
        assert_eq!(dst, Matrix::zeros(2, 2));
    }

    #[test]
    fn linear_combination_matches_manual() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(2, 2, |i, j| (i * j) as f64 + 1.0);
        let c = Matrix::identity(2);
        let mut dst = Matrix::filled(2, 2, 100.0); // must be overwritten
        linear_combination(
            dst.as_mut(),
            &[(2.0, a.as_ref()), (-1.0, b.as_ref()), (0.5, c.as_ref())],
        )
        .unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let expect = 2.0 * a.get(i, j) - b.get(i, j) + 0.5 * c.get(i, j);
                assert_eq!(dst.get(i, j), expect);
            }
        }
    }

    #[test]
    fn linear_combination_single_term_scales() {
        let a = Matrix::filled(3, 1, 4.0);
        let mut dst = Matrix::zeros(3, 1);
        linear_combination(dst.as_mut(), &[(-0.25, a.as_ref())]).unwrap();
        assert_eq!(dst, Matrix::filled(3, 1, -1.0));
    }

    #[test]
    fn ops_respect_submatrix_boundaries() {
        let mut big = Matrix::zeros(5, 5);
        let ones = Matrix::filled(2, 2, 1.0);
        axpy(big.as_mut().submatrix(1, 1, 2, 2), 3.0, ones.as_ref()).unwrap();
        assert_eq!(big.get(1, 1), 3.0);
        assert_eq!(big.get(2, 2), 3.0);
        assert_eq!(big.get(0, 0), 0.0);
        assert_eq!(big.get(3, 3), 0.0);
        assert_eq!(big.get(1, 3), 0.0);
    }
}
