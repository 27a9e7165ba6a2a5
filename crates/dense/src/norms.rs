//! Norms and error measures used to validate FMM results against reference
//! products.

use crate::scalar::Scalar;
use crate::view::MatRef;

/// Maximum absolute entry, widened to `f64`.
fn max_abs<T: Scalar>(a: MatRef<'_, T>) -> f64 {
    a.fold(0.0_f64, |acc, v| acc.max(v.abs().to_f64()))
}

/// Frobenius norm, accumulated in `f64` regardless of the element type.
pub fn frobenius<T: Scalar>(a: MatRef<'_, T>) -> f64 {
    a.fold(0.0, |acc, v| acc + v.to_f64() * v.to_f64()).sqrt()
}

/// Maximum absolute elementwise difference (in `f64`). Panics on shape
/// mismatch.
pub fn max_abs_diff<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> f64 {
    assert_eq!(a.rows(), b.rows(), "max_abs_diff: row mismatch");
    assert_eq!(a.cols(), b.cols(), "max_abs_diff: col mismatch");
    let mut worst = 0.0_f64;
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            // SAFETY: loop bounds are the (checked-equal) shape.
            let d =
                unsafe { (a.at_unchecked(i, j).to_f64() - b.at_unchecked(i, j).to_f64()).abs() };
            worst = worst.max(d);
        }
    }
    worst
}

/// Relative error `||a - b||_max / max(1, ||b||_max)` — the acceptance
/// metric for FMM-vs-reference comparisons.
pub fn rel_error<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> f64 {
    max_abs_diff(a, b) / max_abs(b).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn frobenius_of_identity() {
        let id = Matrix::<f64>::identity(9);
        assert!((frobenius(id.as_ref()) - 3.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_diff_detects_single_entry() {
        let a = Matrix::<f64>::zeros(3, 3);
        let mut b = Matrix::zeros(3, 3);
        b.set(2, 1, 1e-3);
        assert_eq!(max_abs_diff(a.as_ref(), b.as_ref()), 1e-3);
    }

    #[test]
    fn rel_error_zero_for_identical() {
        let a = crate::fill::bench_workload(5, 7, 1);
        assert_eq!(rel_error(a.as_ref(), a.as_ref()), 0.0);
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn diff_shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        max_abs_diff(a.as_ref(), b.as_ref());
    }
}
