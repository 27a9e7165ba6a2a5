//! Owned column-major matrix storage.

use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};

/// An owned, column-major matrix of `T` (default `f64`).
///
/// Element `(i, j)` lives at linear index `i + j * ld` where `ld >= rows` is
/// the leading dimension. Freshly-constructed matrices have `ld == rows`;
/// a larger `ld` arises only through [`Matrix::with_leading_dim`], which is
/// useful for exercising strided code paths in tests.
#[derive(Clone, Debug)]
pub struct Matrix<T = f64> {
    data: Vec<T>,
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<T: Scalar> Matrix<T> {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![T::ZERO; rows.max(1).saturating_mul(cols)], rows, cols, ld: rows.max(1) }
    }

    /// An `rows x cols` matrix with every entry `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, T::ONE);
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Build from a row-major slice of `rows * cols` values.
    ///
    /// Row-major input is the natural way to write small matrices in source
    /// code; storage remains column-major.
    pub fn from_rows(rows: usize, cols: usize, values: &[T]) -> Self {
        assert_eq!(values.len(), rows * cols, "from_rows: wrong number of values");
        Self::from_fn(rows, cols, |i, j| values[i * cols + j])
    }

    /// Build with an explicit leading dimension `ld >= rows` (padding rows are zero).
    pub fn with_leading_dim(rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension must be >= rows");
        Self { data: vec![T::ZERO; ld * cols], rows, cols, ld }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (stride between columns).
    #[inline]
    pub fn leading_dim(&self) -> usize {
        self.ld
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i + j * self.ld]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i + j * self.ld] = v;
    }

    /// Immutable strided view of the whole matrix.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        // SAFETY: `data` holds `ld * cols` elements laid out column-major, so
        // every (i, j) with i < rows <= ld, j < cols is in bounds.
        unsafe {
            MatRef::from_raw_parts(self.data.as_ptr(), self.rows, self.cols, 1, self.ld as isize)
        }
    }

    /// Mutable strided view of the whole matrix.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_, T> {
        // SAFETY: as in `as_ref`, plus exclusive access through `&mut self`.
        unsafe {
            MatMut::from_raw_parts(
                self.data.as_mut_ptr(),
                self.rows,
                self.cols,
                1,
                self.ld as isize,
            )
        }
    }

    /// The raw column-major backing storage (including any `ld` padding).
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the raw column-major backing storage.
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Set every entry to zero.
    pub fn clear(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Maximum absolute entry, 0.0 for empty matrices.
    pub fn max_abs(&self) -> T {
        self.as_ref().fold(T::ZERO, |acc, v| acc.max(v.abs()))
    }

    /// Entrywise conversion into another scalar type (e.g. the `f64` copy
    /// of an `f32` operand that reference comparisons are computed in).
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        Matrix::from_fn(self.rows, self.cols, |i, j| U::from_f64(self.get(i, j).to_f64()))
    }
}

impl<T: Scalar> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        for j in 0..self.cols {
            for i in 0..self.rows {
                if self.get(i, j) != other.get(i, j) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::<f64>::zeros(3, 5);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
        for j in 0..5 {
            for i in 0..3 {
                assert_eq!(m.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn from_fn_and_get_set_roundtrip() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        assert_eq!(m.get(2, 3), 11.0);
        m.set(2, 3, -1.0);
        assert_eq!(m.get(2, 3), -1.0);
    }

    #[test]
    fn from_rows_is_row_major_input() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.get(1, 2), 6.0);
        // Column-major layout in memory.
        assert_eq!(m.raw(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let m = Matrix::<f64>::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn leading_dim_padding_is_respected() {
        let mut m = Matrix::<f64>::with_leading_dim(2, 3, 5);
        assert_eq!(m.leading_dim(), 5);
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.raw().len(), 15);
        assert_eq!(m.raw()[1 + 2 * 5], 7.0);
    }

    #[test]
    fn transposed_swaps_indices() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), m.get(1, 2));
    }

    #[test]
    fn equality_ignores_leading_dim() {
        let mut a = Matrix::with_leading_dim(2, 2, 4);
        let mut b = Matrix::zeros(2, 2);
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            a.set(i, j, (i + j) as f64);
            b.set(i, j, (i + j) as f64);
        }
        assert_eq!(a, b);
        b.set(1, 1, 99.0);
        assert_ne!(a, b);
    }

    #[test]
    fn max_abs_finds_extreme() {
        let m = Matrix::from_rows(2, 2, &[1.0, -8.0, 3.0, 4.0]);
        assert_eq!(m.max_abs(), 8.0);
    }

    #[test]
    fn empty_matrix_is_usable() {
        let m = Matrix::<f64>::zeros(0, 0);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut m = Matrix::filled(3, 3, 2.5);
        m.clear();
        assert_eq!(m.max_abs(), 0.0);
    }
}
