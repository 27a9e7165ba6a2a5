//! Borrowed strided matrix views.
//!
//! Strassen-like algorithms slice the operands into grids of submatrices and
//! take many simultaneous views into the same allocation. [`MatRef`] and
//! [`MatMut`] are thin `(ptr, rows, cols, row_stride, col_stride)` tuples so
//! that partitioning is O(1) and copy-free. Column-major storage corresponds
//! to `rs == 1`, `cs == leading_dim`, but arbitrary strides are supported
//! (transpose is a stride swap).

use crate::scalar::Scalar;
use std::marker::PhantomData;

/// Immutable strided view of a matrix of `T` (default `f64`).
#[derive(Debug)]
pub struct MatRef<'a, T = f64> {
    ptr: *const T,
    rows: usize,
    cols: usize,
    rs: isize,
    cs: isize,
    _marker: PhantomData<&'a T>,
}

impl<T> Clone for MatRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for MatRef<'_, T> {}

// SAFETY: a `MatRef` only permits reads of the underlying scalar data, which
// is `Sync`; sharing the view across threads is as safe as sharing `&[T]`.
unsafe impl<T: Scalar> Send for MatRef<'_, T> {}
// SAFETY: a shared `&MatRef` gives no more access than a `MatRef`: reads
// of `Sync` data, like `&&[T]`.
unsafe impl<T: Scalar> Sync for MatRef<'_, T> {}

/// Mutable strided view of a matrix of `T` (default `f64`).
#[derive(Debug)]
pub struct MatMut<'a, T = f64> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    rs: isize,
    cs: isize,
    _marker: PhantomData<&'a mut T>,
}

// SAFETY: `MatMut` is an exclusive view (it is not `Copy`/`Clone`), so moving
// it to another thread moves exclusive access, like `&mut [T]`.
unsafe impl<T: Scalar> Send for MatMut<'_, T> {}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// Build a view from raw parts.
    ///
    /// # Safety
    /// For all `i < rows`, `j < cols`, `ptr.offset(i*rs + j*cs)` must be
    /// in-bounds, readable for lifetime `'a`, and no `&mut` alias may exist.
    #[inline]
    pub unsafe fn from_raw_parts(
        ptr: *const T,
        rows: usize,
        cols: usize,
        rs: isize,
        cs: isize,
    ) -> Self {
        Self { ptr, rows, cols, rs, cs, _marker: PhantomData }
    }

    /// View of a column-major slice with leading dimension `ld`.
    pub fn from_col_major(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension too small");
        assert!(data.len() >= ld * cols.saturating_sub(1) + rows.min(ld), "slice too short");
        // SAFETY: bounds checked above; shared borrow of `data` for 'a.
        unsafe { Self::from_raw_parts(data.as_ptr(), rows, cols, 1, ld as isize) }
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

    /// Row stride.
    #[inline]
    pub fn row_stride(&self) -> isize {
        self.rs
    }

    /// Column stride.
    #[inline]
    pub fn col_stride(&self) -> isize {
        self.cs
    }

    /// Raw pointer to element (0, 0).
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Element access with bounds check.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "MatRef index out of bounds");
        // SAFETY: in-bounds by the check above and the construction contract.
        unsafe { *self.ptr.offset(i as isize * self.rs + j as isize * self.cs) }
    }

    /// Element access without bounds check.
    ///
    /// # Safety
    /// `i < rows && j < cols`.
    #[inline]
    pub unsafe fn at_unchecked(&self, i: usize, j: usize) -> T {
        // SAFETY: in-bounds by the caller's contract; the offset stays within
        // the allocation the view was constructed over.
        unsafe { *self.ptr.offset(i as isize * self.rs + j as isize * self.cs) }
    }

    /// Submatrix view: rows `[ri, ri+nrows)`, cols `[ci, ci+ncols)`.
    #[inline]
    pub fn submatrix(&self, ri: usize, ci: usize, nrows: usize, ncols: usize) -> MatRef<'a, T> {
        assert!(ri + nrows <= self.rows && ci + ncols <= self.cols, "submatrix out of bounds");
        // SAFETY: the sub-range is contained in the parent's valid range.
        unsafe {
            MatRef::from_raw_parts(
                self.ptr.offset(ri as isize * self.rs + ci as isize * self.cs),
                nrows,
                ncols,
                self.rs,
                self.cs,
            )
        }
    }

    /// Transposed view (swaps dimensions and strides; no data movement).
    #[inline]
    pub fn t(&self) -> MatRef<'a, T> {
        // SAFETY: same data, same valid index set with roles of i/j swapped.
        unsafe { MatRef::from_raw_parts(self.ptr, self.cols, self.rows, self.cs, self.rs) }
    }

    /// Fold over all elements in column-major order.
    pub fn fold<U>(&self, init: U, mut f: impl FnMut(U, T) -> U) -> U {
        let mut acc = init;
        for j in 0..self.cols {
            for i in 0..self.rows {
                // SAFETY: loop bounds guarantee in-range indices.
                acc = f(acc, unsafe { self.at_unchecked(i, j) });
            }
        }
        acc
    }

    /// Copy into an owned [`crate::Matrix`].
    pub fn to_owned(&self) -> crate::Matrix<T> {
        crate::Matrix::from_fn(self.rows, self.cols, |i, j| self.at(i, j))
    }
}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// Build a mutable view from raw parts.
    ///
    /// # Safety
    /// For all `i < rows`, `j < cols`, `ptr.offset(i*rs + j*cs)` must be
    /// in-bounds and exclusively writable for `'a`; distinct `(i, j)` pairs
    /// must address distinct elements (no self-aliasing strides).
    #[inline]
    pub unsafe fn from_raw_parts(
        ptr: *mut T,
        rows: usize,
        cols: usize,
        rs: isize,
        cs: isize,
    ) -> Self {
        Self { ptr, rows, cols, rs, cs, _marker: PhantomData }
    }

    /// Mutable view of a column-major slice with leading dimension `ld`.
    pub fn from_col_major(data: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension too small");
        assert!(data.len() >= ld * cols.saturating_sub(1) + rows.min(ld), "slice too short");
        // SAFETY: bounds checked above; exclusive borrow of `data` for 'a.
        unsafe { Self::from_raw_parts(data.as_mut_ptr(), rows, cols, 1, ld as isize) }
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

    /// Row stride.
    #[inline]
    pub fn row_stride(&self) -> isize {
        self.rs
    }

    /// Column stride.
    #[inline]
    pub fn col_stride(&self) -> isize {
        self.cs
    }

    /// Raw pointer to element (0, 0).
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    /// Element read.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "MatMut index out of bounds");
        // SAFETY: in-bounds by the check above.
        unsafe { *self.ptr.offset(i as isize * self.rs + j as isize * self.cs) }
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "MatMut index out of bounds");
        // SAFETY: in-bounds by the check above; exclusive access via &mut self.
        unsafe { *self.ptr.offset(i as isize * self.rs + j as isize * self.cs) = v }
    }

    /// In-place update `self[i,j] += v`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.rows && j < self.cols, "MatMut index out of bounds");
        // SAFETY: in-bounds by the check above.
        unsafe { *self.ptr.offset(i as isize * self.rs + j as isize * self.cs) += v }
    }

    /// Reborrow as an immutable view.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        // SAFETY: downgrading exclusive access to shared access.
        unsafe { MatRef::from_raw_parts(self.ptr, self.rows, self.cols, self.rs, self.cs) }
    }

    /// Reborrow mutably with a shorter lifetime.
    #[inline]
    pub fn reborrow(&mut self) -> MatMut<'_, T> {
        // SAFETY: `&mut self` guarantees exclusivity for the shorter lifetime.
        unsafe { MatMut::from_raw_parts(self.ptr, self.rows, self.cols, self.rs, self.cs) }
    }

    /// Mutable submatrix view: rows `[ri, ri+nrows)`, cols `[ci, ci+ncols)`.
    ///
    /// Consumes the view; use [`MatMut::reborrow`] first to keep the parent.
    #[inline]
    pub fn submatrix(self, ri: usize, ci: usize, nrows: usize, ncols: usize) -> MatMut<'a, T> {
        assert!(ri + nrows <= self.rows && ci + ncols <= self.cols, "submatrix out of bounds");
        // SAFETY: contained sub-range of an exclusively borrowed range.
        unsafe {
            MatMut::from_raw_parts(
                self.ptr.offset(ri as isize * self.rs + ci as isize * self.cs),
                nrows,
                ncols,
                self.rs,
                self.cs,
            )
        }
    }

    /// Split into two disjoint mutable views at row `r`: `[0, r)` and `[r, rows)`.
    pub fn split_rows(self, r: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(r <= self.rows, "split_rows out of bounds");
        // SAFETY: the two halves address disjoint element sets of the parent.
        unsafe {
            (
                MatMut::from_raw_parts(self.ptr, r, self.cols, self.rs, self.cs),
                MatMut::from_raw_parts(
                    self.ptr.offset(r as isize * self.rs),
                    self.rows - r,
                    self.cols,
                    self.rs,
                    self.cs,
                ),
            )
        }
    }

    /// Split into two disjoint mutable views at column `c`: `[0, c)` and `[c, cols)`.
    pub fn split_cols(self, c: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(c <= self.cols, "split_cols out of bounds");
        // SAFETY: disjoint column ranges of the parent.
        unsafe {
            (
                MatMut::from_raw_parts(self.ptr, self.rows, c, self.rs, self.cs),
                MatMut::from_raw_parts(
                    self.ptr.offset(c as isize * self.cs),
                    self.rows,
                    self.cols - c,
                    self.rs,
                    self.cs,
                ),
            )
        }
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: T) {
        for j in 0..self.cols {
            for i in 0..self.rows {
                self.set(i, j, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Matrix;

    #[test]
    fn submatrix_addresses_expected_elements() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 10 + j) as f64);
        let v = m.as_ref().submatrix(2, 3, 3, 2);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.at(0, 0), 23.0);
        assert_eq!(v.at(2, 1), 44.0);
    }

    #[test]
    fn nested_submatrix_composes() {
        let m = Matrix::from_fn(8, 8, |i, j| (i * 100 + j) as f64);
        let outer = m.as_ref().submatrix(2, 2, 4, 4);
        let inner = outer.submatrix(1, 1, 2, 2);
        assert_eq!(inner.at(0, 0), m.get(3, 3));
        assert_eq!(inner.at(1, 1), m.get(4, 4));
    }

    #[test]
    fn transpose_view_is_stride_swap() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.as_ref().t();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        for i in 0..5 {
            for j in 0..3 {
                assert_eq!(t.at(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let m = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let tt = m.as_ref().t().t();
        assert_eq!(tt.to_owned(), m);
    }

    #[test]
    fn mut_view_writes_through() {
        let mut m = Matrix::zeros(4, 4);
        {
            let mut v = m.as_mut().submatrix(1, 1, 2, 2);
            v.set(0, 0, 5.0);
            v.add_at(0, 0, 1.5);
            v.set(1, 1, -2.0);
        }
        assert_eq!(m.get(1, 1), 6.5);
        assert_eq!(m.get(2, 2), -2.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn split_rows_partitions_disjointly() {
        let mut m = Matrix::zeros(4, 3);
        let (mut top, mut bot) = m.as_mut().split_rows(1);
        top.fill(1.0);
        bot.fill(2.0);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(3, 2), 2.0);
    }

    #[test]
    fn split_cols_partitions_disjointly() {
        let mut m = Matrix::zeros(3, 4);
        let (mut left, mut right) = m.as_mut().split_cols(3);
        left.fill(-1.0);
        right.fill(4.0);
        assert_eq!(m.get(2, 2), -1.0);
        assert_eq!(m.get(0, 3), 4.0);
    }

    #[test]
    fn from_col_major_respects_ld() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        // 2 rows, 3 cols, ld = 4: columns start at 0, 4, 8.
        let v = crate::MatRef::from_col_major(&data, 2, 3, 4);
        assert_eq!(v.at(0, 0), 0.0);
        assert_eq!(v.at(1, 0), 1.0);
        assert_eq!(v.at(0, 1), 4.0);
        assert_eq!(v.at(1, 2), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn submatrix_oob_panics() {
        let m = Matrix::<f64>::zeros(3, 3);
        let _ = m.as_ref().submatrix(1, 1, 3, 1);
    }

    #[test]
    fn fold_visits_every_element() {
        let m = Matrix::filled(3, 4, 1.0);
        let count = m.as_ref().fold(0usize, |acc, _| acc + 1);
        assert_eq!(count, 12);
        let sum = m.as_ref().fold(0.0, |acc, v| acc + v);
        assert_eq!(sum, 12.0);
    }
}
