//! 64-byte-aligned scratch buffers for BLIS-style packing.
//!
//! Packed panels are streamed through SIMD loads; cache-line alignment keeps
//! every `mR`/`nR` micro-panel row aligned and avoids split loads. `Vec<T>`
//! only guarantees the element's natural alignment, hence this dedicated
//! type, generic over the [`Scalar`] element (default `f64`).

use crate::scalar::Scalar;
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};

const ALIGN: usize = 64;

/// A heap buffer of `T` scalars aligned to 64 bytes.
pub struct AlignedBuf<T = f64> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: `AlignedBuf` owns its allocation exclusively, like `Vec<T>`.
unsafe impl<T: Scalar> Send for AlignedBuf<T> {}
// SAFETY: `&AlignedBuf` only reads the elements, which are `Sync`;
// mutation needs `&mut`, as for `Vec<T>`.
unsafe impl<T: Scalar> Sync for AlignedBuf<T> {}

impl<T: Scalar> AlignedBuf<T> {
    /// Allocate `len` zeroed elements (at least one allocation unit).
    pub fn zeroed(len: usize) -> Self {
        let alloc_len = len.max(1);
        let layout = Layout::from_size_align(alloc_len * std::mem::size_of::<T>(), ALIGN)
            .expect("AlignedBuf layout");
        // SAFETY: layout has non-zero size, and all-zero bits are a valid
        // (zero-valued) float of either width.
        let ptr = unsafe { alloc_zeroed(layout) } as *mut T;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Self { ptr, len }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grow (never shrink) to hold at least `len` elements; contents are not
    /// preserved. Reuse pattern for per-thread packing scratch.
    pub fn ensure_capacity(&mut self, len: usize) {
        if len > self.len {
            *self = Self::zeroed(len);
        }
    }

    /// Raw pointer to the first element.
    pub fn as_ptr(&self) -> *const T {
        self.ptr
    }

    /// Mutable raw pointer to the first element.
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }
}

impl<T: Scalar> Deref for AlignedBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` is valid for `len` initialized elements.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Scalar> DerefMut for AlignedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: exclusive ownership; `ptr` valid for `len` elements.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl<T> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        let alloc_len = self.len.max(1);
        let layout = Layout::from_size_align(alloc_len * std::mem::size_of::<T>(), ALIGN)
            .expect("AlignedBuf layout");
        // SAFETY: allocated with the identical layout in `zeroed`.
        unsafe { dealloc(self.ptr as *mut u8, layout) };
    }
}

impl<T: Scalar> std::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf(len={}, align={})", self.len, ALIGN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_64_byte_aligned() {
        for len in [1, 7, 64, 1000] {
            let b = AlignedBuf::<f64>::zeroed(len);
            assert_eq!(b.as_ptr() as usize % 64, 0, "len={len}");
        }
    }

    #[test]
    fn starts_zeroed_and_is_writable() {
        let mut b = AlignedBuf::zeroed(128);
        assert!(b.iter().all(|&v| v == 0.0));
        b[127] = 3.5;
        assert_eq!(b[127], 3.5);
    }

    #[test]
    fn zero_len_buffer_is_safe() {
        let b = AlignedBuf::<f64>::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn ensure_capacity_grows_only() {
        let mut b = AlignedBuf::<f64>::zeroed(10);
        let p10 = b.as_ptr();
        b.ensure_capacity(5);
        assert_eq!(b.len(), 10);
        assert_eq!(b.as_ptr(), p10);
        b.ensure_capacity(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.as_ptr() as usize % 64, 0);
    }
}
