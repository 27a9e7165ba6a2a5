//! Pooled, 64-byte-aligned ingest buffers: the single-copy path from the
//! socket to `multiply_batch` and back.
//!
//! A request's operand bytes are read by its connection's reader thread
//! *directly* into a [`PooledBuf`] checked out of the per-dtype
//! [`IngestPool`] — the `read(2)` into the buffer is the one and only
//! copy off the wire. The
//! combiner then hands the engine strided views over those same bytes
//! (the wire is row-major, which is just a stride choice for `MatRef`),
//! and the result is computed into a third pooled buffer laid out in wire
//! order, so the response writes straight from it with no intermediate
//! `Vec`.
//!
//! The pool is bounded two ways: at most `retain` idle buffers per dtype
//! are kept across requests, and their summed capacity may not exceed
//! `retain_bytes` — so a burst of max-size requests cannot leave
//! gigabytes parked in an idle pool after load subsides. The hit/miss
//! counters make the warm-path "zero allocations per request" property
//! testable (a pool hit reuses an existing allocation; only misses
//! allocate).
//!
//! `tests/serve_trace_alloc.rs` holds a warm request to flat pool misses
//! and counts its heap calls with a counting allocator; construction is
//! cold, and the pool-miss allocation goes through `AlignedBuf`, which
//! the hit/miss counters account for.

use crate::protocol::{Dtype, RequestDims, WireScalar};
use fmm_dense::{AlignedBuf, MatMut, MatRef, Scalar};
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counter snapshot of one dtype's pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Checkouts satisfied by a retained buffer (no allocation).
    pub hits: u64,
    /// Checkouts that had to allocate (cold pool, or no retained buffer
    /// large enough).
    pub misses: u64,
    /// Buffers currently retained and idle.
    pub retained: u64,
    /// Summed allocated capacity of the retained buffers, in bytes.
    pub retained_bytes: u64,
}

/// The idle set and its summed capacity, kept consistent under one lock.
struct IdleSet<T> {
    /// Idle buffers, each remembering its allocated capacity in elements.
    bufs: Vec<AlignedBuf<T>>,
    /// Summed allocated capacity of `bufs`, in bytes.
    bytes: usize,
}

struct PoolInner<T> {
    idle: Mutex<IdleSet<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Most idle buffers kept; beyond this, released buffers are dropped.
    retain: usize,
    /// Most idle *bytes* kept; a released buffer that would push the idle
    /// set past this is dropped no matter how short the set is.
    retain_bytes: usize,
}

/// A bounded pool of aligned buffers for one scalar type.
pub struct BufferPool<T> {
    inner: Arc<PoolInner<T>>,
}

impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

impl<T: Scalar> BufferPool<T> {
    /// A pool retaining at most `retain` idle buffers totalling at most
    /// `retain_bytes` of capacity.
    pub fn new(retain: usize, retain_bytes: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                idle: Mutex::new(IdleSet { bufs: Vec::new(), bytes: 0 }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                retain,
                retain_bytes,
            }),
        }
    }

    /// Check out a buffer of at least `elems` elements. Contents are
    /// unspecified (callers overwrite); see [`PooledBuf::zero`] for
    /// destinations that need `C += A·B` accumulation semantics.
    pub fn acquire(&self, elems: usize) -> PooledBuf<T> {
        let reused = {
            let mut idle = self.inner.idle.lock().expect("buffer pool poisoned");
            // Best-fit over the small retained set: the tightest buffer
            // that is large enough. Tightest matters — a request mix of
            // several sizes (operands and results differ) must not burn
            // the one big buffer on a small need and then re-allocate the
            // big one every round. Ties take the most recently released
            // (warmest) buffer.
            idle.bufs
                .iter()
                .enumerate()
                .filter(|(_, buf)| buf.len() >= elems)
                .min_by_key(|(at, buf)| (buf.len(), usize::MAX - at))
                .map(|(at, _)| at)
                .map(|at| {
                    let buf = idle.bufs.swap_remove(at);
                    idle.bytes -= buf.len() * std::mem::size_of::<T>();
                    buf
                })
        };
        let buf = match reused {
            Some(buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                AlignedBuf::zeroed(elems)
            }
        };
        let cap_bytes = buf.len() * std::mem::size_of::<T>();
        PooledBuf {
            buf: ManuallyDrop::new(buf),
            elems,
            cap_bytes,
            pool: Arc::downgrade(&self.inner),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let idle = self.inner.idle.lock().expect("buffer pool poisoned");
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            retained: idle.bufs.len() as u64,
            retained_bytes: idle.bytes as u64,
        }
    }
}

/// A buffer checked out of a [`BufferPool`]; returns to the pool on drop
/// (up to the pool's retention bound). `elems` is the *used* element
/// count for this checkout — the allocation behind it may be larger.
pub struct PooledBuf<T> {
    /// `ManuallyDrop` so the drop path can move the allocation back into
    /// the pool without swapping a placeholder allocation in.
    buf: ManuallyDrop<AlignedBuf<T>>,
    elems: usize,
    /// Allocated capacity in bytes — what the pool's byte budget charges
    /// on return (recorded here because `Drop` cannot ask the buffer).
    cap_bytes: usize,
    pool: std::sync::Weak<PoolInner<T>>,
}

impl<T> std::fmt::Debug for PooledBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBuf({} elems)", self.elems)
    }
}

impl<T: Scalar> PooledBuf<T> {
    /// Used element count of this checkout.
    pub fn elems(&self) -> usize {
        self.elems
    }

    /// The used region as raw little-endian-native bytes, for writing to
    /// the wire.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: the first `elems` elements are initialized scalars and
        // any float bit pattern is a valid byte sequence.
        unsafe {
            std::slice::from_raw_parts(
                self.buf.as_ptr() as *const u8,
                self.elems * std::mem::size_of::<T>(),
            )
        }
    }

    /// The used region as writable bytes — the destination a connection
    /// reader reads socket payloads straight into (the single copy off the
    /// wire).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: exclusive access; every bit pattern is a valid scalar.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.buf.as_mut_ptr() as *mut u8,
                self.elems * std::mem::size_of::<T>(),
            )
        }
    }

    /// Zero the used region (accumulation destinations need `C = 0`
    /// before `C += A·B`). A memset, never an allocation.
    pub fn zero(&mut self) {
        self.as_mut_slice().fill(T::ZERO);
    }

    /// The used region as a scalar slice.
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..self.elems]
    }

    /// The used region as a mutable scalar slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let elems = self.elems;
        &mut self.buf[..elems]
    }

    /// View the used region as a **row-major** `rows × cols` matrix —
    /// exactly the wire layout, expressed as strides (`rs = cols`,
    /// `cs = 1`) so no transposition copy ever happens.
    pub fn mat_ref(&self, rows: usize, cols: usize) -> MatRef<'_, T> {
        assert!(rows.saturating_mul(cols) <= self.elems, "view exceeds checkout");
        // SAFETY: bounds asserted above; shared borrow for the view's
        // lifetime.
        unsafe { MatRef::from_raw_parts(self.buf.as_ptr(), rows, cols, cols as isize, 1) }
    }

    /// Mutable row-major view of the used region.
    pub fn mat_mut(&mut self, rows: usize, cols: usize) -> MatMut<'_, T> {
        assert!(rows.saturating_mul(cols) <= self.elems, "view exceeds checkout");
        // SAFETY: bounds asserted above; exclusive borrow for the view's
        // lifetime.
        unsafe { MatMut::from_raw_parts(self.buf.as_mut_ptr(), rows, cols, cols as isize, 1) }
    }

    /// Convert the wire's little-endian element bytes to host order in
    /// place. A no-op on little-endian hosts — the read into the buffer
    /// was already the decode.
    pub fn wire_to_host(&mut self) {
        if cfg!(target_endian = "big") {
            let width = std::mem::size_of::<T>();
            for chunk in self.bytes_mut().chunks_exact_mut(width) {
                chunk.reverse();
            }
        }
    }

    /// Convert host-order elements to the wire's little-endian bytes in
    /// place (the buffer is about to be sent and never read again as
    /// scalars). A no-op on little-endian hosts.
    pub fn host_to_wire(&mut self) {
        self.wire_to_host();
    }
}

impl<T> Drop for PooledBuf<T> {
    fn drop(&mut self) {
        // SAFETY: `buf` is taken exactly once, here; no use after this.
        let buf = unsafe { ManuallyDrop::take(&mut self.buf) };
        if let Some(pool) = self.pool.upgrade() {
            let bytes = self.cap_bytes;
            let mut idle = pool.idle.lock().expect("buffer pool poisoned");
            if idle.bufs.len() < pool.retain && idle.bytes + bytes <= pool.retain_bytes {
                idle.bytes += bytes;
                idle.bufs.push(buf);
                return;
            }
        }
        drop(buf);
    }
}

/// A type-erased pooled result buffer: what completions carry back to a
/// connection's writer, which only needs the bytes (and the drop-to-pool
/// return).
pub enum WireBuf {
    /// A double-precision result.
    F64(PooledBuf<f64>),
    /// A single-precision result.
    F32(PooledBuf<f32>),
}

impl WireBuf {
    /// The used region as wire bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            Self::F64(b) => b.bytes(),
            Self::F32(b) => b.bytes(),
        }
    }

    /// The dtype tag of the carried buffer.
    pub fn dtype(&self) -> Dtype {
        match self {
            Self::F64(_) => Dtype::F64,
            Self::F32(_) => Dtype::F32,
        }
    }
}

impl From<PooledBuf<f64>> for WireBuf {
    fn from(b: PooledBuf<f64>) -> Self {
        Self::F64(b)
    }
}

impl From<PooledBuf<f32>> for WireBuf {
    fn from(b: PooledBuf<f32>) -> Self {
        Self::F32(b)
    }
}

/// A request's staged operands: the `A`/`B` pooled buffers a connection
/// reader fills straight off the wire, tagged by dtype. The payload body
/// is `A`'s bytes, then `B`'s — exactly the two regions
/// [`OperandStage::bytes_mut`] hands out.
#[derive(Debug)]
pub enum OperandStage {
    /// Double-precision operands.
    F64 {
        /// Left operand buffer (`m·k` elements).
        a: PooledBuf<f64>,
        /// Right operand buffer (`k·n` elements).
        b: PooledBuf<f64>,
    },
    /// Single-precision operands.
    F32 {
        /// Left operand buffer (`m·k` elements).
        a: PooledBuf<f32>,
        /// Right operand buffer (`k·n` elements).
        b: PooledBuf<f32>,
    },
}

impl OperandStage {
    /// Check operand buffers for `dims` out of the right dtype pool.
    pub fn acquire(pools: &IngestPools, dims: RequestDims) -> Self {
        match dims.dtype {
            Dtype::F64 => Self::F64 {
                a: pools.f64.acquire(dims.m * dims.k),
                b: pools.f64.acquire(dims.k * dims.n),
            },
            Dtype::F32 => Self::F32 {
                a: pools.f32.acquire(dims.m * dims.k),
                b: pools.f32.acquire(dims.k * dims.n),
            },
        }
    }

    /// The `A` and `B` operand regions as writable bytes, in wire order —
    /// the two `read(2)` destinations of a request's payload body.
    pub fn bytes_mut(&mut self) -> (&mut [u8], &mut [u8]) {
        match self {
            Self::F64 { a, b } => (a.bytes_mut(), b.bytes_mut()),
            Self::F32 { a, b } => (a.bytes_mut(), b.bytes_mut()),
        }
    }

    /// Convert both operands from wire little-endian to host order (a
    /// no-op on little-endian hosts).
    pub fn wire_to_host(&mut self) {
        match self {
            Self::F64 { a, b } => {
                a.wire_to_host();
                b.wire_to_host();
            }
            Self::F32 { a, b } => {
                a.wire_to_host();
                b.wire_to_host();
            }
        }
    }
}

/// The per-dtype buffer pools one server shares across its connections
/// and combiners.
pub struct IngestPools {
    /// f64 operand/result buffers.
    pub f64: BufferPool<f64>,
    /// f32 operand/result buffers.
    pub f32: BufferPool<f32>,
}

impl IngestPools {
    /// Pools retaining at most `retain` idle buffers and `retain_bytes`
    /// idle bytes per dtype.
    pub fn new(retain: usize, retain_bytes: usize) -> Self {
        Self {
            f64: BufferPool::new(retain, retain_bytes),
            f32: BufferPool::new(retain, retain_bytes),
        }
    }

    /// The pool serving `T`'s dtype.
    pub fn pool<T: PooledScalar>(&self) -> &BufferPool<T> {
        T::pool(self)
    }
}

/// Per-scalar pool selection — the static dispatch that lets generic
/// ingest code pull the right dtype's pool out of [`IngestPools`].
pub trait PooledScalar: WireScalar {
    /// The pool serving this scalar's dtype.
    fn pool(pools: &IngestPools) -> &BufferPool<Self>
    where
        Self: Sized;
}

impl PooledScalar for f64 {
    fn pool(pools: &IngestPools) -> &BufferPool<Self> {
        &pools.f64
    }
}

impl PooledScalar for f32 {
    fn pool(pools: &IngestPools) -> &BufferPool<Self> {
        &pools.f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers_and_counts_hits() {
        let pool = BufferPool::<f64>::new(4, usize::MAX);
        {
            let mut a = pool.acquire(64);
            a.as_mut_slice()[0] = 7.0;
        }
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().retained, 1);
        {
            let b = pool.acquire(64);
            assert_eq!(b.elems(), 64);
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.retained), (1, 1, 1), "warm acquire did not allocate");
        // A larger request misses even with a retained (smaller) buffer.
        let _c = pool.acquire(128);
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn pool_retention_is_bounded() {
        let pool = BufferPool::<f32>::new(2, usize::MAX);
        let bufs: Vec<_> = (0..5).map(|_| pool.acquire(16)).collect();
        drop(bufs);
        assert_eq!(pool.stats().retained, 2, "idle set bounded by retain");
    }

    #[test]
    fn pool_retention_is_bounded_by_bytes() {
        // Budget fits two 64-element f64 buffers (1024 bytes); a third
        // release must be dropped even though the count bound (8) has
        // plenty of room left.
        let pool = BufferPool::<f64>::new(8, 1024);
        let bufs: Vec<_> = (0..3).map(|_| pool.acquire(64)).collect();
        drop(bufs);
        let stats = pool.stats();
        assert_eq!(stats.retained, 2, "byte budget capped the idle set");
        assert_eq!(stats.retained_bytes, 1024);
        // Reacquiring frees budget: release-after-acquire is retained again.
        {
            let _held = pool.acquire(64);
            assert_eq!(pool.stats().retained_bytes, 512, "checkout released its bytes");
        }
        assert_eq!(pool.stats().retained_bytes, 1024, "returned buffer recharged the budget");
    }

    #[test]
    fn row_major_views_see_wire_order() {
        let pool = BufferPool::<f64>::new(2, usize::MAX);
        let mut buf = pool.acquire(6);
        // Wire order for a 2x3 row-major matrix: [r0c0 r0c1 r0c2 r1c0 ...]
        buf.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let view = buf.mat_ref(2, 3);
        assert_eq!(view.at(0, 1), 2.0);
        assert_eq!(view.at(1, 0), 4.0);
        assert_eq!(view.at(1, 2), 6.0);
    }

    #[test]
    fn bytes_roundtrip_through_wire_view() {
        let pool = BufferPool::<f64>::new(2, usize::MAX);
        let mut buf = pool.acquire(2);
        let vals = [1.5f64, -2.25];
        let mut wire = Vec::new();
        for v in vals {
            wire.extend_from_slice(&v.to_le_bytes());
        }
        buf.bytes_mut().copy_from_slice(&wire);
        buf.wire_to_host();
        assert_eq!(buf.as_slice(), &vals);
        buf.host_to_wire();
        assert_eq!(buf.bytes(), &wire[..]);
    }

    #[test]
    fn zero_is_a_memset_not_an_allocation() {
        let pool = BufferPool::<f64>::new(2, usize::MAX);
        let mut buf = pool.acquire(32);
        buf.as_mut_slice().fill(3.0);
        buf.zero();
        assert!(buf.as_slice().iter().all(|&v| v == 0.0));
        drop(buf);
        let misses = pool.stats().misses;
        let mut again = pool.acquire(32);
        again.zero();
        assert_eq!(pool.stats().misses, misses, "zeroing a pooled buffer never allocates");
    }
}
