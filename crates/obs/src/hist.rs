//! Fixed-footprint log-bucketed histograms.
//!
//! The layout is the classic HDR-style "octave + sub-bucket" scheme:
//! values 0..7 get one exact bucket each, and every octave above that
//! is split into 8 sub-buckets, so a bucket spanning `[lo, hi]` always
//! has `hi < lo * 1.125`. Quantiles reported from bucket upper bounds
//! are therefore at most 12.5% above the exact-sort answer, while the
//! whole histogram is 496 relaxed `AtomicU64`s (~4 KB) regardless of
//! how many samples it absorbs.
//!
//! Unlike the sliding-window ring it replaces in `fmm-serve`, counts
//! are never evicted: p50/p99 summarize *every* sample since process
//! start, and two histograms recorded on different threads merge by
//! bucket-wise addition.
//!
//! Recording a sample never touches the heap: `audit::record` records
//! into a histogram, and `tests/audit_alloc.rs` counts its heap calls
//! with a counting allocator. Merging walks the fixed bucket arrays.
//! `snapshot` is the cold export path and may allocate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count: 8 exact unit buckets plus 8 sub-buckets for each
/// of the 61 octaves from 2^3 up through 2^63.
pub const BUCKETS: usize = SUB + 61 * SUB;

/// Bucket index for a value. Monotone in `v`; saturates at `BUCKETS-1`
/// for `u64::MAX`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
        let sub = ((v >> (msb - SUB_BITS)) as usize) - SUB;
        ((msb - SUB_BITS) as usize) * SUB + SUB + sub
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        (index as u64, index as u64)
    } else {
        let oct = (index - SUB) / SUB;
        let sub = (index - SUB) % SUB;
        let lo = ((SUB + sub) as u64) << oct;
        let width = 1u64 << oct;
        (lo, lo + (width - 1))
    }
}

/// A concurrent log-bucketed histogram. All mutation is relaxed-atomic
/// and lock-free; `snapshot` reads are racy-but-consistent-enough in
/// the usual monitoring sense (counts never decrease).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            // u64::MAX means "no sample yet"; any real sample replaces it.
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Three relaxed RMWs plus a relaxed min/max.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total samples recorded since creation.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Bucket-wise addition of `other` into `self` (cross-thread merge).
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        // An empty `other` holds the u64::MAX sentinel, which fetch_min
        // absorbs without disturbing our own minimum.
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy for quantile math and export.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i, n));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Immutable histogram snapshot: lifetime totals plus the non-empty
/// buckets, ready for quantile queries and serialization.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Exact smallest recorded sample (0 when empty).
    pub min: u64,
    /// Exact largest recorded sample (0 when empty).
    pub max: u64,
    buckets: Vec<(usize, u64)>,
}

impl HistSnapshot {
    /// Rebuild a snapshot from exported totals and the `(lo, hi, count)`
    /// triples [`buckets`](Self::buckets) yields. `None` when a `(lo, hi)`
    /// pair is not one of this layout's buckets.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(u64, u64, u64)],
    ) -> Option<HistSnapshot> {
        let buckets = buckets
            .iter()
            .map(|&(lo, hi, n)| {
                let index = bucket_index(lo);
                (bucket_bounds(index) == (lo, hi)).then_some((index, n))
            })
            .collect::<Option<_>>()?;
        Some(HistSnapshot { count, sum, min, max, buckets })
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`) over all recorded
    /// samples. Reports the upper bound of the bucket holding the
    /// rank-th sample (clamped to the true max), so the result is
    /// within +12.5% of the exact-sort answer. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, hi) = bucket_bounds(index);
                // Clamp to the exact extrema: the bucket upper bound can
                // overshoot the true max, and (for the first bucket) sit
                // below the true min.
                return hi.min(self.max).max(self.min);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().map(|&(i, n)| {
            let (lo, hi) = bucket_bounds(i);
            (lo, hi, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* so tests need no external RNG crate.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }

    fn assert_quantiles_close(samples: &mut [u64], h: &Histogram) {
        samples.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count as usize, samples.len());
        for &q in &[0.5, 0.9, 0.99, 1.0] {
            let exact = exact_nearest_rank(samples, q);
            let approx = snap.quantile(q);
            // Bucket upper bound: never below exact, at most 12.5% above.
            assert!(
                approx >= exact && approx as f64 <= exact as f64 * 1.125 + 1.0,
                "q={q}: exact={exact} approx={approx}"
            );
        }
        assert_eq!(snap.min, *samples.first().unwrap());
        assert_eq!(snap.max, *samples.last().unwrap());
        // The histogram's u64 sum can wrap on adversarial inputs; only
        // check exactness when the true sum fits.
        let true_sum = samples.iter().map(|&v| v as u128).sum::<u128>();
        if true_sum <= u64::MAX as u128 {
            let exact_mean = true_sum as f64 / samples.len() as f64;
            assert!((snap.mean() - exact_mean).abs() < 1e-6, "mean must be exact, not bucketed");
        }
    }

    #[test]
    fn index_is_monotone_and_bounds_roundtrip() {
        for index in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(index);
            assert_eq!(bucket_index(lo), index, "lo of bucket {index}");
            assert_eq!(bucket_index(hi), index, "hi of bucket {index}");
            if index + 1 < BUCKETS {
                let (next_lo, _) = bucket_bounds(index + 1);
                assert_eq!(next_lo, hi.wrapping_add(1), "buckets {index} contiguous");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let mut rng = Rng(0x9E3779B97F4A7C15);
        for _ in 0..10_000 {
            let a = rng.next();
            let b = rng.next();
            let (a, b) = (a.min(b), a.max(b));
            assert!(bucket_index(a) <= bucket_index(b));
        }
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        for index in SUB..BUCKETS {
            let (lo, hi) = bucket_bounds(index);
            assert!(hi - lo < lo / SUB as u64 + 1, "bucket {index} too wide");
        }
    }

    #[test]
    fn quantiles_match_exact_sort_on_uniform_random() {
        let h = Histogram::new();
        let mut rng = Rng(42);
        let mut samples = Vec::new();
        for _ in 0..50_000 {
            let v = rng.next() % 10_000_000;
            h.record(v);
            samples.push(v);
        }
        assert_quantiles_close(&mut samples, &h);
    }

    #[test]
    fn quantiles_match_exact_sort_on_heavy_tail() {
        // Latency-shaped: mostly small, occasional huge outliers.
        let h = Histogram::new();
        let mut rng = Rng(7);
        let mut samples = Vec::new();
        for i in 0..20_000u64 {
            let v = if i % 100 == 0 {
                1_000_000_000 + rng.next() % 1_000_000_000
            } else {
                10_000 + rng.next() % 50_000
            };
            h.record(v);
            samples.push(v);
        }
        assert_quantiles_close(&mut samples, &h);
    }

    #[test]
    fn quantiles_on_adversarial_distributions() {
        // All-equal.
        let h = Histogram::new();
        let mut samples = vec![12_345u64; 1000];
        for &v in &samples {
            h.record(v);
        }
        assert_quantiles_close(&mut samples, &h);

        // Exact bucket boundaries (powers of two and their neighbours).
        let h = Histogram::new();
        let mut samples = Vec::new();
        for shift in 0..63u32 {
            for delta in [0i64, 1, -1] {
                let v = (1u64 << shift).saturating_add_signed(delta);
                h.record(v);
                samples.push(v);
            }
        }
        assert_quantiles_close(&mut samples, &h);

        // Single sample, and zero.
        let h = Histogram::new();
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.count, 1);
        assert_eq!((snap.min, snap.max), (0, 0));

        // A lone mid-bucket sample: every quantile is that exact value,
        // not the surrounding bucket's bounds.
        let h = Histogram::new();
        h.record(1_000_003);
        let snap = h.snapshot();
        assert_eq!((snap.min, snap.max), (1_000_003, 1_000_003));
        for &q in &[0.01, 0.5, 1.0] {
            assert_eq!(snap.quantile(q), 1_000_003);
        }

        // Empty histogram reports zeros, not garbage (min included).
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.quantile(0.99), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min, 0);
    }

    #[test]
    fn cross_thread_recording_and_merge() {
        use std::sync::Arc;
        let shared = Arc::new(Histogram::new());
        let local_merged = Histogram::new();
        let mut handles = Vec::new();
        let mut all = Vec::new();
        for t in 0..4u64 {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                let local = Histogram::new();
                let mut rng = Rng(t + 1);
                let mut mine = Vec::new();
                for _ in 0..5_000 {
                    let v = rng.next() % 1_000_000;
                    shared.record(v); // concurrent path
                    local.record(v); // merge path
                    mine.push(v);
                }
                (local, mine)
            }));
        }
        for handle in handles {
            let (local, mine) = handle.join().unwrap();
            local_merged.merge_from(&local);
            all.extend(mine);
        }
        assert_quantiles_close(&mut all.clone(), &shared);
        assert_quantiles_close(&mut all, &local_merged);
        assert_eq!(shared.snapshot().sum, local_merged.snapshot().sum);
    }

    #[test]
    fn mean_and_sum_are_exact() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.count, 100);
        assert!((snap.mean() - 50.5).abs() < 1e-9);
        assert_eq!((snap.min, snap.max), (1, 100));
    }

    #[test]
    fn merge_preserves_exact_extrema() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(500);
        a.record(9_000_000);
        b.record(77);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!((snap.min, snap.max, snap.count), (77, 9_000_000, 3));

        // Merging an empty histogram must not disturb either extremum.
        a.merge_from(&Histogram::new());
        let snap = a.snapshot();
        assert_eq!((snap.min, snap.max, snap.count), (77, 9_000_000, 3));
    }
}
