//! Named metrics registry: counters, gauges, histograms.
//!
//! Lookup (`counter` / `gauge` / `histogram`) takes a mutex once and
//! hands back an `Arc` handle; every subsequent update through the
//! handle is a relaxed atomic — nothing on a hot path ever touches the
//! registry lock. Instruments are get-or-create by name, so two
//! callers asking for `"fmm_gemm_pack_nanos"` share one histogram.
//!
//! Two registries exist in practice: each server owns one (exported
//! over the wire via the `StatsJson` frame), and [`global`] serves
//! bottom-of-stack layers (gemm, sched) that have no server handle.

use crate::hist::{HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotone counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise to `v` if larger (high-water marks).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed up/down gauge (queue depths, inflight requests, busy workers).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A set of named instruments. Cheap to snapshot.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(
            inner.histograms.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }
}

/// Point-in-time registry contents (see [`Registry::snapshot`]).
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistSnapshot)>,
}

/// The process-global registry, for layers with no server object to
/// hang metrics off (gemm pack/kernel split, sched task timings).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        let h1 = r.histogram("lat");
        let h2 = r.histogram("lat");
        h1.record(5);
        assert_eq!(h2.snapshot().count, 1);
    }

    #[test]
    fn snapshot_lists_everything_sorted() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").inc();
        r.gauge("depth").set(-3);
        r.histogram("h").record(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_total", "b_total"]);
        assert_eq!(snap.gauges[0], ("depth".to_string(), -3));
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs_test_global_total").inc();
        assert!(global().counter("obs_test_global_total").get() >= 1);
    }
}
