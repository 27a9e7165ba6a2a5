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

/// A set of named instruments. Cheap to snapshot, cheap to render.
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

impl Snapshot {
    /// Prometheus-style plaintext exposition. Histograms render as
    /// summaries with `quantile` labels.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(
                out,
                "{name}_sum {}\n{name}_count {}\n{name}_max {}",
                h.sum, h.count, h.max
            );
        }
        out
    }
}

/// Rewrite an arbitrary label (e.g. a shape-class key like
/// `256x256x256/f32`) into a legal Prometheus metric-name fragment:
/// `[a-zA-Z0-9_:]` survives, everything else becomes `_`, and a leading
/// digit gains a `_` prefix so the result can also stand alone.
pub fn sanitize_metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 1);
    if raw.starts_with(|c: char| c.is_ascii_digit()) {
        out.push('_');
    }
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
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
    fn prometheus_exposition_is_line_oriented() {
        let r = Registry::new();
        r.counter("fmm_requests_total").add(7);
        r.gauge("fmm_inflight").set(2);
        let h = r.histogram("fmm_latency_nanos");
        for v in [100, 200, 300] {
            h.record(v);
        }
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE fmm_requests_total counter\nfmm_requests_total 7\n"));
        assert!(text.contains("# TYPE fmm_inflight gauge\nfmm_inflight 2\n"));
        assert!(text.contains("# TYPE fmm_latency_nanos summary"));
        assert!(text.contains("fmm_latency_nanos{quantile=\"0.5\"}"));
        assert!(text.contains("fmm_latency_nanos_sum 600"));
        assert!(text.contains("fmm_latency_nanos_count 3"));
        assert!(text.contains("fmm_latency_nanos_max 300"));
    }

    #[test]
    fn sanitize_covers_shape_class_names() {
        // The per-shape-class audit keys are the motivating case.
        assert_eq!(sanitize_metric_name("256x256x256/f32"), "_256x256x256_f32");
        assert_eq!(sanitize_metric_name("1024x512x1024/f64"), "_1024x512x1024_f64");
        // Already-legal names pass through untouched.
        assert_eq!(sanitize_metric_name("fmm_audit_samples"), "fmm_audit_samples");
        assert_eq!(sanitize_metric_name("ns:sub_total"), "ns:sub_total");
        // Hostile input: spaces, unicode, quotes, empties.
        assert_eq!(sanitize_metric_name("a b\"c"), "a_b_c");
        assert_eq!(sanitize_metric_name("µs"), "_s");
        assert_eq!(sanitize_metric_name(""), "");
        // Sanitized output is itself a fixed point.
        for raw in ["256x256x256/f32", "a b\"c", "0/0/0"] {
            let once = sanitize_metric_name(raw);
            assert_eq!(sanitize_metric_name(&once), once);
        }
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs_test_global_total").inc();
        assert!(global().counter("obs_test_global_total").get() >= 1);
    }
}
