//! Live serving metrics, backed by the `fmm-obs` registry.
//!
//! One [`Metrics`] value is shared by every connection thread. Counters and gauges are relaxed-atomic handles
//! into a per-server [`fmm_obs::Registry`]; the three latency series
//! (total latency, queue wait, service time) are lock-free log-bucketed
//! [`fmm_obs::Histogram`]s. Unlike the mutex-guarded 4096-sample ring
//! this replaces, percentiles cover **every** sample since server start
//! (and the hot path takes no lock at all — the poisoned-ring `.expect`
//! calls died with the rings).

use crate::protocol::ErrorCode;
use fmm_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Shared serving instruments. All counts are cumulative since server
/// start, latency percentiles included.
pub struct Metrics {
    registry: Arc<Registry>,
    /// Requests admitted into a dtype queue.
    pub requests: Arc<Counter>,
    /// Result frames sent.
    pub responses: Arc<Counter>,
    /// Ping frames answered.
    pub pings: Arc<Counter>,
    /// `multiply_batch` dispatches performed (batches formed).
    pub batches: Arc<Counter>,
    /// Requests executed across all batches.
    pub batched_items: Arc<Counter>,
    /// Largest single-batch occupancy observed.
    pub max_occupancy: Arc<Counter>,
    /// Requests admitted whose response has not been queued yet (gauge).
    pub inflight: Arc<Gauge>,
    /// Largest in-flight count observed on any single connection — the
    /// pipelining-depth gauge (1 for strict request/response traffic).
    pub inflight_per_conn_max: Arc<Counter>,
    /// Connections currently open (gauge).
    pub connections: Arc<Gauge>,
    /// Connections accepted since start.
    pub connections_total: Arc<Counter>,
    /// Error frames sent, broken out per [`ErrorCode`] kind (indexed by
    /// `code as u8 - 1`) so exports can distinguish backpressure
    /// (`busy`, `shutting_down`) from protocol abuse (`malformed`,
    /// `unsupported_version`, `oversized`) and server faults
    /// (`internal`).
    errors_by_kind: [Arc<Counter>; 6],
    latency: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    service: Arc<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        Metrics {
            requests: registry.counter("fmm_serve_requests_total"),
            responses: registry.counter("fmm_serve_responses_total"),
            pings: registry.counter("fmm_serve_pings_total"),
            batches: registry.counter("fmm_serve_batches_total"),
            batched_items: registry.counter("fmm_serve_batched_items_total"),
            max_occupancy: registry.counter("fmm_serve_batch_occupancy_max"),
            inflight: registry.gauge("fmm_serve_inflight"),
            inflight_per_conn_max: registry.counter("fmm_serve_inflight_per_conn_max"),
            connections: registry.gauge("fmm_serve_connections"),
            connections_total: registry.counter("fmm_serve_connections_total"),
            errors_by_kind: [
                registry.counter("fmm_serve_errors_total_malformed"),
                registry.counter("fmm_serve_errors_total_unsupported_version"),
                registry.counter("fmm_serve_errors_total_oversized"),
                registry.counter("fmm_serve_errors_total_busy"),
                registry.counter("fmm_serve_errors_total_internal"),
                registry.counter("fmm_serve_errors_total_shutting_down"),
            ],
            latency: registry.histogram("fmm_serve_latency_nanos"),
            queue_wait: registry.histogram("fmm_serve_queue_wait_nanos"),
            service: registry.histogram("fmm_serve_service_nanos"),
            registry,
        }
    }
}

/// Latency summary in milliseconds, derived from a histogram covering
/// every sample since server start.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Samples recorded (lifetime).
    pub count: usize,
    /// Arithmetic mean (exact — sums are kept outside the buckets).
    pub mean_ms: f64,
    /// Median (bucket upper bound, within +12.5% of exact).
    pub p50_ms: f64,
    /// 99th percentile (same bound).
    pub p99_ms: f64,
}

impl LatencyStats {
    fn from_hist(h: &Histogram) -> Self {
        let snap = h.snapshot();
        if snap.count == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            count: snap.count as usize,
            mean_ms: snap.mean() / 1e6,
            p50_ms: snap.p50() as f64 / 1e6,
            p99_ms: snap.p99() as f64 / 1e6,
        }
    }
}

/// Point-in-time copy of every counter plus derived values.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsSnapshot {
    /// See [`Metrics::requests`].
    pub requests: u64,
    /// See [`Metrics::responses`].
    pub responses: u64,
    /// Requests refused with [`ErrorCode::Busy`] by admission control.
    pub rejects_busy: u64,
    /// Error frames sent for input that could not be served
    /// ([`ErrorCode::Malformed`], [`ErrorCode::UnsupportedVersion`],
    /// [`ErrorCode::Oversized`]).
    pub rejects_malformed: u64,
    /// See [`Metrics::pings`].
    pub pings: u64,
    /// See [`Metrics::batches`].
    pub batches: u64,
    /// See [`Metrics::batched_items`].
    pub batched_items: u64,
    /// See [`Metrics::max_occupancy`].
    pub max_occupancy: u64,
    /// `batched_items / batches` — how many requests the average
    /// `multiply_batch` call coalesced. `0` before the first batch.
    pub mean_occupancy: f64,
    /// See [`Metrics::inflight`].
    pub inflight: u64,
    /// See [`Metrics::inflight_per_conn_max`].
    pub inflight_per_conn_max: u64,
    /// See [`Metrics::connections`].
    pub connections: u64,
    /// See [`Metrics::connections_total`].
    pub connections_total: u64,
    /// Service latency (admission to response hand-off), lifetime.
    pub latency: LatencyStats,
    /// Queue wait (admission to batch execution start), lifetime — the
    /// half of latency batching owns.
    pub queue_wait: LatencyStats,
    /// Service time (batch execution start to response hand-off),
    /// lifetime — the half the engine owns.
    pub service: LatencyStats,
}

impl Metrics {
    /// The registry holding every serve-side instrument; the `StatsJson`
    /// frame and the Prometheus exposition render from it.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Record one formed batch of `occupancy` requests.
    pub fn record_batch(&self, occupancy: usize) {
        self.batches.inc();
        self.batched_items.add(occupancy as u64);
        self.max_occupancy.record_max(occupancy as u64);
    }

    /// Record one request's service latency (admission → response ready).
    pub fn record_latency(&self, elapsed: Duration) {
        self.latency.record_duration(elapsed);
    }

    /// Record one request's queue wait (admission → batch start).
    pub fn record_queue_wait(&self, elapsed: Duration) {
        self.queue_wait.record_duration(elapsed);
    }

    /// Record one request's pure service time (batch start → done).
    pub fn record_service(&self, elapsed: Duration) {
        self.service.record_duration(elapsed);
    }

    /// Record a connection's in-flight depth after an admission — keeps
    /// the pipelining-depth high-water mark.
    pub fn record_conn_inflight(&self, depth: u64) {
        self.inflight_per_conn_max.record_max(depth);
    }

    /// Count one error frame sent with `code` into its per-kind counter
    /// (`fmm_serve_errors_total_<kind>`).
    pub fn record_error(&self, code: ErrorCode) {
        if let Some(counter) = self.error_counter(code) {
            counter.inc();
        }
    }

    /// Error frames sent so far with `code`.
    fn errors(&self, code: ErrorCode) -> u64 {
        self.error_counter(code).map_or(0, |counter| counter.get())
    }

    fn error_counter(&self, code: ErrorCode) -> Option<&Arc<Counter>> {
        self.errors_by_kind.get((code as u8 as usize) - 1)
    }

    /// Snapshot every counter and compute derived values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let batches = self.batches.get();
        let batched_items = self.batched_items.get();
        MetricsSnapshot {
            requests: self.requests.get(),
            responses: self.responses.get(),
            rejects_busy: self.errors(ErrorCode::Busy),
            rejects_malformed: self.errors(ErrorCode::Malformed)
                + self.errors(ErrorCode::UnsupportedVersion)
                + self.errors(ErrorCode::Oversized),
            pings: self.pings.get(),
            batches,
            batched_items,
            max_occupancy: self.max_occupancy.get(),
            mean_occupancy: if batches > 0 { batched_items as f64 / batches as f64 } else { 0.0 },
            inflight: self.inflight.get().max(0) as u64,
            inflight_per_conn_max: self.inflight_per_conn_max.get(),
            connections: self.connections.get().max(0) as u64,
            connections_total: self.connections_total.get(),
            latency: LatencyStats::from_hist(&self.latency),
            queue_wait: LatencyStats::from_hist(&self.queue_wait),
            service: LatencyStats::from_hist(&self.service),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact oracle the histogram percentiles are tested against:
    /// latency samples (seconds in, milliseconds out) summarized with
    /// nearest-rank percentiles over a sorted copy.
    fn summarize(samples_secs: &[f64]) -> LatencyStats {
        if samples_secs.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted: Vec<f64> = samples_secs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency samples"));
        let rank = |p: f64| -> f64 {
            let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx] * 1e3
        };
        LatencyStats {
            count: sorted.len(),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64 * 1e3,
            p50_ms: rank(0.50),
            p99_ms: rank(0.99),
        }
    }

    #[test]
    fn occupancy_and_latency_aggregate() {
        let m = Metrics::default();
        m.record_batch(1);
        m.record_batch(3);
        m.record_latency(Duration::from_millis(2));
        m.record_latency(Duration::from_millis(4));
        let snap = m.snapshot();
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batched_items, 4);
        assert_eq!(snap.max_occupancy, 3);
        assert!((snap.mean_occupancy - 2.0).abs() < 1e-12);
        assert_eq!(snap.latency.count, 2);
        assert!(snap.latency.p99_ms >= snap.latency.p50_ms);
        assert!(snap.latency.mean_ms > 2.0 && snap.latency.mean_ms < 4.0);
    }

    #[test]
    fn summarize_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 / 1e3).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 100);
        assert!((s.p50_ms - 50.0).abs() < 1e-9);
        assert!((s.p99_ms - 99.0).abs() < 1e-9);
        assert_eq!(summarize(&[]), LatencyStats::default());
    }

    #[test]
    fn percentiles_cover_all_samples_not_a_window() {
        // The old ring forgot everything but the last 4096 samples; the
        // histogram must keep counting past that.
        let m = Metrics::default();
        for i in 0..5000u64 {
            m.record_latency(Duration::from_micros(i));
        }
        assert_eq!(m.snapshot().latency.count, 5000);
    }

    #[test]
    fn histogram_percentiles_match_exact_sort_oracle() {
        // The same samples through the histogram and through the exact
        // nearest-rank oracle: the histogram may
        // only err upward, by at most one sub-bucket (12.5%).
        let m = Metrics::default();
        let mut secs = Vec::new();
        let mut state = 0x243F6A8885A308D3u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let micros = 50 + state % 200_000; // 50µs .. 200ms
            m.record_latency(Duration::from_micros(micros));
            m.record_queue_wait(Duration::from_micros(micros / 4));
            m.record_service(Duration::from_micros(micros / 2));
            secs.push(micros as f64 / 1e6);
        }
        let exact = summarize(&secs);
        let snap = m.snapshot();
        for (h, x, label) in
            [(snap.latency.p50_ms, exact.p50_ms, "p50"), (snap.latency.p99_ms, exact.p99_ms, "p99")]
        {
            assert!(h >= x * 0.999 && h <= x * 1.125 + 1e-3, "{label}: hist={h} exact={x}");
        }
        assert!((snap.latency.mean_ms - exact.mean_ms).abs() / exact.mean_ms < 1e-3);
        assert_eq!(snap.queue_wait.count, 20_000);
        assert_eq!(snap.service.count, 20_000);
    }

    #[test]
    fn per_kind_error_counters_register_and_count() {
        let m = Metrics::default();
        m.record_error(ErrorCode::Busy);
        m.record_error(ErrorCode::Busy);
        m.record_error(ErrorCode::Malformed);
        m.record_error(ErrorCode::ShuttingDown);
        let snap = m.registry().snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(get("fmm_serve_errors_total_busy"), 2);
        assert_eq!(get("fmm_serve_errors_total_malformed"), 1);
        assert_eq!(get("fmm_serve_errors_total_shutting_down"), 1);
        assert_eq!(get("fmm_serve_errors_total_unsupported_version"), 0);
        assert_eq!(get("fmm_serve_errors_total_oversized"), 0);
        assert_eq!(get("fmm_serve_errors_total_internal"), 0);
        // The snapshot's two aggregates are read from the same counters.
        m.record_error(ErrorCode::Oversized);
        m.record_error(ErrorCode::UnsupportedVersion);
        let snap = m.snapshot();
        assert_eq!((snap.rejects_busy, snap.rejects_malformed), (2, 3));
    }

    #[test]
    fn registry_exposes_serve_instruments() {
        let m = Metrics::default();
        m.requests.inc();
        m.record_latency(Duration::from_millis(1));
        let snap = m.registry().snapshot();
        let counters: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(counters.contains(&"fmm_serve_requests_total"));
        let hists: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert!(hists.contains(&"fmm_serve_latency_nanos"));
        assert!(hists.contains(&"fmm_serve_queue_wait_nanos"));
        assert!(hists.contains(&"fmm_serve_service_nanos"));
        let text = m.registry().snapshot().render_prometheus();
        assert!(text.contains("fmm_serve_latency_nanos{quantile=\"0.99\"}"));
    }
}
