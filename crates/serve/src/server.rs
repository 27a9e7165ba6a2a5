//! The serving daemon: a nonblocking readiness-loop core multiplexing
//! every connection over a small fixed set of event-loop threads.
//!
//! Threading model: [`ServeConfig::event_threads`] event loops (loop 0
//! also owns the listener and deals new connections round-robin) plus one
//! micro-batching dispatcher thread per dtype. Each loop drives its
//! connections with the [`crate::poller`] readiness API — epoll on Linux,
//! `poll(2)` elsewhere on Unix — so a thousand idle or slow connections
//! cost registrations, not threads. Request payloads are decoded by the
//! incremental [`Decoder`] straight into pooled buffers (one copy off the
//! wire); finished results come back from the dispatchers as
//! [`Completion`]s through each loop's [`CompletionSink`] and are written
//! from a scatter list with partial-write continuation, so a slow reader
//! never blocks the loop or a dispatcher.
//!
//! Protocol: a client may pipeline up to
//! [`ServeConfig::max_inflight_per_conn`] requests per connection and
//! receives responses out of order, matched by `request_id`.
//!
//! Error policy, per the protocol contract: malformed payloads on an
//! intact frame stream are answered with a typed error frame and the
//! connection continues; framing-level corruption (bad magic/version,
//! oversized declaration) is answered with an error frame and the
//! connection closes, because the byte stream can no longer be trusted.
//! The daemon itself never panics on client input.

use crate::buffers::IngestPools;
use crate::conn::{DecodeStep, Decoder, InEvent, WriteQueue};
use crate::dispatch::{
    run_dispatcher_observed, BatchPolicy, BatchQueue, Completion, CompletionSink, ConnAddr,
    DispatchObs, Job, Refusal, ReplySink,
};
use crate::incident;
use crate::metrics::Metrics;
use crate::poller::{Interest, Poller, Waker, WAKE_TOKEN};
use crate::protocol::{self, ErrorCode, FrameKind, RequestDims, HEADER_LEN, RESPONSE_PRELUDE};
use fmm_core::json;
use fmm_engine::{ArchSource, EngineConfig, EngineStats, FmmEngine};
use fmm_gemm::BlockingParams;
use fmm_obs::flight::{self, FlightEvent, IncidentTrigger, RefusalReason};
use fmm_obs::{Heartbeat, SpanKind, WatchPolicy, Watchdog, WatchdogConfig, WatchdogHandle};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The listener's registration token on loop 0 (`u64::MAX` is
/// [`WAKE_TOKEN`]; connection tokens are small slot indices).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Idle buffers the per-dtype ingest pools retain across requests.
const POOL_RETAIN: usize = 32;
/// Idle bytes the per-dtype ingest pools retain across requests — a burst
/// of max-size requests must not leave gigabytes parked in the pools
/// after load subsides.
const POOL_RETAIN_BYTES: usize = 256 << 20;

/// Construction-time configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`ServerHandle::addr`] for the resolved one).
    pub addr: String,
    /// Cross-request micro-batching policy.
    pub batch: BatchPolicy,
    /// Admission bound: pending requests per dtype queue beyond which
    /// new work is refused with a `Busy` error frame.
    pub queue_capacity: usize,
    /// Largest frame payload accepted, in bytes. Bounds per-request
    /// memory *before* any allocation happens.
    pub max_payload_bytes: usize,
    /// Worker count for the engines' batched fan-out (`0` = the rayon
    /// pool width).
    pub workers: usize,
    /// Blocking parameters for the engines.
    pub params: BlockingParams,
    /// Architecture parameters for the engines' model routing.
    pub arch: ArchSource,
    /// Event-loop threads multiplexing the connections (min 1). Loop 0
    /// also owns the listener.
    pub event_threads: usize,
    /// Most requests one connection may have in flight before further
    /// admissions are refused with `Busy` (the pipelining depth bound).
    pub max_inflight_per_conn: usize,
    /// Response bytes a connection may have outstanding — queued in its
    /// write backlog *or* promised by admitted-but-unfinished requests —
    /// before further admissions are refused with `Busy` and the loop
    /// stops reading new frames from it. Charging the declared response
    /// size at admission (it is known from the request prelude) keeps a
    /// pipelining client from pinning `max_inflight_per_conn × max
    /// response` of pooled memory off a few hundred input bytes.
    pub max_conn_backlog_bytes: usize,
    /// Enable tracing spans (`fmm_obs::trace`) for every request phase.
    /// The default honors the `FMM_TRACE` environment variable (`1` or
    /// `true`). Tracing is a process-global switch: spawning a server
    /// with `trace: true` turns it on; spawning one with `trace: false`
    /// leaves the current state alone (so a tracing server and a plain
    /// one can coexist in one process, as the benchmarks do).
    pub trace: bool,
    /// Run the liveness watchdog: event loops and dispatchers publish
    /// heartbeats, one judging thread records stall/recovery flight
    /// events and the `fmm_watchdog_stalls_total` counter.
    pub watchdog: bool,
    /// A component is judged stalled after this long without a beat
    /// (event loops) or without progress while work is pending
    /// (dispatchers).
    pub watchdog_stall: Duration,
    /// Dump an incident report and abort the process when a stall
    /// persists this long. `None` = never abort.
    pub watchdog_abort_after: Option<Duration>,
    /// Requests whose dispatch latency reaches this threshold record a
    /// `slow-request` flight event with their dominant phase.
    pub slow_threshold: Duration,
    /// Directory incident dumps are written to (atomic temp+rename) on
    /// SIGTERM/SIGINT, panic, or watchdog abort. `None` disables
    /// capture-to-disk; the `Incident` wire frame works regardless.
    pub incident_dir: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            batch: BatchPolicy::default(),
            queue_capacity: 256,
            max_payload_bytes: 64 << 20,
            workers: 0,
            params: BlockingParams::default(),
            arch: ArchSource::Calibrated,
            event_threads: 2,
            max_inflight_per_conn: 64,
            max_conn_backlog_bytes: 64 << 20,
            trace: std::env::var("FMM_TRACE")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false),
            watchdog: true,
            watchdog_stall: Duration::from_secs(1),
            watchdog_abort_after: None,
            slow_threshold: Duration::from_millis(250),
            incident_dir: None,
        }
    }
}

struct Lifecycle {
    stopping: Mutex<bool>,
    stopped: Condvar,
}

/// One event loop's cross-thread mailbox: completions from the
/// dispatchers, freshly accepted connections dealt over from loop 0, and
/// the waker that interrupts its poller.
struct LoopShared {
    completions: Mutex<Vec<Completion>>,
    injected: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

impl CompletionSink for LoopShared {
    fn complete(&self, completion: Completion) {
        self.completions.lock().expect("completion queue poisoned").push(completion);
        self.waker.wake();
    }
}

/// Everything the event loops and dispatchers share.
struct Shared {
    config: ServeConfig,
    metrics: Arc<Metrics>,
    pools: IngestPools,
    queue_f64: BatchQueue<f64>,
    queue_f32: BatchQueue<f32>,
    engine_f64: Arc<FmmEngine<f64>>,
    engine_f32: Arc<FmmEngine<f32>>,
    stop: AtomicBool,
    loops: Vec<Arc<LoopShared>>,
    lifecycle: Lifecycle,
    /// The stall watchdog, when enabled — its component names and stall
    /// counter feed every export and incident dump.
    watchdog: Option<Watchdog>,
    /// Dumps already written this process (part of the dump filename, so
    /// a SIGTERM dump never overwrites a panic dump).
    incident_seq: AtomicU64,
}

impl Shared {
    /// Flip the daemon into shutdown: refuse new work, close the dtype
    /// queues (dispatchers drain their backlogs first), and wake every
    /// event loop so it notices.
    fn request_stop(&self) {
        // ORDERING: Release pairs with the Acquire loads in
        // `is_stopping`/the event loops: a loop that observes `stop ==
        // true` also observes everything the stopping thread did before
        // requesting it. SeqCst would add nothing — with a single flag
        // there is no multi-variable order to make total.
        self.stop.store(true, Ordering::Release);
        self.queue_f64.close();
        self.queue_f32.close();
        for l in &self.loops {
            l.waker.wake();
        }
        let mut stopping = self.lifecycle.stopping.lock().expect("lifecycle poisoned");
        *stopping = true;
        self.lifecycle.stopped.notify_all();
    }

    /// Mirror everything that lives outside the registry proper into it:
    /// engine counters (via the `EngineStats::fields()` reflection),
    /// dtype queue depths, and ingest-pool occupancy. Called on every
    /// export so registry snapshots are complete without the hot path
    /// double-counting into two homes.
    fn mirror_into_registry(&self) {
        let registry = self.metrics.registry();
        registry.gauge("fmm_build_info").set(1);
        if let Some(wd) = &self.watchdog {
            registry.set_counter("fmm_watchdog_stalls_total", wd.stalls_total());
        }
        for (prefix, stats) in [
            ("fmm_engine_f64_", self.engine_f64.stats()),
            ("fmm_engine_f32_", self.engine_f32.stats()),
        ] {
            for (name, value) in stats.fields() {
                registry.set_counter(&format!("{prefix}{name}"), value);
            }
        }
        registry.gauge("fmm_serve_queue_depth_f64").set(self.queue_f64.depth() as i64);
        registry.gauge("fmm_serve_queue_depth_f32").set(self.queue_f32.depth() as i64);
        for (name, stats) in [("f64", self.pools.f64.stats()), ("f32", self.pools.f32.stats())] {
            registry.set_counter(&format!("fmm_serve_pool_{name}_hits"), stats.hits);
            registry.set_counter(&format!("fmm_serve_pool_{name}_misses"), stats.misses);
            registry.set_counter(&format!("fmm_serve_pool_{name}_retained"), stats.retained);
            registry.set_counter(
                &format!("fmm_serve_pool_{name}_retained_bytes"),
                stats.retained_bytes,
            );
        }
    }

    /// The full registry snapshot — this server's instruments merged with
    /// the process-global registry (gemm pack/kernel split, sched tasks) —
    /// as an `fmm_core::json` value. The `StatsJson` frame body.
    ///
    /// Decision-audit aggregates export twice: per-class model-error
    /// histograms land in `histograms` under sanitized
    /// `fmm_audit_error_permille_*` names (uniform with every other
    /// histogram consumer), and the full per-class rows — GFLOP/s
    /// extrema, routing-source attribution, the chosen plan — under the
    /// dedicated `audit` key, indexed by raw `class/dtype`.
    fn stats_json(&self) -> json::Value {
        self.mirror_into_registry();
        let mut counters = std::collections::BTreeMap::new();
        let mut gauges = std::collections::BTreeMap::new();
        let mut histograms = std::collections::BTreeMap::new();
        for snap in [self.metrics.registry().snapshot(), fmm_obs::global().snapshot()] {
            for (name, v) in snap.counters {
                counters.insert(name, json::Value::Int(v as i64));
            }
            for (name, v) in snap.gauges {
                gauges.insert(name, json::Value::Int(v));
            }
            for (name, h) in snap.histograms {
                histograms.insert(name, hist_json(&h));
            }
        }
        let mut audit = std::collections::BTreeMap::new();
        for entry in fmm_obs::audit::snapshot() {
            let key = entry.key();
            let hist_name =
                fmm_obs::sanitize_metric_name(&format!("fmm_audit_error_permille_{key}"));
            histograms.insert(hist_name, hist_json(&entry.err_permille));
            audit.insert(key, audit_entry_json(&entry));
        }
        counters.insert(
            "fmm_audit_samples_total".to_string(),
            json::Value::Int(fmm_obs::audit::samples_recorded() as i64),
        );
        counters.insert(
            "fmm_audit_dropped_total".to_string(),
            json::Value::Int(fmm_obs::audit::samples_dropped() as i64),
        );
        json::Value::Object(
            [
                ("build".to_string(), incident::build_info_json()),
                ("counters".to_string(), json::Value::Object(counters)),
                ("gauges".to_string(), json::Value::Object(gauges)),
                ("histograms".to_string(), json::Value::Object(histograms)),
                ("audit".to_string(), json::Value::Object(audit)),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// The self-contained incident document: build/config fingerprint,
    /// watchdog roster + verdict count, the flight-recorder ring, the
    /// full stats export, and recent tracing spans. This is what the
    /// `Incident` wire frame returns and what SIGTERM/SIGINT, panic, and
    /// watchdog-abort dumps write to [`ServeConfig::incident_dir`].
    fn incident_json(&self, trigger: &str) -> json::Value {
        let mut watchdog = std::collections::BTreeMap::new();
        if let Some(wd) = &self.watchdog {
            watchdog.insert(
                "components".to_string(),
                json::Value::Array(
                    wd.component_names().into_iter().map(json::Value::String).collect(),
                ),
            );
            watchdog.insert("stalls_total".to_string(), json::Value::Int(wd.stalls_total() as i64));
        }
        let flight: Vec<json::Value> = flight::snapshot()
            .iter()
            .map(|record| {
                let (kind, a, b, c, d) = record.event.encode();
                let int = |v: u64| json::Value::Int(v as i64);
                json::Value::Object(
                    [
                        ("seq".to_string(), int(record.seq)),
                        ("nanos".to_string(), int(record.nanos)),
                        ("kind".to_string(), json::Value::String(record.event.kind_name().into())),
                        ("kind_id".to_string(), int(kind)),
                        ("a".to_string(), int(a)),
                        ("b".to_string(), int(b)),
                        ("c".to_string(), int(c)),
                        ("d".to_string(), int(d)),
                        ("detail".to_string(), json::Value::String(record.event.describe())),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect();
        json::Value::Object(
            [
                ("schema".to_string(), json::Value::String(incident::INCIDENT_SCHEMA.into())),
                ("trigger".to_string(), json::Value::String(trigger.to_string())),
                ("build".to_string(), incident::build_info_json()),
                ("config".to_string(), self.config_json()),
                ("watchdog".to_string(), json::Value::Object(watchdog)),
                ("flight".to_string(), json::Value::Array(flight)),
                ("stats".to_string(), self.stats_json()),
                ("spans".to_string(), trace_json(256)),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// The serving configuration as a JSON fingerprint for incident
    /// dumps (throughput-relevant knobs only, no engine internals).
    fn config_json(&self) -> json::Value {
        let c = &self.config;
        let int = |v: usize| json::Value::Int(v as i64);
        json::Value::Object(
            [
                ("addr".to_string(), json::Value::String(c.addr.clone())),
                ("event_threads".to_string(), int(c.event_threads)),
                ("queue_capacity".to_string(), int(c.queue_capacity)),
                ("max_inflight_per_conn".to_string(), int(c.max_inflight_per_conn)),
                ("max_payload_bytes".to_string(), int(c.max_payload_bytes)),
                ("max_conn_backlog_bytes".to_string(), int(c.max_conn_backlog_bytes)),
                ("workers".to_string(), int(c.workers)),
                ("batch_window_micros".to_string(), int(c.batch.window.as_micros() as usize)),
                ("batch_max".to_string(), int(c.batch.max_batch)),
                ("watchdog".to_string(), json::Value::Int(c.watchdog as i64)),
                ("watchdog_stall_millis".to_string(), int(c.watchdog_stall.as_millis() as usize)),
                ("slow_threshold_millis".to_string(), int(c.slow_threshold.as_millis() as usize)),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// Write one incident dump to the configured directory (atomic
    /// temp+rename). Returns the final path, or `None` when no
    /// `incident_dir` is configured or the write failed — incident
    /// capture must never take the daemon down with it.
    fn write_incident(&self, trigger: &str) -> Option<std::path::PathBuf> {
        let dir = self.config.incident_dir.as_ref()?;
        let seq = self.incident_seq.fetch_add(1, Ordering::Relaxed);
        let doc = self.incident_json(trigger);
        match incident::write_incident_file(std::path::Path::new(dir), trigger, seq, &doc) {
            Ok(path) => {
                eprintln!("fmm_serve: incident dump written to {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("fmm_serve: failed to write incident dump: {e}");
                None
            }
        }
    }

    /// Prometheus-style plaintext exposition of the same merged registry
    /// contents `stats_json` exports, audit aggregates included (as
    /// sanitized per-class metric names — this exposition style carries
    /// no labels).
    fn render_prometheus(&self) -> String {
        self.mirror_into_registry();
        // This exposition style carries no labels, so the build identity
        // rides as a HELP-style comment next to the `fmm_build_info 1`
        // gauge the registry renders.
        let mut out = format!("# HELP fmm_build_info {}\n", incident::build_info_line());
        out.push_str(&self.metrics.registry().render_prometheus());
        out.push_str(&fmm_obs::global().render_prometheus());
        let mut counters = vec![
            ("fmm_audit_samples_total".to_string(), fmm_obs::audit::samples_recorded()),
            ("fmm_audit_dropped_total".to_string(), fmm_obs::audit::samples_dropped()),
        ];
        let mut histograms = Vec::new();
        for entry in fmm_obs::audit::snapshot() {
            let key = entry.key();
            let name =
                |stem: &str| fmm_obs::sanitize_metric_name(&format!("fmm_audit_{stem}_{key}"));
            counters.push((name("samples"), entry.samples));
            counters.push((name("predicted_nanos"), entry.predicted_nanos));
            counters.push((name("measured_nanos"), entry.measured_nanos));
            counters.push((name("best_gflops_milli"), entry.best_gflops_milli));
            counters.push((name("worst_gflops_milli"), entry.worst_gflops_milli));
            histograms.push((name("error_permille"), entry.err_permille));
        }
        let audit_snap = fmm_obs::Snapshot { counters, gauges: Vec::new(), histograms };
        out.push_str(&audit_snap.render_prometheus());
        out
    }
}

/// One audit row (see `fmm_obs::audit::AuditEntry`) as JSON for the
/// `audit` stats section — the `fmm_serve audit` report's input.
fn audit_entry_json(entry: &fmm_obs::AuditEntry) -> json::Value {
    let int = |v: u64| json::Value::Int(v as i64);
    let sources = fmm_obs::audit::SOURCE_NAMES
        .iter()
        .zip(entry.by_source)
        .map(|(name, v)| (name.to_string(), int(v)))
        .collect();
    json::Value::Object(
        [
            ("class".to_string(), json::Value::String(entry.class_label.clone())),
            ("dtype".to_string(), json::Value::String(entry.dtype.to_string())),
            ("samples".to_string(), int(entry.samples)),
            ("predicted_nanos".to_string(), int(entry.predicted_nanos)),
            ("measured_nanos".to_string(), int(entry.measured_nanos)),
            ("flops".to_string(), int(entry.flops)),
            ("error_log2".to_string(), json::Value::Number(entry.error_log2())),
            ("mean_gflops".to_string(), json::Value::Number(entry.mean_gflops())),
            (
                "best_gflops".to_string(),
                json::Value::Number(entry.best_gflops_milli as f64 / 1000.0),
            ),
            (
                "worst_gflops".to_string(),
                json::Value::Number(entry.worst_gflops_milli as f64 / 1000.0),
            ),
            ("chosen".to_string(), json::Value::String(entry.chosen.clone())),
            ("sources".to_string(), json::Value::Object(sources)),
            ("err_permille".to_string(), hist_json(&entry.err_permille)),
        ]
        .into_iter()
        .collect(),
    )
}

/// One histogram snapshot as JSON: lifetime totals, nearest-rank
/// percentiles over all samples, and the non-empty `[lo, hi, count]`
/// buckets.
fn hist_json(h: &fmm_obs::HistSnapshot) -> json::Value {
    let int = |v: u64| json::Value::Int(v as i64);
    let buckets: Vec<json::Value> =
        h.buckets().map(|(lo, hi, n)| json::Value::Array(vec![int(lo), int(hi), int(n)])).collect();
    json::Value::Object(
        [
            ("count".to_string(), int(h.count)),
            ("sum_nanos".to_string(), int(h.sum)),
            ("min_nanos".to_string(), int(h.min)),
            ("max_nanos".to_string(), int(h.max)),
            ("mean_nanos".to_string(), json::Value::Number(h.mean())),
            ("p50_nanos".to_string(), int(h.p50())),
            ("p90_nanos".to_string(), int(h.p90())),
            ("p99_nanos".to_string(), int(h.p99())),
            ("buckets".to_string(), json::Value::Array(buckets)),
        ]
        .into_iter()
        .collect(),
    )
}

/// Recent tracing spans as a JSON array (newest last), the `Trace` frame
/// body: `{kind, request_id, start_nanos, end_nanos, thread}` per event.
fn trace_json(limit: usize) -> json::Value {
    let events = fmm_obs::trace::recent(limit);
    json::Value::Array(
        events
            .iter()
            .map(|e| {
                json::Value::Object(
                    [
                        ("kind".to_string(), json::Value::String(e.kind.name().to_string())),
                        ("request_id".to_string(), json::Value::Int(e.request_id as i64)),
                        ("start_nanos".to_string(), json::Value::Int(e.start_nanos as i64)),
                        ("end_nanos".to_string(), json::Value::Int(e.end_nanos as i64)),
                        ("thread".to_string(), json::Value::Int(e.thread as i64)),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect(),
    )
}

/// A running serving daemon. Obtained from [`Server::spawn`]; dropping the
/// handle does *not* stop the daemon — use [`ServerHandle::shutdown`] (or
/// a client `Shutdown` frame plus [`ServerHandle::wait`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    watchdog_handle: Option<WatchdogHandle>,
}

/// Namespace for constructing the daemon.
pub struct Server;

impl Server {
    /// Bind, construct engines per `config`, and start serving on
    /// background threads. Returns once the listener is live.
    pub fn spawn(config: ServeConfig) -> io::Result<ServerHandle> {
        let engine_f64 = Arc::new(build_engine::<f64>(&config));
        let engine_f32 = Arc::new(build_engine::<f32>(&config));
        Self::spawn_with_engines(config, engine_f64, engine_f32)
    }

    /// [`Server::spawn`] with caller-provided engines — the seam tests
    /// and benchmarks use to pin routing/arch, or to share warm engines
    /// across server configurations.
    pub fn spawn_with_engines(
        config: ServeConfig,
        engine_f64: Arc<FmmEngine<f64>>,
        engine_f32: Arc<FmmEngine<f32>>,
    ) -> io::Result<ServerHandle> {
        // The frame header carries payload lengths as u32; a cap beyond
        // that would let `encode_header`'s `as u32` silently truncate and
        // desynchronize the stream. Refuse the misconfiguration up front.
        if config.max_payload_bytes > u32::MAX as usize - HEADER_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "max_payload_bytes {} exceeds the wire format's u32 payload-length field \
                     (cap is {})",
                    config.max_payload_bytes,
                    u32::MAX as usize - HEADER_LEN
                ),
            ));
        }
        if config.trace {
            fmm_obs::trace::set_enabled(true);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        // Build each loop's poller + waker on this thread (the waker must
        // live in the shared mailbox before the loop thread starts); the
        // pollers move into their threads below.
        let n_loops = config.event_threads.max(1);
        let mut pollers = Vec::with_capacity(n_loops);
        let mut loops = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            let mut poller = Poller::new()?;
            let waker = Waker::new(&mut poller)?;
            pollers.push(poller);
            loops.push(Arc::new(LoopShared {
                completions: Mutex::new(Vec::new()),
                injected: Mutex::new(Vec::new()),
                waker,
            }));
        }

        let watchdog = config.watchdog.then(|| {
            Watchdog::new(WatchdogConfig {
                stall_after: config.watchdog_stall,
                abort_after: config.watchdog_abort_after,
                ..WatchdogConfig::default()
            })
        });

        let shared = Arc::new(Shared {
            queue_f64: BatchQueue::new(config.queue_capacity),
            queue_f32: BatchQueue::new(config.queue_capacity),
            metrics: Arc::new(Metrics::default()),
            pools: IngestPools::new(POOL_RETAIN, POOL_RETAIN_BYTES),
            engine_f64,
            engine_f32,
            stop: AtomicBool::new(false),
            loops,
            lifecycle: Lifecycle { stopping: Mutex::new(false), stopped: Condvar::new() },
            watchdog,
            incident_seq: AtomicU64::new(0),
            config,
        });

        let mut threads = Vec::new();
        let mut listener = Some(listener);
        for (index, poller) in pollers.into_iter().enumerate() {
            // Event loops tick their poll timeout even when idle, so plain
            // liveness is the right judgment.
            let heartbeat = shared
                .watchdog
                .as_ref()
                .map(|wd| wd.register(&format!("loop-{index}"), WatchPolicy::Liveness));
            let shared = shared.clone();
            let listener = listener.take();
            threads.push(
                thread::Builder::new()
                    .name(format!("fmm-serve-loop-{index}"))
                    .spawn(move || event_loop(&shared, index, poller, listener, heartbeat))
                    .expect("spawn event loop"),
            );
        }
        {
            // Dispatchers legitimately block when idle; they are judged on
            // progress (batches formed) against pending work (queue depth).
            let probe = shared.clone();
            let obs = DispatchObs {
                heartbeat: shared.watchdog.as_ref().map(|wd| {
                    wd.register(
                        "dispatch-f64",
                        WatchPolicy::Progress {
                            work: Box::new(move || probe.queue_f64.depth() as u64),
                        },
                    )
                }),
                dispatcher_id: 0,
                slow_threshold: Some(shared.config.slow_threshold),
            };
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name("fmm-serve-dispatch-f64".into())
                    .spawn(move || {
                        run_dispatcher_observed(
                            &shared.queue_f64,
                            &shared.engine_f64,
                            &shared.pools.f64,
                            shared.config.batch,
                            &shared.metrics,
                            &obs,
                        )
                    })
                    .expect("spawn f64 dispatcher"),
            );
        }
        {
            let probe = shared.clone();
            let obs = DispatchObs {
                heartbeat: shared.watchdog.as_ref().map(|wd| {
                    wd.register(
                        "dispatch-f32",
                        WatchPolicy::Progress {
                            work: Box::new(move || probe.queue_f32.depth() as u64),
                        },
                    )
                }),
                dispatcher_id: 1,
                slow_threshold: Some(shared.config.slow_threshold),
            };
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name("fmm-serve-dispatch-f32".into())
                    .spawn(move || {
                        run_dispatcher_observed(
                            &shared.queue_f32,
                            &shared.engine_f32,
                            &shared.pools.f32,
                            shared.config.batch,
                            &shared.metrics,
                            &obs,
                        )
                    })
                    .expect("spawn f32 dispatcher"),
            );
        }
        let watchdog_handle = shared.watchdog.as_ref().map(|wd| {
            let dump = shared.clone();
            wd.spawn(Box::new(move || {
                // The Incident{watchdog-abort} flight event is already in
                // the ring (the watchdog records it before aborting).
                dump.write_incident("watchdog-abort");
            }))
        });
        if shared.config.incident_dir.is_some() {
            install_incident_capture(&shared, &mut threads);
        }
        Ok(ServerHandle { addr, shared, threads, watchdog_handle })
    }
}

/// Wire up capture-to-disk incident paths: a panic hook (any daemon
/// thread) and a SIGTERM/SIGINT monitor thread that dumps and then
/// requests a clean stop, so `kill <pid>` on a loaded daemon leaves a
/// post-mortem behind *and* exits 0 after draining.
fn install_incident_capture(shared: &Arc<Shared>, threads: &mut Vec<JoinHandle<()>>) {
    // The hook is process-global and outlives the server; hold the shared
    // state weakly so a stopped server can actually be dropped.
    let weak = Arc::downgrade(shared);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(shared) = weak.upgrade() {
            flight::record(FlightEvent::Incident { trigger: IncidentTrigger::Panic });
            shared.write_incident("panic");
        }
        previous(info);
    }));

    let signals = incident::install_signal_traps();
    let shared = shared.clone();
    threads.push(
        thread::Builder::new()
            .name("fmm-serve-incident".into())
            .spawn(move || loop {
                if let Some(trigger) = incident::pending_signal(signals) {
                    flight::record(FlightEvent::Incident { trigger });
                    shared.write_incident(trigger.name());
                    // Dump first, then drain: the signal asks for
                    // termination, and a clean stop is the best honor.
                    shared.request_stop();
                    return;
                }
                // ORDERING: pairs with the Release store in `request_stop`.
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                thread::sleep(Duration::from_millis(25));
            })
            .expect("spawn incident monitor"),
    );
}

/// Build one dtype engine per the serve configuration. Engines are always
/// parallel: the whole point of the dispatcher is handing coalesced
/// batches to `multiply_batch`'s worker fan-out (a 1-thread rayon pool
/// degrades gracefully to in-place execution).
fn build_engine<T: fmm_gemm::GemmScalar>(config: &ServeConfig) -> FmmEngine<T> {
    FmmEngine::new(EngineConfig {
        parallel: true,
        workers: config.workers,
        params: config.params,
        arch: config.arch.clone(),
        ..EngineConfig::default()
    })
}

impl ServerHandle {
    /// The resolved listen address (the actual port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving metrics (shared with the daemon threads).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// An owning handle to the metrics, for reading final counts after
    /// [`ServerHandle::wait`]/[`ServerHandle::shutdown`] consume `self`.
    pub fn metrics_arc(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
    }

    /// Per-dtype engine counter snapshots.
    pub fn engine_stats(&self) -> (EngineStats, EngineStats) {
        (self.shared.engine_f64.stats(), self.shared.engine_f32.stats())
    }

    /// The merged registry snapshot a `StatsJson` frame would return, as
    /// a JSON value.
    pub fn stats_json(&self) -> json::Value {
        self.shared.stats_json()
    }

    /// The Prometheus plaintext exposition of the merged registries.
    pub fn render_prometheus(&self) -> String {
        self.shared.render_prometheus()
    }

    /// True once shutdown has been requested (by [`ServerHandle::shutdown`]
    /// or a client `Shutdown` frame).
    pub fn is_stopping(&self) -> bool {
        // ORDERING: pairs with the Release store in `request_stop`.
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Block until shutdown is requested, then join the event loops and
    /// dispatchers (in-flight requests drain first). This is the daemon
    /// main loop: `Server::spawn(cfg)?.wait()`.
    pub fn wait(self) {
        {
            let mut stopping = self.shared.lifecycle.stopping.lock().expect("lifecycle poisoned");
            while !*stopping {
                stopping =
                    self.shared.lifecycle.stopped.wait(stopping).expect("lifecycle poisoned");
            }
        }
        self.join();
    }

    /// Request shutdown and join the daemon threads. Idempotent with a
    /// client-initiated `Shutdown` frame.
    pub fn shutdown(self) {
        self.shared.request_stop();
        self.join();
    }

    fn join(self) {
        // The event loops drain in-flight responses (bounded by their own
        // 5 s deadline) before exiting; joining them is the whole drain.
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(wd) = self.watchdog_handle {
            wd.stop();
        }
    }

    /// Total watchdog stall verdicts so far (0 when the watchdog is
    /// disabled).
    pub fn watchdog_stalls(&self) -> u64 {
        self.shared.watchdog.as_ref().map_or(0, |wd| wd.stalls_total())
    }

    /// The incident document an `Incident` wire frame would return right
    /// now — the seam tests use to inspect dumps without signals.
    pub fn incident_json(&self) -> json::Value {
        self.shared.incident_json("wire-request")
    }
}

/// Process-wide connection id sequence for flight events — connection
/// lifecycles stay traceable across loops and across the whole dump.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// One multiplexed connection's state on its owning event loop.
struct Conn {
    /// Process-unique id carried by this connection's flight events.
    id: u64,
    /// Requests admitted over this connection's lifetime (reported by
    /// its `conn-closed` flight event — the doctor's busiest-connection
    /// ranking input).
    requests: u64,
    stream: TcpStream,
    decoder: Decoder,
    out: WriteQueue,
    /// Requests admitted on this connection whose response has not been
    /// queued yet.
    in_flight: usize,
    /// Wire bytes the responses to those admitted requests will occupy
    /// once queued (header + prelude + declared `m×n` result). Charged at
    /// admission, released when the completion's frame enters the write
    /// queue — together with `out.backlog()` this is the connection's
    /// whole response-memory exposure, bounded by
    /// [`ServeConfig::max_conn_backlog_bytes`].
    pending_response_bytes: usize,
    /// Close once the write queue drains (fatal error answered, shutdown
    /// acknowledged, or peer EOF with responses still owed).
    closing: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

/// One registration slot: its occupant (if any) plus a generation counter
/// that survives occupants, so completions addressed to a dead connection
/// are recognized and dropped.
struct Slot {
    conn: Option<Conn>,
    generation: u32,
}

/// The per-loop serving core. Loop 0 additionally owns the listener and
/// deals accepted connections round-robin over all loops.
fn event_loop(
    shared: &Arc<Shared>,
    index: usize,
    mut poller: Poller,
    mut listener: Option<TcpListener>,
    heartbeat: Option<Arc<Heartbeat>>,
) {
    let me = shared.loops[index].clone();
    if let Some(l) = &listener {
        if poller.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ).is_err() {
            return;
        }
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut events = Vec::new();
    let mut next_loop = 0usize;
    // Once stop is observed, responses still owed get this long to reach
    // their sockets; a peer that stops reading must not hold shutdown
    // hostage.
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let _ = poller.wait(&mut events, Some(Duration::from_millis(100)));
        me.waker.drain();
        // The poll timeout bounds each iteration, so a beat per pass is
        // exactly "this loop is still turning".
        if let Some(hb) = &heartbeat {
            hb.beat();
        }

        // Adopt connections dealt over from the accept loop.
        let adopted: Vec<TcpStream> =
            std::mem::take(&mut *me.injected.lock().expect("injected queue poisoned"));
        for stream in adopted {
            install_conn(shared, &mut poller, &mut slots, stream, index);
        }

        for event in events.drain(..) {
            match event.token {
                WAKE_TOKEN => {}
                LISTENER_TOKEN => {
                    if let Some(l) = &listener {
                        accept_ready(shared, l, &mut poller, &mut slots, &mut next_loop, index);
                    }
                }
                token => {
                    let slot = token as usize;
                    let Some(conn) = slots.get(slot).and_then(|s| s.conn.as_ref()) else {
                        continue; // stale readiness for a freed slot
                    };
                    if event.readable {
                        if !conn.interest.read {
                            // Reads are off (EOF seen with responses still
                            // owed, or flow control), so this is the
                            // unmaskable full hangup: the peer is gone both
                            // ways, nothing owed can be delivered, and left
                            // registered it would re-fire on every wait.
                            drop_conn(shared, &mut poller, &mut slots, slot);
                            continue;
                        }
                        drive_read(shared, &me, &mut slots, slot);
                    }
                    // Writable readiness needs no dedicated driver: the
                    // round finisher below flushes either way.
                    finish_conn_round(shared, &mut poller, &mut slots, slot);
                }
            }
        }

        // Deliver completed results to their connections.
        let done: Vec<Completion> =
            std::mem::take(&mut *me.completions.lock().expect("completion queue poisoned"));
        for completion in done {
            apply_completion(shared, &mut poller, &mut slots, completion);
        }

        // ORDERING: pairs with the Release store in `request_stop`; the
        // loop was woken through the self-pipe, and on the wakeup pass
        // this Acquire load makes the pre-stop writes visible.
        if shared.stop.load(Ordering::Acquire) {
            if let Some(l) = listener.take() {
                // Refuse new connections immediately; in-flight work keeps
                // draining below.
                let _ = poller.deregister(LISTENER_TOKEN);
                drop(l);
            }
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(5));
            let owed = shared.metrics.inflight.get() > 0
                || !me.completions.lock().expect("completion queue poisoned").is_empty()
                || slots.iter().any(|s| s.conn.as_ref().is_some_and(|c| !c.out.is_empty()));
            if !owed || Instant::now() >= deadline {
                for slot in 0..slots.len() {
                    drop_conn(shared, &mut poller, &mut slots, slot);
                }
                return;
            }
        }
    }
}

/// Accept until the listener would block, dealing connections round-robin
/// over every event loop (this loop installs its own share directly).
fn accept_ready(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    poller: &mut Poller,
    slots: &mut Vec<Slot>,
    next_loop: &mut usize,
    index: usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let target = *next_loop % shared.loops.len();
                *next_loop = next_loop.wrapping_add(1);
                if target == 0 {
                    install_conn(shared, poller, slots, stream, index);
                } else {
                    let mailbox = &shared.loops[target];
                    mailbox.injected.lock().expect("injected queue poisoned").push(stream);
                    mailbox.waker.wake();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// Register a fresh connection in the lowest free slot of this loop.
fn install_conn(
    shared: &Arc<Shared>,
    poller: &mut Poller,
    slots: &mut Vec<Slot>,
    s: TcpStream,
    loop_index: usize,
) {
    if s.set_nonblocking(true).is_err() {
        return;
    }
    let _ = s.set_nodelay(true);
    let slot = match slots.iter().position(|s| s.conn.is_none()) {
        Some(free) => free,
        None => {
            slots.push(Slot { conn: None, generation: 0 });
            slots.len() - 1
        }
    };
    if poller.register(s.as_raw_fd(), slot as u64, Interest::READ).is_err() {
        return;
    }
    let id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
    slots[slot].conn = Some(Conn {
        id,
        requests: 0,
        stream: s,
        decoder: Decoder::new(shared.config.max_payload_bytes),
        out: WriteQueue::default(),
        in_flight: 0,
        pending_response_bytes: 0,
        closing: false,
        interest: Interest::READ,
    });
    flight::record(FlightEvent::ConnAccepted { conn: id, loop_index: loop_index as u64 });
    shared.metrics.connections.add(1);
    shared.metrics.connections_total.inc();
}

/// Read and decode as many frames as the socket and flow control allow,
/// handling each decoded event inline.
fn drive_read(shared: &Arc<Shared>, me: &Arc<LoopShared>, slots: &mut [Slot], slot: usize) {
    let generation = slots[slot].generation;
    let mut events = Vec::new();
    loop {
        let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
        if conn.closing
            || conn.decoder.is_broken()
            || conn.out.backlog() > shared.config.max_conn_backlog_bytes
        {
            return; // paused; interest update happens in finish_conn_round
        }
        let step = {
            let Conn { stream, decoder, .. } = conn;
            decoder.step(stream, &shared.pools, &mut events)
        };
        match step {
            DecodeStep::Frame => {
                for event in events.drain(..) {
                    handle_in_event(shared, me, slots, slot, generation, event);
                }
            }
            DecodeStep::NeedMore => return,
            DecodeStep::Closed => {
                // Peer EOF: no further requests, but responses already
                // owed still go out before the slot is reclaimed.
                let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
                conn.closing = true;
                return;
            }
            DecodeStep::Broken => return,
        }
    }
}

/// Act on one decoded inbound frame.
fn handle_in_event(
    shared: &Arc<Shared>,
    me: &Arc<LoopShared>,
    slots: &mut [Slot],
    slot: usize,
    generation: u32,
    event: InEvent,
) {
    match event {
        InEvent::Request { head, dims, operands } => {
            fmm_obs::trace::mark(SpanKind::RequestRecv, head.request_id);
            admit_request(shared, me, slots, slot, generation, head.request_id, dims, operands);
        }
        InEvent::Ping { head, payload } => {
            shared.metrics.pings.inc();
            let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
            push_reply(conn, head.request_id, FrameKind::Pong, &payload);
        }
        InEvent::StatsJson { head, prometheus } => {
            let body = if prometheus {
                shared.render_prometheus()
            } else {
                json::to_string_pretty(&shared.stats_json())
            };
            let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
            push_reply(conn, head.request_id, FrameKind::StatsJson, body.as_bytes());
        }
        InEvent::Trace { head, last } => {
            let body = json::to_string_pretty(&trace_json(last as usize));
            let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
            push_reply(conn, head.request_id, FrameKind::Trace, body.as_bytes());
        }
        InEvent::Shutdown { head } => {
            // Stop *before* the Pong is queued: by the time the client
            // reads the acknowledgement, `is_stopping()` is already true.
            shared.request_stop();
            let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
            push_reply(conn, head.request_id, FrameKind::Pong, b"");
            conn.closing = true;
        }
        InEvent::Incident { head } => {
            flight::record(FlightEvent::Incident { trigger: IncidentTrigger::WireRequest });
            let body = json::to_string_pretty(&shared.incident_json("wire-request"));
            let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
            push_reply(conn, head.request_id, FrameKind::Incident, body.as_bytes());
        }
        InEvent::Bad { request_id, code, message, fatal } => {
            shared.metrics.record_error(code);
            let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
            flight::record(FlightEvent::ErrorSent { conn: conn.id, code: code as u64 });
            let payload = protocol::encode_error(code, &message);
            push_reply(conn, request_id, FrameKind::Error, &payload);
            if fatal {
                conn.closing = true;
            }
        }
    }
}

/// Admission control for one decoded request: per-connection pipelining
/// bound, then the dtype queue's capacity bound. Refusals answer with a
/// typed error frame; admissions route the completion back here.
#[allow(clippy::too_many_arguments)]
fn admit_request(
    shared: &Arc<Shared>,
    me: &Arc<LoopShared>,
    slots: &mut [Slot],
    slot: usize,
    generation: u32,
    request_id: u64,
    dims: RequestDims,
    operands: crate::buffers::OperandStage,
) {
    let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
    if conn.in_flight >= shared.config.max_inflight_per_conn {
        shared.metrics.record_error(ErrorCode::Busy);
        flight::record(FlightEvent::AdmissionRefused {
            conn: conn.id,
            reason: RefusalReason::InflightCap,
        });
        let payload = protocol::encode_error(
            ErrorCode::Busy,
            &format!(
                "connection already has {} requests in flight",
                shared.config.max_inflight_per_conn
            ),
        );
        push_reply(conn, request_id, FrameKind::Error, &payload);
        return;
    }
    // Byte-level admission: the response's size is declared by the
    // request prelude, so its memory cost is charged *now*, before any
    // result buffer exists — a k=0 request is ~30 bytes of input but can
    // declare a cap-sized output, and counting requests alone would let
    // one connection pin `max_inflight × max response` of pooled memory.
    // A request arriving on an otherwise idle connection (nothing queued,
    // nothing promised) is always admitted, so progress never deadlocks
    // on an operator setting the backlog cap below one max response.
    let response_bytes = response_frame_bytes(dims);
    let outstanding = conn.pending_response_bytes + conn.out.backlog();
    if outstanding > 0 && outstanding + response_bytes > shared.config.max_conn_backlog_bytes {
        shared.metrics.record_error(ErrorCode::Busy);
        flight::record(FlightEvent::AdmissionRefused {
            conn: conn.id,
            reason: RefusalReason::ByteBacklog,
        });
        let payload = protocol::encode_error(
            ErrorCode::Busy,
            &format!(
                "connection has {outstanding} response bytes outstanding; another \
                 {response_bytes} would exceed the {}-byte cap",
                shared.config.max_conn_backlog_bytes
            ),
        );
        push_reply(conn, request_id, FrameKind::Error, &payload);
        return;
    }
    let reply = ReplySink {
        sink: me.clone() as Arc<dyn CompletionSink>,
        addr: ConnAddr { slot: slot as u32, generation },
        request_id,
    };
    let refused = match operands {
        crate::buffers::OperandStage::F64 { a, b } => {
            let job =
                Job { a, b, m: dims.m, k: dims.k, n: dims.n, reply, enqueued: Instant::now() };
            shared.queue_f64.try_push(job).err().map(|(_, why)| why)
        }
        crate::buffers::OperandStage::F32 { a, b } => {
            let job =
                Job { a, b, m: dims.m, k: dims.k, n: dims.n, reply, enqueued: Instant::now() };
            shared.queue_f32.try_push(job).err().map(|(_, why)| why)
        }
    };
    let conn = slots[slot].conn.as_mut().expect("driven slot is occupied");
    match refused {
        None => {
            fmm_obs::trace::mark(SpanKind::Admission, request_id);
            shared.metrics.requests.inc();
            shared.metrics.inflight.add(1);
            conn.in_flight += 1;
            conn.requests += 1;
            conn.pending_response_bytes += response_bytes;
            shared.metrics.record_conn_inflight(conn.in_flight as u64);
        }
        Some(Refusal::Full) => {
            shared.metrics.record_error(ErrorCode::Busy);
            flight::record(FlightEvent::AdmissionRefused {
                conn: conn.id,
                reason: RefusalReason::QueueFull,
            });
            let capacity = shared.config.queue_capacity;
            let payload = protocol::encode_error(
                ErrorCode::Busy,
                &format!("pending queue is full ({capacity} requests)"),
            );
            push_reply(conn, request_id, FrameKind::Error, &payload);
        }
        Some(Refusal::Closed) => {
            // Not Busy: nothing about this daemon will ever accept the
            // retry a Busy signal invites.
            shared.metrics.record_error(ErrorCode::ShuttingDown);
            flight::record(FlightEvent::AdmissionRefused {
                conn: conn.id,
                reason: RefusalReason::ShuttingDown,
            });
            let payload = protocol::encode_error(
                ErrorCode::ShuttingDown,
                "daemon is shutting down and accepts no new work",
            );
            push_reply(conn, request_id, FrameKind::Error, &payload);
        }
    }
}

/// Wire bytes the response to an admitted request will occupy once
/// queued: header, response prelude, and the declared `m×n` result.
fn response_frame_bytes(dims: RequestDims) -> usize {
    HEADER_LEN + RESPONSE_PRELUDE + dims.c_bytes()
}

/// Queue one small (fully owned) reply frame.
fn push_reply(conn: &mut Conn, request_id: u64, kind: FrameKind, payload: &[u8]) {
    let mut bytes = protocol::encode_header(kind, payload.len() as u32, request_id);
    bytes.extend_from_slice(payload);
    conn.out.push_bytes(bytes);
}

/// Route one finished request back to its connection: frame the response
/// as header ‖ prelude (owned) followed by the pooled result buffer
/// (scatter segment), or drop it if the connection died mid-flight.
fn apply_completion(
    shared: &Arc<Shared>,
    poller: &mut Poller,
    slots: &mut [Slot],
    completion: Completion,
) {
    // The admitted request is no longer in flight whether or not its
    // connection survived to read the answer.
    shared.metrics.inflight.sub(1);
    let slot = completion.addr.slot as usize;
    if slot >= slots.len()
        || slots[slot].generation != completion.addr.generation
        || slots[slot].conn.is_none()
    {
        return; // the connection died; the result buffer returns to its pool
    }
    let conn = slots[slot].conn.as_mut().expect("checked above");
    conn.in_flight = conn.in_flight.saturating_sub(1);
    shared.metrics.responses.inc();
    let payload_len = RESPONSE_PRELUDE + completion.result.bytes().len();
    // Release the bytes charged at admission: the promise now materializes
    // as actual write-queue backlog (the result length equals the `m×n`
    // size the prelude declared).
    conn.pending_response_bytes =
        conn.pending_response_bytes.saturating_sub(HEADER_LEN + payload_len);
    let mut head =
        protocol::encode_header(FrameKind::Response, payload_len as u32, completion.request_id);
    head.extend_from_slice(&protocol::encode_response_prelude(
        completion.result.dtype(),
        completion.m,
        completion.n,
    ));
    conn.out.push_bytes(head);
    conn.out.push_buf(completion.result);
    fmm_obs::trace::mark(SpanKind::ReplyFlush, completion.request_id);
    finish_conn_round(shared, poller, slots, slot);
}

/// After any activity on a slot: flush what the socket will take, reclaim
/// the slot if the connection is done, and otherwise reconcile the poller
/// interest with what the connection now needs.
fn finish_conn_round(shared: &Arc<Shared>, poller: &mut Poller, slots: &mut [Slot], slot: usize) {
    let Some(conn) = slots[slot].conn.as_mut() else { return };
    // Optimistic flush: most replies fit the socket buffer, so they leave
    // now instead of after a poll round-trip. An error means the peer is
    // gone — nothing further can be delivered, closing or not.
    if !conn.out.is_empty() && conn.out.flush(&mut conn.stream).is_err() {
        drop_conn(shared, poller, slots, slot);
        return;
    }
    let conn = slots[slot].conn.as_mut().expect("flush kept the slot occupied");
    // A closing connection is done once nothing is queued *and* nothing is
    // in flight: a peer that half-closed after sending still gets every
    // response it is owed.
    if conn.closing && conn.out.is_empty() && conn.in_flight == 0 {
        drop_conn(shared, poller, slots, slot);
        return;
    }
    let want = Interest {
        read: !conn.closing
            && !conn.decoder.is_broken()
            && conn.out.backlog() <= shared.config.max_conn_backlog_bytes,
        write: !conn.out.is_empty(),
    };
    if want != conn.interest {
        conn.interest = want;
        let _ = poller.modify(slot as u64, want);
    }
}

/// Deregister and drop a connection, bumping the slot generation so
/// completions still in flight for it are recognized as stale.
fn drop_conn(shared: &Arc<Shared>, poller: &mut Poller, slots: &mut [Slot], slot: usize) {
    if let Some(conn) = slots[slot].conn.take() {
        flight::record(FlightEvent::ConnClosed { conn: conn.id, requests: conn.requests });
        let _ = poller.deregister(slot as u64);
        slots[slot].generation = slots[slot].generation.wrapping_add(1);
        shared.metrics.connections.sub(1);
    }
}
