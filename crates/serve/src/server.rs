//! The serving daemon: one blocking acceptor thread, one reader and one
//! writer thread per connection, and one micro-batching dispatcher thread
//! per dtype.
//!
//! Threading model: the acceptor blocks in `accept(2)` and starts each
//! connection's reader, which starts its writer. The reader decodes
//! frames with blocking reads ([`read_event`]) straight into pooled
//! buffers — one copy off the wire — runs admission control, and queues
//! admitted requests for their dtype's dispatcher. A dispatcher hands each
//! finished result to its connection's reply queue (the connection is the
//! request's [`CompletionSink`]) and never touches a socket; the writer
//! drains that queue with blocking writes. A slow peer therefore blocks
//! only its own connection's threads, and its reader stops reading while
//! the reply backlog exceeds [`ServeConfig::max_conn_backlog_bytes`]. The
//! model is sized for the traffic the daemon serves — a few connections,
//! each pipelining many requests (the benchmark holds one, the widest test
//! twelve) — and a queued request crosses the same threads it would in a
//! readiness loop: client, reader, dispatcher, writer, client.
//!
//! A lone request skips the middle two. When the batching window is zero,
//! its connection has nothing else in flight, queued, being written or
//! waiting unread in the socket, and its dtype has nothing queued or
//! executing, the batch the dispatcher would form is that request alone:
//! the reader claims the dtype's executor bit and runs it
//! ([`BatchRunner::run`], the dispatcher's own batch step), releases the
//! bit, and writes the reply itself under the connection's write claim,
//! which the writer also takes around each write. Such a request crosses
//! client, reader, client. Everything else — any nonzero window, a busy
//! dtype, a pipelining connection — queues as above.
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
//!
//! Shutdown: the stop path shuts down the read side of every live socket,
//! so the readers see EOF, and a self-connect wakes the acceptor. Writers
//! deliver the replies still owed; after a 5 s drain deadline the
//! remaining sockets are shut down both ways.

use crate::buffers::{IngestPools, OperandStage, PooledBuf, WireBuf};
use crate::conn::{bytes_pending, read_event, InEvent};
use crate::dispatch::{
    run_dispatcher, BatchPolicy, BatchQueue, BatchRunner, Completion, CompletionSink, DispatchObs,
    Job, Refusal, ReplySink,
};
use crate::incident;
use crate::metrics::Metrics;
use crate::protocol::{self, ErrorCode, FrameKind, RequestDims, HEADER_LEN, RESPONSE_HEAD_LEN};
use crate::snapshot::{
    recent_events, BuildInfo, ConfigPrint, Document, Incident, StatsSnapshot, WatchdogRoster,
};
use fmm_engine::{ArchSource, EngineConfig, EngineStats, FmmEngine};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_obs::trace::{self, Event, IncidentTrigger, Kind, RefusalReason, ON_READER};
use fmm_obs::{WatchPolicy, Watchdog, WatchdogConfig, WatchdogHandle};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Idle buffers the per-dtype ingest pools retain across requests.
const POOL_RETAIN: usize = 32;
/// Idle bytes the per-dtype ingest pools retain across requests — a burst
/// of max-size requests must not leave gigabytes parked in the pools
/// after load subsides.
const POOL_RETAIN_BYTES: usize = 256 << 20;

/// How long a stopping daemon lets its connections deliver the replies
/// they owe; a peer that stops reading must not hold shutdown hostage.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// The acceptor's pause after a failed `accept(2)`. The usual cause is a
/// process or system out of descriptors, and retrying at once would spin
/// a CPU until one frees.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

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
    /// Most requests one connection may have in flight before further
    /// admissions are refused with `Busy` (the pipelining depth bound).
    pub max_inflight_per_conn: usize,
    /// Response bytes a connection may have outstanding — queued for its
    /// writer *or* promised by admitted-but-unfinished requests — before
    /// further admissions are refused with `Busy`; while the queued part
    /// alone exceeds it, the reader stops reading new frames. Charging the
    /// declared response size at admission (it is known from the request
    /// prelude) keeps a pipelining client from pinning
    /// `max_inflight_per_conn × max response` of pooled memory off a few
    /// hundred input bytes.
    pub max_conn_backlog_bytes: usize,
    /// Enable tracing spans (`fmm_obs::trace`) for every request phase.
    /// The default honors the `FMM_TRACE` environment variable (`1` or
    /// `true`). Tracing is a process-global switch: spawning a server
    /// with `trace: true` turns it on; spawning one with `trace: false`
    /// leaves the current state alone (so a tracing server and a plain
    /// one can coexist in one process, as the benchmarks do).
    pub trace: bool,
    /// Run the stall watchdog: the dispatchers publish heartbeats, one
    /// judging thread records stall/recovery events and the
    /// `fmm_watchdog_stalls_total` counter.
    pub watchdog: bool,
    /// A dispatcher is judged stalled after this long without progress
    /// while work is pending.
    pub watchdog_stall: Duration,
    /// Dump an incident report and abort the process when a stall
    /// persists this long. `None` = never abort.
    pub watchdog_abort_after: Option<Duration>,
    /// Requests whose dispatch latency reaches this threshold record a
    /// `SlowRequest` event with their queue-wait and execute split.
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

/// Everything the connections and dispatchers share.
struct Shared {
    config: ServeConfig,
    metrics: Arc<Metrics>,
    pools: IngestPools,
    queue_f64: BatchQueue<f64>,
    queue_f32: BatchQueue<f32>,
    engine_f64: Arc<FmmEngine<f64>>,
    engine_f32: Arc<FmmEngine<f32>>,
    stop: AtomicBool,
    /// The live connections by id; each removes itself once both its
    /// threads are done.
    conns: Mutex<BTreeMap<u64, Arc<Conn>>>,
    /// Signalled whenever a connection leaves `conns`.
    conn_closed: Condvar,
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
    /// queues (dispatchers drain their backlogs first), and shut down the
    /// read side of every live socket so its reader sees EOF.
    fn request_stop(&self) {
        {
            let conns = self.conns.lock().expect("connection registry poisoned");
            // ORDERING: Release pairs with the Acquire loads in
            // `is_stopping`: a thread that observes `stop == true` also
            // observes everything the stopping thread did before. Stored
            // under the registry lock, so the acceptor, which checks the
            // flag under the same lock, either sees it or registered its
            // connection in time for the sweep below.
            self.stop.store(true, Ordering::Release);
            for conn in conns.values() {
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
        }
        self.queue_f64.close();
        self.queue_f32.close();
        let mut stopping = self.lifecycle.stopping.lock().expect("lifecycle poisoned");
        *stopping = true;
        self.lifecycle.stopped.notify_all();
    }

    fn is_stopping(&self) -> bool {
        // ORDERING: pairs with the Release store in `request_stop`.
        self.stop.load(Ordering::Acquire)
    }

    /// Wait for every connection to deliver what it owes and close, up to
    /// [`DRAIN_DEADLINE`]; then shut the remaining sockets down both ways
    /// and wait for their threads to finish.
    fn drain_connections(&self) {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut conns = self.conns.lock().expect("connection registry poisoned");
        while !conns.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                conns.values().for_each(|conn| conn.kill());
                conns = self.conn_closed.wait(conns).expect("connection registry poisoned");
            } else {
                let waited = self.conn_closed.wait_timeout(conns, deadline - now);
                conns = waited.expect("connection registry poisoned").0;
            }
        }
    }

    /// The stats snapshot: this server's instruments merged with the
    /// process-global registry (gemm pack/kernel split, sched tasks), the
    /// engines' `EngineStats::fields()` rows, dtype queue depths,
    /// ingest-pool occupancy, watchdog stalls, and the decision-audit
    /// table. Read-only: everything that lives outside the registry is
    /// read where it lives, at snapshot time. Cold, like `incident` and the
    /// documents' encoders: inlined into the serving path, this code made
    /// the benchmark's `serve` latency ~13 % worse.
    #[cold]
    fn snapshot(&self) -> StatsSnapshot {
        let mut stats = StatsSnapshot {
            build: BuildInfo::current(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            audit: fmm_obs::audit::snapshot(),
        };
        for registry in [self.metrics.registry().snapshot(), fmm_obs::global().snapshot()] {
            stats.counters.extend(registry.counters);
            stats.gauges.extend(registry.gauges);
            stats.histograms.extend(registry.histograms);
        }
        for (prefix, engine) in [
            ("fmm_engine_f64_", self.engine_f64.stats()),
            ("fmm_engine_f32_", self.engine_f32.stats()),
        ] {
            let rows = engine.fields().into_iter().map(|(name, v)| (format!("{prefix}{name}"), v));
            stats.counters.extend(rows);
        }
        for (dtype, pool) in [("f64", self.pools.f64.stats()), ("f32", self.pools.f32.stats())] {
            let rows = [
                ("hits", pool.hits),
                ("misses", pool.misses),
                ("retained", pool.retained),
                ("retained_bytes", pool.retained_bytes),
            ];
            stats
                .counters
                .extend(rows.map(|(stat, v)| (format!("fmm_serve_pool_{dtype}_{stat}"), v)));
        }
        if let Some(wd) = &self.watchdog {
            stats.counters.insert("fmm_watchdog_stalls_total".into(), wd.stalls_total());
        }
        stats.counters.insert("fmm_audit_samples_total".into(), fmm_obs::audit::samples_recorded());
        stats.counters.insert("fmm_audit_dropped_total".into(), fmm_obs::audit::samples_dropped());
        stats.gauges.insert("fmm_build_info".into(), 1);
        stats.gauges.insert("fmm_serve_queue_depth_f64".into(), self.queue_f64.depth() as i64);
        stats.gauges.insert("fmm_serve_queue_depth_f32".into(), self.queue_f32.depth() as i64);
        stats.audit.sort_by_cached_key(fmm_obs::AuditEntry::key);
        stats
    }

    /// The incident document the `Incident` wire frame returns and
    /// SIGTERM/SIGINT, panic, and watchdog-abort dumps write to
    /// [`ServeConfig::incident_dir`].
    #[cold]
    fn incident(&self, trigger: &str) -> Incident {
        let c = &self.config;
        let knobs = [
            ("queue_capacity", c.queue_capacity as u64),
            ("max_inflight_per_conn", c.max_inflight_per_conn as u64),
            ("max_payload_bytes", c.max_payload_bytes as u64),
            ("max_conn_backlog_bytes", c.max_conn_backlog_bytes as u64),
            ("workers", c.workers as u64),
            ("batch_window_micros", c.batch.window.as_micros() as u64),
            ("batch_max", c.batch.max_batch as u64),
            ("watchdog", u64::from(c.watchdog)),
            ("watchdog_stall_millis", c.watchdog_stall.as_millis() as u64),
            ("slow_threshold_millis", c.slow_threshold.as_millis() as u64),
        ];
        Incident {
            trigger: trigger.to_string(),
            build: BuildInfo::current(),
            config: ConfigPrint {
                addr: c.addr.clone(),
                knobs: knobs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            },
            watchdog: self.watchdog.as_ref().map(|wd| WatchdogRoster {
                components: wd.component_names(),
                stalls_total: wd.stalls_total(),
            }),
            events: recent_events(0),
            stats: self.snapshot(),
        }
    }

    /// Write one incident dump to the configured directory (atomic
    /// temp+rename). Returns the final path, or `None` when no
    /// `incident_dir` is configured or the write failed — incident
    /// capture must never take the daemon down with it.
    fn write_incident(&self, trigger: &str) -> Option<std::path::PathBuf> {
        let dir = self.config.incident_dir.as_ref()?;
        let seq = self.incident_seq.fetch_add(1, Ordering::Relaxed);
        let doc = self.incident(trigger).to_json();
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
}

/// A running serving daemon. Obtained from [`Server::spawn`]; dropping the
/// handle does *not* stop the daemon — use [`ServerHandle::shutdown`] (or
/// a client `Shutdown` frame plus [`ServerHandle::wait`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
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
            trace::set_enabled(true);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

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
            conns: Mutex::new(BTreeMap::new()),
            conn_closed: Condvar::new(),
            lifecycle: Lifecycle { stopping: Mutex::new(false), stopped: Condvar::new() },
            watchdog,
            incident_seq: AtomicU64::new(0),
            config,
        });

        let acceptor = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("fmm-serve-accept".into())
                .spawn(move || accept_connections(&shared, listener))
                .expect("spawn acceptor")
        };
        let mut threads = Vec::new();
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
                runner: 0,
                slow_threshold: Some(shared.config.slow_threshold),
            };
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name("fmm-serve-dispatch-f64".into())
                    .spawn(move || {
                        let runner = BatchRunner {
                            engine: &shared.engine_f64,
                            pool: &shared.pools.f64,
                            metrics: &shared.metrics,
                            obs: &obs,
                        };
                        run_dispatcher(&shared.queue_f64, &runner, shared.config.batch)
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
                runner: 1,
                slow_threshold: Some(shared.config.slow_threshold),
            };
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name("fmm-serve-dispatch-f32".into())
                    .spawn(move || {
                        let runner = BatchRunner {
                            engine: &shared.engine_f32,
                            pool: &shared.pools.f32,
                            metrics: &shared.metrics,
                            obs: &obs,
                        };
                        run_dispatcher(&shared.queue_f32, &runner, shared.config.batch)
                    })
                    .expect("spawn f32 dispatcher"),
            );
        }
        let watchdog_handle = shared.watchdog.as_ref().map(|wd| {
            let dump = shared.clone();
            wd.spawn(Box::new(move || {
                // The watchdog-abort `Incident` event is already in the
                // ring (the watchdog records it before aborting).
                dump.write_incident("watchdog-abort");
            }))
        });
        if shared.config.incident_dir.is_some() {
            install_incident_capture(&shared, &mut threads);
        }
        Ok(ServerHandle { addr, shared, acceptor, threads, watchdog_handle })
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
            record_incident(IncidentTrigger::Panic);
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
                    record_incident(trigger);
                    shared.write_incident(trigger.name());
                    // Dump first, then drain: the signal asks for
                    // termination, and a clean stop is the best honor.
                    shared.request_stop();
                    return;
                }
                if shared.is_stopping() {
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

    /// Connections in the daemon's registry right now: accepted, and not
    /// yet closed with both of their threads done.
    pub fn live_connections(&self) -> usize {
        self.shared.conns.lock().expect("connection registry poisoned").len()
    }

    /// Per-dtype engine counter snapshots.
    pub fn engine_stats(&self) -> (EngineStats, EngineStats) {
        (self.shared.engine_f64.stats(), self.shared.engine_f32.stats())
    }

    /// The stats snapshot a `StatsJson` frame would return right now.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// True once shutdown has been requested (by [`ServerHandle::shutdown`]
    /// or a client `Shutdown` frame).
    pub fn is_stopping(&self) -> bool {
        self.shared.is_stopping()
    }

    /// Block until shutdown is requested, then drain the connections and
    /// join the daemon threads (in-flight requests complete first) and
    /// return the final stats snapshot. This is the daemon main loop:
    /// `Server::spawn(cfg)?.wait()`.
    pub fn wait(self) -> StatsSnapshot {
        {
            let mut stopping = self.shared.lifecycle.stopping.lock().expect("lifecycle poisoned");
            while !*stopping {
                stopping =
                    self.shared.lifecycle.stopped.wait(stopping).expect("lifecycle poisoned");
            }
        }
        let shared = Arc::clone(&self.shared);
        self.join();
        shared.snapshot()
    }

    /// Request shutdown and join the daemon threads. Idempotent with a
    /// client-initiated `Shutdown` frame.
    pub fn shutdown(self) {
        self.shared.request_stop();
        self.join();
    }

    fn join(self) {
        // The acceptor is blocked in accept(2); connecting wakes it to see
        // the stop. A connect fails while descriptors are short, so retry.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        while !self.acceptor.is_finished()
            && TcpStream::connect_timeout(&wake, Duration::from_millis(100)).is_err()
        {
            thread::sleep(ACCEPT_BACKOFF);
        }
        let _ = self.acceptor.join();
        self.shared.drain_connections();
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(wd) = self.watchdog_handle {
            wd.stop();
        }
    }

    /// The incident document an `Incident` wire frame would return right
    /// now — the seam tests use to inspect dumps without signals.
    pub fn incident(&self) -> Incident {
        self.shared.incident("wire-request")
    }
}

/// Process-wide connection id sequence for connection events — connection
/// lifecycles stay traceable across the whole dump.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// Accept connections until the daemon stops.
fn accept_connections(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if !open_conn(shared, stream) {
                    return;
                }
            }
            Err(_) if shared.is_stopping() => return,
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Register an accepted connection and start its reader. Returns `false`,
/// dropping the stream, once the daemon is stopping.
fn open_conn(shared: &Arc<Shared>, stream: TcpStream) -> bool {
    let _ = stream.set_nodelay(true);
    let mut conns = shared.conns.lock().expect("connection registry poisoned");
    if shared.is_stopping() {
        return false;
    }
    let id = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed);
    let conn = Arc::new(Conn {
        id,
        stream,
        metrics: shared.metrics.clone(),
        state: Mutex::new(ConnState::default()),
        changed: Condvar::new(),
    });
    let reader = {
        let (shared, conn) = (shared.clone(), conn.clone());
        thread::Builder::new()
            .name(format!("fmm-serve-conn-{id}"))
            .spawn(move || serve_conn(&shared, &conn))
    };
    // Out of threads: drop the connection, keep serving the others.
    if reader.is_ok() {
        trace::record(Event::now(Kind::ConnAccepted, 0).with_args([id, 0, 0]));
        shared.metrics.connections.add(1);
        shared.metrics.connections_total.inc();
        conns.insert(id, conn);
    }
    true
}

/// One reply frame waiting for its connection's writer.
enum Reply {
    /// A fully owned frame: control replies and error frames.
    Frame(Vec<u8>),
    /// A response: its header and prelude, then the pooled result buffer,
    /// written in place.
    Result { head: [u8; RESPONSE_HEAD_LEN], body: WireBuf },
}

impl Reply {
    fn len(&self) -> usize {
        match self {
            Self::Frame(bytes) => bytes.len(),
            Self::Result { head, body } => head.len() + body.bytes().len(),
        }
    }
}

/// One accepted connection, shared by its reader and writer threads, the
/// dispatchers completing its requests, and the server's registry.
struct Conn {
    /// Process-unique id carried by this connection's events.
    id: u64,
    stream: TcpStream,
    metrics: Arc<Metrics>,
    state: Mutex<ConnState>,
    /// Signalled when a reply is queued, the backlog shrinks, or the
    /// connection winds down.
    changed: Condvar,
}

#[derive(Default)]
struct ConnState {
    /// Replies queued for the writer.
    replies: VecDeque<Reply>,
    /// Bytes of `replies`.
    backlog: usize,
    /// Requests admitted whose reply has not been queued yet.
    in_flight: usize,
    /// Wire bytes the replies to those requests will occupy (header +
    /// prelude + declared `m×n` result). Charged at admission, released
    /// when the reply is queued — with `backlog`, the response memory the
    /// connection holds besides the reply being written, bounded by
    /// [`ServeConfig::max_conn_backlog_bytes`].
    promised: usize,
    /// The write claim: a thread is writing to the socket. The writer
    /// takes it around each reply it writes, the reader around a request
    /// it runs and answers itself.
    writing: bool,
    /// The reader is done: no further request will be admitted.
    reading_done: bool,
    /// Nothing more can be delivered: the peer is gone, or the drain
    /// deadline passed.
    dead: bool,
}

impl Conn {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().expect("connection state poisoned")
    }

    /// Queue a reply for the writer (dropped if the connection is dead).
    fn push(&self, reply: Reply) {
        let mut state = self.lock();
        if !state.dead {
            state.backlog += reply.len();
            state.replies.push_back(reply);
            self.changed.notify_all();
        }
    }

    /// Queue one small reply frame.
    fn reply(&self, request_id: u64, kind: FrameKind, payload: &[u8]) {
        let mut bytes = protocol::encode_header(kind, payload.len() as u32, request_id);
        bytes.extend_from_slice(payload);
        self.push(Reply::Frame(bytes));
    }

    /// Block while the queued reply backlog exceeds `cap`. `false` once the
    /// connection is dead.
    fn wait_for_room(&self, cap: usize) -> bool {
        let mut state = self.lock();
        while state.backlog > cap && !state.dead {
            state = self.changed.wait(state).expect("connection state poisoned");
        }
        !state.dead
    }

    /// Release the write claim, waking the writer if replies were queued
    /// while it was held.
    fn end_write(&self) {
        let mut state = self.lock();
        state.writing = false;
        let wake = !state.replies.is_empty();
        drop(state);
        if wake {
            self.changed.notify_all();
        }
    }

    /// The reader is done: the writer exits once nothing is owed.
    fn finish_reading(&self) {
        self.lock().reading_done = true;
        self.changed.notify_all();
    }

    /// Give up on delivery: drop what is queued, wake both threads, and
    /// shut the socket down both ways.
    fn kill(&self) {
        {
            let mut state = self.lock();
            state.dead = true;
            state.replies.clear();
            state.backlog = 0;
        }
        self.changed.notify_all();
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// The next reply to write, with the write claim taken for it, or
    /// `None` once the connection is dead, or the reader is done with
    /// nothing queued or in flight.
    fn next_reply(&self) -> Option<Reply> {
        let mut state = self.lock();
        loop {
            if state.dead {
                return None;
            }
            if !state.writing {
                if let Some(reply) = state.replies.pop_front() {
                    // Released before the write: once the peer can read
                    // the reply, it may already be sending a request that
                    // counts the backlog against its admission.
                    state.backlog -= reply.len();
                    state.writing = true;
                    self.changed.notify_all();
                    return Some(reply);
                }
            }
            if state.reading_done && state.in_flight == 0 && state.replies.is_empty() {
                return None;
            }
            state = self.changed.wait(state).expect("connection state poisoned");
        }
    }

    /// Retire a finished request: it is no longer in flight, whether or
    /// not its connection survived to read the answer, and its promised
    /// bytes are released. Returns its reply's header ‖ prelude, or `None`
    /// when the connection died mid-flight and the reply is dropped.
    fn retire(
        &self,
        state: &mut ConnState,
        completion: &Completion,
    ) -> Option<[u8; RESPONSE_HEAD_LEN]> {
        let Completion { request_id, m, n, ref result } = *completion;
        let len = result.bytes().len();
        self.metrics.inflight.sub(1);
        state.in_flight = state.in_flight.saturating_sub(1);
        // The result length equals the `m×n` size the prelude declared.
        state.promised = state.promised.saturating_sub(RESPONSE_HEAD_LEN + len);
        if state.dead {
            return None;
        }
        self.metrics.responses.inc();
        trace::mark(Kind::ReplyFlush, request_id);
        Some(protocol::encode_response_head(request_id, result.dtype(), m, n, len))
    }

    /// Answer a request this connection's reader ran itself, under the
    /// write claim its admission took, and release the claim.
    fn answer_lone(&self, completion: Completion) {
        let head = self.retire(&mut self.lock(), &completion);
        if let Some(head) = head {
            if write_result(&mut &self.stream, &head, completion.result).is_err() {
                self.kill();
            }
        }
        self.end_write();
    }
}

impl CompletionSink for Conn {
    /// Frame a finished request as header ‖ prelude plus the pooled result
    /// buffer and queue it, or drop it if the connection died mid-flight
    /// (the buffer returns to its pool).
    fn complete(&self, completion: Completion) {
        let mut state = self.lock();
        if let Some(head) = self.retire(&mut state, &completion) {
            // The promise materializes as queued backlog.
            let reply = Reply::Result { head, body: completion.result };
            state.backlog += reply.len();
            state.replies.push_back(reply);
        }
        self.changed.notify_all();
    }
}

/// A connection's reader thread: start the writer, and read until the
/// connection is done; the writer is joined before the connection leaves
/// the registry.
fn serve_conn(shared: &Shared, conn: &Arc<Conn>) {
    let mut reap = Reap { shared, id: conn.id, requests: 0 };
    reap.requests = thread::scope(|s| {
        let writer = thread::Builder::new()
            .name(format!("fmm-serve-write-{}", conn.id))
            .spawn_scoped(s, || write_replies(conn));
        if writer.is_err() {
            conn.kill();
            return 0;
        }
        read_requests(shared, conn)
    });
}

/// Takes a connection out of the registry when its reader thread ends —
/// by return or by a panic's unwinding, so a stopping daemon never waits
/// for a connection whose threads are gone.
struct Reap<'a> {
    shared: &'a Shared,
    id: u64,
    requests: u64,
}

impl Drop for Reap<'_> {
    fn drop(&mut self) {
        // A removal leaves the map valid even if a panic poisoned it.
        let mut conns = self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.remove(&self.id);
        drop(conns);
        self.shared.conn_closed.notify_all();
        trace::record(Event::now(Kind::ConnClosed, 0).with_args([self.id, self.requests, 0]));
        self.shared.metrics.connections.sub(1);
    }
}

/// Read and act on frames until the peer closes, the stream breaks, or a
/// reply ends the conversation. Returns the requests admitted.
fn read_requests(shared: &Shared, conn: &Arc<Conn>) -> u64 {
    let config = &shared.config;
    let mut stream = &conn.stream;
    let mut requests = 0;
    while conn.wait_for_room(config.max_conn_backlog_bytes) {
        match read_event(&mut stream, config.max_payload_bytes, &shared.pools) {
            Ok(Some(event)) => {
                if !handle_event(shared, conn, event, &mut requests) {
                    break;
                }
            }
            // EOF — a half-close, a stream cut inside a frame, or the stop
            // path: no further requests, but replies owed still go out.
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            // A transport error (a reset): nothing owed can be delivered.
            Err(_) => {
                conn.kill();
                break;
            }
        }
    }
    conn.finish_reading();
    requests
}

/// A connection's writer thread: write queued replies until none are owed,
/// then close the socket so the peer sees EOF.
fn write_replies(conn: &Conn) {
    let mut stream = &conn.stream;
    while let Some(reply) = conn.next_reply() {
        let sent = match reply {
            Reply::Frame(bytes) => stream.write_all(&bytes),
            Reply::Result { head, body } => write_result(&mut stream, &head, body),
        };
        conn.end_write();
        if sent.is_err() {
            conn.kill();
            return;
        }
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Result bytes [`write_result`] sends only after the result buffer is
/// back in its pool.
const RESULT_TAIL: usize = 8;

/// Write one response: `head`, then the result straight from its pooled
/// buffer — except the last [`RESULT_TAIL`] bytes, which go out from a
/// copy once the buffer is back in the pool. Until they arrive the peer
/// cannot send its next request, so that request's result finds this
/// buffer idle and the warm path takes no new payload buffer.
fn write_result(w: &mut impl Write, head: &[u8], body: WireBuf) -> io::Result<()> {
    let bytes = body.bytes();
    let cut = bytes.len().saturating_sub(RESULT_TAIL);
    let mut tail = [0; RESULT_TAIL];
    let tail = &mut tail[..bytes.len() - cut];
    tail.copy_from_slice(&bytes[cut..]);
    protocol::write_all_vectored(w, &mut [IoSlice::new(head), IoSlice::new(&bytes[..cut])])?;
    drop(body);
    w.write_all(tail)
}

/// Act on one decoded inbound frame. Returns `false` when the connection
/// must stop reading: a fatal framing error was answered, or shutdown was
/// acknowledged.
fn handle_event(shared: &Shared, conn: &Arc<Conn>, event: InEvent, requests: &mut u64) -> bool {
    match event {
        InEvent::Request { head, dims, operands } => {
            trace::mark(Kind::RequestRecv, head.request_id);
            if admit_request(shared, conn, head.request_id, dims, operands) {
                *requests += 1;
            }
        }
        InEvent::Ping { head, payload } => {
            shared.metrics.pings.inc();
            conn.reply(head.request_id, FrameKind::Pong, &payload);
        }
        InEvent::StatsJson { head, prometheus } => {
            let stats = shared.snapshot();
            let body = if prometheus { stats.to_prometheus() } else { stats.to_json() };
            conn.reply(head.request_id, FrameKind::StatsJson, body.as_bytes());
        }
        InEvent::Trace { head, last } => {
            let body = recent_events(last as usize).to_json();
            conn.reply(head.request_id, FrameKind::Trace, body.as_bytes());
        }
        InEvent::Shutdown { head } => {
            // Stop *before* the Pong is queued: by the time the client
            // reads the acknowledgement, `is_stopping()` is already true.
            shared.request_stop();
            conn.reply(head.request_id, FrameKind::Pong, b"");
            return false;
        }
        InEvent::Incident { head } => {
            record_incident(IncidentTrigger::WireRequest);
            let body = shared.incident("wire-request").to_json();
            conn.reply(head.request_id, FrameKind::Incident, body.as_bytes());
        }
        InEvent::Bad { request_id, code, message, fatal } => {
            shared.metrics.record_error(code);
            let sent = Event::now(Kind::ErrorSent, request_id);
            trace::record(sent.with_args([conn.id, code as u64, 0]));
            conn.reply(request_id, FrameKind::Error, &protocol::encode_error(code, &message));
            return !fatal;
        }
    }
    true
}

/// Admission control for one decoded request: per-connection pipelining
/// bound and response-byte budget, then the dtype queue's capacity bound.
/// Refusals answer with a typed error frame. An admitted request is either
/// run and answered here, when it is alone (see the module docs), or
/// queued, its completion coming back to `conn`. Returns whether it was
/// admitted.
fn admit_request(
    shared: &Shared,
    conn: &Arc<Conn>,
    request_id: u64,
    dims: RequestDims,
    operands: OperandStage,
) -> bool {
    let config = &shared.config;
    let refuse = |code, reason, message: &str| {
        shared.metrics.record_error(code);
        let refused = Event::now(Kind::AdmissionRefused, request_id);
        trace::record(refused.with_args([conn.id, reason as u64, 0]));
        conn.reply(request_id, FrameKind::Error, &protocol::encode_error(code, message));
        false
    };
    // Byte-level admission: the response's size is declared by the
    // request prelude, so its memory cost is charged *now*, before any
    // result buffer exists — a k=0 request is ~30 bytes of input but can
    // declare a cap-sized output, and counting requests alone would let
    // one connection pin `max_inflight × max response` of pooled memory.
    // A request arriving on an otherwise idle connection (nothing queued,
    // nothing promised) is always admitted, so progress never deadlocks
    // on an operator setting the backlog cap below one max response.
    let response_bytes = RESPONSE_HEAD_LEN + dims.c_bytes();
    let (depth, lone) = {
        let mut state = conn.lock();
        let outstanding = state.promised + state.backlog;
        if state.in_flight >= config.max_inflight_per_conn {
            drop(state);
            let cap = config.max_inflight_per_conn;
            let message = format!("connection already has {cap} requests in flight");
            return refuse(ErrorCode::Busy, RefusalReason::InflightCap, &message);
        }
        if outstanding > 0 && outstanding + response_bytes > config.max_conn_backlog_bytes {
            drop(state);
            let message = format!(
                "connection has {outstanding} response bytes outstanding; another \
                 {response_bytes} would exceed the {}-byte cap",
                config.max_conn_backlog_bytes
            );
            return refuse(ErrorCode::Busy, RefusalReason::ByteBacklog, &message);
        }
        // To be run here: no window to wait out, and nothing else of this
        // connection in flight, queued, being written or already in the
        // socket (a pipelining client's next request, which should find
        // this one queued to share its batch). It takes the write claim
        // for its reply.
        let lone = config.batch.window.is_zero()
            && state.in_flight == 0
            && state.replies.is_empty()
            && !state.writing
            && !bytes_pending(&conn.stream);
        state.writing |= lone;
        // Charged before the job is queued: a dispatcher may complete it
        // before this thread runs again.
        state.in_flight += 1;
        state.promised += response_bytes;
        (state.in_flight, lone)
    };
    shared.metrics.inflight.add(1);
    let reply = ReplySink { sink: conn.clone(), request_id };
    let enqueued = Instant::now();
    let (m, k, n) = (dims.m, dims.k, dims.n);
    let obs = DispatchObs {
        heartbeat: None,
        runner: ON_READER | conn.id,
        slow_threshold: Some(config.slow_threshold),
    };
    let (pools, metrics) = (&shared.pools, &shared.metrics);
    let submitted = match operands {
        OperandStage::F64 { a, b } => {
            let engine = &shared.engine_f64;
            let runner = BatchRunner { engine, pool: &pools.f64, metrics, obs: &obs };
            let job = Job { a, b, m, k, n, reply, enqueued };
            submit(conn, &shared.queue_f64, &runner, job, lone)
        }
        OperandStage::F32 { a, b } => {
            let engine = &shared.engine_f32;
            let runner = BatchRunner { engine, pool: &pools.f32, metrics, obs: &obs };
            let job = Job { a, b, m, k, n, reply, enqueued };
            submit(conn, &shared.queue_f32, &runner, job, lone)
        }
    };
    let why = match submitted {
        Ok(ran) => {
            shared.metrics.requests.inc();
            shared.metrics.record_conn_inflight(depth as u64);
            if let Some(completion) = ran {
                shared.metrics.reader_requests.inc();
                conn.answer_lone(completion);
            }
            return true;
        }
        Err(why) => why,
    };
    shared.metrics.inflight.sub(1);
    {
        let mut state = conn.lock();
        state.in_flight -= 1;
        state.promised -= response_bytes;
    }
    match why {
        Refusal::Full => {
            let capacity = config.queue_capacity;
            let message = format!("pending queue is full ({capacity} requests)");
            refuse(ErrorCode::Busy, RefusalReason::QueueFull, &message)
        }
        // Not Busy: nothing about this daemon will ever accept the retry a
        // Busy signal invites.
        Refusal::Closed => refuse(
            ErrorCode::ShuttingDown,
            RefusalReason::ShuttingDown,
            "daemon is shutting down and accepts no new work",
        ),
    }
}

/// Run an admitted job on this reader, when it is `lone` (the connection's
/// write claim taken) and its dtype's executor bit can be claimed, and
/// return its completion; otherwise release the write claim, if taken, and
/// queue the job for the dispatcher.
fn submit<T: GemmScalar>(
    conn: &Conn,
    queue: &BatchQueue<T>,
    runner: &BatchRunner<'_, T>,
    job: Job<T>,
    lone: bool,
) -> Result<Option<Completion>, Refusal>
where
    WireBuf: From<PooledBuf<T>>,
{
    let request_id = job.reply.request_id;
    if lone && queue.try_claim() {
        trace::mark(Kind::Admission, request_id);
        let mut ran = None;
        runner.run(vec![job], trace::now_nanos(), 0, |_, completion| ran = Some(completion));
        queue.release();
        return Ok(ran);
    }
    if lone {
        conn.end_write();
    }
    queue.try_push(job).map_err(|(_, why)| why)?;
    trace::mark(Kind::Admission, request_id);
    Ok(None)
}

/// Record that an incident dump is being written.
fn record_incident(trigger: IncidentTrigger) {
    trace::record(Event::now(Kind::Incident, 0).with_args([trigger as u64, 0, 0]));
}
