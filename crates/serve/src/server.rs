//! The serving daemon: one blocking acceptor thread, and one reader and
//! one writer thread per connection. The readers execute the requests.
//!
//! Threading model: the acceptor starts each connection's reader, which
//! starts its writer. The reader decodes frames with blocking reads
//! ([`read_event`]) straight into pooled buffers — one copy off the wire —
//! through a small head buffer, so a lone request takes two reads: header
//! and prelude, then both operands. It runs admission control, pushes each
//! admitted request onto its dtype's queue and combines on the queues it
//! pushed to ([`dispatch::combine`]): if it wins a dtype's executor bit it
//! runs batches, everyone's jobs with its own, until the queue is empty,
//! and queues each result for its connection (the connection is its
//! requests' [`CompletionSink`]), waking that connection's writer unless
//! the connection is its own; if it loses, the holder runs its job. Its
//! own results are handed to its writer when more batches follow, and
//! otherwise written by the reader after the turn, under the connection's
//! write claim (which the writer takes around each write), one send per
//! reply that asks the socket not to block while the socket itself stays
//! blocking: what the socket will not take at once is left to the writer,
//! so no reader blocks on its peer. Control replies (pongs, documents,
//! error frames) are written the same way, by the reader that read the
//! frame asking for them. A lone request or ping crosses client, reader,
//! client. A reader whose head buffer and socket already hold the whole
//! next frame pushes without combining and reads on, so a pipelining
//! connection's requests share a batch.
//!
//! A slow peer blocks only its own connection's writer: a combiner never
//! writes to another connection's socket, and its reader stops reading
//! while the reply backlog exceeds [`ServeConfig::max_conn_backlog_bytes`].
//! A client may pipeline up to [`ServeConfig::max_inflight_per_conn`]
//! requests and receives responses out of order, matched by `request_id`.
//!
//! Error policy, per the protocol contract: malformed payloads on an
//! intact frame stream are answered with a typed error frame and the
//! connection continues; framing-level corruption (bad magic/version,
//! oversized declaration) is answered with an error frame and the
//! connection closes, because the byte stream can no longer be trusted.
//! The daemon itself never panics on client input.
//!
//! Shutdown: the stop path shuts down the read side of every live socket,
//! so the readers see EOF and combine what they pushed, and a self-connect
//! wakes the acceptor. Writers deliver the replies still owed; after a 5 s
//! drain deadline the remaining sockets are shut down both ways.

use crate::buffers::{BufferPool, IngestPools, OperandStage, PooledBuf, WireBuf};
use crate::conn::{self, read_event, InEvent, NoWait};
use crate::dispatch::{
    self, BatchPolicy, BatchQueue, BatchRunner, Completion, CompletionSink, Gate, Job, Refusal,
};
use crate::incident;
use crate::metrics::Metrics;
use crate::protocol::{
    self, Dtype, ErrorCode, FrameKind, RequestDims, HEADER_LEN, RESPONSE_HEAD_LEN,
};
use crate::snapshot::{
    recent_events, BuildInfo, ConfigPrint, Document, Incident, StatsSnapshot, WatchdogRoster,
};
use fmm_engine::{ArchSource, EngineConfig, EngineStats, FmmEngine};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_obs::trace::{self, Event, IncidentTrigger, Kind, RefusalReason};
use fmm_obs::{Watchdog, WatchdogConfig, WatchdogHandle};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, IoSlice, Write};
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

/// Requests whose latency reaches this record a `SlowRequest` event with
/// their queue-wait and execute split.
const SLOW_THRESHOLD: Duration = Duration::from_millis(250);

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
    /// The stall watchdog's deadline: its one judging thread records
    /// stall/recovery events and the `fmm_watchdog_stalls_total` counter,
    /// and judges a dtype's executor stalled after this long without a
    /// completed batch while jobs are queued or its bit is held, so one
    /// batch that runs this long counts as a stall.
    pub watchdog_stall: Duration,
    /// Directory incident dumps are written to (atomic temp+rename) on
    /// SIGTERM/SIGINT or panic. `None` disables capture-to-disk;
    /// [`ServerHandle::incident`] works regardless.
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
            watchdog_stall: Duration::from_secs(1),
            incident_dir: None,
        }
    }
}

/// One dtype's executor: its admission queue and executor bit, and its
/// engine; the watchdog judges it by the queue as `name`.
struct Executor<T: GemmScalar> {
    queue: Arc<BatchQueue<T>>,
    engine: Arc<FmmEngine<T>>,
}

impl<T: GemmScalar> Executor<T> {
    fn new(name: &str, engine: Arc<FmmEngine<T>>, cap: usize, watchdog: &Watchdog) -> Self {
        let queue = Arc::new(BatchQueue::new(cap));
        let probe = queue.clone();
        watchdog.register(name, move || probe.progress());
        Self { queue, engine }
    }
}

/// Everything the connections share.
struct Shared {
    config: ServeConfig,
    metrics: Arc<Metrics>,
    pools: IngestPools,
    f64: Executor<f64>,
    f32: Executor<f32>,
    /// The test hold combiners park at ([`ServerHandle::gate`]).
    gate: Gate,
    stop: AtomicBool,
    /// The live connections by id; each removes itself once both its
    /// threads are done.
    conns: Mutex<BTreeMap<u64, Arc<Conn>>>,
    /// Signalled whenever a connection leaves `conns`, and at the stop.
    conn_closed: Condvar,
    /// The stall watchdog: its component names and stall counter feed
    /// every export and incident dump.
    watchdog: Watchdog,
    /// Dumps already written this process (part of the dump filename, so
    /// a SIGTERM dump never overwrites a panic dump).
    incident_seq: AtomicU64,
}

impl Shared {
    /// Flip the daemon into shutdown: refuse new work, close the dtype
    /// queues (what is queued still runs), lift the test hold, and shut
    /// down the read side of every live socket so its reader sees EOF.
    fn request_stop(&self) {
        self.f64.queue.close();
        self.f32.queue.close();
        self.gate.hold(false);
        let conns = self.conns.lock().expect("connection registry poisoned");
        // ORDERING: Release pairs with the Acquire loads in `is_stopping`:
        // a thread that observes `stop == true` also observes everything
        // the stopping thread did before. Stored under the registry lock,
        // so the acceptor, which checks the flag under the same lock,
        // either sees it or registered its connection in time for the
        // sweep below, and `wait` cannot miss the notification.
        self.stop.store(true, Ordering::Release);
        for conn in conns.values() {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        self.conn_closed.notify_all();
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
            ("fmm_engine_f64_", self.f64.engine.stats()),
            ("fmm_engine_f32_", self.f32.engine.stats()),
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
        stats.counters.insert("fmm_watchdog_stalls_total".into(), self.watchdog.stalls_total());
        stats.counters.insert("fmm_audit_samples_total".into(), fmm_obs::audit::samples_recorded());
        stats.counters.insert("fmm_audit_dropped_total".into(), fmm_obs::audit::samples_dropped());
        stats.gauges.insert("fmm_serve_queue_depth_f64".into(), self.f64.queue.depth() as i64);
        stats.gauges.insert("fmm_serve_queue_depth_f32".into(), self.f32.queue.depth() as i64);
        stats.audit.sort_by_cached_key(fmm_obs::AuditEntry::key);
        stats
    }

    /// The incident document [`ServerHandle::incident`] returns and
    /// SIGTERM/SIGINT and panic dumps write to
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
            ("batch_max", c.batch.max_batch as u64),
            ("watchdog_stall_millis", c.watchdog_stall.as_millis() as u64),
            ("slow_threshold_millis", SLOW_THRESHOLD.as_millis() as u64),
        ];
        Incident {
            trigger: trigger.to_string(),
            build: BuildInfo::current(),
            config: ConfigPrint {
                addr: c.addr.clone(),
                knobs: knobs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            },
            watchdog: WatchdogRoster {
                components: self.watchdog.component_names(),
                stalls_total: self.watchdog.stalls_total(),
            },
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
    /// The SIGTERM/SIGINT monitor, when incident dumps go to disk.
    monitor: Option<JoinHandle<()>>,
    watchdog_handle: WatchdogHandle,
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

        let watchdog = Watchdog::new(WatchdogConfig {
            stall_after: config.watchdog_stall,
            ..WatchdogConfig::default()
        });

        let capacity = config.queue_capacity;
        let shared = Arc::new(Shared {
            f64: Executor::new("executor-f64", engine_f64, capacity, &watchdog),
            f32: Executor::new("executor-f32", engine_f32, capacity, &watchdog),
            gate: Gate::default(),
            metrics: Arc::new(Metrics::default()),
            pools: IngestPools::new(POOL_RETAIN, POOL_RETAIN_BYTES),
            stop: AtomicBool::new(false),
            conns: Mutex::new(BTreeMap::new()),
            conn_closed: Condvar::new(),
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
        let watchdog_handle = shared.watchdog.spawn();
        let monitor =
            shared.config.incident_dir.is_some().then(|| install_incident_capture(&shared));
        Ok(ServerHandle { addr, shared, acceptor, monitor, watchdog_handle })
    }
}

/// Wire up capture-to-disk incident paths: a panic hook (any daemon
/// thread) and a SIGTERM/SIGINT monitor thread that dumps and then
/// requests a clean stop, so `kill <pid>` on a loaded daemon leaves a
/// post-mortem behind *and* exits 0 after draining.
fn install_incident_capture(shared: &Arc<Shared>) -> JoinHandle<()> {
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
    thread::Builder::new()
        .name("fmm-serve-incident".into())
        .spawn(move || loop {
            if let Some(trigger) = incident::pending_signal(signals) {
                record_incident(trigger);
                shared.write_incident(trigger.name());
                // Dump first, then drain: the signal asks for termination,
                // and a clean stop is the best honor.
                shared.request_stop();
                return;
            }
            if shared.is_stopping() {
                return;
            }
            thread::sleep(Duration::from_millis(25));
        })
        .expect("spawn incident monitor")
}

/// Build one dtype engine per the serve configuration. Engines are always
/// parallel: the whole point of combining is handing coalesced batches to
/// `multiply_batch`'s worker fan-out (a 1-thread rayon pool degrades
/// gracefully to in-place execution).
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
        (self.shared.f64.engine.stats(), self.shared.f32.engine.stats())
    }

    /// Test seam: the gate every combiner passes after it claims its
    /// dtype's executor bit and before it drains. While [`Gate::hold`] is
    /// on, combiners park there and admitted requests stay queued and in
    /// flight; a stop lifts the hold.
    #[doc(hidden)]
    pub fn gate(&self) -> &Gate {
        &self.shared.gate
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
        let mut conns = self.shared.conns.lock().expect("connection registry poisoned");
        while !self.shared.is_stopping() {
            conns = self.shared.conn_closed.wait(conns).expect("connection registry poisoned");
        }
        drop(conns);
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
        if let Some(monitor) = self.monitor {
            let _ = monitor.join();
        }
        self.watchdog_handle.stop();
    }

    /// The incident document a dump would write right now, with trigger
    /// `on-demand` — the seam tests use to inspect dumps without signals.
    pub fn incident(&self) -> Incident {
        self.shared.incident("on-demand")
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
/// combiners completing its requests, and the server's registry.
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
    /// takes it around each reply it writes, the reader around each reply
    /// it writes after combining or answering a control frame.
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

    /// Queue one small reply frame (dropped if the connection is dead) and
    /// write it on the calling reader, as a lone result is written
    /// ([`Conn::write_owed`]): the writer is woken only for what the
    /// socket would not take.
    fn reply(&self, request_id: u64, kind: FrameKind, payload: &[u8]) {
        let mut bytes = protocol::encode_header(kind, payload.len() as u32, request_id);
        bytes.extend_from_slice(payload);
        let mut state = self.lock();
        if !state.dead {
            state.backlog += bytes.len();
            state.replies.push_back(Reply::Frame(bytes));
        }
        drop(state);
        self.write_owed();
    }

    /// Block while the queued reply backlog exceeds `cap`. `false` once the
    /// connection is dead.
    fn wait_for_room(&self, cap: usize) -> bool {
        let room = self.changed.wait_while(self.lock(), |s| s.backlog > cap && !s.dead);
        !room.expect("connection state poisoned").dead
    }

    /// Release the write claim after a write's outcome `sent`: what the
    /// socket would not take goes back to the front of the queue, and a
    /// failed write kills the connection. Wakes the writer if replies are
    /// queued. Returns whether the connection is still alive.
    fn end_write(&self, sent: io::Result<Option<Vec<u8>>>) -> bool {
        let mut state = self.lock();
        state.writing = false;
        let Ok(rest) = sent else {
            drop(state);
            self.kill();
            return false;
        };
        if let Some(rest) = rest.filter(|_| !state.dead) {
            state.backlog += rest.len();
            state.replies.push_front(Reply::Frame(rest));
        }
        let wake = !state.replies.is_empty();
        drop(state);
        if wake {
            self.changed.notify_all();
        }
        true
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
            if let Some(reply) = claim_reply(&mut state) {
                self.changed.notify_all();
                return Some(reply);
            }
            let owed = state.in_flight > 0 || !state.replies.is_empty();
            if state.dead || state.reading_done && !owed {
                return None;
            }
            state = self.changed.wait(state).expect("connection state poisoned");
        }
    }

    /// Write the queued replies on the calling reader after its combining
    /// turn or a control reply, if the write claim is free, without
    /// blocking: each send asks the socket to take what it can at once
    /// ([`NoWait`]) and leaves the descriptor blocking, and what it will
    /// not take is left to the writer. A reader blocked writing to a peer
    /// that is blocked sending to it would stall both. Each reply's result buffer is back in its
    /// pool when this returns, before the reader reads the next frame.
    fn write_owed(&self) {
        let Some(mut reply) = claim_reply(&mut self.lock()) else { return };
        let sent = loop {
            match send(NoWait(&self.stream), reply) {
                Ok(None) => {}
                unsent => break unsent,
            }
            match pop_reply(&mut self.lock()) {
                Some(next) => reply = next,
                None => break Ok(None),
            }
        };
        self.end_write(sent);
    }

    /// Wake the writer if replies are queued.
    fn hand_off(&self) {
        if !self.lock().replies.is_empty() {
            self.changed.notify_all();
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

    /// Queue a finished request's reply without waking the writer: the
    /// reader that ran it writes it after its turn ([`Conn::write_owed`]),
    /// or hands it off before its next batch ([`Conn::hand_off`]).
    /// Dropped if the connection died mid-flight (the buffer returns to
    /// its pool).
    fn stash(&self, completion: Completion) {
        let mut state = self.lock();
        if let Some(head) = self.retire(&mut state, &completion) {
            // The promise materializes as queued backlog.
            let reply = Reply::Result { head, body: completion.result };
            state.backlog += reply.len();
            state.replies.push_back(reply);
        }
    }
}

/// Take the next queued reply with the write claim, if the claim is free
/// and the connection alive.
fn claim_reply(state: &mut ConnState) -> Option<Reply> {
    if state.writing || state.dead {
        return None;
    }
    let reply = pop_reply(state)?;
    state.writing = true;
    Some(reply)
}

/// Take the next queued reply, for the holder of the write claim.
fn pop_reply(state: &mut ConnState) -> Option<Reply> {
    let reply = state.replies.pop_front()?;
    // Released before the write: once the peer can read the reply, it may
    // already be sending a request that counts the backlog against its
    // admission.
    state.backlog -= reply.len();
    Some(reply)
}

impl CompletionSink for Conn {
    /// Frame a finished request as header ‖ prelude plus the pooled result
    /// buffer and queue it for the writer.
    fn complete(&self, completion: Completion) {
        self.stash(completion);
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
    let mut inbound = BufReader::with_capacity(conn::HEAD_BUF, &conn.stream);
    // Requests admitted, and the dtypes (`Dtype` bits) whose queues this
    // reader pushed to since it last combined.
    let (mut requests, mut pushed) = (0, 0);
    loop {
        // Pushed jobs are combined before a read that may block; while the
        // whole next frame is already here, they wait to share its batch.
        if pushed != 0
            && !(conn::frame_buffered(&inbound)
                && conn.lock().backlog <= config.max_conn_backlog_bytes)
        {
            combine(shared, conn, pushed);
            pushed = 0;
        }
        if !conn.wait_for_room(config.max_conn_backlog_bytes) {
            break;
        }
        match read_event(&mut inbound, config.max_payload_bytes, &shared.pools) {
            Ok(Some(event)) => {
                if !handle_event(shared, conn, event, &mut requests, &mut pushed) {
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
    if pushed != 0 {
        combine(shared, conn, pushed);
    }
    conn.finish_reading();
    requests
}

/// Combine on the queues of the dtypes `pushed` names (see the module
/// docs), then write this connection's own replies.
fn combine(shared: &Shared, conn: &Arc<Conn>, pushed: u8) {
    if pushed & Dtype::F64 as u8 != 0 {
        run_batches(shared, &shared.f64, &shared.pools.f64, conn);
    }
    if pushed & Dtype::F32 as u8 != 0 {
        run_batches(shared, &shared.f32, &shared.pools.f32, conn);
    }
    conn.write_owed();
}

/// Run `executor`'s batches on this reader if it wins the executor bit.
/// Its own connection's replies are stashed for it to write after the
/// turn, or for its writer once more batches follow; every other one goes
/// to its connection's writer.
fn run_batches<T: GemmScalar>(
    shared: &Shared,
    executor: &Executor<T>,
    pool: &BufferPool<T>,
    conn: &Arc<Conn>,
) where
    WireBuf: From<PooledBuf<T>>,
{
    let runner = BatchRunner {
        engine: &executor.engine,
        pool,
        metrics: &shared.metrics,
        conn: conn.id,
        slow_threshold: SLOW_THRESHOLD,
    };
    let deliver = |sink: &Arc<dyn CompletionSink>, completion| {
        if std::ptr::addr_eq(Arc::as_ptr(sink), Arc::as_ptr(conn)) {
            conn.stash(completion);
        } else {
            sink.complete(completion);
        }
    };
    let max_batch = shared.config.batch.max_batch;
    dispatch::combine(&executor.queue, &shared.gate, &runner, max_batch, deliver, || {
        conn.hand_off();
    });
}

/// A connection's writer thread: write queued replies until none are owed,
/// then close the socket so the peer sees EOF.
fn write_replies(conn: &Conn) {
    while let Some(reply) = conn.next_reply() {
        if !conn.end_write(send(&conn.stream, reply)) {
            return;
        }
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Write one reply — a frame whole, a response as its head and the result
/// straight from its pooled buffer — in one vectored write, and return the
/// result buffer to its pool. Returns, on a socket that would block, the
/// bytes not written, copied out of any pooled buffer.
///
/// The buffer goes back only after its last byte is written. A reader
/// writing its own lone request's reply reads nothing before that, so the
/// peer's next request finds the buffer idle; on the writer thread the
/// peer may read the reply and send again first, and that request may
/// take a new buffer.
fn send(mut w: impl Write, reply: Reply) -> io::Result<Option<Vec<u8>>> {
    match reply {
        Reply::Frame(bytes) => write_rest(&mut w, [&bytes]),
        Reply::Result { head, body } => write_rest(&mut w, [&head, body.bytes()]),
    }
}

/// Write `parts` in order until all of them are written or the socket
/// would block; then return the bytes not written.
fn write_rest<const N: usize>(
    w: &mut impl Write,
    parts: [&[u8]; N],
) -> io::Result<Option<Vec<u8>>> {
    let mut slices = parts.map(IoSlice::new);
    let mut left = &mut slices[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return Ok(Some(left.iter().flat_map(|s| s.iter().copied()).collect()));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Act on one decoded inbound frame. Returns `false` when the connection
/// must stop reading: a fatal framing error was answered, or shutdown was
/// acknowledged.
fn handle_event(
    shared: &Shared,
    conn: &Arc<Conn>,
    event: InEvent,
    requests: &mut u64,
    pushed: &mut u8,
) -> bool {
    match event {
        InEvent::Request { head, dims, operands } => {
            trace::mark(Kind::RequestRecv, head.request_id);
            let dtype = dims.dtype;
            if admit_request(shared, conn, head.request_id, dims, operands) {
                *requests += 1;
                *pushed |= dtype as u8;
            }
        }
        InEvent::Ping { head, payload } => {
            shared.metrics.pings.inc();
            conn.reply(head.request_id, FrameKind::Pong, &payload);
        }
        InEvent::StatsJson { head } => {
            let body = shared.snapshot().to_json();
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
/// Refusals answer with a typed error frame. An admitted request is pushed
/// onto its dtype's queue, its completion coming back to `conn`. Returns
/// whether it was admitted.
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
    let (m, k, n, sink, enqueued) = (dims.m, dims.k, dims.n, conn.clone(), Instant::now());
    let pushed = match operands {
        OperandStage::F64 { a, b } => {
            shared.f64.queue.try_push(Job { a, b, m, k, n, request_id, sink, enqueued })
        }
        OperandStage::F32 { a, b } => {
            shared.f32.queue.try_push(Job { a, b, m, k, n, request_id, sink, enqueued })
        }
    };
    // Charged under the lock the push happened under: the combiner that
    // runs the job retires it under the same lock, after this.
    if pushed.is_ok() {
        state.in_flight += 1;
        state.promised += response_bytes;
        shared.metrics.inflight.add(1);
        shared.metrics.requests.inc();
        shared.metrics.record_conn_inflight(state.in_flight as u64);
    }
    drop(state);
    match pushed {
        Ok(()) => {
            trace::mark(Kind::Admission, request_id);
            true
        }
        Err(Refusal::Full) => {
            let capacity = config.queue_capacity;
            let message = format!("pending queue is full ({capacity} requests)");
            refuse(ErrorCode::Busy, RefusalReason::QueueFull, &message)
        }
        // Not Busy: nothing about this daemon will ever accept the retry a
        // Busy signal invites.
        Err(Refusal::Closed) => refuse(
            ErrorCode::ShuttingDown,
            RefusalReason::ShuttingDown,
            "daemon is shutting down and accepts no new work",
        ),
    }
}

/// Record that an incident dump is being written.
fn record_incident(trigger: IncidentTrigger) {
    trace::record(Event::now(Kind::Incident, 0).with_args([trigger as u64, 0, 0]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn a_readers_write_to_a_full_socket_queues_the_rest_and_leaves_it_blocking() {
        // A peer that never reads, and a reply larger than the socket
        // buffers of both ends.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let conn = Conn {
            id: 0,
            stream,
            metrics: Arc::new(Metrics::default()),
            state: Mutex::new(ConnState::default()),
            changed: Condvar::new(),
        };
        const REPLY: usize = 32 << 20;
        {
            let mut state = conn.lock();
            state.backlog = REPLY;
            state.replies.push_back(Reply::Frame(vec![7; REPLY]));
        }

        // The write returns with what the socket would not take queued for
        // the writer, and the write claim released.
        conn.write_owed();
        let state = conn.lock();
        assert!(!state.writing && !state.dead);
        assert_eq!(state.replies.len(), 1);
        let rest = state.replies.front().map_or(0, Reply::len);
        assert!(0 < rest && rest < REPLY, "{rest} of {REPLY} bytes left");
        assert_eq!(state.backlog, rest);
        drop(state);

        // The descriptor is still blocking: a read with a timeout waits
        // it out instead of failing with `WouldBlock` at once.
        let timeout = Duration::from_millis(50);
        conn.stream.set_read_timeout(Some(timeout)).expect("read timeout");
        let started = Instant::now();
        let read = (&conn.stream).read(&mut [0; 16]);
        let waited = started.elapsed();
        assert!(read.is_err(), "the peer sent nothing, yet the read returned {read:?}");
        assert!(waited >= timeout - Duration::from_millis(5), "read returned after {waited:?}");
    }
}
