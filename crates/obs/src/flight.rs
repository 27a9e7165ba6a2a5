//! Always-on flight recorder: the last N notable serving events.
//!
//! Steady-state observability (counters, histograms, spans) answers
//! "how is the daemon doing"; the flight recorder answers "what was it
//! doing *just before* it wedged, panicked, or got killed". It is a
//! fixed-capacity, process-global, overwrite-oldest ring of typed
//! [`FlightEvent`]s — connection lifecycle, admission refusals, error
//! frames, slow requests with their dominant phase, dispatcher batch
//! formation, engine routing fallbacks, and watchdog verdicts — each
//! stamped with a monotonic-nanosecond timestamp and a global sequence
//! number so the interleaving across threads is reconstructible after
//! the fact.
//!
//! The warm [`record`] path is lock-free and allocation-free under
//! `fmm-check`'s `contract(warm-alloc-free)`: the slot array is
//! allocated exactly once at first use (counted by
//! [`ring_allocations`] so tests can prove the steady state allocates
//! nothing), a writer claims a slot with one relaxed `fetch_add` on the
//! global sequence counter, and every field store is a plain atomic.
//! Slots follow a seqlock-lite protocol — payload first, sequence word
//! last with `Release`; [`snapshot`] re-checks the sequence word around
//! its reads and drops torn slots. A reader can still, in principle,
//! observe a consistent-looking slot whose payload mixes two writers
//! that lapped each other by exactly the ring capacity mid-write; the
//! recorder is diagnostic, so that vanishingly rare corruption is
//! accepted in exchange for a wait-free writer.
//!
//! The ring is always on: there is no enable switch to forget before an
//! incident, and the recording cost (a handful of relaxed stores) is
//! small enough to leave on under full load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Capacity of the global event ring (power of two — slot index is
/// `seq & (FLIGHT_CAPACITY - 1)`).
pub const FLIGHT_CAPACITY: usize = 1024;

/// Why admission control refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefusalReason {
    /// Per-connection in-flight cap reached.
    InflightCap,
    /// Per-connection response-byte backlog cap reached.
    ByteBacklog,
    /// Dispatch queue full.
    QueueFull,
    /// Server shutting down.
    ShuttingDown,
}

impl RefusalReason {
    pub fn name(self) -> &'static str {
        match self {
            RefusalReason::InflightCap => "inflight-cap",
            RefusalReason::ByteBacklog => "byte-backlog",
            RefusalReason::QueueFull => "queue-full",
            RefusalReason::ShuttingDown => "shutting-down",
        }
    }

    fn id(self) -> u64 {
        match self {
            RefusalReason::InflightCap => 1,
            RefusalReason::ByteBacklog => 2,
            RefusalReason::QueueFull => 3,
            RefusalReason::ShuttingDown => 4,
        }
    }

    fn from_id(id: u64) -> Option<RefusalReason> {
        match id {
            1 => Some(RefusalReason::InflightCap),
            2 => Some(RefusalReason::ByteBacklog),
            3 => Some(RefusalReason::QueueFull),
            4 => Some(RefusalReason::ShuttingDown),
            _ => None,
        }
    }
}

/// Which phase dominated a slow request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowPhase {
    /// Waiting in the dispatch queue.
    QueueWait,
    /// Executing the multiply.
    Execute,
    /// Everything else (decode, admission, reply I/O).
    Serve,
}

impl SlowPhase {
    pub fn name(self) -> &'static str {
        match self {
            SlowPhase::QueueWait => "queue-wait",
            SlowPhase::Execute => "execute",
            SlowPhase::Serve => "serve",
        }
    }

    fn id(self) -> u64 {
        match self {
            SlowPhase::QueueWait => 1,
            SlowPhase::Execute => 2,
            SlowPhase::Serve => 3,
        }
    }

    fn from_id(id: u64) -> Option<SlowPhase> {
        match id {
            1 => Some(SlowPhase::QueueWait),
            2 => Some(SlowPhase::Execute),
            3 => Some(SlowPhase::Serve),
            _ => None,
        }
    }
}

/// Why the engine fell back instead of serving its routed decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// Operator-pinned plan not present in the plan registry.
    PinnedMiss,
}

impl FallbackReason {
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::PinnedMiss => "pinned-miss",
        }
    }

    fn id(self) -> u64 {
        match self {
            FallbackReason::PinnedMiss => 1,
        }
    }

    fn from_id(id: u64) -> Option<FallbackReason> {
        match id {
            1 => Some(FallbackReason::PinnedMiss),
            _ => None,
        }
    }
}

/// What triggered an incident dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentTrigger {
    Sigterm,
    Sigint,
    Panic,
    WatchdogAbort,
    WireRequest,
}

impl IncidentTrigger {
    pub fn name(self) -> &'static str {
        match self {
            IncidentTrigger::Sigterm => "sigterm",
            IncidentTrigger::Sigint => "sigint",
            IncidentTrigger::Panic => "panic",
            IncidentTrigger::WatchdogAbort => "watchdog-abort",
            IncidentTrigger::WireRequest => "wire-request",
        }
    }

    fn id(self) -> u64 {
        match self {
            IncidentTrigger::Sigterm => 1,
            IncidentTrigger::Sigint => 2,
            IncidentTrigger::Panic => 3,
            IncidentTrigger::WatchdogAbort => 4,
            IncidentTrigger::WireRequest => 5,
        }
    }

    fn from_id(id: u64) -> Option<IncidentTrigger> {
        match id {
            1 => Some(IncidentTrigger::Sigterm),
            2 => Some(IncidentTrigger::Sigint),
            3 => Some(IncidentTrigger::Panic),
            4 => Some(IncidentTrigger::WatchdogAbort),
            5 => Some(IncidentTrigger::WireRequest),
            _ => None,
        }
    }
}

/// One notable serving event. Every variant packs into four `u64`
/// payload words plus a kind tag, so recording is a fixed number of
/// atomic stores regardless of variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEvent {
    /// A connection was accepted and installed on an event loop.
    ConnAccepted { conn: u64, loop_index: u64 },
    /// A connection closed; `requests` is its lifetime request count.
    ConnClosed { conn: u64, requests: u64 },
    /// Admission control refused a request on `conn`.
    AdmissionRefused { conn: u64, reason: RefusalReason },
    /// An error frame was sent on `conn` (`code` is the wire ErrorCode).
    ErrorSent { conn: u64, code: u64 },
    /// A request exceeded the slow threshold; `phase` dominated.
    SlowRequest { request_id: u64, total_nanos: u64, phase: SlowPhase, phase_nanos: u64 },
    /// A dispatcher formed a batch (`depth` = queue depth after).
    BatchFormed { dispatcher: u64, batch: u64, depth: u64 },
    /// The engine served a fallback decision instead of its routing.
    EngineFallback { reason: FallbackReason, m: u64, k: u64, n: u64 },
    /// The watchdog judged a component stalled (`level` escalates).
    WatchdogStall { component: u64, stalled_nanos: u64, level: u64 },
    /// A previously stalled component resumed making progress.
    WatchdogRecovered { component: u64, stalled_nanos: u64 },
    /// An incident dump was produced.
    Incident { trigger: IncidentTrigger },
}

impl FlightEvent {
    pub fn kind_name(&self) -> &'static str {
        match self {
            FlightEvent::ConnAccepted { .. } => "conn-accepted",
            FlightEvent::ConnClosed { .. } => "conn-closed",
            FlightEvent::AdmissionRefused { .. } => "admission-refused",
            FlightEvent::ErrorSent { .. } => "error-sent",
            FlightEvent::SlowRequest { .. } => "slow-request",
            FlightEvent::BatchFormed { .. } => "batch-formed",
            FlightEvent::EngineFallback { .. } => "engine-fallback",
            FlightEvent::WatchdogStall { .. } => "watchdog-stall",
            FlightEvent::WatchdogRecovered { .. } => "watchdog-recovered",
            FlightEvent::Incident { .. } => "incident",
        }
    }

    /// Pack into `(kind, a, b, c, d)` words for the ring / JSON export.
    // fmm-check: contract(warm-alloc-free)
    pub fn encode(&self) -> (u64, u64, u64, u64, u64) {
        match *self {
            FlightEvent::ConnAccepted { conn, loop_index } => (1, conn, loop_index, 0, 0),
            FlightEvent::ConnClosed { conn, requests } => (2, conn, requests, 0, 0),
            FlightEvent::AdmissionRefused { conn, reason } => (3, conn, reason.id(), 0, 0),
            FlightEvent::ErrorSent { conn, code } => (4, conn, code, 0, 0),
            FlightEvent::SlowRequest { request_id, total_nanos, phase, phase_nanos } => {
                (5, request_id, total_nanos, phase.id(), phase_nanos)
            }
            FlightEvent::BatchFormed { dispatcher, batch, depth } => {
                (6, dispatcher, batch, depth, 0)
            }
            FlightEvent::EngineFallback { reason, m, k, n } => (7, reason.id(), m, k, n),
            FlightEvent::WatchdogStall { component, stalled_nanos, level } => {
                (8, component, stalled_nanos, level, 0)
            }
            FlightEvent::WatchdogRecovered { component, stalled_nanos } => {
                (9, component, stalled_nanos, 0, 0)
            }
            FlightEvent::Incident { trigger } => (10, trigger.id(), 0, 0, 0),
        }
    }

    /// Inverse of [`encode`](FlightEvent::encode). `None` for unknown
    /// kinds or enum ids — torn slots and newer-schema dumps decode to
    /// nothing rather than to garbage.
    pub fn decode(kind: u64, a: u64, b: u64, c: u64, d: u64) -> Option<FlightEvent> {
        Some(match kind {
            1 => FlightEvent::ConnAccepted { conn: a, loop_index: b },
            2 => FlightEvent::ConnClosed { conn: a, requests: b },
            3 => FlightEvent::AdmissionRefused { conn: a, reason: RefusalReason::from_id(b)? },
            4 => FlightEvent::ErrorSent { conn: a, code: b },
            5 => FlightEvent::SlowRequest {
                request_id: a,
                total_nanos: b,
                phase: SlowPhase::from_id(c)?,
                phase_nanos: d,
            },
            6 => FlightEvent::BatchFormed { dispatcher: a, batch: b, depth: c },
            7 => FlightEvent::EngineFallback {
                reason: FallbackReason::from_id(a)?,
                m: b,
                k: c,
                n: d,
            },
            8 => FlightEvent::WatchdogStall { component: a, stalled_nanos: b, level: c },
            9 => FlightEvent::WatchdogRecovered { component: a, stalled_nanos: b },
            10 => FlightEvent::Incident { trigger: IncidentTrigger::from_id(a)? },
            _ => return None,
        })
    }

    /// Human-readable one-liner for timelines. Cold path; allocates.
    pub fn describe(&self) -> String {
        match *self {
            FlightEvent::ConnAccepted { conn, loop_index } => {
                format!("conn #{conn} accepted on loop {loop_index}")
            }
            FlightEvent::ConnClosed { conn, requests } => {
                format!("conn #{conn} closed after {requests} requests")
            }
            FlightEvent::AdmissionRefused { conn, reason } => {
                format!("conn #{conn} refused: {}", reason.name())
            }
            FlightEvent::ErrorSent { conn, code } => {
                format!("error frame (code {code}) sent on conn #{conn}")
            }
            FlightEvent::SlowRequest { request_id, total_nanos, phase, phase_nanos } => format!(
                "slow request #{request_id}: {:.3} ms total, {:.3} ms in {}",
                total_nanos as f64 / 1e6,
                phase_nanos as f64 / 1e6,
                phase.name()
            ),
            FlightEvent::BatchFormed { dispatcher, batch, depth } => {
                format!("dispatcher {dispatcher} formed batch of {batch} (depth {depth} after)")
            }
            FlightEvent::EngineFallback { reason, m, k, n } => {
                format!("engine fallback ({}) for {m}x{k}x{n}", reason.name())
            }
            FlightEvent::WatchdogStall { component, stalled_nanos, level } => format!(
                "watchdog: component {component} stalled {:.0} ms (level {level})",
                stalled_nanos as f64 / 1e6
            ),
            FlightEvent::WatchdogRecovered { component, stalled_nanos } => format!(
                "watchdog: component {component} recovered after {:.0} ms",
                stalled_nanos as f64 / 1e6
            ),
            FlightEvent::Incident { trigger } => {
                format!("incident dump triggered by {}", trigger.name())
            }
        }
    }
}

/// One entry read back out of the ring.
#[derive(Clone, Copy, Debug)]
pub struct FlightRecord {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Monotonic nanos since the process trace epoch.
    pub nanos: u64,
    pub event: FlightEvent,
}

struct FlightSlot {
    /// `seq + 1` of the resident event; 0 = never written. Written
    /// last, re-checked by readers.
    stamp: AtomicU64,
    nanos: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
    d: AtomicU64,
}

impl FlightSlot {
    fn new() -> FlightSlot {
        FlightSlot {
            stamp: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
            d: AtomicU64::new(0),
        }
    }
}

static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);
static RING_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The one-time ring. Like the audit table, the single allocation is
/// counted so tests can prove the warm path never repeats it.
// fmm-check: contract(warm-alloc-free)
fn ring() -> &'static [FlightSlot] {
    static RING: OnceLock<Box<[FlightSlot]>> = OnceLock::new();
    RING.get_or_init(|| {
        RING_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // fmm-check: allow(deny-alloc, reason = "one-time flight-ring allocation at first use; warm records overwrite slots in place")
        (0..FLIGHT_CAPACITY).map(|_| FlightSlot::new()).collect::<Vec<_>>().into_boxed_slice()
    })
}

/// Record one event into the ring. Wait-free: one relaxed `fetch_add`
/// to claim a slot, six plain stores to fill it. Never blocks, never
/// allocates after the one-time ring creation, always succeeds (the
/// oldest event is overwritten).
// fmm-check: contract(warm-alloc-free)
pub fn record(event: FlightEvent) -> u64 {
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let slot = &ring()[(seq as usize) & (FLIGHT_CAPACITY - 1)];
    let (kind, a, b, c, d) = event.encode();
    // Invalidate the slot first so a concurrent snapshot never pairs
    // the old stamp with half-new payload words.
    slot.stamp.store(0, Ordering::Relaxed);
    slot.nanos.store(crate::trace::now_nanos(), Ordering::Relaxed);
    slot.kind.store(kind, Ordering::Relaxed);
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    slot.c.store(c, Ordering::Relaxed);
    slot.d.store(d, Ordering::Relaxed);
    // ORDERING: Release publishes the payload stores above; snapshot's
    // Acquire load of the stamp makes them visible before it reads the
    // payload words.
    slot.stamp.store(seq + 1, Ordering::Release);
    EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
    seq
}

/// Point-in-time copy of the ring, oldest-to-newest by sequence
/// number. Cold path: allocates, skips torn or never-written slots.
pub fn snapshot() -> Vec<FlightRecord> {
    let mut out = Vec::with_capacity(FLIGHT_CAPACITY);
    for slot in ring() {
        // ORDERING: Acquire pairs with the Release stamp store in
        // `record`, making the payload words of that write visible.
        let stamp = slot.stamp.load(Ordering::Acquire);
        if stamp == 0 {
            continue;
        }
        let nanos = slot.nanos.load(Ordering::Relaxed);
        let kind = slot.kind.load(Ordering::Relaxed);
        let a = slot.a.load(Ordering::Relaxed);
        let b = slot.b.load(Ordering::Relaxed);
        let c = slot.c.load(Ordering::Relaxed);
        let d = slot.d.load(Ordering::Relaxed);
        // ORDERING: Acquire re-check; a writer that raced us cleared
        // the stamp to 0 (or republished a different seq) before
        // touching the payload, so an unchanged stamp means the words
        // above belong together.
        if slot.stamp.load(Ordering::Acquire) != stamp {
            continue;
        }
        if let Some(event) = FlightEvent::decode(kind, a, b, c, d) {
            out.push(FlightRecord { seq: stamp - 1, nanos, event });
        }
    }
    out.sort_by_key(|r| r.seq);
    out
}

/// Events ever recorded, including overwritten ones.
pub fn events_recorded() -> u64 {
    EVENTS_RECORDED.load(Ordering::Relaxed)
}

/// How many times the ring has been allocated (0 or 1) — the
/// allocation-freedom proof counter for the counting-allocator test.
pub fn ring_allocations() -> u64 {
    RING_ALLOCATIONS.load(Ordering::Relaxed)
}

/// Reset every slot to empty (the sequence counter keeps running).
/// Test helper — production code never clears the recorder.
pub fn clear() {
    for slot in ring() {
        slot.stamp.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global, so every assertion lives in one
    // serialized test (same policy as the trace and audit tests),
    // locked against the watchdog test which also records into it.
    #[test]
    fn flight_recorder_end_to_end() {
        let _guard = crate::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        clear();
        let events = [
            FlightEvent::ConnAccepted { conn: 1, loop_index: 0 },
            FlightEvent::AdmissionRefused { conn: 1, reason: RefusalReason::QueueFull },
            FlightEvent::ErrorSent { conn: 1, code: 4 },
            FlightEvent::SlowRequest {
                request_id: 42,
                total_nanos: 7_000_000,
                phase: SlowPhase::QueueWait,
                phase_nanos: 5_000_000,
            },
            FlightEvent::BatchFormed { dispatcher: 0, batch: 8, depth: 3 },
            FlightEvent::EngineFallback {
                reason: FallbackReason::PinnedMiss,
                m: 256,
                k: 256,
                n: 256,
            },
            FlightEvent::WatchdogStall { component: 2, stalled_nanos: 250_000_000, level: 1 },
            FlightEvent::WatchdogRecovered { component: 2, stalled_nanos: 400_000_000 },
            FlightEvent::ConnClosed { conn: 1, requests: 17 },
            FlightEvent::Incident { trigger: IncidentTrigger::Sigterm },
        ];
        let first_seq = record(events[0]);
        for e in &events[1..] {
            record(*e);
        }
        assert_eq!(ring_allocations(), 1, "ring allocated exactly once");

        // Snapshot returns exactly what we wrote, in sequence order,
        // and every variant round-trips through encode/decode.
        let snap = snapshot();
        assert_eq!(snap.len(), events.len());
        for (rec, expected) in snap.iter().zip(events.iter()) {
            assert_eq!(rec.event, *expected);
            assert!(!rec.event.describe().is_empty());
            assert!(!rec.event.kind_name().is_empty());
        }
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq, "sequence numbers strictly increase");
            assert!(w[0].nanos <= w[1].nanos, "timestamps are monotone");
        }
        assert_eq!(snap[0].seq, first_seq);

        // Unknown kinds and ids decode to None, not garbage.
        assert_eq!(FlightEvent::decode(99, 0, 0, 0, 0), None);
        assert_eq!(FlightEvent::decode(3, 1, 99, 0, 0), None, "bad refusal id");
        assert_eq!(FlightEvent::decode(10, 99, 0, 0, 0), None, "bad trigger id");

        // Overwrite-oldest: flood the ring; only the newest
        // FLIGHT_CAPACITY survive and the warm path allocates nothing.
        let allocs = ring_allocations();
        let recorded_before = events_recorded();
        for i in 0..(2 * FLIGHT_CAPACITY as u64) {
            record(FlightEvent::BatchFormed { dispatcher: 9, batch: i, depth: 0 });
        }
        assert_eq!(ring_allocations(), allocs, "warm records must not allocate");
        assert_eq!(events_recorded(), recorded_before + 2 * FLIGHT_CAPACITY as u64);
        let snap = snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY, "ring is bounded");
        match snap.last().unwrap().event {
            FlightEvent::BatchFormed { batch, .. } => {
                assert_eq!(batch, 2 * FLIGHT_CAPACITY as u64 - 1)
            }
            other => panic!("unexpected tail event {other:?}"),
        }

        // Cross-thread: sequence numbers interleave without loss.
        clear();
        let base = events_recorded();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..50 {
                        record(FlightEvent::ConnAccepted { conn: t * 1000 + i, loop_index: t });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(events_recorded(), base + 200);
        let snap = snapshot();
        assert_eq!(snap.len(), 200);
        let mut seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 200, "every event got a distinct sequence number");
    }
}
