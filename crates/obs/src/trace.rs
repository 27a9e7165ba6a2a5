//! The event recorder: one typed [`Event`] for everything the stack says
//! about itself, kept on one lock-free ring primitive, [`Ring`].
//!
//! Two process-global rings hold the events:
//!
//! * the **always-on ring** ([`ALWAYS_ON_CAPACITY`] slots) keeps the
//!   notable kinds — connection lifecycle, admission refusals, error
//!   frames, batch formation, slow requests, pinned-routing misses,
//!   watchdog verdicts and incident triggers ([`Kind::always_on`]). There
//!   is no switch to forget before an incident, and the recording cost is
//!   a handful of relaxed stores;
//! * the **span ring** ([`SPAN_CAPACITY`] slots) keeps the per-request
//!   phase spans, and is written only while [`enabled`]. Spans therefore
//!   never push the notable history out of a traced daemon's dump.
//!
//! [`recent`] merges both by time for export. Timestamps are monotonic
//! nanoseconds since a process-wide epoch ([`now_nanos`]), so events from
//! different threads order correctly.
//!
//! The off switch is a single `AtomicBool`: when disabled, [`enabled`] is
//! one relaxed load and a branch, and every span site in the stack is
//! written as
//!
//! ```ignore
//! let t0 = trace::start();                           // 0 when disabled
//! ...work...
//! trace::finish(Kind::PlanCompose, request_id, t0);  // no-op on 0
//! ```
//!
//! so the disabled cost is two inlined load+branch pairs and no clock
//! reads or writes — [`events_recorded`] stays flat, which the unit tests
//! pin down.
//!
//! The rings live in statics, so recording never allocates, not even the
//! first time (`tests/recorder_alloc.rs` proves it with a counting
//! allocator, over every entry point, kind and thread count); export
//! paths (`recent`, `describe`, `chrome_trace`) are cold and may allocate.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Capacity of the always-on ring.
pub const ALWAYS_ON_CAPACITY: usize = 1024;

/// Capacity of the span ring.
pub const SPAN_CAPACITY: usize = 4096;

/// What an event records. The span kinds are the phases of a request's
/// journey through the stack, top to bottom; the rest are the notable
/// kinds the always-on ring keeps. The `args` layout is per kind; unlisted
/// args are 0. A kind's id is its discriminant.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Frame fully decoded off the socket (the connection's reader).
    RequestRecv,
    /// Admission control passed; job queued for its dtype's combiner.
    Admission,
    /// Time from admission until the job's batch started executing.
    QueueWait,
    /// A batch's formation, from the combiner's claim (or its previous
    /// batch) to execution start, tagged with the batch's first request.
    /// Always on. Args: the combining connection, batch size, queue depth
    /// after.
    BatchForm,
    /// Engine routing decision (model ranking / decision-cache miss).
    /// Args: predicted nanos of the winner, of GEMM, and of the runner-up
    /// (0 when no runner-up was ranked), as the model predicts them before
    /// the ranking's guard band. GEMM chosen over a runner-up predicted
    /// faster means the runner-up's margin fell inside the band.
    EngineDecision,
    /// Execution-plan composition for a cache-missed shape.
    PlanCompose,
    /// One scheduler task (submultiplication product).
    TaskExec,
    /// GEMM operand packing (`pack_a_sum` / `pack_b_sum`). Args: packed
    /// operand (0 = A, 1 = B), terms summed, source elements read.
    Pack,
    /// GEMM macro-kernel execution.
    Kernel,
    /// BFS merge phase (C-block accumulation).
    Merge,
    /// Response frame handed to the connection write queue, or about to
    /// be written by the reader that ran the request.
    ReplyFlush,
    /// A connection was accepted. Args: conn, 0.
    ConnAccepted,
    /// A connection closed. Args: conn, requests admitted over its life.
    ConnClosed,
    /// Admission control refused a request. Args: conn, [`RefusalReason`].
    AdmissionRefused,
    /// An error frame went out. Args: conn, wire error code.
    ErrorSent,
    /// A request's dispatch latency reached the slow threshold; the span
    /// runs from admission to completion. Args: queue-wait nanos, execute
    /// nanos.
    SlowRequest,
    /// Pinned routing named dims with no registered algorithm, so the
    /// engine served GEMM. Args: m, k, n.
    PinnedMiss,
    /// The watchdog judged a component stalled; the span is the stall so
    /// far. Args: component, escalation level.
    WatchdogStall,
    /// A stalled component made progress again; the span is the stall.
    /// Args: component.
    WatchdogRecovered,
    /// An incident dump is being written. Args: [`IncidentTrigger`].
    Incident,
    /// A kind this binary does not know, read from a newer binary's
    /// export. Never recorded.
    Other,
}

impl Kind {
    /// Every kind this binary records, in id order.
    pub const ALL: [Kind; 20] = [
        Kind::RequestRecv,
        Kind::Admission,
        Kind::QueueWait,
        Kind::BatchForm,
        Kind::EngineDecision,
        Kind::PlanCompose,
        Kind::TaskExec,
        Kind::Pack,
        Kind::Kernel,
        Kind::Merge,
        Kind::ReplyFlush,
        Kind::ConnAccepted,
        Kind::ConnClosed,
        Kind::AdmissionRefused,
        Kind::ErrorSent,
        Kind::SlowRequest,
        Kind::PinnedMiss,
        Kind::WatchdogStall,
        Kind::WatchdogRecovered,
        Kind::Incident,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RequestRecv => "RequestRecv",
            Kind::Admission => "Admission",
            Kind::QueueWait => "QueueWait",
            Kind::BatchForm => "BatchForm",
            Kind::EngineDecision => "EngineDecision",
            Kind::PlanCompose => "PlanCompose",
            Kind::TaskExec => "TaskExec",
            Kind::Pack => "Pack",
            Kind::Kernel => "Kernel",
            Kind::Merge => "Merge",
            Kind::ReplyFlush => "ReplyFlush",
            Kind::ConnAccepted => "ConnAccepted",
            Kind::ConnClosed => "ConnClosed",
            Kind::AdmissionRefused => "AdmissionRefused",
            Kind::ErrorSent => "ErrorSent",
            Kind::SlowRequest => "SlowRequest",
            Kind::PinnedMiss => "PinnedMiss",
            Kind::WatchdogStall => "WatchdogStall",
            Kind::WatchdogRecovered => "WatchdogRecovered",
            Kind::Incident => "Incident",
            Kind::Other => "Other",
        }
    }

    /// The kind named `name`; `None` for a name this binary does not know.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Recorded whether or not tracing is on, into the always-on ring.
    pub fn always_on(self) -> bool {
        self == Kind::BatchForm || self > Kind::ReplyFlush
    }
}

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
    const NAMES: [&'static str; 4] =
        ["inflight-cap", "byte-backlog", "queue-full", "shutting-down"];

    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// The name of the reason whose `as u64` is `id`.
    pub fn name_of(id: u64) -> &'static str {
        Self::NAMES.get(id as usize).map_or("unknown", |name| name)
    }
}

/// What triggered an incident dump. Number 3 named a watchdog abort, which
/// is gone; `WireRequest` keeps 4, so older dumps' events still name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentTrigger {
    Sigterm,
    Sigint,
    Panic,
    WireRequest = 4,
}

impl IncidentTrigger {
    const NAMES: [&'static str; 5] = ["sigterm", "sigint", "panic", "unknown", "wire-request"];

    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// The name of the trigger whose `as u64` is `id`.
    pub fn name_of(id: u64) -> &'static str {
        Self::NAMES.get(id as usize).map_or("unknown", |name| name)
    }
}

/// One recorded event. Every kind packs into the same seven words, so
/// recording is a fixed number of atomic stores whatever the kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub kind: Kind,
    /// The request the event belongs to; 0 = none.
    pub request_id: u64,
    /// Monotonic nanos since the process epoch; `start_nanos ==
    /// end_nanos` marks a point event.
    pub start_nanos: u64,
    pub end_nanos: u64,
    /// Kind-specific payload (see [`Kind`]).
    pub args: [u64; 3],
    /// Small per-thread ordinal of the recording thread, in order of each
    /// thread's first record.
    pub thread: u32,
}

impl Event {
    /// A `kind` event of `request_id` over `[start_nanos, end_nanos]`.
    pub fn span(kind: Kind, request_id: u64, start_nanos: u64, end_nanos: u64) -> Event {
        Event { kind, request_id, start_nanos, end_nanos, args: [0; 3], thread: 0 }
    }

    /// A point event of `kind` at the current time.
    pub fn now(kind: Kind, request_id: u64) -> Event {
        let t = now_nanos();
        Event::span(kind, request_id, t, t)
    }

    pub fn with_args(self, args: [u64; 3]) -> Event {
        Event { args, ..self }
    }

    /// The span's length in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }

    fn encode(&self) -> [u64; 7] {
        let [a, b, c] = self.args;
        let head = self.kind as u64 | u64::from(self.thread) << 32;
        [head, self.request_id, self.start_nanos, self.end_nanos, a, b, c]
    }

    fn decode([head, request_id, start_nanos, end_nanos, a, b, c]: [u64; 7]) -> Option<Event> {
        Some(Event {
            kind: *Kind::ALL.get((head & 0xff) as usize)?,
            request_id,
            start_nanos,
            end_nanos,
            args: [a, b, c],
            thread: (head >> 32) as u32,
        })
    }

    /// Human-readable one-liner for timelines and dumps.
    #[cold]
    pub fn describe(&self) -> String {
        let [a, b, c] = self.args;
        let ms = |nanos: u64| nanos as f64 / 1e6;
        match self.kind {
            Kind::BatchForm => format!("conn #{a} ran a batch of {b} (depth {c} after)"),
            Kind::ConnAccepted => format!("conn #{a} accepted"),
            Kind::ConnClosed => format!("conn #{a} closed after {b} requests"),
            Kind::AdmissionRefused => format!("conn #{a} refused: {}", RefusalReason::name_of(b)),
            Kind::ErrorSent => format!("error frame (code {b}) sent on conn #{a}"),
            Kind::SlowRequest => format!(
                "slow request #{}: {:.3} ms total, {:.3} ms queue-wait, {:.3} ms execute",
                self.request_id,
                ms(self.nanos()),
                ms(a),
                ms(b)
            ),
            Kind::PinnedMiss => format!("pinned plan missing for {a}x{b}x{c}: served GEMM"),
            Kind::WatchdogStall => {
                format!("watchdog: component {a} stalled {:.0} ms (level {b})", ms(self.nanos()))
            }
            Kind::WatchdogRecovered => {
                format!("watchdog: component {a} recovered after {:.0} ms", ms(self.nanos()))
            }
            Kind::Incident => format!("incident dump triggered by {}", IncidentTrigger::name_of(a)),
            Kind::Other => "an event of a kind this binary does not know".to_string(),
            Kind::EngineDecision => {
                // GEMM ranks first of equals, so a winner at GEMM's
                // prediction is GEMM.
                let of_gemm = |nanos: u64| nanos as f64 / b.max(1) as f64;
                let chose = if a == b {
                    "GEMM".to_string()
                } else {
                    format!("a fast algorithm at {:.2}x GEMM predicted", of_gemm(a))
                };
                let runner_up = match c {
                    0 => String::new(),
                    // Only the guard band can rank GEMM ahead of a
                    // candidate predicted faster.
                    c if a == b && c < b => format!(
                        "; the runner-up predicted {:.2}x GEMM, inside the guard band",
                        of_gemm(c)
                    ),
                    c => format!(", runner-up at {:.2}x", of_gemm(c)),
                };
                format!(
                    "EngineDecision of request {}: chose {chose}{runner_up}, {:.1} us",
                    self.request_id,
                    self.nanos() as f64 / 1e3
                )
            }
            Kind::Pack => format!(
                "Pack {} of request {}: {b} terms, {c} source elements, {:.1} us",
                if a == 0 { "A" } else { "B" },
                self.request_id,
                self.nanos() as f64 / 1e3
            ),
            span if self.nanos() == 0 => format!("{} of request {}", span.name(), self.request_id),
            span => format!(
                "{} of request {}: {:.1} us",
                span.name(),
                self.request_id,
                self.nanos() as f64 / 1e3
            ),
        }
    }
}

/// The stamp of a slot a writer holds.
const WRITING: u64 = u64::MAX;

/// One ring slot: a stamp and an encoded [`Event`], one cache line.
#[repr(align(64))]
struct Slot {
    /// `seq + 1` of the event published here; 0 = empty; [`WRITING`] =
    /// held by a writer.
    stamp: AtomicU64,
    words: [AtomicU64; 7],
}

impl Slot {
    const fn new() -> Slot {
        Slot { stamp: AtomicU64::new(0), words: [const { AtomicU64::new(0) }; 7] }
    }
}

/// A fixed-capacity, overwrite-oldest, lock-free ring of [`Event`]s.
/// `N` must be a power of two.
///
/// A writer claims a sequence number with one relaxed `fetch_add`, then
/// takes its slot by compare-and-swap of the stamp to `WRITING` — only
/// from a published or empty stamp older than its own. A writer that
/// finds the slot held, or newer, or loses the swap, drops its event and
/// bumps [`Ring::dropped`], so two writers that lap each other can never
/// mix their words. The winner fences, stores the payload, and publishes
/// `seq + 1` with `Release`. [`Ring::snapshot`] is the matching seqlock
/// reader: an `Acquire` stamp load, the payload, an `Acquire` fence, and a
/// re-check of the stamp; a slot that changed in between is skipped.
pub struct Ring<const N: usize> {
    slots: [Slot; N],
    next: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl<const N: usize> Default for Ring<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Ring<N> {
    pub const fn new() -> Ring<N> {
        assert!(N.is_power_of_two(), "ring capacity must be a power of two");
        Ring {
            slots: [const { Slot::new() }; N],
            next: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record `event`, overwriting the oldest. Lock-free and
    /// allocation-free; `false` if the event was dropped (see the type
    /// docs).
    pub fn push(&self, event: &Event) -> bool {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[seq as usize & (N - 1)];
        let held = slot.stamp.load(Ordering::Relaxed);
        interleave();
        // ORDERING: Acquire on the swap pairs with the previous writer's
        // Release publish, so its payload stores are ordered before ours.
        if held == WRITING
            || held > seq
            || slot
                .stamp
                .compare_exchange(held, WRITING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // ORDERING: orders the invalidation above before the payload
        // stores below: a reader that sees any new word also sees WRITING
        // (or a later stamp) on its re-check.
        fence(Ordering::Release);
        for (word, value) in slot.words.iter().zip(event.encode()) {
            word.store(value, Ordering::Relaxed);
            interleave();
        }
        // ORDERING: Release publishes the payload; pairs with the Acquire
        // stamp load in `snapshot` and the Acquire swap of the next writer.
        slot.stamp.store(seq + 1, Ordering::Release);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The events in the ring, oldest first. Skips empty slots, held
    /// slots, and slots republished while they were read.
    #[cold]
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(N);
        for slot in &self.slots {
            // ORDERING: pairs with the Release publish in `push`: the
            // payload of that event is visible to the loads below.
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == 0 || stamp == WRITING {
                continue;
            }
            let words = slot.words.each_ref().map(|w| w.load(Ordering::Relaxed));
            // ORDERING: pairs with the Release fence a writer issues after
            // taking the slot: if any word above is that writer's, the
            // re-check below sees its WRITING or a later stamp.
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Relaxed) != stamp {
                continue;
            }
            if let Some(event) = Event::decode(words) {
                out.push((stamp, event));
            }
        }
        out.sort_unstable_by_key(|&(stamp, _)| stamp);
        out.into_iter().map(|(_, event)| event).collect()
    }

    /// Events ever published, overwritten ones included.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events dropped because their slot was held or already newer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Empty every slot no writer holds (the counters keep running).
    pub fn clear(&self) {
        for slot in &self.slots {
            let held = slot.stamp.load(Ordering::Relaxed);
            if held != WRITING {
                let _ = slot.stamp.compare_exchange(held, 0, Ordering::Relaxed, Ordering::Relaxed);
            }
        }
    }
}

/// A scheduling point between the steps of [`Ring::push`]: the unit
/// tests yield there so that writers interleave mid-record; elsewhere it
/// compiles to nothing.
#[inline(always)]
fn interleave() {
    #[cfg(test)]
    std::thread::yield_now();
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALWAYS_ON: Ring<ALWAYS_ON_CAPACITY> = Ring::new();
static SPANS: Ring<SPAN_CAPACITY> = Ring::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
    static CURRENT_REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Flip the global tracing switch (the span ring; the always-on ring
/// records regardless).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is tracing on? One relaxed load; inlined at every call site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the process-wide epoch.
#[inline]
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Record `event`: an always-on kind into the always-on ring, a span kind
/// into the span ring while tracing is on. Stamps the recording thread.
pub fn record(mut event: Event) {
    let always_on = event.kind.always_on();
    if !always_on && !enabled() {
        return;
    }
    event.thread = THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    });
    if always_on {
        ALWAYS_ON.push(&event);
    } else {
        SPANS.push(&event);
    }
}

/// Open a span: the current timestamp when tracing is on, 0 when off.
#[inline(always)]
pub fn start() -> u64 {
    if enabled() {
        now_nanos().max(1)
    } else {
        0
    }
}

/// Close a span opened by [`start`]. A no-op for `start_nanos == 0`
/// (tracing was off at open time) or if tracing has since been turned
/// off, so toggling mid-span never records a torn span.
#[inline]
pub fn finish(kind: Kind, request_id: u64, start_nanos: u64) {
    finish_with_args(kind, request_id, start_nanos, [0; 3]);
}

/// [`finish`], recording the kind's `args`.
#[inline]
pub fn finish_with_args(kind: Kind, request_id: u64, start_nanos: u64, args: [u64; 3]) {
    if start_nanos != 0 && enabled() {
        record(Event::span(kind, request_id, start_nanos, now_nanos()).with_args(args));
    }
}

/// Record an instantaneous span (e.g. `ReplyFlush`) while tracing is on.
#[inline]
pub fn mark(kind: Kind, request_id: u64) {
    if enabled() {
        record(Event::now(kind, request_id));
    }
}

/// Tag this thread with the request id it is currently working for;
/// lower layers (gemm, sched) stamp their spans with it. Returns the
/// previous tag so callers can restore it.
#[inline]
pub fn set_current_request(id: u64) -> u64 {
    CURRENT_REQUEST.with(|c| c.replace(id))
}

/// The request id this thread is currently working for (0 = none).
#[inline]
pub fn current_request() -> u64 {
    CURRENT_REQUEST.with(|c| c.get())
}

/// Events ever published into either ring. Flat while tracing is off and
/// nothing notable happens.
pub fn events_recorded() -> u64 {
    ALWAYS_ON.recorded() + SPANS.recorded()
}

/// Events either ring dropped to a lapping writer.
pub fn events_dropped() -> u64 {
    ALWAYS_ON.dropped() + SPANS.dropped()
}

/// Both rings merged into one timeline ordered by end time. `limit == 0`
/// means everything retained; otherwise the most recent `limit` events.
#[cold]
pub fn recent(limit: usize) -> Vec<Event> {
    let mut all = ALWAYS_ON.snapshot();
    all.extend(SPANS.snapshot());
    all.sort_by_key(|e| (e.end_nanos, e.start_nanos));
    if limit > 0 && all.len() > limit {
        all.drain(..all.len() - limit);
    }
    all
}

/// Empty both rings. Test helper; production code never clears the
/// recorder.
pub fn clear() {
    ALWAYS_ON.clear();
    SPANS.clear();
}

/// Render events in the chrome://tracing "trace event" JSON format
/// (array form, complete `"X"` events, microsecond timestamps). Each
/// request id becomes a chrome thread so timelines group per request.
#[cold]
pub fn chrome_trace(events: &[Event]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"fmm\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"request_id\":{},\"thread\":{}}}}}",
            e.kind.name(),
            e.start_nanos as f64 / 1e3,
            e.nanos() as f64 / 1e3,
            e.request_id,
            e.request_id,
            e.thread
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The switch and both rings are process-global, so the tests that use
    // them hold the crate's test lock (the watchdog test records too).
    #[test]
    fn recorder_end_to_end() {
        let _guard = crate::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        clear();

        // Disabled: spans are not written and cost no clock read; the
        // always-on kinds still are.
        set_enabled(false);
        let before = events_recorded();
        let t0 = start();
        assert_eq!(t0, 0);
        finish(Kind::Kernel, 1, t0);
        mark(Kind::ReplyFlush, 1);
        record(Event::now(Kind::Pack, 1));
        assert_eq!(events_recorded(), before, "disabled tracing must not write spans");
        let accepted = Event::now(Kind::ConnAccepted, 0).with_args([1, 0, 0]);
        record(accepted);
        assert_eq!(events_recorded(), before + 1, "the always-on ring records regardless");

        // Enabled: spans land in the span ring, merged with the always-on
        // events by time.
        set_enabled(true);
        let t0 = start();
        assert!(t0 > 0);
        finish(Kind::QueueWait, 7, t0);
        mark(Kind::ReplyFlush, 7);
        let events = recent(0);
        let kinds: Vec<Kind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [Kind::ConnAccepted, Kind::QueueWait, Kind::ReplyFlush]);
        assert_eq!(events[0].args, accepted.args);
        assert_eq!(events[1].request_id, 7);
        assert!(events[1].start_nanos <= events[1].end_nanos);
        assert_eq!(events[2].nanos(), 0, "mark is a point event");
        assert_eq!(recent(2), events[1..], "limit keeps the newest");

        // Toggling off mid-span drops the span instead of tearing it.
        let t0 = start();
        set_enabled(false);
        let mid = events_recorded();
        finish(Kind::Kernel, 7, t0);
        assert_eq!(events_recorded(), mid);
        set_enabled(true);

        // Overwrite-oldest: flooding the span ring keeps only its newest
        // events and leaves the always-on history alone.
        clear();
        record(Event::now(Kind::ConnAccepted, 0));
        for i in 0..2 * SPAN_CAPACITY as u64 {
            mark(Kind::TaskExec, i);
        }
        let (notable, spans): (Vec<Event>, Vec<Event>) =
            recent(0).into_iter().partition(|e| e.kind.always_on());
        assert_eq!(notable.len(), 1, "a span flood must not evict always-on history");
        assert_eq!(spans.len(), SPAN_CAPACITY);
        assert_eq!(spans[0].request_id, SPAN_CAPACITY as u64);
        assert_eq!(spans.last().unwrap().request_id, 2 * SPAN_CAPACITY as u64 - 1);

        // Cross-thread: each thread gets its own ordinal, nothing is lost.
        clear();
        mark(Kind::RequestRecv, 101);
        std::thread::spawn(|| mark(Kind::TaskExec, 202)).join().unwrap();
        let events = recent(0);
        assert_eq!(events.iter().map(|e| e.request_id).collect::<Vec<_>>(), [101, 202]);
        assert_ne!(events[0].thread, events[1].thread);

        // Request tagging is per-thread and restores.
        let prev = set_current_request(55);
        assert_eq!(current_request(), 55);
        set_current_request(prev);
        assert_eq!(current_request(), prev);

        // Chrome export is well-formed for the simple shapes we emit.
        let json = chrome_trace(&events);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"RequestRecv\""));
        assert!(json.contains("\"request_id\":202"));

        set_enabled(false);
        clear();
    }

    // The always-on ring, which an incident dump reads with tracing off.
    #[test]
    fn always_on_ring_end_to_end() {
        let _guard = crate::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        // Every kind round-trips and describes itself; with tracing off
        // only the always-on kinds are kept.
        for on in [false, true] {
            set_enabled(on);
            clear();
            for (i, kind) in Kind::ALL.into_iter().enumerate() {
                record(Event::span(kind, i as u64, 10, 20 + i as u64).with_args([i as u64, 1, 2]));
            }
            let kept = Kind::ALL.into_iter().filter(|k| on || k.always_on());
            assert!(recent(0).iter().map(|e| e.kind).eq(kept), "tracing {on}");
            for e in recent(0) {
                assert_eq!((e.args[0], Kind::ALL[e.request_id as usize]), (e.request_id, e.kind));
                assert_eq!(Event::decode(e.encode()), Some(e));
                assert!(!e.describe().is_empty());
            }
        }
        set_enabled(false);
        assert_eq!(Event::decode([0xff, 1, 2, 3, 4, 5, 6]), None, "unknown kinds decode to None");

        // Overwrite-oldest: only the newest ALWAYS_ON_CAPACITY survive.
        clear();
        let (cap, before) = (ALWAYS_ON_CAPACITY as u64, events_recorded());
        for i in 0..2 * cap {
            record(Event::now(Kind::BatchForm, i));
        }
        assert_eq!(events_recorded(), before + 2 * cap);
        let ids: Vec<u64> = recent(0).iter().map(|e| e.request_id).collect();
        assert_eq!(ids, (cap..2 * cap).collect::<Vec<_>>(), "bounded, newest kept in order");

        // Cross-thread: four writers that never lap the ring lose nothing.
        clear();
        let (before, dropped) = (events_recorded(), events_dropped());
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    (0..50).for_each(|i| record(Event::now(Kind::ConnAccepted, t << 8 | i)))
                });
            }
        });
        assert_eq!((events_recorded(), events_dropped()), (before + 200, dropped));
        let ids: std::collections::BTreeSet<u64> = recent(0).iter().map(|e| e.request_id).collect();
        assert_eq!(ids.len(), 200, "every event kept, each once");
        clear();
    }

    #[test]
    fn batch_form_names_who_ran_it() {
        let batch = |runner| Event::span(Kind::BatchForm, 7, 10, 20).with_args([runner, 3, 2]);
        assert_eq!(batch(42).describe(), "conn #42 ran a batch of 3 (depth 2 after)");
    }

    #[test]
    fn decision_lines_say_why() {
        let decision = |args| Event::span(Kind::EngineDecision, 9, 0, 1500).with_args(args);
        assert_eq!(
            decision([830, 1000, 850]).describe(),
            "EngineDecision of request 9: chose a fast algorithm at 0.83x GEMM predicted, \
             runner-up at 0.85x, 1.5 us"
        );
        assert_eq!(
            decision([1000, 1000, 1050]).describe(),
            "EngineDecision of request 9: chose GEMM, runner-up at 1.05x, 1.5 us"
        );
        assert_eq!(
            decision([1000, 1000, 950]).describe(),
            "EngineDecision of request 9: chose GEMM; the runner-up predicted 0.95x GEMM, \
             inside the guard band, 1.5 us"
        );
    }

    #[test]
    fn span_kind_names_roundtrip() {
        for (id, kind) in Kind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, id, "ALL is in id order");
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("NoSuchKind"), None);
        assert_eq!(Kind::from_name(Kind::Other.name()), None, "Other is never a recorded kind");
        assert_eq!(RefusalReason::name_of(RefusalReason::QueueFull as u64), "queue-full");
        assert_eq!(IncidentTrigger::name_of(IncidentTrigger::Panic as u64), "panic");
        assert_eq!(IncidentTrigger::name_of(4), "wire-request");
        assert_eq!(IncidentTrigger::WireRequest.name(), "wire-request");
        assert_eq!(IncidentTrigger::name_of(3), "unknown");
        assert_eq!(IncidentTrigger::name_of(99), "unknown");
    }

    /// Four writers lap an 8-slot ring while this thread snapshots it
    /// continuously; [`interleave`] yields between every step of a push.
    /// Each payload is a function of one id, so a slot mixing two writers'
    /// words fails the check — as it does once the compare-and-swap in
    /// `push` is replaced by a plain store.
    #[test]
    fn lapping_writers_never_tear_a_slot() {
        const WRITERS: u64 = 4;
        const PUSHES: u64 = 50_000;
        let mix = |id: u64, salt: u64| (id ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let payload = |id: u64| {
            let span = Event::span(Kind::TaskExec, id, mix(id, 1), mix(id, 2));
            span.with_args([3, 4, 5].map(|salt| mix(id, salt)))
        };
        let check = |events: Vec<Event>| {
            let mut last = [None; WRITERS as usize];
            for e in events {
                assert_eq!(e, payload(e.request_id), "torn slot");
                // A writer's ids rise with its sequence numbers.
                let (writer, i) = ((e.request_id >> 32) as usize, e.request_id as u32);
                assert!(last[writer] < Some(i), "writer {writer}: {:?} then {i}", last[writer]);
                last[writer] = Some(i);
            }
        };
        let (ring, writing) = (Ring::<8>::new(), AtomicU64::new(WRITERS));
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (ring, writing) = (&ring, &writing);
                s.spawn(move || {
                    for i in 0..PUSHES {
                        ring.push(&payload(w << 32 | i));
                    }
                    writing.fetch_sub(1, Ordering::Relaxed);
                });
            }
            // Yield between snapshots as the writers do between steps: on
            // one CPU a reader that never yields takes a whole time slice
            // at each writer's yield, and the test runs for minutes.
            while writing.load(Ordering::Relaxed) > 0 {
                check(ring.snapshot());
                std::thread::yield_now();
            }
        });
        check(ring.snapshot());
        assert_eq!(ring.recorded() + ring.dropped(), WRITERS * PUSHES);
        assert!(ring.recorded() > 0);
    }
}
