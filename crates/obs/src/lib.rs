//! Std-only observability core for the FMM serving stack.
//!
//! Five pieces, each usable on its own:
//!
//! * [`hist`] — fixed-footprint log-bucketed histograms. Base-2 buckets
//!   with 8 sub-buckets per octave (≤ 12.5% relative error), relaxed
//!   atomic counters, mergeable across threads, percentiles computed
//!   over **all** samples ever recorded rather than a sliding window.
//! * [`registry`] — named counters / gauges / histograms behind
//!   `Arc` handles. Lookup takes a lock once; the handle is then
//!   lock-free on the hot path. A process-global registry
//!   ([`global`]) serves layers (gemm, sched) that have no
//!   server object to hang metrics off.
//! * [`trace`] — the event recorder: one typed [`Event`] (request
//!   phase spans and the notable serving events) on one lock-free,
//!   allocation-free [`Ring`] primitive. An always-on ring keeps the
//!   notable kinds for post-mortem incident dumps; a span ring is filled
//!   only while tracing is on, whose disabled path is a single relaxed
//!   atomic load and a branch.
//! * [`audit`] — decision audit: per-(shape-class, dtype) aggregates
//!   of predicted-vs-measured multiply cost ([`audit::AuditSample`]),
//!   model-error ratio histograms, best/worst observed GFLOP/s, and
//!   routing-source attribution. The warm record path is lock-free and
//!   allocation-free after the one-time table allocation.
//! * [`watchdog`] — a stall watchdog: one judging thread probes each
//!   batch executor's work and progress, detects an executor wedged
//!   with work pending, and records escalating stall events.
//!
//! This crate depends on nothing but `std` so every layer of the stack
//! — including the GEMM substrate at the bottom — can record into it
//! without creating dependency cycles.
//!
//! # Atomic-ordering policy
//!
//! The counters, histogram buckets, and trace switch use
//! `Ordering::Relaxed`, deliberately: they are monotone monitoring state —
//! nothing synchronizes-with them, and readers tolerate staleness by
//! design. An earlier draft of the trace switch used `SeqCst` "to be
//! safe"; that bought nothing (the enabled check guards no data published
//! by the store) and put a full fence on the per-request warm path.
//! The one place that publishes data is the ring's slot protocol, whose
//! `Acquire`/`Release` operations and fences each carry an adjacent
//! `// ORDERING:` comment naming the happens-before edge, a convention
//! review keeps. The proof is a test, not a comment:
//! `trace::tests::lapping_writers_never_tear_a_slot` races writers that
//! yield between every step of a push and checks no slot is torn.

pub mod audit;
pub mod hist;
pub mod registry;
pub mod trace;
pub mod watchdog;

pub use audit::{AuditDtype, AuditEntry, AuditSample, AuditSource};
pub use hist::{HistSnapshot, Histogram};
pub use registry::{global, Counter, Gauge, Registry, Snapshot};
pub use trace::{Event, IncidentTrigger, Kind, RefusalReason, Ring};
pub use watchdog::{Watchdog, WatchdogConfig, WatchdogHandle};

/// Unit tests that touch the process-global rings serialize on this lock
/// (cargo runs same-crate tests in parallel threads).
#[cfg(test)]
pub(crate) fn test_lock() -> &'static std::sync::Mutex<()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    &LOCK
}
