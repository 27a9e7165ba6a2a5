//! `fmm-serve` — a multi-client serving daemon for the FMM engine stack.
//!
//! Everything below this crate computes; this crate *serves*. It closes
//! the gap between `FmmEngine::multiply_batch` — which already fans many
//! independent problems out over a worker pool, the way the
//! Benson–Ballard parallel-FMM framework schedules them — and actual
//! network clients that arrive one problem at a time:
//!
//! * a **length-prefixed binary frame protocol** over TCP
//!   ([`protocol`]): magic + version + kind + length + `request_id`
//!   header (the id is what lets a connection pipeline), row-major
//!   little-endian matrix payloads tagged with dtype and `m/k/n`,
//!   defensively decoded (malformed input degrades to typed error frames,
//!   never a panic or a hang);
//! * a **readiness-loop serving core** ([`server`] over [`poller`] and
//!   [`conn`]): every connection is multiplexed onto a small fixed set of
//!   nonblocking event-loop threads (epoll on Linux, `poll(2)` on other
//!   Unix), with request payloads decoded **straight into pooled aligned
//!   buffers** ([`buffers`]) — one copy off the wire — and responses
//!   written from a scatter list with partial-write continuation, so slow
//!   readers cost backlog bytes, never a blocked thread;
//! * a **micro-batching dispatcher** ([`dispatch`]): concurrent in-flight
//!   requests are coalesced under a window/size policy into one
//!   `multiply_batch` call per dtype over strided views of the pooled
//!   wire buffers, so unrelated clients share a fan-out;
//! * **admission control**: a bounded pending queue per dtype plus a
//!   per-connection pipelining bound; over either, requests are refused
//!   immediately with a `Busy` error frame — backpressure instead of
//!   unbounded memory growth;
//! * **observability** ([`metrics`], backed by `fmm-obs`):
//!   request/batch/reject counters, batch occupancy, per-connection
//!   pipelining depth, and lock-free log-bucketed latency histograms
//!   (queue-wait vs service splits over *every* sample since start), plus
//!   ingest-pool occupancy and per-dtype `EngineStats` snapshots — served
//!   as a JSON registry snapshot (`StatsJson`) or its Prometheus
//!   plaintext rendering; with tracing enabled ([`ServeConfig::trace`] /
//!   `FMM_TRACE=1`), every request phase records a span retrievable over
//!   the wire (`Trace`);
//! * **the client library** ([`client`]): [`PipelinedClient`]
//!   (out-of-order responses matched by request id; a blocking call is a
//!   pipeline of depth one), the [`client::retry_busy`] backoff helper,
//!   and the `fmm_serve` CLI (`serve` / `ping` / `stats` / `trace` /
//!   `bench` / `shutdown`).
//!
//! # Example
//!
//! ```
//! use fmm_dense::{fill, Matrix};
//! use fmm_engine::{ArchSource, EngineConfig, FmmEngine};
//! use fmm_gemm::BlockingParams;
//! use fmm_model::ArchParams;
//! use fmm_serve::{PipelinedClient, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! // Spawn on a free loopback port. Tests pin small blocking parameters
//! // and the paper arch to stay fast and deterministic; production uses
//! // `ServeConfig::default()` (model routing, calibrated arch).
//! let config = EngineConfig {
//!     parallel: true,
//!     params: BlockingParams::tiny(),
//!     arch: ArchSource::Fixed(ArchParams::paper_machine()),
//!     ..EngineConfig::default()
//! };
//! let handle = Server::spawn_with_engines(
//!     ServeConfig { params: BlockingParams::tiny(), ..ServeConfig::default() },
//!     Arc::new(FmmEngine::<f64>::new(config.clone())),
//!     Arc::new(FmmEngine::<f32>::new(config)),
//! )
//! .unwrap();
//!
//! let mut client = PipelinedClient::connect(handle.addr()).unwrap();
//! let a = fill::bench_workload(48, 32, 1);
//! let b = fill::bench_workload(32, 40, 2);
//! let c = client.multiply(&a, &b).unwrap();
//!
//! let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
//! assert!(fmm_dense::norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9);
//! client.shutdown().unwrap();
//! handle.wait();
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod buffers;
pub mod client;
pub mod conn;
pub mod dispatch;
pub mod incident;
pub mod metrics;
pub mod poller;
pub mod protocol;
pub mod server;

pub use buffers::{BufferPool, IngestPools, OperandStage, PoolStats, PooledBuf, WireBuf};
pub use client::{retry_busy, ClientError, PipelinedClient};
pub use dispatch::{
    BatchPolicy, BatchQueue, Completion, CompletionSink, ConnAddr, DispatchObs, Job, Refusal,
    ReplySink,
};
pub use metrics::{LatencyStats, Metrics, MetricsSnapshot};
pub use protocol::{Dtype, ErrorCode, Frame, FrameError, FrameKind, WireScalar};
pub use server::{ServeConfig, Server, ServerHandle};
