//! The micro-batching dispatcher: a bounded admission queue per dtype and
//! the drain loop that coalesces concurrent requests into one
//! `FmmEngine::multiply_batch` call.
//!
//! The policy is window/size based, the standard cross-request batching
//! compromise: the dispatcher blocks for the *first* pending request, then
//! keeps admitting stragglers until either [`BatchPolicy::max_batch`] is
//! reached or [`BatchPolicy::window`] has elapsed since the batch opened.
//! Under saturation the window never actually waits (the queue is
//! non-empty, so every pop returns immediately) and throughput is bounded
//! by the engine; at low load a request pays at most one window of extra
//! latency in exchange for the chance to share a fan-out with its
//! neighbors — which is exactly how `multiply_batch` realizes the
//! Benson–Ballard-style inter-problem parallelism on small problems.
//!
//! Admission control lives in the queue itself: [`BatchQueue::try_push`]
//! refuses beyond [`BatchQueue::capacity`], and the connection layer turns
//! that refusal into a typed `Busy` error frame instead of letting pending
//! matrices grow without bound.

use crate::buffers::{BufferPool, PooledBuf, WireBuf};
use crate::metrics::Metrics;
use fmm_engine::{BatchItem, FmmEngine};
use fmm_gemm::GemmScalar;
use fmm_obs::flight::{self, FlightEvent, SlowPhase};
use fmm_obs::Heartbeat;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Test-only wedge hook: while `true`, every dispatcher in the process
/// parks before popping its next job, so admitted work sits in the
/// queue with no batch ever forming — exactly the failure mode the
/// watchdog's progress policy exists to catch. Exposed (hidden) because
/// integration tests cannot reach `#[cfg(test)]` items in the library.
#[doc(hidden)]
pub static WEDGE_DISPATCH: AtomicBool = AtomicBool::new(false);

/// Cross-request coalescing policy.
///
/// A batch closes at the earliest of: `max_batch` reached, `window`
/// elapsed since the batch opened, or `straggler_gap` elapsed since the
/// last arrival. The gap bound is what keeps the window honest under
/// closed-loop load: when every in-flight client is already waiting on a
/// reply, no further request *can* arrive, and without the gap the
/// dispatcher would idle out the whole window anyway — pure wasted
/// latency and, on a saturated machine, lost throughput.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Longest a freshly opened batch waits for stragglers in total. `0`
    /// disables waiting: only requests already queued are coalesced.
    pub window: Duration,
    /// Most requests one `multiply_batch` call may coalesce. `1` disables
    /// batching entirely (one-request-at-a-time dispatch).
    pub max_batch: usize,
    /// Longest the open batch waits for the *next* straggler. Set it to
    /// `window` (or larger) to always wait out the full window.
    pub straggler_gap: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            window: Duration::from_millis(2),
            max_batch: 32,
            straggler_gap: Duration::from_micros(200),
        }
    }
}

/// Where a finished request lives: the event loop that owns its
/// connection, addressed by slot + generation so completions for
/// connections that died mid-flight are recognized and dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnAddr {
    /// The owning event loop's slot index for the connection.
    pub slot: u32,
    /// The slot's generation at admission time; a completion whose
    /// generation no longer matches belongs to a dead connection.
    pub generation: u32,
}

/// A finished request on its way back to the event loop: the pooled
/// result buffer (already in wire byte order) plus everything needed to
/// frame and route the response.
pub struct Completion {
    /// The connection the response belongs to.
    pub addr: ConnAddr,
    /// The request id to echo.
    pub request_id: u64,
    /// Result rows.
    pub m: usize,
    /// Result columns.
    pub n: usize,
    /// The result bytes, row-major little-endian, pooled.
    pub result: WireBuf,
}

/// Where dispatchers deliver completions: one sink per event loop,
/// implemented by the server (push to the loop's completion queue, then
/// wake its poller).
pub trait CompletionSink: Send + Sync {
    /// Deliver one completion.
    fn complete(&self, completion: Completion);
}

/// The reply route of one admitted request.
pub struct ReplySink {
    /// The owning event loop's completion sink.
    pub sink: Arc<dyn CompletionSink>,
    /// The connection's address on that loop.
    pub addr: ConnAddr,
    /// The request id to echo.
    pub request_id: u64,
}

/// One admitted request: pooled wire-order operands, dimensions, the
/// completion route back to the event loop, and the admission timestamp
/// for latency accounting.
pub struct Job<T> {
    /// Left operand (`m × k`, row-major in the pooled buffer).
    pub a: PooledBuf<T>,
    /// Right operand (`k × n`, row-major).
    pub b: PooledBuf<T>,
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Completion route.
    pub reply: ReplySink,
    /// When admission control accepted the job.
    pub enqueued: Instant,
}

/// Why [`BatchQueue::try_push`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The queue is at capacity — transient backpressure; retry later.
    Full,
    /// The queue is closed (shutdown) — no retry will ever succeed here.
    Closed,
}

struct QueueState<T> {
    jobs: VecDeque<Job<T>>,
    closed: bool,
}

/// A bounded multi-producer queue with batch-friendly consumption. The
/// capacity bound is the serving daemon's admission control: producers
/// that find it full are refused immediately (`try_push`), never blocked.
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BatchQueue<T> {
    /// Queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pending jobs right now (racy, for stats only).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").jobs.len()
    }

    /// Admit a job, or hand it back with the refusal reason — a full
    /// queue is retryable backpressure (`Busy` on the wire), a closed one
    /// is shutdown (`ShuttingDown`, not retryable). The caller owns the
    /// refused job.
    // Returning the whole Job in Err is the point: the refused operands go
    // back to the caller without a drop/reparse cycle, and admission is
    // not a hot path once the queue is full.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&self, job: Job<T>) -> Result<(), (Job<T>, Refusal)> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed {
            return Err((job, Refusal::Closed));
        }
        if state.jobs.len() >= self.capacity {
            return Err((job, Refusal::Full));
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until a job is available (opening a new batch) or the queue
    /// is closed *and* drained — the dispatcher's exit condition.
    pub fn pop_first(&self) -> Option<Job<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Pop one job, waiting no later than `deadline` — the straggler
    /// admission path while a batch's window is open. `None` means the
    /// window elapsed (or the queue closed) with nothing available.
    pub fn pop_until(&self, deadline: Instant) -> Option<Job<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timeout) =
                self.ready.wait_timeout(state, deadline - now).expect("queue poisoned");
            state = next;
            if timeout.timed_out() && state.jobs.is_empty() {
                return None;
            }
        }
    }

    /// Close the queue: further `try_push` calls are refused, and
    /// dispatchers exit once the backlog drains.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

/// Observability sidecar for one dispatcher thread: the watchdog
/// heartbeat it publishes, its flight-recorder component id, and the
/// slow-request threshold. [`run_dispatcher`] runs with the default
/// (no heartbeat, no slow threshold); the server passes a configured
/// one through [`run_dispatcher_observed`].
#[derive(Default)]
pub struct DispatchObs {
    /// Heartbeat the watchdog judges this dispatcher by (progress =
    /// batches formed). `None` disables publishing.
    pub heartbeat: Option<Arc<Heartbeat>>,
    /// Flight-event `dispatcher` field for batches formed here.
    pub dispatcher_id: u64,
    /// Requests whose total latency reaches this record a
    /// [`FlightEvent::SlowRequest`] with their dominant phase.
    /// `None` disables slow-request flight events.
    pub slow_threshold: Option<Duration>,
}

/// Drain `queue` until it closes: form micro-batches under `policy`,
/// execute each through `engine.multiply_batch` over strided views of the
/// pooled wire buffers (no transpose copy, no intermediate `Vec`), and
/// deliver every result to its reply sink as a pooled wire-order buffer.
/// Runs on a dedicated thread per dtype; returns when the queue is closed
/// and fully drained, so in-flight requests complete across a shutdown.
pub fn run_dispatcher<T: GemmScalar>(
    queue: &BatchQueue<T>,
    engine: &FmmEngine<T>,
    pool: &BufferPool<T>,
    policy: BatchPolicy,
    metrics: &Arc<Metrics>,
) where
    WireBuf: From<PooledBuf<T>>,
{
    run_dispatcher_observed(queue, engine, pool, policy, metrics, &DispatchObs::default());
}

/// [`run_dispatcher`] with watchdog/flight-recorder instrumentation.
pub fn run_dispatcher_observed<T: GemmScalar>(
    queue: &BatchQueue<T>,
    engine: &FmmEngine<T>,
    pool: &BufferPool<T>,
    policy: BatchPolicy,
    metrics: &Arc<Metrics>,
    obs: &DispatchObs,
) where
    WireBuf: From<PooledBuf<T>>,
{
    let max_batch = policy.max_batch.max(1);
    loop {
        // Test-only wedge: park *before* popping, so wedged work stays
        // visible in the queue for the watchdog's progress probe.
        while WEDGE_DISPATCH.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let Some(first) = queue.pop_first() else { break };
        // Spans the whole coalescing window, from the job that opened the
        // batch to execution start; tagged with the opener's request id.
        let batch_open = fmm_obs::trace::start();
        let opener_id = first.reply.request_id;
        let mut jobs = Vec::with_capacity(max_batch.min(64));
        jobs.push(first);
        if !policy.window.is_zero() {
            let window_closes = Instant::now() + policy.window;
            while jobs.len() < max_batch {
                // Wait for the next straggler, but no further than the
                // window; a gap with no arrival closes the batch early
                // (see BatchPolicy docs).
                let deadline = window_closes.min(Instant::now() + policy.straggler_gap);
                match queue.pop_until(deadline) {
                    Some(job) => jobs.push(job),
                    None => break,
                }
            }
        } else {
            // Zero window: opportunistic only — coalesce what is already
            // queued, never wait.
            let already = Instant::now();
            while jobs.len() < max_batch {
                match queue.pop_until(already) {
                    Some(job) => jobs.push(job),
                    None => break,
                }
            }
        }

        let exec_start = Instant::now();
        let batch_formed = fmm_obs::trace::now_nanos();
        fmm_obs::trace::finish(fmm_obs::SpanKind::BatchForm, opener_id, batch_open);
        for job in &jobs {
            let wait = exec_start - job.enqueued;
            metrics.record_queue_wait(wait);
            if fmm_obs::trace::enabled() {
                // The wait span ends where the batch starts executing;
                // its start is reconstructed from the measured wait so no
                // clock read happens on the admission path.
                let wait_nanos = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
                fmm_obs::trace::record(fmm_obs::SpanEvent {
                    kind: fmm_obs::SpanKind::QueueWait,
                    request_id: job.reply.request_id,
                    start_nanos: batch_formed.saturating_sub(wait_nanos).max(1),
                    end_nanos: batch_formed,
                    thread: 0,
                });
            }
        }
        // One pooled result buffer per job, zeroed because the engine
        // accumulates (`C += A·B`); the BatchItem views borrow the wire
        // buffers directly for the duration of the fan-out.
        let mut results: Vec<PooledBuf<T>> = jobs
            .iter()
            .map(|job| {
                let mut c = pool.acquire(job.m * job.n);
                c.zero();
                c
            })
            .collect();
        {
            let mut items: Vec<BatchItem<'_, T>> = results
                .iter_mut()
                .zip(jobs.iter())
                .map(|(c, job)| {
                    BatchItem::new(
                        c.mat_mut(job.m, job.n),
                        job.a.mat_ref(job.m, job.k),
                        job.b.mat_ref(job.k, job.n),
                    )
                    .with_tag(job.reply.request_id)
                })
                .collect();
            engine.multiply_batch(&mut items);
        }
        metrics.record_batch(jobs.len());
        flight::record(FlightEvent::BatchFormed {
            dispatcher: obs.dispatcher_id,
            batch: jobs.len() as u64,
            depth: queue.depth() as u64,
        });
        if let Some(hb) = &obs.heartbeat {
            hb.beat();
            hb.progress();
        }
        let service = exec_start.elapsed();
        for (job, mut result) in jobs.into_iter().zip(results) {
            metrics.record_service(service);
            let total = job.enqueued.elapsed();
            metrics.record_latency(total);
            if let Some(threshold) = obs.slow_threshold {
                if total >= threshold {
                    // The serve/flush phase happens after hand-off and is
                    // not visible here, so the dominant phase is whichever
                    // half of the dispatch latency was larger.
                    let wait = total.saturating_sub(service);
                    let (phase, phase_nanos) = if wait > service {
                        (SlowPhase::QueueWait, wait.as_nanos())
                    } else {
                        (SlowPhase::Execute, service.as_nanos())
                    };
                    flight::record(FlightEvent::SlowRequest {
                        request_id: job.reply.request_id,
                        total_nanos: u64::try_from(total.as_nanos()).unwrap_or(u64::MAX),
                        phase,
                        phase_nanos: u64::try_from(phase_nanos).unwrap_or(u64::MAX),
                    });
                }
            }
            result.host_to_wire();
            let Job { a, b, m, n, reply, .. } = job;
            // Operands must be back in the pool *before* the completion
            // wakes the event loop: the client's next request can race
            // the tail of this iteration and must find them idle.
            drop(a);
            drop(b);
            reply.sink.complete(Completion {
                addr: reply.addr,
                request_id: reply.request_id,
                m,
                n,
                result: result.into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::IngestPools;
    use crate::protocol::WireScalar;
    use fmm_dense::Matrix;
    use fmm_engine::EngineConfig;
    use fmm_gemm::BlockingParams;
    use fmm_model::ArchParams;
    use std::thread;

    /// A sequential engine with tiny blocking and the paper machine's
    /// constants (no host calibration in a unit test).
    fn tiny_engine() -> FmmEngine<f64> {
        FmmEngine::new(EngineConfig {
            arch: ArchParams::paper_machine().into(),
            params: BlockingParams::tiny(),
            ..EngineConfig::default()
        })
    }

    /// Test sink: collects completions and wakes waiters.
    #[derive(Default)]
    struct Collector {
        done: Mutex<Vec<Completion>>,
        ready: Condvar,
    }

    impl CompletionSink for Collector {
        fn complete(&self, completion: Completion) {
            self.done.lock().expect("collector poisoned").push(completion);
            self.ready.notify_all();
        }
    }

    impl Collector {
        fn wait_for(&self, count: usize) -> Vec<(u64, Matrix<f64>)> {
            let mut done = self.done.lock().expect("collector poisoned");
            while done.len() < count {
                let (next, timeout) = self
                    .ready
                    .wait_timeout(done, Duration::from_secs(20))
                    .expect("collector poisoned");
                done = next;
                assert!(!timeout.timed_out(), "dispatcher never completed {count} jobs");
            }
            done.iter()
                .map(|c| {
                    let bytes = c.result.bytes();
                    let w = std::mem::size_of::<f64>();
                    let mat = Matrix::from_fn(c.m, c.n, |i, j| {
                        f64::read_le(&bytes[(i * c.n + j) * w..(i * c.n + j) * w + w])
                    });
                    (c.request_id, mat)
                })
                .collect()
        }
    }

    fn job(
        pools: &IngestPools,
        sink: &Arc<Collector>,
        n: usize,
        seed: u64,
        request_id: u64,
    ) -> (Job<f64>, Matrix<f64>, Matrix<f64>) {
        let a = fmm_dense::fill::bench_workload(n, n, seed);
        let b = fmm_dense::fill::bench_workload(n, n, seed + 1);
        let mut pa = pools.f64.acquire(n * n);
        let mut pb = pools.f64.acquire(n * n);
        for i in 0..n {
            for j in 0..n {
                pa.as_mut_slice()[i * n + j] = a.get(i, j);
                pb.as_mut_slice()[i * n + j] = b.get(i, j);
            }
        }
        let reply = ReplySink {
            sink: sink.clone() as Arc<dyn CompletionSink>,
            addr: ConnAddr { slot: 0, generation: 0 },
            request_id,
        };
        (Job { a: pa, b: pb, m: n, k: n, n, reply, enqueued: Instant::now() }, a, b)
    }

    #[test]
    fn queue_refuses_beyond_capacity_and_after_close() {
        let pools = IngestPools::new(8, usize::MAX);
        let sink = Arc::new(Collector::default());
        let q = BatchQueue::<f64>::new(2);
        let (j1, _, _) = job(&pools, &sink, 4, 1, 1);
        let (j2, _, _) = job(&pools, &sink, 4, 3, 2);
        let (j3, _, _) = job(&pools, &sink, 4, 5, 3);
        assert!(q.try_push(j1).is_ok());
        assert!(q.try_push(j2).is_ok());
        let (refused, why) = match q.try_push(j3) {
            Err(refusal) => refusal,
            Ok(()) => panic!("full queue must refuse"),
        };
        assert_eq!(why, Refusal::Full, "capacity refusal is the retryable kind");
        assert_eq!(q.depth(), 2);
        q.close();
        match q.try_push(refused) {
            Err((_, Refusal::Closed)) => {}
            Err((_, why)) => panic!("closed queue must refuse as Closed, got {why:?}"),
            Ok(()) => panic!("closed queue must refuse"),
        }
        // Drain still works after close…
        assert!(q.pop_first().is_some());
        assert!(q.pop_first().is_some());
        // …and then signals exit.
        assert!(q.pop_first().is_none());
    }

    #[test]
    fn pop_until_times_out_without_jobs() {
        let q = BatchQueue::<f64>::new(4);
        let t0 = Instant::now();
        assert!(q.pop_until(t0 + Duration::from_millis(20)).is_none());
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn dispatcher_coalesces_queued_jobs_and_completes_each_by_id() {
        let engine = tiny_engine();
        let pools = IngestPools::new(16, usize::MAX);
        let sink = Arc::new(Collector::default());
        let metrics = Arc::new(Metrics::default());
        let queue = BatchQueue::new(16);
        let mut expected = Vec::new();
        for seed in 0..6u64 {
            let (j, a, b) = job(&pools, &sink, 24, seed * 2 + 1, 100 + seed);
            expected.push((100 + seed, fmm_gemm::reference::matmul(a.as_ref(), b.as_ref())));
            assert!(queue.try_push(j).is_ok());
        }
        queue.close(); // dispatcher drains the backlog then exits

        let policy = BatchPolicy {
            window: Duration::from_millis(50),
            max_batch: 8,
            straggler_gap: Duration::from_millis(50),
        };
        thread::scope(|s| {
            s.spawn(|| run_dispatcher(&queue, &engine, &pools.f64, policy, &metrics));
        });

        let mut got = sink.wait_for(6);
        got.sort_by_key(|(id, _)| *id);
        for ((id, mat), (want_id, want)) in got.iter().zip(&expected) {
            assert_eq!(id, want_id, "completion routed by request id");
            assert!(fmm_dense::norms::rel_error(mat.as_ref(), want.as_ref()) < 1e-9);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.batched_items, 6);
        assert!(snap.max_occupancy > 1, "queued jobs were coalesced: {snap:?}");
        assert_eq!(snap.latency.count, 6);
        assert_eq!(snap.queue_wait.count, 6, "queue-wait split recorded per job");
        assert_eq!(snap.service.count, 6, "service split recorded per job");
    }

    #[test]
    fn max_batch_one_dispatches_one_at_a_time() {
        let engine = tiny_engine();
        let pools = IngestPools::new(16, usize::MAX);
        let sink = Arc::new(Collector::default());
        let metrics = Arc::new(Metrics::default());
        let queue = BatchQueue::new(16);
        for seed in 0..3u64 {
            let (j, _, _) = job(&pools, &sink, 16, seed * 2 + 20, seed);
            assert!(queue.try_push(j).is_ok());
        }
        queue.close();
        let policy =
            BatchPolicy { window: Duration::ZERO, max_batch: 1, straggler_gap: Duration::ZERO };
        thread::scope(|s| {
            s.spawn(|| run_dispatcher(&queue, &engine, &pools.f64, policy, &metrics));
        });
        sink.wait_for(3);
        let snap = metrics.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.max_occupancy, 1);
    }

    #[test]
    fn warm_dispatch_hits_the_result_pool() {
        let engine = tiny_engine();
        let pools = IngestPools::new(16, usize::MAX);
        let sink = Arc::new(Collector::default());
        let metrics = Arc::new(Metrics::default());
        // Two rounds of the same shape: round 1 warms the pool, round 2
        // must be all hits for the result buffers.
        for round in 0..2 {
            let queue = BatchQueue::new(4);
            let (j, _, _) = job(&pools, &sink, 8, 50 + round, round);
            assert!(queue.try_push(j).is_ok());
            queue.close();
            let policy =
                BatchPolicy { window: Duration::ZERO, max_batch: 4, straggler_gap: Duration::ZERO };
            thread::scope(|s| {
                s.spawn(|| run_dispatcher(&queue, &engine, &pools.f64, policy, &metrics));
            });
        }
        sink.wait_for(2);
        let misses_after_warm = pools.f64.stats().misses;
        // Drop the collected results back to the pool, then run a third
        // warm round: zero new allocations end to end.
        sink.done.lock().expect("collector poisoned").clear();
        let queue = BatchQueue::new(4);
        let (j, _, _) = job(&pools, &sink, 8, 60, 9);
        assert!(queue.try_push(j).is_ok());
        queue.close();
        let policy =
            BatchPolicy { window: Duration::ZERO, max_batch: 4, straggler_gap: Duration::ZERO };
        thread::scope(|s| {
            s.spawn(|| run_dispatcher(&queue, &engine, &pools.f64, policy, &metrics));
        });
        sink.wait_for(1);
        assert_eq!(
            pools.f64.stats().misses,
            misses_after_warm,
            "warm-path dispatch allocated a payload buffer"
        );
    }
}
