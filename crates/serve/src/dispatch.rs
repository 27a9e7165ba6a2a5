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
//! A lone request need not cross to the dispatcher at all. With a zero
//! window, the batch a dispatcher would form for a request that finds its
//! dtype idle (nothing queued, no batch executing) is that request alone,
//! so its connection's reader may run it itself and spare it two thread
//! hand-offs. The queue's executor bit keeps that batch the dispatcher's
//! equal: [`BatchQueue::pop_first`] holds the bit for each batch it opens,
//! a reader claims it ([`BatchQueue::try_claim`]) only while the queue is
//! empty and the bit clear, and either way at most one batch per dtype
//! executes at a time. Both run their batch through [`BatchRunner::run`].
//!
//! Admission control lives in the queue itself: [`BatchQueue::try_push`]
//! refuses beyond [`BatchQueue::capacity`], and the connection layer turns
//! that refusal into a typed `Busy` error frame instead of letting pending
//! matrices grow without bound.

use crate::buffers::{BufferPool, PooledBuf, WireBuf};
use crate::metrics::Metrics;
use fmm_engine::{BatchItem, FmmEngine};
use fmm_gemm::GemmScalar;
use fmm_obs::trace::{self, Event, Kind};
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

/// A finished request on its way back to its connection: the pooled
/// result buffer (already in wire byte order) plus everything needed to
/// frame the response.
pub struct Completion {
    /// The request id to echo.
    pub request_id: u64,
    /// Result rows.
    pub m: usize,
    /// Result columns.
    pub n: usize,
    /// The result bytes, row-major little-endian, pooled.
    pub result: WireBuf,
}

/// Where dispatchers deliver completions: one sink per connection,
/// implemented by the server (queue the response for the connection's
/// writer, or drop it if the connection is gone). Never blocks on the
/// peer.
pub trait CompletionSink: Send + Sync {
    /// Deliver one completion.
    fn complete(&self, completion: Completion);
}

/// The reply route of one admitted request.
pub struct ReplySink {
    /// The owning connection's completion sink.
    pub sink: Arc<dyn CompletionSink>,
    /// The request id to echo.
    pub request_id: u64,
}

/// One admitted request: pooled wire-order operands, dimensions, the
/// completion route back to its connection, and the admission timestamp
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

/// Who holds a queue's executor bit: the right to execute a batch of the
/// queue's dtype.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Executor {
    /// No batch is executing.
    Idle,
    /// The dispatcher holds the batch [`BatchQueue::pop_first`] opened,
    /// until its next call.
    Dispatcher,
    /// A connection's reader holds it ([`BatchQueue::try_claim`]) until
    /// [`BatchQueue::release`].
    Reader,
}

struct QueueState<T> {
    jobs: VecDeque<Job<T>>,
    closed: bool,
    executor: Executor,
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
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                executor: Executor::Idle,
            }),
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
        // A reader's batch holds the dispatcher off; its release wakes it.
        let wake = state.executor != Executor::Reader;
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Block until a job is available (opening a new batch) or the queue
    /// is closed *and* drained — the dispatcher's exit condition. The
    /// returned job's batch holds the executor bit until the next call;
    /// while a reader holds it, this waits for its release.
    pub fn pop_first(&self) -> Option<Job<T>> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.executor == Executor::Dispatcher {
            state.executor = Executor::Idle;
        }
        loop {
            if state.executor == Executor::Idle {
                if let Some(job) = state.jobs.pop_front() {
                    state.executor = Executor::Dispatcher;
                    return Some(job);
                }
            }
            if state.closed && state.jobs.is_empty() {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Claim the executor bit for a reader: only while nothing is queued,
    /// no batch is executing and the queue is open. `true` means the
    /// caller may execute a batch, and must [`BatchQueue::release`] after.
    pub fn try_claim(&self) -> bool {
        let mut state = self.state.lock().expect("queue poisoned");
        let free = !state.closed && state.jobs.is_empty() && state.executor == Executor::Idle;
        if free {
            state.executor = Executor::Reader;
        }
        free
    }

    /// Release a reader's claim, waking the dispatcher if jobs arrived
    /// meanwhile.
    pub fn release(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        debug_assert_eq!(state.executor, Executor::Reader, "release without a claim");
        state.executor = Executor::Idle;
        let wake = !state.jobs.is_empty();
        drop(state);
        if wake {
            self.ready.notify_one();
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

/// Observability sidecar for whatever runs batches — a dispatcher thread,
/// or a connection's reader running its lone request: the watchdog
/// heartbeat it publishes, its name in `BatchForm` events, and the
/// slow-request threshold. `DispatchObs::default()` publishes no
/// heartbeat and records no slow requests.
#[derive(Default)]
pub struct DispatchObs {
    /// Heartbeat the watchdog judges this dispatcher by (progress =
    /// batches formed). `None` disables publishing.
    pub heartbeat: Option<Arc<Heartbeat>>,
    /// The first arg of the `BatchForm` events recorded here: a
    /// dispatcher's id, or `fmm_obs::trace::ON_READER | conn` for the
    /// reader of connection `conn`.
    pub runner: u64,
    /// Requests whose total latency reaches this record a `SlowRequest`
    /// event with their queue-wait and execute split. `None` disables
    /// slow-request events.
    pub slow_threshold: Option<Duration>,
}

/// What executes a formed batch: the engine, the pool its results come
/// from, and the instruments it reports to. A dispatcher holds one for its
/// life; a reader running its lone request builds one for that request.
pub struct BatchRunner<'a, T: GemmScalar> {
    /// The dtype's engine.
    pub engine: &'a FmmEngine<T>,
    /// The pool result buffers come from (the dtype's ingest pool).
    pub pool: &'a BufferPool<T>,
    /// Queue-wait, service, latency and batch instruments.
    pub metrics: &'a Metrics,
    /// Heartbeat, `BatchForm` name and slow-request threshold.
    pub obs: &'a DispatchObs,
}

impl<T: GemmScalar> BatchRunner<'_, T>
where
    WireBuf: From<PooledBuf<T>>,
{
    /// Execute `jobs`, a batch opened at `opened` (trace nanos) that left
    /// `depth` jobs queued, through one `engine.multiply_batch` over
    /// strided views of the pooled wire buffers (no transpose copy, no
    /// intermediate `Vec`), and hand each result, as a pooled wire-order
    /// buffer, with its reply route to `deliver`. Each job's operands are
    /// back in the pool before its delivery.
    pub fn run(
        &self,
        jobs: Vec<Job<T>>,
        opened: u64,
        depth: u64,
        mut deliver: impl FnMut(ReplySink, Completion),
    ) {
        let (metrics, obs) = (self.metrics, self.obs);
        let exec_start = Instant::now();
        // The `BatchForm` event spans the whole coalescing window, from the
        // job that opened the batch to execution start; tagged with the
        // opener's request id.
        let formed = trace::now_nanos();
        let opener_id = jobs.first().map_or(0, |job| job.reply.request_id);
        let batch = Event::span(Kind::BatchForm, opener_id, opened, formed);
        trace::record(batch.with_args([obs.runner, jobs.len() as u64, depth]));
        for job in &jobs {
            let wait = exec_start - job.enqueued;
            metrics.record_queue_wait(wait);
            if trace::enabled() {
                // The wait span ends where the batch starts executing;
                // its start is reconstructed from the measured wait so no
                // clock read happens on the admission path.
                let start = formed.saturating_sub(nanos(wait)).max(1);
                let id = job.reply.request_id;
                trace::record(Event::span(Kind::QueueWait, id, start, formed));
            }
        }
        // One pooled result buffer per job, zeroed because the engine
        // accumulates (`C += A·B`); the BatchItem views borrow the wire
        // buffers directly for the duration of the fan-out.
        let mut results: Vec<PooledBuf<T>> = jobs
            .iter()
            .map(|job| {
                let mut c = self.pool.acquire(job.m * job.n);
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
            self.engine.multiply_batch(&mut items);
        }
        metrics.record_batch(jobs.len());
        if let Some(hb) = &obs.heartbeat {
            hb.progress();
        }
        let service = exec_start.elapsed();
        for (job, mut result) in jobs.into_iter().zip(results) {
            metrics.record_service(service);
            let total = job.enqueued.elapsed();
            metrics.record_latency(total);
            if obs.slow_threshold.is_some_and(|threshold| total >= threshold) {
                // The reply is written after hand-off, out of sight here,
                // so the split is queue wait against execution.
                let now = trace::now_nanos();
                let start = now.saturating_sub(nanos(total));
                let slow = Event::span(Kind::SlowRequest, job.reply.request_id, start, now);
                let wait = total.saturating_sub(service);
                trace::record(slow.with_args([nanos(wait), nanos(service), 0]));
            }
            result.host_to_wire();
            let Job { a, b, m, n, reply, .. } = job;
            // Operands must be back in the pool *before* the completion
            // wakes the connection's writer: the client's next request can
            // race the tail of this iteration and must find them idle.
            drop(a);
            drop(b);
            let request_id = reply.request_id;
            deliver(reply, Completion { request_id, m, n, result: result.into() });
        }
    }
}

/// Drain `queue` until it closes: form micro-batches under `policy` and
/// run each through `runner`, delivering every result to its reply sink.
/// Runs on a dedicated thread per dtype; returns when the queue is closed
/// and fully drained, so in-flight requests complete across a shutdown.
pub fn run_dispatcher<T: GemmScalar>(
    queue: &BatchQueue<T>,
    runner: &BatchRunner<'_, T>,
    policy: BatchPolicy,
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
        let opened = trace::now_nanos();
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
        let depth = queue.depth() as u64;
        runner.run(jobs, opened, depth, |reply, completion| reply.sink.complete(completion));
    }
}

/// A duration in whole nanoseconds, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
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

    /// `run_dispatcher` over `queue` with no heartbeat or slow threshold.
    fn drain(
        queue: &BatchQueue<f64>,
        engine: &FmmEngine<f64>,
        pools: &IngestPools,
        metrics: &Metrics,
        policy: BatchPolicy,
    ) {
        let obs = DispatchObs::default();
        run_dispatcher(
            queue,
            &BatchRunner { engine, pool: &pools.f64, metrics, obs: &obs },
            policy,
        );
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
        let reply = ReplySink { sink: sink.clone() as Arc<dyn CompletionSink>, request_id };
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
    fn reader_claims_only_an_empty_idle_open_queue() {
        let pools = IngestPools::new(8, usize::MAX);
        let sink = Arc::new(Collector::default());
        let q = BatchQueue::<f64>::new(4);
        assert!(q.try_claim(), "an idle, empty queue can be claimed");
        assert!(!q.try_claim(), "one batch per dtype at a time");
        q.release();
        let (j, _, _) = job(&pools, &sink, 4, 1, 1);
        assert!(q.try_push(j).is_ok());
        assert!(!q.try_claim(), "a queued job goes to the dispatcher first");
        assert!(q.pop_first().is_some());
        assert!(!q.try_claim(), "the dispatcher's batch holds the bit until its next pop");
        let closed = BatchQueue::<f64>::new(4);
        closed.close();
        assert!(!closed.try_claim(), "a closed queue runs no new batch");
    }

    #[test]
    fn pop_first_waits_out_a_readers_batch() {
        let pools = IngestPools::new(8, usize::MAX);
        let sink = Arc::new(Collector::default());
        let q = BatchQueue::<f64>::new(4);
        let (j1, _, _) = job(&pools, &sink, 4, 1, 1);
        assert!(q.try_push(j1).is_ok());
        assert!(q.pop_first().is_some(), "the dispatcher's first batch");
        std::thread::scope(|s| {
            let dispatcher = s.spawn(|| q.pop_first().map(|job| job.reply.request_id));
            // Its next pop clears the dispatcher's bit; a reader may claim
            // it once that pop waits on the empty queue.
            let deadline = Instant::now() + Duration::from_secs(20);
            while !q.try_claim() {
                assert!(Instant::now() < deadline, "the dispatcher's next pop never freed the bit");
                std::thread::yield_now();
            }
            let (j2, _, _) = job(&pools, &sink, 4, 3, 2);
            assert!(q.try_push(j2).is_ok());
            std::thread::sleep(Duration::from_millis(50));
            assert!(!dispatcher.is_finished(), "pop_first took a job during a reader's batch");
            q.release();
            assert_eq!(dispatcher.join().expect("dispatcher"), Some(2));
        });
        assert!(!q.try_claim(), "the popped job's batch holds the bit");
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
        drain(&queue, &engine, &pools, &metrics, policy);

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
        drain(&queue, &engine, &pools, &metrics, policy);
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
            drain(&queue, &engine, &pools, &metrics, policy);
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
        drain(&queue, &engine, &pools, &metrics, policy);
        sink.wait_for(1);
        assert_eq!(
            pools.f64.stats().misses,
            misses_after_warm,
            "warm-path dispatch allocated a payload buffer"
        );
    }
}
