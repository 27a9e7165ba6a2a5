//! Flat combining (Hendler, Incze, Shavit & Tzafrir, SPAA 2010): the
//! connection readers that admit requests also execute them, coalesced
//! into one `FmmEngine::multiply_batch` call per batch.
//!
//! Each dtype has a bounded [`BatchQueue`] with an executor bit. A reader
//! pushes its admitted job, then [`combine`]s: the reader that claims the
//! bit runs batches of up to `max_batch` jobs, its own among them, through
//! [`BatchRunner::run`]; one that loses leaves its job to the holder. The
//! combining invariant: a turn ends with one atomic step under the queue
//! lock ([`BatchQueue::next_batch`]) that takes the next batch or, on an
//! empty queue, releases the bit. A job pushed after it finds the bit free
//! for its pusher, so no job is left queued with nobody to run it, and one
//! batch per dtype executes at a time.
//!
//! A batch is what is queued when the combiner takes it: batches form from
//! what arrives while a batch runs, which is how `multiply_batch` gives
//! small problems Benson–Ballard's inter-problem parallelism, and no
//! combiner waits on a timer, so a lone caller never waits on the policy.
//!
//! Admission control lives in the queue itself: [`BatchQueue::try_push`]
//! refuses beyond its capacity, and the connection layer turns that
//! refusal into a typed `Busy` error frame.

use crate::buffers::{BufferPool, PooledBuf, WireBuf};
use crate::metrics::Metrics;
use fmm_engine::{BatchItem, FmmEngine};
use fmm_gemm::GemmScalar;
use fmm_obs::trace::{self, Event, Kind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Cross-request coalescing policy.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Not consulted: a combiner never waits for a batch to fill (see the
    /// module docs). Kept because callers still set it.
    pub window: Duration,
    /// Most requests one `multiply_batch` call may coalesce. `1` disables
    /// batching entirely (one request at a time).
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self { window: Duration::from_millis(2), max_batch: 32 }
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

/// Where a combiner delivers other connections' completions: one sink per
/// connection, implemented by the server (queue the response for the
/// connection's writer, or drop it if the connection is gone). Never
/// blocks on the peer.
pub trait CompletionSink: Send + Sync {
    /// Deliver one completion.
    fn complete(&self, completion: Completion);
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
    /// The request id to echo.
    pub request_id: u64,
    /// The owning connection's completion sink.
    pub sink: Arc<dyn CompletionSink>,
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
    /// The executor bit: a combiner is running this queue's batches.
    executing: bool,
}

/// A dtype's bounded multi-producer queue and its executor bit. The
/// capacity bound is the serving daemon's admission control: producers
/// that find it full are refused immediately (`try_push`), never blocked.
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    /// Batches run to completion.
    completed: AtomicU64,
}

impl<T> BatchQueue<T> {
    /// Queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        let state = QueueState { jobs: VecDeque::new(), closed: false, executing: false };
        Self { state: Mutex::new(state), capacity, completed: AtomicU64::new(0) }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().expect("queue poisoned")
    }

    /// Pending jobs right now.
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// What the watchdog judges the dtype's executor by: its work, pending
    /// jobs plus one while a combiner holds the executor bit, and its
    /// progress, batches completed.
    pub fn progress(&self) -> (u64, u64) {
        let state = self.lock();
        let work = state.jobs.len() + usize::from(state.executing);
        (work as u64, self.completed.load(Ordering::Relaxed))
    }

    /// Admit a job, or refuse it: a full queue is retryable backpressure
    /// (`Busy` on the wire), a closed one is shutdown (`ShuttingDown`, not
    /// retryable). An admitted job runs once its pusher, or whoever holds
    /// the executor bit, combines.
    pub fn try_push(&self, job: Job<T>) -> Result<(), Refusal> {
        let mut state = self.lock();
        if state.closed {
            return Err(Refusal::Closed);
        }
        if state.jobs.len() >= self.capacity {
            return Err(Refusal::Full);
        }
        state.jobs.push_back(job);
        Ok(())
    }

    /// Claim the executor bit, if it is free and jobs are queued. `true`
    /// makes the caller the combiner, which must then call
    /// [`BatchQueue::next_batch`] until it returns `None`.
    pub fn try_claim(&self) -> bool {
        let mut state = self.lock();
        let claim = !state.executing && !state.jobs.is_empty();
        state.executing |= claim;
        claim
    }

    /// The combiner's step: up to `max` queued jobs or, on an empty queue,
    /// `None` with the executor bit released, in one critical section.
    pub fn next_batch(&self, max: usize) -> Option<Vec<Job<T>>> {
        let mut state = self.lock();
        debug_assert!(state.executing, "next_batch without the executor bit");
        if state.jobs.is_empty() {
            state.executing = false;
            return None;
        }
        let take = state.jobs.len().min(max.max(1));
        Some(state.jobs.drain(..take).collect())
    }

    /// Close the queue: further `try_push` calls are refused, and what is
    /// queued still runs.
    pub fn close(&self) {
        self.lock().closed = true;
    }
}

#[derive(Default)]
struct GateState {
    /// Combiners parked at the gate.
    waiting: usize,
    /// The hold: combiners park at the gate until it lifts.
    held: bool,
    /// Batches let past the hold before it parks combiners again.
    passes: usize,
}

/// Test seam: where a combiner parks, between claiming the executor bit
/// and taking a batch, while the gate is held, so admitted work stays
/// queued and in flight. One per server, shared by both dtypes.
#[doc(hidden)]
#[derive(Default)]
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().expect("gate poisoned")
    }

    /// While `on`, every combiner with jobs queued parks at the gate.
    pub fn hold(&self, on: bool) {
        let mut state = self.lock();
        (state.held, state.passes) = (on, 0);
        drop(state);
        self.changed.notify_all();
    }

    /// Let `count` more batches past the hold.
    pub fn let_pass(&self, count: usize) {
        self.lock().passes += count;
        self.changed.notify_all();
    }

    /// Wait up to 20 s until `count` combiners are parked at the gate;
    /// `false` if they never were.
    pub fn await_waiting(&self, count: usize) -> bool {
        let within = Duration::from_secs(20);
        let waited = self.changed.wait_timeout_while(self.lock(), within, |s| s.waiting < count);
        !waited.expect("gate poisoned").1.timed_out()
    }

    /// Park while the gate is held and `queued` says jobs wait, unless a
    /// pass is left.
    fn pass(&self, queued: impl Fn() -> bool) {
        let mut state = self.lock();
        while state.held && queued() {
            if state.passes > 0 {
                state.passes -= 1;
                return;
            }
            state.waiting += 1;
            self.changed.notify_all();
            state = self.changed.wait(state).expect("gate poisoned");
            state.waiting -= 1;
        }
    }
}

/// What executes a formed batch: the engine, the pool its results come
/// from, and the instruments it reports to. A combiner builds one for its
/// turn.
pub struct BatchRunner<'a, T: GemmScalar> {
    /// The dtype's engine.
    pub engine: &'a FmmEngine<T>,
    /// The pool result buffers come from (the dtype's ingest pool).
    pub pool: &'a BufferPool<T>,
    /// Queue-wait, service, latency and batch instruments.
    pub metrics: &'a Metrics,
    /// The combining connection: the first arg of the `BatchForm` events
    /// recorded here.
    pub conn: u64,
    /// Requests whose total latency reaches this record a `SlowRequest`
    /// event with their queue-wait and execute split.
    pub slow_threshold: Duration,
}

impl<T: GemmScalar> BatchRunner<'_, T>
where
    WireBuf: From<PooledBuf<T>>,
{
    /// Execute `jobs`, a batch opened at `opened` (trace nanos) that left
    /// `depth` jobs queued, through one `engine.multiply_batch` over
    /// strided views of the pooled wire buffers (no transpose copy, no
    /// intermediate `Vec`), and hand each result, as a pooled wire-order
    /// buffer, with its connection's sink to `deliver`. Each job's operands are
    /// back in the pool before its delivery.
    pub fn run(
        &self,
        jobs: Vec<Job<T>>,
        opened: u64,
        depth: u64,
        mut deliver: impl FnMut(&Arc<dyn CompletionSink>, Completion),
    ) {
        let metrics = self.metrics;
        let exec_start = Instant::now();
        // The `BatchForm` event spans the batch's formation, from the
        // combiner's claim (or its previous batch) to execution start;
        // tagged with the first job's request id.
        let formed = trace::now_nanos();
        let opener_id = jobs.first().map_or(0, |job| job.request_id);
        let batch = Event::span(Kind::BatchForm, opener_id, opened, formed);
        trace::record(batch.with_args([self.conn, jobs.len() as u64, depth]));
        for job in &jobs {
            let wait = exec_start - job.enqueued;
            metrics.record_queue_wait(wait);
            if trace::enabled() {
                // The wait span ends where the batch starts executing;
                // its start is reconstructed from the measured wait so no
                // clock read happens on the admission path.
                let start = formed.saturating_sub(nanos(wait)).max(1);
                trace::record(Event::span(Kind::QueueWait, job.request_id, start, formed));
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
                    .with_tag(job.request_id)
                })
                .collect();
            self.engine.multiply_batch(&mut items);
        }
        metrics.record_batch(jobs.len());
        let service = exec_start.elapsed();
        for (job, mut result) in jobs.into_iter().zip(results) {
            metrics.record_service(service);
            let total = job.enqueued.elapsed();
            metrics.record_latency(total);
            if total >= self.slow_threshold {
                // The reply is written after hand-off, out of sight here,
                // so the split is queue wait against execution.
                let now = trace::now_nanos();
                let start = now.saturating_sub(nanos(total));
                let slow = Event::span(Kind::SlowRequest, job.request_id, start, now);
                let wait = total.saturating_sub(service);
                trace::record(slow.with_args([nanos(wait), nanos(service), 0]));
            }
            result.host_to_wire();
            let Job { a, b, m, n, request_id, sink, .. } = job;
            // Operands must be back in the pool *before* the completion
            // wakes the connection's writer: the client's next request can
            // race the tail of this iteration and must find them idle.
            drop(a);
            drop(b);
            deliver(&sink, Completion { request_id, m, n, result: result.into() });
        }
    }
}

/// Run `queue`'s batches on the calling thread if it wins the executor
/// bit, until the queue is empty; return at once otherwise. Every result
/// goes to `deliver` with its connection's sink; `hand_off` runs after each
/// batch that more follow, so what a batch owes the combiner's own
/// connection need not wait out the whole turn.
pub fn combine<T: GemmScalar>(
    queue: &BatchQueue<T>,
    gate: &Gate,
    runner: &BatchRunner<'_, T>,
    max_batch: usize,
    mut deliver: impl FnMut(&Arc<dyn CompletionSink>, Completion),
    mut hand_off: impl FnMut(),
) where
    WireBuf: From<PooledBuf<T>>,
{
    if !queue.try_claim() {
        return;
    }
    loop {
        let opened = trace::now_nanos();
        gate.pass(|| queue.depth() > 0);
        let Some(jobs) = queue.next_batch(max_batch) else { return };
        runner.run(jobs, opened, queue.depth() as u64, &mut deliver);
        queue.completed.fetch_add(1, Ordering::Relaxed);
        if queue.depth() > 0 {
            hand_off();
        }
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

    /// Test sink: collects completions.
    #[derive(Default)]
    struct Collector {
        done: Mutex<Vec<Completion>>,
    }

    impl CompletionSink for Collector {
        fn complete(&self, completion: Completion) {
            self.done.lock().expect("collector poisoned").push(completion);
        }
    }

    impl Collector {
        fn results(&self) -> Vec<(u64, Matrix<f64>)> {
            let done = self.done.lock().expect("collector poisoned");
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

    /// `combine` over `queue` on this thread, with no slow threshold,
    /// delivering to each job's sink.
    fn drain(
        queue: &BatchQueue<f64>,
        gate: &Gate,
        engine: &FmmEngine<f64>,
        pools: &IngestPools,
        metrics: &Metrics,
        policy: BatchPolicy,
    ) {
        let runner = BatchRunner {
            engine,
            pool: &pools.f64,
            metrics,
            conn: 0,
            slow_threshold: Duration::MAX,
        };
        let deliver = |sink: &Arc<dyn CompletionSink>, completion| sink.complete(completion);
        combine(queue, gate, &runner, policy.max_batch, deliver, || {});
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
        let sink = sink.clone() as Arc<dyn CompletionSink>;
        (Job { a: pa, b: pb, m: n, k: n, n, request_id, sink, enqueued: Instant::now() }, a, b)
    }

    #[test]
    fn queue_refuses_beyond_capacity_and_after_close() {
        let pools = IngestPools::new(8, usize::MAX);
        let sink = Arc::new(Collector::default());
        let q = BatchQueue::<f64>::new(2);
        let push = |seed| q.try_push(job(&pools, &sink, 4, seed, seed).0);
        assert!(push(1).is_ok());
        assert!(push(3).is_ok());
        assert_eq!(push(5), Err(Refusal::Full), "capacity refusal is the retryable kind");
        assert_eq!(q.depth(), 2);
        q.close();
        assert_eq!(push(7), Err(Refusal::Closed), "closed queue must refuse as Closed");
        // Draining still works after close…
        assert!(q.try_claim());
        assert_eq!(q.next_batch(8).map(|jobs| jobs.len()), Some(2));
        // …and then ends the turn.
        assert!(q.next_batch(8).is_none());
        assert_eq!(q.progress().0, 0);
    }

    #[test]
    fn one_combiner_per_dtype_holds_the_bit_until_the_queue_is_empty() {
        let pools = IngestPools::new(8, usize::MAX);
        let sink = Arc::new(Collector::default());
        let q = BatchQueue::<f64>::new(4);
        assert!(!q.try_claim(), "an empty queue has nothing to run");
        let (j1, _, _) = job(&pools, &sink, 4, 1, 1);
        let (j2, _, _) = job(&pools, &sink, 4, 3, 2);
        assert!(q.try_push(j1).is_ok());
        assert!(q.try_push(j2).is_ok());
        assert_eq!(q.progress().0, 2, "queued jobs are work");
        assert!(q.try_claim(), "a pusher claims the bit its queue's jobs wait on");
        assert!(!q.try_claim(), "one combiner per dtype at a time");
        assert_eq!(q.progress().0, 3, "so is a held bit");
        assert_eq!(q.next_batch(1).map(|jobs| jobs.len()), Some(1), "max_batch bounds a batch");
        assert!(!q.try_claim(), "the bit stays held while jobs remain");
        assert_eq!(q.next_batch(1).map(|jobs| jobs.len()), Some(1));
        assert!(q.next_batch(1).is_none());
        assert_eq!(q.progress().0, 0, "the turn's end released the bit");
    }

    #[test]
    fn racing_pushers_leave_no_job_behind() {
        // Four readers push and try to combine at once: whoever holds the
        // bit runs everyone's jobs, and every job completes exactly once.
        let engine = tiny_engine();
        let pools = IngestPools::new(64, usize::MAX);
        let sink = Arc::new(Collector::default());
        let metrics = Metrics::default();
        let (queue, gate) = (BatchQueue::new(256), Gate::default());
        let policy = BatchPolicy { window: Duration::from_secs(10), max_batch: 4 };
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (queue, gate, engine, pools, metrics, sink) =
                    (&queue, &gate, &engine, &pools, &metrics, &sink);
                s.spawn(move || {
                    for i in 0..25 {
                        let (j, _, _) = job(pools, sink, 4, t * 100 + i, t * 100 + i);
                        assert!(queue.try_push(j).is_ok());
                        drain(queue, gate, engine, pools, metrics, policy);
                    }
                });
            }
        });
        let mut ids: Vec<u64> = sink.results().into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        let want: Vec<u64> = (0..4).flat_map(|t| (0..25).map(move |i| t * 100 + i)).collect();
        assert_eq!(ids, want);
        let snap = metrics.snapshot();
        assert_eq!(queue.progress(), (0, snap.batches), "no job queued, no bit held");
        assert_eq!(snap.batched_items, 100);
    }

    #[test]
    fn a_combiner_with_nothing_arriving_runs_at_once() {
        let engine = tiny_engine();
        let pools = IngestPools::new(16, usize::MAX);
        let sink = Arc::new(Collector::default());
        let metrics = Metrics::default();
        let (queue, gate) = (BatchQueue::new(16), Gate::default());
        let ten_seconds = BatchPolicy { window: Duration::from_secs(10), max_batch: 8 };
        let (j, _, _) = job(&pools, &sink, 4, 1, 1);
        assert!(queue.try_push(j).is_ok());
        let t0 = Instant::now();
        drain(&queue, &gate, &engine, &pools, &metrics, ten_seconds);
        assert!(t0.elapsed() < Duration::from_secs(5), "waited {:?}", t0.elapsed());
        assert_eq!(sink.results().len(), 1);
    }

    #[test]
    fn a_combiner_hands_off_between_batches_only() {
        let engine = tiny_engine();
        let pools = IngestPools::new(16, usize::MAX);
        let sink = Arc::new(Collector::default());
        let metrics = Metrics::default();
        let (queue, gate) = (BatchQueue::new(16), Gate::default());
        for seed in 0..3u64 {
            let (j, _, _) = job(&pools, &sink, 4, seed * 2 + 1, seed);
            assert!(queue.try_push(j).is_ok());
        }
        let runner = BatchRunner {
            engine: &engine,
            pool: &pools.f64,
            metrics: &metrics,
            conn: 0,
            slow_threshold: Duration::MAX,
        };
        let (mut delivered, mut hand_offs) = (0, Vec::new());
        let deliver = |sink: &Arc<dyn CompletionSink>, completion| {
            sink.complete(completion);
            delivered += 1;
        };
        // Each hand-off sees what the batches before it delivered; the
        // last batch is followed by none.
        combine(&queue, &gate, &runner, 1, deliver, || hand_offs.push(sink.results().len()));
        assert_eq!(delivered, 3);
        assert_eq!(hand_offs, [1, 2]);
    }

    #[test]
    fn dispatcher_coalesces_queued_jobs_and_completes_each_by_id() {
        let engine = tiny_engine();
        let pools = IngestPools::new(16, usize::MAX);
        let sink = Arc::new(Collector::default());
        let metrics = Metrics::default();
        let (queue, gate) = (BatchQueue::new(16), Gate::default());
        let mut expected = Vec::new();
        for seed in 0..6u64 {
            let (j, a, b) = job(&pools, &sink, 24, seed * 2 + 1, 100 + seed);
            expected.push((100 + seed, fmm_gemm::reference::matmul(a.as_ref(), b.as_ref())));
            assert!(queue.try_push(j).is_ok());
        }

        let policy = BatchPolicy { window: Duration::from_millis(50), max_batch: 8 };
        drain(&queue, &gate, &engine, &pools, &metrics, policy);

        let mut got = sink.results();
        assert_eq!(got.len(), 6);
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
        let metrics = Metrics::default();
        let (queue, gate) = (BatchQueue::new(16), Gate::default());
        for seed in 0..3u64 {
            let (j, _, _) = job(&pools, &sink, 16, seed * 2 + 20, seed);
            assert!(queue.try_push(j).is_ok());
        }
        let policy = BatchPolicy { window: Duration::ZERO, max_batch: 1 };
        drain(&queue, &gate, &engine, &pools, &metrics, policy);
        assert_eq!(sink.results().len(), 3);
        let snap = metrics.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.max_occupancy, 1);
    }

    #[test]
    fn warm_dispatch_hits_the_result_pool() {
        let engine = tiny_engine();
        let pools = IngestPools::new(16, usize::MAX);
        let sink = Arc::new(Collector::default());
        let metrics = Metrics::default();
        let (queue, gate) = (BatchQueue::new(4), Gate::default());
        let policy = BatchPolicy { window: Duration::ZERO, max_batch: 4 };
        // Two rounds of the same shape: round 1 warms the pool, round 2
        // must be all hits for the result buffers.
        for round in 0..2 {
            let (j, _, _) = job(&pools, &sink, 8, 50 + round, round);
            assert!(queue.try_push(j).is_ok());
            drain(&queue, &gate, &engine, &pools, &metrics, policy);
        }
        assert_eq!(sink.results().len(), 2);
        let misses_after_warm = pools.f64.stats().misses;
        // Drop the collected results back to the pool, then run a third
        // warm round: zero new allocations end to end.
        sink.done.lock().expect("collector poisoned").clear();
        let (j, _, _) = job(&pools, &sink, 8, 60, 9);
        assert!(queue.try_push(j).is_ok());
        drain(&queue, &gate, &engine, &pools, &metrics, policy);
        assert_eq!(sink.results().len(), 1);
        assert_eq!(
            pools.f64.stats().misses,
            misses_after_warm,
            "warm-path dispatch allocated a payload buffer"
        );
    }
}
