//! What a warm daemon request costs the heap, with tracing enabled: no
//! payload buffer (the pools' miss counters stay flat) and a counted
//! number of small heap calls (a counting global allocator). Lives in its
//! own integration-test binary (= its own process) because both the
//! `fmm_obs` counters and the allocation counter are process-global.

use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_model::ArchParams;
use fmm_serve::{BatchPolicy, PipelinedClient, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only added
// behavior is a relaxed counter bump, which cannot violate GlobalAlloc's
// contract (layout and pointer are forwarded untouched).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout pair came from a matching alloc call.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr/layout pair came from a matching alloc call.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap calls of one warm 48³ request, which its connection's reader runs
/// as a one-job batch and answers itself, client included:
/// * the batch's job list, result-buffer list and `BatchItem` list: 3;
/// * `multiply_batch`'s decision list: 1;
/// * the plain GEMM the engine routes 48³ to, one block: its destination
///   list, B-slice list and A-slice list: 3;
/// * the client's result `Matrix`, which the reply is read into straight
///   off the socket (the request goes out from the operands themselves):
///   1.
///
/// The reply's header ‖ prelude is an array inside the queued reply, and
/// the connection's reply queue keeps its capacity, so the reply path
/// adds none.
const PER_REQUEST: u64 = 3 + 1 + 3 + 1;
/// Heap calls outside any request that may land in the window: the
/// watchdog's first judging pass, 100 ms after spawn, grows its
/// per-component state once.
const WATCHDOG_FIRST_PASS: u64 = 1;

#[test]
fn warm_serving_path_allocates_nothing_with_tracing_on() {
    // A default daemon, then a zero-window one: the same path. One
    // process, so one at a time: the allocation counter is process-global.
    warm_requests(ServeConfig { trace: true, ..ServeConfig::default() }, PER_REQUEST);
    let batch = BatchPolicy { window: Duration::ZERO, ..BatchPolicy::default() };
    warm_requests(ServeConfig { trace: true, batch, ..ServeConfig::default() }, PER_REQUEST);
}

/// Serve warm 48³ requests from one closed-loop client on a daemon built
/// from `config`, and hold each to `per_request` heap calls and the whole
/// run to flat pool misses.
fn warm_requests(config: ServeConfig, per_request: u64) {
    // One connection + single engine worker. The recorder's rings are
    // statics (`fmm-obs`'s `recorder_alloc.rs` proves a record never
    // allocates); here the whole warm request path is held to flat pool
    // misses while every request records its spans.
    let engine_config = EngineConfig {
        parallel: true,
        workers: 1,
        arch: ArchSource::Fixed(ArchParams::paper_machine()),
        routing: Routing::Model,
        ..EngineConfig::default()
    };
    let engine = Arc::new(FmmEngine::<f64>::new(engine_config.clone()));
    assert_eq!(engine.decision_label(48, 48, 48), "GEMM");
    let handle =
        Server::spawn_with_engines(config, engine, Arc::new(FmmEngine::<f32>::new(engine_config)))
            .expect("bind loopback");

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fmm_dense::fill::bench_workload(48, 48, 1);
    let b = fmm_dense::fill::bench_workload(48, 48, 2);

    // Warmup: fill the buffer pools and let the engine build its
    // decision/plan/arena caches.
    for _ in 0..6 {
        client.multiply(&a, &b).expect("warmup multiply");
    }

    let events_warm = fmm_obs::trace::events_recorded();
    let pool_misses_warm = pool_misses(&handle);
    assert!(events_warm > 0, "tracing on but no event was recorded");

    const WARM: u64 = 20;
    let per_call: Vec<u64> = (0..WARM)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            client.multiply(&a, &b).expect("warm multiply");
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    let total: u64 = per_call.iter().sum();
    assert!(
        per_call.iter().all(|&n| n >= per_request)
            && total <= WARM * per_request + WATCHDOG_FIRST_PASS,
        "warm requests made {per_call:?} heap calls, not {per_request} each"
    );

    assert_eq!(pool_misses(&handle), pool_misses_warm, "warm serving allocated a payload buffer");
    // RequestRecv, Admission, QueueWait, BatchForm and ReplyFlush at least.
    let recorded = fmm_obs::trace::events_recorded() - events_warm;
    assert!(recorded >= 5 * WARM, "the warm runs recorded only {recorded} events");
    assert_eq!(fmm_obs::trace::events_dropped(), 0, "a lone request's events never collide");
    handle.shutdown();
}

/// Ingest-pool misses for both dtypes, read from the stats snapshot the
/// StatsJson frame exports.
fn pool_misses(handle: &fmm_serve::ServerHandle) -> (u64, u64) {
    let stats = handle.stats();
    let get = |name: &str| stats.counter(name).unwrap_or_else(|e| panic!("{e}"));
    (get("fmm_serve_pool_f64_misses"), get("fmm_serve_pool_f32_misses"))
}
