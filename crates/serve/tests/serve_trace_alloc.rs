//! Proof that the warm serving path stays allocation-free with tracing
//! enabled. Lives in its own integration-test binary (= its own process)
//! because the proof reads process-global `fmm_obs` counters that other
//! tests would perturb.

use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_model::ArchParams;
use fmm_serve::{PipelinedClient, ServeConfig, Server};
use std::sync::Arc;

#[test]
fn warm_serving_path_allocates_nothing_with_tracing_on() {
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
    let handle = Server::spawn_with_engines(
        ServeConfig { trace: true, ..ServeConfig::default() },
        Arc::new(FmmEngine::<f64>::new(engine_config.clone())),
        Arc::new(FmmEngine::<f32>::new(engine_config)),
    )
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
    for _ in 0..WARM {
        client.multiply(&a, &b).expect("warm multiply");
    }

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
