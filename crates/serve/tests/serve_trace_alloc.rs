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
    // Single event loop + single engine worker: every span-recording
    // thread (loop 0, the f64 dispatcher) is exercised by the warmup, so
    // a flat ring count afterwards proves the warm path never allocates
    // a recorder ring — and flat pool misses prove the payload path never
    // allocates a buffer.
    let engine_config = EngineConfig {
        parallel: true,
        workers: 1,
        arch: ArchSource::Fixed(ArchParams::paper_machine()),
        routing: Routing::Model,
        ..EngineConfig::default()
    };
    let handle = Server::spawn_with_engines(
        ServeConfig { trace: true, event_threads: 1, ..ServeConfig::default() },
        Arc::new(FmmEngine::<f64>::new(engine_config.clone())),
        Arc::new(FmmEngine::<f32>::new(engine_config)),
    )
    .expect("bind loopback");

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fmm_dense::fill::bench_workload(48, 48, 1);
    let b = fmm_dense::fill::bench_workload(48, 48, 2);

    // Warmup: create the per-thread recorder rings, fill the buffer
    // pools, and let the engine build its decision/plan/arena caches.
    for _ in 0..6 {
        client.multiply(&a, &b).expect("warmup multiply");
    }

    let rings_warm = fmm_obs::trace::ring_allocations();
    let events_warm = fmm_obs::trace::events_recorded();
    let pool_misses_warm = pool_misses(&handle);
    assert!(rings_warm > 0, "tracing on but no recorder ring was ever created");
    assert!(events_warm > 0, "tracing on but no span was recorded");

    for _ in 0..20 {
        client.multiply(&a, &b).expect("warm multiply");
    }

    assert_eq!(
        fmm_obs::trace::ring_allocations(),
        rings_warm,
        "warm serving allocated a new recorder ring"
    );
    assert_eq!(pool_misses(&handle), pool_misses_warm, "warm serving allocated a payload buffer");
    assert!(
        fmm_obs::trace::events_recorded() > events_warm,
        "tracing stayed on but the warm runs recorded no spans"
    );
    handle.shutdown();
}

/// Ingest-pool misses for both dtypes, read from the registry snapshot
/// the StatsJson frame exports.
fn pool_misses(handle: &fmm_serve::ServerHandle) -> (i64, i64) {
    use fmm_core::json::Value;
    let Value::Object(root) = handle.stats_json() else { panic!("stats body is not an object") };
    let Some(Value::Object(counters)) = root.get("counters").cloned() else {
        panic!("no counters section")
    };
    let get = |name: &str| match counters.get(name) {
        Some(Value::Int(v)) => *v,
        other => panic!("counter {name} missing: {other:?}"),
    };
    (get("fmm_serve_pool_f64_misses"), get("fmm_serve_pool_f32_misses"))
}
