//! End-to-end tests for the observability surface: the `StatsJson`
//! registry export (JSON and Prometheus), typed errors for unknown frame
//! kinds, and the `Trace` span dump.

use fmm_core::json::{self, Value};
use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_model::ArchParams;
use fmm_serve::protocol::{self, ErrorCode, FrameKind};
use fmm_serve::{PipelinedClient, ServeConfig, Server, ServerHandle};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn spawn_server(config: ServeConfig) -> ServerHandle {
    let engine_config = EngineConfig {
        parallel: true,
        arch: ArchSource::Fixed(ArchParams::paper_machine()),
        routing: Routing::Model,
        ..EngineConfig::default()
    };
    Server::spawn_with_engines(
        config,
        Arc::new(FmmEngine::<f64>::new(engine_config.clone())),
        Arc::new(FmmEngine::<f32>::new(engine_config)),
    )
    .expect("bind loopback")
}

fn run_multiplies(addr: std::net::SocketAddr, count: usize) {
    let mut client = PipelinedClient::connect(addr).expect("connect");
    let a = fmm_dense::fill::bench_workload(48, 40, 1);
    let b = fmm_dense::fill::bench_workload(40, 44, 2);
    for _ in 0..count {
        client.multiply(&a, &b).expect("served multiply");
    }
}

/// Walk `histograms.<name>` in the parsed StatsJson body.
fn histogram<'v>(stats: &'v Value, name: &str) -> &'v Value {
    let Value::Object(root) = stats else { panic!("stats body is not an object") };
    let Some(Value::Object(hists)) = root.get("histograms") else {
        panic!("no histograms section in {root:?}")
    };
    hists.get(name).unwrap_or_else(|| panic!("histogram {name} missing; have {:?}", hists.keys()))
}

fn hist_field(hist: &Value, key: &str) -> i64 {
    let Value::Object(obj) = hist else { panic!("histogram is not an object") };
    match obj.get(key) {
        Some(Value::Int(v)) => *v,
        other => panic!("histogram field {key} missing or non-integer: {other:?}"),
    }
}

#[test]
fn stats_json_reports_per_phase_histograms() {
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 8);

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let body = client.stats_json().expect("stats json");
    let stats = json::parse(&body).expect("valid JSON body");

    // Serve-side phase histograms: every request since boot is counted.
    for name in ["fmm_serve_latency_nanos", "fmm_serve_queue_wait_nanos", "fmm_serve_service_nanos"]
    {
        let h = histogram(&stats, name);
        assert!(hist_field(h, "count") >= 8, "{name} undercounted: {h:?}");
        let (p50, p99, max) =
            (hist_field(h, "p50_nanos"), hist_field(h, "p99_nanos"), hist_field(h, "max_nanos"));
        assert!(p50 > 0 && p50 <= p99 && p99 <= max, "{name} quantiles inconsistent: {h:?}");
    }
    // Compute-side split from the process-global registry: the GEMM
    // driver attributes pack vs kernel time on every block call.
    for name in ["fmm_gemm_pack_nanos", "fmm_gemm_kernel_nanos"] {
        let h = histogram(&stats, name);
        assert!(hist_field(h, "count") > 0, "{name} empty: {h:?}");
    }

    let Value::Object(root) = &stats else { unreachable!() };
    let Some(Value::Object(counters)) = root.get("counters") else { panic!("no counters") };
    assert!(
        matches!(counters.get("fmm_serve_requests_total"), Some(Value::Int(n)) if *n >= 8),
        "request counter missing or low: {:?}",
        counters.get("fmm_serve_requests_total")
    );
    // Engine counters are mirrored into the registry via EngineStats
    // reflection at export time.
    assert!(
        matches!(counters.get("fmm_engine_f64_executions"), Some(Value::Int(n)) if *n >= 8),
        "engine mirror missing: {:?}",
        counters.get("fmm_engine_f64_executions")
    );
    handle.shutdown();
}

#[test]
fn prometheus_exposition_renders_the_same_registry() {
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 2);

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let text = client.stats_prometheus().expect("prometheus exposition");
    for needle in [
        "# TYPE fmm_serve_requests_total counter",
        "# TYPE fmm_serve_latency_nanos summary",
        "fmm_serve_latency_nanos{quantile=\"0.99\"}",
        "fmm_serve_latency_nanos_count",
        "fmm_gemm_kernel_nanos{quantile=\"0.5\"}",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in exposition:\n{text}");
    }
    handle.shutdown();
}

#[test]
fn every_engine_stats_field_is_mirrored_into_stats_json() {
    // `EngineStats::fields()` is the reflection surface the server uses
    // to mirror engine counters into the registry; a field added to the
    // struct but forgotten in `fields()` fails the engine's own test,
    // and a mirrored name dropped by the server fails this one — for
    // both dtypes, so the f32 engine can't silently lose coverage.
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 2);

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let body = client.stats_json().expect("stats json");
    let stats = json::parse(&body).expect("valid JSON body");
    let Value::Object(root) = &stats else { panic!("stats body is not an object") };
    let Some(Value::Object(counters)) = root.get("counters") else { panic!("no counters") };
    for (name, _) in fmm_engine::EngineStats::default().fields() {
        for prefix in ["fmm_engine_f64_", "fmm_engine_f32_"] {
            let mirrored = format!("{prefix}{name}");
            assert!(
                matches!(counters.get(&mirrored), Some(Value::Int(n)) if *n >= 0),
                "EngineStats field {name:?} not mirrored as {mirrored:?}"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn stats_json_exposes_per_class_audit_aggregates() {
    // The acceptance path: under end-to-end load, `stats --json` must
    // carry per-(shape-class, dtype) model-error histograms with nonzero
    // counts plus the full audit rows, and the Prometheus exposition the
    // same aggregates under sanitized names. The 48x40x44 workload
    // buckets to the 64x32x32 class; the audit table is process-global,
    // so assertions are lower bounds.
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 8);

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let body = client.stats_json().expect("stats json");
    let stats = json::parse(&body).expect("valid JSON body");

    let h = histogram(&stats, "fmm_audit_error_permille_64x32x32_f64");
    assert!(hist_field(h, "count") >= 8, "audit error histogram undercounted: {h:?}");
    // The exact-extrema satellite: min is reported and brackets p50.
    assert!(
        hist_field(h, "min_nanos") <= hist_field(h, "p50_nanos"),
        "exact min exceeds p50: {h:?}"
    );

    let Value::Object(root) = &stats else { unreachable!() };
    let Some(Value::Object(counters)) = root.get("counters") else { panic!("no counters") };
    assert!(
        matches!(counters.get("fmm_audit_samples_total"), Some(Value::Int(n)) if *n >= 8),
        "audit sample total missing or low: {:?}",
        counters.get("fmm_audit_samples_total")
    );
    let Some(Value::Object(audit)) = root.get("audit") else { panic!("no audit section") };
    let Some(Value::Object(entry)) = audit.get("64x32x32/f64") else {
        panic!("no 64x32x32/f64 audit row; have {:?}", audit.keys())
    };
    assert!(
        matches!(entry.get("samples"), Some(Value::Int(n)) if *n >= 8),
        "audit row undercounted: {entry:?}"
    );
    assert!(
        matches!(entry.get("measured_nanos"), Some(Value::Int(n)) if *n > 0),
        "audit row lost measured time: {entry:?}"
    );
    // Model routing attributes every sample to the `model` source, and
    // the representative decision string is recorded for the class.
    let Some(Value::Object(sources)) = entry.get("sources") else { panic!("no sources") };
    assert!(
        matches!(sources.get("model"), Some(Value::Int(n)) if *n >= 8),
        "model-routed samples missing: {sources:?}"
    );
    assert!(
        matches!(entry.get("chosen"), Some(Value::String(s)) if !s.is_empty()),
        "no representative decision recorded: {entry:?}"
    );

    let prom = client.stats_prometheus().expect("prometheus exposition");
    for needle in [
        "fmm_audit_samples_total ",
        "fmm_audit_samples_64x32x32_f64 ",
        "fmm_audit_error_permille_64x32x32_f64_count",
        "fmm_audit_error_permille_64x32x32_f64{quantile=\"0.5\"}",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in exposition:\n{prom}");
    }
    handle.shutdown();
}

#[test]
fn unknown_frame_kind_gets_a_typed_error() {
    // A kind byte this server does not know — 99, and the retired
    // plaintext stats request (6) — must get a typed Malformed error, not
    // a hang or a panic.
    let handle = spawn_server(ServeConfig::default());
    for kind in [99, 6] {
        let stream = TcpStream::connect(handle.addr()).expect("connect raw");
        let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = std::io::BufReader::new(stream);
        let mut header = protocol::encode_header(FrameKind::Ping, 0, 0);
        header[5] = kind;
        writer.write_all(&header).expect("write bad kind");
        writer.flush().expect("flush");
        let reply = protocol::read_frame_any(&mut reader, 1 << 20).expect("error reply");
        assert_eq!(reply.kind, FrameKind::Error);
        let (code, message) = protocol::decode_error(&reply.payload);
        assert_eq!(code, ErrorCode::Malformed, "unknown kind must be Malformed: {message}");
    }
    handle.shutdown();
}

#[test]
fn trace_dump_returns_per_request_phase_spans() {
    let handle = spawn_server(ServeConfig { trace: true, ..ServeConfig::default() });

    // Pipelined traffic so spans carry real (non-zero) request ids.
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fmm_dense::fill::bench_workload(40, 32, 3);
    let b = fmm_dense::fill::bench_workload(32, 36, 4);
    let mut ids = Vec::new();
    for _ in 0..4 {
        ids.push(client.send(&a, &b).expect("send"));
    }
    for id in &ids {
        let _: fmm_dense::Matrix<f64> = client.recv(*id).expect("recv");
    }

    let body = client.trace(0).expect("trace dump");
    let value = json::parse(&body).expect("valid trace JSON");
    let Value::Array(events) = &value else { panic!("trace body is not an array") };
    assert!(!events.is_empty(), "tracing server recorded no spans");

    let mut kinds = std::collections::BTreeSet::new();
    let mut tagged = false;
    for event in events {
        let Value::Object(obj) = event else { panic!("span is not an object") };
        let Some(Value::String(kind)) = obj.get("kind") else { panic!("span without kind") };
        kinds.insert(kind.clone());
        if let Some(Value::Int(id)) = obj.get("request_id") {
            tagged |= ids.contains(&(*id as u64));
        }
        for key in ["start_nanos", "end_nanos"] {
            assert!(matches!(obj.get(key), Some(Value::Int(v)) if *v >= 0), "span lacks {key}");
        }
    }
    for kind in ["RequestRecv", "Admission", "QueueWait", "BatchForm", "ReplyFlush"] {
        assert!(kinds.contains(kind), "no {kind} span in {kinds:?}");
    }
    assert!(tagged, "no span carried one of the pipelined request ids {ids:?}");

    // `--last N` semantics: the budget bounds the dump.
    let bounded = client.trace(3).expect("bounded trace dump");
    let Value::Array(bounded) = json::parse(&bounded).expect("valid JSON") else {
        panic!("bounded trace body is not an array")
    };
    assert!(bounded.len() <= 3, "last=3 returned {} spans", bounded.len());
    handle.shutdown();
}
