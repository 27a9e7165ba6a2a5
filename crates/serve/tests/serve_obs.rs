//! End-to-end tests for the observability surface: the `StatsJson`
//! registry export, the incident document, typed errors for unknown frame
//! kinds, and the `Trace` event dump.

use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_model::ArchParams;
use fmm_obs::Kind;
use fmm_serve::protocol::{self, ErrorCode, FrameKind};
use fmm_serve::{DocError, Logged, StatsSnapshot};
use fmm_serve::{Document, Incident, PipelinedClient, ServeConfig, Server, ServerHandle};
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

#[test]
fn stats_json_reports_per_phase_histograms() {
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 8);

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let stats = client.stats().expect("stats json");

    // Serve-side phase histograms: every request since boot is counted.
    for name in ["fmm_serve_latency_nanos", "fmm_serve_queue_wait_nanos", "fmm_serve_service_nanos"]
    {
        let h = stats.histogram(name).expect("phase histogram");
        assert!(h.count >= 8, "{name} undercounted: {h:?}");
        let (p50, p99, max) = (h.p50(), h.p99(), h.max);
        assert!(p50 > 0 && p50 <= p99 && p99 <= max, "{name} quantiles inconsistent: {h:?}");
    }
    // Compute-side split from the process-global registry: the GEMM
    // driver attributes pack vs kernel time on every block call.
    for name in ["fmm_gemm_pack_nanos", "fmm_gemm_kernel_nanos"] {
        let h = stats.histogram(name).expect("gemm histogram");
        assert!(h.count > 0, "{name} empty: {h:?}");
    }

    let requests = stats.counter("fmm_serve_requests_total").expect("request counter");
    assert!(requests >= 8, "request counter low: {requests}");
    // Engine counters are read from `EngineStats::fields()` when the
    // snapshot is taken.
    let executions = stats.counter("fmm_engine_f64_executions").expect("engine counter");
    assert!(executions >= 8, "engine counter low: {executions}");
    handle.shutdown();
}

#[test]
fn every_engine_stats_field_is_exported_in_stats() {
    // `EngineStats::fields()` is the reflection surface the snapshot reads
    // engine counters from; a field added to the struct but forgotten in
    // `fields()` fails the engine's own test, and a name dropped by the
    // server fails this one — for both dtypes, so the f32 engine can't
    // silently lose coverage.
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 2);

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let stats = client.stats().expect("stats json");
    for (name, _) in fmm_engine::EngineStats::default().fields() {
        for prefix in ["fmm_engine_f64_", "fmm_engine_f32_"] {
            let exported = format!("{prefix}{name}");
            assert!(
                stats.counter(&exported).is_ok(),
                "EngineStats field {name:?} not exported as {exported:?}"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn stats_json_exposes_per_class_audit_aggregates() {
    // The acceptance path: under end-to-end load, `stats` must carry
    // per-(shape-class, dtype) audit rows with populated model-error
    // histograms. The client sends the 48x40x44 workload as the
    // daemon's 44x40x48 problem (`Cᵀ = Bᵀ·Aᵀ`), which buckets to the
    // 32x32x64 class; the audit table is process-global, so assertions are
    // lower bounds.
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 8);

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let stats = client.stats().expect("stats json");

    let samples = stats.counter("fmm_audit_samples_total").expect("audit sample total");
    assert!(samples >= 8, "audit sample total low: {samples}");
    let entry = stats.audit_row("32x32x64/f64").expect("audit row");
    assert!(entry.samples >= 8, "audit row undercounted: {entry:?}");
    assert!(entry.measured_nanos > 0, "audit row lost measured time: {entry:?}");
    let h = &entry.err_permille;
    assert!(h.count >= 8, "audit error histogram undercounted: {h:?}");
    // The exact-extrema satellite: min is reported and brackets p50.
    assert!(h.min <= h.p50(), "exact min exceeds p50: {h:?}");
    // The histogram travels inside its audit row only, not twice.
    assert!(
        !stats.histograms.keys().any(|name| name.starts_with("fmm_audit_")),
        "audit histograms duplicated under `histograms`: {:?}",
        stats.histograms.keys()
    );
    // Model routing attributes every sample to the `model` source, and
    // the representative decision string is recorded for the class.
    assert!(entry.by_source[0] >= 8, "model-routed samples missing: {:?}", entry.by_source);
    assert!(!entry.chosen.is_empty(), "no representative decision recorded: {entry:?}");
    handle.shutdown();
}

#[test]
fn stats_and_incident_round_trip_through_json() {
    // A populated daemon: traffic through both dtypes, tracing on so the
    // incident carries spans as well as always-on events, and a watchdog
    // roster.
    let handle = spawn_server(ServeConfig { trace: true, ..ServeConfig::default() });
    run_multiplies(handle.addr(), 4);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fmm_dense::fill::bench_workload_t::<f32>(24, 16, 5);
    let b = fmm_dense::fill::bench_workload_t::<f32>(16, 20, 6);
    client.multiply(&a, &b).expect("served f32 multiply");

    let stats = client.stats().expect("stats");
    assert!(!stats.audit.is_empty() && !stats.histograms.is_empty());
    assert_eq!(StatsSnapshot::from_json(&stats.to_json()), Ok(stats));

    let incident = Incident::from_json(&handle.incident().to_json()).expect("incident");
    assert_eq!(incident.trigger, "on-demand");
    let spans = incident.events.iter().filter(|l| !l.event.kind.always_on()).count();
    assert!(spans > 0 && spans < incident.events.len(), "spans and always-on events both dumped");
    assert!(!incident.watchdog.components.is_empty());
    assert_eq!(Incident::from_json(&incident.to_json()), Ok(incident));
    handle.shutdown();
}

#[test]
fn malformed_documents_fail_naming_the_key() {
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 1);
    let text = handle.stats().to_json();
    let incident = handle.incident().to_json();
    handle.shutdown();

    // Without `counters`: the error names the section, not a zero.
    let start = text.find("  \"counters\": {").expect("counters section");
    let end = start + text[start..].find("\n  },\n").expect("end of counters") + 6;
    let without = format!("{}{}", &text[..start], &text[end..]);
    let err = StatsSnapshot::from_json(&without).expect_err("no counters");
    assert_eq!(err.key, "counters", "{err}");
    assert_eq!(err.reason, "missing");

    // A string where a count belongs: the error names that counter.
    let needle = "\"fmm_serve_requests_total\": ";
    let at = text.find(needle).expect("request counter") + needle.len();
    let digits = text[at..].find(',').expect("counter value ends");
    let mistyped = format!("{}\"many\"{}", &text[..at], &text[at + digits..]);
    let err = StatsSnapshot::from_json(&mistyped).expect_err("string count");
    assert_eq!(
        err,
        DocError {
            key: "counters.fmm_serve_requests_total".into(),
            reason: "expected an integer".into()
        }
    );
    assert!(err.to_string().contains("counters.fmm_serve_requests_total"), "{err}");

    // The watchdog always runs, so an incident whose roster is `{}`
    // names the missing key.
    let start = incident.find("  \"watchdog\": {").expect("watchdog section");
    let end = start + incident[start..].find("\n  }").expect("end of watchdog") + 4;
    let without = format!("{}  \"watchdog\": {{}}{}", &incident[..start], &incident[end..]);
    let err = Incident::from_json(&without).expect_err("empty watchdog roster");
    assert_eq!((err.key.as_str(), err.reason.as_str()), ("watchdog.components", "missing"));
}

#[test]
fn unknown_event_kinds_stay_readable() {
    let handle = spawn_server(ServeConfig::default());
    run_multiplies(handle.addr(), 1);
    let events = handle.incident().events;
    handle.shutdown();

    // An event of a kind only a newer binary knows keeps its raw fields
    // and the detail line that binary wrote; only its kind is `Other`.
    let first = format!("\"kind\": \"{}\"", events[0].event.kind.name());
    let renamed = events.to_json().replacen(&first, "\"kind\": \"FutureKind\"", 1);
    let decoded = Vec::<Logged>::from_json(&renamed).expect("an unknown kind decodes");
    assert_eq!(decoded.len(), events.len());
    assert_eq!(decoded[0].event.kind, Kind::Other);
    let raw =
        |l: &Logged| (l.event.request_id, l.event.start_nanos, l.event.args, l.detail.clone());
    assert_eq!(raw(&decoded[0]), raw(&events[0]));
    assert_eq!(decoded[1..], events[1..]);
}

#[test]
fn unknown_frame_kind_gets_a_typed_error() {
    // A kind byte this server does not know — 99, the retired plaintext
    // stats request (6) and the retired incident request (11) — must get a
    // typed Malformed error, not a hang or a panic.
    let handle = spawn_server(ServeConfig::default());
    for kind in [99, 6, 11] {
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

    let events = client.trace(0).expect("trace dump");
    assert!(!events.is_empty(), "tracing server recorded no spans");

    let mut kinds = std::collections::BTreeSet::new();
    let mut tagged = false;
    for Logged { event, .. } in &events {
        kinds.insert(event.kind.name());
        tagged |= ids.contains(&event.request_id);
        assert!(event.start_nanos <= event.end_nanos, "span ends before it starts: {event:?}");
    }
    for kind in ["RequestRecv", "Admission", "QueueWait", "BatchForm", "ReplyFlush"] {
        assert!(kinds.contains(kind), "no {kind} span in {kinds:?}");
    }
    assert!(tagged, "no span carried one of the pipelined request ids {ids:?}");

    // `--last N` semantics: the budget bounds the dump.
    let bounded = client.trace(3).expect("bounded trace dump");
    assert!(bounded.len() <= 3, "last=3 returned {} spans", bounded.len());
    handle.shutdown();
}
