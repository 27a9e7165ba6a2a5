//! Watchdog + incident integration tests: an injected dispatcher wedge
//! must surface as a stall verdict (counter + flight event naming the
//! component) within the detection deadline, and a healthy daemon under
//! pipelined load must produce zero stall verdicts while still serving
//! schema-valid incident dumps over the wire.
//!
//! The flight ring and the `WEDGE_DISPATCH` hook are process-global, so
//! the two scenarios serialize on a local mutex instead of trusting the
//! test harness's thread scheduling.

use fmm_core::json;
use fmm_dense::fill;
use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_model::ArchParams;
use fmm_serve::{BatchPolicy, PipelinedClient, ServeConfig, Server, ServerHandle};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static SCENARIO_LOCK: Mutex<()> = Mutex::new(());

fn pinned_engines() -> (Arc<FmmEngine<f64>>, Arc<FmmEngine<f32>>) {
    let config = EngineConfig {
        parallel: true,
        arch: ArchSource::Fixed(ArchParams::paper_machine()),
        routing: Routing::Pinned {
            dims: (9, 9, 9),
            levels: 1,
            variant: fmm_engine::Variant::Naive,
        },
        ..EngineConfig::default()
    };
    (Arc::new(FmmEngine::<f64>::new(config.clone())), Arc::new(FmmEngine::<f32>::new(config)))
}

fn spawn_watched(event_threads: usize) -> ServerHandle {
    let (e64, e32) = pinned_engines();
    Server::spawn_with_engines(
        ServeConfig {
            batch: BatchPolicy {
                window: Duration::from_millis(2),
                max_batch: 8,
                straggler_gap: Duration::from_millis(2),
            },
            event_threads,
            watchdog: true,
            // Short stall deadline so the wedge test converges fast; the
            // healthy test must stay quiet even at this sensitivity.
            watchdog_stall: Duration::from_millis(150),
            ..ServeConfig::default()
        },
        e64,
        e32,
    )
    .expect("bind loopback")
}

/// Pull the named section out of an incident document.
fn section<'a>(
    doc: &'a json::Value,
    key: &str,
) -> &'a std::collections::BTreeMap<String, json::Value> {
    let json::Value::Object(root) = doc else { panic!("incident dump is an object") };
    let Some(json::Value::Object(map)) = root.get(key) else {
        panic!("incident dump has object section {key:?}");
    };
    map
}

/// Decode the typed flight events out of an incident document.
fn flight_events(doc: &json::Value) -> Vec<fmm_obs::FlightEvent> {
    let json::Value::Object(root) = doc else { panic!("incident dump is an object") };
    let Some(json::Value::Array(flight)) = root.get("flight") else {
        panic!("incident dump has a flight array");
    };
    flight
        .iter()
        .filter_map(|item| {
            let json::Value::Object(rec) = item else { return None };
            let num = |key: &str| match rec.get(key) {
                Some(json::Value::Int(v)) => *v as u64,
                _ => 0,
            };
            fmm_obs::FlightEvent::decode(num("kind_id"), num("a"), num("b"), num("c"), num("d"))
        })
        .collect()
}

/// An injected dispatcher wedge is detected, counted, and named: park the
/// dispatchers before they pop work (the flag goes up before the daemon
/// spawns — a dispatcher already blocked inside `pop_first` is past the
/// check and would consume the job), enqueue a request so the progress
/// probe sees depth, and the watchdog must record a stall verdict within
/// a few deadlines — attributable through the incident dump to a
/// `dispatch-*` component. Unwedging lets the request complete normally.
#[test]
fn wedged_dispatcher_is_detected_and_named() {
    let _guard = SCENARIO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fmm_serve::dispatch::WEDGE_DISPATCH.store(true, Ordering::Relaxed);
    let handle = spawn_watched(1);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");

    let a = fill::bench_workload(24, 16, 1);
    let b = fill::bench_workload(16, 20, 2);
    let id = client.send(&a, &b).expect("send while wedged");

    // Stall deadline is 150 ms with a 100 ms check interval; allow a
    // generous CI multiple before declaring the watchdog blind.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.watchdog_stalls() == 0 {
        assert!(Instant::now() < deadline, "watchdog never saw the wedged dispatcher");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The stall must be attributable: a watchdog-stall flight event whose
    // component id resolves to a dispatcher in the incident dump roster.
    let doc = handle.incident_json();
    let wd = section(&doc, "watchdog");
    let Some(json::Value::Array(names)) = wd.get("components") else {
        panic!("watchdog section lists components");
    };
    let stalled = flight_events(&doc)
        .into_iter()
        .find_map(|event| match event {
            fmm_obs::FlightEvent::WatchdogStall { component, .. } => Some(component),
            _ => None,
        })
        .expect("a watchdog-stall flight event was recorded");
    let stalled_name = match names.get(stalled as usize) {
        Some(json::Value::String(name)) => name.clone(),
        other => panic!("stalled component {stalled} resolves to a name, got {other:?}"),
    };
    assert!(
        stalled_name.starts_with("dispatch-"),
        "stall blamed on {stalled_name:?}, expected a dispatcher"
    );

    // The offline analyzer must tell the same story: write the dump out
    // and run `fmm_serve doctor` on it, expecting the dispatcher named.
    let dir = std::env::temp_dir().join(format!("fmm-doctor-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dump_path = dir.join("incident-wedge.json");
    std::fs::write(&dump_path, json::to_string_pretty(&doc)).expect("write dump");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmm_serve"))
        .arg("doctor")
        .arg(&dump_path)
        .output()
        .expect("doctor runs");
    assert!(out.status.success(), "doctor exits 0 on a valid dump");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains(&format!("stalled component: {stalled_name}")),
        "doctor names the wedged dispatcher:\n{report}"
    );
    assert!(
        report.lines().any(|l| l.starts_with("diagnosis:") && l.contains(&stalled_name)),
        "doctor's diagnosis blames the wedged dispatcher:\n{report}"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Unwedge: the parked job drains and the response arrives.
    fmm_serve::dispatch::WEDGE_DISPATCH.store(false, Ordering::Relaxed);
    let c: fmm_dense::Matrix<f64> = client.recv(id).expect("response after unwedge");
    assert_eq!((c.rows(), c.cols()), (24, 20));
    drop(client);
    handle.shutdown();
}

/// A healthy 4-event-thread daemon under pipelined load produces zero
/// stall verdicts, and its wire-requested incident dump is schema-valid
/// with a populated flight ring and watchdog roster.
#[test]
fn healthy_daemon_has_zero_stall_verdicts() {
    let _guard = SCENARIO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fmm_serve::dispatch::WEDGE_DISPATCH.store(false, Ordering::Relaxed);
    let handle = spawn_watched(4);

    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let a = fill::bench_workload(24, 16, 3);
    let b = fill::bench_workload(16, 20, 4);
    let mut pending = Vec::new();
    for _ in 0..24 {
        pending.push(client.send(&a, &b).expect("send"));
        if pending.len() >= 6 {
            let id = pending.remove(0);
            let _: fmm_dense::Matrix<f64> = client.recv(id).expect("recv");
        }
    }
    for id in pending {
        let _: fmm_dense::Matrix<f64> = client.recv(id).expect("drain");
    }

    // Let the watchdog run a few check intervals over the idle-but-live
    // daemon before asking for the verdict.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(handle.watchdog_stalls(), 0, "healthy daemon must produce no stall verdicts");

    // Incident dump over the wire: schema-tagged, flight ring populated,
    // all loops and dispatchers on the watchdog roster.
    let body = client.incident().expect("incident frame");
    let doc = json::parse(&body).expect("incident dump is valid JSON");
    let json::Value::Object(root) = &doc else { panic!("incident dump is an object") };
    assert_eq!(
        root.get("schema"),
        Some(&json::Value::String(fmm_serve::incident::INCIDENT_SCHEMA.to_string()))
    );
    let wd = section(&doc, "watchdog");
    let Some(json::Value::Array(names)) = wd.get("components") else {
        panic!("watchdog roster present");
    };
    assert_eq!(names.len(), 6, "4 event loops + 2 dispatchers on the roster: {names:?}");
    assert!(!flight_events(&doc).is_empty(), "flight ring captured the load");
    let json::Value::Object(build) = root.get("build").expect("build section") else {
        panic!("build section is an object");
    };
    assert!(build.contains_key("version") && build.contains_key("kernel_f64"));

    drop(client);
    handle.shutdown();
}
