//! Watchdog + incident integration tests: an executor wedged by the
//! server's combiner hold must surface as a stall verdict (counter + stall
//! event naming the component) within the detection deadline, and a
//! healthy daemon under pipelined load must produce zero stall verdicts
//! while still serving schema-valid incident dumps over the wire.

use fmm_dense::fill;
use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_model::ArchParams;
use fmm_obs::{Event, Kind};
use fmm_serve::{
    BatchPolicy, Document, Incident, PipelinedClient, ServeConfig, Server, ServerHandle,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pinned_engines() -> (Arc<FmmEngine<f64>>, Arc<FmmEngine<f32>>) {
    let config = EngineConfig {
        parallel: true,
        arch: ArchSource::Fixed(ArchParams::paper_machine()),
        routing: Routing::Pinned {
            dims: (9, 9, 9),
            levels: 1,
            variant: fmm_engine::Variant::Naive,
            strategy: fmm_engine::Strategy::Dfs,
        },
        ..EngineConfig::default()
    };
    (Arc::new(FmmEngine::<f64>::new(config.clone())), Arc::new(FmmEngine::<f32>::new(config)))
}

fn spawn_watched() -> ServerHandle {
    let (e64, e32) = pinned_engines();
    Server::spawn_with_engines(
        ServeConfig {
            batch: BatchPolicy { window: Duration::from_millis(2), max_batch: 8 },
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

/// The always-on events of an incident document.
fn notable_events(doc: &Incident) -> Vec<Event> {
    doc.events.iter().map(|l| l.event).filter(|e| e.kind.always_on()).collect()
}

/// A wedged executor is detected, counted, and named: hold the combiners,
/// so the reader of the request below parks holding its dtype's executor
/// bit (the progress probe's work), and the watchdog must record a stall
/// verdict within a few deadlines — attributable through the incident
/// dump to an `executor-*` component. Lifting the hold lets the request
/// complete normally.
#[test]
fn wedged_executor_is_detected_and_named() {
    let handle = spawn_watched();
    handle.gate().hold(true);
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");

    let a = fill::bench_workload(24, 16, 1);
    let b = fill::bench_workload(16, 20, 2);
    let id = client.send(&a, &b).expect("send while wedged");

    // Stall deadline is 150 ms with a 100 ms check interval; allow a
    // generous CI multiple before declaring the watchdog blind.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stalls = || handle.stats().counter("fmm_watchdog_stalls_total").expect("stall counter");
    while stalls() == 0 {
        assert!(Instant::now() < deadline, "watchdog never saw the wedged executor");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The stall must be attributable: a `WatchdogStall` event whose
    // component id resolves to an executor in the incident dump roster.
    let doc = handle.incident();
    let names = &doc.watchdog.components;
    let stalled = notable_events(&doc)
        .into_iter()
        .find(|e| e.kind == Kind::WatchdogStall)
        .map(|e| e.args[0])
        .expect("a WatchdogStall event was recorded");
    let stalled_name = names
        .get(stalled as usize)
        .unwrap_or_else(|| panic!("stalled component {stalled} resolves to a name in {names:?}"));
    assert!(
        stalled_name.starts_with("executor-"),
        "stall blamed on {stalled_name:?}, expected an executor"
    );

    // The offline analyzer must tell the same story: write the dump out
    // and run `fmm_serve doctor` on it, expecting the executor named.
    let dir = std::env::temp_dir().join(format!("fmm-doctor-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dump_path = dir.join("incident-wedge.json");
    std::fs::write(&dump_path, doc.to_json()).expect("write dump");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fmm_serve"))
        .arg("doctor")
        .arg(&dump_path)
        .output()
        .expect("doctor runs");
    assert!(out.status.success(), "doctor exits 0 on a valid dump");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.contains(&format!("stalled component: {stalled_name}")),
        "doctor names the wedged executor:\n{report}"
    );
    assert!(
        report.lines().any(|l| l.starts_with("diagnosis:") && l.contains(stalled_name.as_str())),
        "doctor's diagnosis blames the wedged executor:\n{report}"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Unwedge: the parked combiner drains and the response arrives.
    handle.gate().hold(false);
    let c: fmm_dense::Matrix<f64> = client.recv(id).expect("response after unwedge");
    assert_eq!((c.rows(), c.cols()), (24, 20));
    drop(client);
    handle.shutdown();
}

/// A healthy daemon under pipelined load produces zero stall verdicts,
/// and its wire-requested incident dump is schema-valid with populated
/// always-on events and watchdog roster.
#[test]
fn healthy_daemon_has_zero_stall_verdicts() {
    let handle = spawn_watched();

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
    assert_eq!(
        handle.stats().counter("fmm_watchdog_stalls_total"),
        Ok(0),
        "healthy daemon must produce no stall verdicts"
    );

    // Incident dump over the wire: schema-tagged, always-on events
    // populated, both executors on the watchdog roster.
    let doc = client.incident().expect("incident frame decodes, schema tag included");
    let names = &doc.watchdog.components;
    assert_eq!(names.len(), 2, "the 2 executors on the roster: {names:?}");
    assert!(!notable_events(&doc).is_empty(), "the always-on ring captured the load");
    assert!(!doc.build.version.is_empty() && !doc.build.kernel_f64.is_empty());

    drop(client);
    handle.shutdown();
}
