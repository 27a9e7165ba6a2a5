//! Drives the built binary in `--quick` mode: every workload end to end
//! with verification on, and one traced run, checked against the names
//! `BENCHMARK.json` lists.

use fmm_core::json::{self, Value};
use std::process::Command;

fn ledger(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fmm-ledger")).args(args).output().expect("run fmm-ledger")
}

/// Names under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(key)
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

/// The result object on the last line of `out`, with `"correct": true`
/// checked and cut away (the repository's JSON reader has no booleans).
fn result(out: &std::process::Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().expect("a result line");
    let rest = last.strip_prefix("{\"correct\": true, ").unwrap_or_else(|| panic!("{last}"));
    json::parse(&format!("{{{rest}")).unwrap()
}

fn check(out: &std::process::Output, names: &[String]) {
    let doc = result(out);
    assert_eq!(doc.get("failed").unwrap().as_usize().unwrap(), 0);
    assert!(doc.get("attempted").unwrap().as_usize().unwrap() >= 1);
    let Value::Object(metrics) = doc.get("metrics").unwrap() else {
        panic!("metrics is an object")
    };
    let emitted: Vec<&String> = metrics.keys().collect();
    let mut expected: Vec<&String> = names.iter().collect();
    expected.sort();
    assert_eq!(emitted, expected, "emitted names are exactly the listed ones");
    for (name, m) in metrics {
        assert!(m.get("value").unwrap().as_number().unwrap().is_finite(), "{name}");
        assert!(!m.get("unit").unwrap().as_str().unwrap().is_empty(), "{name}");
    }
}

#[test]
fn every_workload_runs_end_to_end_with_verification_on() {
    let names = listed("end_to_end");
    for workload in listed("workloads") {
        let out = ledger(&["run", &workload, "--quick", "--seed", "3"]);
        check(&out, &names);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.lines().any(|l| l.starts_with("route 0 ")), "{workload} prints its routes");
    }
}

#[test]
fn the_traced_run_emits_every_per_layer_name_and_writes_the_spans() {
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-serve.json");
    let _ = std::fs::remove_file(trace);
    let out = ledger(&[
        "--workload",
        "serve",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--quick",
    ]);
    check(&out, &listed("per_layer"));
    let doc = json::parse(&std::fs::read_to_string(trace).expect("trace file")).unwrap();
    let rows = doc.get("rows").unwrap().as_array().unwrap();
    for layer in ["op", "client.encode", "wire.rtt", "client.decode", "serve.ping", "gemm.kernel"] {
        assert!(rows.iter().any(|r| r.get("layer").unwrap().as_str().unwrap() == layer), "{layer}");
    }
    assert!(!doc.get("spans").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn another_seed_changes_small_mix_shapes_but_no_metric_name() {
    let shapes = |seed: &str| {
        let out = ledger(&["run", "small_mix", "--quick", "--seed", seed]);
        check(&out, &listed("end_to_end"));
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| {
                l.strip_prefix("route ").map(|r| r.split(' ').nth(1).unwrap().to_string())
            })
            .collect::<Vec<_>>()
    };
    let (a, b) = (shapes("5"), shapes("6"));
    assert_eq!(a.len(), 192);
    assert_ne!(a, b);
}

#[test]
fn a_debug_build_refuses_to_measure() {
    if cfg!(debug_assertions) {
        let out = ledger(&["run", "serve"]);
        assert_eq!(out.status.code(), Some(3));
        assert!(out.stdout.is_empty(), "no result is printed");
    }
}
