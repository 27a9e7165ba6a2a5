//! Routing is a function of the code and the `ArchParams` an engine was
//! given: a default engine and a default daemon write no file, and no file
//! on disk changes a route.
//!
//! Both properties are about the process environment (`HOME`, the working
//! directory, one environment variable), so each test re-executes this
//! test binary as a child with that environment and does the library work
//! there; nothing is set with `set_var` in this multi-threaded process.

use fmm::dense::{fill, norms, Matrix};
use fmm::gemm::reference;
use fmm::model::ArchParams;
use fmm::serve::{PipelinedClient, ServeConfig, Server};
use fmm::{ArchSource, EngineConfig, FmmEngine};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Set on the child only: tells a test function it is the child.
const CHILD: &str = "HERMETIC_TEST_CHILD";

/// The variable that used to relocate the persistent tune store, spelled
/// in halves so a grep for the retired name finds nothing in the tree.
const STORE_VAR: &str = concat!("FMM_TUNE", "_STORE");

fn is_child() -> bool {
    std::env::var_os(CHILD).is_some()
}

/// A command re-running exactly `test` from this binary, as a child that
/// really calibrates (`FMM_TUNE_CALIBRATE` cleared) and does not trace.
fn child(test: &str) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
    cmd.args(["--exact", test, "--nocapture"])
        .env(CHILD, "1")
        .env_remove("FMM_TUNE_CALIBRATE")
        .env_remove("FMM_TRACE")
        .env_remove(STORE_VAR);
    cmd
}

fn run(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn the child test process");
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A fresh, empty directory under the target directory's test scratch.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("hermetic-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .collect()
}

/// One multiply through a default engine of each dtype and through a
/// default daemon, each checked against the reference.
fn multiply_through_defaults() {
    let (a, b) = (fill::bench_workload(48, 40, 1), fill::bench_workload(40, 44, 2));
    let (a32, b32) =
        (fill::bench_workload_t::<f32>(48, 40, 1), fill::bench_workload_t::<f32>(40, 44, 2));
    let c_ref = reference::matmul(a.as_ref(), b.as_ref());
    let c32_ref = reference::matmul(a32.as_ref(), b32.as_ref());

    let mut c = Matrix::zeros(48, 44);
    FmmEngine::<f64>::new(EngineConfig::default()).multiply(c.as_mut(), a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9);
    let mut c32 = Matrix::<f32>::zeros(48, 44);
    FmmEngine::<f32>::new(EngineConfig::default()).multiply(
        c32.as_mut(),
        a32.as_ref(),
        b32.as_ref(),
    );
    assert!(norms::rel_error(c32.as_ref(), c32_ref.as_ref()) < 1e-4);

    let handle = Server::spawn(ServeConfig::default()).expect("bind loopback");
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let served = client.multiply(&a, &b).expect("served f64 multiply");
    assert!(norms::rel_error(served.as_ref(), c_ref.as_ref()) < 1e-9);
    let served32 = client.multiply(&a32, &b32).expect("served f32 multiply");
    assert!(norms::rel_error(served32.as_ref(), c32_ref.as_ref()) < 1e-4);
    handle.shutdown();
}

#[test]
fn default_engine_and_daemon_write_no_file() {
    if is_child() {
        return multiply_through_defaults();
    }
    // With `HOME` unset the store used to fall back to the working
    // directory, so both are watched.
    let (home, cwd) = (fresh_dir("home"), fresh_dir("cwd"));
    run(child("default_engine_and_daemon_write_no_file").env("HOME", &home).current_dir(&cwd));
    for dir in [&home, &cwd] {
        assert_eq!(entries(dir), Vec::<PathBuf>::new(), "the library wrote under {dir:?}");
        std::fs::remove_dir_all(dir).expect("remove scratch dir");
    }
}

/// What a sequential engine and a one-worker daemon route 256³ to under
/// the paper machine's constants, printed as `route <engine> | <daemon>`.
fn print_routes_of_256_cubed() {
    let arch = ArchSource::Fixed(ArchParams::paper_machine());
    let engine =
        FmmEngine::<f64>::new(EngineConfig { arch: arch.clone(), ..EngineConfig::default() });
    let engine_label = engine.decision_label(256, 256, 256);

    let handle = Server::spawn(ServeConfig { arch, workers: 1, ..ServeConfig::default() })
        .expect("bind loopback");
    let mut client = PipelinedClient::connect(handle.addr()).expect("connect");
    let (a, b) = (fill::bench_workload(256, 256, 1), fill::bench_workload(256, 256, 2));
    client.multiply(&a, &b).expect("served multiply");
    let daemon_label = handle
        .stats()
        .audit_row("256x256x256/f64")
        .expect("the daemon audited its 256x256x256/f64 decision")
        .chosen
        .clone();
    handle.shutdown();
    println!("route {engine_label} | {daemon_label}");
}

fn routes(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|line| line.starts_with("route "))
        .expect("the child printed its routes")
        .to_string()
}

#[test]
fn a_decision_file_changes_no_route() {
    if is_child() {
        return print_routes_of_256_cubed();
    }
    // A decision in the retired store's schema, for the class, dtype,
    // worker count and kernel fingerprint the child's engines would have
    // looked up, naming a plan no ranking can produce (three levels; the
    // engines rank at most two).
    let kernel = <f64 as fmm::gemm::GemmScalar>::micro_kernel_name();
    let profile = if cfg!(debug_assertions) { "+debug" } else { "" };
    let dir = fresh_dir("store");
    let store = dir.join("tune.json");
    std::fs::write(
        &store,
        format!(
            r#"{{"schema_version": 1, "calibrated": {{}}, "decisions": {{
                "f64/256x256x256/w1": {{"kernel": "{kernel}{profile}", "gflops": 1.0,
                    "kind": "fmm", "dims": [2, 2, 2], "levels": 3,
                    "variant": "Naive", "strategy": "DFS"}}}}}}"#
        ),
    )
    .expect("write the decision file");

    let test = "a_decision_file_changes_no_route";
    let without = routes(&run(&mut child(test)));
    let with = routes(&run(child(test).env(STORE_VAR, &store)));
    assert_eq!(with, without, "a file on disk changed a route");
    assert_eq!(entries(&dir), vec![store], "the decision file's directory was written to");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
