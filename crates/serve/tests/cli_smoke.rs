//! The `fmm_serve` CLI end to end, the way an operator drives it: `serve`
//! in a child process on a free loopback port, every client subcommand
//! against it as its own process, and — for the incident leg — a SIGTERM
//! that must leave a dump `doctor` calls a clean exit. Every command must
//! exit 0, and the documents they print must decode. The load comes from
//! client threads in the test, and every reply is checked against the
//! in-process GEMM.
//!
//! The legs run one at a time (a local lock) so two daemons and their
//! loads never share the machine at once.

use fmm_dense::{fill, norms, Matrix};
use fmm_serve::{Document, Incident, PipelinedClient, StatsSnapshot, WireScalar};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;

static LEG_LOCK: Mutex<()> = Mutex::new(());

/// The CLI binary, with host calibration skipped.
fn fmm_serve() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fmm_serve"));
    cmd.env("FMM_TUNE_CALIBRATE", "0");
    cmd
}

/// A running `fmm_serve serve` child, its resolved address, and the
/// threads draining the rest of its stdout and stderr.
struct Daemon {
    child: Child,
    addr: String,
    output: Option<(JoinHandle<String>, JoinHandle<String>)>,
}

/// A leg that fails before [`Daemon::exit`] must not leave its daemon
/// running.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn drain(mut from: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        from.read_to_string(&mut text).expect("read daemon output");
        text
    })
}

impl Daemon {
    /// Start `serve` on port 0 with tracing on; the port comes from the
    /// first line it prints.
    fn spawn(flags: &[&str]) -> Daemon {
        let mut child = fmm_serve()
            .args(["serve", "--addr", "127.0.0.1:0", "--trace"])
            .args(flags)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fmm_serve serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("read the listening line");
        let addr = first
            .trim()
            .strip_prefix("fmm_serve listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
            .to_string();
        let stderr = child.stderr.take().expect("piped stderr");
        Daemon { child, addr, output: Some((drain(stdout), drain(stderr))) }
    }

    /// Run `fmm_serve <command> --addr <this daemon> <flags>`, assert it
    /// exits 0, and return its stdout.
    fn run(&self, command: &str, flags: &[&str]) -> String {
        let out = fmm_serve()
            .args([command, "--addr", &self.addr])
            .args(flags)
            .output()
            .expect("run an fmm_serve client command");
        assert!(
            out.status.success(),
            "fmm_serve {command} {flags:?} exited with {}:\n{}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8 output")
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::from_json(&self.run("stats", &[])).expect("`stats` prints a stats document")
    }

    /// Wait for the daemon to exit, assert it exited 0, and return what it
    /// printed after the listening line.
    fn exit(mut self) -> String {
        let status = self.child.wait().expect("daemon exit status");
        let (stdout, stderr) = self.output.take().expect("exit runs once");
        let (stdout, stderr) = (stdout.join().unwrap(), stderr.join().unwrap());
        assert!(status.success(), "daemon exited with {status}:\n{stdout}\n{stderr}");
        stdout
    }
}

/// Receive the reply to a sent `(id, A, B)` and check it against the
/// in-process GEMM of the same operands.
fn check_reply<T: WireScalar>(
    client: &mut PipelinedClient,
    (id, a, b): (u64, Matrix<T>, Matrix<T>),
) {
    let c = client.recv::<T>(id).unwrap_or_else(|e| panic!("{} request {id}: {e}", T::NAME));
    assert_eq!((c.rows(), c.cols()), (a.rows(), b.cols()), "{} request {id}", T::NAME);
    let mut want = Matrix::<T>::zeros(a.rows(), b.cols());
    fmm_gemm::gemm(want.as_mut(), a.as_ref(), b.as_ref());
    let err = norms::rel_error(c.as_ref(), want.as_ref());
    let bound = T::accuracy_bound(a.cols(), 2);
    assert!(err < bound, "{} request {id}: error {err} over the bound {bound}", T::NAME);
}

/// `threads` client threads, each on its own connection, each sending
/// `requests` distinct `n×n×n` problems with up to `depth` in flight, and
/// checking every reply.
fn load<T: WireScalar>(addr: &str, threads: u64, requests: u64, n: usize, depth: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                let mut in_flight = VecDeque::with_capacity(depth);
                for r in 0..requests {
                    let seed = 2 * (t * requests + r);
                    let a = fill::bench_workload_t::<T>(n, n, seed + 1);
                    let b = fill::bench_workload_t::<T>(n, n, seed + 2);
                    in_flight.push_back((client.send(&a, &b).expect("send"), a, b));
                    if in_flight.len() == depth {
                        check_reply(&mut client, in_flight.pop_front().expect("a request"));
                    }
                }
                in_flight.into_iter().for_each(|sent| check_reply(&mut client, sent));
            });
        }
    });
}

/// The serving leg: a flag `serve` does not know exits 2 before binding;
/// then load at f64, f32 and pipelined depth 8, every reporting
/// subcommand, and a clean client-requested shutdown whose exit summary is
/// the full snapshot.
#[test]
fn daemon_serves_every_subcommand() {
    let _leg = LEG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let out = fmm_serve().args(["serve", "--max-batch", "4"]).output().expect("run fmm_serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --max-batch"), "{stderr}");

    let daemon = Daemon::spawn(&["--watchdog-stall-ms", "500"]);
    daemon.run("ping", &["--count", "1"]);
    load::<f64>(&daemon.addr, 4, 16, 64, 1);
    load::<f32>(&daemon.addr, 4, 16, 64, 1);
    load::<f64>(&daemon.addr, 2, 32, 48, 8);

    let stats = daemon.stats();
    for name in [
        "fmm_serve_latency_nanos",
        "fmm_serve_queue_wait_nanos",
        "fmm_serve_service_nanos",
        "fmm_gemm_pack_nanos",
        "fmm_gemm_kernel_nanos",
    ] {
        let h = stats.histogram(name).expect("phase histogram");
        assert!(h.count > 0, "{name} histogram is empty");
    }
    assert!(!stats.audit.is_empty(), "audit section is empty");
    assert!(stats.audit.iter().any(|row| row.err_permille.count > 0), "no model-error samples");
    assert!(stats.counter("fmm_audit_samples_total").expect("audit total") > 0);
    assert!(daemon.run("stats", &["--prom"]).contains("fmm_build_info"));

    assert!(daemon.run("audit", &[]).starts_with("decision audit:"));
    assert!(daemon.run("top", &["--once"]).starts_with("fmm_serve top"));
    assert!(daemon.run("trace", &["--last", "50"]).contains(" ms  (thread "), "no span timeline");
    let chrome = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-smoke-trace-{}.json", std::process::id()));
    daemon.run("trace", &["--last", "200", "--chrome", chrome.to_str().expect("UTF-8 path")]);
    let events = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(events.starts_with("[{") && events.contains("\"ph\":\"X\""), "{events}");
    std::fs::remove_file(&chrome).expect("remove the chrome trace");

    daemon.run("shutdown", &[]);
    let summary = daemon.exit();
    // The exit summary is the snapshot `stats --prom` returns, not just
    // the serve registry: engine counters, gemm histograms and audit too.
    for needle in ["fmm_engine_f64_executions", "fmm_gemm_kernel_nanos", "fmm_audit_samples_"] {
        assert!(summary.contains(needle), "exit summary lacks {needle}:\n{summary}");
    }
    assert!(summary.ends_with("fmm_serve: shutdown complete\n"), "{summary}");
}

/// SIGTERM on a loaded daemon: it dumps, drains, exits 0, and the dump
/// decodes as an incident that `doctor` diagnoses as a clean exit.
#[cfg(unix)]
#[test]
fn sigterm_dump_doctors_to_a_clean_exit() {
    let _leg = LEG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-smoke-incidents-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A generous stall deadline: this leg asserts a healthy daemon, and a
    // debug build on a shared machine may take a while over one batch.
    let daemon = Daemon::spawn(&[
        "--watchdog-stall-ms",
        "5000",
        "--incident-dir",
        dir.to_str().expect("UTF-8 path"),
    ]);
    load::<f64>(&daemon.addr, 4, 16, 64, 4);
    assert!(daemon.run("stats", &["--prom"]).contains("fmm_build_info"));
    let stats = daemon.stats();
    for field in [&stats.build.version, &stats.build.git_hash, &stats.build.kernel_f64] {
        assert!(!field.is_empty(), "build info incomplete: {:?}", stats.build);
    }
    for kind in
        ["malformed", "unsupported_version", "oversized", "busy", "internal", "shutting_down"]
    {
        stats.counter(&format!("fmm_serve_errors_total_{kind}")).expect("per-kind error counter");
    }
    assert_eq!(stats.counter("fmm_watchdog_stalls_total"), Ok(0), "healthy daemon stalled");

    let pid = daemon.child.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status().expect("run kill");
    assert!(kill.success(), "kill -TERM {pid} failed");
    daemon.exit();

    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("incident dir exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.to_string_lossy().contains("incident-sigterm-"))
        .collect();
    let [dump] = dumps.as_slice() else { panic!("expected one sigterm dump, found {dumps:?}") };
    let text = std::fs::read_to_string(dump).expect("dump readable");
    let doc = Incident::from_json(&text).expect("the dump decodes as an incident");
    assert_eq!(doc.trigger, "sigterm");
    assert!(doc.events.iter().any(|l| l.event.kind.always_on()), "no always-on event in the dump");
    assert!(!doc.watchdog.components.is_empty(), "watchdog roster empty");

    let out = fmm_serve().arg("doctor").arg(dump).output().expect("run doctor");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "doctor failed:\n{report}");
    assert!(report.contains("diagnosis: clean exit"), "{report}");
    std::fs::remove_dir_all(&dir).expect("remove the incident dir");
}
