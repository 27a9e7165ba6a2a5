//! `fmm_serve` — operate the serving daemon from the command line.
//!
//! ```sh
//! fmm_serve serve [--addr 127.0.0.1:7117] [--window-us 2000] [--gap-us 200]
//!                 [--max-batch 32] [--queue 256] [--workers 0]
//!                 [--event-threads 2] [--trace] [--incident-dir DIR]
//!                 [--no-watchdog] [--watchdog-stall-ms 1000]
//!                 [--watchdog-abort-after MS] [--slow-ms 250]
//! fmm_serve ping --addr HOST:PORT [--count 3]
//! fmm_serve stats --addr HOST:PORT [--prom]
//! fmm_serve audit --addr HOST:PORT [--threshold 0.5]
//! fmm_serve top --addr HOST:PORT [--interval-ms 1000] [--once]
//! fmm_serve trace --addr HOST:PORT [--last N] [--chrome FILE]
//! fmm_serve doctor INCIDENT.json
//! fmm_serve bench --addr HOST:PORT [--threads 4] [--requests 32]
//!                 [--size 96] [--dtype f64|f32] [--pipeline 1] [--verify]
//! fmm_serve shutdown --addr HOST:PORT
//! ```
//!
//! `serve` runs until a client sends a `Shutdown` frame, then drains
//! in-flight work, prints a final stats snapshot, and exits 0 — the clean
//! shutdown CI asserts. `bench` is the network loadgen: N client threads
//! each issuing M requests over their own connection, reporting aggregate
//! throughput and client-observed latency percentiles. Each thread holds
//! a window of `--pipeline D` requests in flight on its connection (the
//! default, 1, is a blocking caller); a `Busy` refusal re-sends the same
//! problem after a short pause.
//!
//! `stats` fetches the full observability registry (counters, gauges,
//! per-phase latency histograms) as JSON; `--prom` fetches the same
//! registry as Prometheus plaintext. `trace` dumps recent request
//! phase spans from a server running with `--trace` (or `FMM_TRACE=1`) as
//! a per-request timeline, or as a chrome://tracing JSON file with
//! `--chrome FILE`.
//!
//! `doctor` is the offline incident analyzer: given a dump written by a
//! `--incident-dir` daemon (on SIGTERM/SIGINT, panic, or watchdog abort)
//! or fetched over the wire, it validates the schema tag, reconstructs
//! the flight-recorder timeline, names any stalled watchdog component,
//! ranks slow requests by their dominant phase, summarizes error and
//! refusal bursts, and closes with a one-line diagnosis.
//!
//! `audit` reads the decision-audit section of the stats snapshot and
//! ranks shape classes by model error `|log2(predicted/measured)|`;
//! classes above `--threshold` are listed as retune candidates (the ones
//! the model misjudges). `top` is the live terminal view: it polls the
//! same snapshot every `--interval-ms`, showing request counters as
//! rates, per-phase latency quantiles, and per-shape-class GFLOP/s
//! computed from the flops and busy-nanos deltas between consecutive
//! snapshots (`--once` prints a single frame for scripts and CI smokes).

use fmm_dense::{fill, norms, Matrix};
use fmm_serve::{BatchPolicy, PipelinedClient, ServeConfig, Server};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!(
            "usage: fmm_serve <serve|ping|stats|audit|top|trace|doctor|bench|shutdown> [options]"
        );
        std::process::exit(2);
    };
    if command == "doctor" {
        // `doctor` takes a positional dump path, not the shared flag bag.
        let Some(path) = argv.get(1) else {
            eprintln!("usage: fmm_serve doctor INCIDENT.json");
            std::process::exit(2);
        };
        cmd_doctor(path);
        return;
    }
    let opts = Options::parse(&argv[1..]);
    match command.as_str() {
        "serve" => cmd_serve(&opts),
        "ping" => cmd_ping(&opts),
        "stats" => cmd_stats(&opts),
        "audit" => cmd_audit(&opts),
        "top" => cmd_top(&opts),
        "trace" => cmd_trace(&opts),
        "bench" => cmd_bench(&opts),
        "shutdown" => cmd_shutdown(&opts),
        other => {
            eprintln!(
                "unknown command {other:?} (serve|ping|stats|audit|top|trace|doctor|bench|shutdown)"
            );
            std::process::exit(2);
        }
    }
}

/// Flat flag bag shared by every subcommand (hand-rolled like the other
/// workspace CLIs; unknown flags are fatal).
struct Options {
    addr: String,
    window_us: u64,
    gap_us: u64,
    max_batch: usize,
    queue: usize,
    workers: usize,
    threads: usize,
    requests: usize,
    size: usize,
    dtype: String,
    count: usize,
    verify: bool,
    event_threads: usize,
    pipeline: usize,
    trace: bool,
    prom: bool,
    last: u64,
    chrome: Option<String>,
    threshold: f64,
    interval_ms: u64,
    once: bool,
    incident_dir: Option<String>,
    watchdog: bool,
    watchdog_stall_ms: u64,
    watchdog_abort_after_ms: u64,
    slow_ms: u64,
}

impl Options {
    fn parse(argv: &[String]) -> Self {
        let mut o = Options {
            addr: "127.0.0.1:7117".to_string(),
            window_us: 2000,
            gap_us: 200,
            max_batch: 32,
            queue: 256,
            workers: 0,
            threads: 4,
            requests: 32,
            size: 96,
            dtype: "f64".to_string(),
            count: 3,
            verify: false,
            event_threads: 2,
            pipeline: 1,
            trace: false,
            prom: false,
            last: 0,
            chrome: None,
            threshold: 0.5,
            interval_ms: 1000,
            once: false,
            incident_dir: None,
            watchdog: true,
            watchdog_stall_ms: 1000,
            watchdog_abort_after_ms: 0,
            slow_ms: 250,
        };
        let mut i = 0;
        let value = |argv: &[String], i: usize, flag: &str| -> String {
            argv.get(i + 1).unwrap_or_else(|| panic!("{flag} takes a value")).clone()
        };
        while i < argv.len() {
            match argv[i].as_str() {
                "--addr" => {
                    o.addr = value(argv, i, "--addr");
                    i += 2;
                }
                "--window-us" => {
                    o.window_us = value(argv, i, "--window-us").parse().expect("--window-us: int");
                    i += 2;
                }
                "--gap-us" => {
                    o.gap_us = value(argv, i, "--gap-us").parse().expect("--gap-us: int");
                    i += 2;
                }
                "--max-batch" => {
                    o.max_batch = value(argv, i, "--max-batch").parse().expect("--max-batch: int");
                    i += 2;
                }
                "--queue" => {
                    o.queue = value(argv, i, "--queue").parse().expect("--queue: int");
                    i += 2;
                }
                "--workers" => {
                    o.workers = value(argv, i, "--workers").parse().expect("--workers: int");
                    i += 2;
                }
                "--threads" => {
                    o.threads = value(argv, i, "--threads").parse().expect("--threads: int");
                    i += 2;
                }
                "--requests" => {
                    o.requests = value(argv, i, "--requests").parse().expect("--requests: int");
                    i += 2;
                }
                "--size" => {
                    o.size = value(argv, i, "--size").parse().expect("--size: int");
                    i += 2;
                }
                "--dtype" => {
                    o.dtype = value(argv, i, "--dtype");
                    i += 2;
                }
                "--count" => {
                    o.count = value(argv, i, "--count").parse().expect("--count: int");
                    i += 2;
                }
                "--verify" => {
                    o.verify = true;
                    i += 1;
                }
                "--event-threads" => {
                    o.event_threads =
                        value(argv, i, "--event-threads").parse().expect("--event-threads: int");
                    i += 2;
                }
                "--pipeline" => {
                    o.pipeline = value(argv, i, "--pipeline").parse().expect("--pipeline: int");
                    i += 2;
                }
                "--trace" => {
                    o.trace = true;
                    i += 1;
                }
                "--prom" => {
                    o.prom = true;
                    i += 1;
                }
                "--last" => {
                    o.last = value(argv, i, "--last").parse().expect("--last: int");
                    i += 2;
                }
                "--chrome" => {
                    o.chrome = Some(value(argv, i, "--chrome"));
                    i += 2;
                }
                "--threshold" => {
                    o.threshold = value(argv, i, "--threshold").parse().expect("--threshold: num");
                    i += 2;
                }
                "--interval-ms" => {
                    o.interval_ms =
                        value(argv, i, "--interval-ms").parse().expect("--interval-ms: int");
                    i += 2;
                }
                "--once" => {
                    o.once = true;
                    i += 1;
                }
                "--incident-dir" => {
                    o.incident_dir = Some(value(argv, i, "--incident-dir"));
                    i += 2;
                }
                "--no-watchdog" => {
                    o.watchdog = false;
                    i += 1;
                }
                "--watchdog-stall-ms" => {
                    o.watchdog_stall_ms = value(argv, i, "--watchdog-stall-ms")
                        .parse()
                        .expect("--watchdog-stall-ms: int");
                    i += 2;
                }
                "--watchdog-abort-after" => {
                    o.watchdog_abort_after_ms = value(argv, i, "--watchdog-abort-after")
                        .parse()
                        .expect("--watchdog-abort-after: int (ms)");
                    i += 2;
                }
                "--slow-ms" => {
                    o.slow_ms = value(argv, i, "--slow-ms").parse().expect("--slow-ms: int");
                    i += 2;
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        o
    }
}

fn cmd_serve(o: &Options) {
    let config = ServeConfig {
        addr: o.addr.clone(),
        batch: BatchPolicy {
            window: Duration::from_micros(o.window_us),
            max_batch: o.max_batch.max(1),
            straggler_gap: Duration::from_micros(o.gap_us),
        },
        queue_capacity: o.queue,
        workers: o.workers,
        event_threads: o.event_threads.max(1),
        watchdog: o.watchdog,
        watchdog_stall: Duration::from_millis(o.watchdog_stall_ms.max(1)),
        watchdog_abort_after: (o.watchdog_abort_after_ms > 0)
            .then(|| Duration::from_millis(o.watchdog_abort_after_ms)),
        slow_threshold: Duration::from_millis(o.slow_ms.max(1)),
        incident_dir: o.incident_dir.clone(),
        ..ServeConfig::default()
    };
    // `--trace` turns tracing on; its absence defers to the FMM_TRACE
    // environment default already resolved by `ServeConfig::default()`.
    let config = ServeConfig { trace: config.trace || o.trace, ..config };
    let window = config.batch.window;
    let max_batch = config.batch.max_batch;
    let handle = match Server::spawn(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", o.addr);
            std::process::exit(1);
        }
    };
    println!("fmm_serve listening on {}", handle.addr());
    println!("{}", fmm_serve::incident::build_info_line());
    println!(
        "micro-batching: window {:?}, max batch {max_batch}, queue capacity {}, \
         event threads {}",
        window,
        o.queue,
        o.event_threads.max(1)
    );
    if o.watchdog {
        println!(
            "watchdog: stall after {} ms{}",
            o.watchdog_stall_ms.max(1),
            if o.watchdog_abort_after_ms > 0 {
                format!(", abort after {} ms", o.watchdog_abort_after_ms)
            } else {
                String::new()
            }
        );
    } else {
        println!("watchdog: disabled");
    }
    if let Some(dir) = &o.incident_dir {
        println!("incident dumps: {dir}");
    }
    let metrics = handle.metrics_arc();
    handle.wait();
    print!("{}", metrics.registry().render_prometheus());
    println!("fmm_serve: shutdown complete");
}

fn connect(o: &Options) -> PipelinedClient {
    match PipelinedClient::connect(&o.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", o.addr);
            std::process::exit(1);
        }
    }
}

fn cmd_ping(o: &Options) {
    let mut client = connect(o);
    for i in 0..o.count.max(1) {
        match client.ping() {
            Ok(rtt) => {
                println!("pong {} from {}: {:.3} ms", i + 1, o.addr, rtt.as_secs_f64() * 1e3)
            }
            Err(e) => {
                eprintln!("ping failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn cmd_stats(o: &Options) {
    let mut client = connect(o);
    let result = if o.prom { client.stats_prometheus() } else { client.stats_json() };
    match result {
        Ok(body) => {
            print!("{body}");
            if !body.ends_with('\n') {
                println!();
            }
        }
        Err(e) => {
            eprintln!("stats failed: {e}");
            std::process::exit(1);
        }
    }
}

/// One decoded row of the stats snapshot's `audit` section.
struct AuditRow {
    class: String,
    dtype: String,
    samples: u64,
    predicted_nanos: u64,
    measured_nanos: u64,
    flops: u64,
    error_log2: f64,
    mean_gflops: f64,
    best_gflops: f64,
    worst_gflops: f64,
    chosen: String,
    top_source: String,
    err_p50: u64,
    err_p99: u64,
}

/// Fetch the stats snapshot from the server and parse it, exiting with a
/// diagnostic on connection or decode failure.
fn fetch_stats_json(o: &Options) -> fmm_core::json::Value {
    let mut client = connect(o);
    let body = client.stats_json().unwrap_or_else(|e| {
        eprintln!("stats failed: {e}");
        std::process::exit(1);
    });
    fmm_core::json::parse(&body).unwrap_or_else(|e| {
        eprintln!("stats reply is not valid JSON: {e}");
        std::process::exit(1);
    })
}

/// Numeric JSON field as f64 (`Int` and `Number` both accepted, 0.0 when
/// absent) — the audit/top readers only need lossy numbers for display.
fn json_num(obj: &std::collections::BTreeMap<String, fmm_core::json::Value>, key: &str) -> f64 {
    use fmm_core::json::Value;
    match obj.get(key) {
        Some(Value::Int(v)) => *v as f64,
        Some(Value::Number(v)) => *v,
        _ => 0.0,
    }
}

fn json_text(obj: &std::collections::BTreeMap<String, fmm_core::json::Value>, key: &str) -> String {
    match obj.get(key) {
        Some(fmm_core::json::Value::String(s)) => s.clone(),
        _ => String::new(),
    }
}

/// Decode the `audit` section into rows sorted worst-model-error first
/// (the `fmm_serve audit` ranking; `top` reuses the same decode).
fn decode_audit_rows(stats: &fmm_core::json::Value) -> Vec<AuditRow> {
    use fmm_core::json::Value;
    let Value::Object(root) = stats else { return Vec::new() };
    let Some(Value::Object(audit)) = root.get("audit") else { return Vec::new() };
    let mut rows: Vec<AuditRow> = audit
        .values()
        .filter_map(|entry| {
            let Value::Object(e) = entry else { return None };
            let (top_source, err_p50, err_p99) = match (e.get("sources"), e.get("err_permille")) {
                (Some(Value::Object(sources)), Some(Value::Object(err))) => {
                    let top = sources
                        .iter()
                        .max_by_key(|(_, v)| match v {
                            Value::Int(n) => *n,
                            _ => 0,
                        })
                        .map(|(name, _)| name.clone())
                        .unwrap_or_default();
                    (top, json_num(err, "p50_nanos") as u64, json_num(err, "p99_nanos") as u64)
                }
                _ => (String::new(), 0, 0),
            };
            Some(AuditRow {
                class: json_text(e, "class"),
                dtype: json_text(e, "dtype"),
                samples: json_num(e, "samples") as u64,
                predicted_nanos: json_num(e, "predicted_nanos") as u64,
                measured_nanos: json_num(e, "measured_nanos") as u64,
                flops: json_num(e, "flops") as u64,
                error_log2: json_num(e, "error_log2"),
                mean_gflops: json_num(e, "mean_gflops"),
                best_gflops: json_num(e, "best_gflops"),
                worst_gflops: json_num(e, "worst_gflops"),
                chosen: json_text(e, "chosen"),
                top_source,
                err_p50,
                err_p99,
            })
        })
        .collect();
    rows.sort_by(|a, b| {
        b.error_log2.partial_cmp(&a.error_log2).unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Rank shape classes by predicted-vs-measured model error and flag
/// retune candidates: the classes the model misjudges beyond `--threshold`.
fn cmd_audit(o: &Options) {
    let stats = fetch_stats_json(o);
    let rows = decode_audit_rows(&stats);
    if rows.is_empty() {
        println!("no audit samples recorded yet (send some multiplies first)");
        return;
    }
    let total_samples: u64 = rows.iter().map(|r| r.samples).sum();
    println!(
        "decision audit: {} shape classes, {} samples, ranked by |log2(predicted/measured)|",
        rows.len(),
        total_samples
    );
    println!(
        "{:<18} {:>5} {:>8} {:>10} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9}  {:<8} chosen",
        "class",
        "dtype",
        "samples",
        "|log2err|",
        "pred ms",
        "meas ms",
        "err p50",
        "err p99",
        "GF/s avg",
        "GF/s best",
        "source"
    );
    for r in &rows {
        println!(
            "{:<18} {:>5} {:>8} {:>10.3} {:>9.3} {:>9.3} {:>8} {:>8} {:>9.2} {:>9.2}  {:<8} {}",
            r.class,
            r.dtype,
            r.samples,
            r.error_log2,
            r.predicted_nanos as f64 / 1e6,
            r.measured_nanos as f64 / 1e6,
            r.err_p50,
            r.err_p99,
            r.mean_gflops,
            r.best_gflops,
            r.top_source,
            r.chosen
        );
    }
    let flagged: Vec<&AuditRow> =
        rows.iter().filter(|r| r.samples > 0 && r.error_log2 > o.threshold).collect();
    if flagged.is_empty() {
        println!("model error within threshold ({:.2} log2) for every class", o.threshold);
        return;
    }
    println!("retune candidates (|log2 err| > {:.2}):", o.threshold);
    for r in &flagged {
        println!(
            "  {}/{}: predicted {:.3} ms vs measured {:.3} ms ({} samples, worst {:.2} GFLOP/s)",
            r.class,
            r.dtype,
            r.predicted_nanos as f64 / 1e6,
            r.measured_nanos as f64 / 1e6,
            r.samples,
            r.worst_gflops
        );
    }
}

/// Per-class `(flops, measured_nanos)` cumulative totals from one `top`
/// frame, keyed `class/dtype` — the baseline for the next frame's
/// interval GFLOP/s.
type ClassTotals = std::collections::BTreeMap<String, (u64, u64)>;

/// Live terminal view: poll the stats snapshot every `--interval-ms`,
/// rendering request rates, per-phase latency quantiles, and per-class
/// GFLOP/s from flops/busy-nanos deltas between consecutive frames.
fn cmd_top(o: &Options) {
    use fmm_core::json::Value;
    let interval = Duration::from_millis(o.interval_ms.max(1));
    let mut prev: Option<(ClassTotals, f64, Instant)> = None;
    loop {
        let stats = fetch_stats_json(o);
        let now = Instant::now();
        let Value::Object(root) = &stats else {
            eprintln!("stats reply is not a JSON object");
            std::process::exit(1);
        };
        let empty = std::collections::BTreeMap::new();
        let counters = match root.get("counters") {
            Some(Value::Object(c)) => c,
            _ => &empty,
        };
        let gauges = match root.get("gauges") {
            Some(Value::Object(g)) => g,
            _ => &empty,
        };
        let responses = json_num(counters, "fmm_serve_responses_total");
        let elapsed =
            prev.as_ref().map(|(_, _, t)| now.duration_since(*t).as_secs_f64()).unwrap_or(0.0);
        let rate = match &prev {
            Some((_, prev_responses, _)) if elapsed > 0.0 => {
                (responses - prev_responses).max(0.0) / elapsed
            }
            _ => 0.0,
        };
        if !o.once {
            // ANSI clear + home keeps the frame in place like top(1).
            print!("\x1b[2J\x1b[H");
        }
        println!("fmm_serve top — {} (interval {} ms)", o.addr, o.interval_ms);
        if let Some(Value::Object(build)) = root.get("build") {
            println!(
                "server {} git={} kernel_f64={} kernel_f32={} protocol={}",
                json_text(build, "version"),
                json_text(build, "git_hash"),
                json_text(build, "kernel_f64"),
                json_text(build, "kernel_f32"),
                json_text(build, "protocol_versions"),
            );
        }
        println!(
            "requests {:>10}  responses {:>10}  {:>8.1} req/s  inflight {:>4}  conns {:>4}",
            json_num(counters, "fmm_serve_requests_total") as u64,
            responses as u64,
            rate,
            json_num(gauges, "fmm_serve_inflight") as i64,
            json_num(gauges, "fmm_serve_connections") as i64,
        );
        println!(
            "batches  {:>10}  items     {:>10}  occupancy max {:>3}  busy rejects {:>6}",
            json_num(counters, "fmm_serve_batches_total") as u64,
            json_num(counters, "fmm_serve_batched_items_total") as u64,
            json_num(counters, "fmm_serve_batch_occupancy_max") as u64,
            json_num(counters, "fmm_serve_errors_total_busy") as u64,
        );
        println!("{:<28} {:>9} {:>9} {:>9} {:>9}", "phase", "count", "p50 ms", "p99 ms", "max ms");
        if let Some(Value::Object(hists)) = root.get("histograms") {
            for name in
                ["fmm_serve_queue_wait_nanos", "fmm_serve_service_nanos", "fmm_serve_latency_nanos"]
            {
                if let Some(Value::Object(h)) = hists.get(name) {
                    println!(
                        "{:<28} {:>9} {:>9.3} {:>9.3} {:>9.3}",
                        name.trim_start_matches("fmm_serve_").trim_end_matches("_nanos"),
                        json_num(h, "count") as u64,
                        json_num(h, "p50_nanos") / 1e6,
                        json_num(h, "p99_nanos") / 1e6,
                        json_num(h, "max_nanos") / 1e6,
                    );
                }
            }
        }
        let rows = decode_audit_rows(&stats);
        let mut totals = std::collections::BTreeMap::new();
        if rows.is_empty() {
            println!("audit: no samples yet");
        } else {
            println!(
                "{:<18} {:>5} {:>8} {:>10} {:>11} {:>11}  {:<8}",
                "class", "dtype", "samples", "|log2err|", "GF/s now", "GF/s avg", "source"
            );
            for r in &rows {
                totals.insert(format!("{}/{}", r.class, r.dtype), (r.flops, r.measured_nanos));
                // Interval GFLOP/s from the deltas between frames; the
                // cumulative mean stands in until a second frame exists
                // (and whenever the class was idle this interval).
                let now_gflops = prev
                    .as_ref()
                    .and_then(|(prev_totals, _, _)| {
                        let (pf, pn) = prev_totals.get(&format!("{}/{}", r.class, r.dtype))?;
                        let dn = r.measured_nanos.saturating_sub(*pn);
                        (dn > 0).then(|| r.flops.saturating_sub(*pf) as f64 / dn as f64)
                    })
                    .unwrap_or(r.mean_gflops);
                println!(
                    "{:<18} {:>5} {:>8} {:>10.3} {:>11.2} {:>11.2}  {:<8}",
                    r.class,
                    r.dtype,
                    r.samples,
                    r.error_log2,
                    now_gflops,
                    r.mean_gflops,
                    r.top_source
                );
            }
        }
        if o.once {
            return;
        }
        prev = Some((totals, responses, now));
        std::thread::sleep(interval);
    }
}

/// Fetch recent tracing spans and render them as per-request phase
/// timelines (or a chrome://tracing JSON file with `--chrome`).
fn cmd_trace(o: &Options) {
    let mut client = connect(o);
    let body = client.trace(o.last).unwrap_or_else(|e| {
        eprintln!("trace failed: {e}");
        std::process::exit(1);
    });
    let value = fmm_core::json::parse(&body).unwrap_or_else(|e| {
        eprintln!("trace reply is not valid JSON: {e}");
        std::process::exit(1);
    });
    let events = decode_trace_events(&value);
    if events.is_empty() {
        println!("no spans recorded (is the server running with --trace / FMM_TRACE=1?)");
        return;
    }
    if let Some(path) = &o.chrome {
        let json = fmm_obs::trace::chrome_trace(&events);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("{} spans written to {path} (chrome://tracing format)", events.len());
        return;
    }
    print_timelines(&events);
}

/// Rebuild typed span events from the wire JSON (inverse of the server's
/// `trace_json` rendering). Unknown kinds are skipped so a newer server
/// stays readable.
fn decode_trace_events(value: &fmm_core::json::Value) -> Vec<fmm_obs::SpanEvent> {
    use fmm_core::json::Value;
    let Value::Array(items) = value else { return Vec::new() };
    let field = |obj: &std::collections::BTreeMap<String, Value>, key: &str| -> u64 {
        match obj.get(key) {
            Some(Value::Int(v)) => *v as u64,
            _ => 0,
        }
    };
    items
        .iter()
        .filter_map(|item| {
            let Value::Object(obj) = item else { return None };
            let Some(Value::String(kind_name)) = obj.get("kind") else { return None };
            let kind = fmm_obs::SpanKind::from_name(kind_name)?;
            Some(fmm_obs::SpanEvent {
                kind,
                request_id: field(obj, "request_id"),
                start_nanos: field(obj, "start_nanos"),
                end_nanos: field(obj, "end_nanos"),
                thread: field(obj, "thread") as u32,
            })
        })
        .collect()
}

/// Group spans by request id and print each request's phases in start
/// order, timestamps relative to the earliest span in the dump.
fn print_timelines(events: &[fmm_obs::SpanEvent]) {
    let epoch = events.iter().map(|e| e.start_nanos).min().unwrap_or(0);
    let mut by_request: std::collections::BTreeMap<u64, Vec<&fmm_obs::SpanEvent>> =
        std::collections::BTreeMap::new();
    for e in events {
        by_request.entry(e.request_id).or_default().push(e);
    }
    for (request_id, mut spans) in by_request {
        spans.sort_by_key(|e| (e.start_nanos, e.end_nanos));
        if request_id == 0 {
            println!("untagged spans (no request id):");
        } else {
            println!("request {request_id}:");
        }
        for e in spans {
            let at_ms = (e.start_nanos - epoch) as f64 / 1e6;
            let dur_us = e.end_nanos.saturating_sub(e.start_nanos) as f64 / 1e3;
            if dur_us == 0.0 {
                println!("  {:<14} @ {at_ms:>10.3} ms  (thread {})", e.kind.name(), e.thread);
            } else {
                println!(
                    "  {:<14} @ {at_ms:>10.3} ms  +{dur_us:>9.1} us  (thread {})",
                    e.kind.name(),
                    e.thread
                );
            }
        }
    }
}

/// Offline incident analyzer: read a dump produced by `--incident-dir`
/// (or fetched over the wire), validate its schema tag, and turn the raw
/// flight ring + watchdog roster + counters into a post-mortem story:
/// what tripped the dump, which component (if any) was stalled, which
/// connection was busiest, where the slowest requests spent their time,
/// and whether errors or refusals were bursting. Exits nonzero on a
/// missing/invalid/foreign-schema file so scripts can gate on it.
fn cmd_doctor(path: &str) {
    use fmm_core::json::Value;
    use fmm_obs::FlightEvent;
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("fmm_serve doctor: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = fmm_core::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("fmm_serve doctor: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let Value::Object(root) = &doc else {
        eprintln!("fmm_serve doctor: {path} is not a JSON object");
        std::process::exit(1);
    };
    match root.get("schema") {
        Some(Value::String(tag)) if tag == fmm_serve::incident::INCIDENT_SCHEMA => {}
        Some(Value::String(tag)) => {
            eprintln!(
                "fmm_serve doctor: {path} carries schema {tag:?}, expected {:?} — \
                 refusing to misread it",
                fmm_serve::incident::INCIDENT_SCHEMA
            );
            std::process::exit(1);
        }
        _ => {
            eprintln!("fmm_serve doctor: {path} has no schema tag — not an incident dump");
            std::process::exit(1);
        }
    }
    let text_of = |key: &str| match root.get(key) {
        Some(Value::String(s)) => s.clone(),
        _ => String::new(),
    };
    let trigger = text_of("trigger");
    if let Some(Value::Object(build)) = root.get("build") {
        println!(
            "incident: {} — fmm_serve {} git={} kernel_f64={} kernel_f32={}",
            if trigger.is_empty() { "unknown trigger" } else { &trigger },
            json_text(build, "version"),
            json_text(build, "git_hash"),
            json_text(build, "kernel_f64"),
            json_text(build, "kernel_f32"),
        );
    } else {
        println!("incident: {}", if trigger.is_empty() { "unknown trigger" } else { &trigger });
    }

    // Watchdog roster: component ids in flight events index this list.
    let mut components: Vec<String> = Vec::new();
    let mut stalls_total = 0u64;
    if let Some(Value::Object(wd)) = root.get("watchdog") {
        if let Some(Value::Array(names)) = wd.get("components") {
            components = names
                .iter()
                .map(|v| match v {
                    Value::String(s) => s.clone(),
                    _ => String::new(),
                })
                .collect();
        }
        stalls_total = json_num(wd, "stalls_total") as u64;
        println!(
            "watchdog: {} components [{}], stalls {}",
            components.len(),
            components.join(", "),
            stalls_total
        );
    } else {
        println!("watchdog: not running");
    }
    let component_name = |id: u64| -> String {
        components.get(id as usize).cloned().unwrap_or_else(|| format!("component #{id}"))
    };

    // Re-decode the flight ring from the raw encoded fields; entries a
    // newer binary wrote with kinds this one doesn't know keep their
    // recorded detail string and are skipped by the typed passes.
    struct Entry {
        nanos: u64,
        detail: String,
        event: Option<FlightEvent>,
    }
    let mut entries: Vec<Entry> = Vec::new();
    if let Some(Value::Array(flight)) = root.get("flight") {
        for item in flight {
            let Value::Object(rec) = item else { continue };
            let event = FlightEvent::decode(
                json_num(rec, "kind_id") as u64,
                json_num(rec, "a") as u64,
                json_num(rec, "b") as u64,
                json_num(rec, "c") as u64,
                json_num(rec, "d") as u64,
            );
            entries.push(Entry {
                nanos: json_num(rec, "nanos") as u64,
                detail: json_text(rec, "detail"),
                event,
            });
        }
    }
    if entries.is_empty() {
        println!("flight recorder: empty (daemon recorded no events before the dump)");
    }

    // Stalled components: every watchdog-stall event, worst first.
    let mut stalls: Vec<(u64, u64, u64)> = entries
        .iter()
        .filter_map(|e| match e.event {
            Some(FlightEvent::WatchdogStall { component, stalled_nanos, level }) => {
                Some((component, stalled_nanos, level))
            }
            _ => None,
        })
        .collect();
    stalls.sort_by_key(|&(_, nanos, _)| std::cmp::Reverse(nanos));
    if let Some(&(component, stalled_nanos, level)) = stalls.first() {
        println!(
            "stalled component: {} — no progress for {:.3} s (escalation level {level}, \
             {} stall events recorded)",
            component_name(component),
            stalled_nanos as f64 / 1e9,
            stalls.len()
        );
    }

    // Busiest connection from conn-closed request tallies (the daemon
    // closes every connection during drain, so a SIGTERM dump sees all).
    let mut conns_accepted = 0u64;
    let mut busiest: Option<(u64, u64)> = None;
    for e in &entries {
        match e.event {
            Some(FlightEvent::ConnAccepted { .. }) => conns_accepted += 1,
            Some(FlightEvent::ConnClosed { conn, requests })
                if busiest.map(|(_, best)| requests > best).unwrap_or(true) =>
            {
                busiest = Some((conn, requests));
            }
            _ => {}
        }
    }
    match busiest {
        Some((conn, requests)) => println!(
            "connections: {conns_accepted} accepted; busiest conn #{conn} ({requests} requests)"
        ),
        None if conns_accepted > 0 => {
            println!("connections: {conns_accepted} accepted, none closed before the dump")
        }
        None => println!("connections: none recorded"),
    }

    // Slow requests, ranked by total latency, attributed to their
    // dominant phase.
    let mut slow: Vec<(u64, u64, fmm_obs::SlowPhase, u64)> = entries
        .iter()
        .filter_map(|e| match e.event {
            Some(FlightEvent::SlowRequest { request_id, total_nanos, phase, phase_nanos }) => {
                Some((request_id, total_nanos, phase, phase_nanos))
            }
            _ => None,
        })
        .collect();
    slow.sort_by_key(|&(_, total, _, _)| std::cmp::Reverse(total));
    if let Some(&(request_id, total_nanos, phase, phase_nanos)) = slow.first() {
        println!(
            "slow requests: {} over threshold; slowest request {request_id} took {:.3} s, \
             dominated by {} ({:.3} s)",
            slow.len(),
            total_nanos as f64 / 1e9,
            phase.name(),
            phase_nanos as f64 / 1e9,
        );
    } else {
        println!("slow requests: none over threshold");
    }

    // Error and refusal bursts from the flight ring (order-of-arrival
    // detail lives in the timeline below; this is the tally).
    let mut errors: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut refusals: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for e in &entries {
        match e.event {
            Some(FlightEvent::ErrorSent { code, .. }) => {
                let name = match code {
                    1 => "malformed",
                    2 => "unsupported-version",
                    3 => "oversized",
                    4 => "busy",
                    5 => "internal",
                    6 => "shutting-down",
                    _ => "unknown",
                };
                *errors.entry(name).or_default() += 1;
            }
            Some(FlightEvent::AdmissionRefused { reason, .. }) => {
                *refusals.entry(reason.name()).or_default() += 1;
            }
            _ => {}
        }
    }
    let tally = |map: &std::collections::BTreeMap<&'static str, u64>| -> String {
        map.iter().map(|(k, v)| format!("{k} {v}")).collect::<Vec<_>>().join(", ")
    };
    if !errors.is_empty() {
        println!("errors sent: {}", tally(&errors));
    }
    if !refusals.is_empty() {
        println!("admission refusals: {}", tally(&refusals));
    }

    // Timeline: the tail of the ring, timestamps relative to the oldest
    // retained event.
    let epoch = entries.iter().map(|e| e.nanos).min().unwrap_or(0);
    const TIMELINE_TAIL: usize = 20;
    let start = entries.len().saturating_sub(TIMELINE_TAIL);
    if !entries.is_empty() {
        println!("timeline (last {} of {} events):", entries.len() - start, entries.len());
        for e in &entries[start..] {
            let at = e.nanos.saturating_sub(epoch) as f64 / 1e9;
            let line = match &e.event {
                Some(ev) => ev.describe(),
                None if !e.detail.is_empty() => e.detail.clone(),
                None => "unknown event".to_string(),
            };
            println!("  +{at:>9.3}s  {line}");
        }
    }

    // The one-line verdict scripts grep for.
    if let Some(&(component, stalled_nanos, _)) = stalls.first() {
        println!(
            "diagnosis: {} stalled ({:.3} s without progress) before the {} dump",
            component_name(component),
            stalled_nanos as f64 / 1e9,
            if trigger.is_empty() { "incident" } else { &trigger }
        );
    } else if stalls_total > 0 {
        println!(
            "diagnosis: {stalls_total} watchdog stalls counted but none retained in the \
             flight ring — raise FLIGHT_CAPACITY or dump sooner"
        );
    } else {
        match trigger.as_str() {
            "sigterm" | "sigint" => println!(
                "diagnosis: clean exit — {} received, no watchdog stalls, in-flight work drained",
                trigger.to_uppercase()
            ),
            "panic" => println!(
                "diagnosis: panic with no prior watchdog stall — see the crashed process's \
                 stderr for the panic message"
            ),
            "watchdog-abort" => println!(
                "diagnosis: watchdog abort requested but no stall event retained — \
                 inspect the timeline above"
            ),
            _ => println!("diagnosis: on-demand snapshot, no fault recorded"),
        }
    }
}

fn cmd_shutdown(o: &Options) {
    let mut client = connect(o);
    match client.shutdown() {
        Ok(()) => println!("shutdown acknowledged by {}", o.addr),
        Err(e) => {
            eprintln!("shutdown failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The network loadgen: `threads` clients × `requests` square problems
/// each. Throughput is wall-clock over all completed requests; latency is
/// client-observed (send → response decoded), summarized at p50/p99.
fn cmd_bench(o: &Options) {
    assert!(o.dtype == "f64" || o.dtype == "f32", "--dtype takes f64 or f32");
    let n = o.size;
    let depth = o.pipeline.max(1);
    println!(
        "bench: {} threads x {} requests, {}^3 {}, pipelined x{depth}, against {}",
        o.threads, o.requests, n, o.dtype, o.addr
    );
    let run = |count: usize, seed: u64, depth: usize| {
        if o.dtype == "f32" {
            run_pipelined::<f32>(o, count, seed, depth)
        } else {
            run_pipelined::<f64>(o, count, seed, depth)
        }
    };

    // Warmup (and connectivity check): one request outside the timed
    // region so the server's decision/plan/arena caches are hot.
    run(1, 0, 1);

    let t0 = Instant::now();
    let all_latencies: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..o.threads.max(1))
            .map(|t| s.spawn(move || run(o.requests, t as u64, depth)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("bench thread panicked")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    let latencies_secs: Vec<f64> = all_latencies.into_iter().flatten().collect();
    let total = latencies_secs.len();
    let summary = fmm_serve::metrics::summarize(&latencies_secs);
    let flops = 2.0 * (n as f64).powi(3) * total as f64;
    println!(
        "{total} requests in {wall:.3} s: {:.1} req/s, {:.2} GFLOP/s aggregate",
        total as f64 / wall,
        flops / wall / 1e9
    );
    println!(
        "latency: mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
        summary.mean_ms, summary.p50_ms, summary.p99_ms
    );
}

/// How long the loadgen pauses before re-sending a request the server
/// refused with `Busy`.
const BUSY_PAUSE: Duration = Duration::from_millis(1);

/// Loadgen body: one [`PipelinedClient`] keeping up to `depth` requests in
/// flight on a single connection; returns per-request latencies (send →
/// matched response) in seconds. A `Busy` refusal re-sends the same
/// problem after a short pause without resetting that request's latency
/// clock, so refusals show up as tail latency, not as missing samples.
/// With `--verify`, the first response is checked against the local
/// blocked-GEMM reference.
fn run_pipelined<T>(o: &Options, count: usize, seed: u64, depth: usize) -> Vec<f64>
where
    T: fmm_serve::WireScalar + fmm_gemm::GemmScalar,
{
    let n = o.size;
    let a = fill::bench_workload_t::<T>(n, n, 2 * seed + 1);
    let b = fill::bench_workload_t::<T>(n, n, 2 * seed + 2);
    let mut client = connect(o);
    let send = |client: &mut PipelinedClient| {
        client.send(&a, &b).unwrap_or_else(|e| {
            eprintln!("send failed: {e}");
            std::process::exit(1);
        })
    };
    let mut latencies = Vec::with_capacity(count);
    let mut window: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);
    let mut sent = 0usize;
    let mut verified = !o.verify;
    while latencies.len() < count {
        while sent < count && window.len() < depth {
            let t0 = Instant::now();
            window.push_back((send(&mut client), t0));
            sent += 1;
        }
        let (id, t0) = window.pop_front().expect("in-flight window empty");
        match client.recv::<T>(id) {
            Ok(c) => {
                latencies.push(t0.elapsed().as_secs_f64());
                if !verified {
                    verified = true;
                    verify_against_reference(&a, &b, &c);
                }
            }
            Err(e) if e.is_busy() => {
                std::thread::sleep(BUSY_PAUSE);
                window.push_back((send(&mut client), t0));
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                std::process::exit(1);
            }
        }
    }
    latencies
}

fn verify_against_reference<T: fmm_gemm::GemmScalar>(a: &Matrix<T>, b: &Matrix<T>, c: &Matrix<T>) {
    let mut c_ref = Matrix::<T>::zeros(a.rows(), b.cols());
    fmm_gemm::gemm(c_ref.as_mut(), a.as_ref(), b.as_ref());
    let err = norms::rel_error(c.cast::<f64>().as_ref(), c_ref.cast::<f64>().as_ref());
    let bound = T::accuracy_bound(a.cols(), 2).max(1e-9);
    assert!(err < bound, "served result diverges from blocked GEMM: {err} (bound {bound})");
}
