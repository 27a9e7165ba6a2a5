//! `fmm_serve` — operate the serving daemon from the command line.
//!
//! ```sh
//! fmm_serve serve [--addr 127.0.0.1:7117] [--max-batch 32] [--queue 256]
//!                 [--workers 0]
//!                 [--trace] [--incident-dir DIR] [--no-watchdog]
//!                 [--watchdog-stall-ms 1000] [--watchdog-abort-after MS]
//!                 [--slow-ms 250]
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
//! `serve` gives every accepted connection its own reader and writer
//! thread. It runs until a client sends a `Shutdown` frame, then drains
//! in-flight work, prints the final stats snapshot (the `stats --prom`
//! exposition), and exits 0 — the clean shutdown `cli_smoke.rs` asserts.
//! `bench` is the network loadgen: N client threads
//! each issuing M requests over their own connection, reporting aggregate
//! throughput and client-observed latency percentiles. Each thread holds
//! a window of `--pipeline D` requests in flight on its connection (the
//! default, 1, is a blocking caller); a `Busy` refusal re-sends the same
//! problem after a short pause.
//!
//! `stats` fetches the stats snapshot (counters, gauges, per-phase latency
//! histograms, decision audit) as JSON; `--prom` fetches the same snapshot
//! as Prometheus plaintext. `trace` dumps the recorder's recent events —
//! the always-on ones, plus the request phase spans of a server running
//! with `--trace` (or `FMM_TRACE=1`) — as per-request timelines, or as a
//! chrome://tracing JSON file with `--chrome FILE`.
//!
//! `doctor` is the offline incident analyzer: given a dump written by a
//! `--incident-dir` daemon (on SIGTERM/SIGINT, panic, or watchdog abort)
//! or fetched over the wire, it decodes it (schema tag included), reads
//! the same event list, names any stalled watchdog component, ranks slow
//! requests by their dominant phase, summarizes error and refusal bursts,
//! prints the timeline of notable events, and closes with a one-line
//! diagnosis.
//!
//! `audit` reads the decision-audit section of the stats snapshot and
//! ranks shape classes by model error `|log2(predicted/measured)|`;
//! classes above `--threshold` are listed as retune candidates (the ones
//! the model misjudges). `top` is the live terminal view: it polls the
//! same snapshot every `--interval-ms`, showing request counters as
//! rates, per-phase latency quantiles, and per-shape-class GFLOP/s
//! computed from the flops and busy-nanos deltas between consecutive
//! snapshots (`--once` prints a single frame for scripts and tests).
//!
//! Every document is decoded through `fmm_serve::snapshot`; one that is
//! malformed — a key missing, renamed, or of the wrong type — exits 1 with
//! a message naming the key instead of rendering zeros.

use fmm_dense::{fill, norms, Matrix};
use fmm_obs::audit::SOURCE_NAMES;
use fmm_obs::{AuditEntry, Event, Kind, RefusalReason};
use fmm_serve::{
    BatchPolicy, BuildInfo, Document, ErrorCode, Incident, Logged, PipelinedClient, ServeConfig,
    Server, StatsSnapshot,
};
use std::collections::{BTreeMap, VecDeque};
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
    max_batch: usize,
    queue: usize,
    workers: usize,
    threads: usize,
    requests: usize,
    size: usize,
    dtype: String,
    count: usize,
    verify: bool,
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
            max_batch: 32,
            queue: 256,
            workers: 0,
            threads: 4,
            requests: 32,
            size: 96,
            dtype: "f64".to_string(),
            count: 3,
            verify: false,
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
        let mut args = argv.iter();
        while let Some(flag) = args.next() {
            let mut value =
                || args.next().unwrap_or_else(|| panic!("{flag} takes a value")).clone();
            match flag.as_str() {
                "--addr" => o.addr = value(),
                "--max-batch" => o.max_batch = number(flag, value()),
                "--queue" => o.queue = number(flag, value()),
                "--workers" => o.workers = number(flag, value()),
                "--threads" => o.threads = number(flag, value()),
                "--requests" => o.requests = number(flag, value()),
                "--size" => o.size = number(flag, value()),
                "--dtype" => o.dtype = value(),
                "--count" => o.count = number(flag, value()),
                "--verify" => o.verify = true,
                "--pipeline" => o.pipeline = number(flag, value()),
                "--trace" => o.trace = true,
                "--prom" => o.prom = true,
                "--last" => o.last = number(flag, value()),
                "--chrome" => o.chrome = Some(value()),
                "--threshold" => o.threshold = number(flag, value()),
                "--interval-ms" => o.interval_ms = number(flag, value()),
                "--once" => o.once = true,
                "--incident-dir" => o.incident_dir = Some(value()),
                "--no-watchdog" => o.watchdog = false,
                "--watchdog-stall-ms" => o.watchdog_stall_ms = number(flag, value()),
                "--watchdog-abort-after" => o.watchdog_abort_after_ms = number(flag, value()),
                "--slow-ms" => o.slow_ms = number(flag, value()),
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        o
    }
}

/// A flag's numeric value; a malformed one is fatal, like a missing one.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> T {
    value.parse().unwrap_or_else(|_| panic!("{flag} takes a number, got {value:?}"))
}

fn cmd_serve(o: &Options) {
    let config = ServeConfig {
        addr: o.addr.clone(),
        batch: BatchPolicy { max_batch: o.max_batch.max(1), ..BatchPolicy::default() },
        queue_capacity: o.queue,
        workers: o.workers,
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
    let max_batch = config.batch.max_batch;
    let handle = or_exit(Server::spawn(config), &format!("failed to bind {}", o.addr));
    println!("fmm_serve listening on {}", handle.addr());
    println!("{}", BuildInfo::current());
    println!("micro-batching: max batch {max_batch}, queue capacity {}", o.queue);
    let stall_ms = o.watchdog_stall_ms.max(1);
    match (o.watchdog, o.watchdog_abort_after_ms) {
        (false, _) => println!("watchdog: disabled"),
        (true, 0) => println!("watchdog: stall after {stall_ms} ms"),
        (true, abort) => println!("watchdog: stall after {stall_ms} ms, abort after {abort} ms"),
    }
    if let Some(dir) = &o.incident_dir {
        println!("incident dumps: {dir}");
    }
    // The final snapshot, in the same exposition `stats --prom` returns.
    print!("{}", handle.wait().to_prometheus());
    println!("fmm_serve: shutdown complete");
}

/// The value, or exit 1 with `what: error` on stderr — connection,
/// protocol, and document-decoding failures alike (a decoding error names
/// the missing or mistyped key).
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what}: {e}");
        std::process::exit(1)
    })
}

fn connect(o: &Options) -> PipelinedClient {
    or_exit(PipelinedClient::connect(&o.addr), &format!("cannot connect to {}", o.addr))
}

fn cmd_ping(o: &Options) {
    let mut client = connect(o);
    for i in 0..o.count.max(1) {
        let rtt = or_exit(client.ping(), "ping failed");
        println!("pong {} from {}: {:.3} ms", i + 1, o.addr, rtt.as_secs_f64() * 1e3);
    }
}

fn cmd_stats(o: &Options) {
    let mut client = connect(o);
    let body = if o.prom {
        or_exit(client.stats_prometheus(), "stats failed")
    } else {
        or_exit(client.stats(), "stats failed").to_json()
    };
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
}

/// The snapshot's audit rows, worst model error first (the `audit`
/// ranking; `top` lists them in the same order).
fn ranked_audit(stats: &StatsSnapshot) -> Vec<&AuditEntry> {
    let mut rows: Vec<&AuditEntry> = stats.audit.iter().collect();
    rows.sort_by(|a, b| b.error_log2().total_cmp(&a.error_log2()));
    rows
}

/// The routing source that served most of a class's samples.
fn top_source(entry: &AuditEntry) -> &'static str {
    SOURCE_NAMES.iter().zip(entry.by_source).max_by_key(|&(_, n)| n).map_or("", |(name, _)| *name)
}

/// Rank shape classes by predicted-vs-measured model error and flag
/// retune candidates: the classes the model misjudges beyond `--threshold`.
fn cmd_audit(o: &Options) {
    let stats = or_exit(connect(o).stats(), "stats failed");
    let rows = ranked_audit(&stats);
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
            r.class_label,
            r.dtype,
            r.samples,
            r.error_log2(),
            r.predicted_nanos as f64 / 1e6,
            r.measured_nanos as f64 / 1e6,
            r.err_permille.p50(),
            r.err_permille.p99(),
            r.mean_gflops(),
            r.best_gflops_milli as f64 / 1e3,
            top_source(r),
            r.chosen
        );
    }
    let flagged: Vec<&&AuditEntry> =
        rows.iter().filter(|r| r.samples > 0 && r.error_log2() > o.threshold).collect();
    if flagged.is_empty() {
        println!("model error within threshold ({:.2} log2) for every class", o.threshold);
        return;
    }
    println!("retune candidates (|log2 err| > {:.2}):", o.threshold);
    for r in &flagged {
        println!(
            "  {}: predicted {:.3} ms vs measured {:.3} ms ({} samples, worst {:.2} GFLOP/s)",
            r.key(),
            r.predicted_nanos as f64 / 1e6,
            r.measured_nanos as f64 / 1e6,
            r.samples,
            r.worst_gflops_milli as f64 / 1e3
        );
    }
}

/// Per-class `(flops, measured_nanos)` cumulative totals from one `top`
/// frame, keyed `class/dtype` — the baseline for the next frame's
/// interval GFLOP/s.
type ClassTotals = BTreeMap<String, (u64, u64)>;

/// Live terminal view: poll the stats snapshot every `--interval-ms`,
/// rendering request rates, per-phase latency quantiles, and per-class
/// GFLOP/s from flops/busy-nanos deltas between consecutive frames.
fn cmd_top(o: &Options) {
    let interval = Duration::from_millis(o.interval_ms.max(1));
    let mut client = connect(o);
    let mut prev: Option<(ClassTotals, u64, Instant)> = None;
    loop {
        let stats = or_exit(client.stats(), "stats failed");
        let now = Instant::now();
        let counter = |name: &str| or_exit(stats.counter(name), "stats reply");
        let gauge = |name: &str| or_exit(stats.gauge(name), "stats reply");
        let responses = counter("fmm_serve_responses_total");
        let rate = match &prev {
            Some((_, prev_responses, then)) if now > *then => {
                responses.saturating_sub(*prev_responses) as f64
                    / now.duration_since(*then).as_secs_f64()
            }
            _ => 0.0,
        };
        if !o.once {
            // ANSI clear + home keeps the frame in place like top(1).
            print!("\x1b[2J\x1b[H");
        }
        println!("fmm_serve top — {} (interval {} ms)", o.addr, o.interval_ms);
        println!("server {}", stats.build);
        println!(
            "requests {:>10}  responses {:>10}  {:>8.1} req/s  inflight {:>4}  conns {:>4}",
            counter("fmm_serve_requests_total"),
            responses,
            rate,
            gauge("fmm_serve_inflight"),
            gauge("fmm_serve_connections"),
        );
        println!(
            "batches  {:>10}  items     {:>10}  occupancy max {:>3}  busy rejects {:>6}",
            counter("fmm_serve_batches_total"),
            counter("fmm_serve_batched_items_total"),
            counter("fmm_serve_batch_occupancy_max"),
            counter("fmm_serve_errors_total_busy"),
        );
        println!("{:<28} {:>9} {:>9} {:>9} {:>9}", "phase", "count", "p50 ms", "p99 ms", "max ms");
        for name in
            ["fmm_serve_queue_wait_nanos", "fmm_serve_service_nanos", "fmm_serve_latency_nanos"]
        {
            let h = or_exit(stats.histogram(name), "stats reply");
            println!(
                "{:<28} {:>9} {:>9.3} {:>9.3} {:>9.3}",
                name.trim_start_matches("fmm_serve_").trim_end_matches("_nanos"),
                h.count,
                h.p50() as f64 / 1e6,
                h.p99() as f64 / 1e6,
                h.max as f64 / 1e6,
            );
        }
        let rows = ranked_audit(&stats);
        let mut totals = ClassTotals::new();
        if rows.is_empty() {
            println!("audit: no samples yet");
        } else {
            println!(
                "{:<18} {:>5} {:>8} {:>10} {:>11} {:>11}  {:<8}",
                "class", "dtype", "samples", "|log2err|", "GF/s now", "GF/s avg", "source"
            );
            for r in &rows {
                totals.insert(r.key(), (r.flops, r.measured_nanos));
                // Interval GFLOP/s from the deltas between frames; the
                // cumulative mean stands in until a second frame exists
                // (and whenever the class was idle this interval).
                let now_gflops = prev
                    .as_ref()
                    .and_then(|(prev_totals, _, _)| {
                        let (pf, pn) = prev_totals.get(&r.key())?;
                        let dn = r.measured_nanos.saturating_sub(*pn);
                        (dn > 0).then(|| r.flops.saturating_sub(*pf) as f64 / dn as f64)
                    })
                    .unwrap_or(r.mean_gflops());
                println!(
                    "{:<18} {:>5} {:>8} {:>10.3} {:>11.2} {:>11.2}  {:<8}",
                    r.class_label,
                    r.dtype,
                    r.samples,
                    r.error_log2(),
                    now_gflops,
                    r.mean_gflops(),
                    top_source(r)
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

/// Fetch the recorder's recent events and render them as per-request
/// timelines (or a chrome://tracing JSON file with `--chrome`).
fn cmd_trace(o: &Options) {
    let logged = or_exit(connect(o).trace(o.last), "trace failed");
    let events: Vec<Event> = logged.iter().map(|l| l.event).collect();
    if events.is_empty() {
        println!("no events recorded");
        return;
    }
    if let Some(path) = &o.chrome {
        let json = fmm_obs::trace::chrome_trace(&events);
        or_exit(std::fs::write(path, json), &format!("cannot write {path}"));
        println!("{} events written to {path} (chrome://tracing format)", events.len());
        return;
    }
    print_timelines(&events);
}

/// Group events by request id and print each request's in start order,
/// timestamps relative to the earliest event in the dump.
fn print_timelines(events: &[Event]) {
    let epoch = events.iter().map(|e| e.start_nanos).min().unwrap_or(0);
    let mut by_request: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        by_request.entry(e.request_id).or_default().push(e);
    }
    for (request_id, mut spans) in by_request {
        spans.sort_by_key(|e| (e.start_nanos, e.end_nanos));
        if request_id == 0 {
            println!("untagged events (no request id):");
        } else {
            println!("request {request_id}:");
        }
        for e in spans {
            let at_ms = (e.start_nanos - epoch) as f64 / 1e6;
            let dur = match e.nanos() {
                0 => String::new(),
                nanos => format!("  +{:>9.1} us", nanos as f64 / 1e3),
            };
            println!("  {:<14} @ {at_ms:>10.3} ms{dur}  (thread {})", e.kind.name(), e.thread);
        }
    }
}

/// Offline incident analyzer: decode a dump produced by `--incident-dir`
/// (or fetched over the wire) and turn its events, watchdog roster and
/// counters into a post-mortem story: what tripped the dump, which
/// component (if any) was stalled, which connection was busiest, where the
/// slowest requests spent their time, and whether errors or refusals were
/// bursting. Exits 1 on a missing file or a document that does not decode
/// as an incident (foreign schema tag included), naming the offending key.
fn cmd_doctor(path: &str) {
    let text =
        or_exit(std::fs::read_to_string(path), &format!("fmm_serve doctor: cannot read {path}"));
    let doc = or_exit(
        Incident::from_json(&text),
        &format!("fmm_serve doctor: {path} is not a readable incident dump"),
    );
    let trigger = doc.trigger.as_str();
    println!("incident: {trigger} — {}", doc.build);

    // Watchdog roster: component ids in watchdog events index this list.
    let (components, stalls_total) =
        doc.watchdog.as_ref().map_or((&[][..], 0), |wd| (&wd.components[..], wd.stalls_total));
    if doc.watchdog.is_some() {
        println!(
            "watchdog: {} components [{}], stalls {stalls_total}",
            components.len(),
            components.join(", ")
        );
    } else {
        println!("watchdog: not running");
    }
    let component_name = |id: u64| -> String {
        components.get(id as usize).cloned().unwrap_or_else(|| format!("component #{id}"))
    };

    // The notable events tell the story; a traced daemon's spans ride along
    // in the dump for `trace`-style reading.
    let notable: Vec<&Logged> = doc.events.iter().filter(|l| l.event.kind.always_on()).collect();
    if notable.is_empty() {
        println!("event recorder: empty (daemon recorded no events before the dump)");
    }
    let mut stalls: Vec<(u64, u64, u64)> = Vec::new();
    let mut slow: Vec<&Event> = Vec::new();
    let (mut conns_accepted, mut busiest) = (0u64, None::<(u64, u64)>);
    let (mut errors, mut refusals) = (BTreeMap::<String, u64>::new(), BTreeMap::new());
    for Logged { event, .. } in &notable {
        let [a, b, _] = event.args;
        match event.kind {
            Kind::WatchdogStall => stalls.push((a, event.nanos(), b)),
            Kind::SlowRequest => slow.push(event),
            Kind::ConnAccepted => conns_accepted += 1,
            // The daemon closes every connection during drain, so a
            // SIGTERM dump sees every tally.
            Kind::ConnClosed if busiest.is_none_or(|(_, best)| b > best) => busiest = Some((a, b)),
            Kind::ErrorSent => {
                let name = u8::try_from(b).ok().and_then(ErrorCode::from_u8);
                *errors.entry(name.map_or("unknown".into(), |c| c.to_string())).or_default() += 1;
            }
            Kind::AdmissionRefused => {
                *refusals.entry(RefusalReason::name_of(b).to_string()).or_default() += 1
            }
            _ => {}
        }
    }

    // Stalled components, worst first.
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
    match busiest {
        Some((conn, requests)) => println!(
            "connections: {conns_accepted} accepted; busiest conn #{conn} ({requests} requests)"
        ),
        None if conns_accepted > 0 => {
            println!("connections: {conns_accepted} accepted, none closed before the dump")
        }
        None => println!("connections: none recorded"),
    }
    // Slow requests, ranked by total latency, attributed to the larger of
    // their queue wait and execution.
    slow.sort_by_key(|e| std::cmp::Reverse(e.nanos()));
    if let Some(e) = slow.first() {
        let [wait, execute, _] = e.args;
        let (phase, phase_nanos) =
            if wait > execute { ("queue-wait", wait) } else { ("execute", execute) };
        println!(
            "slow requests: {} over threshold; slowest request {} took {:.3} s, \
             dominated by {phase} ({:.3} s)",
            slow.len(),
            e.request_id,
            e.nanos() as f64 / 1e9,
            phase_nanos as f64 / 1e9,
        );
    } else {
        println!("slow requests: none over threshold");
    }
    // Error and refusal bursts (order of arrival is in the timeline).
    let tally = |map: &BTreeMap<String, u64>| -> String {
        map.iter().map(|(k, v)| format!("{k} {v}")).collect::<Vec<_>>().join(", ")
    };
    if !errors.is_empty() {
        println!("errors sent: {}", tally(&errors));
    }
    if !refusals.is_empty() {
        println!("admission refusals: {}", tally(&refusals));
    }

    // Timeline: the tail of the notable events, each in the writing
    // binary's words, timestamps relative to the oldest retained one.
    let epoch = notable.iter().map(|l| l.event.end_nanos).min().unwrap_or(0);
    const TIMELINE_TAIL: usize = 20;
    let start = notable.len().saturating_sub(TIMELINE_TAIL);
    if !notable.is_empty() {
        println!("timeline (last {} of {} events):", notable.len() - start, notable.len());
        for l in &notable[start..] {
            let at = l.event.end_nanos.saturating_sub(epoch) as f64 / 1e9;
            println!("  +{at:>9.3}s  {}", l.detail);
        }
    }

    // The one-line verdict scripts grep for.
    if let Some(&(component, stalled_nanos, _)) = stalls.first() {
        println!(
            "diagnosis: {} stalled ({:.3} s without progress) before the {trigger} dump",
            component_name(component),
            stalled_nanos as f64 / 1e9,
        );
    } else if stalls_total > 0 {
        println!(
            "diagnosis: {stalls_total} watchdog stalls counted but none retained in the \
             always-on ring — raise trace::ALWAYS_ON_CAPACITY or dump sooner"
        );
    } else {
        match trigger {
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
    or_exit(connect(o).shutdown(), "shutdown failed");
    println!("shutdown acknowledged by {}", o.addr);
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
    let send = |client: &mut PipelinedClient| or_exit(client.send(&a, &b), "send failed");
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
