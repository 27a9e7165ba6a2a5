//! The front door, the pass loop, verification, and the end-to-end run.

use crate::affinity::OneCpu;
use crate::arch::ArchFile;
use crate::names::{Report, END_TO_END};
use crate::ops::{build_ops, distinct, with_mats, Elem, Engines, Mats, Op, Shape, Workload};
use crate::stats::{median_u64, time_ns, BestOf};
use fmm_dense::norms;
use fmm_engine::{ArchSource, EngineConfig, FmmEngine};
use fmm_gemm::GemmScalar;
use fmm_serve::{BatchPolicy, PipelinedClient, ServeConfig, Server, ServerHandle};
use fmm_tune::ShapeClass;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Smoke-test mode: four passes, three set-up probes, small probes.
    /// Its numbers are not comparable with anything.
    pub quick: bool,
}

/// Fresh processes timed for `setup_s`, one before each slice of the
/// measured phase.
const SETUP_PROBES: usize = 9;
/// Levels the engines may nest (`EngineConfig::max_levels` default); the
/// accuracy bound results are held to assumes the deepest.
const MAX_LEVELS: usize = 2;

/// Where the benchmark writes: `benchmark/out/` (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Remove the process-external state routing could depend on: the tune
/// store moves to a path that does not exist (so `~/.cache/fmm/tune.json`
/// is neither read nor written), and the switches that change tracing and
/// calibration are cleared. Call before any thread starts.
pub fn pin_environment() {
    let store = out_dir().join(format!("tune-store-{}.json", std::process::id()));
    std::env::set_var("FMM_TUNE_STORE", store);
    std::env::remove_var("FMM_TRACE");
    std::env::remove_var("FMM_TUNE_CALIBRATE");
}

/// Pin the process to one CPU if `workload` is measured that way (see
/// `affinity`), and say so.
pub fn pin_if_sequential(workload: Workload) -> Option<OneCpu> {
    let pin = workload.over_the_wire().then(OneCpu::pin_or_warn)??;
    println!(
        "every thread of this process runs on cpu {} while {} is measured",
        pin.cpu,
        workload.name()
    );
    Some(pin)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn print_header(opts: &Options, mode: &str, arch: &ArchFile) {
    println!("fmm-ledger {mode}: workload {} seed {}", opts.workload.name(), opts.seed);
    println!(
        "kernels f64 {} f32 {}; nproc {}; measured phase {} s{}",
        f64::micro_kernel_name(),
        f32::micro_kernel_name(),
        nproc(),
        opts.seconds,
        if opts.quick { "; QUICK MODE - numbers are not comparable" } else { "" }
    );
    for (name, a) in [("f64", arch.f64), ("f32", arch.f32)] {
        println!(
            "arch {name}: tau_a {:e} tau_b {:e} lambda {} mc {} kc {} nc {}",
            a.tau_a, a.tau_b, a.lambda, a.mc, a.kc, a.nc
        );
    }
}

/// Sequential, model-routed engines on the pinned constants — what a
/// library caller of `FmmEngine::multiply` gets, minus the calibration.
pub fn sequential_engines(arch: &ArchFile) -> Engines {
    let config = |a| EngineConfig { arch: ArchSource::Fixed(a), ..EngineConfig::default() };
    Engines { f64: FmmEngine::new(config(arch.f64)), f32: FmmEngine::new(config(arch.f32)) }
}

/// The daemon and the one protocol-v2 connection of the `serve` workload.
pub struct Wire {
    pub server: ServerHandle,
    pub client: PipelinedClient,
}

/// The default daemon on the pinned constants.
pub fn serve_config(arch: &ArchFile) -> ServeConfig {
    ServeConfig { arch: ArchSource::Fixed(arch.f64), ..ServeConfig::default() }
}

/// The daemon every closed-loop measurement talks to: the default one,
/// except that a batch closes as soon as the queue is empty. With the
/// default policy the dispatcher waits 200 µs for a straggler that a lone
/// closed-loop client cannot send; every CPU halts meanwhile, and how long
/// a timer takes to wake a halted vCPU is the hypervisor's business. That
/// wait is reported on its own as `serve.gap_wait_us`.
pub fn closed_loop_config(arch: &ArchFile) -> ServeConfig {
    let batch = BatchPolicy { window: Duration::ZERO, ..BatchPolicy::default() };
    ServeConfig { batch, ..serve_config(arch) }
}

impl Wire {
    pub fn open(arch: &ArchFile) -> Result<Self, String> {
        Self::open_with(closed_loop_config(arch))
    }

    pub fn open_with(config: ServeConfig) -> Result<Self, String> {
        let server = Server::spawn(config).map_err(|e| format!("spawn: {e}"))?;
        let client =
            PipelinedClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Self { server, client })
    }

    /// `C = A·B` over the wire, one request in flight; returns the round
    /// trip in nanoseconds.
    pub fn multiply<T: Elem>(&mut self, m: &mut Mats<T>) -> Result<u64, String> {
        let t0 = Instant::now();
        let id = self.client.send(&m.a, &m.b).map_err(|e| format!("send: {e:?}"))?;
        m.c = self.client.recv::<T>(id).map_err(|e| format!("recv: {e:?}"))?;
        Ok(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Stop the daemon and wait for its threads.
    pub fn close(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Where operations enter the system under test. A process opens one.
#[allow(clippy::large_enum_variant)]
pub enum Door {
    InProcess(Engines),
    Wire(Wire),
}

impl Door {
    pub fn open(workload: Workload, arch: &ArchFile) -> Result<Self, String> {
        if workload.over_the_wire() {
            Wire::open(arch).map(Door::Wire)
        } else {
            Ok(Door::InProcess(sequential_engines(arch)))
        }
    }

    /// One operation through the front door, timed; the product lands in
    /// `m.c`. An error frame, `Busy` or a broken connection is an `Err`.
    pub fn multiply<T: Elem>(&mut self, m: &mut Mats<T>) -> Result<u64, String> {
        match self {
            Door::InProcess(engines) => Ok(engine_multiply(engines, m)),
            Door::Wire(wire) => wire.multiply(m),
        }
    }

    /// The route the system chose for `s`. In-process engines answer
    /// directly; the daemon's engines are private, so its choice is read
    /// from the process-wide decision audit they write to.
    pub fn route_label(&self, s: Shape) -> String {
        match self {
            Door::InProcess(engines) => engines.decision_label(s),
            Door::Wire(_) => {
                let class = ShapeClass::of(s.m, s.k, s.n).label();
                fmm_obs::audit::snapshot()
                    .into_iter()
                    .find(|e| e.class_label == class && e.dtype == s.dtype.name())
                    .map_or_else(|| "unknown".to_string(), |e| e.chosen)
            }
        }
    }

    /// `[rankings, plan_compositions, arena_grows]` summed over both
    /// engines; flat over a warm measured phase.
    pub fn engine_counts(&self) -> [u64; 3] {
        let (a, b) = match self {
            Door::InProcess(e) => (e.f64.stats(), e.f32.stats()),
            Door::Wire(w) => w.server.engine_stats(),
        };
        [
            a.rankings + b.rankings,
            a.plan_compositions + b.plan_compositions,
            a.arena_grows + b.arena_grows,
        ]
    }

    /// Stop the daemon, if any, and wait for its threads.
    pub fn close(self) {
        if let Door::Wire(wire) = self {
            wire.close();
        }
    }
}

/// `FmmEngine::multiply` into a zeroed `m.c`, timed.
pub fn engine_multiply<T: Elem>(engines: &Engines, m: &mut Mats<T>) -> u64 {
    m.c.clear();
    let (c, a, b) = (m.c.as_mut(), m.a.as_ref(), m.b.as_ref());
    time_ns(|| T::engine(engines).multiply(c, a, b))
}

/// The same op through plain blocked GEMM, in-process, one thread.
pub fn baseline<T: Elem>(m: &mut Mats<T>) -> u64 {
    m.c_ref.clear();
    let (c, a, b) = (m.c_ref.as_mut(), m.a.as_ref(), m.b.as_ref());
    time_ns(|| fmm_gemm::gemm(c, a, b))
}

/// Front-door result against blocked GEMM at the dtype's accuracy bound,
/// and for small ops blocked GEMM against the triple loop. Returns whether
/// both hold and the first error as a share of its bound.
fn check<T: Elem>(m: &Mats<T>, s: Shape) -> (bool, f64) {
    if (m.c.rows(), m.c.cols()) != (s.m, s.n) {
        return (false, f64::INFINITY);
    }
    let bound = T::accuracy_bound(s.k, MAX_LEVELS);
    let err = norms::rel_error(m.c.as_ref(), m.c_ref.as_ref());
    let mut ok = err <= bound;
    if s.m.max(s.k).max(s.n) <= 128 {
        let exact = fmm_gemm::reference::matmul(m.a.as_ref(), m.b.as_ref());
        ok &= norms::rel_error(m.c_ref.as_ref(), exact.as_ref()) <= T::accuracy_bound(s.k, 0);
    }
    (ok, err / bound)
}

/// Front-door operations attempted and failed so far.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one attempt on op `i`; a failure is reported and has no time.
    pub fn count(&mut self, i: usize, shape: Shape, result: Result<u64, String>) -> Option<u64> {
        self.attempted += 1;
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("op {i} ({}) failed: {e}", shape.label());
            })
            .ok()
    }
}

/// One workload being measured: operands, the open front door, and the
/// best times so far.
pub struct Session {
    pub ops: Vec<Op>,
    pub door: Door,
    /// Route label per op, as the system under test reports it.
    pub labels: Vec<String>,
    pub front: BestOf,
    pub base: BestOf,
    pub tally: Tally,
    /// Largest verified error as a share of its bound.
    pub err_over_bound: f64,
}

impl Session {
    /// Build the operands, open the front door and run one verified
    /// warm-up pass pair, after which caches are filled and routes known.
    pub fn open(opts: Options, arch: ArchFile) -> Result<Self, String> {
        let ops = build_ops(&opts.workload.shapes(opts.seed), opts.seed);
        let door = Door::open(opts.workload, &arch)?;
        let n = ops.len();
        let mut s = Self {
            ops,
            door,
            labels: Vec::new(),
            front: BestOf::new(n),
            base: BestOf::new(n),
            tally: Tally::default(),
            err_over_bound: 0.0,
        };
        s.front_pass();
        s.base_pass();
        s.verify();
        s.labels = s.ops.iter().map(|op| s.door.route_label(op.shape)).collect();
        Ok(s)
    }

    /// Every op once through the front door, each timed on its own.
    pub fn front_pass(&mut self) {
        for (i, op) in self.ops.iter_mut().enumerate() {
            let result = with_mats!(&mut op.data, m => self.door.multiply(m));
            if let Some(ns) = self.tally.count(i, op.shape, result) {
                self.front.record(i, ns);
            }
        }
    }

    /// The same ops through the baseline.
    pub fn base_pass(&mut self) {
        for (i, op) in self.ops.iter_mut().enumerate() {
            self.base.record(i, with_mats!(&mut op.data, m => baseline(m)));
        }
    }

    /// Check the results the last pass pair left behind; a miss is a
    /// failed op.
    pub fn verify(&mut self) {
        for (i, op) in self.ops.iter().enumerate() {
            let (ok, ratio) = with_mats!(&op.data, m => check(m, op.shape));
            self.err_over_bound = self.err_over_bound.max(ratio);
            if !ok {
                self.tally.failed += 1;
                eprintln!("op {i} ({}) wrong: error {ratio:.3} of its bound", op.shape.label());
            }
        }
    }

    /// Pass pairs until `seconds` have gone by since `since`, but at least
    /// one. Returns the number of pairs.
    pub fn measure(&mut self, since: Instant, seconds: f64) -> u64 {
        let mut pairs = 0;
        loop {
            self.front_pass();
            self.base_pass();
            pairs += 1;
            if since.elapsed().as_secs_f64() >= seconds {
                return pairs;
            }
        }
    }

    /// Σ baseline ÷ Σ front door of `time`, over the ops that have both.
    pub fn vs_gemm(&self, time: fn(&BestOf, usize) -> Option<u64>) -> f64 {
        let (front, base) = (0..self.ops.len())
            .filter_map(|i| Some((time(&self.front, i)?, time(&self.base, i)?)))
            .fold((0, 0), |acc, (f, b)| (acc.0 + f, acc.1 + b));
        base as f64 / front as f64
    }

    pub fn flops(&self) -> f64 {
        self.ops.iter().map(|op| op.shape.flops()).sum()
    }

    /// `route <op> <shape> <label>` lines (`fmm-ledger noise` compares
    /// them across runs) and `best <op> <front-door ns> <GEMM ns>` lines.
    pub fn print_ops(&self) {
        for (i, (op, label)) in self.ops.iter().zip(&self.labels).enumerate() {
            println!("route {i} {} {label}", op.shape.label());
        }
        for i in 0..self.ops.len() {
            println!(
                "best {i} {} {}",
                self.front.get(i).unwrap_or(0),
                self.base.get(i).unwrap_or(0)
            );
        }
    }
}

/// The number after `field` in `/proc/self/status` (`VmHWM:` is in kB).
pub fn proc_status(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// `fmm-ledger setup-probe`: with the inputs already built, time engine or
/// daemon construction and then the first result of every distinct op,
/// each on its own (`setup_part <nanos>` lines, construction first). Runs
/// in a fresh process so nothing is warm. The results are not checked
/// here: the run that spawned the probe verifies its own cold first pass.
pub fn setup_probe(opts: Options) -> Result<(), String> {
    let _pin = pin_if_sequential(opts.workload);
    let arch = ArchFile::load_or_paper_machine();
    let shapes = distinct(&opts.workload.shapes(opts.seed));
    let mut ops = build_ops(&shapes, opts.seed);
    let t0 = Instant::now();
    let mut door = Door::open(opts.workload, &arch)?;
    let mut parts = vec![t0.elapsed().as_nanos() as u64];
    for op in &mut ops {
        let t = Instant::now();
        with_mats!(&mut op.data, m => door.multiply(m))?;
        parts.push(t.elapsed().as_nanos() as u64);
    }
    door.close();
    for nanos in parts {
        println!("setup_part {nanos}");
    }
    Ok(())
}

/// Set-up time from fresh child processes: each part of the set-up
/// (construction, then each distinct op's first result) keeps its fastest
/// time over the probes (nine samples are too few for a quarter), and the
/// parts are summed. Whole set-ups
/// do not repeat on this host: one ranged 0.19–0.34 s on 1024³, and the
/// 192 cold decisions of `small_mix` take 0.65 s in one fresh process and
/// 1.1 s in the next.
struct Setup {
    opts: Options,
    /// Fastest time of each part so far, in nanoseconds.
    best: Vec<u64>,
}

impl Setup {
    /// One more child process.
    fn probe(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let seed = self.opts.seed.to_string();
        let mut args = vec!["setup-probe", self.opts.workload.name(), "--seed", &seed];
        if self.opts.quick {
            args.push("--quick");
        }
        let out =
            Command::new(&exe).args(&args).output().map_err(|e| format!("setup-probe: {e}"))?;
        if !out.status.success() {
            return Err(format!("setup-probe: {}", String::from_utf8_lossy(&out.stderr)));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let nanos: Vec<u64> =
            text.lines().filter_map(|l| l.strip_prefix("setup_part ")?.parse().ok()).collect();
        if self.best.is_empty() {
            self.best = vec![u64::MAX; nanos.len()];
        }
        if nanos.is_empty() || nanos.len() != self.best.len() {
            return Err("setup-probe printed a different set of parts".into());
        }
        for (best, ns) in self.best.iter_mut().zip(nanos) {
            *best = (*best).min(ns);
        }
        Ok(())
    }

    fn seconds(&self) -> f64 {
        self.best.iter().sum::<u64>() as f64 / 1e9
    }
}

/// `fmm-ledger run <workload>`: the untraced run. Prints every end-to-end
/// metric, the route of every op, and the result object as the last line.
pub fn run_end_to_end(opts: Options) -> Result<(), String> {
    let arch = ArchFile::load_or_paper_machine();
    print_header(&opts, "run", &arch);
    let _pin = pin_if_sequential(opts.workload);
    // One set-up probe before each slice of the measured phase: the host
    // slows down for tens of seconds at a time, and probes in a row can all
    // land in one such stretch. The slices share one clock (probes
    // excluded), so a pair that overruns its slice shortens the next.
    let slices = if opts.quick { 3 } else { SETUP_PROBES };
    let seconds = if opts.quick { 0.0 } else { opts.seconds };
    let mut setup = Setup { opts, best: Vec::new() };
    setup.probe()?;
    let mut s = Session::open(opts, arch)?;
    let before = s.door.engine_counts();
    let (mut pairs, mut probing) = (0, Duration::ZERO);
    let t0 = Instant::now();
    for slice in 1..=slices {
        if slice > 1 {
            let t = Instant::now();
            setup.probe()?;
            probing += t.elapsed();
        }
        pairs += s.measure(t0 + probing, seconds * slice as f64 / slices as f64);
        // The warm-up pair was verified when the session opened; so are
        // the last pair of the first slice and the last pair of all.
        if slice == 1 || slice == slices {
            s.verify();
        }
    }
    let after = s.door.engine_counts();
    let rss = proc_status("VmHWM:")? / 1024.0;

    // Absolute times from the fastest sample, the ratio from the mean of
    // the fastest few on both sides (see `BestOf`).
    let mut report = Report::new(END_TO_END);
    report.set("gflops", s.flops() / s.front.sum() as f64);
    report.set("vs_gemm", s.vs_gemm(BestOf::steady));
    report.set("lat_p50_ms", median_u64(&s.front.all()) / 1e6);
    report.set("peak_rss_mb", rss);
    report.set("setup_s", setup.seconds());

    s.print_ops();
    println!(
        "passes {pairs} (each: {} ops through the front door, then through GEMM)",
        s.ops.len()
    );
    println!(
        "engine counters over the measured phase: rankings +{} plan_compositions +{} arena_grows +{}",
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2]
    );
    println!("worst verified error {:.4} of its bound", s.err_over_bound);
    // The ratio as the issue defined it, beside the gated one.
    println!("vs_gemm by minima {:.4}", s.vs_gemm(BestOf::get));
    println!("ops_attempted {} ops_failed {}", s.tally.attempted, s.tally.failed);
    report.print();
    let line = report.to_json(s.tally.attempted, s.tally.failed)?;
    s.door.close();
    println!("{line}");
    Ok(())
}
