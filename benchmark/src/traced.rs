//! The traced run: spans around every call the harness makes into a layer,
//! the per-workload layer metrics derived from them, and the trace file.
//!
//! Span tree of an in-process op (`→` = caused by):
//! `op → engine.multiply → core.execute → gemm.gemm → {gemm.pack, gemm.kernel}`;
//! of a `serve` op: `op → {client.encode, wire.rtt → {serve.ping,
//! engine.multiply_batch → core.execute → …}, client.decode}`.
//! Only the front-door spans are observed; everything below repeats the
//! work through the layer beneath on the same inputs (see `spans`).

use crate::arch::ArchFile;
use crate::harness::{nproc, out_dir, pin_if_sequential, print_header, Door, Options, Session};
use crate::layers::{
    self, daemon_like_engines, pack_a_blocks, pack_b_panels, phase, tile_params, Ceilings,
};
use crate::names::{Report, PER_LAYER};
use crate::ops::{with_mats, Dtype, Elem, Engines, Mats, Shape};
use crate::spans::{layer_sum, rows, write_trace, Origin, Recorder, Row};
use crate::stats::{best_of, median, time_ns, BestOf};
use fmm_core::registry::strassen;
use fmm_core::{fmm_execute, FmmContext, FmmPlan, Strategy, Variant};
use fmm_dense::{MatMut, MatRef};
use fmm_engine::{BatchItem, FmmEngine};
use fmm_gemm::GemmWorkspace;
use fmm_model::{rank_candidates, rank_scheduled, Impl};
use fmm_serve::protocol::{self, FrameKind, VERSION_V2};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// One entry of the model's ranking for a shape, in the engine's terms.
struct Candidate {
    /// `None` is plain GEMM.
    exec: Option<(Arc<FmmPlan>, Variant)>,
    predicted_ns: f64,
    /// As `FmmEngine::decision_label` words it.
    label: String,
}

/// The ranking `engine` routes `s` by, best first. `FmmEngine` keeps its
/// decision private beyond the label, so the harness repeats the call the
/// engine makes — same candidate plans, same constants — and checks the
/// winner's label against the engine's.
fn ranked<T: Elem>(engine: &FmmEngine<T>, s: Shape) -> Vec<Candidate> {
    let plans = engine.candidate_plans();
    let variants = &Impl::FMM_VARIANTS;
    if engine.config().parallel {
        rank_scheduled(s.m, s.k, s.n, &plans, variants, engine.arch(), nproc(), true)
            .into_iter()
            .map(|c| Candidate {
                label: match (&c.plan, c.strategy) {
                    (None, _) => "GEMM".to_string(),
                    (Some(p), Strategy::Dfs) => format!("{} {}", p.describe(), c.impl_.name()),
                    (Some(p), st) => format!("{} {} {}", p.describe(), c.impl_.name(), st.name()),
                },
                predicted_ns: c.prediction.total * 1e9,
                exec: c.plan.zip(c.impl_.to_variant()),
            })
            .collect()
    } else {
        rank_candidates(s.m, s.k, s.n, &plans, variants, engine.arch(), true)
            .into_iter()
            .map(|c| Candidate {
                label: c.describe(),
                predicted_ns: c.prediction.total * 1e9,
                exec: c.plan.zip(c.impl_.to_variant()),
            })
            .collect()
    }
}

/// What substitution needs per element type: an executor context that is
/// not the engine's, and packing buffers. Substituted calls compute into
/// the op's `c_ref`, which the next baseline pass overwrites.
struct Substitute<T> {
    ctx: FmmContext<T>,
    ws: GemmWorkspace<T>,
}

impl<T: Elem> Substitute<T> {
    fn new() -> Self {
        Self {
            ctx: FmmContext::with_defaults(),
            ws: GemmWorkspace::for_params(&tile_params::<T>()),
        }
    }
}

struct Substitutes {
    f64: Substitute<f64>,
    f32: Substitute<f32>,
}

trait Traced: Elem {
    fn substitute(subs: &mut Substitutes) -> &mut Substitute<Self>;
}

impl Traced for f64 {
    fn substitute(subs: &mut Substitutes) -> &mut Substitute<f64> {
        &mut subs.f64
    }
}

impl Traced for f32 {
    fn substitute(subs: &mut Substitutes) -> &mut Substitute<f32> {
        &mut subs.f32
    }
}

/// `C += A·B` as `exec` says, on a context of the harness's own.
fn execute<T: Elem>(
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    exec: &Option<(Arc<FmmPlan>, Variant)>,
    ctx: &mut FmmContext<T>,
) {
    match exec {
        None => fmm_gemm::gemm(c, a, b),
        Some((plan, variant)) => fmm_execute(c, a, b, plan, *variant, ctx),
    }
}

/// The block products of `exec` on `s`: how many, and their shape. Plain
/// GEMM is one product of the whole shape.
fn block_products(
    exec: &Option<(Arc<FmmPlan>, Variant)>,
    s: Shape,
) -> (usize, [usize; 3], [usize; 3]) {
    if let Some((plan, _)) = exec {
        let (pm, pk, pn) = plan.partition_dims();
        let dims = [s.m / pm, s.k / pk, s.n / pn];
        if dims.iter().all(|&d| d > 0) {
            return (plan.rank(), [pm, pk, pn], dims);
        }
    }
    (1, [1, 1, 1], [s.m, s.k, s.n])
}

/// A second, hand-driven protocol-v2 connection, so that encode, round
/// trip and decode each get real timestamps.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }
}

struct Tracer {
    rec: Recorder,
    subs: Substitutes,
    ceilings: Ceilings,
    /// `serve` only: engines configured like the daemon's, and the raw
    /// connection.
    daemon_twin: Option<(Engines, RawConn)>,
    /// Largest executor arena any routed op occupied, in bytes.
    arena_bytes: usize,
    /// Source bytes `gemm.pack` moved, per op.
    pack_bytes: Vec<f64>,
}

impl Tracer {
    /// Record the substituted spans below `parent` for one op: the routed
    /// executor on its own, its block products as plain GEMMs, the packs
    /// those GEMMs perform, and the kernel time their flops imply.
    fn chain<T: Traced>(
        &mut self,
        parent: usize,
        op: usize,
        s: Shape,
        m: &mut Mats<T>,
        route: &Candidate,
    ) {
        let sub = T::substitute(&mut self.subs);
        let (a, b) = (m.a.as_ref(), m.b.as_ref());

        m.c_ref.clear();
        let d_core = time_ns(|| execute(m.c_ref.as_mut(), a, b, &route.exec, &mut sub.ctx));
        let core = self.rec.inside("core.execute", parent, 0, d_core, Origin::Substituted);
        if route.exec.is_some() {
            let bytes = sub.ctx.fmm_workspace_elements() * std::mem::size_of::<T>();
            self.arena_bytes = self.arena_bytes.max(bytes);
        }

        let (r, [pm, pk, pn], [bm, bk, bn]) = block_products(&route.exec, s);
        let blocks = |i: usize| {
            let (im, ik, inn) = (i % pm, (i / pm) % pk, (i / (pm * pk)) % pn);
            (a.submatrix(im * bm, ik * bk, bm, bk), b.submatrix(ik * bk, inn * bn, bk, bn), im, inn)
        };
        // Plain GEMM has nothing between the executor and the driver.
        let d_gemm = if route.exec.is_none() {
            d_core
        } else {
            m.c_ref.clear();
            time_ns(|| {
                for i in 0..r {
                    let (ab, bb, im, inn) = blocks(i);
                    fmm_gemm::gemm(m.c_ref.as_mut().submatrix(im * bm, inn * bn, bm, bn), ab, bb);
                }
            })
        };
        let gemm = self.rec.inside("gemm.gemm", core, 0, d_gemm, Origin::Substituted);

        let p = tile_params::<T>();
        let a_passes = bn.div_ceil(p.nc);
        let d_pack = time_ns(|| {
            for i in 0..r {
                let (ab, bb, ..) = blocks(i);
                pack_b_panels(&mut sub.ws.bbuf, &[(T::ONE, bb)], &p);
                for _ in 0..a_passes {
                    pack_a_blocks(&mut sub.ws.abuf, &[(T::ONE, ab)], &p);
                }
            }
        });
        self.rec.inside("gemm.pack", gemm, 0, d_pack, Origin::Substituted);
        self.pack_bytes[op] =
            (r * (bm * bk * a_passes + bk * bn) * std::mem::size_of::<T>()) as f64;

        let flops = r as f64 * 2.0 * (bm * bk * bn) as f64;
        let d_kernel = (flops / self.ceilings.kernel(s.dtype)) as u64;
        self.rec.inside("gemm.kernel", gemm, d_pack, d_kernel, Origin::Computed);
    }

    /// One op through the front door with its spans. Returns the front
    /// door's time.
    fn op<T: Traced>(
        &mut self,
        door: &mut Door,
        i: usize,
        s: Shape,
        m: &mut Mats<T>,
        route: &Candidate,
    ) -> Result<u64, String> {
        let Some((twin, raw)) = &mut self.daemon_twin else {
            let nanos = door.multiply(m)?;
            let end = self.rec.now();
            let root = self.rec.observed("op", i, None, end - nanos, end);
            let engine = self.rec.observed("engine.multiply", i, Some(root), end - nanos, end);
            self.chain(engine, i, s, m, route);
            return Ok(nanos);
        };

        let t0 = self.rec.now();
        let payload = protocol::encode_request(&m.a, &m.b);
        let t1 = self.rec.now();
        let io = |e: std::io::Error| format!("raw connection: {e}");
        let id = raw.next_id;
        raw.next_id += 1;
        protocol::write_frame_v(&mut raw.writer, VERSION_V2, id, FrameKind::Request, &payload)
            .map_err(io)?;
        raw.writer.flush().map_err(io)?;
        let frame = protocol::read_frame_any(&mut raw.reader, 64 << 20)
            .map_err(|e| format!("raw connection: {e:?}"))?;
        let t2 = self.rec.now();
        if frame.kind != FrameKind::Response || frame.request_id != id {
            return Err(format!("{:?} frame for request {id}", frame.kind));
        }
        m.c = protocol::decode_response::<T>(&frame.payload)?;
        let t3 = self.rec.now();

        let Door::Wire(wire) = door else {
            unreachable!("the daemon's twin exists for serve only")
        };
        let ping = wire.client.ping().map_err(|e| format!("ping: {e:?}"))?.as_nanos() as u64;
        m.c_ref.clear();
        let mut batch = [BatchItem::new(m.c_ref.as_mut(), m.a.as_ref(), m.b.as_ref())];
        let d_batch = time_ns(|| T::engine(twin).multiply_batch(&mut batch));

        let root = self.rec.observed("op", i, None, t0, t3);
        self.rec.observed("client.encode", i, Some(root), t0, t1);
        let rtt = self.rec.observed("wire.rtt", i, Some(root), t1, t2);
        self.rec.observed("client.decode", i, Some(root), t2, t3);
        self.rec.inside("serve.ping", rtt, 0, ping, Origin::Substituted);
        let batch =
            self.rec.inside("engine.multiply_batch", rtt, ping, d_batch, Origin::Substituted);
        self.chain(batch, i, s, m, route);
        Ok(t3 - t0)
    }
}

/// Time `exec` on `m`'s operands, best of two after a warm-up.
fn time_candidate<T: Traced>(
    subs: &mut Substitutes,
    m: &mut Mats<T>,
    exec: &Option<(Arc<FmmPlan>, Variant)>,
) -> u64 {
    let sub = T::substitute(subs);
    best_of(2, || execute(m.c_ref.as_mut(), m.a.as_ref(), m.b.as_ref(), exec, &mut sub.ctx))
}

/// The ranking behind every op's route, checked against the label the
/// system under test reports.
fn routes_of(
    engines: &Engines,
    shapes: &[Shape],
    labels: &[String],
) -> Result<Vec<Vec<Candidate>>, String> {
    shapes
        .iter()
        .zip(labels)
        .map(|(&s, label)| {
            let ranking = match s.dtype {
                Dtype::F64 => ranked(&engines.f64, s),
                Dtype::F32 => ranked(&engines.f32, s),
            };
            if &ranking[0].label == label {
                Ok(ranking)
            } else {
                Err(format!(
                    "{}: the engine routes to {label:?} but the harness ranks {:?} first; \
                     ranked() no longer repeats what the engine does",
                    s.label(),
                    ranking[0].label
                ))
            }
        })
        .collect()
}

/// Every op once through the front door with its spans.
fn trace_pass(s: &mut Session, tracer: &mut Tracer, routes: &[Vec<Candidate>], best: &mut BestOf) {
    for (i, op) in s.ops.iter_mut().enumerate() {
        let result =
            with_mats!(&mut op.data, m => tracer.op(&mut s.door, i, op.shape, m, &routes[i][0]));
        if let Some(nanos) = s.tally.count(i, op.shape, result) {
            best.record(i, nanos);
        }
    }
}

/// model: the routed choice against its prediction, against GEMM, and
/// against the two runners-up of the ranking. `executed(i)` is the routed
/// executor's best time on op `i`.
fn model_metrics(
    report: &mut Report,
    s: &mut Session,
    subs: &mut Substitutes,
    routes: &[Vec<Candidate>],
    executed: impl Fn(usize) -> f64,
) {
    let n = routes.len();
    let gemm_best: Vec<f64> = (0..n).map(|i| s.base.get(i).unwrap_or(u64::MAX) as f64).collect();
    let errs: Vec<f64> =
        (0..n).map(|i| (routes[i][0].predicted_ns / executed(i)).log2().abs()).collect();
    report.set("model.pred_err_log2", median(&errs));
    let losers = (0..n)
        .filter(|&i| routes[i][0].exec.is_some() && executed(i) > 1.03 * gemm_best[i])
        .count();
    report.set("model.lose_to_gemm", losers as f64);
    let (mut picked, mut fastest) = (0.0, 0.0);
    for (i, op) in s.ops.iter_mut().enumerate() {
        let mut best = executed(i).min(gemm_best[i]);
        for runner_up in routes[i].iter().skip(1).take(2).filter(|c| c.exec.is_some()) {
            let nanos = with_mats!(&mut op.data, m => time_candidate(subs, m, &runner_up.exec));
            best = best.min(nanos as f64);
        }
        picked += executed(i);
        fastest += best;
    }
    report.set("model.regret", picked / fastest - 1.0);
}

/// core: Strassen's three variants, and ABC at two levels, on the op with
/// the most flops.
fn core_variants(report: &mut Report, s: &mut Session, subs: &mut Substitutes) {
    let big = (0..s.ops.len())
        .max_by(|&i, &j| s.ops[i].shape.flops().total_cmp(&s.ops[j].shape.flops()))
        .expect("a workload has ops");
    let flops = s.ops[big].shape.flops();
    let one = Arc::new(FmmPlan::new(vec![strassen()]));
    let two = Arc::new(FmmPlan::uniform(strassen(), 2));
    for (name, plan, variant) in [
        ("core.exec_naive_gflops", &one, Variant::Naive),
        ("core.exec_ab_gflops", &one, Variant::Ab),
        ("core.exec_abc_gflops", &one, Variant::Abc),
        ("core.exec_abc2_gflops", &two, Variant::Abc),
    ] {
        let exec = Some((plan.clone(), variant));
        let nanos = with_mats!(&mut s.ops[big].data, m => time_candidate(subs, m, &exec));
        report.set(name, flops / nanos as f64);
    }
}

/// `fmm-ledger run <workload> --trace`.
pub fn run_traced(opts: Options) -> Result<(), String> {
    let arch = ArchFile::load_or_paper_machine();
    print_header(&opts, "traced run", &arch);
    let started = Instant::now();
    let mut report = Report::new(PER_LAYER);
    let ceilings = layers::ceilings(&mut report, opts.quick);

    // Pinned like the untraced run while the front door is timed; the
    // probes after it get all the CPUs back.
    let pin = pin_if_sequential(opts.workload);
    let mut s = phase("open", || Session::open(opts, arch))?;
    let shapes: Vec<Shape> = s.ops.iter().map(|op| op.shape).collect();
    let n = shapes.len();
    let (routes, daemon_twin) = match &s.door {
        Door::InProcess(engines) => (routes_of(engines, &shapes, &s.labels)?, None),
        Door::Wire(wire) => {
            let twin = daemon_like_engines(&arch);
            let raw =
                RawConn::connect(wire.server.addr()).map_err(|e| format!("raw connection: {e}"))?;
            (routes_of(&twin, &shapes, &s.labels)?, Some((twin, raw)))
        }
    };
    let mut tracer = Tracer {
        rec: Recorder::new(),
        subs: Substitutes { f64: Substitute::new(), f32: Substitute::new() },
        ceilings,
        daemon_twin,
        arena_bytes: 0,
        pack_bytes: vec![0.0; n],
    };

    // One traced pass nobody looks at: it sizes every arena and faults in
    // every buffer the substituted calls use.
    phase("warm-up", || trace_pass(&mut s, &mut tracer, &routes, &mut BestOf::new(n)));
    tracer.rec = Recorder::new();

    // Traced and untraced passes alternate, so both see the same host.
    s.front = BestOf::new(n);
    let before = s.door.engine_counts();
    let (budget, min_rounds) = if opts.quick { (0.0, 1) } else { (opts.seconds * 0.3, 2) };
    let (t0, mut rounds, mut traced) = (Instant::now(), 0, BestOf::new(n));
    loop {
        // The traced pass goes first: it borrows `c_ref`, and the pair
        // after it leaves the results `verify` checks.
        trace_pass(&mut s, &mut tracer, &routes, &mut traced);
        s.front_pass();
        s.base_pass();
        rounds += 1;
        if rounds == 8 || (rounds >= min_rounds && t0.elapsed().as_secs_f64() >= budget) {
            break;
        }
    }
    println!("phase rounds took {:.2} s", t0.elapsed().as_secs_f64());
    drop(pin);
    s.verify();
    let after = s.door.engine_counts();
    report.set("engine.rankings", (after[0] - before[0]) as f64);
    report.set("engine.plan_compositions", (after[1] - before[1]) as f64);
    report.set("engine.arena_grows", (after[2] - before[2]) as f64);

    // The ledger: one row per (op, layer).
    let rows = rows(&tracer.rec.spans);
    let nanos_of: BTreeMap<(usize, &str), u64> =
        rows.iter().map(|r| ((r.op, r.layer), r.nanos)).collect();
    let of =
        |op: usize, layer: &'static str| nanos_of.get(&(op, layer)).copied().unwrap_or(0) as f64;
    let sum = |layer| layer_sum(&rows, layer, |r| r.nanos) as f64;
    let self_sum = |layer| layer_sum(&rows, layer, |r| r.self_nanos) as f64;
    // `gemm.gemm` and `wire.rtt` are seen from outside only: what their
    // substituted children leave over is what no named layer explains yet.
    report.set(
        "ledger.unattributed_frac",
        (self_sum("op") + self_sum("gemm.gemm") + self_sum("wire.rtt")) / sum("op"),
    );
    report.set("trace.overhead_frac", traced.sum() as f64 / s.front.sum() as f64 - 1.0);
    report.set(
        "engine.overhead_frac",
        (sum("engine.multiply") + sum("engine.multiply_batch")) / sum("core.execute") - 1.0,
    );
    report.set("gemm.kernel_frac", sum("gemm.kernel") / sum("gemm.gemm"));
    report.set("gemm.gflops", s.flops() / s.base.sum() as f64);
    report.set("core.err_over_bound", s.err_over_bound);
    report.set("core.arena_mb", tracer.arena_bytes as f64 / (1 << 20) as f64);

    phase("runners-up", || {
        model_metrics(&mut report, &mut s, &mut tracer.subs, &routes, |i| of(i, "core.execute"))
    });
    phase("variants", || core_variants(&mut report, &mut s, &mut tracer.subs));
    layers::all(&mut report, &arch, opts.workload, &shapes, opts.seed, opts.quick)?;

    // Each layer's fraction of its stated ceiling.
    let ceiling = |r: &Row| {
        let nanos = r.nanos.max(1) as f64;
        let shape = shapes[r.op];
        let (elem, fma) = match shape.dtype {
            Dtype::F64 => (8, ceilings.fma_gflops),
            Dtype::F32 => (4, 2.0 * ceilings.fma_gflops),
        };
        let wire_gbs = |elems: usize| (elems * elem) as f64 / nanos;
        match r.layer {
            "engine.multiply" | "engine.multiply_batch" => of(r.op, "core.execute") / nanos,
            // GEMM on the same shape; above 1 when the fast algorithm wins.
            "core.execute" => s.base.get(r.op).unwrap_or(0) as f64 / nanos,
            "gemm.gemm" => of(r.op, "gemm.kernel") / nanos,
            "gemm.pack" => tracer.pack_bytes[r.op] / nanos / ceilings.stream_gbs,
            "gemm.kernel" => ceilings.kernel(shape.dtype) / fma,
            "client.encode" => {
                wire_gbs(shape.m * shape.k + shape.k * shape.n) / ceilings.stream_gbs
            }
            "client.decode" => wire_gbs(shape.m * shape.n) / ceilings.stream_gbs,
            "wire.rtt" => of(r.op, "serve.ping") / nanos,
            _ => 1.0,
        }
    };
    let path = out_dir().join(format!("trace-{}.json", opts.workload.name()));
    write_trace(
        &path,
        opts.workload.name(),
        &rows,
        &tracer.rec.spans,
        |op| (shapes[op].label(), s.labels[op].clone()),
        ceiling,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;

    s.print_ops();
    println!(
        "rounds {rounds} (each: a traced pass, then an untraced pass pair); {} spans",
        tracer.rec.spans.len()
    );
    println!("trace written to {}", path.display());
    println!("traced run took {:.1} s", started.elapsed().as_secs_f64());
    println!("ops_attempted {} ops_failed {}", s.tally.attempted, s.tally.failed);
    report.print();
    let line = report.to_json(s.tally.attempted, s.tally.failed)?;
    drop(tracer);
    s.door.close();
    println!("{line}");
    Ok(())
}
