//! Per-layer probes that do not depend on the workload: each times one
//! layer from outside, through the public functions named in the README.

use crate::affinity::OneCpu;
use crate::arch::ArchFile;
use crate::harness::{engine_multiply, nproc, proc_status, sequential_engines, serve_config, Wire};
use crate::names::Report;
use crate::ops::{build_mats, build_ops, with_mats, Dtype, Engines, Mats, Shape, Workload};
use crate::stats::{best_of, median, median_u64, quantile, time_ns};
use fmm_core::registry::strassen;
use fmm_core::{fmm_execute, FmmContext, FmmPlan, Strategy, Variant};
use fmm_dense::{fill, AlignedBuf, MatRef, Matrix};
use fmm_engine::{ArchSource, BatchItem, EngineConfig, FmmEngine};
use fmm_gemm::pack::{pack_a_sum, pack_b_sum};
use fmm_gemm::{BlockingParams, GemmScalar, GemmWorkspace};
use fmm_model::{rank_candidates, ArchParams, Impl};
use fmm_sched::SchedContext;
use fmm_serve::{protocol, PipelinedClient, Server};
use std::hint::black_box;
use std::time::Instant;

/// Ceilings later probes and the ledger divide by.
#[derive(Clone, Copy)]
pub struct Ceilings {
    pub fma_gflops: f64,
    pub stream_gbs: f64,
    /// Micro-kernel rate on L1-resident panels, per element type.
    pub kernel_f64: f64,
    pub kernel_f32: f64,
}

impl Ceilings {
    pub fn kernel(&self, dtype: Dtype) -> f64 {
        match dtype {
            Dtype::F64 => self.kernel_f64,
            Dtype::F32 => self.kernel_f32,
        }
    }
}

/// `amount` per nanosecond: flops give GFLOP/s, bytes give GB/s.
fn per_ns(amount: f64, nanos: u64) -> f64 {
    amount / nanos.max(1) as f64
}

fn cube(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

// ---------------------------------------------------------------- probe

/// Independent multiply-add chains on registers; 12 chains cover the
/// latency of two FMA ports.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_chains_avx512(iters: u64) -> (f64, f64) {
    use std::arch::x86_64::*;
    let (mul, add) = (_mm512_set1_pd(0.999_999), _mm512_set1_pd(1e-9));
    let mut acc = [_mm512_set1_pd(1.0); 12];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm512_fmadd_pd(*x, mul, add);
        }
    }
    let sum = acc.iter().fold(_mm512_setzero_pd(), |s, x| _mm512_add_pd(s, *x));
    (_mm512_reduce_add_pd(sum), (iters * 12 * 8 * 2) as f64)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_chains_avx2(iters: u64) -> (f64, f64) {
    use std::arch::x86_64::*;
    let (mul, add) = (_mm256_set1_pd(0.999_999), _mm256_set1_pd(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); 12];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_pd(*x, mul, add);
        }
    }
    let sum = acc.iter().fold(_mm256_setzero_pd(), |s, x| _mm256_add_pd(s, *x));
    let mut lanes = [0.0; 4];
    // SAFETY: `lanes` holds the four doubles the unaligned store writes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), sum) };
    (lanes.iter().sum(), (iters * 12 * 4 * 2) as f64)
}

fn fma_chains_portable(iters: u64) -> (f64, f64) {
    let mut acc = [1.0f64; 12];
    for _ in 0..iters {
        for x in &mut acc {
            *x = *x * 0.999_999 + 1e-9;
        }
    }
    (acc.iter().sum(), (iters * 12 * 2) as f64)
}

/// Register-resident f64 multiply-add rate of one core, with the widest
/// vectors the CPU has: the ceiling the micro-kernel is held against.
fn fma_gflops() -> f64 {
    let iters = 4_000_000;
    let mut flops = 0.0;
    let nanos = best_of(3, || {
        #[cfg(target_arch = "x86_64")]
        let (sum, f) = if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was detected on this CPU just above.
            unsafe { fma_chains_avx512(iters) }
        } else if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: AVX2 and FMA were detected on this CPU just above.
            unsafe { fma_chains_avx2(iters) }
        } else {
            fma_chains_portable(iters)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (sum, f) = fma_chains_portable(iters);
        black_box(sum);
        flops = f;
    });
    per_ns(flops, nanos)
}

/// Size of the last-level cache, from sysfs.
fn llc_bytes() -> Option<usize> {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level: u32 =
                std::fs::read_to_string(format!("{dir}/level")).ok()?.trim().parse().ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (digits, unit) = size.split_at(size.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => return None,
            };
            Some((level, digits.parse::<usize>().ok()? * scale))
        })
        .max()
        .map(|(_, bytes)| bytes)
}

/// Read bandwidth of one core over a large array. Packing reads its source
/// once and writes a cache-resident panel, so a read stream is its ceiling.
///
/// The array should be four times the last-level cache, but this host
/// reports the whole socket's 260 MiB, and fresh pages are dear here: the
/// hypervisor backs them on first touch, and writing a 1040 MiB array took
/// between 2.6 and 33 s. So the array is capped at 256 MiB — 64 times the
/// core's own L2 — and both sizes are reported.
fn stream(report: &mut Report, quick: bool) -> f64 {
    let llc = llc_bytes();
    let bytes =
        if quick { 64 << 20 } else { (4 * llc.unwrap_or(32 << 20)).clamp(128 << 20, 256 << 20) };
    // Written once so every page is real: untouched zero pages would all
    // map to one cached page.
    let data = vec![1.0f64; bytes / 8];
    let nanos = best_of(2, || {
        let mut acc = [0.0f64; 8];
        for chunk in data.chunks_exact(8) {
            for (a, v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        black_box(acc);
    });
    report.set("probe.llc_mb", llc.unwrap_or(0) as f64 / (1 << 20) as f64);
    report.set("probe.stream_array_mb", bytes as f64 / (1 << 20) as f64);
    per_ns(bytes as f64, nanos)
}

/// Cost of reading the clock, which every timed call pays once.
fn timer_ns() -> f64 {
    let n = 200_000;
    let nanos = best_of(3, || {
        for _ in 0..n {
            black_box(Instant::now());
        }
    });
    nanos as f64 / n as f64
}

/// Rate of `T`'s selected micro-kernel on panels that stay in L1.
fn kernel_gflops<T: GemmScalar>() -> f64 {
    let kc = 256;
    let mut a = AlignedBuf::<T>::zeroed(kc * T::MR);
    let mut b = AlignedBuf::<T>::zeroed(kc * T::NR);
    a.fill(T::from_f64(0.5));
    b.fill(T::from_f64(0.25));
    let mut acc = AlignedBuf::<T>::zeroed(T::MR * T::NR);
    let kernel = T::micro_kernel();
    let calls = 20_000;
    let nanos = best_of(5, || {
        acc.fill(T::ZERO);
        for _ in 0..calls {
            // SAFETY: `a` holds `kc * MR` elements, `b` holds `kc * NR`
            // and `acc` holds `MR * NR`, as `MicroKernelFn` requires; the
            // kernel was selected for this CPU by `micro_kernel`.
            unsafe { kernel(kc, a.as_ptr(), b.as_ptr(), acc.as_mut_ptr()) };
        }
        black_box(&mut acc);
    });
    per_ns((calls * 2 * kc * T::MR * T::NR) as f64, nanos)
}

/// The probes whose results later layers divide by. Runs first.
pub fn ceilings(report: &mut Report, quick: bool) -> Ceilings {
    let fma = phase("probe.fma", fma_gflops);
    let stream_gbs = phase("probe.stream", || stream(report, quick));
    let (k64, k32) = phase("gemm.kernel", || (kernel_gflops::<f64>(), kernel_gflops::<f32>()));
    let pack_a_gbs = phase("gemm.pack", || pack(report, quick));
    report.set("probe.fma_gflops", fma);
    report.set("probe.stream_gbs", stream_gbs);
    report.set("probe.timer_ns", timer_ns());
    report.set("gemm.kernel_gflops_f64", k64);
    report.set("gemm.kernel_gflops_f32", k32);
    report.set("gemm.kernel_vs_probe", k64 / fma);
    report.set("gemm.pack_vs_stream", pack_a_gbs / stream_gbs);
    Ceilings { fma_gflops: fma, stream_gbs, kernel_f64: k64, kernel_f32: k32 }
}

// ----------------------------------------------------------------- gemm

/// Pack every `mc×kc` block of `terms` (all of one shape) as the loop nest
/// does, summing the terms on the way.
pub fn pack_a_blocks<T: GemmScalar>(
    buf: &mut [T],
    terms: &[(T, MatRef<'_, T>)],
    p: &BlockingParams,
) {
    let (m, k) = (terms[0].1.rows(), terms[0].1.cols());
    for pc in (0..k).step_by(p.kc) {
        let kb = p.kc.min(k - pc);
        for ic in (0..m).step_by(p.mc) {
            let mb = p.mc.min(m - ic);
            let block: Vec<_> =
                terms.iter().map(|&(g, x)| (g, x.submatrix(ic, pc, mb, kb))).collect();
            pack_a_sum(buf, &block, p.mr);
        }
    }
}

/// Pack every `kc×nc` panel of `terms`, as [`pack_a_blocks`].
pub fn pack_b_panels<T: GemmScalar>(
    buf: &mut [T],
    terms: &[(T, MatRef<'_, T>)],
    p: &BlockingParams,
) {
    let (k, n) = (terms[0].1.rows(), terms[0].1.cols());
    for jc in (0..n).step_by(p.nc) {
        let nb = p.nc.min(n - jc);
        for pc in (0..k).step_by(p.kc) {
            let kb = p.kc.min(k - pc);
            let panel: Vec<_> =
                terms.iter().map(|&(g, x)| (g, x.submatrix(pc, jc, kb, nb))).collect();
            pack_b_sum(buf, &panel, p.nr);
        }
    }
}

/// Blocking parameters at `T`'s register tile, as the driver uses them.
pub fn tile_params<T: GemmScalar>() -> BlockingParams {
    BlockingParams::default().with_register_tile(T::MR, T::NR)
}

/// Source bytes per nanosecond of plain and 3-term fused packing over an
/// f64 matrix larger than L2. Returns the plain A-pack rate.
fn pack(report: &mut Report, quick: bool) -> f64 {
    let n = if quick { 1024 } else { 2048 };
    let h = n / 2;
    let src = fill::bench_workload(n, n, 11);
    let p = tile_params::<f64>();
    let mut ws = GemmWorkspace::<f64>::for_params(&p);
    let whole = [(1.0, src.as_ref())];
    let quadrants = [
        (1.0, src.as_ref().submatrix(0, 0, h, h)),
        (1.0, src.as_ref().submatrix(0, h, h, h)),
        (-1.0, src.as_ref().submatrix(h, 0, h, h)),
    ];
    let rate = |bytes: usize, nanos| per_ns(bytes as f64, nanos);
    let a = rate(n * n * 8, best_of(3, || pack_a_blocks(&mut ws.abuf, &whole, &p)));
    let b = rate(n * n * 8, best_of(3, || pack_b_panels(&mut ws.bbuf, &whole, &p)));
    let a3 = rate(3 * h * h * 8, best_of(3, || pack_a_blocks(&mut ws.abuf, &quadrants, &p)));
    let b3 = rate(3 * h * h * 8, best_of(3, || pack_b_panels(&mut ws.bbuf, &quadrants, &p)));
    report.set("gemm.pack_a_gbs", a);
    report.set("gemm.pack_b_gbs", b);
    report.set("gemm.pack_a_sum3_gbs", a3);
    report.set("gemm.pack_b_sum3_gbs", b3);
    a
}

/// Square f64 operands and a zeroed result.
struct Square {
    a: Matrix,
    b: Matrix,
    c: Matrix,
}

impl Square {
    fn new(n: usize) -> Self {
        Self {
            a: fill::bench_workload(n, n, 21),
            b: fill::bench_workload(n, n, 22),
            c: Matrix::zeros(n, n),
        }
    }
}

/// Parallel efficiency of the loop-3 GEMM over the whole worker pool
/// (two workers on the reference host).
fn gemm_parallel(report: &mut Report, quick: bool) {
    let n = if quick { 512 } else { 1536 };
    let mut s = Square::new(n);
    let one = best_of(2, || fmm_gemm::gemm(s.c.as_mut(), s.a.as_ref(), s.b.as_ref()));
    let all = best_of(2, || fmm_gemm::gemm_parallel(s.c.as_mut(), s.a.as_ref(), s.b.as_ref()));
    report.set("gemm.par_eff2", one as f64 / (nproc() as f64 * all as f64));
}

// ----------------------------------------------------------------- core

fn core(report: &mut Report, quick: bool) {
    let n = if quick { 512 } else { 1024 };
    let mut s = Square::new(n);
    let plan = FmmPlan::new(vec![strassen()]);
    let mut ctx = FmmContext::<f64>::with_defaults();
    let even = best_of(5, || {
        fmm_execute(s.c.as_mut(), s.a.as_ref(), s.b.as_ref(), &plan, Variant::Abc, &mut ctx)
    });
    // One less in every dimension: the core shrinks by a block row and the
    // rims are peeled off into extra GEMMs.
    let odd = best_of(5, || {
        fmm_execute(
            s.c.as_mut().submatrix(0, 0, n - 1, n - 1),
            s.a.as_ref().submatrix(0, 0, n - 1, n - 1),
            s.b.as_ref().submatrix(0, 0, n - 1, n - 1),
            &plan,
            Variant::Abc,
            &mut ctx,
        )
    });
    report.set("core.peel_frac", odd as f64 / even as f64 - 1.0);
    // What an engine's first decision pays: every registry algorithm
    // composed with itself.
    let algorithms = fmm_core::registry::Registry::shared().paper_rows();
    let compose = best_of(2, || {
        for (_, algo) in &algorithms {
            black_box(FmmPlan::from_arcs(vec![algo.clone(); 2]));
        }
    });
    report.set("core.compose_us", compose as f64 / 1e3);
}

// ---------------------------------------------------------------- model

fn model(report: &mut Report, engines: &Engines) {
    let plans = engines.f64.candidate_plans();
    let rank = best_of(20, || {
        black_box(rank_candidates(
            1000,
            1000,
            1000,
            &plans,
            &Impl::FMM_VARIANTS,
            engines.f64.arch(),
            true,
        ));
    });
    report.set("model.rank_us", rank as f64 / 1e3);
}

// ---------------------------------------------------------------- sched

/// One-level Strassen ABC under each schedule with two workers. No gated
/// workload runs in parallel yet (the reference host has two cores), so
/// these are the only view of the scheduler.
fn sched(report: &mut Report, quick: bool) {
    let n = if quick { 512 } else { 1536 };
    let mut s = Square::new(n);
    let plan = FmmPlan::new(vec![strassen()]);
    let mut ctx = SchedContext::<f64>::with_defaults();
    let mut run = |strategy, workers| {
        best_of(2, || {
            fmm_sched::execute(
                s.c.as_mut(),
                s.a.as_ref(),
                s.b.as_ref(),
                &plan,
                Variant::Abc,
                strategy,
                &mut ctx,
                workers,
            );
        })
    };
    let dfs = run(Strategy::Dfs, 2);
    report.set("sched.dfs_gflops", per_ns(cube(n), dfs));
    report.set("sched.bfs_gflops", per_ns(cube(n), run(Strategy::Bfs, 2)));
    report.set("sched.hybrid_gflops", per_ns(cube(n), run(Strategy::Hybrid, 2)));
    report.set("sched.par_eff2", run(Strategy::Dfs, 1) as f64 / (2.0 * dfs as f64));
}

// ----------------------------------------------------------------- tune

/// Engines as `workload`'s front door builds them, on `arch`.
pub fn engines_like(workload: Workload, arch: &ArchFile) -> Engines {
    if workload.over_the_wire() {
        daemon_like_engines(arch)
    } else {
        sequential_engines(arch)
    }
}

/// Engines configured as the daemon configures its own (`parallel`, pool
/// width workers, one arch for both element types; its tune store is
/// empty here, so tuned routing is model routing).
pub fn daemon_like_engines(arch: &ArchFile) -> Engines {
    let config = EngineConfig {
        parallel: true,
        arch: ArchSource::Fixed(arch.f64),
        ..EngineConfig::default()
    };
    Engines { f64: FmmEngine::new(config.clone()), f32: FmmEngine::new(config) }
}

/// What live calibration would do to this workload: seven quick-scale
/// calibrations per element type (the first included — it is the one an
/// engine would use), their spread, and how many of the sampled ops they
/// would route apart.
fn tune(report: &mut Report, workload: Workload, shapes: &[Shape]) {
    let mut nanos = Vec::new();
    let mut calibrate = |f: fn() -> ArchParams| -> Vec<ArchParams> {
        (0..7)
            .map(|_| {
                let t0 = Instant::now();
                let arch = f();
                nanos.push(t0.elapsed().as_nanos() as u64);
                arch
            })
            .collect()
    };
    let f64s = calibrate(|| {
        fmm_tune::calibrate_host::<f64>(&BlockingParams::default(), fmm_tune::QUICK_SCALE)
    });
    let f32s = calibrate(|| {
        fmm_tune::calibrate_host::<f32>(&BlockingParams::default(), fmm_tune::QUICK_SCALE)
    });
    let spread = |f: fn(&ArchParams) -> f64| {
        let v: Vec<f64> = f64s.iter().map(f).collect();
        (quantile(&v, 1.0) - quantile(&v, 0.0)) / median(&v)
    };
    report.set("tune.calibrate_ms", median_u64(&nanos) / 1e6);
    report.set("tune.tau_a_spread", spread(|a| a.tau_a));
    report.set("tune.tau_b_spread", spread(|a| a.tau_b));

    // A cold decision costs milliseconds, so at most 48 shapes are routed
    // under each calibration: every fourth of `small_mix`, all elsewhere.
    let distinct = crate::ops::distinct(shapes);
    let distinct: Vec<Shape> =
        distinct.iter().copied().step_by(distinct.len().div_ceil(48)).collect();
    let mut labels = vec![Vec::new(); distinct.len()];
    for (&a64, &a32) in f64s.iter().zip(&f32s) {
        let engines = engines_like(workload, &ArchFile { f64: a64, f32: a32 });
        for (seen, s) in labels.iter_mut().zip(&distinct) {
            seen.push(engines.decision_label(*s));
        }
    }
    let flips = shapes
        .iter()
        .filter_map(|s| distinct.iter().position(|d| d == s))
        .filter(|&i| labels[i].iter().any(|l| l != &labels[i][0]))
        .count();
    report.set("tune.route_flips", flips as f64);
}

// --------------------------------------------------------------- engine

fn engine(report: &mut Report, arch: &ArchFile) {
    // Cold decisions: `prepare` on shapes a fresh engine has not seen.
    let fresh = sequential_engines(arch);
    let cold: Vec<u64> = (0..16)
        .map(|i| time_ns(|| fresh.f64.prepare(200 + 7 * i, 150 + 5 * i, 180 + 3 * i)))
        .collect();
    report.set("engine.decide_cold_us", median_u64(&cold) / 1e3);

    // Fixed cost of the front door: 8³ has next to no arithmetic.
    let (a, b) = (fill::bench_workload(8, 8, 31), fill::bench_workload(8, 8, 32));
    let mut c = Matrix::zeros(8, 8);
    let through = best_of(2000, || fresh.f64.multiply(c.as_mut(), a.as_ref(), b.as_ref()));
    let direct = best_of(2000, || fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref()));
    report.set("engine.overhead_ns", through as f64 - direct as f64);

    // Batching as the daemon uses it: 16 problems of 64³ in one call
    // against 16 calls.
    let daemon = daemon_like_engines(arch);
    let mut ops: Vec<Mats<f64>> =
        (0..16).map(|i| build_mats(Shape::new(64, 64, 64, Dtype::F64), 33 + i)).collect();
    let calls = best_of(20, || {
        for m in &mut ops {
            daemon.f64.multiply(m.c.as_mut(), m.a.as_ref(), m.b.as_ref());
        }
    });
    let batch = best_of(20, || {
        let mut items: Vec<_> = ops
            .iter_mut()
            .map(|m| BatchItem::new(m.c.as_mut(), m.a.as_ref(), m.b.as_ref()))
            .collect();
        daemon.f64.multiply_batch(&mut items);
    });
    report.set("engine.batch_speedup", calls as f64 / batch as f64);
}

// ---------------------------------------------------------------- serve

fn serve(report: &mut Report, arch: &ArchFile, seed: u64, quick: bool) -> Result<(), String> {
    // Codec rates on a 256³ f64 request (1 MiB) and its response.
    let (a, b) = (fill::bench_workload(256, 256, 41), fill::bench_workload(256, 256, 42));
    let request = protocol::encode_request(&a, &b);
    let response = protocol::encode_response(&a);
    let rate = |bytes: usize, nanos| per_ns(bytes as f64, nanos);
    report.set(
        "serve.encode_req_gbs",
        rate(request.len(), best_of(10, || drop(black_box(protocol::encode_request(&a, &b))))),
    );
    report.set(
        "serve.decode_req_gbs",
        rate(
            request.len(),
            best_of(10, || drop(black_box(protocol::decode_request(&request, 64 << 20)))),
        ),
    );
    report.set(
        "serve.encode_resp_gbs",
        rate(response.len(), best_of(10, || drop(black_box(protocol::encode_response(&a))))),
    );
    report.set(
        "serve.decode_resp_gbs",
        rate(
            response.len(),
            best_of(10, || drop(black_box(protocol::decode_response::<f64>(&response)))),
        ),
    );

    // The closed-loop probes run like the gated workload: on one CPU and
    // against the daemon that does not wait for stragglers (see `affinity`
    // and `closed_loop_config`).
    let pin = OneCpu::pin_or_warn();

    // Daemon start-up and what it costs in threads.
    let threads = proc_status("Threads:")?;
    let t0 = Instant::now();
    let mut wire = Wire::open(arch)?;
    report.set("serve.spawn_ms", t0.elapsed().as_secs_f64() * 1e3);
    report.set("serve.threads", proc_status("Threads:")? - threads);

    let mut ping = u64::MAX;
    for _ in 0..300 {
        let rtt = wire.client.ping().map_err(|e| format!("ping: {e:?}"))?;
        ping = ping.min(rtt.as_nanos() as u64);
    }
    report.set("serve.ping_us", ping as f64 / 1e3);

    // What the wire adds to the smallest request.
    let mut small: Mats<f64> = build_mats(Shape::new(32, 32, 32, Dtype::F64), seed);
    let twin = daemon_like_engines(arch);
    let (mut rtt, mut local) = (u64::MAX, u64::MAX);
    for _ in 0..300 {
        rtt = rtt.min(wire.multiply(&mut small)?);
        local = local.min(engine_multiply(&twin, &mut small));
    }
    report.set("serve.rtt_overhead_us", (rtt as f64 - local as f64) / 1e3);

    // Every sample of the closed-loop request list: what a caller sees
    // with the neighbours included (the gated numbers are best-of).
    let mut ops = build_ops(&Workload::Serve.shapes(seed), seed);
    let mut all = Vec::new();
    for _ in 0..if quick { 5 } else { 60 } {
        for op in &mut ops {
            all.push(with_mats!(&mut op.data, m => wire.multiply(m))? as f64 / 1e6);
        }
    }
    report.set("serve.lat_p50_all_ms", quantile(&all, 0.5));
    report.set("serve.lat_p99_all_ms", quantile(&all, 0.99));
    wire.close();

    // What the default batching policy adds for a lone closed-loop client:
    // its dispatcher waits out the straggler gap on every request.
    let mut wire = Wire::open_with(serve_config(arch))?;
    let mut waited = u64::MAX;
    for _ in 0..300 {
        waited = waited.min(wire.multiply(&mut small)?);
    }
    report.set("serve.gap_wait_us", (waited as f64 - rtt as f64) / 1e3);
    wire.close();
    drop(pin);

    // Pipelined load, eight 32³ requests in flight, on a default daemon of
    // its own so the daemon's counters cover this phase alone, and on every
    // CPU: here the threads do overlap. Too unsteady on two cores to gate
    // (3302–4653 req/s over eight runs when this benchmark was written),
    // hence only here.
    let server = Server::spawn(serve_config(arch)).map_err(|e| format!("spawn: {e}"))?;
    let mut client =
        PipelinedClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let budget = if quick { 0.2 } else { 1.0 };
    let (t0, mut pending, mut done) = (Instant::now(), std::collections::VecDeque::new(), 0u64);
    while t0.elapsed().as_secs_f64() < budget || !pending.is_empty() {
        while pending.len() < 8 && t0.elapsed().as_secs_f64() < budget {
            pending.push_back(client.send(&small.a, &small.b).map_err(|e| format!("send: {e:?}"))?);
        }
        if let Some(id) = pending.pop_front() {
            match client.recv::<f64>(id) {
                Ok(_) => done += 1,
                Err(e) if e.is_busy() => {}
                Err(e) => return Err(format!("recv: {e:?}")),
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let snap = server.metrics().snapshot();
    report.set("serve.loaded_rps", done as f64 / secs);
    report.set("serve.batch_occupancy", snap.mean_occupancy);
    report.set("serve.busy_rejects", snap.rejects_busy as f64);
    report.set("serve.queue_wait_p50_us", snap.queue_wait.p50_ms * 1e3);
    report.set("serve.service_p50_us", snap.service.p50_ms * 1e3);
    drop(client);
    server.shutdown();
    Ok(())
}

// ------------------------------------------------------------------ obs

fn obs(report: &mut Report, arch: &ArchFile, seed: u64) {
    // The cost of the program's own spans where calls are shortest.
    let engines = sequential_engines(arch);
    let mut ops = build_ops(&Workload::SmallMix.shapes(seed), seed);
    let mut pass = || {
        for op in &mut ops {
            with_mats!(&mut op.data, m => engine_multiply(&engines, m));
        }
    };
    pass();
    let (mut off, mut on) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        off = off.min(time_ns(&mut pass));
        fmm_obs::trace::set_enabled(true);
        on = on.min(time_ns(&mut pass));
        fmm_obs::trace::set_enabled(false);
    }
    fmm_obs::trace::clear();
    report.set("obs.trace_overhead_frac", on as f64 / off as f64 - 1.0);

    let hist = fmm_obs::Histogram::new();
    let n = 1_000_000u64;
    let nanos = best_of(3, || {
        for v in 0..n {
            hist.record(black_box(v));
        }
    });
    report.set("obs.hist_record_ns", nanos as f64 / n as f64);
}

// ------------------------------------------------------------------ gen

fn gen(report: &mut Report, quick: bool) {
    let n = if quick { 512 } else { 1024 };
    let mut s = Square::new(n);
    let params = BlockingParams::default();
    let mut ws = GemmWorkspace::<f64>::for_params(&params);
    let generated = best_of(3, || {
        fmm_gen::generated::strassen_1l::strassen_1l_abc(
            s.c.as_mut(),
            s.a.as_ref(),
            s.b.as_ref(),
            &params,
            &mut ws,
        )
    });
    let plan = FmmPlan::new(vec![strassen()]);
    let mut ctx = FmmContext::<f64>::with_defaults();
    let interpreted = best_of(3, || {
        fmm_execute(s.c.as_mut(), s.a.as_ref(), s.b.as_ref(), &plan, Variant::Abc, &mut ctx)
    });
    report.set("gen.generated_vs_interp", interpreted as f64 / generated as f64);
}

/// Run one group of probes and say how long it took: the traced run has a
/// time budget of its own.
pub fn phase<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    println!("phase {name} took {:.2} s", t0.elapsed().as_secs_f64());
    r
}

/// Every workload-independent probe but the ceilings (see [`ceilings`]).
pub fn all(
    report: &mut Report,
    arch: &ArchFile,
    workload: Workload,
    shapes: &[Shape],
    seed: u64,
    quick: bool,
) -> Result<(), String> {
    phase("gemm", || gemm_parallel(report, quick));
    phase("core", || core(report, quick));
    phase("model", || model(report, &sequential_engines(arch)));
    phase("sched", || sched(report, quick));
    phase("tune", || tune(report, workload, shapes));
    phase("engine", || engine(report, arch));
    phase("serve", || serve(report, arch, seed, quick))?;
    phase("obs", || obs(report, arch, seed));
    phase("gen", || gen(report, quick));
    report.set(
        "gemm.pool_allocs",
        (f64::global_pool().allocation_count() + f32::global_pool().allocation_count()) as f64,
    );
    Ok(())
}
