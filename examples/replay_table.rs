//! Measure the replay table: the paper's Fig. 9 as rows of (shape, plan,
//! variant, best nanos, GEMM's best nanos on the same operands), for
//! every FMM candidate the Fig. 5 model ranks ahead of GEMM, and derive
//! the guard band the ranker charges fast algorithms (`GUARD_BAND`, to be
//! updated when the committed table is re-measured).
//!
//! ```sh
//! cargo run --release --example replay_table -- --out crates/model/replay/fig9.txt
//! cargo run --release --example replay_table -- --scale 0.125 --reps 1 --out /tmp/replay.txt
//! ```
//!
//! Predictions use the benchmark's pinned constants (`benchmark/arch.json`),
//! which the table records. Shapes follow the
//! benchmark's op order (its `square` ops, then its `rankk` ops), then
//! square `n` from 512 to 4096 in both precisions, rank-k updates `m = n`
//! ∈ {1024, 2048, 4096} with `k` ∈ {256, 512, 1024}, and inner products
//! `m = n = 512` with `k` ∈ {2048, 4096}, each dim scaled by `--scale`.
//! Every run is one thread; each repetition times GEMM and then every
//! candidate once on the same operands, and a row keeps each one's best.
//! The run takes tens of minutes at full scale; nothing else should run
//! on the machine meanwhile.

use fmm::engine::{ArchSource, EngineConfig, FmmEngine};
use fmm::model::{rank_candidates, ArchParams, Impl, ReplayRow, ReplayTable};
use fmm_core::json;
use fmm_core::registry::Registry;
use fmm_dense::{fill, Matrix};
use fmm_gemm::GemmScalar;
use std::time::Instant;

struct Args {
    scale: f64,
    reps: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { scale: 1.0, reps: 3, out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => args.scale = value().parse().expect("--scale takes a number"),
            "--reps" => args.reps = value().parse().expect("--reps takes a count"),
            "--out" => args.out = Some(value()),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(args.scale > 0.0 && args.reps > 0, "--scale and --reps must be positive");
    args
}

/// `benchmark/arch.json`'s pinned constants for one dtype, at 8 bytes an
/// element.
fn pinned_arch(dtype: &str) -> ArchParams {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/arch.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let entry = json::parse(&text).and_then(|doc| {
        let v = doc.get(dtype)?;
        Ok(ArchParams {
            tau_a: v.get("tau_a")?.as_number()?,
            tau_b: v.get("tau_b")?.as_number()?,
            lambda: v.get("lambda")?.as_number()?,
            mc: v.get("mc")?.as_usize()?,
            kc: v.get("kc")?.as_usize()?,
            nc: v.get("nc")?.as_usize()?,
            elem_bytes: 8,
        })
    });
    entry.unwrap_or_else(|e| panic!("{path} {dtype}: {e}"))
}

/// `(elem_bytes, m, k, n)` in measuring order, scaled, without repeats.
fn shapes(scale: f64) -> Vec<(usize, usize, usize, usize)> {
    let mut list = vec![
        // The benchmark's `square` ops, then its `rankk` ops.
        (8, 1024, 1024, 1024),
        (8, 1536, 1536, 1536),
        (4, 1536, 1536, 1536),
        (8, 2048, 256, 2048),
        (8, 1536, 512, 1536),
        (8, 4096, 512, 512),
        (8, 512, 2048, 512),
    ];
    for bytes in [8, 4] {
        for n in [512, 1024, 1536, 2048, 3072, 4096] {
            list.push((bytes, n, n, n));
        }
    }
    for mn in [1024, 2048, 4096] {
        for k in [256, 512, 1024] {
            list.push((8, mn, k, mn));
        }
    }
    for k in [2048, 4096] {
        list.push((8, 512, k, 512));
    }
    let dim = |d: usize| ((d as f64 * scale).round() as usize).max(16);
    let mut out = Vec::new();
    for (bytes, m, k, n) in list {
        let shape = (bytes, dim(m), dim(k), dim(n));
        if !out.contains(&shape) {
            out.push(shape);
        }
    }
    out
}

fn time_ns(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Every FMM candidate Fig. 5 ranks ahead of GEMM on `m×k×n`, measured
/// against GEMM on the same operands.
fn measure<T: GemmScalar>(
    arch: ArchParams,
    (m, k, n): (usize, usize, usize),
    reps: usize,
) -> Vec<ReplayRow> {
    let engine = FmmEngine::<T>::new(EngineConfig {
        arch: ArchSource::Fixed(arch),
        ..EngineConfig::default()
    });
    let plans = engine.candidate_plans();
    let ranked = rank_candidates(m, k, n, &plans, &Impl::FMM_VARIANTS, engine.arch(), true);
    let gemm = ranked.iter().find(|c| c.plan.is_none()).expect("GEMM is ranked").prediction.total;
    let ahead: Vec<_> = ranked
        .into_iter()
        .filter_map(|c| {
            let plan = c.plan.filter(|_| c.prediction.fig5_total() < gemm)?;
            Some((plan, c.impl_.to_variant()?))
        })
        .collect();
    if ahead.is_empty() {
        return Vec::new();
    }

    let a = fill::bench_workload_t::<T>(m, k, 1);
    let b = fill::bench_workload_t::<T>(k, n, 2);
    let mut c = Matrix::<T>::zeros(m, n);
    let mut gemm_best = u64::MAX;
    let mut best = vec![u64::MAX; ahead.len()];
    // One warm-up pass, then `reps` timed ones.
    for rep in 0..=reps {
        c.clear();
        let t = time_ns(|| fmm_gemm::gemm(c.as_mut(), a.as_ref(), b.as_ref()));
        if rep > 0 {
            gemm_best = gemm_best.min(t);
        }
        for ((plan, variant), best) in ahead.iter().zip(&mut best) {
            c.clear();
            let (cm, am, bm) = (c.as_mut(), a.as_ref(), b.as_ref());
            let t = time_ns(|| {
                engine.multiply_with_plan(cm, am, bm, plan, *variant);
            });
            if rep > 0 {
                *best = (*best).min(t);
            }
        }
    }
    ahead
        .iter()
        .zip(best)
        .map(|((plan, variant), best_nanos)| ReplayRow {
            elem_bytes: std::mem::size_of::<T>(),
            m,
            k,
            n,
            plan: plan.levels().iter().map(|l| l.dims()).collect(),
            impl_: Impl::from_variant(*variant),
            best_nanos,
            gemm_nanos: gemm_best,
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let mut table = ReplayTable {
        arch_f64: pinned_arch("f64"),
        arch_f32: pinned_arch("f32"),
        rows: Vec::new(),
    };
    for (bytes, m, k, n) in shapes(args.scale) {
        let t0 = Instant::now();
        let rows = if bytes == 4 {
            measure::<f32>(table.arch_f32, (m, k, n), args.reps)
        } else {
            measure::<f64>(table.arch_f64, (m, k, n), args.reps)
        };
        let dtype = if bytes == 4 { "f32" } else { "f64" };
        eprintln!(
            "{dtype} {m}x{k}x{n}: {} rows in {:.1} s",
            rows.len(),
            t0.elapsed().as_secs_f64()
        );
        table.rows.extend(rows);
    }
    let band = table.derive_band(&Registry::shared()).expect("every measured plan is registered");
    let text = table.render();
    assert_eq!(ReplayTable::parse(&text).as_ref(), Ok(&table), "the table reads back");
    match &args.out {
        Some(path) => std::fs::write(path, &text).unwrap_or_else(|e| panic!("{path}: {e}")),
        None => print!("{text}"),
    }
    eprintln!("{} rows, band {band:?}", table.rows.len());
}
