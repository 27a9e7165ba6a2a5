//! The guard band in the ranker, against the committed replay table
//! (`crates/model/replay/fig9.txt`, the paper's Fig. 9 as measured rows):
//! `GUARD_BAND` is what the table's rows derive, replaying every row's shape
//! through the ranker never picks something measured slower than GEMM,
//! and over a seeded sweep of shapes a fast algorithm is ranked first only
//! with a Fig. 5 margin wider than the band, while Fig. 5 itself
//! (`predict_fmm`, `predict_scheduled`) returns the bits it returned
//! before the band existed.

use fmm::engine::{EngineConfig, FmmEngine};
use fmm::model::{
    predict_fmm, predict_gemm, predict_scheduled, rank_candidates, rank_scheduled, ArchParams,
    Impl, Prediction, ReplayTable, GUARD_BAND,
};
use fmm_core::counts::PlanCounts;
use fmm_core::registry::Registry;
use fmm_core::{FmmPlan, Strategy};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The candidate plans a default engine ranks: every paper shape's
/// registry algorithm at one and two levels.
fn engine_plans() -> Vec<Arc<FmmPlan>> {
    let engine = FmmEngine::<f64>::new(EngineConfig {
        arch: ArchParams::paper_machine().into(),
        ..EngineConfig::default()
    });
    engine.candidate_plans()
}

/// The committed table, parsed.
fn committed() -> ReplayTable {
    let text = include_str!("../crates/model/replay/fig9.txt");
    ReplayTable::parse(text).expect("the committed replay table parses")
}

#[test]
fn the_committed_band_is_what_the_committed_rows_derive() {
    let derived =
        committed().derive_band(&Registry::shared()).expect("every row's plan is registered");
    assert_eq!(
        derived.to_bits(),
        GUARD_BAND.to_bits(),
        "derived {derived}, GUARD_BAND {GUARD_BAND}"
    );
}

/// Every shape of the table through the ranker at the table's constants:
/// each FMM candidate Fig. 5 ranks ahead of GEMM has its measured row,
/// and the pick (GEMM, or a candidate with a row) is at most 1.03× GEMM's
/// measured time. Prints each shape's pick and its regret against the
/// fastest measured option (`--nocapture`).
#[test]
fn replaying_the_table_never_loses_to_gemm() {
    let table = committed();
    let plans = engine_plans();
    let mut shapes: BTreeMap<(usize, usize, usize, usize), Vec<_>> = BTreeMap::new();
    for row in &table.rows {
        shapes.entry((row.elem_bytes, row.m, row.k, row.n)).or_default().push(row);
    }
    let mut losses = Vec::new();
    for ((bytes, m, k, n), rows) in &shapes {
        let (m, k, n) = (*m, *k, *n);
        let ranked =
            rank_candidates(m, k, n, &plans, &Impl::FMM_VARIANTS, &table.arch(*bytes), true);
        let gemm = ranked.iter().find(|c| c.plan.is_none()).unwrap().prediction.total;
        let measured = |c: &fmm::model::Candidate| {
            let dims: Vec<_> = c.plan.as_ref()?.levels().iter().map(|l| l.dims()).collect();
            rows.iter().find(|r| r.plan == dims && r.impl_ == c.impl_)
        };
        let ahead: Vec<_> = ranked
            .iter()
            .filter(|c| c.plan.is_some() && c.prediction.fig5_total() < gemm)
            .collect();
        for c in &ahead {
            assert!(measured(c).is_some(), "{bytes}B {m}x{k}x{n}: no row for {}", c.describe());
        }
        assert_eq!(
            ahead.len(),
            rows.len(),
            "{bytes}B {m}x{k}x{n}: a row Fig. 5 does not rank ahead"
        );

        let gemm_nanos = rows[0].gemm_nanos as f64;
        let pick = &ranked[0];
        let picked = measured(pick).map_or(gemm_nanos, |r| r.best_nanos as f64);
        let fastest = rows.iter().map(|r| r.best_nanos as f64).fold(gemm_nanos, f64::min);
        println!(
            "{} {m}x{k}x{n}: {} at {:.3}x GEMM measured, regret {:.3}",
            if *bytes == 4 { "f32" } else { "f64" },
            pick.describe(),
            picked / gemm_nanos,
            picked / fastest - 1.0
        );
        if picked > 1.03 * gemm_nanos {
            losses.push(format!("{bytes}B {m}x{k}x{n}: {}", pick.describe()));
        }
    }
    assert!(losses.is_empty(), "picks measured slower than GEMM: {losses:?}");
}

/// CI runs `examples/replay_table.rs` at its smallest scale, names the
/// file in `FMM_REPLAY_TABLE` and runs this test with `--ignored`: the
/// model's loader must read the file, and every row's plan must resolve
/// for the band's derivation.
#[test]
#[ignore = "reads the table named in FMM_REPLAY_TABLE, which CI generates"]
fn a_generated_table_parses_with_the_loader() {
    let path = std::env::var("FMM_REPLAY_TABLE").expect("FMM_REPLAY_TABLE names a generated table");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let table = ReplayTable::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let band = table.derive_band(&Registry::shared()).unwrap_or_else(|e| panic!("{path}: {e}"));
    println!("{path}: {} rows, band {band}", table.rows.len());
}

/// SplitMix64: the sweep's inputs are a function of the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One sweep input: a shape, an element width, a worker count, and the
/// constants it is predicted with.
struct Point {
    m: usize,
    k: usize,
    n: usize,
    arch: ArchParams,
    workers: usize,
    plan: usize,
}

/// `benchmark/arch.json`'s `(τ_a, τ_b)` per element width when the replay
/// table was first measured: the sweep's inputs stay fixed when the file
/// is re-pinned.
fn ledger_arch(bytes: usize) -> ArchParams {
    let (tau_a, tau_b) = if bytes == 4 {
        (3.18719228108724e-11, 1.4347923861609562e-9)
    } else {
        (4.716310501098633e-11, 1.4108443525102402e-9)
    };
    ArchParams { tau_a, tau_b, lambda: 0.5, mc: 96, kc: 256, nc: 4096, elem_bytes: bytes }
}

/// `count` seeded points: dims in `[8, 8192]` with at most 64:1 between
/// any two, 8- and 4-byte elements, one and two workers, the paper
/// machine's constants and the benchmark's.
fn sweep(count: usize, plans: usize) -> Vec<Point> {
    let mut rng = Rng(0x6a7d_ba2d);
    (0..count)
        .map(|i| {
            // The smallest dim, log-uniform in [8, 8192]; the others up to
            // 64x larger, clamped to 8192.
            let lo = 8.0 * 1024f64.powf(rng.unit());
            let mut dim = || ((lo * 64f64.powf(rng.unit())).round() as usize).clamp(8, 8192);
            let (m, k, n) = (dim(), dim(), dim());
            let bytes = if i % 2 == 0 { 8 } else { 4 };
            let arch = if i % 4 < 2 {
                ArchParams::paper_machine().with_elem_bytes(bytes)
            } else {
                ledger_arch(bytes)
            };
            let workers = 1 + (i / 4) % 2;
            let plan = (rng.next() % plans as u64) as usize;
            Point { m, k, n, arch, workers, plan }
        })
        .collect()
}

const SWEEP_POINTS: usize = 400;

#[test]
fn a_fast_algorithm_ranked_first_clears_the_band() {
    let plans = engine_plans();
    let band = GUARD_BAND;
    let (mut rankings, mut fmm_first) = (0, 0);
    // Each point also at eight workers: at one or two, no point of the
    // sweep clears the band, and the FMM-first branch would go unchecked.
    for p in sweep(SWEEP_POINTS, plans.len()) {
        for workers in [p.workers, 8] {
            let (m, k, n) = (p.m, p.k, p.n);
            let at = format!("{m}x{k}x{n} {}B {workers} workers", p.arch.elem_bytes);
            let ranked =
                rank_scheduled(m, k, n, &plans, &Impl::FMM_VARIANTS, &p.arch, workers, true);
            rankings += 1;
            for pair in ranked.windows(2) {
                let sorted = pair[0].prediction.total <= pair[1].prediction.total;
                assert!(sorted, "{at}: sorted by total");
            }
            let gemm = ranked.iter().find(|c| c.plan.is_none()).unwrap().prediction;
            assert_eq!(gemm.guard, 0.0, "{at}: GEMM carries no guard");
            for c in ranked.iter().filter(|c| c.plan.is_some()) {
                let fig5 = c.prediction.fig5_total();
                let guard = band.exp_m1() * fig5;
                assert_eq!(c.prediction.guard, guard, "{at}: {}", c.describe());
                assert_eq!(c.prediction.total, fig5 + guard, "{at}: {}", c.describe());
            }
            // The guard scales every FMM candidate alike, so the first of
            // them is Fig. 5's best; it outranks GEMM exactly when its
            // margin `ln(GEMM / FMM)`, in the band's units, clears the band.
            let best = ranked.iter().find(|c| c.plan.is_some()).unwrap();
            let margin = (gemm.total / best.prediction.fig5_total()).ln();
            if ranked[0].plan.is_some() {
                fmm_first += 1;
                let what = best.describe();
                assert!(margin > band, "{at}: {what} margin {margin} within band {band}");
            } else {
                let what = best.describe();
                assert!(margin <= band * (1.0 + 1e-12), "{at}: {what} margin {margin}");
            }
        }
    }
    println!("{fmm_first} of {rankings} rankings put a fast algorithm first (band {band})");
    assert!(fmm_first > 0, "the sweep checks no ranking a fast algorithm wins");
}

/// FNV-1a over the bits of every field Fig. 5 predicted before the guard
/// existed.
fn fold(hash: &mut u64, p: &Prediction) {
    assert_eq!(p.guard, 0.0, "Fig. 5 alone charges no guard");
    for field in [p.arithmetic, p.memory, p.total, p.effective_gflops] {
        for byte in field.to_bits().to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// `predict_fmm`, `predict_gemm` and `predict_scheduled` over the sweep,
/// hashed. The constant is what the same sweep hashed to before the guard
/// band was added to the ranker.
#[test]
fn fig5_predictions_keep_their_bits() {
    let plans = engine_plans();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in sweep(SWEEP_POINTS, plans.len()) {
        let (m, k, n, arch) = (p.m, p.k, p.n, &p.arch);
        let plan = &plans[p.plan];
        fold(&mut hash, &predict_gemm(m, k, n, arch));
        for impl_ in Impl::FMM_VARIANTS {
            fold(&mut hash, &predict_fmm(impl_, &PlanCounts::of(plan), m, k, n, arch));
            for strategy in Strategy::ALL {
                let s = predict_scheduled(impl_, plan, m, k, n, arch, p.workers, strategy);
                fold(&mut hash, &s);
            }
        }
    }
    assert_eq!(hash, PARENT_BITS, "Fig. 5's predictions moved: {hash:#018x}");
}

const PARENT_BITS: u64 = 0xd2ab_da70_efa2_a91a;
