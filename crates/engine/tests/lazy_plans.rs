//! Plans cost nothing until they run: ranking reads stored counts, the
//! engine composes exactly the plans its decisions route to, at decision
//! time, and routes are what they were when every candidate was composed
//! up front.

use fmm_core::{FmmPlan, Strategy, Variant};
use fmm_dense::{fill, norms, Matrix, Scalar};
use fmm_engine::{ArchSource, EngineConfig, FmmEngine, Routing};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::ArchParams;
use std::sync::Arc;

/// `benchmark/arch.json` as committed when this test was written. The
/// labels below are golden for these constants, not for the file: a
/// recalibrated `arch.json` does not move them.
fn ledger_arch(tau_a: f64, tau_b: f64) -> ArchParams {
    ArchParams { tau_a, tau_b, lambda: 0.5, mc: 96, kc: 256, nc: 4096, elem_bytes: 8 }
}
const F64_TAUS: (f64, f64) = (4.716310501098633e-11, 1.4108443525102402e-9);
const F32_TAUS: (f64, f64) = (3.18719228108724e-11, 1.4347923861609562e-9);

/// The benchmark's in-process engine for `T`.
fn ledger_engine<T: GemmScalar>((tau_a, tau_b): (f64, f64)) -> FmmEngine<T> {
    FmmEngine::new(EngineConfig {
        arch: ArchSource::Fixed(ledger_arch(tau_a, tau_b)),
        ..EngineConfig::default()
    })
}

fn composed(plans: &[Arc<FmmPlan>]) -> Vec<String> {
    plans.iter().filter(|p| p.is_composed()).map(|p| p.describe()).collect()
}

#[test]
fn ranking_composes_nothing_and_routing_composes_the_winner() {
    let engine = ledger_engine::<f64>(F64_TAUS);
    let plans = engine.candidate_plans();
    assert!(plans.iter().any(|p| p.num_levels() == 2), "two-level candidates are ranked");
    assert_eq!(composed(&plans), Vec::<String>::new(), "listing candidates composes nothing");

    // 200 distinct small shapes, each a cold decision that ranks every
    // candidate and picks GEMM.
    for i in 0..200 {
        let (m, k, n) = (8 + i, 8 + (i * 7) % 200, 8 + (i * 13) % 200);
        engine.prepare(m, k, n);
        assert_eq!(engine.decision_label(m, k, n), "GEMM", "{m}x{k}x{n}");
    }
    let stats = engine.stats();
    assert_eq!(stats.rankings, 200);
    assert_eq!(stats.plan_compositions, 0, "a ranking reads counts, not coefficients");
    assert_eq!(composed(&engine.candidate_plans()), Vec::<String>::new());

    // A shape the model sends to one-level Strassen composes that plan,
    // when the decision is made, and no other.
    assert_eq!(engine.decision_label(1024, 1024, 1024), "<2,2,2> ABC");
    assert_eq!(engine.stats().plan_compositions, 1);
    assert_eq!(composed(&engine.candidate_plans()), ["<2,2,2>"]);
    // A second shape routed to the same plan shares the composition.
    assert_eq!(engine.decision_label(1536, 1536, 1536), "<2,2,2> ABC");
    assert_eq!(engine.stats().plan_compositions, 1);
}

/// Decisions that miss at the same time and route to one plan count the
/// one composition there is.
#[test]
fn concurrent_decisions_count_a_shared_composition_once() {
    let shapes = [(1024, 1024, 1024), (1536, 1536, 1536), (1536, 512, 1536), (4096, 512, 512)];
    for _ in 0..8 {
        let engine = ledger_engine::<f64>(F64_TAUS);
        let start = std::sync::Barrier::new(shapes.len());
        std::thread::scope(|s| {
            for (m, k, n) in shapes {
                let (engine, start) = (&engine, &start);
                s.spawn(move || {
                    start.wait();
                    assert_eq!(engine.decision_label(m, k, n), "<2,2,2> ABC");
                });
            }
        });
        assert_eq!(engine.stats().plan_compositions, 1);
        assert_eq!(composed(&engine.candidate_plans()), ["<2,2,2>"]);
    }
}

/// Routes of the benchmark's workloads under its pinned constants, as the
/// parent commit (every candidate composed and scanned per ranking) chose
/// them: all of `square`, `rankk` and `serve`, and every eighth f64 and
/// f32 op of `small_mix` at seed 1.
#[test]
fn ledger_routes_are_unchanged() {
    let f64s = ledger_engine::<f64>(F64_TAUS);
    let f32s = ledger_engine::<f32>(F32_TAUS);
    for ((m, k, n), want) in [
        ((1024, 1024, 1024), "<2,2,2> ABC"),
        ((1536, 1536, 1536), "<2,2,2> ABC"),
        ((2048, 256, 2048), "GEMM"),
        ((1536, 512, 1536), "<2,2,2> ABC"),
        ((4096, 512, 512), "<2,2,2> ABC"),
        ((512, 2048, 512), "GEMM"),
    ] {
        assert_eq!(f64s.decision_label(m, k, n), want, "f64 {m}x{k}x{n}");
    }
    assert_eq!(f32s.decision_label(1536, 1536, 1536), "<2,2,2> ABC", "f32 1536^3");

    // `serve`: the daemon's engines are parallel at the pool's width —
    // one worker, the benchmark pins that run to one CPU — and both rank
    // with the f64 constants.
    let daemon = |workers| EngineConfig {
        arch: ArchSource::Fixed(ledger_arch(F64_TAUS.0, F64_TAUS.1)),
        parallel: true,
        workers,
        ..EngineConfig::default()
    };
    let (d64, d32) = (FmmEngine::<f64>::new(daemon(1)), FmmEngine::<f32>::new(daemon(1)));
    for n in [32, 64, 128, 256] {
        assert_eq!(d64.decision_label(n, n, n), "GEMM", "daemon f64 {n}^3");
    }
    for n in [64, 128] {
        assert_eq!(d32.decision_label(n, n, n), "GEMM", "daemon f32 {n}^3");
    }

    const SMALL_MIX_F64: [(usize, usize, usize); 24] = [
        (37, 48, 205),
        (125, 117, 131),
        (48, 140, 201),
        (13, 32, 223),
        (158, 105, 132),
        (232, 87, 114),
        (36, 174, 100),
        (249, 218, 56),
        (153, 236, 103),
        (94, 110, 169),
        (215, 14, 96),
        (189, 203, 36),
        (78, 140, 209),
        (81, 55, 12),
        (105, 127, 22),
        (82, 233, 249),
        (213, 54, 158),
        (57, 21, 137),
        (198, 131, 252),
        (54, 39, 19),
        (225, 246, 57),
        (90, 147, 102),
        (69, 73, 179),
        (142, 105, 148),
    ];
    const SMALL_MIX_F32: [(usize, usize, usize); 24] = [
        (17, 75, 237),
        (95, 82, 162),
        (104, 117, 207),
        (244, 12, 118),
        (247, 62, 244),
        (61, 124, 177),
        (159, 53, 89),
        (41, 30, 116),
        (81, 240, 173),
        (93, 159, 121),
        (244, 145, 158),
        (181, 42, 229),
        (97, 23, 236),
        (172, 97, 67),
        (217, 98, 155),
        (114, 127, 110),
        (77, 121, 48),
        (51, 249, 8),
        (131, 192, 167),
        (119, 66, 68),
        (130, 62, 40),
        (143, 243, 176),
        (242, 186, 131),
        (205, 158, 26),
    ];
    for (m, k, n) in SMALL_MIX_F64 {
        assert_eq!(f64s.decision_label(m, k, n), "GEMM", "f64 {m}x{k}x{n}");
    }
    for (m, k, n) in SMALL_MIX_F32 {
        assert_eq!(f32s.decision_label(m, k, n), "GEMM", "f32 {m}x{k}x{n}");
    }
}

/// `prepare` leaves nothing for the first `multiply` to build: the routed
/// plan — and under a hybrid schedule the plan its tasks run — is composed
/// when `prepare` returns, and the multiply moves no warm-path counter.
#[test]
fn prepare_composes_what_the_first_multiply_runs() {
    let (m, k, n) = (52, 44, 60);
    let a = fill::bench_workload(m, k, 7);
    let b = fill::bench_workload(k, n, 8);
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    // A sequential engine, then a parallel one under each schedule.
    let schedules = [
        (false, Strategy::Dfs),
        (true, Strategy::Dfs),
        (true, Strategy::Bfs),
        (true, Strategy::Hybrid),
    ];
    for (parallel, strategy) in schedules {
        let engine = FmmEngine::<f64>::new(EngineConfig {
            params: BlockingParams::tiny(),
            parallel,
            routing: Routing::Pinned { dims: (2, 2, 2), levels: 2, variant: Variant::Ab, strategy },
            ..EngineConfig::default()
        });
        engine.prepare(m, k, n);
        let label = format!("parallel={parallel} {strategy:?}");
        let plans = engine.candidate_plans();
        assert_eq!(composed(&plans), ["<2,2,2>+<2,2,2>"], "{label}");
        let routed = plans.iter().find(|p| p.is_composed()).expect("asserted above");
        let inner = routed.inner_plan().expect("two levels");
        assert_eq!(inner.is_composed(), strategy == Strategy::Hybrid, "{label}: inner plan");

        let prepared = engine.stats();
        assert_eq!(prepared.plan_compositions, 1 + u64::from(inner.is_composed()), "{label}");
        let mut c = Matrix::zeros(m, n);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < f64::accuracy_bound(k, 2));
        let after = engine.stats();
        assert_eq!(after.rankings, prepared.rankings, "{label}");
        assert_eq!(after.plan_compositions, prepared.plan_compositions, "{label}");
        assert_eq!(after.arena_grows, prepared.arena_grows, "{label}: prepare sized every arena");
        assert_eq!(after.context_allocations, prepared.context_allocations, "{label}");
    }
}
