//! A sequential engine is the one-worker case of the scheduled path: at
//! one worker the ranking holds only depth-first candidates, because no
//! breadth-first or hybrid schedule could win there, and a parallel engine
//! held to one worker routes every shape as a sequential engine does.

use fmm_core::{FmmPlan, Strategy};
use fmm_engine::{EngineConfig, FmmEngine};
use fmm_model::{predict_scheduled, rank_scheduled, ArchParams, Impl};
use std::sync::Arc;

/// The paper machine, its f32 width, and its DRAM cost ×8 and ÷8.
fn arch_variants() -> [ArchParams; 4] {
    let paper = ArchParams::paper_machine();
    [
        paper,
        paper.with_elem_bytes(4),
        ArchParams { tau_b: paper.tau_b * 8.0, ..paper },
        ArchParams { tau_b: paper.tau_b / 8.0, ..paper },
    ]
}

fn candidate_plans() -> Vec<Arc<FmmPlan>> {
    let engine = FmmEngine::<f64>::new(EngineConfig {
        arch: ArchParams::paper_machine().into(),
        ..EngineConfig::default()
    });
    engine.candidate_plans()
}

/// Every shape of `dims`³.
fn lattice(dims: &[usize]) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    dims.iter()
        .flat_map(move |&m| dims.iter().flat_map(move |&k| dims.iter().map(move |&n| (m, k, n))))
}

/// The soundness of generating DFS only at one worker: no breadth-first
/// or hybrid prediction at one worker beats the best depth-first one of
/// its plan, on any shape or arch.
#[test]
fn one_worker_never_prefers_a_task_schedule() {
    let plans = candidate_plans();
    for arch in arch_variants() {
        for (m, k, n) in lattice(&[1, 7, 64, 127, 480, 1000, 2048, 14400]) {
            for plan in &plans {
                let predict = |impl_, strategy| {
                    predict_scheduled(impl_, plan, m, k, n, &arch, 1, strategy).total
                };
                let best_dfs = Impl::FMM_VARIANTS
                    .iter()
                    .map(|&v| predict(v, Strategy::Dfs))
                    .fold(f64::INFINITY, f64::min);
                for v in Impl::FMM_VARIANTS {
                    for strategy in [Strategy::Bfs, Strategy::Hybrid] {
                        assert!(
                            predict(v, strategy) >= best_dfs,
                            "{} {} {} at {m}x{k}x{n}, {arch:?}",
                            plan.describe(),
                            v.name(),
                            strategy.name()
                        );
                    }
                }
            }
        }
    }
}

/// One worker ranks GEMM plus every plan and variant depth-first: 139
/// candidates for the engine's 46 plans, against 346 with every schedule.
#[test]
fn one_worker_ranks_depth_first_candidates_only() {
    let plans = candidate_plans();
    assert_eq!(plans.len(), 46);
    let arch = ArchParams::paper_machine();
    let rank = |workers| {
        rank_scheduled(1000, 1000, 1000, &plans, &Impl::FMM_VARIANTS, &arch, workers, true)
    };
    let one = rank(1);
    assert_eq!(one.len(), 1 + 46 * 3);
    assert!(one.iter().all(|c| c.strategy == Strategy::Dfs));
    assert_eq!(rank(2).len(), 346);
}

/// A parallel engine held to one worker routes every shape as a
/// sequential engine does.
#[test]
fn one_worker_parallel_engine_routes_as_a_sequential_one() {
    for arch in arch_variants() {
        let engine = |parallel, workers| {
            FmmEngine::<f64>::new(EngineConfig {
                arch: arch.into(),
                parallel,
                workers,
                ..EngineConfig::default()
            })
        };
        let (sequential, one_worker) = (engine(false, 0), engine(true, 1));
        for (m, k, n) in lattice(&[1, 31, 96, 256, 511, 1024, 4096, 14400]) {
            assert_eq!(
                sequential.decision_label(m, k, n),
                one_worker.decision_label(m, k, n),
                "{m}x{k}x{n}, {arch:?}"
            );
        }
    }
}
