//! Engine-level behavioral guarantees: the warm-path contract, concurrent
//! correctness, and arena sizing.

use fmm_core::{FmmPlan, Strategy, Variant};
use fmm_dense::{fill, norms, Matrix, Scalar};
use fmm_engine::{BatchItem, EngineConfig, FmmEngine, Routing};
use fmm_gemm::BlockingParams;
use fmm_model::ArchParams;

fn tiny_config(routing: Routing) -> EngineConfig {
    EngineConfig {
        arch: ArchParams::paper_machine().into(),
        params: BlockingParams::tiny(),
        routing,
        ..EngineConfig::default()
    }
}

/// The PR's headline guarantee: after the first call for a given
/// `(m, k, n)` (and its variant), subsequent `multiply` calls perform no
/// plan composition, no candidate re-ranking, and no heap allocation for
/// FMM temporaries — the plan cache, decision cache, context pool, and
/// preplanned arena absorb everything.
#[test]
fn warm_path_does_no_composition_ranking_or_allocation() {
    // Pinned FMM routing keeps the executed path an actual FMM (model
    // routing would pick GEMM at test-friendly sizes), exercising the
    // arena; every cache layer behaves identically under model routing.
    for variant in Variant::ALL {
        let engine = FmmEngine::new(tiny_config(Routing::Pinned {
            dims: (2, 2, 2),
            levels: 1,
            variant,
            strategy: Strategy::Dfs,
        }));
        let (m, k, n) = (33, 29, 41); // fringes included
        let a = fill::bench_workload(m, k, 1);
        let b = fill::bench_workload(k, n, 2);
        let mut c = Matrix::zeros(m, n);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        let cold = engine.stats();
        assert_eq!(cold.decision_misses, 1, "{}", variant.name());
        assert_eq!(cold.context_allocations, 1, "{}", variant.name());

        for _ in 0..8 {
            engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        }
        let warm = engine.stats();
        assert_eq!(
            warm.plan_compositions,
            cold.plan_compositions,
            "{}: no recomposition",
            variant.name()
        );
        assert_eq!(warm.rankings, cold.rankings, "{}: no re-ranking", variant.name());
        assert_eq!(
            warm.arena_grows,
            cold.arena_grows,
            "{}: no workspace allocation",
            variant.name()
        );
        assert_eq!(
            warm.context_allocations,
            cold.context_allocations,
            "{}: context pool reused",
            variant.name()
        );
        assert_eq!(warm.decision_hits, cold.decision_hits + 8, "{}", variant.name());
    }
}

/// `workers` is clamped to the rayon pool width (the model must not rank
/// with parallelism the machine cannot deliver), so tests that route on
/// eight workers widen the pool first. Every other test in this binary is
/// width-agnostic.
fn widen_pool() {
    rayon::ThreadPoolBuilder::new().num_threads(8).build_global().unwrap();
}

/// Model routing has the same warm-path property for the decision layer.
#[test]
fn model_routing_ranks_once_per_shape() {
    // The paper machine's constants (`tiny_config`), so the routes below
    // are the model's formula and not this host's calibration. On one
    // worker no shape this small clears the guard band (256³ predicts
    // one-level Strassen at 0.95x GEMM); on eight, two small shapes go to
    // GEMM, and 64³ and 96x128x128 to one level of Strassen as AB BFS,
    // predicted at 0.60x and 0.38x GEMM.
    widen_pool();
    let engine =
        FmmEngine::new(EngineConfig { parallel: true, workers: 8, ..tiny_config(Routing::Model) });
    let shapes = [(48usize, 32usize, 40usize), (37, 29, 41), (64, 64, 64), (96, 128, 128)];
    for &(m, k, n) in &shapes {
        let a = fill::bench_workload(m, k, 1);
        let b = fill::bench_workload(k, n, 2);
        let mut c = Matrix::zeros(m, n);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
    }
    assert_eq!(engine.decision_label(48, 32, 40), "GEMM");
    assert_eq!(engine.decision_label(37, 29, 41), "GEMM");
    assert_eq!(engine.decision_label(64, 64, 64), "<2,2,2> AB BFS");
    assert_eq!(engine.decision_label(96, 128, 128), "<2,2,2> AB BFS");
    let cold = engine.stats();
    assert_eq!(cold.rankings, shapes.len() as u64, "one ranking per distinct shape");
    assert_eq!(
        cold.plan_compositions, 1,
        "the one plan two shapes routed to, not the candidate set"
    );

    for &(m, k, n) in &shapes {
        let a = fill::bench_workload(m, k, 1);
        let b = fill::bench_workload(k, n, 2);
        let mut c = Matrix::zeros(m, n);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
    }
    let warm = engine.stats();
    assert_eq!(warm.rankings, cold.rankings);
    assert_eq!(warm.plan_compositions, 1, "plans composed exactly once");
}

/// Concurrent `multiply` calls from many threads produce results matching
/// the reference GEMM — the engine shares safely via `&self`.
#[test]
fn concurrent_multiply_matches_reference() {
    for routing in [
        Routing::Model,
        Routing::Pinned {
            dims: (2, 2, 2),
            levels: 1,
            variant: Variant::Abc,
            strategy: Strategy::Dfs,
        },
    ] {
        let engine = FmmEngine::new(tiny_config(routing.clone()));
        let threads = 8;
        let iterations = 4;
        std::thread::scope(|s| {
            for t in 0..threads {
                let engine = &engine;
                s.spawn(move || {
                    // Distinct shapes per thread exercise decision-cache
                    // writes under contention; repeats exercise hits.
                    let (m, k, n) = (24 + 2 * t, 18 + t, 30 + 3 * t);
                    let a = fill::bench_workload(m, k, t as u64 + 1);
                    let b = fill::bench_workload(k, n, t as u64 + 100);
                    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
                    for _ in 0..iterations {
                        let mut c = Matrix::zeros(m, n);
                        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
                        assert!(
                            norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9,
                            "thread {t}: m={m} k={k} n={n}"
                        );
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.executions, (threads * iterations) as u64);
        assert!(
            stats.context_allocations <= threads as u64,
            "at most one context per concurrent caller, got {}",
            stats.context_allocations
        );
    }
}

/// Arena sizing matches `Variant::workspace_elements` for all three
/// variants (migrated from the executor's
/// `workspace_requirements_match_allocations` unit test, now asserted
/// through the engine's pooled execution path), on a sequential engine and
/// on a parallel one, whose depth-first runs go through `fmm_sched`.
#[test]
fn arena_sizing_matches_workspace_elements() {
    let plan = FmmPlan::new(vec![fmm_core::registry::strassen()]);
    let (m, k, n) = (16, 12, 20);
    assert_eq!(Variant::Abc.workspace_elements(&plan, m, k, n), 0);
    assert_eq!(Variant::Ab.workspace_elements(&plan, m, k, n), 8 * 10);
    assert_eq!(Variant::Naive.workspace_elements(&plan, m, k, n), 8 * 10 + 8 * 6 + 6 * 10);
    for parallel in [false, true] {
        let engine = FmmEngine::new(EngineConfig { parallel, ..tiny_config(Routing::Model) });
        for variant in Variant::ALL {
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c = fill::bench_workload(m, n, 3);
            let occupied =
                engine.multiply_with_plan(c.as_mut(), a.as_ref(), b.as_ref(), &plan, variant);
            assert_eq!(
                occupied,
                variant.workspace_elements(&plan, m, k, n),
                "variant {} parallel={parallel}",
                variant.name()
            );
            // And the result is correct.
            let mut c_ref = fill::bench_workload(m, n, 3);
            fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
            assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-10);
        }
    }
}

/// The scheduler strategies route through the same cache layers: after the
/// cold call, warm BFS/hybrid multiplies perform no re-ranking, no plan
/// recomposition, and no workspace allocation — the acceptance guarantee
/// for the task-parallel paths.
#[test]
fn warm_scheduled_paths_do_no_ranking_composition_or_allocation() {
    for strategy in [Strategy::Bfs, Strategy::Hybrid] {
        for variant in Variant::ALL {
            let engine = FmmEngine::new(EngineConfig {
                parallel: true,
                workers: 4,
                ..tiny_config(Routing::Pinned { dims: (2, 2, 2), levels: 2, variant, strategy })
            });
            let (m, k, n) = (52, 44, 60); // fringes included
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
            let mut c = Matrix::zeros(m, n);
            engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
            let cold = engine.stats();
            assert_eq!(cold.decision_misses, 1);
            for _ in 0..6 {
                let mut c = Matrix::zeros(m, n);
                engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
                let tol = f64::accuracy_bound(k, 2);
                assert!(
                    norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < tol,
                    "{} {}",
                    strategy.name(),
                    variant.name()
                );
            }
            let warm = engine.stats();
            let label = format!("{} {}", strategy.name(), variant.name());
            assert_eq!(warm.rankings, cold.rankings, "{label}: no re-ranking");
            assert_eq!(warm.plan_compositions, cold.plan_compositions, "{label}: no recomposition");
            assert_eq!(warm.arena_grows, cold.arena_grows, "{label}: no workspace allocation");
            assert_eq!(warm.context_allocations, cold.context_allocations, "{label}: pool reused");
            assert_eq!(warm.decision_hits, cold.decision_hits + 6, "{label}");
        }
    }
}

/// A parallel model-routed engine picks a strategy per shape and labels it.
#[test]
fn parallel_model_routing_selects_a_strategy() {
    widen_pool();
    // Pin the paper machine: the assertion below is about the parallel
    // model's *formula* at known constants, not about whatever constants
    // this CI host happens to calibrate to.
    let engine = FmmEngine::new(EngineConfig {
        arch: ArchParams::paper_machine().into(),
        parallel: true,
        workers: 8,
        ..EngineConfig::default()
    });
    // 192³: too small for DFS data parallelism to fill 8 workers — the
    // parallel model must route away from plain DFS (see
    // fmm_model::parallel tests for the formula-level assertion). At 256³
    // the task-parallel margin falls inside the guard band.
    let label = engine.decision_label(192, 192, 192);
    assert!(
        label.contains("BFS") || label.contains("Hybrid"),
        "expected a task-parallel schedule at 192^3 x 8 workers, got {label}"
    );
    let a = fill::bench_workload(192, 192, 1);
    let b = fill::bench_workload(192, 192, 2);
    let mut c = Matrix::zeros(192, 192);
    engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9);
}

/// `multiply_batch`: every item matches the reference, the batch counters
/// advance, and a warm same-shape batch costs no rankings and no
/// allocations (inter-problem parallelism reuses pooled contexts).
#[test]
fn multiply_batch_is_correct_and_warm_after_first_batch() {
    let engine = FmmEngine::new(EngineConfig {
        parallel: true,
        workers: 4,
        ..tiny_config(Routing::Pinned {
            dims: (2, 2, 2),
            levels: 1,
            variant: Variant::Abc,
            strategy: Strategy::Dfs,
        })
    });
    let items_n = 12;
    let (m, k, n) = (48, 40, 44);
    let a: Vec<Matrix> = (0..items_n).map(|i| fill::bench_workload(m, k, i as u64 + 1)).collect();
    let b: Vec<Matrix> = (0..items_n).map(|i| fill::bench_workload(k, n, i as u64 + 50)).collect();
    let refs: Vec<Matrix> =
        (0..items_n).map(|i| fmm_gemm::reference::matmul(a[i].as_ref(), b[i].as_ref())).collect();

    let run_batch = || {
        let mut cs: Vec<Matrix> = (0..items_n).map(|_| Matrix::zeros(m, n)).collect();
        {
            let mut items: Vec<BatchItem<'_>> = cs
                .iter_mut()
                .zip(a.iter().zip(b.iter()))
                .map(|(c, (a, b))| BatchItem::new(c.as_mut(), a.as_ref(), b.as_ref()))
                .collect();
            engine.multiply_batch(&mut items);
        }
        for (i, c) in cs.iter().enumerate() {
            assert!(norms::rel_error(c.as_ref(), refs[i].as_ref()) < 1e-9, "item {i}");
        }
    };
    run_batch();
    let cold = engine.stats();
    assert_eq!(cold.batches, 1);
    assert_eq!(cold.batch_items, items_n as u64);
    assert_eq!(cold.executions, items_n as u64);
    assert_eq!(cold.decision_misses, 1, "one shape, one decision");

    run_batch();
    let warm = engine.stats();
    assert_eq!(warm.batches, 2);
    assert_eq!(warm.rankings, cold.rankings, "warm batch re-ranks nothing");
    assert_eq!(warm.plan_compositions, cold.plan_compositions);
    assert_eq!(warm.arena_grows, cold.arena_grows, "warm batch allocates no workspaces");
    assert_eq!(warm.context_allocations, cold.context_allocations, "contexts pooled");
}

/// A sequential engine accepts batches too (items just run in order).
#[test]
fn sequential_engine_runs_batches_in_order() {
    let engine = FmmEngine::new(tiny_config(Routing::Model));
    let a = fill::bench_workload(33, 29, 1);
    let b = fill::bench_workload(29, 41, 2);
    let mut c0 = Matrix::zeros(33, 41);
    let mut c1 = Matrix::zeros(33, 41);
    {
        let mut items = vec![
            BatchItem::new(c0.as_mut(), a.as_ref(), b.as_ref()),
            BatchItem::new(c1.as_mut(), a.as_ref(), b.as_ref()),
        ];
        engine.multiply_batch(&mut items);
    }
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c0.as_ref(), c_ref.as_ref()) < 1e-9);
    assert_eq!(c0, c1, "identical problems yield identical results");
    assert_eq!(engine.stats().batch_items, 2);
}

/// Two-level plans and larger problems route through the same caches.
#[test]
fn two_level_pinned_execution_is_correct_and_cached() {
    let engine = FmmEngine::new(tiny_config(Routing::Pinned {
        dims: (2, 2, 2),
        levels: 2,
        variant: Variant::Ab,
        strategy: Strategy::Dfs,
    }));
    let (m, k, n) = (52, 44, 60);
    let a = fill::bench_workload(m, k, 7);
    let b = fill::bench_workload(k, n, 8);
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    for _ in 0..3 {
        let mut c = Matrix::zeros(m, n);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        let tol = f64::accuracy_bound(k, 2);
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < tol);
    }
    assert_eq!(engine.stats().plan_compositions, 1, "one 2-level composition total");
}
