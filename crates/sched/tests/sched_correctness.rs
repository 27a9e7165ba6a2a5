//! Scheduler-level behavioral guarantees: every `(strategy, variant)`
//! combination matches the reference GEMM across odd shapes and worker
//! counts, and the warm BFS/hybrid paths perform zero heap allocation for
//! per-task workspaces.

use fmm_core::{registry, FmmPlan, Strategy, Variant};
use fmm_dense::{fill, norms, Matrix, Scalar};
use fmm_gemm::BlockingParams;
use fmm_sched::{execute, SchedContext};

/// Let the rayon stand-in actually run several workers even on small CI
/// machines (the schedulers take an explicit worker count, but effective
/// parallelism is additionally bounded by the pool width). Correctness
/// must not depend on the pool width, so racing with `RAYON_NUM_THREADS`
/// overrides from the environment is fine.
fn widen_pool() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if std::env::var("RAYON_NUM_THREADS").is_err() {
            rayon::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
        }
    });
}

/// The satellite correctness sweep: `Dfs`/`Bfs`/`Hybrid` × all variants ×
/// odd shapes (exercising dynamic peeling) × worker counts 1/2/4 all match
/// the reference GEMM.
#[test]
fn strategy_variant_worker_sweep_matches_reference() {
    widen_pool();
    let one = FmmPlan::new(vec![registry::strassen()]);
    let two = FmmPlan::uniform(registry::strassen(), 2);
    let shapes: &[(usize, usize, usize)] = &[(37, 29, 41), (48, 48, 48), (33, 52, 21)];
    for (plan, levels) in [(&one, 1), (&two, 2)] {
        for &(m, k, n) in shapes {
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c_ref = fill::bench_workload(m, n, 3);
            let c_init = c_ref.clone();
            fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
            let tol = f64::accuracy_bound(k, levels);
            for strategy in Strategy::ALL {
                for variant in Variant::ALL {
                    for workers in [1, 2, 4] {
                        let mut c = c_init.clone();
                        let mut ctx = SchedContext::new(BlockingParams::tiny());
                        execute(
                            c.as_mut(),
                            a.as_ref(),
                            b.as_ref(),
                            plan,
                            variant,
                            strategy,
                            &mut ctx,
                            workers,
                        );
                        let err = norms::max_abs_diff(c.as_ref(), c_ref.as_ref());
                        assert!(
                            err < tol,
                            "{} {} {} m={m} k={k} n={n} workers={workers}: err={err} tol={tol}",
                            plan.describe(),
                            variant.name(),
                            strategy.name(),
                        );
                    }
                }
            }
        }
    }
}

/// The warm BFS path performs zero heap allocation for per-task
/// workspaces: after the first execution of a shape, `grow_count` — which
/// aggregates the task arena, the packing pool, and every inner context —
/// stays flat.
#[test]
fn warm_bfs_path_allocates_no_task_workspaces() {
    widen_pool();
    let plan = FmmPlan::new(vec![registry::strassen()]);
    let (m, k, n) = (48, 48, 48);
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    for variant in Variant::ALL {
        let mut ctx = SchedContext::new(BlockingParams::tiny());
        let mut c = Matrix::zeros(m, n);
        execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, variant, Strategy::Bfs, &mut ctx, 4);
        let cold = ctx.grow_count();
        assert!(cold > 0, "{}: the cold path sized the task workspaces", variant.name());
        for _ in 0..6 {
            let mut c = Matrix::zeros(m, n);
            execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, variant, Strategy::Bfs, &mut ctx, 4);
        }
        assert_eq!(
            ctx.grow_count(),
            cold,
            "{}: warm BFS executions allocate no workspaces",
            variant.name()
        );
        assert_eq!(ctx.stats().bfs_executions, 7, "{}", variant.name());
        assert_eq!(ctx.stats().tasks_executed, 7 * plan.rank() as u64, "{}", variant.name());
    }
}

/// Same guarantee for the hybrid path, including its pooled inner DFS
/// contexts.
#[test]
fn warm_hybrid_path_allocates_nothing() {
    widen_pool();
    let plan = FmmPlan::uniform(registry::strassen(), 2);
    let (m, k, n) = (52, 44, 60); // fringes included
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    let mut ctx = SchedContext::new(BlockingParams::tiny());
    let mut c = Matrix::zeros(m, n);
    execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Ab, Strategy::Hybrid, &mut ctx, 4);
    let cold = ctx.grow_count();
    let cold_inner = ctx.stats().inner_context_allocations;
    assert!(cold_inner >= 1, "hybrid tasks used pooled inner contexts");
    for _ in 0..6 {
        let mut c = Matrix::zeros(m, n);
        execute(
            c.as_mut(),
            a.as_ref(),
            b.as_ref(),
            &plan,
            Variant::Ab,
            Strategy::Hybrid,
            &mut ctx,
            4,
        );
    }
    assert_eq!(ctx.grow_count(), cold, "warm hybrid executions allocate nothing");
    assert_eq!(ctx.stats().inner_context_allocations, cold_inner, "inner contexts pooled");
    assert_eq!(ctx.stats().hybrid_executions, 7);
}

/// `preplan` moves every allocation ahead of the first execution: a
/// preplanned context's first call is already warm.
#[test]
fn preplan_makes_the_first_execution_warm() {
    widen_pool();
    let plan = FmmPlan::uniform(registry::strassen(), 2);
    let (m, k, n) = (68, 68, 68);
    for strategy in Strategy::ALL {
        for variant in [Variant::Naive, Variant::Abc] {
            let mut ctx = SchedContext::new(BlockingParams::tiny());
            ctx.preplan(&plan, variant, strategy, 4, m, k, n);
            let planned = ctx.grow_count();
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, variant, strategy, &mut ctx, 4);
            assert_eq!(
                ctx.grow_count(),
                planned,
                "{} {}: preplanned first call allocates nothing",
                strategy.name(),
                variant.name()
            );
        }
    }
}
