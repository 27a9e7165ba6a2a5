//! Engine edge cases that previously passed only by accident (or did not
//! pass at all): pinned routing on unregistered dims, counter integrity
//! under invalid batches, contradictory worker configuration, degenerate
//! shapes, empty batches, and non-contiguous operand views — each driven
//! through both the `f64` and `f32` engines where a dtype applies.

use fmm_core::{Strategy, Variant};
use fmm_dense::{fill, norms, Matrix};
use fmm_engine::{BatchItem, EngineConfig, FmmEngine, Routing};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::ArchParams;

fn tiny_config(routing: Routing) -> EngineConfig {
    EngineConfig {
        arch: ArchParams::paper_machine().into(),
        params: BlockingParams::tiny(),
        routing,
        ..EngineConfig::default()
    }
}

/// Pinned routing that forces the FMM path: `(2, 2, 2)` is always in the
/// registry, and `BlockingParams::tiny()` keeps the core small.
fn pinned_strassen(variant: Variant) -> EngineConfig {
    tiny_config(Routing::Pinned { dims: (2, 2, 2), levels: 1, variant, strategy: Strategy::Dfs })
}

/// Regression: `Routing::Pinned` with dims no registry algorithm has used
/// to `panic!` out of `compute_decision` and kill the process. It must
/// fall back to the GEMM decision — counted, cached, and correct.
#[test]
fn pinned_unregistered_dims_falls_back_to_gemm() {
    let engine = FmmEngine::new(tiny_config(Routing::Pinned {
        dims: (7, 7, 7),
        levels: 1,
        variant: Variant::Abc,
        strategy: Strategy::Dfs,
    }));
    let (m, k, n) = (24, 20, 28);
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);

    let stats = engine.stats();
    assert_eq!(stats.pinned_fallbacks, 1, "the fallback is counted");
    assert_eq!(engine.decision_label(m, k, n), "GEMM");

    // The fallback decision is cached like any other: repeating the shape
    // neither re-falls-back nor re-ranks.
    engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
    let warm = engine.stats();
    assert_eq!(warm.pinned_fallbacks, 1, "one fallback per decision miss, not per call");
    // The `decision_label` probe and the repeat multiply both hit the cache.
    assert_eq!(warm.decision_hits, stats.decision_hits + 2);
}

/// Regression: `multiply_batch` bumped `batches`/`batch_items`/`executions`
/// before validating item shapes, so a mismatch left the stats counting a
/// batch that never ran.
#[test]
fn batch_shape_mismatch_leaves_stats_unchanged() {
    let engine = FmmEngine::new(tiny_config(Routing::Model));
    // Warm the engine with a valid batch first.
    let a = fill::bench_workload(16, 12, 1);
    let b = fill::bench_workload(12, 8, 2);
    let mut c = Matrix::zeros(16, 8);
    engine.multiply_batch(&mut [BatchItem::new(c.as_mut(), a.as_ref(), b.as_ref())]);
    let before = engine.stats();
    assert_eq!(before.batches, 1);
    assert_eq!(before.batch_items, 1);

    // Second item has a C of the wrong shape: the batch must panic without
    // touching any counter.
    let mut c_ok = Matrix::zeros(16, 8);
    let mut c_bad = Matrix::zeros(9, 9);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.multiply_batch(&mut [
            BatchItem::new(c_ok.as_mut(), a.as_ref(), b.as_ref()),
            BatchItem::new(c_bad.as_mut(), a.as_ref(), b.as_ref()),
        ]);
    }));
    assert!(result.is_err(), "shape mismatch still panics");
    let after = engine.stats();
    assert_eq!(after, before, "a rejected batch leaves EngineStats untouched");
}

/// Regression: `workers > 0` with `parallel: false` silently ran
/// sequentially; the constructor now rejects the contradiction outright.
#[test]
#[should_panic(expected = "contradictory")]
fn workers_without_parallel_is_rejected_at_construction() {
    let _ = FmmEngine::<f64>::new(EngineConfig {
        workers: 4,
        parallel: false,
        ..tiny_config(Routing::Model)
    });
}

/// Invalid arch constants are rejected at construction instead of
/// silently poisoning every ranking.
#[test]
#[should_panic(expected = "EngineConfig.arch is invalid")]
fn invalid_fixed_arch_is_rejected_at_construction() {
    let mut bad = ArchParams::paper_machine();
    bad.tau_b = -1.0; // a negative bandwidth cost
    let _ = FmmEngine::<f64>::new(EngineConfig { arch: bad.into(), ..EngineConfig::default() });
}

/// The non-contradictory worker configurations still construct.
#[test]
fn worker_configs_with_parallel_or_zero_workers_construct() {
    let _ = FmmEngine::<f64>::new(EngineConfig {
        workers: 4,
        parallel: true,
        ..tiny_config(Routing::Model)
    });
    let _ = FmmEngine::<f64>::new(EngineConfig {
        workers: 0,
        parallel: false,
        ..tiny_config(Routing::Model)
    });
}

/// Degenerate shapes (`m == 0`, `k == 0`, `n == 0`) through every routing
/// mode, both dtypes: must be no-ops on `C` (k = 0 contributes nothing to
/// an accumulation) and must not panic anywhere in peeling or packing.
fn check_degenerate<T: GemmScalar>() {
    for routing in [
        Routing::Model,
        Routing::Pinned {
            dims: (2, 2, 2),
            levels: 1,
            variant: Variant::Abc,
            strategy: Strategy::Dfs,
        },
    ] {
        let engine = FmmEngine::<T>::new(tiny_config(routing));
        for (m, k, n) in [(0, 8, 8), (8, 0, 8), (8, 8, 0), (0, 0, 0)] {
            let a = fill::bench_workload_t::<T>(m, k, 3);
            let b = fill::bench_workload_t::<T>(k, n, 4);
            let mut c = Matrix::<T>::filled(m, n, T::from_f64(5.0));
            engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
            assert_eq!(
                c,
                Matrix::<T>::filled(m, n, T::from_f64(5.0)),
                "{} m={m} k={k} n={n}: degenerate multiply must not alter C",
                T::NAME
            );
        }
    }
}

#[test]
fn degenerate_shapes_are_noops_f64() {
    check_degenerate::<f64>();
}

#[test]
fn degenerate_shapes_are_noops_f32() {
    check_degenerate::<f32>();
}

/// An empty batch is a served (counted) batch of zero items, not an error.
#[test]
fn empty_batch_is_counted_and_harmless() {
    let engine = FmmEngine::<f64>::new(tiny_config(Routing::Model));
    let mut items: Vec<BatchItem<'_>> = Vec::new();
    engine.multiply_batch(&mut items);
    let stats = engine.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.batch_items, 0);
    assert_eq!(stats.executions, 0);
}

/// Non-contiguous views (submatrices of larger parents, including a
/// transposed operand) driven through the *FMM* route — pinned Strassen
/// keeps the decision off the GEMM fallback — for both dtypes, accepted
/// at the dtype-derived accuracy bound.
fn check_noncontiguous<T: GemmScalar>() {
    for variant in Variant::ALL {
        let engine = FmmEngine::<T>::new(pinned_strassen(variant));
        let (m, k, n) = (24, 20, 16);
        // Parents are larger than the problem: every view has col_stride
        // larger than its row count, and B is additionally transposed
        // (row_stride != 1).
        let pa = fill::bench_workload_t::<T>(m + 7, k + 3, 11);
        let pb = fill::bench_workload_t::<T>(n + 5, k + 9, 12);
        let mut pc = Matrix::<T>::zeros(m + 4, n + 6);
        let a = pa.as_ref().submatrix(5, 2, m, k);
        let b = pb.as_ref().submatrix(3, 6, n, k).t();
        {
            let c = pc.as_mut().submatrix(4, 1, m, n);
            engine.multiply(c, a, b);
        }
        assert!(
            engine.decision_label(m, k, n).contains("<2,2,2>"),
            "the FMM route must actually be exercised"
        );

        let c_ref = fmm_gemm::reference::matmul(
            a.to_owned().cast::<f64>().as_ref(),
            b.to_owned().cast::<f64>().as_ref(),
        );
        let got = pc.as_ref().submatrix(4, 1, m, n).to_owned().cast::<f64>();
        let err = norms::rel_error(got.as_ref(), c_ref.as_ref());
        let bound = T::accuracy_bound(k, 1);
        assert!(err < bound, "{} {}: err={err} bound={bound}", T::NAME, variant.name());
        // The engine only wrote inside the target window.
        for j in 0..pc.cols() {
            for i in 0..pc.rows() {
                let outside_rows = i < 4 || i >= 4 + m;
                let outside_cols = j < 1 || j > n;
                if outside_rows || outside_cols {
                    assert_eq!(pc.get(i, j), T::ZERO, "stray write at ({i}, {j})");
                }
            }
        }
    }
}

#[test]
fn noncontiguous_views_through_fmm_route_f64() {
    check_noncontiguous::<f64>();
}

#[test]
fn noncontiguous_views_through_fmm_route_f32() {
    check_noncontiguous::<f32>();
}

/// The two dtype engines are fully independent: caches, counters, pools.
#[test]
fn dtype_engines_do_not_share_caches() {
    let e64 = FmmEngine::<f64>::new(tiny_config(Routing::Model));
    let e32 = FmmEngine::<f32>::new(tiny_config(Routing::Model));
    let a = fill::bench_workload(40, 24, 1);
    let b = fill::bench_workload(24, 32, 2);
    let mut c = Matrix::zeros(40, 32);
    e64.multiply(c.as_mut(), a.as_ref(), b.as_ref());
    assert_eq!(e64.stats().decision_misses, 1);
    assert_eq!(e32.stats().decision_misses, 0, "the f32 engine saw nothing");
    assert_eq!(e32.stats().executions, 0);
}
