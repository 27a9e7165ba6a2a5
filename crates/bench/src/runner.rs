//! Measurement drivers: run a `(plan, variant)`, plain GEMM, or the
//! model-routed engine on a workload and report effective GFLOPS, with the
//! model prediction alongside (the paper's actual-vs-modeled pairs).
//!
//! FMM measurements execute through a per-measurement [`FmmEngine`] so the
//! timed region exercises the production path: pooled contexts, preplanned
//! arenas, and (for [`measure_engine`]) the decision cache.

use crate::timing;
use crate::workload::Workload;
use fmm_core::counts::PlanCounts;
use fmm_core::{FmmPlan, Strategy, Variant};
use fmm_engine::{EngineConfig, EngineStats, FmmEngine, Routing};
use fmm_gemm::{BlockingParams, DestTile, GemmWorkspace, IcLoop, Update};
use fmm_model::{predict_fmm, predict_gemm, ArchParams, Impl};

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// Effective GFLOPS measured.
    pub actual: f64,
    /// Effective GFLOPS the model predicts.
    pub modeled: f64,
}

fn engine_for(params: &BlockingParams, arch: &ArchParams, parallel: bool) -> FmmEngine {
    FmmEngine::new(EngineConfig {
        arch: (*arch).into(),
        params: *params,
        parallel,
        ..EngineConfig::default()
    })
}

/// Measure plain blocked GEMM on `(m, k, n)`.
pub fn measure_gemm(
    m: usize,
    k: usize,
    n: usize,
    params: &BlockingParams,
    arch: &ArchParams,
    reps: usize,
    parallel: bool,
) -> Measured {
    let mut w = Workload::new(m, k, n);
    let mut ws = GemmWorkspace::for_params(params);
    let secs = timing::time_min(reps, || {
        let ic_loop = if parallel { IcLoop::Parallel } else { IcLoop::Inline(&mut ws) };
        fmm_gemm::gemm_sums_with(
            &mut [DestTile::new(w.c.as_mut(), 1.0)],
            &[(1.0, w.a.as_ref())],
            &[(1.0, w.b.as_ref())],
            params,
            Update::Accumulate,
            ic_loop,
        );
    });
    Measured {
        actual: timing::gflops(m, k, n, secs),
        modeled: predict_gemm(m, k, n, arch).effective_gflops,
    }
}

/// Measure an FMM `(plan, variant)` on `(m, k, n)` through engine-pooled
/// contexts.
#[allow(clippy::too_many_arguments)]
pub fn measure_fmm(
    plan: &FmmPlan,
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
    params: &BlockingParams,
    arch: &ArchParams,
    reps: usize,
    parallel: bool,
) -> Measured {
    let mut w = Workload::new(m, k, n);
    let engine = engine_for(params, arch, parallel);
    let secs = timing::time_min(reps, || {
        engine.multiply_with_plan(w.c.as_mut(), w.a.as_ref(), w.b.as_ref(), plan, variant);
    });
    let counts = PlanCounts::of(plan);
    Measured {
        actual: timing::gflops(m, k, n, secs),
        modeled: predict_fmm(Impl::from_variant(variant), &counts, m, k, n, arch).effective_gflops,
    }
}

/// Measure the full model-routed engine path (the §4.4 poly-algorithm as a
/// service would run it). The decision is resolved and cached during
/// warmup, so the timed region is the engine's warm path. Returns the
/// measurement, the engine's decision label, and the cache statistics
/// accumulated across the run.
#[allow(clippy::too_many_arguments)]
pub fn measure_engine(
    m: usize,
    k: usize,
    n: usize,
    params: &BlockingParams,
    arch: &ArchParams,
    reps: usize,
    parallel: bool,
) -> (Measured, String, EngineStats) {
    let mut w = Workload::new(m, k, n);
    let engine = engine_for(params, arch, parallel);
    engine.prepare(m, k, n);
    let label = engine.decision_label(m, k, n);
    let secs = timing::time_min(reps, || {
        engine.multiply(w.c.as_mut(), w.a.as_ref(), w.b.as_ref());
    });
    // "Modeled" for the routed path is the best prediction over the exact
    // candidate set the engine ranked, served from its plan cache (no
    // recomposition and no possibility of the two pools diverging).
    let plans = engine.candidate_plans();
    let ranked = fmm_model::rank_candidates(m, k, n, &plans, &Impl::FMM_VARIANTS, arch, true);
    let measured = Measured {
        actual: timing::gflops(m, k, n, secs),
        modeled: ranked[0].prediction.effective_gflops,
    };
    (measured, label, engine.stats())
}

/// As [`measure_engine`] with a pinned `(dims, levels, variant)` route —
/// for ablations that want engine pooling with a known algorithm.
#[allow(clippy::too_many_arguments)]
pub fn measure_engine_pinned(
    dims: (usize, usize, usize),
    levels: usize,
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
    params: &BlockingParams,
    arch: &ArchParams,
    reps: usize,
) -> (Measured, EngineStats) {
    let mut w = Workload::new(m, k, n);
    let engine = FmmEngine::new(EngineConfig {
        arch: (*arch).into(),
        params: *params,
        routing: Routing::Pinned { dims, levels, variant, strategy: Strategy::Dfs },
        ..EngineConfig::default()
    });
    engine.prepare(m, k, n);
    let secs = timing::time_min(reps, || {
        engine.multiply(w.c.as_mut(), w.a.as_ref(), w.b.as_ref());
    });
    let algo = engine.registry().get(dims).expect("pinned dims exist");
    let plan = FmmPlan::from_arcs(vec![algo; levels]);
    let counts = PlanCounts::of(&plan);
    let measured = Measured {
        actual: timing::gflops(m, k, n, secs),
        modeled: predict_fmm(Impl::from_variant(variant), &counts, m, k, n, arch).effective_gflops,
    };
    (measured, engine.stats())
}

/// Calibrate architecture parameters once for a harness run (quick probe).
pub fn calibrated_arch(params: &BlockingParams, scale: f64) -> ArchParams {
    fmm_model::calibrate::calibrate(params, scale.clamp(0.05, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::registry;

    #[test]
    fn measure_gemm_produces_positive_rates() {
        let params = BlockingParams::default();
        let arch = ArchParams::paper_machine();
        let m = measure_gemm(128, 96, 128, &params, &arch, 1, false);
        assert!(m.actual > 0.0);
        assert!(m.modeled > 0.0);
    }

    #[test]
    fn measure_fmm_produces_positive_rates() {
        let params = BlockingParams::default();
        let arch = ArchParams::paper_machine();
        let plan = FmmPlan::new(vec![registry::strassen()]);
        let m = measure_fmm(&plan, Variant::Abc, 128, 96, 128, &params, &arch, 1, false);
        assert!(m.actual > 0.0);
        assert!(m.modeled > 0.0);
    }

    #[test]
    fn measure_engine_reports_label_and_warm_stats() {
        let params = BlockingParams::default();
        let arch = ArchParams::paper_machine();
        let (m, label, stats) = measure_engine(96, 64, 96, &params, &arch, 2, false);
        assert!(m.actual > 0.0);
        assert!(!label.is_empty());
        assert_eq!(stats.rankings, 1, "decision resolved once, during warmup");
    }

    #[test]
    fn measure_engine_pinned_runs_requested_route() {
        let params = BlockingParams::default();
        let arch = ArchParams::paper_machine();
        let ((measured, stats), _) =
            (measure_engine_pinned((2, 2, 2), 1, Variant::Abc, 64, 64, 64, &params, &arch, 2), ());
        assert!(measured.actual > 0.0);
        assert!(measured.modeled > 0.0);
        assert_eq!(stats.plan_compositions, 1);
        assert_eq!(stats.arena_grows, 0, "ABC needs no arena");
    }
}
