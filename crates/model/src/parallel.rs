//! Parallel execution-time prediction and `(variant, strategy)` ranking.
//!
//! The paper's model (§4.2) is sequential: `T = Ta + Tm`. Following Benson
//! & Ballard's analysis of parallel fast matrix multiplication (PPoPP
//! 2015), a schedule over `p` workers divides only the *arithmetic* term —
//! memory bandwidth is shared — and only as evenly as its task grain
//! allows:
//!
//! `T_par ≈ Ta · ⌈tasks/p⌉/tasks + Tm`
//!
//! where `tasks` is what the strategy fans out: the `⌈m_block/m_c⌉`
//! micro-panel row blocks of one product for DFS (the paper's loop-3 data
//! parallelism), the `R_L` submultiplications for BFS, and the `R_1`
//! level-1 products for hybrid. The quantization factor is the whole
//! story of why BFS wins small problems: a 256³ Strassen block product has
//! only ⌈128/96⌉ = 2 data-parallel row blocks — two workers saturate it —
//! while BFS has `R_L = 7` tasks to spread.
//!
//! Strategy changes the cost basis too: a BFS task must materialize `M_r`
//! (the ABC variant degrades to AB's memory profile), and a hybrid task
//! materializes level-1 operand sums (Naive's profile).
//!
//! One worker is the sequential model: every quantization factor is 1, so
//! DFS predicts exactly what [`predict_fmm`] does, and [`rank_scheduled`]
//! is the one ranker for every engine — [`crate::rank_candidates`] is its
//! one-worker case.

use crate::arch::ArchParams;
use crate::predict::{predict_fmm, predict_gemm, Prediction};
use crate::Impl;
use fmm_core::counts::PlanCounts;
use fmm_core::tasks::Strategy;
use fmm_core::FmmPlan;
use std::sync::Arc;

/// `⌈units/workers⌉ / units`: the fraction of the arithmetic the critical
/// worker executes when `units` equal tasks are dealt to `workers`.
fn chunked(units: usize, workers: usize) -> f64 {
    let units = units.max(1);
    let workers = workers.max(1);
    units.div_ceil(workers) as f64 / units as f64
}

/// Predict `plan` as `impl_`, executed as `strategy` over `workers`
/// workers. With `workers == 1` and [`Strategy::Dfs`] this is
/// [`predict_fmm`] bit for bit (and [`predict_gemm`] for [`Impl::Gemm`]).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn predict_scheduled(
    impl_: Impl,
    plan: &FmmPlan,
    m: usize,
    k: usize,
    n: usize,
    arch: &ArchParams,
    workers: usize,
    strategy: Strategy,
) -> Prediction {
    if impl_ == Impl::Gemm {
        return predict_gemm_parallel(m, k, n, arch, workers);
    }
    let counts = PlanCounts::of(plan);
    let (basis, units) = match strategy {
        // Data parallelism inside each product: the ic loop over the
        // block problem's rows.
        Strategy::Dfs => (impl_, (m / counts.mt).div_ceil(arch.mc)),
        // Task per submultiplication; M_r must be materialized, so ABC
        // pays AB's memory profile.
        Strategy::Bfs => {
            let basis = if impl_ == Impl::Abc { Impl::Ab } else { impl_ };
            (basis, counts.r)
        }
        // Task per level-1 product with explicit level-1 operand sums:
        // Naive's memory profile, `R_1` tasks.
        Strategy::Hybrid => (Impl::Naive, plan.first_level().rank()),
    };
    let seq = predict_fmm(basis, &counts, m, k, n, arch);
    Prediction::from_times(seq.arithmetic * chunked(units, workers), seq.memory, m, k, n)
}

/// Predict plain blocked GEMM with the `ic` loop parallelized over
/// `workers` (the engine's non-FMM execution path).
pub fn predict_gemm_parallel(
    m: usize,
    k: usize,
    n: usize,
    arch: &ArchParams,
    workers: usize,
) -> Prediction {
    let seq = predict_gemm(m, k, n, arch);
    let units = m.div_ceil(arch.mc);
    Prediction::from_times(seq.arithmetic * chunked(units, workers), seq.memory, m, k, n)
}

/// One ranked `(plan, variant, strategy)` candidate.
#[derive(Clone, Debug)]
pub struct ScheduledCandidate {
    /// The plan (`None` encodes plain GEMM).
    pub plan: Option<Arc<FmmPlan>>,
    /// Which implementation strategy.
    pub impl_: Impl,
    /// Which schedule.
    pub strategy: Strategy,
    /// Model prediction for the ranked problem over the ranked workers.
    pub prediction: Prediction,
}

impl ScheduledCandidate {
    /// Short display string, e.g. `"<2,2,2>+<2,2,2> ABC BFS"`.
    pub fn describe(&self) -> String {
        match &self.plan {
            Some(p) => format!("{} {} {}", p.describe(), self.impl_.name(), self.strategy.name()),
            None => "GEMM".to_string(),
        }
    }
}

/// Rank every `(plan, variant, strategy)` triple (plus parallel GEMM) by
/// predicted total time over `workers` workers, fastest first. The sort is
/// stable and DFS candidates are generated first, so exact ties resolve to
/// the simplest schedule. Hybrid candidates are skipped for one-level
/// plans (the scheduler delegates them to BFS, so ranking them separately
/// would be noise).
///
/// At one worker only DFS candidates are generated. Every quantization
/// factor is then 1, BFS-ABC costs AB's profile and hybrid Naive's, so
/// each BFS or hybrid candidate ties or loses to a DFS twin generated
/// before it and could never be picked.
#[allow(clippy::too_many_arguments)]
pub fn rank_scheduled(
    m: usize,
    k: usize,
    n: usize,
    plans: &[Arc<FmmPlan>],
    variants: &[Impl],
    arch: &ArchParams,
    workers: usize,
    include_gemm: bool,
) -> Vec<ScheduledCandidate> {
    let strategies: &[Strategy] = if workers <= 1 { &[Strategy::Dfs] } else { &Strategy::ALL };
    let mut out = Vec::with_capacity(1 + plans.len() * variants.len() * strategies.len());
    if include_gemm {
        out.push(ScheduledCandidate {
            plan: None,
            impl_: Impl::Gemm,
            strategy: Strategy::Dfs,
            prediction: predict_gemm_parallel(m, k, n, arch, workers),
        });
    }
    for plan in plans {
        for &v in variants {
            if v == Impl::Gemm {
                continue;
            }
            for &strategy in strategies {
                if strategy == Strategy::Hybrid && plan.num_levels() == 1 {
                    continue;
                }
                out.push(ScheduledCandidate {
                    plan: Some(plan.clone()),
                    impl_: v,
                    strategy,
                    prediction: predict_scheduled(v, plan, m, k, n, arch, workers, strategy),
                });
            }
        }
    }
    out.sort_by(|a, b| {
        a.prediction.total.partial_cmp(&b.prediction.total).expect("predictions are finite")
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::{registry, FmmPlan};

    fn arch() -> ArchParams {
        ArchParams::paper_machine()
    }

    fn plans() -> Vec<Arc<FmmPlan>> {
        let s = registry::strassen();
        vec![Arc::new(FmmPlan::new(vec![s.clone()])), Arc::new(FmmPlan::uniform(s, 2))]
    }

    #[test]
    fn one_worker_dfs_reduces_to_sequential_model() {
        // Bit for bit: `rank_candidates` is `rank_scheduled` at one worker,
        // so the sequential ranking must not move by a single ulp.
        let bits =
            |p: Prediction| [p.arithmetic, p.memory, p.total, p.effective_gflops].map(f64::to_bits);
        for plan in plans() {
            let counts = PlanCounts::of(&plan);
            for (m, k, n) in [(1024, 1024, 1024), (17, 480, 2048), (14400, 96, 7)] {
                for impl_ in Impl::FMM_VARIANTS {
                    let seq = predict_fmm(impl_, &counts, m, k, n, &arch());
                    let par = predict_scheduled(impl_, &plan, m, k, n, &arch(), 1, Strategy::Dfs);
                    assert_eq!(bits(seq), bits(par), "{} {m}x{k}x{n}", impl_.name());
                }
                let gemm = predict_gemm_parallel(m, k, n, &arch(), 1);
                assert_eq!(bits(predict_gemm(m, k, n, &arch())), bits(gemm), "GEMM {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn single_worker_ranking_prefers_dfs() {
        // With one worker no strategy can win on time, and BFS/hybrid pay
        // materialization, so only DFS candidates are generated.
        let ranked =
            rank_scheduled(2048, 2048, 2048, &plans(), &Impl::FMM_VARIANTS, &arch(), 1, false);
        assert_eq!(ranked[0].strategy, Strategy::Dfs, "best = {}", ranked[0].describe());
        assert_eq!(ranked.len(), 2 * 3, "two plans x three variants, DFS only");
    }

    #[test]
    fn bfs_beats_dfs_for_small_problems_with_many_workers() {
        // The Benson–Ballard regime: at 256³ one Strassen block product
        // has ⌈128/96⌉ = 2 data-parallel row blocks, so DFS cannot use
        // more than two of eight workers; BFS spreads R = 7 tasks.
        let plan = Arc::new(FmmPlan::new(vec![registry::strassen()]));
        let dfs = predict_scheduled(Impl::Abc, &plan, 256, 256, 256, &arch(), 8, Strategy::Dfs);
        let bfs = predict_scheduled(Impl::Abc, &plan, 256, 256, 256, &arch(), 8, Strategy::Bfs);
        assert!(
            bfs.total < dfs.total,
            "BFS {} must beat DFS {} at 256^3 with 8 workers",
            bfs.total,
            dfs.total
        );
        // And the full ranking agrees: the best candidate is task-parallel.
        let ranked = rank_scheduled(256, 256, 256, &plans(), &Impl::FMM_VARIANTS, &arch(), 8, true);
        assert_ne!(ranked[0].strategy, Strategy::Dfs, "best = {}", ranked[0].describe());
    }

    #[test]
    fn dfs_recovers_for_large_rank_k_problems() {
        // The paper's headline rank-k shape at scale: a block product has
        // plenty of data-parallel row blocks (⌈7200/96⌉ = 75), so the DFS
        // quantization penalty vanishes, and BFS still forces ABC into
        // AB's memory profile — which loses badly at small k. DFS wins.
        let plan = Arc::new(FmmPlan::new(vec![registry::strassen()]));
        let (m, k, n) = (14400, 480, 14400);
        let dfs = predict_scheduled(Impl::Abc, &plan, m, k, n, &arch(), 8, Strategy::Dfs);
        let bfs = predict_scheduled(Impl::Abc, &plan, m, k, n, &arch(), 8, Strategy::Bfs);
        assert!(dfs.total < bfs.total, "DFS {} vs BFS {}", dfs.total, bfs.total);
    }

    #[test]
    fn hybrid_fans_out_level1_tasks_only() {
        // For a two-level plan, hybrid's grain is R_1 = 7, so its
        // arithmetic stops improving past 7 workers while BFS (R_L = 49)
        // keeps scaling.
        let plan = Arc::new(FmmPlan::uniform(registry::strassen(), 2));
        let h7 = predict_scheduled(Impl::Ab, &plan, 1024, 1024, 1024, &arch(), 7, Strategy::Hybrid);
        let h49 =
            predict_scheduled(Impl::Ab, &plan, 1024, 1024, 1024, &arch(), 49, Strategy::Hybrid);
        assert!((h7.arithmetic - h49.arithmetic).abs() < 1e-15, "hybrid saturates at R_1 workers");
        let b49 = predict_scheduled(Impl::Ab, &plan, 1024, 1024, 1024, &arch(), 49, Strategy::Bfs);
        assert!(b49.arithmetic < h49.arithmetic, "BFS keeps scaling past R_1");
    }

    #[test]
    fn gemm_parallel_prediction_scales_and_saturates() {
        let a = arch();
        let seq = predict_gemm_parallel(4800, 4800, 4800, &a, 1);
        let par = predict_gemm_parallel(4800, 4800, 4800, &a, 8);
        assert!(par.total < seq.total);
        assert!(par.arithmetic >= seq.arithmetic / 8.0 - 1e-15, "no superlinear speedup");
        // Fewer row blocks than workers -> extra workers do nothing.
        let tiny96 = predict_gemm_parallel(96, 4096, 96, &a, 1);
        let tiny96_par = predict_gemm_parallel(96, 4096, 96, &a, 16);
        assert!((tiny96.total - tiny96_par.total).abs() < 1e-15);
    }

    #[test]
    fn ranking_is_sorted_and_skips_hybrid_for_one_level() {
        let ranked =
            rank_scheduled(1024, 1024, 1024, &plans(), &Impl::FMM_VARIANTS, &arch(), 4, true);
        // GEMM + one-level (3 variants x 2 strategies) + two-level (3 x 3).
        assert_eq!(ranked.len(), 1 + 6 + 9);
        for pair in ranked.windows(2) {
            assert!(pair[0].prediction.total <= pair[1].prediction.total);
        }
        assert!(ranked
            .iter()
            .all(|c| c.strategy != Strategy::Hybrid || c.plan.as_ref().unwrap().num_levels() > 1));
    }
}
