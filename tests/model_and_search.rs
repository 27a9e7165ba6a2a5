//! Cross-crate integration of the performance model and the search
//! pipeline with the core library.

use fmm_core::counts::PlanCounts;
use fmm_core::prelude::*;
use fmm_core::registry::Registry;
use fmm_model::{predict_fmm, predict_gemm, ArchParams, Impl};
use std::sync::Arc;

#[test]
fn model_predictions_are_finite_and_positive_for_all_registry_plans() {
    let reg = Registry::shared();
    let arch = ArchParams::paper_machine();
    for (_, algo) in reg.paper_rows() {
        for levels in 1..=2usize {
            let plan = FmmPlan::from_arcs(vec![algo.clone(); levels]);
            let counts = PlanCounts::of(&plan);
            for impl_ in Impl::FMM_VARIANTS {
                for (m, k, n) in [(1440, 480, 1440), (2880, 2880, 2880), (144, 1024, 144)] {
                    let p = predict_fmm(impl_, &counts, m, k, n, &arch);
                    assert!(p.total.is_finite() && p.total > 0.0);
                    assert!(p.effective_gflops > 0.0);
                    assert!(
                        p.effective_gflops < 4.0 * arch.peak_gflops(),
                        "{} {} {levels}L at {m}x{k}x{n}: absurd rate {}",
                        algo.name(),
                        impl_.name(),
                        p.effective_gflops
                    );
                }
            }
        }
    }
}

#[test]
fn model_credits_fmm_above_peak_only_for_fast_algorithms() {
    // Effective GFLOPS above machine peak is the signature of genuine
    // multiplication savings — classical algorithms can never exceed peak.
    let arch = ArchParams::paper_machine();
    let classical = fmm_core::compose::classical(2, 2, 2);
    let plan = FmmPlan::new(vec![classical]);
    let counts = PlanCounts::of(&plan);
    let p = predict_fmm(Impl::Abc, &counts, 14400, 14400, 14400, &arch);
    assert!(p.effective_gflops <= arch.peak_gflops() * 1.0001);

    let strassen_plan = FmmPlan::new(vec![fmm_core::registry::strassen()]);
    let s = predict_fmm(Impl::Abc, &PlanCounts::of(&strassen_plan), 14400, 14400, 14400, &arch);
    assert!(s.effective_gflops > arch.peak_gflops(), "Strassen must beat peak at scale");
}

#[test]
fn selection_is_consistent_with_pairwise_predictions() {
    let reg = Registry::shared();
    let arch = ArchParams::paper_machine();
    let plans: Vec<Arc<FmmPlan>> =
        reg.paper_rows().into_iter().map(|(_, a)| Arc::new(FmmPlan::from_arcs(vec![a]))).collect();
    let ranked =
        fmm_model::rank_candidates(2880, 480, 2880, &plans, &Impl::FMM_VARIANTS, &arch, true);
    // The reported ranking must equal sorting by the prediction totals.
    for pair in ranked.windows(2) {
        assert!(pair[0].prediction.total <= pair[1].prediction.total);
    }
    // And GEMM must be somewhere in the list exactly once.
    assert_eq!(ranked.iter().filter(|c| c.impl_ == Impl::Gemm).count(), 1);
}

#[test]
fn calibration_fit_roundtrips_through_the_gemm_model() {
    use fmm_gemm::BlockingParams;
    let params = BlockingParams::default();
    let truth = ArchParams { lambda: 0.66, ..ArchParams::paper_machine() };
    let shape = (4000, 256, 4000);
    let meas = fmm_model::calibrate::Measurements {
        compute_gflops: truth.peak_gflops(),
        bandwidth_gbs: 8.0 / truth.tau_b / 1e9,
        reference_gemm: (
            shape.0,
            shape.1,
            shape.2,
            predict_gemm(shape.0, shape.1, shape.2, &truth).total,
        ),
    };
    let fitted = fmm_model::calibrate::fit(&meas, &params);
    let err = (predict_gemm(shape.0, shape.1, shape.2, &fitted).total
        - predict_gemm(shape.0, shape.1, shape.2, &truth).total)
        .abs();
    assert!(err < 1e-4 * predict_gemm(shape.0, shape.1, shape.2, &truth).total);
}

#[test]
fn search_repair_recovers_every_paper_algorithm_from_uv() {
    // For each registry algorithm: discard W entirely, re-solve it exactly
    // from (U, V), and verify the result. Demonstrates the exact linear
    // repair path on every coefficient structure we ship.
    let reg = Registry::shared();
    for (entry, algo) in reg.paper_rows() {
        let broken = fmm_core::FmmAlgorithm::new_unchecked(
            "wiped",
            algo.dims(),
            algo.u().clone(),
            algo.v().clone(),
            fmm_core::CoeffMatrix::zeros(algo.w().rows(), algo.w().cols()),
        );
        let repaired = fmm_search::repair::repair_w_default(&broken)
            .unwrap_or_else(|| panic!("repair failed for {:?}", entry.dims));
        assert_eq!(repaired.rank(), algo.rank());
        assert_eq!(repaired.dims(), algo.dims());
    }
}

#[test]
fn discovered_algorithm_roundtrips_into_a_working_plan() {
    // Discover (rank 8 is fast and deterministic enough), then execute the
    // discovered algorithm on a real multiplication.
    let algo = fmm_search::search(&fmm_search::SearchConfig {
        dims: (2, 2, 2),
        rank: 8,
        budget: std::time::Duration::from_secs(90), // debug builds are ~20x slower
        seed: 0xA11EA1,
    })
    .algorithm
    .expect("rank 8 is easy");
    let plan = FmmPlan::new(vec![algo]);
    let a = fmm_dense::fill::bench_workload(20, 18, 1);
    let b = fmm_dense::fill::bench_workload(18, 22, 2);
    let mut c = fmm_dense::Matrix::zeros(20, 22);
    let mut ctx = FmmContext::with_defaults();
    fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(fmm_dense::norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-10);
}
