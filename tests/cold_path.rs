//! The cold path in counts: routing 192 distinct small shapes — what the
//! ledger's `small_mix` `setup_s` times — composes the plans those routes
//! name and nothing else, in particular none of the two-level candidates
//! every ranking considers. A regression here is a `setup_s` regression
//! (each two-level composition is milliseconds and megabytes), caught
//! without a timer.

use fmm::core::FmmPlan;
use fmm::gemm::GemmScalar;
use fmm::model::ArchParams;
use fmm::{EngineConfig, FmmEngine};
use std::collections::BTreeSet;
use std::sync::Arc;

fn route_small_shapes<T: GemmScalar>() {
    let engine = FmmEngine::<T>::new(EngineConfig {
        arch: ArchParams::paper_machine().into(),
        ..EngineConfig::default()
    });
    let mut routed = BTreeSet::new();
    for i in 0..192usize {
        let (m, k, n) = (8 + i, 8 + (i * 37) % 249, 8 + (i * 101) % 249);
        let label = engine.decision_label(m, k, n);
        if label != "GEMM" {
            let plan = label.split(' ').next().expect("split yields a first piece");
            routed.insert(plan.to_string());
        }
    }
    let stats = engine.stats();
    assert_eq!((stats.decision_misses, stats.rankings), (192, 192), "{}", T::NAME);

    let composed: Vec<Arc<FmmPlan>> =
        engine.candidate_plans().into_iter().filter(|p| p.is_composed()).collect();
    let described: BTreeSet<String> = composed.iter().map(|p| p.describe()).collect();
    assert_eq!(described, routed, "{}: composed plans are the routed plans", T::NAME);
    assert_eq!(stats.plan_compositions, routed.len() as u64, "{}", T::NAME);
    assert!(
        composed.iter().all(|p| p.num_levels() == 1),
        "{}: a two-level plan was composed for shapes below 257: {described:?}",
        T::NAME
    );
}

#[test]
fn cold_decisions_compose_no_unrouted_plan() {
    route_small_shapes::<f64>();
    route_small_shapes::<f32>();
}
