//! Model-guided implementation selection (paper §4.4).
//!
//! Given a problem size and a set of candidate `(plan, variant)` pairs, the
//! model ranks all candidates by predicted time. The paper's protocol takes
//! the *top two* predictions and measures both in practice (fringe effects
//! are not modeled), keeping the faster — the first two entries of
//! [`rank_candidates`] are that pair.

use crate::arch::ArchParams;
use crate::parallel::rank_scheduled;
use crate::predict::Prediction;
use crate::Impl;
use fmm_core::FmmPlan;
use std::sync::Arc;

/// One ranked candidate implementation.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The plan (`None` encodes plain GEMM).
    pub plan: Option<Arc<FmmPlan>>,
    /// Which implementation strategy.
    pub impl_: Impl,
    /// Model prediction for the problem the ranking was computed for.
    pub prediction: Prediction,
}

impl Candidate {
    /// Short display string, e.g. `"<2,2,2>+<3,3,3> ABC"`.
    pub fn describe(&self) -> String {
        match &self.plan {
            Some(p) => format!("{} {}", p.describe(), self.impl_.name()),
            None => "GEMM".to_string(),
        }
    }
}

/// Rank every `(plan, variant)` pair (plus plain GEMM) by predicted total
/// time, fastest first: [`rank_scheduled`] at one worker, where every
/// candidate is depth-first and predicts what the sequential model does,
/// bit for bit.
pub fn rank_candidates(
    m: usize,
    k: usize,
    n: usize,
    plans: &[Arc<FmmPlan>],
    variants: &[Impl],
    arch: &ArchParams,
    include_gemm: bool,
) -> Vec<Candidate> {
    rank_scheduled(m, k, n, plans, variants, arch, 1, include_gemm)
        .into_iter()
        .map(|c| Candidate { plan: c.plan, impl_: c.impl_, prediction: c.prediction })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::registry;

    fn plans() -> Vec<Arc<FmmPlan>> {
        let s = registry::strassen();
        vec![Arc::new(FmmPlan::new(vec![s.clone()])), Arc::new(FmmPlan::uniform(s, 2))]
    }

    #[test]
    fn ranking_is_sorted_by_time() {
        let arch = ArchParams::paper_machine();
        let ranked = rank_candidates(8000, 8000, 8000, &plans(), &Impl::FMM_VARIANTS, &arch, true);
        assert_eq!(ranked.len(), 7); // GEMM + 2 plans x 3 variants
        for pair in ranked.windows(2) {
            assert!(pair[0].prediction.total <= pair[1].prediction.total);
        }
    }

    #[test]
    fn rank_k_update_selects_abc_with_one_level_in_top_two() {
        // The paper's headline claim: for rank-k updates, ABC is the right
        // variant. The model ranks the two ABC plans first; the §4.4
        // protocol then measures both (fringe and cache effects, which the
        // model omits, decide between one- and two-level in practice).
        let arch = ArchParams::paper_machine();
        let ranked =
            rank_candidates(14400, 480, 14400, &plans(), &Impl::FMM_VARIANTS, &arch, false);
        let (best, second) = (&ranked[0], ranked.get(1).expect("two candidates available"));
        assert_eq!(best.impl_, Impl::Abc, "best = {}", best.describe());
        assert_eq!(second.impl_, Impl::Abc, "second = {}", second.describe());
        let levels: Vec<usize> =
            [best, second].iter().map(|c| c.plan.as_ref().unwrap().num_levels()).collect();
        assert!(levels.contains(&1), "one-level plan must reach the measured top-2");
    }

    #[test]
    fn huge_square_prefers_two_level() {
        let arch = ArchParams::paper_machine();
        let ranked =
            rank_candidates(14400, 14400, 14400, &plans(), &Impl::FMM_VARIANTS, &arch, false);
        assert_eq!(ranked[0].plan.as_ref().unwrap().num_levels(), 2);
    }

    #[test]
    fn gemm_wins_tiny_and_skinny_problems() {
        let arch = ArchParams::paper_machine();
        // Tiny cube: additions/packing overhead swamps the 1/8 saving.
        let ranked = rank_candidates(96, 96, 96, &plans(), &Impl::FMM_VARIANTS, &arch, true);
        assert_eq!(ranked[0].impl_, Impl::Gemm, "best = {}", ranked[0].describe());
        // Extremely skinny panel-panel product: bandwidth-bound, FMM's extra
        // operand traffic cannot pay for itself.
        let ranked = rank_candidates(64, 20000, 64, &plans(), &Impl::FMM_VARIANTS, &arch, true);
        assert_eq!(ranked[0].impl_, Impl::Gemm, "best = {}", ranked[0].describe());
    }

    #[test]
    fn describe_names_plan_and_variant() {
        let arch = ArchParams::paper_machine();
        let ranked = rank_candidates(4000, 4000, 4000, &plans(), &Impl::FMM_VARIANTS, &arch, false);
        assert!(ranked[0].describe().contains("<2,2,2>"));
        assert!(ranked.get(1).is_some());
    }
}
