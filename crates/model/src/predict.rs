//! Assembling Figure 5 into execution-time predictions (equations 1–4).

use crate::arch::ArchParams;
use crate::terms::{coeffs, Terms};
use crate::Impl;
use fmm_core::counts::{classical_flops, PlanCounts};

/// A model prediction for one implementation on one problem.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Arithmetic time `Ta` (seconds).
    pub arithmetic: f64,
    /// Memory time `Tm` (seconds).
    pub memory: f64,
    /// The margin a ranking charges a fast algorithm for the model's
    /// measured error (`(e^GUARD_BAND − 1)` × its Fig. 5 total); 0 for
    /// GEMM and for every prediction outside a ranking.
    pub guard: f64,
    /// `T = Ta + Tm + guard`.
    pub total: f64,
    /// Effective GFLOPS `2mnk / T / 1e9` (classical flops credited).
    pub effective_gflops: f64,
}

/// Seconds as integer nanoseconds, saturating at `u64::MAX` and clamping
/// non-finite / negative values to 0.
fn nanos(seconds: f64) -> u64 {
    let nanos = seconds * 1e9;
    if nanos.is_nan() || nanos <= 0.0 {
        0
    } else if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos as u64
    }
}

impl Prediction {
    pub(crate) fn from_times(arithmetic: f64, memory: f64, m: usize, k: usize, n: usize) -> Self {
        let total = arithmetic + memory;
        let effective_gflops = classical_flops(m, k, n) / total / 1e9;
        Self { arithmetic, memory, guard: 0.0, total, effective_gflops }
    }

    /// This prediction with a guard of `factor` × its Fig. 5 total added.
    pub(crate) fn guarded(self, factor: f64) -> Self {
        let guard = factor * self.fig5_total();
        let total = self.fig5_total() + guard;
        Self { guard, total, effective_gflops: self.effective_gflops / (1.0 + factor), ..self }
    }

    /// `Ta + Tm`: the total Fig. 5 predicts, without the guard.
    pub fn fig5_total(&self) -> f64 {
        self.arithmetic + self.memory
    }

    /// Predicted total as integer nanoseconds, the currency of the
    /// decision-audit layer (`fmm_obs::audit`). Saturates at `u64::MAX`
    /// and clamps non-finite / negative predictions to 0.
    pub fn total_nanos(&self) -> u64 {
        nanos(self.total)
    }

    /// [`Prediction::fig5_total`] as integer nanoseconds, clamped as
    /// [`Prediction::total_nanos`] is.
    pub fn fig5_nanos(&self) -> u64 {
        nanos(self.fig5_total())
    }
}

/// Predict plain blocked GEMM (Figure 5's "gemm" column).
pub fn predict_gemm(m: usize, k: usize, n: usize, arch: &ArchParams) -> Prediction {
    let t = Terms::gemm(m, k, n, arch);
    // Coefficients: one multiplication, one pass of A/B packing traffic,
    // one C read/write stream.
    let ta = t.tx_a;
    let tm = t.ta_x_m + t.tb_x_m + t.tc_x_m;
    Prediction::from_times(ta, tm, m, k, n)
}

/// Predict an L-level FMM implementation from its plan counts
/// (equations 2–4 with the Figure 5 tables).
pub fn predict_fmm(
    impl_: Impl,
    counts: &PlanCounts,
    m: usize,
    k: usize,
    n: usize,
    arch: &ArchParams,
) -> Prediction {
    if impl_ == Impl::Gemm {
        return predict_gemm(m, k, n, arch);
    }
    let t = Terms::fmm(counts, m, k, n, arch);
    let c = coeffs(impl_, counts);
    let ta = c.nx_a as f64 * t.tx_a
        + c.na_plus_a as f64 * t.ta_plus_a
        + c.nb_plus_a as f64 * t.tb_plus_a
        + c.nc_plus_a as f64 * t.tc_plus_a;
    let tm = c.na_x_m as f64 * t.ta_x_m
        + c.nb_x_m as f64 * t.tb_x_m
        + c.nc_x_m as f64 * t.tc_x_m
        + c.na_plus_m as f64 * t.ta_plus_m
        + c.nb_plus_m as f64 * t.tb_plus_m
        + c.nc_plus_m as f64 * t.tc_plus_m;
    Prediction::from_times(ta, tm, m, k, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::{registry, FmmPlan};

    fn arch() -> ArchParams {
        ArchParams::paper_machine()
    }

    fn strassen_counts() -> PlanCounts {
        PlanCounts::of(&FmmPlan::new(vec![registry::strassen()]))
    }

    #[test]
    fn gemm_asymptote_is_peak() {
        // For huge square problems, GEMM's predicted rate approaches peak.
        let p = predict_gemm(16000, 16000, 16000, &arch());
        assert!(p.effective_gflops > 0.93 * arch().peak_gflops());
        assert!(p.effective_gflops <= arch().peak_gflops());
    }

    #[test]
    fn strassen_beats_gemm_on_large_square() {
        // Square 12000^3 (paper Fig. 6-like regime): one-level ABC should
        // exceed GEMM (theoretical x8/7, practical somewhat less).
        let c = strassen_counts();
        let g = predict_gemm(12000, 12000, 12000, &arch());
        let s = predict_fmm(Impl::Abc, &c, 12000, 12000, 12000, &arch());
        assert!(
            s.effective_gflops > 1.05 * g.effective_gflops,
            "strassen {} vs gemm {}",
            s.effective_gflops,
            g.effective_gflops
        );
        assert!(s.effective_gflops < (8.0 / 7.0) * arch().peak_gflops());
    }

    #[test]
    fn abc_wins_rank_k_ab_wins_large_k() {
        // Paper §4.3: "for small k, ABC performs best; when k is large,
        // AB/Naive perform better".
        let c = strassen_counts();
        let small_k = (14400, 480, 14400);
        let abc_s = predict_fmm(Impl::Abc, &c, small_k.0, small_k.1, small_k.2, &arch());
        let ab_s = predict_fmm(Impl::Ab, &c, small_k.0, small_k.1, small_k.2, &arch());
        let nv_s = predict_fmm(Impl::Naive, &c, small_k.0, small_k.1, small_k.2, &arch());
        assert!(abc_s.total < ab_s.total, "ABC must win rank-k updates");
        assert!(abc_s.total < nv_s.total);

        let large_k = (14400, 12000, 14400);
        let abc_l = predict_fmm(Impl::Abc, &c, large_k.0, large_k.1, large_k.2, &arch());
        let ab_l = predict_fmm(Impl::Ab, &c, large_k.0, large_k.1, large_k.2, &arch());
        assert!(ab_l.total < abc_l.total, "AB must win for large k");
    }

    #[test]
    fn naive_beats_abc_for_large_nnz_algorithms_at_scale() {
        // Paper §4.3 bullet 1: for <3,6,3> — whose published decomposition
        // has very dense U/V (hundreds of non-zeros) — Naive outperforms
        // ABC/AB at large sizes, because AB/ABC re-read the operands
        // nnz-many times in packing while Naive reads them only R_L times.
        // Counts modeled on Smirnov's <3,6,3>: R = 40, dense coefficients.
        let counts = PlanCounts { r: 40, nnz_u: 310, nnz_v: 310, nnz_w: 310, mt: 3, kt: 6, nt: 3 };
        let (m, k, n) = (14400, 14400, 14400);
        let nv = predict_fmm(Impl::Naive, &counts, m, k, n, &arch());
        let abc = predict_fmm(Impl::Abc, &counts, m, k, n, &arch());
        let ab = predict_fmm(Impl::Ab, &counts, m, k, n, &arch());
        assert!(
            nv.total < abc.total && nv.total < ab.total,
            "naive {} should beat abc {} and ab {} for dense-coefficient algorithms",
            nv.total,
            abc.total,
            ab.total
        );
        // The mechanism: the gap must grow with nnz.
        let sparser = PlanCounts { nnz_u: 100, nnz_v: 100, ..counts };
        let nv2 = predict_fmm(Impl::Naive, &sparser, m, k, n, &arch());
        let abc2 = predict_fmm(Impl::Abc, &sparser, m, k, n, &arch());
        assert!(
            (abc.total - nv.total) > (abc2.total - nv2.total),
            "advantage of Naive must grow with operand nnz"
        );
    }

    #[test]
    fn prediction_components_sum() {
        let c = strassen_counts();
        let p = predict_fmm(Impl::Ab, &c, 4000, 2000, 3000, &arch());
        assert!((p.arithmetic + p.memory - p.total).abs() < 1e-15);
        assert!(p.arithmetic > 0.0 && p.memory > 0.0);
    }

    #[test]
    fn total_nanos_converts_and_saturates() {
        let p = predict_gemm(512, 512, 512, &arch());
        let nanos = p.total_nanos();
        assert!(nanos > 0);
        assert!((nanos as f64 - p.total * 1e9).abs() <= 1.0, "within 1ns of the float total");

        // Degenerate predictions must not wrap or panic.
        let zero = Prediction {
            arithmetic: 0.0,
            memory: 0.0,
            guard: 0.0,
            total: 0.0,
            effective_gflops: 0.0,
        };
        assert_eq!(zero.total_nanos(), 0);
        let neg = Prediction { total: -1.0, ..zero };
        assert_eq!(neg.total_nanos(), 0);
        let inf = Prediction { total: f64::INFINITY, ..zero };
        assert_eq!(inf.total_nanos(), u64::MAX);
        let nan = Prediction { total: f64::NAN, ..zero };
        assert_eq!(nan.total_nanos(), 0);
        let huge = Prediction { total: 1e30, ..zero };
        assert_eq!(huge.total_nanos(), u64::MAX);
    }

    #[test]
    fn two_level_strassen_faster_than_one_level_at_huge_sizes() {
        let one = strassen_counts();
        let two = PlanCounts::of(&FmmPlan::uniform(registry::strassen(), 2));
        let (m, k, n) = (14400, 14400, 14400);
        let p1 = predict_fmm(Impl::Abc, &one, m, k, n, &arch());
        let p2 = predict_fmm(Impl::Abc, &two, m, k, n, &arch());
        assert!(p2.total < p1.total, "two-level should win at 14400^3");
        // And the ordering flips at small sizes (the model's crossover sits
        // near a couple hundred; real machines cross later because of
        // fringe and cache effects the model deliberately omits, §4.4).
        let q1 = predict_fmm(Impl::Abc, &one, 200, 200, 200, &arch());
        let q2 = predict_fmm(Impl::Abc, &two, 200, 200, 200, &arch());
        assert!(q1.total < q2.total, "one-level should win at 200^3");
    }
}
