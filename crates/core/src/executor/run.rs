//! The loops every FMM execution runs: the `R_L` product loop, shared by
//! all three variants, its product step, and the rim loop.
//!
//! For each product `r` (paper eq. (5)) the loop gathers the operand terms
//! `ΣuᵢAᵢ`, `ΣvⱼBⱼ`, then, by variant:
//!
//! * **ABC** — one GEMM whose packing folds in the sums and whose
//!   micro-kernel epilogue adds `M_r` into every `C_p` with coefficient
//!   `W[p, r]`. `M_r` never exists in memory (paper Fig. 1, right).
//! * **AB** — [`form_product`] writes `M_r` into the arena, with the sums
//!   folded into packing, and [`DestBlocks::merge`] adds it to each `C_p`.
//!   This trades `C`-side traffic (`3·nnz(⊗W)` buffer touches in the
//!   paper's model) for touching each `C_p` once per non-zero, which wins
//!   for large `k`.
//! * **Naive** — as AB, but [`form_product`] first materializes
//!   `T_A = ΣuᵢAᵢ` and `T_B = ΣvⱼBⱼ`, then runs a plain GEMM: the
//!   structure of Benson–Ballard's reference implementations, paying the
//!   `T^{A+}_m`, `T^{B+}_m`, `T^{C+}_m` traffic the model charges.
//!
//! Warm-path allocation contract: `fmm-check: contract(warm-alloc-free)`
//! (see README § Static analysis). The temporaries live in the preplanned
//! arena; ABC's destination-tile list is the one allowed exception,
//! justified inline.

// fmm-check: contract(warm-alloc-free)

use super::common::{gather_terms, DestBlocks, OperandBlocks};
use super::{ArenaViews, Variant};
use crate::peeling::RimCall;
use crate::plan::FmmPlan;
use fmm_dense::{ops, MatMut, MatRef};
use fmm_gemm::{gemm_sums_with, BlockingParams, DestTile, GemmScalar, IcLoop, Update};

/// The product step: `M_r = (ΣuᵢAᵢ)(ΣvⱼBⱼ)` into `views.mr`, overwriting
/// it. Naive materializes `T_A`/`T_B` in `views` first; AB and ABC fold
/// the sums into packing. The depth-first loop and every BFS task run it.
pub fn form_product<T: GemmScalar>(
    views: ArenaViews<'_, T>,
    variant: Variant,
    a_terms: &[(T, MatRef<'_, T>)],
    b_terms: &[(T, MatRef<'_, T>)],
    params: &BlockingParams,
    ic_loop: IcLoop<'_, T>,
) {
    let ArenaViews { mut ta, mut tb, mr } = views;
    let mr = &mut [DestTile::new(mr, T::ONE)];
    match variant {
        Variant::Naive => {
            ops::linear_combination(ta.reborrow(), a_terms).expect("A block shapes agree");
            ops::linear_combination(tb.reborrow(), b_terms).expect("B block shapes agree");
            let (ta, tb) = (&[(T::ONE, ta.as_ref())], &[(T::ONE, tb.as_ref())]);
            gemm_sums_with(mr, ta, tb, params, Update::Overwrite, ic_loop);
        }
        Variant::Ab | Variant::Abc => {
            gemm_sums_with(mr, a_terms, b_terms, params, Update::Overwrite, ic_loop);
        }
    }
}

/// `C += A·B` on a core whose dimensions the plan's partition dims divide:
/// the `R_L` products in order, depth-first, each as `variant` says.
#[allow(clippy::too_many_arguments)]
pub(super) fn run_products<T: GemmScalar>(
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    plan: &FmmPlan,
    variant: Variant,
    mut views: ArenaViews<'_, T>,
    params: &BlockingParams,
    mut ic_loop: IcLoop<'_, T>,
) {
    let a_blocks = OperandBlocks::new(a, plan.a_grid());
    let b_blocks = OperandBlocks::new(b, plan.b_grid());
    let c_blocks = DestBlocks::new(c, plan.c_grid());
    for r in 0..plan.rank() {
        let a_terms = gather_terms(plan.u(), r, &a_blocks);
        let b_terms = gather_terms(plan.v(), r, &b_blocks);
        match variant {
            Variant::Abc => {
                let mut dests: Vec<DestTile<'_, T>> = plan
                    .w()
                    .col_nonzeros(r)
                    // SAFETY: `col_nonzeros` yields strictly increasing
                    // distinct block indices, and distinct blocks are
                    // disjoint regions of C.
                    .map(|(p, w)| DestTile::new(unsafe { c_blocks.get(p) }, T::from_f64(w)))
                    // fmm-check: allow(deny-alloc, reason = "per-product tile list bounded by plan nnz(W); fixed-capacity candidate if profiled hot")
                    .collect();
                let ic_loop = ic_loop.reborrow();
                gemm_sums_with(&mut dests, &a_terms, &b_terms, params, Update::Accumulate, ic_loop);
            }
            Variant::Naive | Variant::Ab => {
                form_product(
                    views.reborrow(),
                    variant,
                    &a_terms,
                    &b_terms,
                    params,
                    ic_loop.reborrow(),
                );
                for (p, w) in plan.w().col_nonzeros(r) {
                    // SAFETY: one destination view alive at a time.
                    unsafe { c_blocks.merge(p, w, views.mr.as_ref()) };
                }
            }
        }
    }
}

/// `C += A·B` over the rims dynamic peeling leaves around the core
/// ([`crate::peeling`], paper §4.1), one GEMM per rim.
pub fn run_rims<T: GemmScalar>(
    mut c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    rims: &[RimCall],
    params: &BlockingParams,
    mut ic_loop: IcLoop<'_, T>,
) {
    for rim in rims {
        let a_rim = a.submatrix(rim.rows.start, rim.inner.start, rim.rows.len(), rim.inner.len());
        let b_rim = b.submatrix(rim.inner.start, rim.cols.start, rim.inner.len(), rim.cols.len());
        let c_rim =
            c.reborrow().submatrix(rim.rows.start, rim.cols.start, rim.rows.len(), rim.cols.len());
        gemm_sums_with(
            &mut [DestTile::new(c_rim, T::ONE)],
            &[(T::ONE, a_rim)],
            &[(T::ONE, b_rim)],
            params,
            Update::Accumulate,
            ic_loop.reborrow(),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::executor::{fmm_execute, FmmContext, Variant};
    use crate::plan::FmmPlan;
    use crate::registry::{strassen, winograd};
    use fmm_dense::{fill, norms, Matrix, Scalar};
    use fmm_gemm::BlockingParams;

    #[test]
    fn naive_matches_reference_and_allocates_all_temporaries() {
        let plan = FmmPlan::new(vec![strassen()]);
        let (m, k, n) = (12, 16, 20);
        let a = fill::bench_workload(m, k, 1);
        let b = fill::bench_workload(k, n, 2);
        let mut c = Matrix::zeros(m, n);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Naive, &mut ctx);
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-11);
        let layout = ctx.last_layout().expect("core executed");
        assert_eq!(layout.ta, (6, 8), "T_A has block shape m/2 x k/2");
        assert_eq!(layout.tb, (8, 10));
        assert_eq!(layout.mr, (6, 10));
        assert_eq!(ctx.fmm_workspace_elements(), 6 * 8 + 8 * 10 + 6 * 10);
    }

    #[test]
    fn naive_three_level() {
        let plan = FmmPlan::uniform(strassen(), 3);
        let a = fill::bench_workload(24, 24, 5);
        let b = fill::bench_workload(24, 24, 6);
        let mut c = Matrix::zeros(24, 24);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Naive, &mut ctx);
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        let tol = f64::accuracy_bound(24, 3);
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < tol);
    }

    #[test]
    fn ab_matches_reference_and_reuses_mr_buffer() {
        let plan = FmmPlan::new(vec![strassen()]);
        let a = fill::bench_workload(16, 16, 1);
        let b = fill::bench_workload(16, 16, 2);
        let mut c = Matrix::zeros(16, 16);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Ab, &mut ctx);
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-11);
        // The M_r temporary exists (unlike ABC) and has block shape; the
        // operand-sum temporaries do not (unlike Naive).
        let layout = *ctx.last_layout().expect("core executed");
        assert_eq!(layout.mr, (8, 8));
        assert_eq!(layout.ta, (0, 0));
        assert_eq!(layout.tb, (0, 0));
        assert_eq!(ctx.fmm_workspace_elements(), 8 * 8);
    }

    #[test]
    fn ab_two_level_hybrid() {
        let c223 = crate::compose::stack_n(&strassen(), &crate::compose::classical(2, 2, 1));
        let plan = FmmPlan::new(vec![strassen(), c223]);
        let (m, k, n) = (16, 16, 24);
        let a = fill::bench_workload(m, k, 3);
        let b = fill::bench_workload(k, n, 4);
        let mut c = Matrix::zeros(m, n);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Ab, &mut ctx);
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-10);
    }

    #[test]
    fn abc_accumulates_into_nonzero_c() {
        let plan = FmmPlan::new(vec![winograd()]);
        let a = fill::bench_workload(12, 12, 1);
        let b = fill::bench_workload(12, 12, 2);
        let mut c = Matrix::filled(12, 12, 3.0);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
        let mut c_ref = Matrix::filled(12, 12, 3.0);
        fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
        assert!(norms::max_abs_diff(c.as_ref(), c_ref.as_ref()) < 1e-11);
    }

    #[test]
    fn abc_needs_no_temporaries() {
        let plan = FmmPlan::new(vec![strassen()]);
        let a = fill::bench_workload(8, 8, 1);
        let b = fill::bench_workload(8, 8, 2);
        let mut c = Matrix::zeros(8, 8);
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
        // The Naive/AB temporaries were never allocated: the arena stayed
        // empty and the layout declares zero workspace.
        assert_eq!(ctx.fmm_workspace_elements(), 0);
        assert_eq!(ctx.arena_grow_count(), 0);
    }
}
