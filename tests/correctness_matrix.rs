//! The load-bearing correctness sweep: every registry algorithm, every
//! executor variant, one- and two-level plans, divisible and fringed
//! problem sizes — all compared against the reference triple loop.

use fmm_core::prelude::*;
use fmm_core::registry::Registry;
use fmm_dense::{fill, norms, Matrix, Scalar};
use fmm_gemm::BlockingParams;

fn check(plan: &FmmPlan, variant: Variant, m: usize, k: usize, n: usize) {
    let a = fill::bench_workload(m, k, 0xC0FFEE);
    let b = fill::bench_workload(k, n, 0xBEEF);
    let mut c = fill::bench_workload(m, n, 0xF00D);
    let mut c_ref = c.clone();
    let mut ctx = FmmContext::new(BlockingParams::tiny());
    fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), plan, variant, &mut ctx);
    fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
    let err = norms::max_abs_diff(c.as_ref(), c_ref.as_ref());
    let tol = f64::accuracy_bound(k, plan.num_levels());
    assert!(
        err < tol,
        "{} {} m={m} k={k} n={n}: err={err:.3e} tol={tol:.3e}",
        plan.describe(),
        variant.name()
    );
}

#[test]
fn every_registry_algorithm_every_variant_divisible_sizes() {
    let reg = Registry::standard();
    for (entry, algo) in reg.paper_rows() {
        let (mt, kt, nt) = entry.dims;
        let plan = FmmPlan::from_arcs(vec![algo]);
        // Smallest interesting multiple of the partition dims, plus slack.
        let (m, k, n) = (mt * 10, kt * 9, nt * 11);
        for variant in Variant::ALL {
            check(&plan, variant, m, k, n);
        }
    }
}

#[test]
fn every_registry_algorithm_abc_with_fringes() {
    let reg = Registry::standard();
    for (entry, algo) in reg.paper_rows() {
        let (mt, kt, nt) = entry.dims;
        let plan = FmmPlan::from_arcs(vec![algo]);
        // One more than a multiple in every dimension: worst-case peeling.
        check(&plan, Variant::Abc, mt * 8 + 1, kt * 8 + 1, nt * 8 + 1);
    }
}

#[test]
fn two_level_homogeneous_plans_sample() {
    let reg = Registry::standard();
    for dims in [(2, 2, 2), (2, 3, 2), (3, 3, 3), (4, 2, 2)] {
        let algo = reg.get(dims).unwrap();
        let plan = FmmPlan::from_arcs(vec![algo.clone(), algo]);
        let (mt, kt, nt) = plan.partition_dims();
        for variant in Variant::ALL {
            check(&plan, variant, mt * 4, kt * 4, nt * 4);
            check(&plan, variant, mt * 4 + 3, kt * 4 + 1, nt * 4 + 2);
        }
    }
}

#[test]
fn hybrid_two_level_plans() {
    let reg = Registry::standard();
    let a222 = reg.get((2, 2, 2)).unwrap();
    let a232 = reg.get((2, 3, 2)).unwrap();
    let a333 = reg.get((3, 3, 3)).unwrap();
    for pair in [
        vec![a222.clone(), a232.clone()],
        vec![a232.clone(), a222.clone()],
        vec![a222.clone(), a333.clone()],
        vec![a333.clone(), a232.clone()],
    ] {
        let plan = FmmPlan::from_arcs(pair);
        let (mt, kt, nt) = plan.partition_dims();
        check(&plan, Variant::Abc, mt * 3, kt * 3, nt * 3);
        check(&plan, Variant::Ab, mt * 3 + 1, kt * 3 + 2, nt * 3 + 1);
    }
}

#[test]
fn three_level_strassen() {
    let plan = FmmPlan::uniform(fmm_core::registry::strassen(), 3);
    for variant in Variant::ALL {
        check(&plan, variant, 32, 32, 32);
    }
    check(&plan, Variant::Abc, 37, 41, 33);
}

#[test]
fn winograd_variant_executes() {
    let plan = FmmPlan::new(vec![fmm_core::registry::winograd()]);
    for variant in Variant::ALL {
        check(&plan, variant, 22, 26, 18);
    }
}

#[test]
fn identity_and_zero_special_cases() {
    let plan = FmmPlan::new(vec![fmm_core::registry::strassen()]);
    let mut ctx = FmmContext::new(BlockingParams::tiny());
    // A = I: C += B.
    let id = Matrix::identity(16);
    let b = fill::bench_workload(16, 16, 5);
    let mut c = Matrix::zeros(16, 16);
    fmm_execute(c.as_mut(), id.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
    assert!(norms::max_abs_diff(c.as_ref(), b.as_ref()) < 1e-12);
    // B = 0: C unchanged.
    let zero = Matrix::zeros(16, 16);
    let mut c2 = fill::bench_workload(16, 16, 6);
    let c2_before = c2.clone();
    fmm_execute(c2.as_mut(), b.as_ref(), zero.as_ref(), &plan, Variant::Ab, &mut ctx);
    assert!(norms::max_abs_diff(c2.as_ref(), c2_before.as_ref()) < 1e-12);
}

#[test]
fn exact_integer_inputs_give_exact_results_for_strassen() {
    // Integer entries keep all Strassen intermediates exactly representable:
    // the FMM result must equal the reference bit for bit.
    let (m, k, n) = (16, 16, 16);
    let a = fill::random_small_int(m, k, 1);
    let b = fill::random_small_int(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    let plan = FmmPlan::new(vec![fmm_core::registry::strassen()]);
    let mut ctx = FmmContext::new(BlockingParams::tiny());
    fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);
    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert_eq!(c, c_ref);
}
