//! The pre-generated (checked-in) modules must compute the same product as
//! the interpreted executor and the reference GEMM.

use fmm_dense::{fill, norms, Matrix, Scalar};
use fmm_gemm::{BlockingParams, GemmWorkspace};
use fmm_gen::generated::{strassen_1l, strassen_2l};

fn check(
    run: impl Fn(
        fmm_dense::MatMut<'_>,
        fmm_dense::MatRef<'_>,
        fmm_dense::MatRef<'_>,
        &BlockingParams,
        &mut GemmWorkspace,
    ),
    m: usize,
    k: usize,
    n: usize,
    levels: usize,
) {
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    let mut c = fill::bench_workload(m, n, 3);
    let mut c_ref = c.clone();
    let params = BlockingParams::tiny();
    let mut ws = GemmWorkspace::for_params(&params);
    run(c.as_mut(), a.as_ref(), b.as_ref(), &params, &mut ws);
    fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
    let err = norms::max_abs_diff(c.as_ref(), c_ref.as_ref());
    let tol = f64::accuracy_bound(k, levels);
    assert!(err < tol, "m={m} k={k} n={n}: err={err} tol={tol}");
}

#[test]
fn generated_one_level_strassen_is_correct() {
    for (m, k, n) in [(16, 16, 16), (32, 18, 26), (2, 2, 2), (64, 10, 40)] {
        check(strassen_1l::strassen_1l_abc, m, k, n, 1);
    }
}

#[test]
fn generated_two_level_strassen_is_correct() {
    for (m, k, n) in [(16, 16, 16), (32, 20, 28), (4, 4, 4)] {
        check(strassen_2l::strassen_2l_abc, m, k, n, 2);
    }
}

#[test]
fn generated_matches_interpreted_executor_exactly() {
    // Same plan, same blocking, same kernel: the generated module and the
    // interpreted ABC executor perform identical arithmetic.
    use fmm_core::prelude::*;
    let (m, k, n) = (24, 16, 32);
    let a = fill::bench_workload(m, k, 7);
    let b = fill::bench_workload(k, n, 8);
    let params = BlockingParams::tiny();

    let mut c_gen = Matrix::zeros(m, n);
    let mut ws = GemmWorkspace::for_params(&params);
    strassen_1l::strassen_1l_abc(c_gen.as_mut(), a.as_ref(), b.as_ref(), &params, &mut ws);

    let mut c_int = Matrix::zeros(m, n);
    let plan = FmmPlan::new(vec![fmm_core::registry::strassen()]);
    let mut ctx = FmmContext::new(params);
    fmm_execute(c_int.as_mut(), a.as_ref(), b.as_ref(), &plan, Variant::Abc, &mut ctx);

    assert_eq!(c_gen, c_int, "generated and interpreted paths must agree exactly");
}

#[test]
#[should_panic(expected = "multiple of 2")]
fn generated_module_rejects_indivisible_sizes() {
    let a = Matrix::zeros(3, 4);
    let b = Matrix::zeros(4, 4);
    let mut c = Matrix::zeros(3, 4);
    let params = BlockingParams::tiny();
    let mut ws = GemmWorkspace::for_params(&params);
    strassen_1l::strassen_1l_abc(c.as_mut(), a.as_ref(), b.as_ref(), &params, &mut ws);
}
