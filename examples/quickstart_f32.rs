//! Quickstart for the single-precision path: multiply two `f32` matrices
//! through the process-global `f32` engine, compare against an
//! `f64`-computed reference at the `Scalar`-derived accuracy bound, and
//! race the `f32` kernel stack (32x8 register tile, AVX-512 where available)
//! against the `f64` one.
//!
//! ```sh
//! cargo run --release --example quickstart_f32
//! ```

use fmm_dense::{fill, norms, Matrix, Scalar};
use fmm_gemm::GemmScalar;

fn main() {
    let (m, k, n) = (1000, 900, 1100); // deliberately not divisible by 2
    println!("C({m}x{n}) += A({m}x{k}) · B({k}x{n}) in f32\n");
    println!("f32 micro-kernel: {}", <f32 as GemmScalar>::micro_kernel_name());
    println!("f64 micro-kernel: {}\n", <f64 as GemmScalar>::micro_kernel_name());

    // The same value stream at both precisions: bench_workload_t draws in
    // f64 and narrows, so the f32 operands are exactly the f64 ones rounded.
    let a = fill::bench_workload_t::<f32>(m, k, 1);
    let b = fill::bench_workload_t::<f32>(k, n, 2);

    let engine = fmm::engine_f32();
    println!("f32 engine decision for this shape: {}", engine.decision_label(m, k, n));

    let mut c = Matrix::<f32>::zeros(m, n);
    let t0 = std::time::Instant::now();
    fmm::multiply_f32(c.as_mut(), a.as_ref(), b.as_ref());
    let cold = t0.elapsed();
    let mut c_warm = Matrix::<f32>::zeros(m, n);
    let t0 = std::time::Instant::now();
    fmm::multiply_f32(c_warm.as_mut(), a.as_ref(), b.as_ref());
    let warm = t0.elapsed();

    // The f64 path on the same (widened) inputs, for the speed comparison
    // and as the accuracy oracle.
    let a64 = a.cast::<f64>();
    let b64 = b.cast::<f64>();
    let mut c64 = Matrix::<f64>::zeros(m, n);
    fmm::multiply(c64.as_mut(), a64.as_ref(), b64.as_ref()); // cold, untimed
    let mut c64_warm = Matrix::<f64>::zeros(m, n);
    let t0 = std::time::Instant::now();
    fmm::multiply(c64_warm.as_mut(), a64.as_ref(), b64.as_ref());
    let warm64 = t0.elapsed();

    let gfl = |d: std::time::Duration| fmm_core::counts::effective_gflops(m, k, n, d.as_secs_f64());
    println!("f32 (cold) : {cold:>10.2?}  ({:6.2} effective GFLOPS)", gfl(cold));
    println!("f32 (warm) : {warm:>10.2?}  ({:6.2} effective GFLOPS)", gfl(warm));
    println!("f64 (warm) : {warm64:>10.2?}  ({:6.2} effective GFLOPS)", gfl(warm64));

    // The accuracy contract: within the f32 epsilon-derived bound of the
    // f64 result (the engine considers up to 2 plan levels).
    let err = norms::rel_error(c_warm.cast::<f64>().as_ref(), c64_warm.as_ref());
    let bound = <f32 as Scalar>::accuracy_bound(k, 2);
    println!("\nrelative error vs f64 reference: {err:.2e} (bound {bound:.2e})");
    assert!(err < bound, "f32 result must satisfy the Scalar accuracy bound");
    println!("f32 product within its accuracy contract ✓");
}
