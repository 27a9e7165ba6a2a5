//! Calibration of architecture parameters on the running machine.
//!
//! The paper fixes `τ_a` from the published peak, `τ_b` from the published
//! bandwidth, and adapts `λ` to match measured GEMM performance (§4.2).
//! Reproducing that here: `τ_a` comes from a compute-bound in-cache GEMM
//! measurement, `τ_b` from a streaming triad measurement, and `λ` from a
//! one-dimensional fit of the GEMM model to a measured mid-size GEMM.

use crate::arch::ArchParams;
use crate::predict::predict_gemm;
use fmm_dense::{fill, Matrix};
use fmm_gemm::{BlockingParams, DestTile, GemmScalar, GemmWorkspace};
use std::time::Instant;

/// Measured inputs for calibration, separated from the measurement code so
/// tests can inject synthetic values.
#[derive(Clone, Copy, Debug)]
pub struct Measurements {
    /// Sustained GFLOPS of an in-cache (compute-bound) GEMM.
    pub compute_gflops: f64,
    /// Sustained DRAM bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Measured time of a mid-size, memory-sensitive GEMM `(m, k, n, secs)`.
    pub reference_gemm: (usize, usize, usize, f64),
}

/// Fit `ArchParams` from measurements: `τ_a`, `τ_b` directly, `λ` by
/// one-dimensional search so the model reproduces the reference GEMM time.
pub fn fit(meas: &Measurements, params: &BlockingParams) -> ArchParams {
    let mut arch =
        ArchParams::from_measurements(meas.compute_gflops, meas.bandwidth_gbs, 0.75, params);
    let (m, k, n, t_ref) = meas.reference_gemm;
    // λ enters Tm linearly through the C-traffic term; scan the paper's
    // admissible range for the best match.
    let mut best = (f64::INFINITY, arch.lambda);
    let mut lam = 0.5;
    while lam <= 1.0 + 1e-9 {
        arch.lambda = lam;
        let err = (predict_gemm(m, k, n, &arch).total - t_ref).abs();
        if err < best.0 {
            best = (err, lam);
        }
        lam += 0.01;
    }
    arch.lambda = best.1;
    arch
}

/// Run the measurements on this machine (takes a few hundred milliseconds).
///
/// `scale` shrinks the measurement sizes (1.0 = the defaults below), so a
/// caller can trade calibration accuracy for time. The compute probe and
/// the reference GEMM run `T`'s runtime-selected micro-kernel (so `tau_a`
/// reflects the dtype's actual peak), while the bandwidth probe stays an
/// 8-byte stream — `tau_b` is defined per 8 bytes moved and the DRAM rate
/// is dtype-independent.
pub fn measure_t<T: GemmScalar>(params: &BlockingParams, scale: f64) -> Measurements {
    let dim = |x: usize| ((x as f64 * scale) as usize).max(64);
    // Compute-bound probe: operands sized to the L2-resident block.
    let compute_gflops = {
        let (m, k, n) = (params.mc.max(64), params.kc.max(64), 256.max(params.nr));
        let secs = time_gemm::<T>(m, k, n, params, 5);
        fmm_core::counts::effective_gflops(m, k, n, secs)
    };
    // Bandwidth probe: large copy with accumulate (read + write streams).
    let bandwidth_gbs = {
        let len = ((64 << 20) as f64 * scale) as usize / 8; // scale of 64 MB
        let src = vec![1.0f64; len.max(1 << 20)];
        let mut dst = vec![0.0f64; src.len()];
        let start = Instant::now();
        let reps = 3;
        for _ in 0..reps {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += *s;
            }
            std::hint::black_box(&mut dst);
        }
        let secs = start.elapsed().as_secs_f64() / reps as f64;
        // 3 streams of traffic per element: read src, read dst, write dst.
        (3 * src.len() * 8) as f64 / secs / 1e9
    };
    // Reference mid-size GEMM for the λ fit.
    let (m, k, n) = (dim(2048), dim(1024), dim(2048));
    let secs = time_gemm::<T>(m, k, n, params, 2);
    Measurements { compute_gflops, bandwidth_gbs, reference_gemm: (m, k, n, secs) }
}

fn time_gemm<T: GemmScalar>(
    m: usize,
    k: usize,
    n: usize,
    params: &BlockingParams,
    reps: usize,
) -> f64 {
    let a = fill::bench_workload_t::<T>(m, k, 91);
    let b = fill::bench_workload_t::<T>(k, n, 92);
    let mut c = Matrix::<T>::zeros(m, n);
    let mut ws = GemmWorkspace::<T>::for_params(params);
    // Warm-up.
    fmm_gemm::driver::gemm_sums(
        &mut [DestTile::new(c.as_mut(), T::ONE)],
        &[(T::ONE, a.as_ref())],
        &[(T::ONE, b.as_ref())],
        params,
        &mut ws,
    );
    let start = Instant::now();
    for _ in 0..reps {
        fmm_gemm::driver::gemm_sums(
            &mut [DestTile::new(c.as_mut(), T::ONE)],
            &[(T::ONE, a.as_ref())],
            &[(T::ONE, b.as_ref())],
            params,
            &mut ws,
        );
    }
    start.elapsed().as_secs_f64() / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_lambda_from_synthetic_data() {
        // Generate a reference time from known parameters, then fit.
        let params = BlockingParams::default();
        let mut truth = ArchParams::paper_machine();
        truth.lambda = 0.82;
        let (m, k, n) = (4000, 256, 4000); // memory-sensitive shape
        let t_ref = predict_gemm(m, k, n, &truth).total;
        let meas = Measurements {
            compute_gflops: truth.peak_gflops(),
            bandwidth_gbs: 8.0 / truth.tau_b / 1e9,
            reference_gemm: (m, k, n, t_ref),
        };
        let fitted = fit(&meas, &params);
        assert!((fitted.lambda - 0.82).abs() < 0.02, "fitted λ = {}", fitted.lambda);
        assert!((fitted.tau_a - truth.tau_a).abs() / truth.tau_a < 1e-9);
    }

    #[test]
    fn fit_clamps_lambda_into_range() {
        let params = BlockingParams::default();
        let meas = Measurements {
            compute_gflops: 28.0,
            bandwidth_gbs: 60.0,
            reference_gemm: (1000, 1000, 1000, 1e-9), // absurdly fast
        };
        let fitted = fit(&meas, &params);
        assert!((0.5..=1.0).contains(&fitted.lambda));
        fitted.validate().unwrap();
    }

    #[test]
    #[ignore = "runs actual timing; invoke explicitly with --ignored"]
    fn measure_produces_plausible_numbers() {
        let params = BlockingParams::default();
        let meas = measure_t::<f64>(&params, 0.25);
        assert!(meas.compute_gflops > 0.1);
        assert!(meas.bandwidth_gbs > 0.1);
        assert!(meas.reference_gemm.3 > 0.0);
    }
}
