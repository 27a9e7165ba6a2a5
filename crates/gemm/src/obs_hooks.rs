//! Pack-vs-kernel attribution for the observability layer.
//!
//! The paper's performance argument is about where GEMM time goes —
//! operand packing versus micro-kernel FLOPs — so both drivers time
//! each `pack_*_sum` and `macro_kernel` call and record the duration
//! into the process-global histograms `fmm_gemm_pack_nanos` /
//! `fmm_gemm_kernel_nanos`. Timing is always on: one clock read per
//! block-sized call plus four relaxed atomics, noise next to the work
//! being timed. Span events additionally land in the span ring when
//! tracing is enabled, stamped with the request id the current thread
//! is serving (see `fmm_obs::trace::set_current_request`).

use fmm_obs::trace::{self, Event, Kind};
use fmm_obs::Histogram;
use std::sync::{Arc, OnceLock};

fn pack_hist() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| fmm_obs::global().histogram("fmm_gemm_pack_nanos"))
}

fn kernel_hist() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| fmm_obs::global().histogram("fmm_gemm_kernel_nanos"))
}

/// Open a phase: monotonic nanos on the shared trace clock.
#[inline]
pub(crate) fn phase_start() -> u64 {
    trace::now_nanos()
}

#[inline]
fn phase_end(kind: Kind, hist: &Histogram, start_nanos: u64) {
    let end_nanos = trace::now_nanos();
    hist.record(end_nanos.saturating_sub(start_nanos));
    if trace::enabled() {
        trace::record(Event::span(kind, trace::current_request(), start_nanos, end_nanos));
    }
}

/// Close a packing phase opened by [`phase_start`].
#[inline]
pub(crate) fn pack_done(start_nanos: u64) {
    phase_end(Kind::Pack, pack_hist(), start_nanos);
}

/// Close a macro-kernel phase opened by [`phase_start`].
#[inline]
pub(crate) fn kernel_done(start_nanos: u64) {
    phase_end(Kind::Kernel, kernel_hist(), start_nanos);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_gemm_feeds_pack_and_kernel_histograms() {
        use crate::{driver::DestTile, gemm_sums, params::BlockingParams, GemmWorkspace};
        use fmm_dense::{fill, Matrix};
        let before_pack = pack_hist().count();
        let before_kernel = kernel_hist().count();
        let a = fill::bench_workload(24, 16, 1);
        let b = fill::bench_workload(16, 24, 2);
        let mut c = Matrix::zeros(24, 24);
        let p = BlockingParams::tiny();
        let mut ws = GemmWorkspace::for_params(&p);
        gemm_sums(
            &mut [DestTile::new(c.as_mut(), 1.0)],
            &[(1.0, a.as_ref())],
            &[(1.0, b.as_ref())],
            &p,
            &mut ws,
        );
        assert!(pack_hist().count() > before_pack, "pack phase not attributed");
        assert!(kernel_hist().count() > before_kernel, "kernel phase not attributed");
    }
}
