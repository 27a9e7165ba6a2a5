//! Pack-vs-kernel attribution for the observability layer.
//!
//! The paper's performance argument is about where GEMM time goes —
//! operand packing versus micro-kernel FLOPs — so the driver times
//! each `pack_*_sum` and `macro_kernel` call, inline or parallel, and
//! records the duration into the process-global histograms
//! `fmm_gemm_pack_nanos` / `fmm_gemm_kernel_nanos`. Timing is always on:
//! about one clock read per block-sized call (an `ic` block's A pack and
//! kernel phases share the stamp between them, three reads for two
//! phases) plus four relaxed atomics, noise next to the work being timed. Span events additionally land in the
//! span ring when tracing is enabled, stamped with the request id the
//! current thread is serving (see `fmm_obs::trace::set_current_request`).
//! A pack span says what it packed: its args are the operand (0 = A,
//! 1 = B), the number of terms summed and the source elements read (terms
//! times block elements), so a trace tells A packs from B packs and plain
//! packs from sums.

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

/// Close a phase and return its end stamp, from which the next phase may
/// start without reading the clock again.
#[inline]
fn phase_end(kind: Kind, hist: &Histogram, start_nanos: u64, args: [u64; 3]) -> u64 {
    let end_nanos = trace::now_nanos();
    hist.record(end_nanos.saturating_sub(start_nanos));
    if trace::enabled() {
        let span = Event::span(kind, trace::current_request(), start_nanos, end_nanos);
        trace::record(span.with_args(args));
    }
    end_nanos
}

/// Which operand a pack span packed (its first arg).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Operand {
    A = 0,
    B = 1,
}

/// Close a packing phase opened by [`phase_start`]: `terms` blocks of
/// `elems` elements each, summed into one packed `operand`. Returns the
/// end stamp, which the kernel phase after an A pack starts from, so the
/// two spans abut and an `ic` block reads the clock three times.
#[inline]
pub(crate) fn pack_done(start_nanos: u64, operand: Operand, terms: usize, elems: usize) -> u64 {
    let args = [operand as u64, terms as u64, (terms * elems) as u64];
    phase_end(Kind::Pack, pack_hist(), start_nanos, args)
}

/// Close a macro-kernel phase opened by [`phase_start`] or by the end of
/// the pack before it.
#[inline]
pub(crate) fn kernel_done(start_nanos: u64) {
    phase_end(Kind::Kernel, kernel_hist(), start_nanos, [0; 3]);
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
