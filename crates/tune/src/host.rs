//! Host calibration: measure this machine once per process.
//!
//! [`calibrate_host`] runs the `fmm_model::calibrate` microbenchmarks with
//! the dtype's runtime-selected micro-kernel and fits [`ArchParams`].
//! [`host_arch`] caches the result in a process-wide map, so an engine
//! construction never measures twice in one process. Nothing is read from
//! or written to disk: what an engine routes with is what this process
//! measured, or what its caller passed in.
//!
//! Calibration is a performance input, never a correctness input, so every
//! failure path degrades instead of erroring: implausible measurements
//! (e.g. a timer quantized to zero under a noisy CI neighbor) fall back to
//! [`ArchParams::paper_machine`], and `FMM_TUNE_CALIBRATE=0` skips
//! measurement entirely.

use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::calibrate::{fit, measure_t};
use fmm_model::ArchParams;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Measurement scale used for implicit (engine-construction-time)
/// calibration: large enough for stable rates, small enough (~tens of
/// milliseconds) that the once-per-process cost is invisible next to real
/// traffic.
pub const QUICK_SCALE: f64 = 0.25;

/// Environment variable: set to `0` to skip host measurement and use the
/// paper machine's constants (deterministic runs, constrained sandboxes).
pub const CALIBRATE_ENV: &str = "FMM_TUNE_CALIBRATE";

/// Measure this host with `T`'s selected kernel and fit [`ArchParams`].
/// The result is validated; implausible measurements fall back to
/// [`ArchParams::paper_machine`] rather than poisoning every ranking.
pub fn calibrate_host<T: GemmScalar>(params: &BlockingParams, scale: f64) -> ArchParams {
    let arch = fit(&measure_t::<T>(params, scale), params);
    if arch.validate().is_ok() {
        arch
    } else {
        ArchParams::paper_machine()
    }
}

/// Calibrated [`ArchParams`] for this host and dtype: the process cache,
/// or a fresh [`calibrate_host`] measurement at [`QUICK_SCALE`] on first
/// use. Always returns validated parameters.
pub fn host_arch<T: GemmScalar>() -> ArchParams {
    static CACHE: OnceLock<Mutex<BTreeMap<&'static str, ArchParams>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut cache = cache.lock().expect("host-arch cache poisoned");
    *cache.entry(T::NAME).or_insert_with(|| {
        if std::env::var(CALIBRATE_ENV).as_deref() == Ok("0") {
            ArchParams::paper_machine()
        } else {
            calibrate_host::<T>(&BlockingParams::default(), QUICK_SCALE)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_arch_is_cached_and_valid() {
        let a = host_arch::<f64>();
        a.validate().expect("host arch must validate");
        let b = host_arch::<f64>();
        assert_eq!(a, b, "second call served from the process cache");
    }
}
