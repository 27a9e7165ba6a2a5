//! `fmm-tune` — host calibration for the performance model.
//!
//! The paper's selection story (§4.4, Figs. 9–10) is a *model* ranking,
//! and a model is only as good as its machine constants. This crate fits
//! them on the running machine: [`calibrate_host`] runs the
//! `fmm_model::calibrate` microbenchmarks, per dtype and honoring the
//! dtype's runtime-selected micro-kernel, and [`host_arch`] caches the
//! result for the life of the process (`fmm-engine`'s
//! `ArchSource::Calibrated`). Nothing is persisted: routing is a function
//! of the code and the [`ArchParams`] an engine was given. To pin
//! constants across processes, measure them once and pass them as
//! `ArchSource::Fixed` (the benchmark's `fmm-ledger calibrate` does).
//!
//! [`ShapeClass`] is the power-of-two shape bucketing the decision audit
//! (`fmm_obs::audit`) keys its predicted-vs-measured rows by.
//!
//! # Example
//!
//! ```no_run
//! use fmm_tune::{host_arch, ShapeClass};
//!
//! let arch = host_arch::<f64>(); // measured once per process, then cached
//! println!("peak {:.1} GFLOP/s", arch.peak_gflops());
//! assert_eq!(ShapeClass::of(500, 500, 500).label(), "512x512x512");
//! ```

pub mod host;
pub mod store;

pub use fmm_model::ArchParams;
pub use host::{calibrate_host, host_arch, QUICK_SCALE};
pub use store::ShapeClass;
