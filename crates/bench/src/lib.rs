//! Benchmark harness shared by the figure binaries and `ablations`.
//!
//! Every table and figure of the paper's evaluation section (§5) has a
//! regeneration binary in `src/bin/` (`fig2` … `fig10`); this library holds
//! the common machinery: seeded workloads, steady-state timing, effective
//! GFLOPS reporting, CLI parameter parsing, and the measured-vs-modeled
//! plumbing.
//!
//! Problem sizes default to a linear `--scale 0.1` of the paper's
//! (`m = n = 14400` becomes 1440) so a full figure regenerates in minutes
//! on one core; pass `--scale 1.0` for paper-size runs. `k`-type dimensions
//! keep their *absolute* relation to `k_c = 256` where the paper's analysis
//! depends on it (rank-k crossovers live at multiples of `K̃_L·k_c`).

pub mod figure;
pub mod params;
pub mod runner;
pub mod timing;
pub mod workload;

pub use params::FigureParams;
pub use runner::{measure_fmm, measure_gemm, Measured};
