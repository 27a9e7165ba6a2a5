//! Searching for fast matrix multiplication algorithms.
//!
//! The paper consumes algorithms found by others (Benson–Ballard's numerical
//! search, Smirnov's constructions) and lists coefficient search as future
//! work (§6). This crate implements the standard discovery pipeline those
//! sources used, so the repository is self-contained:
//!
//! 1. Build the `<m̃,k̃,ñ>` matrix multiplication tensor (`tensor`).
//! 2. Run alternating least squares (ALS) with ridge regularization to find
//!    an approximate rank-`R` decomposition (`als`), or anneal over
//!    `{-1, 0, 1}` coefficients toward an exact one (`anneal`).
//! 3. Round factor entries onto the dyadic grid `{0, ±1/2, ±1, ±2}`
//!    (`rounding`).
//! 4. Repair: with two factors fixed, the third is the solution of a linear
//!    system — solve it exactly and verify the Brent equations ([`repair`]).
//! 5. Drive it: [`search`] is the one entry point. It runs restarts of the
//!    annealer and of the ALS → round → repair funnel until one verifies or
//!    its wall-clock budget runs out; [`io`] writes a find as registry JSON.
//!
//! Every "discovery" is re-verified through `FmmAlgorithm::new`, so this
//! pipeline can never hand the registry a wrong algorithm.

mod als;
mod anneal;
pub mod io;
mod linalg;
pub mod repair;
mod rounding;
mod runner;
mod tensor;

pub use runner::{search, SearchConfig, SearchOutcome};
