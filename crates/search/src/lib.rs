//! Searching for fast matrix multiplication algorithms.
//!
//! The paper consumes algorithms found by others (Benson–Ballard's numerical
//! search, Smirnov's constructions) and lists coefficient search as future
//! work (§6). This crate searches by flip graphs (Kauers & Moosbauer,
//! ISSAC 2023), so the repository is self-contained and its search has no
//! numerics to tune:
//!
//! 1. Build the `<m̃,k̃,ñ>` matrix multiplication tensor (`tensor`).
//! 2. Walk the flip graph over GF(2) from the classical algorithm: each
//!    flip rewrites two terms that share a factor without changing their
//!    sum, and each reduction merges or drops terms, lowering the rank
//!    (`flip`).
//! 3. Hensel-lift a scheme at the target rank to ℤ: solve the linearised
//!    Brent equations mod 2 for a fixed number of steps and read the
//!    factors as symmetric residues (`lift`).
//! 4. Drive it: [`search`] is the one entry point. It runs restarts of the
//!    walk until a lift verifies or its wall-clock budget runs out; [`io`]
//!    writes a find as registry JSON. [`repair`] re-solves a `W` from a
//!    remembered `(U, V)` pair.
//!
//! Every "discovery" is re-verified through `FmmAlgorithm::new`, so this
//! crate can never hand the registry a wrong algorithm.

mod flip;
pub mod io;
mod lift;
mod linalg;
pub mod repair;
mod rounding;
mod runner;
mod tensor;

pub use runner::{search, SearchConfig, SearchOutcome};
