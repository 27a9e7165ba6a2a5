//! Dense column-major `f64` matrices and strided views.
//!
//! This crate is the storage substrate for the `fmm` workspace. It provides:
//!
//! * [`Matrix`] — an owned, column-major, heap-allocated `f64` matrix;
//! * [`MatRef`] / [`MatMut`] — borrowed, strided views that make submatrix
//!   partitioning (the heart of Strassen-like algorithms) free of copies;
//! * elementwise kernels ([`ops`]) used by packing routines and executors;
//! * [`AlignedBuf`] — a 64-byte-aligned buffer for BLIS-style packing;
//! * deterministic and random fills ([`fill`]) and comparison helpers
//!   ([`norms`]) used by tests and benchmarks.
//!
//! Storage and kernels are generic over the [`Scalar`] element type —
//! `f64` (the paper's DGEMM experiments) by default, with `f32` opening
//! the SGEMM workload at twice the SIMD lanes per instruction. Every type
//! here defaults its parameter to `f64`, so single-precision use is opt-in
//! (`Matrix<f32>`, `fill::bench_workload_t::<f32>`).
//!
//! # Example
//!
//! ```
//! use fmm_dense::Matrix;
//!
//! let a = Matrix::from_fn(4, 3, |i, j| (i + 10 * j) as f64);
//! let v = a.as_ref().submatrix(1, 1, 2, 2);
//! assert_eq!(v.at(0, 0), 11.0);
//! assert_eq!(v.at(1, 1), 22.0);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod aligned;
pub mod errors;
pub mod fill;
pub mod matrix;
pub mod norms;
pub mod ops;
pub mod scalar;
pub mod view;

pub use aligned::AlignedBuf;
pub use errors::DimError;
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use view::{MatMut, MatRef};
