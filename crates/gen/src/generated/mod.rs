//! The frozen output of a deleted source emitter, kept because the
//! benchmark's `gen.generated_vs_interp` row pins
//! `strassen_1l::strassen_1l_abc`.
//!
//! The skip attribute keeps `cargo fmt` from rewriting the file: the row
//! must keep timing the same code, so it stays byte for byte as the
//! emitter wrote it. Do not edit or format it.

#[rustfmt::skip]
pub mod strassen_1l;
