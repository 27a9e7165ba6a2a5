//! The scalar abstraction the whole execution stack is generic over.
//!
//! The paper builds its algorithm families on the precision-generic BLIS
//! framework; [`Scalar`] is this reproduction's equivalent seam. Everything
//! from the packing routines up through `fmm::multiply` is parameterized by
//! a `Scalar` type, with `f64` (the paper's DGEMM experiments) and `f32`
//! (the SGEMM variants Benson & Ballard also report) implemented here.
//!
//! The trait deliberately stays small: the constants and operations the
//! micro-kernels, executors, and accuracy checks actually need, plus a
//! precision-derived error bound ([`Scalar::accuracy_bound`]) so tests can
//! hold every dtype to a tolerance scaled from its machine epsilon rather
//! than a hard-wired `f64` constant.

/// A floating-point element type the FMM stack can execute over.
///
/// Implemented for `f64` and `f32`. The supertraits cover what strided
/// views, packing buffers, and test assertions need; the inherent items
/// cover arithmetic (`mul_add`, `abs`), conversion to/from the `f64`
/// coefficient domain (plan coefficients `U`, `V`, `W` stay `f64` and are
/// narrowed at the execution boundary), and the dtype metadata (epsilon
/// and name) used by error bounds and reports. The register tile is the
/// kernel's to choose: see `fmm_gemm::GemmScalar`.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + std::fmt::Debug
    + std::fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of this type, widened to `f64` so error bounds can
    /// be computed in one precision regardless of `Self`.
    const EPSILON: f64;
    /// Display name of the dtype (`"f64"`, `"f32"`).
    const NAME: &'static str;

    /// Narrow an `f64` coefficient into this type.
    fn from_f64(v: f64) -> Self;
    /// Widen into `f64` (exact for both implementors).
    fn to_f64(self) -> f64;
    /// Multiply–add `self * a + b`, the scalar contract reductions and
    /// kernel fallbacks build on. Implementations are the plain two-op
    /// form (contraction into a hardware FMA is left to the compiler, so
    /// hosts without FMA never pay for a libm call in a hot loop).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;

    /// Relative-error tolerance for accepting an `levels`-level FMM product
    /// with inner dimension `k` and entries of magnitude ~1, derived from
    /// this type's [`Scalar::EPSILON`].
    ///
    /// Strassen-like algorithms lose roughly a constant number of bits per
    /// recursion level; the bound is loose enough for every registry
    /// algorithm (wrong coefficients produce O(1) errors, far above it)
    /// while scaling with the precision actually in use — the `f32` path
    /// is held to a correspondingly wider but still meaningful bound.
    fn accuracy_bound(k: usize, levels: usize) -> f64 {
        let growth = 12.0_f64.powi(levels as i32).max(1.0);
        Self::EPSILON * 100.0 * growth * (k.max(2) as f64).sqrt()
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: f64 = f64::EPSILON;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: f64 = f32::EPSILON as f64;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_and_conversion_roundtrip() {
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
        assert_eq!(f32::ZERO + f32::ONE, 1.0);
        assert_eq!(f32::from_f64(0.5).to_f64(), 0.5);
        assert_eq!(f64::from_f64(-3.25), -3.25);
        assert_eq!(<f32 as Scalar>::NAME, "f32");
        assert_eq!(<f64 as Scalar>::NAME, "f64");
    }

    #[test]
    fn mul_add_and_abs() {
        assert_eq!(Scalar::mul_add(2.0_f64, 3.0, 1.0), 7.0);
        assert_eq!(Scalar::mul_add(2.0_f32, 3.0, 1.0), 7.0);
        assert_eq!(Scalar::abs(-4.0_f32), 4.0);
    }

    #[test]
    fn accuracy_bound_scales_with_epsilon() {
        let b64 = <f64 as Scalar>::accuracy_bound(1000, 1);
        let b32 = <f32 as Scalar>::accuracy_bound(1000, 1);
        assert!(b32 > b64 * 1e8, "f32 bound reflects its wider epsilon");
        assert!(b32 < 0.1, "but stays meaningful: O(1) bugs are caught");
        assert!(<f64 as Scalar>::accuracy_bound(1000, 2) > b64);
        assert!(<f64 as Scalar>::accuracy_bound(2000, 1) > b64, "grows with k");
    }
}
