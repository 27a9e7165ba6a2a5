//! Exact verification of `[[U, V, W]]` triples against the Brent equations.
//!
//! A triple is a valid `<m̃, k̃, ñ>` algorithm iff for all index pairs
//! `(i, κ)`, `(κ', j)`, `(i', j')`:
//!
//! ```text
//! sum_r U[i·k̃+κ, r] · V[κ'·ñ+j, r] · W[i'·ñ+j', r]
//!     = δ(κ = κ') · δ(i = i') · δ(j = j')
//! ```
//!
//! Since registry coefficients are dyadic rationals of bounded size (see
//! [`crate::coeffs`]), each triple product and each `R`-term sum is computed
//! exactly in `f64`, so the equality test below is exact, not approximate.

use crate::algorithm::FmmAlgorithm;

/// A violated Brent equation.
#[derive(Debug, Clone, PartialEq)]
pub struct BrentViolation {
    /// `(i, κ)` index into `U`'s grid.
    pub a_idx: (usize, usize),
    /// `(κ', j)` index into `V`'s grid.
    pub b_idx: (usize, usize),
    /// `(i', j')` index into `W`'s grid.
    pub c_idx: (usize, usize),
    /// The computed sum.
    pub got: f64,
    /// The Kronecker-delta target (0.0 or 1.0).
    pub expected: f64,
}

impl std::fmt::Display for BrentViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Brent equation violated at A{:?} B{:?} C{:?}: got {}, expected {}",
            self.a_idx, self.b_idx, self.c_idx, self.got, self.expected
        )
    }
}

/// Verify all `(m̃k̃)·(k̃ñ)·(m̃ñ)` Brent equations; returns the first
/// violation found.
pub fn verify(algo: &FmmAlgorithm) -> Result<(), BrentViolation> {
    match first_violation(algo, 0.0) {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

/// Count violated equations at tolerance `tol` (0.0 means exact). Used by
/// the search crate's repair loop as a discrete objective.
pub fn count_violations(algo: &FmmAlgorithm, tol: f64) -> usize {
    let mut count = 0;
    for_each_equation(algo, |_, _, _, got, expected| {
        if (got - expected).abs() > tol {
            count += 1;
        }
        true
    });
    count
}

/// Sum of squared residuals over all Brent equations: zero exactly for a
/// valid algorithm.
pub fn residual_sq(algo: &FmmAlgorithm) -> f64 {
    let mut acc = 0.0;
    for_each_equation(algo, |_, _, _, got, expected| {
        let d = got - expected;
        acc += d * d;
        true
    });
    acc
}

fn first_violation(algo: &FmmAlgorithm, tol: f64) -> Option<BrentViolation> {
    let mut found = None;
    for_each_equation(algo, |a_idx, b_idx, c_idx, got, expected| {
        if (got - expected).abs() > tol {
            found = Some(BrentViolation { a_idx, b_idx, c_idx, got, expected });
            false
        } else {
            true
        }
    });
    found
}

/// Drive `f` over every Brent equation; `f` returns `false` to stop early.
#[allow(clippy::type_complexity)]
fn for_each_equation(
    algo: &FmmAlgorithm,
    mut f: impl FnMut((usize, usize), (usize, usize), (usize, usize), f64, f64) -> bool,
) {
    let (mt, kt, nt) = algo.dims();
    let r_count = algo.rank();
    let (u, v, w) = (algo.u(), algo.v(), algo.w());
    for i in 0..mt {
        for ka in 0..kt {
            let urow = i * kt + ka;
            for kb in 0..kt {
                for j in 0..nt {
                    let vrow = kb * nt + j;
                    // Precompute the U·V partial products for this pair.
                    let mut uv = vec![0.0; r_count];
                    let mut any = false;
                    for (slot, r) in uv.iter_mut().zip(0..r_count) {
                        let p = u.at(urow, r) * v.at(vrow, r);
                        *slot = p;
                        any |= p != 0.0;
                    }
                    for ic in 0..mt {
                        for jc in 0..nt {
                            let wrow = ic * nt + jc;
                            let expected = if ka == kb && i == ic && j == jc { 1.0 } else { 0.0 };
                            if !any {
                                if expected != 0.0 && !f((i, ka), (kb, j), (ic, jc), 0.0, expected)
                                {
                                    return;
                                }
                                continue;
                            }
                            let mut got = 0.0;
                            for (r, &p) in uv.iter().enumerate() {
                                if p != 0.0 {
                                    got += p * w.at(wrow, r);
                                }
                            }
                            if !f((i, ka), (kb, j), (ic, jc), got, expected) {
                                return;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::CoeffMatrix;

    /// Hand-rolled classical <2,1,1>: C0 = A0 B0, C1 = A1 B0.
    fn classical_211() -> FmmAlgorithm {
        FmmAlgorithm::new_unchecked(
            "c211",
            (2, 1, 1),
            CoeffMatrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            CoeffMatrix::from_rows(1, 2, vec![1.0, 1.0]),
            CoeffMatrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
        )
    }

    #[test]
    fn classical_211_passes() {
        assert!(verify(&classical_211()).is_ok());
        assert_eq!(count_violations(&classical_211(), 0.0), 0);
        assert_eq!(residual_sq(&classical_211()), 0.0);
    }

    #[test]
    fn single_sign_flip_is_caught() {
        let good = classical_211();
        let mut w = good.w().clone();
        w.set(1, 1, -1.0);
        let bad =
            FmmAlgorithm::new_unchecked("bad", (2, 1, 1), good.u().clone(), good.v().clone(), w);
        let viol = verify(&bad).unwrap_err();
        assert_eq!(viol.expected, 1.0);
        assert_eq!(viol.got, -1.0);
        assert_eq!(count_violations(&bad, 0.0), 1);
        assert!(residual_sq(&bad) > 3.9);
    }

    #[test]
    fn zero_algorithm_violates_diagonal_equations_only() {
        let zero = FmmAlgorithm::new_unchecked(
            "zero",
            (2, 1, 1),
            CoeffMatrix::zeros(2, 1),
            CoeffMatrix::zeros(1, 1),
            CoeffMatrix::zeros(2, 1),
        );
        // Diagonal equations: (i, κ=0), (κ'=0, j=0), (i'=i, j'=0): 2 of them.
        assert_eq!(count_violations(&zero, 0.0), 2);
    }

    #[test]
    fn tolerance_loosens_counting() {
        let good = classical_211();
        let mut u = good.u().clone();
        u.set(0, 0, 1.0 + 2.0_f64.powi(-12)); // tiny dyadic perturbation
        let bad =
            FmmAlgorithm::new_unchecked("b", (2, 1, 1), u, good.v().clone(), good.w().clone());
        assert!(count_violations(&bad, 0.0) > 0);
        assert_eq!(count_violations(&bad, 1e-3), 0);
    }
}
