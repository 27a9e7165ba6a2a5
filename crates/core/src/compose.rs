//! Constructions that derive new FMM algorithms from existing ones.
//!
//! Four families of constructions, all routed through the verifying
//! constructor so a bug here cannot silently produce a wrong algorithm:
//!
//! * [`classical`] — the trivial `<m̃,k̃,ñ>` algorithm of rank `m̃k̃ñ`;
//! * [`nest`] — Kronecker-product composition (`<m̃m̃', k̃k̃', ññ'>` of rank
//!   `R·R'`), the paper's multi-level operator flattened into one level;
//! * [`stack_m`] / [`stack_k`] / [`stack_n`] — direct sums along one
//!   dimension (e.g. `<m̃,k̃,ñ₁+ñ₂>` of rank `R₁+R₂`), which is how the
//!   rank-11 `<2,2,3>` family arises from Strassen plus a classical strip;
//! * [`rotate`] / [`transpose`] — the symmetries of the matrix
//!   multiplication tensor: any `<m̃,k̃,ñ>` algorithm yields algorithms of
//!   equal rank for every permutation of `(m̃,k̃,ñ)` ([`all_orientations`]).
//!
//! Each constructor verifies the algorithm it returns, every time it runs:
//! `FmmAlgorithm::new` checks the Brent equations exactly. The cost grows
//! with the result's rank and size, so callers build only what they keep:
//! the registry's search compares candidates by rank (which each operator
//! determines without building), and composes only the winners it keeps
//! (`registry::family`).

use crate::algorithm::FmmAlgorithm;
use crate::coeffs::CoeffMatrix;

/// The classical (non-fast) `<m̃,k̃,ñ>` algorithm: one sub-multiplication
/// `A_{iκ}·B_{κj}` per `(i,κ,j)` triple, `R = m̃k̃ñ`.
pub fn classical(mt: usize, kt: usize, nt: usize) -> FmmAlgorithm {
    let r_count = mt * kt * nt;
    let mut u = CoeffMatrix::zeros(mt * kt, r_count);
    let mut v = CoeffMatrix::zeros(kt * nt, r_count);
    let mut w = CoeffMatrix::zeros(mt * nt, r_count);
    let mut r = 0;
    for i in 0..mt {
        for ka in 0..kt {
            for j in 0..nt {
                u.set(i * kt + ka, r, 1.0);
                v.set(ka * nt + j, r, 1.0);
                w.set(i * nt + j, r, 1.0);
                r += 1;
            }
        }
    }
    FmmAlgorithm::new(format!("classical<{mt},{kt},{nt}>"), (mt, kt, nt), u, v, w)
        .expect("classical algorithm is always valid")
}

/// Kronecker-product composition: run `outer` with each sub-multiplication
/// performed by `inner`. Dims multiply, ranks multiply (paper §3.4).
///
/// The raw Kronecker product indexes submatrices in *recursive block*
/// (Morton) order — exactly what [`crate::plan::FmmPlan`] executes against.
/// To obtain a self-contained *one-level* algorithm in the standard
/// row-major flattening, the rows are permuted from Morton order back to
/// row-major via [`BlockGrid`](crate::indexing::BlockGrid).
pub fn nest(outer: &FmmAlgorithm, inner: &FmmAlgorithm) -> FmmAlgorithm {
    use crate::indexing::BlockGrid;
    let (m1, k1, n1) = outer.dims();
    let (m2, k2, n2) = inner.dims();
    let (m, k, n) = (m1 * m2, k1 * k2, n1 * n2);
    let a_grid = BlockGrid::new(vec![(m1, k1), (m2, k2)]);
    let b_grid = BlockGrid::new(vec![(k1, n1), (k2, n2)]);
    let c_grid = BlockGrid::new(vec![(m1, n1), (m2, n2)]);
    let u = outer.u().kron(inner.u()).remap_rows(m * k, |rm| a_grid.flat(rm / k, rm % k));
    let v = outer.v().kron(inner.v()).remap_rows(k * n, |rm| b_grid.flat(rm / n, rm % n));
    let w = outer.w().kron(inner.w()).remap_rows(m * n, |rm| c_grid.flat(rm / n, rm % n));
    FmmAlgorithm::new(format!("({})⊗({})", outer.name(), inner.name()), (m, k, n), u, v, w)
        .expect("Kronecker product of valid algorithms is valid")
}

/// Direct sum along `ñ`: `a` computes the first `ñ_a` block-columns of `C`,
/// `b` the remaining `ñ_b` (they share `A`). Requires matching `(m̃, k̃)`.
pub fn stack_n(a: &FmmAlgorithm, b: &FmmAlgorithm) -> FmmAlgorithm {
    let (m1, k1, n1) = a.dims();
    let (m2, k2, n2) = b.dims();
    assert_eq!((m1, k1), (m2, k2), "stack_n requires equal (m̃, k̃)");
    let n = n1 + n2;
    let ra = a.rank();
    let rb = b.rank();
    let u = a.u().hcat(b.u());
    let v = a
        .v()
        .embed(k1 * n, ra + rb, 0, |row| {
            let (kk, j) = (row / n1, row % n1);
            kk * n + j
        })
        .merge_disjoint(&b.v().embed(k1 * n, ra + rb, ra, |row| {
            let (kk, j) = (row / n2, row % n2);
            kk * n + n1 + j
        }));
    let w = a
        .w()
        .embed(m1 * n, ra + rb, 0, |row| {
            let (i, j) = (row / n1, row % n1);
            i * n + j
        })
        .merge_disjoint(&b.w().embed(m1 * n, ra + rb, ra, |row| {
            let (i, j) = (row / n2, row % n2);
            i * n + n1 + j
        }));
    FmmAlgorithm::new(format!("({})⊕n({})", a.name(), b.name()), (m1, k1, n), u, v, w)
        .expect("direct sum along n of valid algorithms is valid")
}

/// Direct sum along `m̃`: `a` computes the top `m̃_a` block-rows of `C`,
/// `b` the bottom `m̃_b` (they share `B`). Requires matching `(k̃, ñ)`.
pub fn stack_m(a: &FmmAlgorithm, b: &FmmAlgorithm) -> FmmAlgorithm {
    let (m1, k1, n1) = a.dims();
    let (m2, k2, n2) = b.dims();
    assert_eq!((k1, n1), (k2, n2), "stack_m requires equal (k̃, ñ)");
    let m = m1 + m2;
    let ra = a.rank();
    let rb = b.rank();
    let v = a.v().hcat(b.v());
    // Row flattening i*k̃+κ is unchanged for a's rows (i < m1) and shifted
    // by m1 block-rows for b's.
    let u = a.u().embed(m * k1, ra + rb, 0, |row| row).merge_disjoint(&b.u().embed(
        m * k1,
        ra + rb,
        ra,
        |row| m1 * k1 + row,
    ));
    let w = a.w().embed(m * n1, ra + rb, 0, |row| row).merge_disjoint(&b.w().embed(
        m * n1,
        ra + rb,
        ra,
        |row| m1 * n1 + row,
    ));
    FmmAlgorithm::new(format!("({})⊕m({})", a.name(), b.name()), (m, k1, n1), u, v, w)
        .expect("direct sum along m of valid algorithms is valid")
}

/// Direct sum along `k̃`: `C = A_left·B_top + A_right·B_bottom`, where `a`
/// handles the first `k̃_a` block-columns of `A` and `b` the rest (they
/// share `C`). Requires matching `(m̃, ñ)`.
pub fn stack_k(a: &FmmAlgorithm, b: &FmmAlgorithm) -> FmmAlgorithm {
    let (m1, k1, n1) = a.dims();
    let (m2, k2, n2) = b.dims();
    assert_eq!((m1, n1), (m2, n2), "stack_k requires equal (m̃, ñ)");
    let k = k1 + k2;
    let ra = a.rank();
    let rb = b.rank();
    let w = a.w().hcat(b.w());
    let u = a
        .u()
        .embed(m1 * k, ra + rb, 0, |row| {
            let (i, kk) = (row / k1, row % k1);
            i * k + kk
        })
        .merge_disjoint(&b.u().embed(m1 * k, ra + rb, ra, |row| {
            let (i, kk) = (row / k2, row % k2);
            i * k + k1 + kk
        }));
    let v = a.v().embed(k * n1, ra + rb, 0, |row| row).merge_disjoint(&b.v().embed(
        k * n1,
        ra + rb,
        ra,
        |row| k1 * n1 + row,
    ));
    FmmAlgorithm::new(format!("({})⊕k({})", a.name(), b.name()), (m1, k, n1), u, v, w)
        .expect("direct sum along k of valid algorithms is valid")
}

/// Cyclic symmetry: a `<m̃,k̃,ñ>` algorithm becomes a `<k̃,ñ,m̃>` algorithm
/// of the same rank, via `U' = V`, `V'[(j,i)] = W[(i,j)]`,
/// `W'[(κ,i)] = U[(i,κ)]`.
pub fn rotate(a: &FmmAlgorithm) -> FmmAlgorithm {
    let (mt, kt, nt) = a.dims();
    let u = a.v().clone();
    let v = a.w().remap_rows(nt * mt, |row| {
        let (j, i) = (row / mt, row % mt);
        i * nt + j
    });
    let w = a.u().remap_rows(kt * mt, |row| {
        let (kk, i) = (row / mt, row % mt);
        i * kt + kk
    });
    FmmAlgorithm::new(format!("rot({})", a.name()), (kt, nt, mt), u, v, w)
        .expect("cyclic rotation of a valid algorithm is valid")
}

/// Transpose symmetry (`Cᵀ = BᵀAᵀ`): a `<m̃,k̃,ñ>` algorithm becomes a
/// `<ñ,k̃,m̃>` algorithm of the same rank.
pub fn transpose(a: &FmmAlgorithm) -> FmmAlgorithm {
    let (mt, kt, nt) = a.dims();
    let u = a.v().remap_rows(nt * kt, |row| {
        let (j, kk) = (row / kt, row % kt);
        kk * nt + j
    });
    let v = a.u().remap_rows(kt * mt, |row| {
        let (kk, i) = (row / mt, row % mt);
        i * kt + kk
    });
    let w = a.w().remap_rows(nt * mt, |row| {
        let (j, i) = (row / mt, row % mt);
        i * nt + j
    });
    FmmAlgorithm::new(format!("t({})", a.name()), (nt, kt, mt), u, v, w)
        .expect("transpose of a valid algorithm is valid")
}

/// Derive an algorithm for target dims `(m̃,k̃,ñ)` from `a` if the targets
/// are a permutation of `a.dims()`; returns `None` otherwise.
pub fn to_dims(a: &FmmAlgorithm, target: (usize, usize, usize)) -> Option<FmmAlgorithm> {
    (0..6).find(|&o| orientation_dims(a.dims(), o) == target).map(|o| orientation(a, o))
}

/// All six symmetry orientations of `a` (some may coincide when dims repeat):
/// `a` rotated zero, one and two times, then each of those transposed.
pub fn all_orientations(a: &FmmAlgorithm) -> Vec<FmmAlgorithm> {
    (0..6).map(|o| orientation(a, o)).collect()
}

/// Symmetry orientation `o` (of six) of `a`: `a` rotated `o % 3` times
/// ([`rotate`]), then transposed ([`transpose`]) when `o >= 3`. Only the
/// rotations it derives from are built.
pub(crate) fn orientation(a: &FmmAlgorithm, o: usize) -> FmmAlgorithm {
    let rotated = match o % 3 {
        0 => a.clone(),
        1 => rotate(a),
        _ => rotate(&rotate(a)),
    };
    if o < 3 {
        rotated
    } else {
        transpose(&rotated)
    }
}

/// The dims of [`orientation`] `o` of a `<m̃,k̃,ñ>` algorithm, without
/// building it.
pub(crate) fn orientation_dims(
    (m, k, n): (usize, usize, usize),
    o: usize,
) -> (usize, usize, usize) {
    [(m, k, n), (k, n, m), (n, m, k), (n, k, m), (m, n, k), (k, m, n)][o]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::strassen;

    #[test]
    fn classical_has_rank_mkn() {
        let a = classical(2, 3, 4);
        assert_eq!(a.rank(), 24);
        assert_eq!(a.dims(), (2, 3, 4));
    }

    #[test]
    fn nest_multiplies_dims_and_ranks() {
        let s = strassen();
        let two_level = nest(&s, &s);
        assert_eq!(two_level.dims(), (4, 4, 4));
        assert_eq!(two_level.rank(), 49);
    }

    #[test]
    fn nest_with_classical_strip() {
        let s = strassen();
        let strip = classical(1, 1, 2);
        let a = nest(&s, &strip);
        assert_eq!(a.dims(), (2, 2, 4));
        assert_eq!(a.rank(), 14);
    }

    #[test]
    fn stack_n_gives_rank_11_for_223() {
        let a = stack_n(&strassen(), &classical(2, 2, 1));
        assert_eq!(a.dims(), (2, 2, 3));
        assert_eq!(a.rank(), 11); // matches the paper's <2,3,2>-family rank
    }

    #[test]
    fn stack_m_gives_expected_dims() {
        let a = stack_m(&strassen(), &classical(1, 2, 2));
        assert_eq!(a.dims(), (3, 2, 2));
        assert_eq!(a.rank(), 11);
    }

    #[test]
    fn stack_k_gives_expected_dims() {
        let a = stack_k(&strassen(), &classical(2, 1, 2));
        assert_eq!(a.dims(), (2, 3, 2));
        assert_eq!(a.rank(), 11);
    }

    #[test]
    #[should_panic(expected = "stack_n requires")]
    fn stack_n_rejects_mismatched_mk() {
        let _ = stack_n(&strassen(), &classical(2, 3, 1));
    }

    #[test]
    fn rotate_cycles_dims() {
        let a = stack_n(&strassen(), &classical(2, 2, 1)); // <2,2,3>
        let r1 = rotate(&a);
        assert_eq!(r1.dims(), (2, 3, 2));
        assert_eq!(r1.rank(), 11);
        let r2 = rotate(&r1);
        assert_eq!(r2.dims(), (3, 2, 2));
        let r3 = rotate(&r2);
        assert_eq!(r3.dims(), (2, 2, 3));
    }

    #[test]
    fn transpose_swaps_m_and_n() {
        let a = stack_n(&strassen(), &classical(2, 2, 1)); // <2,2,3>
        let t = transpose(&a);
        assert_eq!(t.dims(), (3, 2, 2));
        assert_eq!(t.rank(), 11);
        // Transpose is an involution on dims.
        assert_eq!(transpose(&t).dims(), (2, 2, 3));
    }

    #[test]
    fn to_dims_finds_every_permutation_of_234() {
        let base = stack_n(&classical(2, 3, 2), &classical(2, 3, 2)); // <2,3,4>
        for target in [(2, 3, 4), (2, 4, 3), (3, 2, 4), (3, 4, 2), (4, 2, 3), (4, 3, 2)] {
            let found =
                to_dims(&base, target).unwrap_or_else(|| panic!("no orientation for {target:?}"));
            assert_eq!(found.dims(), target);
            assert_eq!(found.rank(), base.rank());
        }
        assert!(to_dims(&base, (5, 2, 2)).is_none());
    }

    #[test]
    fn orientation_dims_are_the_built_dims() {
        let base = stack_n(&classical(2, 3, 2), &classical(2, 3, 2)); // <2,3,4>
        for o in 0..6 {
            assert_eq!(orientation(&base, o).dims(), orientation_dims(base.dims(), o), "{o}");
        }
    }

    #[test]
    fn orientations_of_strassen_are_all_2x2x2_rank_7() {
        for o in all_orientations(&strassen()) {
            assert_eq!(o.dims(), (2, 2, 2));
            assert_eq!(o.rank(), 7);
        }
    }
}
