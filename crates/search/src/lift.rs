//! Hensel lifting: from a scheme over GF(2) to an algorithm over ℤ.
//!
//! Factors `(U, V, W)` that decompose the tensor mod `2^s` lift to mod
//! `2^(s+1)` by adding `2^s·(ΔU, ΔV, ΔW)`. The residual `T − Σ u⊗v⊗w` is
//! `2^s·E`, and to first order the correction solves the linearised Brent
//! equations `Σ ΔU⊗v⊗w + u⊗ΔV⊗w + u⊗v⊗ΔW ≡ E (mod 2)`, whose matrix
//! depends only on the scheme mod 2. Each step solves them by bitset
//! Gaussian elimination and takes the particular solution with every free
//! variable at zero. The factors are kept as symmetric residues mod
//! `2^(s+1)`, so small integer coefficients read off directly; after
//! [`STEPS`] steps `FmmAlgorithm::new` decides whether they hold over ℤ.

use crate::flip::Scheme;
use crate::linalg::Mat;
use crate::repair::to_algorithm;
use crate::tensor::MatMulTensor;
use fmm_core::FmmAlgorithm;

/// Lifting steps: the factors are read mod `2^(STEPS+1)`, i.e. in
/// `(-64, 64]`, far wider than any coefficient of a practical algorithm.
const STEPS: u32 = 6;

/// Lift `scheme` to an integer algorithm verified through
/// `FmmAlgorithm::new`, or `None` if it does not decompose `t` mod 2, a
/// step's equations are inconsistent, or the result fails over ℤ.
pub(crate) fn lift(t: &MatMulTensor, scheme: &Scheme, name: &str) -> Option<FmmAlgorithm> {
    let (da, db, dc) = t.mode_sizes();
    let r = scheme.rank();
    // `U`, `V` and `W` row-major and end to end, so entry `x[var]` is
    // variable `var` of the linearised equations.
    let mut x: Vec<f64> = [da, db, dc]
        .into_iter()
        .enumerate()
        .flat_map(|(mode, rows)| {
            (0..rows * r).map(move |y| (scheme.terms()[y % r][mode] >> (y / r) & 1) as f64)
        })
        .collect();
    let vars = x.len();
    let split = |x: &[f64]| {
        let (u, vw) = x.split_at(da * r);
        let (v, w) = vw.split_at(db * r);
        [u, v, w].map(<[f64]>::to_vec)
    };
    let residual = |x: &[f64]| {
        let [u, v, w] = split(x);
        t.residual(&u, &v, &w, r)
    };
    let equations = linearised(t, scheme);
    let mut e = residual(&x);
    if e.iter().any(|&y| y as i64 & 1 != 0) {
        return None;
    }
    for s in 1..=STEPS {
        if e.iter().all(|&y| y == 0.0) {
            break;
        }
        let mut rows = equations.clone();
        for (row, &y) in rows.iter_mut().zip(&e) {
            row[vars / 64] |= ((y as i64 >> s) as u64 & 1) << (vars % 64);
        }
        let (step, modulus) = (f64::from(1 << s), f64::from(2 << s));
        for var in solve_gf2(rows, vars)? {
            x[var] += step;
        }
        for y in &mut x {
            *y = y.rem_euclid(modulus);
            if *y > modulus / 2.0 {
                *y -= modulus;
            }
        }
        e = residual(&x);
    }
    let [u, v, w] = split(&x);
    let mat = |rows, data| Mat::from_rows(rows, r, data);
    to_algorithm(t, &mat(da, u), &mat(db, v), &mat(dc, w), name).ok()
}

/// The linearised Brent equations mod 2, one bitset row per equation
/// `(a, b, c)` in the residual's order. Variable `i·R + q` of a mode is
/// entry `[i, q]` of its factor; `U`'s come first, then `V`'s, then
/// `W`'s, and one spare bit after the last holds the right-hand side.
fn linearised(t: &MatMulTensor, scheme: &Scheme) -> Vec<Vec<u64>> {
    let (da, db, dc) = t.mode_sizes();
    let r = scheme.rank();
    let words = r * (da + db + dc) / 64 + 1;
    let mut rows = vec![vec![0u64; words]; da * db * dc];
    for (idx, row) in rows.iter_mut().enumerate() {
        let (a, b, c) = (idx / (db * dc), idx / dc % db, idx % dc);
        for (q, &[u, v, w]) in scheme.terms().iter().enumerate() {
            let (u, v, w) = (u >> a & 1, v >> b & 1, w >> c & 1);
            for (var, on) in
                [(a * r + q, v & w), ((da + b) * r + q, u & w), ((da + db + c) * r + q, u & v)]
            {
                row[var / 64] |= on << (var % 64);
            }
        }
    }
    rows
}

/// Solve `A·x = b` over GF(2), `rows` holding one bitset per equation with
/// `b` in bit `vars`. Returns the variables set in the particular solution
/// whose free variables are zero, or `None` if the system is inconsistent.
fn solve_gf2(mut rows: Vec<Vec<u64>>, vars: usize) -> Option<Vec<usize>> {
    let bit = |row: &[u64], j: usize| row[j / 64] >> (j % 64) & 1 == 1;
    let mut pivots = Vec::new();
    for col in 0..vars {
        let top = pivots.len();
        let Some(p) = (top..rows.len()).find(|&i| bit(&rows[i], col)) else { continue };
        rows.swap(top, p);
        let (above, rest) = rows.split_at_mut(top);
        let (pivot, below) = rest.split_first_mut().expect("row `top` exists");
        for row in above.iter_mut().chain(below) {
            if bit(row, col) {
                // Words left of `col` hold only free columns in the pivot.
                for (x, y) in row[col / 64..].iter_mut().zip(&pivot[col / 64..]) {
                    *x ^= y;
                }
            }
        }
        pivots.push(col);
    }
    if rows[pivots.len()..].iter().any(|row| bit(row, vars)) {
        return None;
    }
    Some(pivots.iter().enumerate().filter(|&(i, _)| bit(&rows[i], vars)).map(|(_, &c)| c).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::registry::strassen;

    #[test]
    fn strassen_mod_2_lifts_to_a_verified_algorithm() {
        let t = MatMulTensor::new(2, 2, 2);
        let algo = lift(&t, &Scheme::mod2(&strassen()), "lifted").expect("Strassen lifts");
        assert_eq!((algo.rank(), algo.dims()), (7, (2, 2, 2)));
    }

    #[test]
    fn a_scheme_with_one_bit_flipped_is_refused() {
        let (t, s) = (MatMulTensor::new(2, 2, 2), strassen());
        let mut u = s.u().clone();
        u.set(1, 3, if u.at(1, 3) == 0.0 { 1.0 } else { 0.0 });
        let broken =
            FmmAlgorithm::new_unchecked("broken", (2, 2, 2), u, s.v().clone(), s.w().clone());
        assert!(lift(&t, &Scheme::mod2(&broken), "broken").is_none());
    }

    #[test]
    fn solve_gf2_takes_free_variables_at_zero() {
        // x0 + x1 = 1 and x1 + x2 = 0: x2 is free, and at zero it gives
        // x1 = 0 and x0 = 1.
        let rows = vec![vec![0b1011], vec![0b0110]];
        assert_eq!(solve_gf2(rows, 3), Some(vec![0]));
        // x0 = 1 and x0 = 0 together are inconsistent.
        assert_eq!(solve_gf2(vec![vec![0b11], vec![0b01]], 1), None);
    }
}
