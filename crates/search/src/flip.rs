//! The flip graph over GF(2) (Kauers & Moosbauer, "Flip graphs for matrix
//! multiplication", ISSAC 2023): the one stage of every search restart.
//!
//! A scheme is a list of rank-one terms `a ⊗ b ⊗ c` whose sum is the
//! matrix multiplication tensor mod 2. Each factor is one `u64` bitmask
//! over its mode: bit `i` of a term's first factor is `U[i, r]` mod 2.
//! A *flip* rewrites two terms that share a factor,
//!
//! ```text
//! a⊗b⊗c + a⊗b'⊗c'  =  a⊗(b+b')⊗c + a⊗b'⊗(c'+c)      (mod 2),
//! ```
//!
//! so the sum never changes. A *reduction* drops a term with a zero factor
//! and merges two terms that share two factors, `a⊗b⊗c + a⊗b⊗c' =
//! a⊗b⊗(c+c')`, which lowers the rank. A walk starts at the classical
//! algorithm, flips at random and reduces after every flip; each scheme it
//! holds at or below the target rank goes to [`lift`]. Everything is exact
//! bit arithmetic, so there is no residual, schedule or grid to tune.

use crate::lift::lift;
use crate::runner::Target;
use fmm_core::{CoeffMatrix, FmmAlgorithm};
use rand::rngs::StdRng;
use rand::Rng;

/// Flip attempts in a row without a reduction that end a restart.
const PLATEAU: usize = 100_000;

/// A decomposition of the matrix multiplication tensor over GF(2).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Scheme {
    /// One `[a, b, c]` per rank-one term, in the `U`, `V`, `W` modes.
    terms: Vec<[u64; 3]>,
}

impl Scheme {
    /// `algo` mod 2: a factor's bit is set where its coefficient is odd.
    /// Panics on a non-integer coefficient or a mode wider than 64 rows.
    pub(crate) fn mod2(algo: &FmmAlgorithm) -> Self {
        let mats = [algo.u(), algo.v(), algo.w()];
        assert!(mats.iter().all(|m| m.rows() <= 64), "a mode is wider than 64 rows");
        let bits = |m: &CoeffMatrix, r: usize| {
            (0..m.rows()).fold(0, |acc, i| {
                let x = m.at(i, r);
                assert_eq!(x, x.trunc(), "non-integer coefficient {x}");
                acc | u64::from(x.rem_euclid(2.0) == 1.0) << i
            })
        };
        Self { terms: (0..algo.rank()).map(|r| mats.map(|m| bits(m, r))).collect() }
    }

    /// Number of terms.
    pub(crate) fn rank(&self) -> usize {
        self.terms.len()
    }

    /// The terms, `[a, b, c]` each.
    pub(crate) fn terms(&self) -> &[[u64; 3]] {
        &self.terms
    }

    /// Flip a random pair of terms that share a factor: pick a term and a
    /// mode, a partner sharing that mode's factor, and which of the other
    /// two modes takes the sum. Returns `false`, changing nothing, if the
    /// picked term has no partner in that mode.
    pub(crate) fn flip(&mut self, rng: &mut StdRng) -> bool {
        let i = rng.gen_range(0..self.terms.len());
        let mode = rng.gen_range(0..3usize);
        let (terms, shared) = (&self.terms, self.terms[i][mode]);
        let partners = || (0..terms.len()).filter(move |&j| j != i && terms[j][mode] == shared);
        let count = partners().count();
        if count == 0 {
            return false;
        }
        let j = partners().nth(rng.gen_range(0..count)).expect("counted above");
        let (x, y) = if rng.gen() { (1, 2) } else { (2, 1) };
        let (x, y) = ((mode + x) % 3, (mode + y) % 3);
        self.terms[i][x] ^= self.terms[j][x];
        self.terms[j][y] ^= self.terms[i][y];
        true
    }

    /// Drop every term with a zero factor and merge every two terms that
    /// share two factors, until neither applies. Two equal terms cancel:
    /// their merge has a zero factor.
    pub(crate) fn reduce(&mut self) {
        'again: loop {
            if let Some(i) = self.terms.iter().position(|t| t.contains(&0)) {
                self.terms.swap_remove(i);
                continue;
            }
            for i in 0..self.terms.len() {
                for j in i + 1..self.terms.len() {
                    let (s, t) = (self.terms[i], self.terms[j]);
                    if (0..3).filter(|&m| s[m] == t[m]).count() >= 2 {
                        let m = (0..3).find(|&m| s[m] != t[m]).unwrap_or(0);
                        self.terms[i][m] ^= t[m];
                        self.terms.swap_remove(j);
                        continue 'again;
                    }
                }
            }
            return;
        }
    }
}

/// One restart: walk from the classical scheme until a scheme at or below
/// the target rank lifts, the walk stalls for [`PLATEAU`] flip attempts, or
/// the budget is spent. Lowers `best_rank` to the lowest rank the walk reached.
pub(crate) fn walk(
    target: &Target,
    rng: &mut StdRng,
    best_rank: &mut usize,
) -> Option<FmmAlgorithm> {
    let mut scheme = target.classical.clone();
    let (mut stale, mut changed) = (0, true);
    while stale < PLATEAU && !target.expired() {
        *best_rank = (*best_rank).min(scheme.rank());
        if changed && scheme.rank() <= target.rank {
            if let Some(algo) = lift(&target.tensor, &scheme, &target.name) {
                return Some(algo);
            }
        }
        let rank = scheme.rank();
        changed = scheme.flip(rng);
        if changed {
            scheme.reduce();
        }
        stale = if scheme.rank() < rank { 0 } else { stale + 1 };
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::MatMulTensor;
    use fmm_core::compose::classical;
    use rand::SeedableRng;

    /// Whether the terms of `s` sum to `t` mod 2.
    fn decomposes(s: &Scheme, t: &MatMulTensor) -> bool {
        let (da, db, dc) = t.mode_sizes();
        (0..da * db * dc).all(|idx| {
            let (a, b, c) = (idx / (db * dc), idx / dc % db, idx % dc);
            let sum =
                s.terms().iter().fold(0, |acc, &[u, v, w]| acc ^ (u >> a & v >> b & w >> c & 1));
            sum == t.at(a, b, c) as u64
        })
    }

    #[test]
    fn mod2_reads_odd_coefficients() {
        let s = Scheme::mod2(&fmm_core::registry::strassen());
        assert_eq!(s.rank(), 7);
        // Strassen's M1 = (A11 + A22)(B11 + B22) and C11, C22 += M1.
        assert_eq!(s.terms()[0], [0b1001, 0b1001, 0b1001]);
        assert!(decomposes(&s, &MatMulTensor::new(2, 2, 2)));
    }

    #[test]
    fn flips_and_reductions_keep_the_tensor_mod_2() {
        let t = MatMulTensor::new(2, 2, 3);
        let mut s = Scheme::mod2(&classical(2, 2, 3));
        let mut rng = StdRng::seed_from_u64(3);
        let mut reductions = 0;
        for flip in 0..10_000 {
            let rank = s.rank();
            while !s.flip(&mut rng) {}
            s.reduce();
            reductions += usize::from(s.rank() < rank);
            assert!(decomposes(&s, &t), "after flip {flip}");
            assert!(s.terms().iter().all(|t| !t.contains(&0)));
        }
        assert!(reductions > 0);
    }

    #[test]
    fn reduce_merges_terms_sharing_two_factors() {
        let mut s = Scheme { terms: vec![[1, 2, 4], [1, 2, 8], [3, 3, 3], [3, 3, 3], [5, 0, 1]] };
        s.reduce();
        assert_eq!(s.terms, vec![[1, 2, 12]]);
    }
}
