//! Constructive algorithms for every paper shape, searched by rank.
//!
//! For shapes whose published rank is attainable by composition (the
//! `{2,2,3}` / `{2,2,4}` / `{2,2,5}` permutation families), the construction
//! *is* the registry algorithm. For shapes that require numerically
//! discovered decompositions (Smirnov / Benson–Ballard), these constructions
//! are the fallback used when no discovered algorithm is available; they are
//! valid FMM algorithms of somewhat higher rank, and the Fig. 2 scoreboard
//! shows both ranks side by side.
//!
//! A candidate's rank follows from how it is made: the classical
//! `<m̃,k̃,ñ>` algorithm has rank `m̃k̃ñ`, a direct sum ([`stack_m`],
//! [`stack_k`], [`stack_n`]) adds its parts' ranks, [`nest`] multiplies
//! them and a symmetry orientation keeps the rank. So `Builder::rank`
//! compares candidates by rank alone and records each shape's winning
//! recipe; it builds no matrix and verifies nothing. Only
//! `Builder::algorithm` builds, for a shape a caller keeps: it composes the
//! recipe's tree through the verifying constructors of [`crate::compose`],
//! so the algorithm and every block it is made of pass the exact
//! Brent-equation check once (blocks are memoized). A losing candidate is
//! never built.

use super::strassen::strassen;
use super::Registry;
use crate::algorithm::FmmAlgorithm;
use crate::compose::{classical, nest, orientation, orientation_dims, stack_k, stack_m, stack_n};
use std::collections::HashMap;
use std::sync::Arc;

type Dims = (usize, usize, usize);

/// How the best candidate the search found for one shape is made.
#[derive(Clone)]
enum Recipe {
    /// The classical algorithm.
    Classical,
    /// Orientation `o` ([`orientation`]) of a seed algorithm.
    Oriented(Arc<FmmAlgorithm>, usize),
    /// A direct sum along `m̃` whose first part has this many block rows.
    StackM(usize),
    /// A direct sum along `k̃` whose first part has this many block columns.
    StackK(usize),
    /// A direct sum along `ñ` whose first part has this many block columns.
    StackN(usize),
    /// A Kronecker nesting with this outer shape (the inner is the quotient).
    Nest(Dims),
}

/// Memoizing constructive-algorithm builder over a base registry.
pub(crate) struct Builder {
    best: HashMap<Dims, (usize, Recipe)>,
    built: HashMap<Dims, Arc<FmmAlgorithm>>,
}

impl Builder {
    /// Seed the memo with Strassen, then every registry entry *and all its
    /// symmetry orientations* (the first of equal rank wins), so discovered
    /// low-rank algorithms propagate into the compositions of larger shapes.
    /// Only ranks are recorded: an orientation is built when a composed
    /// recipe uses it.
    pub(crate) fn new(reg: &Registry) -> Self {
        let mut best = HashMap::new();
        for seed in std::iter::once(&Arc::new(strassen())).chain(reg.all()) {
            for o in 0..6 {
                let dims = orientation_dims(seed.dims(), o);
                if best.get(&dims).is_none_or(|&(rank, _)| seed.rank() < rank) {
                    best.insert(dims, (seed.rank(), Recipe::Oriented(seed.clone(), o)));
                }
            }
        }
        Self { best, built: HashMap::new() }
    }

    /// Rank of the best candidate for `dims`, searched but not built.
    pub(crate) fn rank(&mut self, dims: Dims) -> usize {
        if let Some(&(rank, _)) = self.best.get(&dims) {
            return rank;
        }
        let found = self.search(dims);
        let rank = found.0;
        self.best.insert(dims, found);
        rank
    }

    /// The best candidate for `dims` from splits and nestings, by rank; the
    /// first of equal rank wins.
    fn search(&mut self, (m, k, n): Dims) -> (usize, Recipe) {
        assert!(m >= 1 && k >= 1 && n >= 1, "partition dims must be positive");
        let mut best = (m * k * n, Recipe::Classical);
        let mut consider = |rank: usize, recipe: Recipe| {
            if rank < best.0 {
                best = (rank, recipe);
            }
        };
        // Direct-sum splits along each dimension.
        for m1 in 1..=m / 2 {
            consider(self.rank((m1, k, n)) + self.rank((m - m1, k, n)), Recipe::StackM(m1));
        }
        for k1 in 1..=k / 2 {
            consider(self.rank((m, k1, n)) + self.rank((m, k - k1, n)), Recipe::StackK(k1));
        }
        for n1 in 1..=n / 2 {
            consider(self.rank((m, k, n1)) + self.rank((m, k, n - n1)), Recipe::StackN(n1));
        }
        // Kronecker nestings over non-trivial factorizations.
        for (m1, m2) in factor_pairs(m) {
            for (k1, k2) in factor_pairs(k) {
                for (n1, n2) in factor_pairs(n) {
                    if m1 * k1 * n1 == 1 || m2 * k2 * n2 == 1 {
                        continue;
                    }
                    let rank = self.rank((m1, k1, n1)) * self.rank((m2, k2, n2));
                    consider(rank, Recipe::Nest((m1, k1, n1)));
                }
            }
        }
        best
    }

    /// The best candidate for `dims`, built and verified, named `<m,k,n>`.
    pub(crate) fn algorithm(&mut self, dims: Dims) -> FmmAlgorithm {
        let (m, k, n) = dims;
        (*self.compose(dims)).clone().with_name(format!("<{m},{k},{n}>"))
    }

    /// Build `dims`' recipe from its (memoized) blocks.
    fn compose(&mut self, dims: Dims) -> Arc<FmmAlgorithm> {
        if let Some(hit) = self.built.get(&dims) {
            return hit.clone();
        }
        self.rank(dims);
        let (m, k, n) = dims;
        let algo = match self.best[&dims].1.clone() {
            Recipe::Classical => classical(m, k, n),
            Recipe::Oriented(seed, o) => orientation(&seed, o),
            Recipe::StackM(m1) => stack_m(&self.compose((m1, k, n)), &self.compose((m - m1, k, n))),
            Recipe::StackK(k1) => stack_k(&self.compose((m, k1, n)), &self.compose((m, k - k1, n))),
            Recipe::StackN(n1) => stack_n(&self.compose((m, k, n1)), &self.compose((m, k, n - n1))),
            Recipe::Nest((m1, k1, n1)) => {
                nest(&self.compose((m1, k1, n1)), &self.compose((m / m1, k / k1, n / n1)))
            }
        };
        let algo = Arc::new(algo);
        self.built.insert(dims, algo.clone());
        algo
    }
}

/// Best constructive algorithm for partition dims `target`, consulting
/// `reg` for already-registered building blocks.
pub fn best_constructive(target: Dims, reg: &Registry) -> FmmAlgorithm {
    Builder::new(reg).algorithm(target)
}

fn factor_pairs(x: usize) -> Vec<(usize, usize)> {
    (1..=x).filter(|d| x.is_multiple_of(*d)).map(|d| (d, x / d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal registry holding only Strassen, so these tests measure
    /// what the constructive generator achieves on its own.
    fn empty_reg() -> Registry {
        Registry::from_algorithms(vec![strassen()])
    }

    #[test]
    fn constructive_ranks_for_strassen_family() {
        let mut b = Builder::new(&empty_reg());
        let targets = [
            ((2, 2, 3), 11),
            ((2, 3, 2), 11),
            ((3, 2, 2), 11),
            ((2, 2, 4), 14),
            ((4, 2, 2), 14),
            ((2, 2, 5), 18),
            ((2, 5, 2), 18),
            ((5, 2, 2), 18),
        ];
        for (dims, want) in targets {
            let algo = b.algorithm(dims);
            assert_eq!(algo.dims(), dims);
            assert_eq!(algo.rank(), b.rank(dims), "{dims:?}: built rank differs from searched");
            assert!(algo.rank() <= want, "{dims:?}: got rank {}, want <= {want}", algo.rank());
        }
    }

    #[test]
    fn constructive_never_worse_than_classical() {
        let mut b = Builder::new(&empty_reg());
        for entry in super::super::PAPER_TABLE {
            let algo = b.algorithm(entry.dims);
            assert_eq!(algo.rank(), b.rank(entry.dims), "{:?}", entry.dims);
            assert!(algo.rank() <= algo.classical_rank(), "{:?}", algo.dims());
        }
    }

    #[test]
    fn uneven_split_shapes_work() {
        let a = best_constructive((3, 3, 3), &empty_reg());
        assert_eq!(a.dims(), (3, 3, 3));
        assert_eq!(a.name(), "<3,3,3>");
        assert!(a.rank() < 27, "rank {}", a.rank());
    }

    #[test]
    fn builder_memoizes_blocks() {
        let mut b = Builder::new(&empty_reg());
        let x = b.compose((3, 3, 3));
        let y = b.compose((3, 3, 3));
        assert!(Arc::ptr_eq(&x, &y));
    }

    #[test]
    fn discovered_blocks_improve_compositions() {
        // Registering a better <2,2,3> (rank 11 vs classical 12) must make
        // the (2,2,6) composition at most 22 = 11 + 11.
        let a226 = Builder::new(&empty_reg()).algorithm((2, 2, 6));
        assert!(a226.rank() <= 22, "rank {}", a226.rank());
    }

    #[test]
    fn factor_pairs_enumerates_divisors() {
        assert_eq!(factor_pairs(6), vec![(1, 6), (2, 3), (3, 2), (6, 1)]);
        assert_eq!(factor_pairs(1), vec![(1, 1)]);
    }
}
