//! The search driver: one restart loop on one clock. Each restart draws
//! its own RNG from `(seed, restart)` and walks the flip graph from the
//! classical algorithm ([`crate::flip`]), lifting what reaches the target
//! rank to ℤ ([`crate::lift`]).

use crate::flip::{walk, Scheme};
use crate::tensor::MatMulTensor;
use fmm_core::compose::classical;
use fmm_core::FmmAlgorithm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Configuration of one search campaign.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Partition dims to decompose; each of `m̃k̃`, `k̃ñ` and `m̃ñ` is at
    /// most 64.
    pub dims: (usize, usize, usize),
    /// Target rank `R`: a find has at most `R` products.
    pub rank: usize,
    /// Wall-clock budget: the only thing that ends a campaign without a
    /// find. Restarts run until it is spent.
    pub budget: Duration,
    /// Campaign seed. Restart `i` draws from `restart_seed(seed, i)`, so a
    /// campaign is reproducible and distinct seeds share no restart.
    pub seed: u64,
}

/// Result of a search campaign.
#[derive(Debug)]
pub struct SearchOutcome {
    /// A verified algorithm, if one was found.
    pub algorithm: Option<FmmAlgorithm>,
    /// Restarts attempted; a find came from the last one.
    pub restarts_run: usize,
    /// The lowest rank any walk reached over GF(2), lifted or not.
    pub best_rank: usize,
    /// Total wall-clock spent.
    pub elapsed: Duration,
}

/// What every restart of one campaign shares.
pub(crate) struct Target {
    pub(crate) tensor: MatMulTensor,
    pub(crate) rank: usize,
    /// Where every walk starts: the classical algorithm mod 2.
    pub(crate) classical: Scheme,
    /// Name given to a verified find.
    pub(crate) name: String,
    start: Instant,
    budget: Duration,
}

impl Target {
    /// Whether the campaign's budget is spent; every walk checks this.
    pub(crate) fn expired(&self) -> bool {
        self.start.elapsed() > self.budget
    }
}

/// Run a search campaign: restarts until an algorithm of at most the
/// target rank verifies or the budget is spent.
///
/// # Panics
///
/// If a mode of `config.dims` (`m̃k̃`, `k̃ñ` or `m̃ñ`) exceeds 64.
pub fn search(config: &SearchConfig) -> SearchOutcome {
    let (m, k, n) = config.dims;
    let target = Target {
        tensor: MatMulTensor::new(m, k, n),
        rank: config.rank,
        classical: Scheme::mod2(&classical(m, k, n)),
        name: format!("discovered<{m},{k},{n}>"),
        start: Instant::now(),
        budget: config.budget,
    };
    let mut best_rank = target.classical.rank();
    let mut restarts_run = 0;
    let mut algorithm = None;
    while algorithm.is_none() && !target.expired() {
        let mut rng = StdRng::seed_from_u64(restart_seed(config.seed, restarts_run));
        restarts_run += 1;
        algorithm = walk(&target, &mut rng, &mut best_rank);
    }
    SearchOutcome { algorithm, restarts_run, best_rank, elapsed: target.start.elapsed() }
}

/// The RNG seed of restart `i`: the seed xor `i` times the 32-bit golden
/// ratio. Unlike `seed + i`, the campaigns of seeds `s` and `s + 1` do not
/// replay each other's starts shifted by one.
fn restart_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn config(rank: usize, budget: Duration, seed: u64) -> SearchConfig {
        SearchConfig { dims: (2, 2, 2), rank, budget, seed }
    }

    #[test]
    fn finds_classical_rank_decomposition_immediately() {
        // <2,2,2> at rank 8 — abundant solutions, a couple of restarts max.
        let out = search(&config(8, Duration::from_secs(20), 0xF33D));
        let algo = out.algorithm.expect("rank-8 <2,2,2> must be found");
        assert_eq!(algo.rank(), 8);
        assert_eq!(algo.dims(), (2, 2, 2));
    }

    #[test]
    fn finds_strassen_rank_7() {
        // The flagship sanity check of the whole pipeline: rediscover
        // Strassen's rank-7 decomposition from the classical algorithm.
        let out = search(&config(7, Duration::from_secs(120), 6));
        let algo = out.algorithm.unwrap_or_else(|| {
            panic!(
                "rank-7 <2,2,2> not found in {} restarts (best rank {})",
                out.restarts_run, out.best_rank
            )
        });
        assert_eq!(algo.rank(), 7);
    }

    #[test]
    fn rank_6_strassen_is_never_found() {
        // Rank(<2,2,2>) = 7 is a theorem, over GF(2) too; the search must
        // come up empty, and only the budget stops it.
        let out = search(&config(6, Duration::from_secs(2), 0xF33D));
        assert!(out.algorithm.is_none());
        assert_eq!(out.best_rank, 7);
    }

    #[test]
    fn budget_is_respected() {
        let out = search(&SearchConfig {
            dims: (3, 3, 3),
            rank: 23,
            budget: Duration::from_millis(300),
            seed: 0xF33D,
        });
        assert!(out.elapsed < Duration::from_secs(15));
        assert!(out.restarts_run < 1_000_000);
    }

    #[test]
    fn adjacent_seeds_share_no_restart() {
        for s in [0, 1, 2, 0xF33D, 0xA11EA1] {
            let here: HashSet<u64> = (0..10_000).map(|i| restart_seed(s, i)).collect();
            assert_eq!(here.len(), 10_000, "seed {s} repeats a restart");
            assert!(
                (0..10_000).all(|i| !here.contains(&restart_seed(s + 1, i))),
                "seeds {s} and {} share a restart",
                s + 1
            );
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_find() {
        // Rank 7, so the walk and the lift run (rank 8 is the start).
        let run = || search(&config(7, Duration::from_secs(120), 7));
        let (first, second) = (run(), run());
        let (a, b) = (first.algorithm.expect("rank 7 found"), second.algorithm.expect("again"));
        assert_eq!(first.restarts_run, second.restarts_run);
        assert_eq!((a.u(), a.v(), a.w()), (b.u(), b.v(), b.w()));
    }

    /// Search `dims` at `rank` with a 60 s budget; panics without a find.
    fn find(dims: (usize, usize, usize), rank: usize) -> FmmAlgorithm {
        let out = search(&SearchConfig { dims, rank, budget: Duration::from_secs(60), seed: 1 });
        let algo = out.algorithm.unwrap_or_else(|| {
            panic!(
                "{dims:?} rank {rank}: best rank {} in {} restarts",
                out.best_rank, out.restarts_run
            )
        });
        assert_eq!((algo.dims(), algo.rank()), (dims, rank));
        algo
    }

    #[test]
    fn finds_the_registry_rank_11() {
        // `registry/data/` holds one algorithm, <2,2,3> at rank 11.
        find((2, 2, 3), 11);
    }

    #[test]
    fn finds_the_papers_rank_15_shapes() {
        // The paper's Fig. 2 ranks for <3,2,3> and <3,3,2>; the registry
        // holds rank 17 for both. Each takes well under a second in
        // release and a few in debug, so both builds run it.
        find((3, 2, 3), 15);
        find((3, 3, 2), 15);
    }
}
