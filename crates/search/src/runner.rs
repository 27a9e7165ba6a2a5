//! The search driver: one restart loop on one clock. Each restart draws
//! its own RNG from `(seed, restart)` and runs two stages on it — the
//! discrete annealer, then the ALS → round → repair funnel.

use crate::als::{self, AlsOptions, Factors};
use crate::anneal::anneal;
use crate::repair;
use crate::rounding::{self, DEFAULT_GRID};
use crate::tensor::MatMulTensor;
use fmm_core::FmmAlgorithm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Configuration of one search campaign.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Partition dims to decompose.
    pub dims: (usize, usize, usize),
    /// Target rank `R`.
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
    /// Best squared residual seen across restarts (diagnostic).
    pub best_residual: f64,
    /// Total wall-clock spent.
    pub elapsed: Duration,
}

/// What every stage of one campaign shares.
pub(crate) struct Target {
    pub(crate) tensor: MatMulTensor,
    pub(crate) rank: usize,
    /// Name given to a verified find.
    pub(crate) name: String,
    start: Instant,
    budget: Duration,
}

impl Target {
    /// Whether the campaign's budget is spent; every stage checks this.
    pub(crate) fn expired(&self) -> bool {
        self.start.elapsed() > self.budget
    }
}

/// Run a search campaign: restarts until an algorithm of the target rank
/// verifies or the budget is spent.
pub fn search(config: &SearchConfig) -> SearchOutcome {
    let (m, k, n) = config.dims;
    let target = Target {
        tensor: MatMulTensor::new(m, k, n),
        rank: config.rank,
        name: format!("discovered<{m},{k},{n}>"),
        start: Instant::now(),
        budget: config.budget,
    };
    let mut best_residual = f64::INFINITY;
    let mut restarts_run = 0;
    let mut algorithm = None;
    while algorithm.is_none() && !target.expired() {
        let mut rng = StdRng::seed_from_u64(restart_seed(config.seed, restarts_run));
        restarts_run += 1;
        algorithm = anneal(&target, &mut rng, &mut best_residual)
            .or_else(|| funnel(&target, &mut rng, &mut best_residual));
    }
    SearchOutcome { algorithm, restarts_run, best_residual, elapsed: target.start.elapsed() }
}

/// The RNG seed of restart `i`: the seed xor `i` times the 32-bit golden
/// ratio. Unlike `seed + i`, the campaigns of seeds `s` and `s + 1` do not
/// replay each other's starts shifted by one.
fn restart_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9)
}

/// ALS sweeps per funnel restart, over three ridge stages.
const SWEEPS: usize = 400;

/// Residual below which the funnel tries to round and repair.
const FINALIZE_THRESHOLD: f64 = 0.5;

/// One ALS → round → repair restart from a random continuous start.
/// Lowers `best` to the lowest residual reached.
fn funnel(target: &Target, rng: &mut StdRng, best: &mut f64) -> Option<FmmAlgorithm> {
    let t = &target.tensor;
    let mut f = Factors::random(t, target.rank, rng);
    // Stage 1 — annealed ridge ALS: strong regularization early (keeps
    // entries tame), weak late (lets the residual reach zero).
    let mut res = f64::INFINITY;
    for (ridge, sweeps) in [(1e-2, SWEEPS / 4), (1e-3, SWEEPS / 4), (1e-6, SWEEPS / 2)] {
        res = als::run(t, &mut f, &AlsOptions { ridge, clamp: 2.5 }, sweeps, 1e-10);
        if target.expired() {
            break;
        }
    }
    *best = best.min(res);
    if res >= FINALIZE_THRESHOLD {
        return None;
    }
    // Stage 2 — quantization-regularized ALS: the continuous solution
    // sits on a scaling orbit; ramping the proximal pull `mu` walks it
    // to a discrete representative without leaving the residual basin.
    rounding::normalize_columns(&mut f.u, &mut f.v, &mut f.w);
    let opts = AlsOptions { ridge: 1e-9, clamp: 2.5 };
    let mut mu = 0.005;
    while mu < 4.0 {
        for _ in 0..6 {
            if !als::sweep_discrete(t, &mut f, &opts, mu, DEFAULT_GRID) {
                break;
            }
        }
        let res_now = f.residual_sq(t);
        *best = best.min(res_now);
        if als::discreteness(&f, DEFAULT_GRID) < 0.03 && res_now < 0.01 {
            if let Some(algo) = repair::finalize(t, &f, &target.name, DEFAULT_GRID) {
                return Some(algo);
            }
        }
        if target.expired() {
            break;
        }
        mu *= 1.7;
    }
    // Last-ditch finalize even if the discreteness test never fired.
    repair::finalize(t, &f, &target.name, DEFAULT_GRID)
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
        // Strassen's rank-7 decomposition from random starts. The campaign
        // is seeded for determinism: this seed finds it at restart 157
        // (seeds 1-8 take 142-838 restarts of ~24 ms each in release).
        // Debug builds run the annealer ~20x slower; skip there (covered by
        // `cargo test --release`).
        if cfg!(debug_assertions) {
            return;
        }
        let out = search(&config(7, Duration::from_secs(120), 6));
        let algo = out.algorithm.unwrap_or_else(|| {
            panic!(
                "rank-7 <2,2,2> not found in {} restarts (best residual {})",
                out.restarts_run, out.best_residual
            )
        });
        assert_eq!(algo.rank(), 7);
    }

    #[test]
    fn rank_6_strassen_is_never_found() {
        // Rank(<2,2,2>) = 7 is a theorem; the search must come up empty,
        // and only the budget stops it.
        let out = search(&config(6, Duration::from_secs(2), 0xF33D));
        assert!(out.algorithm.is_none());
        assert!(out.best_residual > 0.1, "residual {}", out.best_residual);
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
        let run = || search(&config(8, Duration::from_secs(120), 7));
        let (first, second) = (run(), run());
        let (a, b) = (first.algorithm.expect("rank 8 found"), second.algorithm.expect("again"));
        assert_eq!(first.restarts_run, second.restarts_run);
        assert_eq!((a.u(), a.v(), a.w()), (b.u(), b.v(), b.w()));
    }
}
