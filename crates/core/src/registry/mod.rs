//! The named algorithm family (paper Figure 2).
//!
//! The registry holds one verified algorithm per `<m̃,k̃,ñ>` shape the paper
//! evaluates. Provenance is threefold:
//!
//! 1. **Paper-exact**: Strassen's `[[U,V,W]]` transcribed from eq. (4), plus
//!    Winograd's variant.
//! 2. **Constructive**: direct sums / nesting / symmetry orientations of the
//!    base algorithms ([`crate::compose`]). These reproduce the published
//!    ranks for the `{2,2,3}`, `{2,2,4}` and `{2,2,5}` permutation families.
//! 3. **Discovered**: algorithms found by the `fmm-search` crate (flip-graph
//!    walks over GF(2), Hensel-lifted to ℤ), stored as JSON in
//!    `registry/data/` and re-verified at load time.
//!
//! Every entry passes the exact Brent-equation check; shapes where the best
//! verified rank exceeds the published rank show as such in
//! [`Registry::paper_rows`] (`r_paper` vs. the registry rank). The Fig. 2
//! scoreboard test in this module pins every shape's rank and nonzeros.

mod discovered;
mod family;
mod strassen;

pub use self::strassen::{strassen, winograd};
pub use discovered::discovered_algorithms;
pub use family::best_constructive;

use crate::algorithm::FmmAlgorithm;
use crate::compose;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One row of the paper's Figure 2 table.
#[derive(Clone, Debug)]
pub struct PaperEntry {
    /// Partition dimensions `<m̃, k̃, ñ>`.
    pub dims: (usize, usize, usize),
    /// Rank reported in the paper (Fig. 2, column `R`).
    pub r_paper: usize,
    /// Source cited by the paper for this algorithm.
    pub source: &'static str,
}

/// The 23 `<m̃,k̃,ñ>` algorithms of the paper's Figure 2, with their
/// published ranks.
pub const PAPER_TABLE: &[PaperEntry] = &[
    PaperEntry { dims: (2, 2, 2), r_paper: 7, source: "Strassen [11]" },
    PaperEntry { dims: (2, 3, 2), r_paper: 11, source: "Benson-Ballard [1]" },
    PaperEntry { dims: (2, 3, 4), r_paper: 20, source: "Benson-Ballard [1]" },
    PaperEntry { dims: (2, 4, 3), r_paper: 20, source: "Ballard et al. [10]" },
    PaperEntry { dims: (2, 5, 2), r_paper: 18, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 2, 2), r_paper: 11, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 2, 3), r_paper: 15, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 2, 4), r_paper: 20, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 3, 2), r_paper: 15, source: "Ballard et al. [10]" },
    PaperEntry { dims: (3, 3, 3), r_paper: 23, source: "Smirnov [12]" },
    PaperEntry { dims: (3, 3, 6), r_paper: 40, source: "Smirnov [12]" },
    PaperEntry { dims: (3, 4, 2), r_paper: 20, source: "Benson-Ballard [1]" },
    PaperEntry { dims: (3, 4, 3), r_paper: 29, source: "Smirnov [12]" },
    PaperEntry { dims: (3, 5, 3), r_paper: 36, source: "Smirnov [12]" },
    PaperEntry { dims: (3, 6, 3), r_paper: 40, source: "Smirnov [12]" },
    PaperEntry { dims: (4, 2, 2), r_paper: 14, source: "Ballard et al. [10]" },
    PaperEntry { dims: (4, 2, 3), r_paper: 20, source: "Benson-Ballard [1]" },
    PaperEntry { dims: (4, 2, 4), r_paper: 26, source: "Ballard et al. [10]" },
    PaperEntry { dims: (4, 3, 2), r_paper: 20, source: "Ballard et al. [10]" },
    PaperEntry { dims: (4, 3, 3), r_paper: 29, source: "Ballard et al. [10]" },
    PaperEntry { dims: (4, 4, 2), r_paper: 26, source: "Ballard et al. [10]" },
    PaperEntry { dims: (5, 2, 2), r_paper: 18, source: "Ballard et al. [10]" },
    PaperEntry { dims: (6, 3, 3), r_paper: 40, source: "Smirnov [12]" },
];

/// A catalog of verified algorithms, keyed by partition dims. For each shape
/// the registry keeps the lowest-rank algorithm known to it.
pub struct Registry {
    by_dims: BTreeMap<(usize, usize, usize), Arc<FmmAlgorithm>>,
}

impl Registry {
    /// Build the full registry: paper-exact + discovered + constructive
    /// algorithms for the 23 paper shapes (and a few bonus shapes).
    ///
    /// The constructive search compares candidates by rank only; just the
    /// shapes it improves are composed, and each entry and each block it is
    /// made of is verified exactly (Brent equations) as it is built: 48
    /// verifications in all, where building every compared candidate took
    /// 1,100.
    pub fn standard() -> Self {
        let mut reg = Self { by_dims: BTreeMap::new() };
        reg.insert(strassen());
        // Discovered algorithms (flip graph + lift, re-verified at load).
        for algo in discovered_algorithms() {
            reg.insert_with_orientations(&algo);
        }
        // Constructive fallbacks for every paper shape not already covered
        // by something at least as good (one shared memo across shapes).
        let mut builder = family::Builder::new(&reg);
        for entry in PAPER_TABLE {
            let rank = builder.rank(entry.dims);
            if reg.get(entry.dims).is_none_or(|have| rank < have.rank()) {
                reg.insert(builder.algorithm(entry.dims));
            }
        }
        reg
    }

    /// A globally shared instance, built on first use by
    /// [`Registry::standard`]. Measured in process on a 2-vCPU x86-64 VM,
    /// that build takes about 1 ms in release and 9 ms in a debug build
    /// (it took 20–22 ms and 210–330 ms while every compared candidate was
    /// built and verified).
    pub fn shared() -> Arc<Registry> {
        static SHARED: OnceLock<Arc<Registry>> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(Registry::standard())).clone()
    }

    /// Build a registry from an explicit list of algorithms (no discovered
    /// or constructive entries added). Useful for tests and for exploring
    /// what the constructive generator achieves from a given base set.
    pub fn from_algorithms(algos: Vec<FmmAlgorithm>) -> Self {
        let mut reg = Self { by_dims: BTreeMap::new() };
        for a in algos {
            reg.insert(a);
        }
        reg
    }

    /// Insert `algo` if it improves on (or first covers) its shape.
    pub fn insert(&mut self, algo: FmmAlgorithm) {
        let dims = algo.dims();
        match self.by_dims.get(&dims) {
            Some(existing) if existing.rank() <= algo.rank() => {}
            _ => {
                self.by_dims.insert(dims, Arc::new(algo));
            }
        }
    }

    /// Insert `algo` and every symmetry orientation of it (building only
    /// the orientations that improve on their shape).
    pub fn insert_with_orientations(&mut self, algo: &FmmAlgorithm) {
        for o in 0..6 {
            let dims = compose::orientation_dims(algo.dims(), o);
            if self.by_dims.get(&dims).is_none_or(|have| algo.rank() < have.rank()) {
                self.insert(compose::orientation(algo, o));
            }
        }
    }

    /// Best known algorithm for exactly these partition dims.
    pub fn get(&self, dims: (usize, usize, usize)) -> Option<Arc<FmmAlgorithm>> {
        self.by_dims.get(&dims).cloned()
    }

    /// All registered algorithms, ordered by dims.
    pub fn all(&self) -> impl Iterator<Item = &Arc<FmmAlgorithm>> {
        self.by_dims.values()
    }

    /// Number of registered shapes.
    pub fn len(&self) -> usize {
        self.by_dims.len()
    }

    /// True when no algorithms are registered.
    pub fn is_empty(&self) -> bool {
        self.by_dims.is_empty()
    }

    /// The paper's Figure 2 rows paired with this registry's algorithm for
    /// each shape (`(entry, algorithm)`).
    pub fn paper_rows(&self) -> Vec<(PaperEntry, Arc<FmmAlgorithm>)> {
        PAPER_TABLE
            .iter()
            .map(|e| {
                let algo = self
                    .get(e.dims)
                    .unwrap_or_else(|| panic!("registry must cover paper shape {:?}", e.dims));
                (e.clone(), algo)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_all_paper_shapes() {
        let reg = Registry::standard();
        for entry in PAPER_TABLE {
            let algo = reg.get(entry.dims).unwrap_or_else(|| panic!("missing {:?}", entry.dims));
            assert_eq!(algo.dims(), entry.dims);
            // Faster than classical for all paper shapes.
            assert!(
                algo.rank() < algo.classical_rank(),
                "{:?}: rank {} not fast",
                entry.dims,
                algo.rank()
            );
            // Never better than the published rank (that would be a new
            // scientific result, i.e. almost surely a bug).
            assert!(
                algo.rank() >= entry.r_paper,
                "{:?}: rank {} beats published {}",
                entry.dims,
                algo.rank(),
                entry.r_paper
            );
        }
    }

    /// Figure 2 as a scoreboard that times nothing: every paper shape's
    /// registry rank and `(nnz U, nnz V, nnz W)`, pinned. A committed find
    /// that lowers a rank or sparsifies an entry updates its row here.
    /// `--nocapture` prints the table and how many rows are above the
    /// paper's rank.
    #[test]
    fn registry_reproduces_published_ranks_for_strassen_family() {
        type Row = ((usize, usize, usize), usize, (usize, usize, usize));
        const PINNED: [Row; 23] = [
            ((2, 2, 2), 7, (12, 12, 12)),
            ((2, 3, 2), 11, (16, 16, 16)),
            ((2, 3, 4), 22, (32, 32, 32)),
            ((2, 4, 3), 22, (32, 32, 32)),
            ((2, 5, 2), 18, (28, 28, 28)),
            ((3, 2, 2), 11, (16, 16, 16)),
            ((3, 2, 3), 17, (22, 22, 22)),
            ((3, 2, 4), 22, (32, 32, 32)),
            ((3, 3, 2), 17, (22, 22, 22)),
            ((3, 3, 3), 26, (31, 31, 31)),
            ((3, 3, 6), 51, (66, 66, 66)),
            ((3, 4, 2), 22, (32, 32, 32)),
            ((3, 4, 3), 34, (44, 44, 44)),
            ((3, 5, 3), 43, (53, 53, 53)),
            ((3, 6, 3), 51, (66, 66, 66)),
            ((4, 2, 2), 14, (24, 24, 24)),
            ((4, 2, 3), 22, (32, 32, 32)),
            ((4, 2, 4), 28, (48, 48, 48)),
            ((4, 3, 2), 22, (32, 32, 32)),
            ((4, 3, 3), 34, (44, 44, 44)),
            ((4, 4, 2), 28, (48, 48, 48)),
            ((5, 2, 2), 18, (28, 28, 28)),
            ((6, 3, 3), 51, (66, 66, 66)),
        ];
        let reg = Registry::standard();
        let mut above = 0;
        println!("<m,k,n>   R  R_paper  (nnz U, nnz V, nnz W)");
        for (entry, &(dims, rank, nnz)) in PAPER_TABLE.iter().zip(&PINNED) {
            let algo = reg.get(entry.dims).unwrap();
            let got = (algo.u().nnz(), algo.v().nnz(), algo.w().nnz());
            let (m, k, n) = entry.dims;
            println!("<{m},{k},{n}>  {:>2}  {:>7}  {got:?}", algo.rank(), entry.r_paper);
            above += usize::from(algo.rank() > entry.r_paper);
            assert_eq!((entry.dims, algo.rank(), got), (dims, rank, nnz));
        }
        println!("{above} of {} shapes above the paper's rank", PAPER_TABLE.len());
    }

    /// Every `Registry::standard()` entry, pinned bit for bit: an FNV-1a
    /// digest over each entry's dims, rank, name and the `f64` bit patterns
    /// of `U`, `V` and `W`. A change to how the family is generated must
    /// leave this digest as it is; a committed find changes it on purpose.
    #[test]
    fn standard_registry_digest_is_pinned() {
        fn feed(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let reg = Registry::standard();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for algo in reg.all() {
            let (m, k, n) = algo.dims();
            for x in [m, k, n, algo.rank(), algo.name().len()] {
                feed(&mut hash, &(x as u64).to_le_bytes());
            }
            feed(&mut hash, algo.name().as_bytes());
            for coeffs in [algo.u(), algo.v(), algo.w()] {
                for x in coeffs.data() {
                    feed(&mut hash, &x.to_bits().to_le_bytes());
                }
            }
        }
        println!("{} entries, digest {hash:#018x}", reg.len());
        assert_eq!((reg.len(), hash), (24, 0xd2db_c6fe_f9e9_a814));
    }

    /// Building the standard registry verifies what it keeps and the blocks
    /// those entries are composed from, and no losing candidate: every
    /// algorithm the build verifies is a kept entry (its `U`, `V`, `W`
    /// equal) or a parenthesized part of a verified name (`(a)⊕n(b)`,
    /// `(a)⊗(b)`, `rot(a)`, `t(a)`), that is, a block a composition used.
    /// Work is counted, not timed; `--nocapture` prints the count.
    #[test]
    fn standard_registry_verifies_only_kept_entries_and_their_blocks() {
        fn parts(name: &str) -> Vec<&str> {
            let (mut out, mut depth, mut start) = (Vec::new(), 0, 0);
            for (i, c) in name.char_indices() {
                match c {
                    '(' if depth == 0 => (depth, start) = (1, i + 1),
                    '(' => depth += 1,
                    ')' if depth == 1 => {
                        depth = 0;
                        out.push(&name[start..i]);
                        out.extend(parts(&name[start..i]));
                    }
                    ')' => depth -= 1,
                    _ => {}
                }
            }
            out
        }
        let same = |a: &FmmAlgorithm, b: &FmmAlgorithm| {
            (a.dims(), a.u(), a.v(), a.w()) == (b.dims(), b.u(), b.v(), b.w())
        };
        let (reg, verified) = crate::algorithm::verify_log::during(Registry::standard);
        let used: std::collections::HashSet<&str> =
            verified.iter().flat_map(|a| parts(a.name())).collect();
        let is_kept = |a: &FmmAlgorithm| reg.get(a.dims()).is_some_and(|e| same(&e, a));
        let (kept, rest): (Vec<_>, Vec<_>) = verified.iter().partition(|a| is_kept(a));
        let (blocks, losers): (Vec<_>, Vec<_>) =
            rest.into_iter().partition(|a| used.contains(a.name()));
        println!(
            "{} entries: verified {} algorithms ({} kept entries, {} other blocks, {} neither)",
            reg.len(),
            verified.len(),
            kept.len(),
            blocks.len(),
            losers.len()
        );
        if let Some(algo) = losers.first() {
            panic!(
                "{} {:?} (rank {}) was verified but is neither kept nor a block",
                algo.name(),
                algo.dims(),
                algo.rank()
            );
        }
        for entry in reg.all() {
            assert!(verified.iter().any(|a| same(a, entry)), "{} was not verified", entry.name());
        }
        assert_eq!(verified.len(), 48);
    }

    #[test]
    fn insert_keeps_best_rank() {
        let mut reg = Registry { by_dims: BTreeMap::new() };
        reg.insert(crate::compose::classical(2, 2, 2)); // rank 8
        assert_eq!(reg.get((2, 2, 2)).unwrap().rank(), 8);
        reg.insert(strassen()); // rank 7 improves
        assert_eq!(reg.get((2, 2, 2)).unwrap().rank(), 7);
        reg.insert(crate::compose::classical(2, 2, 2)); // rank 8 ignored
        assert_eq!(reg.get((2, 2, 2)).unwrap().rank(), 7);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn shared_registry_is_memoized() {
        let a = Registry::shared();
        let b = Registry::shared();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn paper_rows_returns_23_entries() {
        let reg = Registry::standard();
        assert_eq!(reg.paper_rows().len(), 23);
    }
}
