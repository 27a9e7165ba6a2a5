//! Multi-level execution plans.
//!
//! An [`FmmPlan`] is an ordered list of one-level algorithms — possibly a
//! *different* algorithm per level (the "hybrid partitions" of paper §5.2) —
//! together with the composed Kronecker coefficients
//! `[[⊗U_l, ⊗V_l, ⊗W_l]]` (paper eq. (5)) and the block grids for each
//! operand.
//!
//! Construction is `O(levels)`: it keeps what the performance model ranks
//! by — the partition dims, `R_L = ∏R_l` and the three non-zero counts,
//! which for a Kronecker product are exact products of the per-level
//! counts (`nnz(A⊗B) = nnz(A)·nnz(B)`) — and nothing that grows with
//! `R_L`. The composed matrices themselves are built on the first call to
//! [`FmmPlan::u`], [`FmmPlan::v`] or [`FmmPlan::w`], i.e. by the first
//! executor that iterates the `R_L` products of the flattened
//! representation, at most once per plan however many threads race there.
//! A plan that is only ever ranked costs no coefficient storage.

use crate::algorithm::FmmAlgorithm;
use crate::coeffs::CoeffMatrix;
use crate::indexing::BlockGrid;
use std::sync::{Arc, OnceLock};

/// The composed `[[⊗U, ⊗V, ⊗W]]` of a plan.
#[derive(Clone, Debug)]
struct Composed {
    u: CoeffMatrix,
    v: CoeffMatrix,
    w: CoeffMatrix,
}

/// An L-level FMM plan; its coefficients are composed on first use.
#[derive(Clone, Debug)]
pub struct FmmPlan {
    levels: Vec<Arc<FmmAlgorithm>>,
    rank: usize,
    /// `(nnz(⊗U), nnz(⊗V), nnz(⊗W))` as products of the per-level counts.
    nnz: (usize, usize, usize),
    composed: OnceLock<Composed>,
    mt: usize,
    kt: usize,
    nt: usize,
    a_grid: BlockGrid,
    b_grid: BlockGrid,
    c_grid: BlockGrid,
    /// Lazily-composed plan over levels `1..L` (the hybrid scheduler's
    /// DFS-within-task plan); composed at most once per plan instance.
    inner: OnceLock<Option<Arc<FmmPlan>>>,
}

impl FmmPlan {
    /// A plan from per-level algorithms (outermost first).
    /// Panics if `levels` is empty.
    pub fn new(levels: Vec<FmmAlgorithm>) -> Self {
        Self::from_arcs(levels.into_iter().map(Arc::new).collect())
    }

    /// As [`FmmPlan::new`] from shared handles.
    pub fn from_arcs(levels: Vec<Arc<FmmAlgorithm>>) -> Self {
        assert!(!levels.is_empty(), "a plan needs at least one level");
        let mut rank = 1;
        let mut nnz = (1, 1, 1);
        let mut mt = 1;
        let mut kt = 1;
        let mut nt = 1;
        let mut a_levels = Vec::with_capacity(levels.len());
        let mut b_levels = Vec::with_capacity(levels.len());
        let mut c_levels = Vec::with_capacity(levels.len());
        for algo in &levels {
            let (m, k, n) = algo.dims();
            rank *= algo.rank();
            nnz.0 *= algo.u().nnz();
            nnz.1 *= algo.v().nnz();
            nnz.2 *= algo.w().nnz();
            mt *= m;
            kt *= k;
            nt *= n;
            a_levels.push((m, k));
            b_levels.push((k, n));
            c_levels.push((m, n));
        }
        Self {
            levels,
            rank,
            nnz,
            composed: OnceLock::new(),
            mt,
            kt,
            nt,
            a_grid: BlockGrid::new(a_levels),
            b_grid: BlockGrid::new(b_levels),
            c_grid: BlockGrid::new(c_levels),
            inner: OnceLock::new(),
        }
    }

    /// Convenience: `level` applied `l` times (homogeneous multi-level).
    pub fn uniform(level: FmmAlgorithm, l: usize) -> Self {
        assert!(l >= 1, "at least one level");
        let arc = Arc::new(level);
        Self::from_arcs(vec![arc; l])
    }

    /// The per-level algorithms, outermost first.
    pub fn levels(&self) -> &[Arc<FmmAlgorithm>] {
        &self.levels
    }

    /// Number of levels `L`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The outermost level's algorithm (level 1 in the paper's numbering) —
    /// what a BFS-at-level-1 scheduler fans its tasks out over.
    pub fn first_level(&self) -> &Arc<FmmAlgorithm> {
        &self.levels[0]
    }

    /// The plan over levels `2..L`, i.e. what each level-1 task executes
    /// depth-first, or `None` for a one-level plan. Built lazily, at
    /// most once per plan instance, so schedulers hitting a cached plan
    /// never recompose Kronecker coefficients.
    pub fn inner_plan(&self) -> Option<&Arc<FmmPlan>> {
        self.inner
            .get_or_init(|| {
                (self.levels.len() > 1)
                    .then(|| Arc::new(FmmPlan::from_arcs(self.levels[1..].to_vec())))
            })
            .as_ref()
    }

    /// Aggregate partition dims `(∏m̃_l, ∏k̃_l, ∏ñ_l)` — the divisibility
    /// the core problem must satisfy (paper: `M̃_L, K̃_L, Ñ_L`).
    pub fn partition_dims(&self) -> (usize, usize, usize) {
        (self.mt, self.kt, self.nt)
    }

    /// Total number of sub-multiplications `R_L = ∏R_l`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// `(nnz(⊗U), nnz(⊗V), nnz(⊗W))` — the performance model's inputs,
    /// known without composing anything.
    pub fn nnz(&self) -> (usize, usize, usize) {
        self.nnz
    }

    /// Whether the Kronecker composition has run (it does on the first
    /// call to [`FmmPlan::u`], [`FmmPlan::v`] or [`FmmPlan::w`]).
    pub fn is_composed(&self) -> bool {
        self.composed.get().is_some()
    }

    fn composed(&self) -> &Composed {
        self.composed.get_or_init(|| {
            let mut c = Composed {
                u: CoeffMatrix::kron_identity(),
                v: CoeffMatrix::kron_identity(),
                w: CoeffMatrix::kron_identity(),
            };
            for algo in &self.levels {
                c.u = c.u.kron(algo.u());
                c.v = c.v.kron(algo.v());
                c.w = c.w.kron(algo.w());
            }
            c
        })
    }

    /// Composed `⊗U` (rows: flat A-block indices; cols: products).
    pub fn u(&self) -> &CoeffMatrix {
        &self.composed().u
    }

    /// Composed `⊗V`.
    pub fn v(&self) -> &CoeffMatrix {
        &self.composed().v
    }

    /// Composed `⊗W`.
    pub fn w(&self) -> &CoeffMatrix {
        &self.composed().w
    }

    /// Recursive block grid of `A` (`∏m̃_l x ∏k̃_l`).
    pub fn a_grid(&self) -> &BlockGrid {
        &self.a_grid
    }

    /// Recursive block grid of `B`.
    pub fn b_grid(&self) -> &BlockGrid {
        &self.b_grid
    }

    /// Recursive block grid of `C`.
    pub fn c_grid(&self) -> &BlockGrid {
        &self.c_grid
    }

    /// Human-readable partition description, e.g. `"<2,2,2>+<3,3,3>"`.
    pub fn describe(&self) -> String {
        self.levels
            .iter()
            .map(|a| {
                let (m, k, n) = a.dims();
                format!("<{m},{k},{n}>")
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Multiplication count ratio vs. classical at the block level:
    /// `∏(m̃k̃ñ) / R_L` (the L-level theoretical speedup).
    pub fn speedup(&self) -> f64 {
        let classical: usize = self.levels.iter().map(|a| a.classical_rank()).product();
        classical as f64 / self.rank() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{strassen, winograd};

    #[test]
    fn one_level_plan_passes_through() {
        let p = FmmPlan::new(vec![strassen()]);
        assert_eq!(p.partition_dims(), (2, 2, 2));
        assert_eq!(p.rank(), 7);
        assert_eq!(p.u(), strassen().u());
        assert_eq!(p.describe(), "<2,2,2>");
    }

    #[test]
    fn two_level_strassen_is_kron_squared() {
        let s = strassen();
        let p = FmmPlan::uniform(s.clone(), 2);
        assert_eq!(p.partition_dims(), (4, 4, 4));
        assert_eq!(p.rank(), 49);
        assert_eq!(p.u(), &s.u().kron(s.u()));
        assert_eq!(p.w(), &s.w().kron(s.w()));
        assert!((p.speedup() - 64.0 / 49.0).abs() < 1e-15);
    }

    #[test]
    fn hybrid_levels_compose_dims() {
        let s = strassen();
        let w = winograd();
        let c223 = crate::compose::stack_n(&s, &crate::compose::classical(2, 2, 1));
        let p = FmmPlan::new(vec![s, c223, w]);
        assert_eq!(p.partition_dims(), (2 * 2 * 2, 2 * 2 * 2, 2 * 3 * 2));
        assert_eq!(p.rank(), 7 * 11 * 7);
        assert_eq!(p.num_levels(), 3);
        assert_eq!(p.describe(), "<2,2,2>+<2,2,3>+<2,2,2>");
    }

    #[test]
    fn grids_match_partition_dims() {
        let s = strassen();
        let c223 = crate::compose::stack_n(&s, &crate::compose::classical(2, 2, 1));
        let p = FmmPlan::new(vec![c223, s]);
        assert_eq!(p.a_grid().rows(), 4);
        assert_eq!(p.a_grid().cols(), 4);
        assert_eq!(p.b_grid().rows(), 4);
        assert_eq!(p.b_grid().cols(), 6);
        assert_eq!(p.c_grid().rows(), 4);
        assert_eq!(p.c_grid().cols(), 6);
        assert_eq!(p.a_grid().len(), p.u().rows());
        assert_eq!(p.b_grid().len(), p.v().rows());
        assert_eq!(p.c_grid().len(), p.w().rows());
    }

    /// The counts a plan stores at construction are the counts of the
    /// matrices it composes later, and reading them composes nothing.
    #[test]
    fn stored_counts_equal_the_composed_matrices() {
        let mut plans = vec![{
            let s = strassen();
            let c223 = crate::compose::stack_n(&s, &crate::compose::classical(2, 2, 1));
            FmmPlan::new(vec![s.clone(), c223, s])
        }];
        for (_, algo) in crate::registry::Registry::shared().paper_rows() {
            plans.extend((1..=2).map(|levels| FmmPlan::from_arcs(vec![algo.clone(); levels])));
        }
        for p in plans {
            let (rank, nnz, what) = (p.rank(), p.nnz(), p.describe());
            let _ = crate::counts::PlanCounts::of(&p);
            assert!(!p.is_composed(), "{what}: counts must not compose");
            assert_eq!(rank, p.u().cols(), "{what}");
            assert_eq!((p.v().cols(), p.w().cols()), (rank, rank), "{what}");
            assert_eq!(nnz, (p.u().nnz(), p.v().nnz(), p.w().nnz()), "{what}");
            assert!(p.is_composed(), "{what}");
        }
    }

    /// Two threads meeting at an uncomposed plan compose it once between
    /// them and compute what a plan composed beforehand computes.
    #[test]
    fn racing_first_executions_share_one_composition() {
        use crate::executor::{fmm_execute, FmmContext, Variant};
        use fmm_dense::{fill, Matrix};
        let (m, k, n) = (36, 28, 44);
        let a = fill::bench_workload(m, k, 1);
        let b = fill::bench_workload(k, n, 2);
        let run = |plan: &FmmPlan| {
            let mut c = Matrix::zeros(m, n);
            let mut ctx = FmmContext::with_defaults();
            fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), plan, Variant::Abc, &mut ctx);
            c
        };
        let ready = FmmPlan::uniform(strassen(), 2);
        ready.u();
        let want = run(&ready);

        let shared = Arc::new(FmmPlan::uniform(strassen(), 2));
        let start = std::sync::Barrier::new(2);
        let results: Vec<(Matrix, &CoeffMatrix)> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        assert!(!shared.is_composed());
                        start.wait();
                        (run(&shared), shared.u())
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer panicked")).collect()
        });
        assert!(std::ptr::eq(results[0].1, results[1].1), "both threads read one composition");
        for (c, _) in &results {
            assert_eq!(c.raw(), want.raw(), "bit-for-bit the pre-composed result");
        }
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_plan_panics() {
        let _ = FmmPlan::new(vec![]);
    }

    #[test]
    fn inner_plan_splits_off_the_first_level() {
        let s = strassen();
        let w = winograd();
        let p = FmmPlan::new(vec![s.clone(), w.clone()]);
        assert_eq!(p.first_level().dims(), (2, 2, 2));
        let inner = p.inner_plan().expect("two levels have an inner plan");
        assert_eq!(inner.num_levels(), 1);
        assert_eq!(inner.u(), w.u());
        // Composed once, cached: both calls return the same Arc.
        assert!(Arc::ptr_eq(inner, p.inner_plan().unwrap()));
        assert!(FmmPlan::new(vec![s]).inner_plan().is_none());
    }
}
