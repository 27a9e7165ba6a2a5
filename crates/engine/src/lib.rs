//! `fmm-engine` — a long-lived, cached, model-routed FMM execution engine.
//!
//! [`fmm_core`] executes one `(plan, variant)`; [`fmm_model`] ranks
//! candidates for a problem shape. This crate glues them into the object a
//! service actually wants: an [`FmmEngine`] that is created once and then
//! serves `C += A·B` traffic with
//!
//! * a **decision cache** — the model ranking (the paper's §4.4
//!   poly-algorithm) runs once per `(m, k, n)` shape and is remembered in
//!   a shape-keyed LRU;
//! * a **plan cache** — one `FmmPlan` per `(algorithm, levels)` pair,
//!   shared via `Arc` by every decision that routes to it. Ranking reads
//!   only the counts a plan stores, so the Kronecker composition runs for
//!   the plans decisions actually route to, when the decision is made,
//!   and for no other;
//! * a **context pool** — per-caller [`SchedContext`]s (preplanned
//!   workspace arenas, packing buffers, per-task regions) are recycled, so
//!   a warm engine performs no heap allocation for FMM temporaries;
//! * built-in **counters** ([`EngineStats`]) that make all three claims
//!   testable rather than aspirational.
//!
//! Every engine routes and executes on one path. It resolves a worker
//! count once, at construction: one for a sequential engine, the rayon
//! pool width (or less, if asked) for a parallel one. The model ranks
//! `(plan, variant, strategy)` triples for that many workers
//! ([`fmm_model::rank_scheduled`]), and one private execution step runs the
//! winner at the configured blocking parameters: an FMM route through the
//! `fmm-sched` BFS/DFS/hybrid scheduler, plain GEMM through the blocked
//! driver. A sequential engine is the one-worker case: its ranking holds
//! only depth-first candidates, and its runs stay on the calling thread.
//! [`FmmEngine::multiply_batch`] runs many independent problems at once,
//! each depth-first on one worker, with inter-problem parallelism.
//!
//! The model is grounded in this machine: engines default to
//! **host-calibrated** [`ArchParams`] ([`ArchSource::Calibrated`] —
//! measured once per process via `fmm-tune`, paper constants only on
//! request). Routing is a function of the code and those parameters and
//! of nothing else: the engine reads no file and no environment variable
//! to decide, so two engines given the same [`ArchSource::Fixed`]
//! constants route every shape alike.
//!
//! The engine is generic over the execution scalar: `FmmEngine<f64>` (the
//! default) and `FmmEngine<f32>` run the same plans and routing logic over
//! dtype-specific kernels, contexts, and workspace pools. Every cache —
//! decisions, plans, pooled contexts — lives inside the engine
//! value, so caches are per-dtype by construction; the performance model
//! stays `f64` but its memory terms are scaled by the engine's element
//! width (`ArchParams::with_elem_bytes`), which is what lets `f32` ranking
//! reflect its halved bandwidth cost.
//!
//! `FmmEngine::multiply` takes `&self` and is safe to call from many
//! threads at once; each call checks out its own context.
//!
//! # Example
//!
//! ```
//! use fmm_dense::{fill, Matrix};
//! use fmm_engine::{EngineConfig, FmmEngine};
//! use fmm_model::ArchParams;
//!
//! // Pinned constants; `FmmEngine::with_defaults()` measures the host.
//! let engine = FmmEngine::<f64>::new(EngineConfig {
//!     arch: ArchParams::paper_machine().into(),
//!     ..EngineConfig::default()
//! });
//! let a = fill::bench_workload(96, 64, 1);
//! let b = fill::bench_workload(64, 80, 2);
//! let mut c = Matrix::zeros(96, 80);
//! engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
//! engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
//! assert_eq!(engine.stats().decision_hits, 1); // second call reused the routing
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]

mod lru;

pub use lru::LruCache;

use fmm_core::registry::Registry;
pub use fmm_core::Strategy;
// `Routing::Pinned` and `multiply_with_plan` take a `Variant`; re-export
// it so engine consumers need no direct fmm-core dependency for routing.
pub use fmm_core::Variant;
pub use fmm_sched::SchedContext;

use fmm_core::FmmPlan;
use fmm_dense::{MatMut, MatRef};
use fmm_gemm::{gemm_sums_with, BlockingParams, DestTile, GemmScalar, IcLoop, Update};
use fmm_model::{predict_gemm_parallel, predict_scheduled, rank_scheduled, ArchParams, Impl};
use fmm_obs::audit::{AuditDtype, AuditSample, AuditSource};
use fmm_sched::fan_out;
use fmm_tune::ShapeClass;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the engine chooses a `(plan, variant, strategy)` per shape.
#[derive(Clone, Debug)]
pub enum Routing {
    /// The paper's §4.4 poly-algorithm: rank every registry `(plan,
    /// variant, strategy)` candidate plus plain GEMM with the parallel-time
    /// model over the engine's workers, and run the best prediction. At one
    /// worker that is the paper's sequential ranking.
    Model,
    /// Always run `levels` nested applications of the registry algorithm
    /// with partition dims `dims`, as `variant`, under `strategy`. For
    /// workloads with known structure, and for tests that need a
    /// deterministic FMM route.
    Pinned {
        /// Partition dims of the registry algorithm, e.g. `(2, 2, 2)`.
        dims: (usize, usize, usize),
        /// Nesting depth (1 or 2 are practical).
        levels: usize,
        /// Implementation strategy.
        variant: Variant,
        /// Schedule; [`Strategy::Dfs`] is the paper's.
        strategy: Strategy,
    },
}

/// Where an engine's [`ArchParams`] come from.
///
/// The default is [`ArchSource::Calibrated`]: on first use the host is
/// measured (`fmm_tune::host_arch`, once per process) instead of assuming
/// the paper's 2017 experiment machine. Pass [`ArchSource::Fixed`] to
/// reproduce published rankings, pin tests, or carry one measurement
/// across processes.
#[derive(Clone, Debug, Default)]
pub enum ArchSource {
    /// Measure (once per process) and use this host's calibrated
    /// parameters.
    #[default]
    Calibrated,
    /// Use exactly these parameters.
    Fixed(ArchParams),
}

impl From<ArchParams> for ArchSource {
    fn from(arch: ArchParams) -> Self {
        ArchSource::Fixed(arch)
    }
}

/// Construction-time configuration of an [`FmmEngine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Architecture parameters for model-guided routing: host-calibrated
    /// by default, or pinned via [`ArchSource::Fixed`] /
    /// `ArchParams::into()`.
    pub arch: ArchSource,
    /// GEMM blocking parameters for every execution, FMM and plain GEMM
    /// alike.
    pub params: BlockingParams,
    /// Whether the engine may use more than one worker. Read once, when
    /// the engine is built, to resolve its worker count: `false` is one
    /// worker, and a sequential engine is that one-worker case of the one
    /// routing and execution path.
    pub parallel: bool,
    /// Worker count of a parallel engine, for routing and execution alike;
    /// `0` means the rayon pool width, and explicit values are clamped to
    /// it (the pool bounds the parallelism every execution path can
    /// realize, so ranking beyond it would model speedups that cannot
    /// happen). The width is read once, when the engine is built. Must be
    /// `0` when `parallel` is false.
    pub workers: usize,
    /// Routing policy.
    pub routing: Routing,
}

/// Nesting depths model routing ranks: every registry algorithm at one
/// and at two levels.
const MAX_LEVELS: usize = 2;
/// Capacity of the shape-keyed decision LRU.
const DECISION_CAPACITY: usize = 4096;
/// Capacity of the plan LRU.
const PLAN_CAPACITY: usize = 256;
/// Idle contexts kept pooled (returns beyond this are dropped).
const MAX_POOLED_CONTEXTS: usize = 64;

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            arch: ArchSource::Calibrated,
            params: BlockingParams::default(),
            parallel: false,
            workers: 0,
            routing: Routing::Model,
        }
    }
}

/// What the engine decided to run for one shape, plus the audit
/// attribution that travels with it: where the decision came from and
/// what the router predicted it would cost. Cached whole in the
/// decision LRU so the warm path re-derives nothing.
#[derive(Clone)]
struct Decision {
    choice: Choice,
    /// Routing source for audit attribution. `Fallback` marks decisions
    /// the configured route could not serve (pinned registry miss).
    source: AuditSource,
    /// Predicted cost of one multiply of this shape, in nanoseconds (the
    /// model's total).
    predicted_nanos: u64,
}

#[derive(Clone)]
enum Choice {
    Gemm,
    Fmm { plan: Arc<FmmPlan>, variant: Variant, strategy: Strategy },
}

impl Choice {
    /// What the execution step runs: `None` is plain GEMM.
    fn exec(&self) -> Option<(&FmmPlan, Variant, Strategy)> {
        match self {
            Choice::Gemm => None,
            Choice::Fmm { plan, variant, strategy } => Some((plan, *variant, *strategy)),
        }
    }
}

impl Decision {
    fn describe(&self) -> String {
        match &self.choice {
            Choice::Gemm => "GEMM".to_string(),
            Choice::Fmm { plan, variant, strategy: Strategy::Dfs } => {
                format!("{} {}", plan.describe(), variant.name())
            }
            Choice::Fmm { plan, variant, strategy } => {
                format!("{} {} {}", plan.describe(), variant.name(), strategy.name())
            }
        }
    }
}

/// Declares the engine's counters once. The public [`EngineStats`]
/// snapshot, its [`EngineStats::fields`] rows and the atomic `Counters`
/// behind them (with `reset` and `snapshot`) all expand from this one
/// list, in this order — a counter is added or removed in one place.
macro_rules! engine_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Monotonic counters exposing the engine's cache behavior.
        ///
        /// All counts are cumulative since engine construction; take two
        /// snapshots and difference them to assert warm-path properties.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct EngineStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl EngineStats {
            /// Every counter as a `(name, value)` row, in declaration
            /// order. `fmm-serve` reads these rows when it takes a stats
            /// snapshot (as `fmm_engine_{f64,f32}_<name>` counters), so a
            /// new counter shows up everywhere by being declared once.
            /// Length-agnostic by design: callers must iterate, never
            /// assume a fixed arity, so a new counter cannot silently
            /// drop out of the snapshot.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }
        }

        #[derive(Default)]
        struct Counters {
            $($name: AtomicU64,)*
        }

        impl Counters {
            fn reset(&self) {
                // Relaxed is enough: reset is a test/bench affordance, not
                // a synchronization point — concurrent increments may land
                // on either side of it, exactly like two racing `snapshot`s.
                $(self.$name.store(0, Ordering::Relaxed);)*
            }

            fn snapshot(&self) -> EngineStats {
                EngineStats { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }
    };
}

engine_counters! {
    /// `multiply` calls served.
    executions,
    /// Decisions answered from the shape LRU.
    decision_hits,
    /// Decisions that had to be computed.
    decision_misses,
    /// Full model rankings run (at most one per decision miss).
    rankings,
    /// Kronecker plan compositions performed: one per plan a decision
    /// routed to while that plan is cached, none for plans that were only
    /// ranked.
    plan_compositions,
    /// Fresh `SchedContext` constructions (one per concurrently-active
    /// caller; flat once the pool is warm).
    context_allocations,
    /// Workspace allocations across all pooled contexts — the DFS arena,
    /// the per-task BFS/hybrid arena, per-task packing buffers, and hybrid
    /// inner contexts (flat once every pooled context has seen the largest
    /// live shape).
    arena_grows,
    /// `multiply_batch` calls served.
    batches,
    /// Problems executed through `multiply_batch` (also counted in
    /// `executions`).
    batch_items,
    /// `Routing::Pinned` decisions that fell back to GEMM because the
    /// registry holds no algorithm for the pinned dims (one per decision
    /// miss of such a shape, not per call).
    pinned_fallbacks,
    /// Executed multiplies whose predicted-vs-measured sample landed in
    /// the decision-audit table (`fmm_obs::audit`).
    audit_samples,
    /// Audit samples dropped because the process-wide class table was
    /// full (unseen (shape-class, dtype) beyond its capacity).
    audit_drops,
}

/// Cache key for plans: the registry algorithm's partition dims
/// plus the nesting depth.
type PlanKey = ((usize, usize, usize), usize);

/// One independent `C += A·B` problem of a [`FmmEngine::multiply_batch`]
/// call. The borrows guarantee the destinations are pairwise disjoint.
pub struct BatchItem<'a, T = f64> {
    /// Accumulation destination.
    pub c: MatMut<'a, T>,
    /// Left operand.
    pub a: MatRef<'a, T>,
    /// Right operand.
    pub b: MatRef<'a, T>,
    /// Caller-chosen tag carried into tracing spans (the serving layer
    /// passes the wire request id; 0 = untagged).
    pub tag: u64,
}

impl<'a, T: GemmScalar> BatchItem<'a, T> {
    /// Package one problem.
    pub fn new(c: MatMut<'a, T>, a: MatRef<'a, T>, b: MatRef<'a, T>) -> Self {
        Self { c, a, b, tag: 0 }
    }

    /// Tag this item so spans recorded while it executes (scheduler
    /// tasks, GEMM pack/kernel phases) carry `tag` as their request id.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// A long-lived, thread-safe FMM execution engine, generic over the
/// execution scalar (default `f64`). See the crate docs.
pub struct FmmEngine<T: GemmScalar = f64> {
    config: EngineConfig,
    /// Resolved, validated architecture parameters (from
    /// [`EngineConfig::arch`]), memory terms charged at `T`'s width.
    arch: ArchParams,
    /// One for a sequential engine; otherwise [`EngineConfig::workers`]
    /// against the rayon pool width as it was when the engine was built.
    /// Every decision the engine caches was ranked for this count, and
    /// asking for the width again (cgroup and affinity reads) costs more
    /// than a small multiply.
    workers: usize,
    registry: Arc<Registry>,
    decisions: Mutex<LruCache<(usize, usize, usize), Decision>>,
    plans: Mutex<LruCache<PlanKey, Arc<FmmPlan>>>,
    /// Boxed, so a checkout — which every call makes, GEMM routes
    /// included — moves a pointer rather than the whole context.
    #[allow(clippy::vec_box)]
    contexts: Mutex<Vec<Box<SchedContext<T>>>>,
    counters: Counters,
}

/// A checked-out pooled context; returns itself to the engine on drop.
struct CtxGuard<'a, T: GemmScalar> {
    engine: &'a FmmEngine<T>,
    ctx: Option<Box<SchedContext<T>>>,
}

impl<T: GemmScalar> CtxGuard<'_, T> {
    fn ctx(&mut self) -> &mut SchedContext<T> {
        self.ctx.as_mut().expect("present until drop")
    }
}

impl<T: GemmScalar> Drop for CtxGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            self.engine.release_context(ctx);
        }
    }
}

impl<T: GemmScalar> FmmEngine<T> {
    /// Engine over the standard registry with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// Engine over the standard registry.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_registry(config, Registry::shared())
    }

    /// Engine over an explicit algorithm registry.
    ///
    /// # Panics
    /// On contradictory configuration: `workers > 0` with `parallel:
    /// false` would silently run sequentially (the worker count is only
    /// meaningful to parallel execution and routing), so it is rejected
    /// here, at construction, instead of surprising a misconfigured
    /// service at traffic time. Likewise on invalid [`ArchSource::Fixed`]
    /// parameters (`ArchParams::validate`): a zero or negative bandwidth
    /// would silently poison every ranking the engine ever makes.
    pub fn with_registry(config: EngineConfig, registry: Arc<Registry>) -> Self {
        // The one read of `parallel`: a sequential engine is one worker.
        let workers = match (config.parallel, config.workers) {
            (false, 0) => 1,
            (false, n) => panic!(
                "EngineConfig {{ workers: {n}, parallel: false }} is contradictory: \
                 workers only applies to parallel engines (set parallel: true, or workers: 0)"
            ),
            (true, 0) => rayon::current_num_threads(),
            (true, n) => n.min(rayon::current_num_threads()).max(1),
        };
        let resolved = match &config.arch {
            ArchSource::Fixed(arch) => *arch,
            // Host-measured, process-cached; always validates by
            // construction.
            ArchSource::Calibrated => fmm_tune::host_arch::<T>(),
        };
        // The model's memory terms are charged at this engine's element
        // width; rankings (and their cache) are per-dtype anyway.
        let arch = resolved.with_elem_bytes(std::mem::size_of::<T>());
        if let Err(e) = arch.validate() {
            panic!("EngineConfig.arch is invalid ({e}); refusing to rank with poisoned constants");
        }
        let decisions = Mutex::new(LruCache::new(DECISION_CAPACITY));
        let plans = Mutex::new(LruCache::new(PLAN_CAPACITY));
        Self {
            config,
            arch,
            workers,
            registry,
            decisions,
            plans,
            contexts: Mutex::new(Vec::new()),
            counters: Counters::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The resolved architecture parameters the engine ranks with.
    pub fn arch(&self) -> &ArchParams {
        &self.arch
    }

    /// The registry the engine routes over.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Snapshot of the cumulative cache/allocation counters.
    pub fn stats(&self) -> EngineStats {
        self.counters.snapshot()
    }

    /// Zero every counter. For tests and benchmarks that want absolute
    /// assertions against a shared (e.g. process-global) engine without
    /// bookkeeping a baseline snapshot; caches and pooled contexts are
    /// untouched, so the engine stays warm.
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// `C += A·B`, routed through the decision cache. Thread-safe.
    pub fn multiply(&self, c: MatMut<'_, T>, a: MatRef<'_, T>, b: MatRef<'_, T>) {
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        assert_eq!(b.rows(), k, "A/B inner dimension mismatch");
        assert_eq!((c.rows(), c.cols()), (m, n), "C shape mismatch");
        self.counters.executions.fetch_add(1, Ordering::Relaxed);

        let decision = self.route(m, k, n);
        let start = Instant::now();
        self.execute(self.checkout().ctx(), c, a, b, decision.choice.exec(), self.workers);
        self.audit(m, k, n, &decision, start.elapsed());
    }

    /// Execute many independent problems through the scheduler at once:
    /// each item runs depth-first on one worker and its own pooled context
    /// while the items themselves fan out over the worker pool. For small
    /// problems — where even BFS tasks cannot fill the machine — this
    /// inter-problem parallelism is what keeps every core busy.
    ///
    /// Routing (and its cache) is identical to per-call [`FmmEngine::multiply`];
    /// a batch of one known shape costs one decision lookup per item and
    /// no ranking once warm. On a sequential engine (`parallel: false`)
    /// the items simply run in order.
    pub fn multiply_batch(&self, items: &mut [BatchItem<'_, T>]) {
        // Validate every item before touching any counter: a shape
        // mismatch must leave `EngineStats` exactly as it found it, not
        // count a batch that never executed.
        for item in items.iter() {
            let (m, k) = (item.a.rows(), item.a.cols());
            let n = item.b.cols();
            assert_eq!(item.b.rows(), k, "A/B inner dimension mismatch");
            assert_eq!((item.c.rows(), item.c.cols()), (m, n), "C shape mismatch");
        }
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters.batch_items.fetch_add(items.len() as u64, Ordering::Relaxed);
        self.counters.executions.fetch_add(items.len() as u64, Ordering::Relaxed);
        // Resolve every routing decision up-front (cheap cache hits when
        // warm) so workers never contend on the decision cache.
        let mut cold = false;
        let decisions: Vec<Decision> = items
            .iter()
            .map(|item| {
                let (decision, missed) =
                    self.route_or_miss(item.a.rows(), item.a.cols(), item.b.cols());
                cold |= missed;
                decision
            })
            .collect();

        let workers = self.workers.clamp(1, items.len().max(1));
        // Up to `workers` items execute co-resident, each packing its own
        // buffers — shrink the shared-cache panels accordingly (the same
        // discipline the BFS scheduler applies to its tasks).
        let batch_params = self.config.params.for_workers(workers);
        if cold {
            // Each fan-out worker checks out its own context, and how many
            // do depends on timing; size every context a later batch can
            // hold now, so no warm batch allocates one.
            self.preplan_contexts(|ctx| {
                ctx.set_params(batch_params);
                for (item, decision) in items.iter().zip(&decisions) {
                    if let Some((plan, variant, _)) = decision.choice.exec() {
                        let (m, k, n) = (item.a.rows(), item.a.cols(), item.b.cols());
                        ctx.preplan(plan, variant, Strategy::Dfs, 1, m, k, n);
                    }
                }
            });
        }
        let items_ptr = BatchItemsPtr(items.as_mut_ptr());
        fan_out(
            items.len(),
            workers,
            || {
                let mut guard = self.checkout();
                guard.ctx().set_params(batch_params);
                guard
            },
            |guard, i| {
                // SAFETY: `fan_out` hands each index to exactly one worker,
                // so every `BatchItem` is mutably borrowed by at most one
                // thread, and the borrow in `items` outlives the fan-out.
                let item = unsafe { items_ptr.item(i) };
                // Lower layers (sched tasks, gemm pack/kernel) stamp their
                // spans with this thread's current request id.
                let prev_tag = fmm_obs::trace::set_current_request(item.tag);
                let (m, k, n) = (item.a.rows(), item.a.cols(), item.b.cols());
                let start = Instant::now();
                // Within a batch each problem runs depth-first on one
                // worker; parallelism comes from the items.
                let exec = decisions[i].choice.exec().map(|(plan, v, _)| (plan, v, Strategy::Dfs));
                self.execute(guard.ctx(), item.c.reborrow(), item.a, item.b, exec, 1);
                self.audit(m, k, n, &decisions[i], start.elapsed());
                fmm_obs::trace::set_current_request(prev_tag);
            },
        );
    }

    /// Report one executed multiply to the process-wide decision audit
    /// (`fmm_obs::audit`): predicted vs measured cost, attributed to the
    /// shape's power-of-two class and this engine's dtype.
    /// `multiply_with_plan` deliberately skips this — those runs execute
    /// candidates the router did not choose.
    fn audit(&self, m: usize, k: usize, n: usize, decision: &Decision, elapsed: Duration) {
        let class = ShapeClass::of(m, k, n);
        let sample = AuditSample {
            class_m: class.m as u64,
            class_k: class.k as u64,
            class_n: class.n as u64,
            dtype: AuditDtype::from_name(T::NAME),
            source: decision.source,
            predicted_nanos: decision.predicted_nanos,
            measured_nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            flops: u64::try_from(2u128 * m as u128 * k as u128 * n as u128).unwrap_or(u64::MAX),
        };
        if fmm_obs::audit::record(&sample) {
            self.counters.audit_samples.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.audit_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `C += A·B` with an explicit `(plan, variant)`, using the engine's
    /// pooled contexts (the paper's protocol for measuring top-2 candidates
    /// empirically). Runs depth-first over the engine's workers
    /// (data-parallel block products on a parallel engine). Returns the
    /// number of workspace-arena elements the execution occupied — equal
    /// to [`Variant::workspace_elements`].
    pub fn multiply_with_plan(
        &self,
        c: MatMut<'_, T>,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        plan: &FmmPlan,
        variant: Variant,
    ) -> usize {
        self.counters.executions.fetch_add(1, Ordering::Relaxed);
        let exec = Some((plan, variant, Strategy::Dfs));
        self.execute(self.checkout().ctx(), c, a, b, exec, self.workers)
    }

    /// Resolve (and cache) the routing decision for a shape without
    /// executing anything — composing the plan it routes to, if any —
    /// then preplan a pooled context for it per worker. After this, the
    /// first `multiply` of the shape is already on the warm path.
    pub fn prepare(&self, m: usize, k: usize, n: usize) {
        let decision = self.route(m, k, n);
        if let Some((plan, variant, strategy)) = decision.choice.exec() {
            self.preplan_contexts(|ctx| {
                ctx.preplan(plan, variant, strategy, self.workers, m, k, n);
            });
        }
    }

    /// Check out one context per worker at once, size each with
    /// `preplan`, and pool them all again, counting arena growth.
    fn preplan_contexts(&self, preplan: impl Fn(&mut SchedContext<T>)) {
        let mut guards: Vec<_> = (0..self.workers).map(|_| self.checkout()).collect();
        for guard in &mut guards {
            let ctx = guard.ctx();
            let grows_before = ctx.grow_count();
            preplan(ctx);
            self.counters.arena_grows.fetch_add(ctx.grow_count() - grows_before, Ordering::Relaxed);
        }
    }

    /// Human-readable routing decision for a shape, e.g.
    /// `"<2,2,2>+<2,2,2> ABC"` or `"GEMM"`. Computes and caches the
    /// decision if the shape has not been seen.
    pub fn decision_label(&self, m: usize, k: usize, n: usize) -> String {
        self.route(m, k, n).describe()
    }

    fn route(&self, m: usize, k: usize, n: usize) -> Decision {
        self.route_or_miss(m, k, n).0
    }

    /// The routing decision for a shape, and whether it missed the cache.
    fn route_or_miss(&self, m: usize, k: usize, n: usize) -> (Decision, bool) {
        if let Some(hit) = self.decisions.lock().get(&(m, k, n)) {
            self.counters.decision_hits.fetch_add(1, Ordering::Relaxed);
            return (hit, false);
        }
        self.counters.decision_misses.fetch_add(1, Ordering::Relaxed);
        let span = fmm_obs::trace::start();
        let (decision, predicted) = self.compute_decision(m, k, n);
        fmm_obs::trace::finish_with_args(
            fmm_obs::Kind::EngineDecision,
            fmm_obs::trace::current_request(),
            span,
            predicted,
        );
        // Cold side of the audit: label the shape's class with what the
        // router just chose (one decision per class is representative —
        // classes exist precisely because members route alike).
        let class = ShapeClass::of(m, k, n);
        fmm_obs::audit::note_decision(
            class.m as u64,
            class.k as u64,
            class.n as u64,
            AuditDtype::from_name(T::NAME),
            &decision.describe(),
        );
        self.compose_routed(&decision);
        self.decisions.lock().insert((m, k, n), decision.clone());
        (decision, true)
    }

    /// Run the Kronecker composition of the plan `decision` routes to, so
    /// executing a cached decision never composes. Every other candidate
    /// stays the `O(levels)` description ranking needs.
    fn compose_routed(&self, decision: &Decision) {
        let Choice::Fmm { plan, strategy, .. } = &decision.choice else { return };
        // A hybrid schedule runs the levels below the first through their
        // own plan; `multiply_batch` runs the whole plan depth-first.
        let inner = if matches!(strategy, Strategy::Hybrid) { plan.inner_plan() } else { None };
        // Under the plan cache's lock, so two decisions that miss at once
        // and route to one plan count the one composition there is.
        let _plans = self.plans.lock();
        for plan in std::iter::once(plan).chain(inner) {
            if plan.is_composed() {
                continue;
            }
            self.counters.plan_compositions.fetch_add(1, Ordering::Relaxed);
            let span = fmm_obs::trace::start();
            plan.u();
            fmm_obs::trace::finish(
                fmm_obs::Kind::PlanCompose,
                fmm_obs::trace::current_request(),
                span,
            );
        }
    }

    /// The decision for a shape, and the `EngineDecision` span's args:
    /// the nanos Fig. 5 predicts for the winner, for GEMM and for the
    /// runner-up (0 when nothing else was ranked), before the ranking's
    /// guard band.
    fn compute_decision(&self, m: usize, k: usize, n: usize) -> (Decision, [u64; 3]) {
        let Routing::Pinned { dims, levels, variant, strategy } = self.config.routing else {
            return self.model_decision(m, k, n);
        };
        let gemm = predict_gemm_parallel(m, k, n, &self.arch, self.workers).total_nanos();
        let Some(algo) = self.registry.get(dims) else {
            // No algorithm for the pinned dims: fall back to the GEMM
            // decision (counted, cached like any other decision) rather
            // than killing the process over a routing hint.
            self.counters.pinned_fallbacks.fetch_add(1, Ordering::Relaxed);
            let request = fmm_obs::trace::current_request();
            let miss = fmm_obs::Event::now(fmm_obs::Kind::PinnedMiss, request);
            fmm_obs::trace::record(miss.with_args([m as u64, k as u64, n as u64]));
            let decision = Decision {
                choice: Choice::Gemm,
                source: AuditSource::Fallback,
                predicted_nanos: gemm,
            };
            return (decision, [gemm, gemm, 0]);
        };
        let plan = self.plan_for(&algo, levels);
        // Predict the pinned route itself, so the audit compares reality
        // against what the model believes about *this* choice.
        let impl_ = Impl::from_variant(variant);
        let predicted =
            predict_scheduled(impl_, &plan, m, k, n, &self.arch, self.workers, strategy);
        let predicted_nanos = predicted.total_nanos();
        let choice = Choice::Fmm { plan, variant, strategy };
        let decision = Decision { choice, source: AuditSource::Pinned, predicted_nanos };
        (decision, [predicted_nanos, gemm, 0])
    }

    /// One full model ranking (the paper's §4.4 poly-algorithm) over the
    /// engine's workers, counted in [`EngineStats::rankings`].
    fn model_decision(&self, m: usize, k: usize, n: usize) -> (Decision, [u64; 3]) {
        let plans = self.candidate_plans();
        self.counters.rankings.fetch_add(1, Ordering::Relaxed);
        let variants = &Impl::FMM_VARIANTS;
        let ranked = rank_scheduled(m, k, n, &plans, variants, &self.arch, self.workers, true);
        let best = &ranked[0];
        let choice = match (&best.plan, best.impl_.to_variant()) {
            (Some(plan), Some(variant)) => {
                Choice::Fmm { plan: plan.clone(), variant, strategy: best.strategy }
            }
            _ => Choice::Gemm,
        };
        // Fig. 5's nanos: the guard orders candidates but is no cost, so
        // the audit and the span compare against the model's own figures.
        let predicted_nanos = best.prediction.fig5_nanos();
        let gemm = ranked.iter().find(|c| c.plan.is_none()).expect("GEMM is ranked");
        let runner_up = ranked.get(1).map_or(0, |c| c.prediction.fig5_nanos());
        let predicted = [predicted_nanos, gemm.prediction.total_nanos(), runner_up];
        (Decision { choice, source: AuditSource::Model, predicted_nanos }, predicted)
    }

    /// The candidate plan set model routing ranks over: every registry
    /// algorithm at one and two nesting depths, served from the plan
    /// cache (none composed by being listed or ranked). Callers that want
    /// the model's view of a shape (e.g. predicted-vs-measured harnesses)
    /// should rank over this same set.
    pub fn candidate_plans(&self) -> Vec<Arc<FmmPlan>> {
        let mut plans = Vec::new();
        for (_, algo) in self.registry.paper_rows() {
            for levels in 1..=MAX_LEVELS {
                plans.push(self.plan_for(&algo, levels));
            }
        }
        plans
    }

    /// The cached plan for `levels` nested applications of `algo`, so
    /// every decision routing to it shares one composition.
    fn plan_for(&self, algo: &Arc<fmm_core::FmmAlgorithm>, levels: usize) -> Arc<FmmPlan> {
        let key = (algo.dims(), levels);
        // One lock over the lookup and the insert: building a plan is
        // `O(levels)`, and two threads that miss together must leave with
        // the same `Arc`, or each would compose its own.
        let mut plans = self.plans.lock();
        if let Some(plan) = plans.get(&key) {
            return plan;
        }
        let plan = Arc::new(FmmPlan::from_arcs(vec![algo.clone(); levels]));
        plans.insert(key, plan.clone());
        plan
    }

    /// The one execution step behind `multiply`, every `multiply_batch`
    /// item and `multiply_with_plan`: `C += A·B` as `exec` says (`None` is
    /// plain GEMM) over `workers` workers, on `ctx` and at its blocking
    /// parameters. Returns the workspace-arena elements the FMM core
    /// occupied (0 for GEMM), and counts the arena growth it caused.
    fn execute(
        &self,
        ctx: &mut SchedContext<T>,
        c: MatMut<'_, T>,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        exec: Option<(&FmmPlan, Variant, Strategy)>,
        workers: usize,
    ) -> usize {
        match exec {
            Some((plan, variant, strategy)) => {
                let grows_before = ctx.grow_count();
                let occupied = fmm_sched::execute(c, a, b, plan, variant, strategy, ctx, workers);
                let grown = ctx.grow_count() - grows_before;
                self.counters.arena_grows.fetch_add(grown, Ordering::Relaxed);
                occupied
            }
            // Plain GEMM packs into fmm-gemm's global pool; no arena grows.
            None if workers == 1 => {
                fmm_gemm::gemm_with_params(c, a, b, &ctx.params);
                0
            }
            None => {
                let (dests, a, b) =
                    (&mut [DestTile::new(c, T::ONE)], &[(T::ONE, a)], &[(T::ONE, b)]);
                gemm_sums_with(dests, a, b, &ctx.params, Update::Accumulate, IcLoop::Parallel);
                0
            }
        }
    }

    fn checkout(&self) -> CtxGuard<'_, T> {
        let ctx = match self.contexts.lock().pop() {
            Some(mut ctx) => {
                // A previous checkout (e.g. a batch) may have installed
                // worker-shrunk parameters; restore the configured set.
                ctx.set_params(self.config.params);
                ctx
            }
            None => {
                self.counters.context_allocations.fetch_add(1, Ordering::Relaxed);
                Box::new(SchedContext::new(self.config.params))
            }
        };
        CtxGuard { engine: self, ctx: Some(ctx) }
    }

    fn release_context(&self, ctx: Box<SchedContext<T>>) {
        let mut pool = self.contexts.lock();
        if pool.len() < MAX_POOLED_CONTEXTS {
            pool.push(ctx);
        }
    }
}

/// Raw pointer to a batch's items, shared across the fan-out workers.
/// Safety rests on the fan-out's each-index-exactly-once guarantee; see
/// the comment at the use site.
struct BatchItemsPtr<'a, T>(*mut BatchItem<'a, T>);

impl<'a, T: GemmScalar> BatchItemsPtr<'a, T> {
    /// Mutable access to item `i`.
    ///
    /// # Safety
    /// At most one live borrow per index, and the parent slice must
    /// outlive it — both upheld by the fan-out index protocol.
    #[allow(clippy::mut_from_ref)]
    unsafe fn item(&self, i: usize) -> &mut BatchItem<'a, T> {
        // SAFETY: `i` indexes into the parent slice and no other borrow of
        // it is live, per the caller's contract.
        unsafe { &mut *self.0.add(i) }
    }
}

// SAFETY: dereferencing is `unsafe` at the use site, with disjointness
// guaranteed by the fan-out index protocol; sending the pointer moves no
// item.
unsafe impl<T: GemmScalar> Send for BatchItemsPtr<'_, T> {}
// SAFETY: shared across the fan-out's workers, the pointer still reaches
// an item only through the `unsafe` `item`, one index per worker.
unsafe impl<T: GemmScalar> Sync for BatchItemsPtr<'_, T> {}

impl<T: GemmScalar> std::fmt::Debug for FmmEngine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FmmEngine(decisions={}, plans={}, pooled_contexts={}, stats={:?})",
            self.decisions.lock().len(),
            self.plans.lock().len(),
            self.contexts.lock().len(),
            self.stats()
        )
    }
}

// The engine is shared across threads (`multiply(&self, ..)`); both auto
// traits must hold for a process-global engine.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FmmEngine<f64>>();
    assert_send_sync::<FmmEngine<f32>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_dense::{fill, norms, Matrix};

    fn tiny_config(routing: Routing) -> EngineConfig {
        EngineConfig {
            arch: ArchParams::paper_machine().into(),
            params: BlockingParams::tiny(),
            routing,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn multiply_matches_reference_via_model_routing() {
        let engine = FmmEngine::new(tiny_config(Routing::Model));
        for (m, k, n) in [(37, 29, 41), (64, 64, 64), (5, 120, 5)] {
            let a = fill::bench_workload(m, k, 1);
            let b = fill::bench_workload(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
            let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
            assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn decision_cache_hits_skip_ranking() {
        let engine = FmmEngine::new(tiny_config(Routing::Model));
        let a = fill::bench_workload(48, 32, 1);
        let b = fill::bench_workload(32, 40, 2);
        let mut c = Matrix::zeros(48, 40);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        let cold = engine.stats();
        assert_eq!(cold.decision_misses, 1);
        assert_eq!(cold.rankings, 1);
        for _ in 0..5 {
            engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        }
        let warm = engine.stats();
        assert_eq!(warm.rankings, cold.rankings, "no re-ranking on cache hits");
        assert_eq!(warm.plan_compositions, cold.plan_compositions);
        assert_eq!(warm.decision_hits, cold.decision_hits + 5);
    }

    #[test]
    fn pinned_routing_runs_the_requested_plan() {
        let engine = FmmEngine::new(tiny_config(Routing::Pinned {
            dims: (2, 2, 2),
            levels: 1,
            variant: Variant::Abc,
            strategy: Strategy::Dfs,
        }));
        assert_eq!(engine.decision_label(32, 32, 32), "<2,2,2> ABC");
        let a = fill::bench_workload(32, 32, 3);
        let b = fill::bench_workload(32, 32, 4);
        let mut c = Matrix::zeros(32, 32);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
        assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-10);
    }

    #[test]
    fn stats_fields_and_reset_are_coherent() {
        let engine = FmmEngine::new(tiny_config(Routing::Model));
        let a = fill::bench_workload(48, 32, 1);
        let b = fill::bench_workload(32, 40, 2);
        let mut c = Matrix::zeros(48, 40);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());

        let stats = engine.stats();
        let fields = stats.fields();
        // The reflection surface must cover every public counter.
        assert_eq!(
            fields.iter().map(|(_, v)| *v).sum::<u64>(),
            stats.executions
                + stats.decision_hits
                + stats.decision_misses
                + stats.rankings
                + stats.plan_compositions
                + stats.context_allocations
                + stats.arena_grows
                + stats.batches
                + stats.batch_items
                + stats.pinned_fallbacks
                + stats.audit_samples
                + stats.audit_drops,
        );
        // Every field name is unique (duplicates would silently collide
        // in the serve daemon's stats snapshot).
        let names: std::collections::BTreeSet<&str> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), fields.len(), "duplicate field names in {fields:?}");
        // An executed multiply must have produced an audit sample (or a
        // counted drop if another test filled the process-wide table).
        assert_eq!(stats.audit_samples + stats.audit_drops, 1, "multiply must audit");

        engine.reset_stats();
        assert_eq!(engine.stats(), EngineStats::default());
        // Caches survive a reset: the next call is a decision hit.
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        let warm = engine.stats();
        assert_eq!(warm.executions, 1);
        assert_eq!(warm.decision_hits, 1);
        assert_eq!(warm.rankings, 0);
    }

    #[test]
    fn prepare_makes_the_first_call_warm() {
        let engine = FmmEngine::new(tiny_config(Routing::Pinned {
            dims: (2, 2, 2),
            levels: 2,
            variant: Variant::Naive,
            strategy: Strategy::Dfs,
        }));
        engine.prepare(36, 36, 36);
        let prepared = engine.stats();
        assert_eq!(prepared.decision_misses, 1);
        let a = fill::bench_workload(36, 36, 5);
        let b = fill::bench_workload(36, 36, 6);
        let mut c = Matrix::zeros(36, 36);
        engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
        let after = engine.stats();
        assert_eq!(after.arena_grows, prepared.arena_grows, "arena was preplanned");
        assert_eq!(after.context_allocations, prepared.context_allocations);
        assert_eq!(after.plan_compositions, prepared.plan_compositions);
    }
}
