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
//! Parallel engines (`EngineConfig::parallel`) execute through the
//! `fmm-sched` BFS/DFS/hybrid scheduler: the model ranks `(plan, variant,
//! strategy)` triples per shape, and [`FmmEngine::multiply_batch`] runs
//! many independent problems at once with inter-problem parallelism.
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

use fmm_core::executor::ArenaLayout;
use fmm_core::registry::Registry;
pub use fmm_core::Strategy;
// `Routing::Pinned` and `multiply_with_plan` take a `Variant`; re-export
// it so engine consumers need no direct fmm-core dependency for routing.
pub use fmm_core::Variant;
pub use fmm_sched::SchedContext;

use fmm_core::{fmm_execute, FmmPlan};
use fmm_dense::{MatMut, MatRef};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::{
    predict_gemm_parallel, predict_scheduled, rank_candidates, rank_scheduled, ArchParams, Impl,
};
use fmm_obs::audit::{AuditDtype, AuditSample, AuditSource};
use fmm_sched::fan_out;
use fmm_tune::ShapeClass;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the engine chooses a `(plan, variant)` per shape.
#[derive(Clone, Debug)]
pub enum Routing {
    /// The paper's §4.4 poly-algorithm: rank every registry `(plan,
    /// variant)` candidate plus plain GEMM with the performance model and
    /// run the best prediction. Parallel engines rank `(plan, variant,
    /// strategy)` triples with the parallel-time model instead.
    Model,
    /// Always run `levels` nested applications of the registry algorithm
    /// with partition dims `dims`, as `variant`. For workloads with known
    /// structure, and for tests that need a deterministic FMM route.
    Pinned {
        /// Partition dims of the registry algorithm, e.g. `(2, 2, 2)`.
        dims: (usize, usize, usize),
        /// Nesting depth (1 or 2 are practical).
        levels: usize,
        /// Implementation strategy.
        variant: Variant,
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
    /// GEMM blocking parameters for every execution.
    pub params: BlockingParams,
    /// Use the parallel execution paths (the `fmm-sched` scheduler for
    /// FMM, loop-3 data parallelism for plain GEMM).
    pub parallel: bool,
    /// Worker count for parallel execution and parallel-model routing;
    /// `0` means the rayon pool width, and explicit values are clamped to
    /// it (the pool bounds the parallelism every execution path can
    /// realize, so ranking beyond it would model speedups that cannot
    /// happen). The width is read once, when the engine is built.
    /// Ignored when `parallel` is false.
    pub workers: usize,
    /// Force every FMM execution onto one schedule instead of letting the
    /// model pick per shape. Ignored when `parallel` is false (sequential
    /// engines always run depth-first).
    pub strategy: Option<Strategy>,
    /// Maximum plan levels the model considers (1 or 2 are practical).
    pub max_levels: usize,
    /// Routing policy.
    pub routing: Routing,
}

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
            strategy: None,
            max_levels: 2,
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
    /// model's total). When a strategy override rewrites the schedule,
    /// the prediction still describes the ranked schedule.
    predicted_nanos: u64,
}

#[derive(Clone)]
enum Choice {
    Gemm,
    Fmm { plan: Arc<FmmPlan>, variant: Variant, strategy: Strategy },
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
            /// order. This is the reflection surface consumers like
            /// `fmm-serve`'s stats channel render from, so a new counter
            /// shows up everywhere by being declared once.
            /// Length-agnostic by design: callers must iterate, never
            /// assume a fixed arity, so a new counter cannot silently
            /// truncate the mirror.
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

/// One line of `name=value` pairs in [`EngineStats::fields`] order — the
/// rendering the serve daemon's stats frame and log lines use.
impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (name, value)) in self.fields().iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={value}")?;
        }
        Ok(())
    }
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
    /// [`EngineConfig::workers`] against the rayon pool width as it was
    /// when the engine was built: every decision the engine caches was
    /// ranked for this count, and asking for the width again (cgroup and
    /// affinity reads) costs more than a small multiply.
    workers: usize,
    registry: Arc<Registry>,
    decisions: Mutex<LruCache<(usize, usize, usize), Decision>>,
    plans: Mutex<LruCache<PlanKey, Arc<FmmPlan>>>,
    contexts: Mutex<Vec<SchedContext<T>>>,
    counters: Counters,
}

/// A checked-out pooled context; returns itself to the engine on drop.
struct CtxGuard<'a, T: GemmScalar> {
    engine: &'a FmmEngine<T>,
    ctx: Option<SchedContext<T>>,
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
        assert!(config.max_levels >= 1, "max_levels must be at least 1");
        assert!(
            config.parallel || config.workers == 0,
            "EngineConfig {{ workers: {}, parallel: false }} is contradictory: \
             workers only applies to parallel engines (set parallel: true, or workers: 0)",
            config.workers
        );
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
        let workers = match (config.parallel, config.workers) {
            (false, _) => 1,
            (true, 0) => rayon::current_num_threads(),
            (true, n) => n.min(rayon::current_num_threads()).max(1),
        };
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
        match &decision.choice {
            Choice::Gemm => self.run_gemm(c, a, b),
            Choice::Fmm { plan, variant, strategy } => {
                self.run_fmm(c, a, b, plan, *variant, *strategy);
            }
        }
        self.audit(m, k, n, &decision, start.elapsed());
    }

    /// Execute many independent problems through the scheduler at once:
    /// each item runs sequentially on its own pooled context while the
    /// items themselves fan out over the worker pool. For small problems —
    /// where even BFS tasks cannot fill the machine — this inter-problem
    /// parallelism is what keeps every core busy.
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
        let decisions: Vec<Decision> = items
            .iter()
            .map(|item| self.route(item.a.rows(), item.a.cols(), item.b.cols()))
            .collect();

        let items_ptr = BatchItemsPtr(items.as_mut_ptr());
        let workers = self.workers.clamp(1, items.len().max(1));
        // Up to `workers` items execute co-resident, each packing its own
        // buffers — shrink the shared-cache panels accordingly (the same
        // discipline the BFS scheduler applies to its tasks).
        let batch_params = self.config.params.for_workers(workers);
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
                match &decisions[i].choice {
                    Choice::Gemm => {
                        fmm_gemm::gemm_with_params(
                            item.c.reborrow(),
                            item.a,
                            item.b,
                            &batch_params,
                        );
                    }
                    Choice::Fmm { plan, variant, .. } => {
                        let ctx = guard.ctx();
                        let grows_before = ctx.grow_count();
                        // Within a batch each problem runs depth-first and
                        // sequential; parallelism comes from the items.
                        fmm_execute(
                            item.c.reborrow(),
                            item.a,
                            item.b,
                            plan,
                            *variant,
                            ctx.fmm_context(),
                        );
                        self.counters
                            .arena_grows
                            .fetch_add(ctx.grow_count() - grows_before, Ordering::Relaxed);
                    }
                }
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
    /// empirically). Runs depth-first (data-parallel block products on a
    /// parallel engine). Returns the number of workspace-arena elements
    /// the execution occupied — equal to [`Variant::workspace_elements`].
    pub fn multiply_with_plan(
        &self,
        c: MatMut<'_, T>,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        plan: &FmmPlan,
        variant: Variant,
    ) -> usize {
        self.counters.executions.fetch_add(1, Ordering::Relaxed);
        self.run_fmm(c, a, b, plan, variant, Strategy::Dfs)
    }

    /// Resolve (and cache) the routing decision for a shape without
    /// executing anything — composing the plan it routes to, if any —
    /// then preplan one pooled context for it — after
    /// this, the first `multiply` of the shape is already on the warm path.
    pub fn prepare(&self, m: usize, k: usize, n: usize) {
        let decision = self.route(m, k, n);
        if let Choice::Fmm { plan, variant, strategy } = decision.choice {
            let mut guard = self.checkout();
            let ctx = guard.ctx();
            let grows_before = ctx.grow_count();
            if self.config.parallel {
                ctx.preplan(&plan, variant, strategy, self.workers, m, k, n);
            } else {
                ctx.fmm_context().preplan(&plan, variant, m, k, n);
            }
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
        if let Some(hit) = self.decisions.lock().get(&(m, k, n)) {
            self.counters.decision_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.counters.decision_misses.fetch_add(1, Ordering::Relaxed);
        let span = fmm_obs::trace::start();
        let decision = self.compute_decision(m, k, n);
        fmm_obs::trace::finish(
            fmm_obs::SpanKind::EngineDecision,
            fmm_obs::trace::current_request(),
            span,
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
        decision
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
                fmm_obs::SpanKind::PlanCompose,
                fmm_obs::trace::current_request(),
                span,
            );
        }
    }

    fn compute_decision(&self, m: usize, k: usize, n: usize) -> Decision {
        let decision = match &self.config.routing {
            Routing::Pinned { dims, levels, variant } => match self.registry.get(*dims) {
                Some(algo) => {
                    let plan = self.plan_for(&algo, *levels);
                    // Predict the pinned plan itself so the audit compares
                    // reality against what the model believes about *this*
                    // choice (workers == 1 + DFS reduces to the
                    // sequential model).
                    let predicted = predict_scheduled(
                        Impl::from_variant(*variant),
                        &plan,
                        m,
                        k,
                        n,
                        &self.arch,
                        self.workers,
                        Strategy::Dfs,
                    );
                    Decision {
                        choice: Choice::Fmm { plan, variant: *variant, strategy: Strategy::Dfs },
                        source: AuditSource::Pinned,
                        predicted_nanos: predicted.total_nanos(),
                    }
                }
                // No algorithm for the pinned dims: fall back to the GEMM
                // decision (counted, cached like any other decision) rather
                // than killing the process over a routing hint.
                None => {
                    self.counters.pinned_fallbacks.fetch_add(1, Ordering::Relaxed);
                    fmm_obs::flight::record(fmm_obs::FlightEvent::EngineFallback {
                        reason: fmm_obs::flight::FallbackReason::PinnedMiss,
                        m: m as u64,
                        k: k as u64,
                        n: n as u64,
                    });
                    let predicted = predict_gemm_parallel(m, k, n, &self.arch, self.workers);
                    Decision {
                        choice: Choice::Gemm,
                        source: AuditSource::Fallback,
                        predicted_nanos: predicted.total_nanos(),
                    }
                }
            },
            Routing::Model => self.model_decision(m, k, n),
        };
        // The strategy override replaces whatever routing picked (it only
        // takes effect on parallel engines; sequential execution is always
        // depth-first).
        match (decision, self.config.strategy) {
            (
                Decision { choice: Choice::Fmm { plan, variant, .. }, source, predicted_nanos },
                Some(strategy),
            ) if self.config.parallel => Decision {
                choice: Choice::Fmm { plan, variant, strategy },
                source,
                predicted_nanos,
            },
            (decision, _) => decision,
        }
    }

    /// One full model ranking (the paper's §4.4 poly-algorithm), counted
    /// in [`EngineStats::rankings`]: scheduled triples for parallel
    /// engines, sequential pairs otherwise.
    fn model_decision(&self, m: usize, k: usize, n: usize) -> Decision {
        let plans = self.candidate_plans();
        self.counters.rankings.fetch_add(1, Ordering::Relaxed);
        if self.config.parallel {
            let ranked = rank_scheduled(
                m,
                k,
                n,
                &plans,
                &Impl::FMM_VARIANTS,
                &self.arch,
                self.workers,
                true,
            );
            let best = &ranked[0];
            let choice = match (&best.plan, best.impl_.to_variant()) {
                (Some(plan), Some(variant)) => {
                    Choice::Fmm { plan: plan.clone(), variant, strategy: best.strategy }
                }
                _ => Choice::Gemm,
            };
            Decision {
                choice,
                source: AuditSource::Model,
                predicted_nanos: best.prediction.total_nanos(),
            }
        } else {
            let ranked = rank_candidates(m, k, n, &plans, &Impl::FMM_VARIANTS, &self.arch, true);
            let best = &ranked[0];
            let choice = match (&best.plan, best.impl_.to_variant()) {
                (Some(plan), Some(variant)) => {
                    Choice::Fmm { plan: plan.clone(), variant, strategy: Strategy::Dfs }
                }
                _ => Choice::Gemm,
            };
            Decision {
                choice,
                source: AuditSource::Model,
                predicted_nanos: best.prediction.total_nanos(),
            }
        }
    }

    /// The candidate plan set model routing ranks over: every registry
    /// algorithm at 1..=`max_levels` nesting depths, served from the plan
    /// cache (none composed by being listed or ranked). Callers that want
    /// the model's view of a shape (e.g. predicted-vs-measured harnesses)
    /// should rank over this same set.
    pub fn candidate_plans(&self) -> Vec<Arc<FmmPlan>> {
        let mut plans = Vec::new();
        for (_, algo) in self.registry.paper_rows() {
            for levels in 1..=self.config.max_levels {
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

    fn run_gemm(&self, c: MatMut<'_, T>, a: MatRef<'_, T>, b: MatRef<'_, T>) {
        // Plain GEMM packing buffers come from fmm-gemm's global pool.
        if self.config.parallel {
            fmm_gemm::gemm_parallel(c, a, b);
        } else {
            fmm_gemm::gemm(c, a, b);
        }
    }

    fn run_fmm(
        &self,
        c: MatMut<'_, T>,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        plan: &FmmPlan,
        variant: Variant,
        strategy: Strategy,
    ) -> usize {
        let mut guard = self.checkout();
        let ctx = guard.ctx();
        let grows_before = ctx.grow_count();
        let occupied = if self.config.parallel {
            let task_ws = fmm_sched::execute(c, a, b, plan, variant, strategy, ctx, self.workers);
            if matches!(strategy, Strategy::Dfs) {
                ctx.fmm_context().last_layout().map_or(0, ArenaLayout::total_elements)
            } else {
                task_ws
            }
        } else {
            let fmm = ctx.fmm_context();
            fmm_execute(c, a, b, plan, variant, fmm);
            fmm.last_layout().map_or(0, ArenaLayout::total_elements)
        };
        self.counters.arena_grows.fetch_add(ctx.grow_count() - grows_before, Ordering::Relaxed);
        occupied
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
                SchedContext::new(self.config.params)
            }
        };
        CtxGuard { engine: self, ctx: Some(ctx) }
    }

    fn release_context(&self, ctx: SchedContext<T>) {
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
// guaranteed by the fan-out index protocol.
unsafe impl<T: GemmScalar> Send for BatchItemsPtr<'_, T> {}
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
    fn stats_fields_display_and_reset_are_coherent() {
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
        // in the serve-side registry mirror).
        let names: std::collections::BTreeSet<&str> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), fields.len(), "duplicate field names in {fields:?}");
        // An executed multiply must have produced an audit sample (or a
        // counted drop if another test filled the process-wide table).
        assert_eq!(stats.audit_samples + stats.audit_drops, 1, "multiply must audit");
        let rendered = stats.to_string();
        assert!(rendered.contains("executions=1"), "{rendered}");
        assert!(rendered.contains("rankings=1"), "{rendered}");
        assert!(rendered.contains("audit_samples="), "{rendered}");

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
