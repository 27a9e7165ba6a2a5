//! `fmm-sched` — a task-parallel BFS/DFS/hybrid scheduler for FMM plans.
//!
//! The paper parallelizes only *inside* each block product (loop-3 data
//! parallelism around the GEMM micro-kernel, §5.1) — that is
//! [`Strategy::Dfs`], where the `R_L` submultiplications run strictly
//! sequentially; over one worker it is the sequential executor itself.
//! Benson & Ballard (*A Framework for Practical Parallel Fast Matrix
//! Multiplication*, PPoPP 2015) show that **task** parallelism
//! across the submultiplications dominates for small-to-medium problems,
//! where a single block product has too few micro-panel rows to feed every
//! core:
//!
//! * [`Strategy::Bfs`] fans all `R_L` products out as tasks over the
//!   worker pool. Each task runs the executor's own product step
//!   ([`fmm_core::executor::form_product`]) into a task-private `M_r`
//!   carved from one grow-only workspace arena
//!   ([`fmm_core::executor::TaskSlots`]); a second parallel phase then
//!   merges `C_p += Σ_r W[p,r]·M_r`, one task per destination block (the
//!   blocks are disjoint, so the merge needs no synchronization).
//! * [`Strategy::Hybrid`] fans out only the `R_1` level-1 products and
//!   executes the remaining levels depth-first inside each task — the
//!   sweet spot when `R_L` tasks would be too fine-grained but one product
//!   is too coarse for data parallelism. Its merge phase is BFS's.
//!
//! Per-task GEMMs run their `ic` loop inline ([`IcLoop::Inline`]) with
//! [`BlockingParams::for_workers`]-shrunk panels, so task parallelism never
//! oversubscribes cores or the shared cache. The rims dynamic peeling
//! leaves run through the executor's rim loop
//! ([`fmm_core::executor::run_rims`]) with a parallel `ic` loop. All per-task state — the task
//! arena, a context-private packing-workspace pool, and the hybrid
//! strategy's inner DFS contexts — lives in a reusable [`SchedContext`],
//! whose [`SchedContext::grow_count`] stays flat once warm: the warm
//! scheduler path performs **zero** heap allocation for per-task
//! workspaces.
//!
//! # Example
//!
//! ```
//! use fmm_core::{registry, FmmPlan, Strategy, Variant};
//! use fmm_dense::{fill, Matrix};
//! use fmm_sched::SchedContext;
//!
//! let plan = FmmPlan::uniform(registry::strassen(), 2);
//! let a = fill::bench_workload(64, 64, 1);
//! let b = fill::bench_workload(64, 64, 2);
//! let mut c = Matrix::zeros(64, 64);
//! let mut ctx = SchedContext::with_defaults();
//! fmm_sched::execute(
//!     c.as_mut(), a.as_ref(), b.as_ref(),
//!     &plan, Variant::Abc, Strategy::Bfs, &mut ctx, 4,
//! );
//! let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
//! assert!(fmm_dense::norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-9);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]

use fmm_core::executor::{
    form_product, gather_terms, run_rims, ArenaViews, DestBlocks, OperandBlocks, TaskSlots,
    WorkspaceArena,
};
use fmm_core::{
    fmm_execute, fmm_execute_parallel, peeling, tasks, CoeffMatrix, FmmContext, FmmPlan, Variant,
};
use fmm_dense::{ops, MatMut, MatRef};
use fmm_gemm::{BlockingParams, GemmScalar, IcLoop, WorkspacePool};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

pub use fmm_core::tasks::Strategy;

/// Gauge counting workers currently inside a [`fan_out`] — the live
/// busy-worker view exported through the process-global obs registry.
fn busy_gauge() -> &'static Arc<fmm_obs::Gauge> {
    static G: OnceLock<Arc<fmm_obs::Gauge>> = OnceLock::new();
    G.get_or_init(|| fmm_obs::global().gauge("fmm_sched_workers_busy"))
}

/// Histogram of per-task execution time across both task strategies.
fn task_hist() -> &'static Arc<fmm_obs::Histogram> {
    static H: OnceLock<Arc<fmm_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| fmm_obs::global().histogram("fmm_sched_task_nanos"))
}

/// Per-strategy execution counters in the process-global registry —
/// the scheduler-level view the decision audit's per-source counts are
/// checked against (e.g. "the audit says this class runs BFS; does the
/// scheduler agree?").
fn strategy_counter(strategy: Strategy) -> &'static Arc<fmm_obs::Counter> {
    static DFS: OnceLock<Arc<fmm_obs::Counter>> = OnceLock::new();
    static BFS: OnceLock<Arc<fmm_obs::Counter>> = OnceLock::new();
    static HYBRID: OnceLock<Arc<fmm_obs::Counter>> = OnceLock::new();
    match strategy {
        Strategy::Dfs => DFS.get_or_init(|| fmm_obs::global().counter("fmm_sched_exec_dfs")),
        Strategy::Bfs => BFS.get_or_init(|| fmm_obs::global().counter("fmm_sched_exec_bfs")),
        Strategy::Hybrid => {
            HYBRID.get_or_init(|| fmm_obs::global().counter("fmm_sched_exec_hybrid"))
        }
    }
}

/// Monotonic counters exposing the scheduler's behavior; snapshot via
/// [`SchedContext::stats`] and difference to assert warm-path properties.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// BFS core executions performed.
    pub bfs_executions: u64,
    /// Hybrid core executions performed (1-level plans delegate to BFS).
    pub hybrid_executions: u64,
    /// Submultiplication tasks fanned out across both task strategies.
    pub tasks_executed: u64,
    /// Inner DFS contexts constructed for hybrid tasks (flat once the
    /// context pool holds one per concurrently-active worker).
    pub inner_context_allocations: u64,
}

/// Reusable scheduler state: the DFS/rim execution context, the grow-only
/// per-task workspace arena, a context-private packing-workspace pool for
/// per-task GEMMs, and the hybrid strategy's pooled inner DFS contexts.
///
/// Like [`FmmContext`], a `SchedContext` reaches a steady state where
/// repeated executions perform no heap allocation — [`SchedContext::grow_count`]
/// aggregates every allocation source and stays flat once warm.
pub struct SchedContext<T = f64> {
    /// Blocking parameters for every GEMM the scheduler dispatches
    /// (per-task GEMMs shrink them via [`BlockingParams::for_workers`]).
    pub params: BlockingParams,
    fmm: FmmContext<T>,
    task_arena: WorkspaceArena<T>,
    packing_pool: WorkspacePool<T>,
    inner_ctxs: Mutex<Vec<FmmContext<T>>>,
    inner_allocations: AtomicU64,
    inner_arena_grows: AtomicU64,
    bfs_executions: AtomicU64,
    hybrid_executions: AtomicU64,
    tasks_executed: AtomicU64,
}

impl<T: GemmScalar> SchedContext<T> {
    /// Context with the default (paper §5.1) blocking parameters.
    pub fn with_defaults() -> Self {
        Self::new(BlockingParams::default())
    }

    /// Context with explicit blocking parameters. Everything starts empty;
    /// the first execution of a shape (or [`SchedContext::preplan`]) sizes it.
    pub fn new(params: BlockingParams) -> Self {
        Self {
            params,
            fmm: FmmContext::new(params),
            task_arena: WorkspaceArena::new(),
            packing_pool: WorkspacePool::new(),
            inner_ctxs: Mutex::new(Vec::new()),
            inner_allocations: AtomicU64::new(0),
            inner_arena_grows: AtomicU64::new(0),
            bfs_executions: AtomicU64::new(0),
            hybrid_executions: AtomicU64::new(0),
            tasks_executed: AtomicU64::new(0),
        }
    }

    /// Replace the blocking parameters on this context and its wrapped DFS
    /// context (e.g. worker-shrunk panels for batch execution). Packing
    /// workspaces never shrink, so flipping between parameter sets on a
    /// warm context does not reallocate.
    pub fn set_params(&mut self, params: BlockingParams) {
        self.params = params;
        self.fmm.params = params;
    }

    /// Scheduler behavior counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            bfs_executions: self.bfs_executions.load(Ordering::Relaxed),
            hybrid_executions: self.hybrid_executions.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            inner_context_allocations: self.inner_allocations.load(Ordering::Relaxed),
        }
    }

    /// Aggregate allocation count across every workspace this context
    /// owns: the DFS arena, the per-task arena, the context-private
    /// packing pool, and the hybrid inner contexts (constructions and
    /// their arena growth). Flat once warm — the testable form of the
    /// "warm scheduler path grows no workspace" guarantee.
    pub fn grow_count(&self) -> u64 {
        self.fmm.arena_grow_count()
            + self.task_arena.grow_count()
            + self.packing_pool.allocation_count()
            + self.inner_allocations.load(Ordering::Relaxed)
            + self.inner_arena_grows.load(Ordering::Relaxed)
    }

    /// Size every workspace `(plan, variant, strategy)` needs for an
    /// `(m, k, n)` problem over `workers` workers, so the execution itself
    /// grows no workspace. Idempotent; never shrinks.
    #[allow(clippy::too_many_arguments)]
    pub fn preplan(
        &mut self,
        plan: &FmmPlan,
        variant: Variant,
        strategy: Strategy,
        workers: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let workers = resolve_workers(workers);
        let (mc, kc, nc) = peeling::peel(m, k, n, plan.partition_dims()).core;
        match strategy {
            Strategy::Dfs => self.fmm.preplan(plan, variant, m, k, n),
            Strategy::Bfs => {
                let workers = workers.clamp(1, plan.rank());
                if mc > 0 && kc > 0 && nc > 0 {
                    let layout = tasks::bfs_task_layout(variant, plan, mc, kc, nc);
                    self.task_arena.preplan_tasks(&layout, plan.rank());
                }
                self.prewarm_packing(workers);
            }
            Strategy::Hybrid => {
                if plan.inner_plan().is_none() {
                    return self.preplan(plan, variant, Strategy::Bfs, workers, m, k, n);
                }
                let workers = workers.clamp(1, plan.first_level().rank());
                if mc > 0 && kc > 0 && nc > 0 {
                    let layout = tasks::hybrid_task_layout(plan, mc, kc, nc);
                    let r1 = plan.first_level().rank();
                    self.task_arena.preplan_tasks(&layout, r1);
                    self.prewarm_inner_contexts(plan, variant, workers, mc, kc, nc);
                }
            }
        }
    }

    /// Warm the packing pool with one workspace per worker (held
    /// simultaneously so the pool really ends up `workers` deep).
    fn prewarm_packing(&mut self, workers: usize) {
        let params = self.params.for_workers(workers);
        let held: Vec<_> = (0..workers).map(|_| self.packing_pool.acquire(&params)).collect();
        drop(held);
    }

    /// Warm the hybrid inner-context pool: one preplanned DFS context per
    /// worker, each sized for the level-1 block problem.
    fn prewarm_inner_contexts(
        &mut self,
        plan: &FmmPlan,
        variant: Variant,
        workers: usize,
        mc: usize,
        kc: usize,
        nc: usize,
    ) {
        let inner = plan.inner_plan().expect("hybrid prewarm needs a multi-level plan");
        let (m1, k1, n1) = plan.first_level().dims();
        let (bm, bk, bn) = (mc / m1, kc / k1, nc / n1);
        let task_params = self.params.for_workers(workers);
        let mut pool = self.inner_ctxs.lock();
        while pool.len() < workers {
            self.inner_allocations.fetch_add(1, Ordering::Relaxed);
            pool.push(FmmContext::new(task_params));
        }
        for ctx in pool.iter_mut() {
            let before = ctx.arena_grow_count();
            ctx.preplan(inner, variant, bm, bk, bn);
            self.inner_arena_grows.fetch_add(ctx.arena_grow_count() - before, Ordering::Relaxed);
        }
    }
}

impl<T: GemmScalar> std::fmt::Debug for SchedContext<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SchedContext(grows={}, stats={:?})", self.grow_count(), self.stats())
    }
}

// A scheduler context moves between engine callers like an `FmmContext`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SchedContext<f64>>();
    assert_send_sync::<SchedContext<f32>>();
};

/// `0` means "use the rayon pool width"; explicit counts are clamped to
/// the pool width, since that is all the parallelism the fan-out can
/// actually realize — prewarming pools or shrinking cache panels beyond it
/// would pay for concurrency that never happens. One worker is one worker
/// at any width, so it does not ask: the query (cgroup and affinity reads)
/// costs more than the small problems that run one wide.
fn resolve_workers(workers: usize) -> usize {
    if workers == 1 {
        return 1;
    }
    let pool = rayon::current_num_threads();
    if workers == 0 {
        pool
    } else {
        workers.min(pool).max(1)
    }
}

/// Self-scheduling fan-out: run `body` for every index in `0..tasks` over
/// at most `workers` workers, each with a private `init()` state. Workers
/// claim indices from a shared atomic counter, so load imbalance between
/// tasks (e.g. FMM products with different numbers of operand terms)
/// spreads evenly — unlike static chunking. Built on the rayon stand-in's
/// [`rayon::scope`]; effective parallelism is additionally bounded by the
/// rayon pool width.
pub fn fan_out<S, I, F>(tasks: usize, workers: usize, init: I, body: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if tasks == 0 {
        return;
    }
    let workers = resolve_workers(workers).clamp(1, tasks);
    let busy = busy_gauge();
    if workers == 1 {
        busy.add(1);
        let mut state = init();
        for i in 0..tasks {
            body(&mut state, i);
        }
        busy.sub(1);
        return;
    }
    let next = AtomicUsize::new(0);
    rayon::scope(|sc| {
        for _ in 0..workers {
            sc.spawn(|_| {
                busy.add(1);
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    body(&mut state, i);
                }
                busy.sub(1);
            });
        }
    });
}

/// Execute `C += A·B` under `strategy` with `workers` workers (`0` = the
/// rayon pool width; explicit counts are clamped to it). Arbitrary
/// dimensions; fringes are handled by dynamic peeling exactly as in
/// [`fmm_core::fmm_execute`], through the same rim loop. Returns the
/// workspace-arena elements the core execution occupied: the wrapped
/// context's arena for DFS ([`Variant::workspace_elements`]), the per-task
/// regions for BFS and hybrid.
///
/// DFS over one worker runs [`fmm_core::fmm_execute`] inline, so a
/// sequential caller and a one-thread pool run the same code. Over more
/// workers it delegates to [`fmm_core::fmm_execute_parallel`]: block
/// products data-parallel over the *full* rayon pool (its `ic`-loop does
/// not take a worker bound), products sequential. BFS and hybrid fan tasks
/// out as described in the crate docs, with effective parallelism
/// `min(workers, tasks, pool width)`.
#[allow(clippy::too_many_arguments)]
pub fn execute<T: GemmScalar>(
    mut c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    plan: &FmmPlan,
    variant: Variant,
    strategy: Strategy,
    ctx: &mut SchedContext<T>,
    workers: usize,
) -> usize {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "A/B inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "C shape mismatch");

    let workers = resolve_workers(workers);
    if matches!(strategy, Strategy::Dfs) {
        strategy_counter(Strategy::Dfs).inc();
        if workers == 1 {
            fmm_execute(c, a, b, plan, variant, &mut ctx.fmm);
        } else {
            fmm_execute_parallel(c, a, b, plan, variant, &mut ctx.fmm);
        }
        return ctx.fmm.fmm_workspace_elements();
    }
    // Hybrid of a one-level plan has no inner levels to run depth-first;
    // it *is* BFS.
    let strategy = if matches!(strategy, Strategy::Hybrid) && plan.inner_plan().is_none() {
        Strategy::Bfs
    } else {
        strategy
    };
    // Counted after the downgrade: the counter reports what actually ran.
    strategy_counter(strategy).inc();

    let peel = peeling::peel(m, k, n, plan.partition_dims());
    let (mc, kc, nc) = peel.core;
    let mut occupied = 0;
    if mc > 0 && kc > 0 && nc > 0 {
        let a_core = a.submatrix(0, 0, mc, kc);
        let b_core = b.submatrix(0, 0, kc, nc);
        let c_core = c.reborrow().submatrix(0, 0, mc, nc);
        occupied = match strategy {
            Strategy::Bfs => bfs_core(ctx, c_core, a_core, b_core, plan, variant, workers),
            Strategy::Hybrid => hybrid_core(ctx, c_core, a_core, b_core, plan, variant, workers),
            Strategy::Dfs => unreachable!("handled above"),
        };
    }
    run_rims(c, a, b, &peel.rims, &ctx.params, IcLoop::Parallel);
    occupied
}

/// Run one task's `work`, timing it into the task histogram and, while
/// tracing, a `TaskExec` span.
fn timed_task(work: impl FnOnce()) {
    let t0 = fmm_obs::trace::now_nanos();
    work();
    let t1 = fmm_obs::trace::now_nanos();
    task_hist().record(t1.saturating_sub(t0));
    if fmm_obs::trace::enabled() {
        let request = fmm_obs::trace::current_request();
        fmm_obs::trace::record(fmm_obs::Event::span(fmm_obs::Kind::TaskExec, request, t0, t1));
    }
}

/// Phase 2 of both task strategies: `C_p += Σ_r W[p,r]·M_r` for every block
/// `p` of `c_blocks`, one task per block. Destination blocks are disjoint,
/// so the merge needs no synchronization.
///
/// # Safety
/// Every task region of `slots` that `w` names is written and no view of
/// it is alive: phase 1's fan-out has returned.
unsafe fn merge_phase<T: GemmScalar>(
    c_blocks: &DestBlocks<'_, T>,
    w: &CoeffMatrix,
    slots: &TaskSlots<'_, T>,
    workers: usize,
) {
    fan_out(
        c_blocks.len(),
        workers,
        || (),
        |(), p| {
            let span = fmm_obs::trace::start();
            for (r, w) in w.row_nonzeros(p) {
                // SAFETY: `fan_out` hands each block index to one task, and
                // each merge holds one view of it at a time; every M_r slot
                // is immutable per this function's contract.
                unsafe { c_blocks.merge(p, w, slots.mr(r)) };
            }
            fmm_obs::trace::finish(fmm_obs::Kind::Merge, fmm_obs::trace::current_request(), span);
        },
    );
}

/// BFS core: phase 1 computes every `M_r` task-parallel, phase 2 merges
/// them into the disjoint destination blocks, also task-parallel.
fn bfs_core<T: GemmScalar>(
    ctx: &mut SchedContext<T>,
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    plan: &FmmPlan,
    variant: Variant,
    workers: usize,
) -> usize {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    let rank = plan.rank();
    // No more workers than tasks: the surplus would get pools prewarmed
    // and panels shrunk for concurrency that cannot occur.
    let workers = workers.clamp(1, rank);
    let layout = tasks::bfs_task_layout(variant, plan, m, k, n);
    let a_blocks = OperandBlocks::new(a, plan.a_grid());
    let b_blocks = OperandBlocks::new(b, plan.b_grid());
    let c_blocks = DestBlocks::new(c, plan.c_grid());
    let task_params = ctx.params.for_workers(workers);
    // Fill the packing pool to `workers` depth up-front: self-scheduling
    // makes the number of *concurrently*-active workers vary per run, and
    // the warm path must take no new packing buffer even when all workers
    // genuinely overlap for the first time.
    ctx.prewarm_packing(workers);

    // Split the context: the task arena is carved here (growing at most
    // once), the packing pool hands per-worker buffers to phase 1.
    let SchedContext { task_arena, packing_pool, bfs_executions, tasks_executed, .. } = ctx;
    let slots = task_arena.task_slots(&layout, rank);

    // Phase 1: each task overwrites its own M_r with the r-th product.
    // Each worker holds its packing buffers and its two term lists.
    fan_out(
        rank,
        workers,
        || {
            let ws = packing_pool.acquire(&task_params);
            (ws, Vec::with_capacity(plan.u().rows()), Vec::with_capacity(plan.v().rows()))
        },
        |(ws, a_terms, b_terms), r| {
            // SAFETY: `fan_out` hands each index to exactly one worker, so
            // task regions are never aliased.
            let views = unsafe { slots.views(r) };
            gather_terms(a_terms, plan.u(), r, &a_blocks);
            gather_terms(b_terms, plan.v(), r, &b_blocks);
            timed_task(|| {
                let ic_loop = IcLoop::Inline(ws);
                form_product(views, variant, a_terms, b_terms, &task_params, ic_loop);
            });
        },
    );

    // Phase 2: merge.
    // SAFETY: phase 1's fan-out returned above.
    unsafe { merge_phase(&c_blocks, plan.w(), &slots, workers) };

    bfs_executions.fetch_add(1, Ordering::Relaxed);
    tasks_executed.fetch_add(rank as u64, Ordering::Relaxed);
    slots.total_elements()
}

/// A pooled inner DFS context for one hybrid worker; returns itself (and
/// its arena-growth delta) to the scheduler context on drop.
struct InnerCtx<'a, T: GemmScalar> {
    ctx: Option<FmmContext<T>>,
    grows_at_acquire: u64,
    pool: &'a Mutex<Vec<FmmContext<T>>>,
    arena_grows: &'a AtomicU64,
}

impl<'a, T: GemmScalar> InnerCtx<'a, T> {
    fn acquire(
        pool: &'a Mutex<Vec<FmmContext<T>>>,
        allocations: &AtomicU64,
        arena_grows: &'a AtomicU64,
        params: BlockingParams,
    ) -> Self {
        let ctx = match pool.lock().pop() {
            Some(mut ctx) => {
                ctx.params = params;
                ctx
            }
            None => {
                allocations.fetch_add(1, Ordering::Relaxed);
                FmmContext::new(params)
            }
        };
        let grows_at_acquire = ctx.arena_grow_count();
        Self { ctx: Some(ctx), grows_at_acquire, pool, arena_grows }
    }

    fn ctx(&mut self) -> &mut FmmContext<T> {
        self.ctx.as_mut().expect("present until drop")
    }
}

impl<T: GemmScalar> Drop for InnerCtx<'_, T> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            self.arena_grows
                .fetch_add(ctx.arena_grow_count() - self.grows_at_acquire, Ordering::Relaxed);
            self.pool.lock().push(ctx);
        }
    }
}

/// Hybrid core: BFS over the `R_1` level-1 products; each task
/// materializes its level-1 operand sums and runs the remaining levels
/// depth-first on a pooled inner context.
fn hybrid_core<T: GemmScalar>(
    ctx: &mut SchedContext<T>,
    c: MatMut<'_, T>,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    plan: &FmmPlan,
    variant: Variant,
    workers: usize,
) -> usize {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    let outer = plan.first_level().clone();
    let inner = plan.inner_plan().expect("multi-level plan (1-level delegates to BFS)").clone();
    let r1 = outer.rank();
    // No more workers than level-1 tasks (see the comment in `bfs_core`).
    let workers = workers.clamp(1, r1);
    let layout = tasks::hybrid_task_layout(plan, m, k, n);
    let (a_grid, b_grid, c_grid) = tasks::level1_grids(plan);
    let a_blocks = OperandBlocks::new(a, &a_grid);
    let b_blocks = OperandBlocks::new(b, &b_grid);
    let c_blocks = DestBlocks::new(c, &c_grid);
    let task_params = ctx.params.for_workers(workers);
    // One fully-preplanned inner context per potential worker, up-front —
    // see the matching comment in `bfs_core`.
    ctx.prewarm_inner_contexts(plan, variant, workers, m, k, n);

    let SchedContext {
        task_arena,
        inner_ctxs,
        inner_allocations,
        inner_arena_grows,
        hybrid_executions,
        tasks_executed,
        ..
    } = ctx;
    let slots = task_arena.task_slots(&layout, r1);

    // Phase 1: level-1 products, DFS within each task.
    // Each worker holds its inner context and its two term lists.
    fan_out(
        r1,
        workers,
        || {
            let ictx =
                InnerCtx::acquire(inner_ctxs, inner_allocations, inner_arena_grows, task_params);
            (ictx, Vec::with_capacity(outer.u().rows()), Vec::with_capacity(outer.v().rows()))
        },
        |(ictx, a_terms, b_terms), r| {
            // SAFETY: each task index is claimed by exactly one worker.
            let ArenaViews { mut ta, mut tb, mut mr } = unsafe { slots.views(r) };
            gather_terms(a_terms, outer.u(), r, &a_blocks);
            gather_terms(b_terms, outer.v(), r, &b_blocks);
            timed_task(|| {
                ops::linear_combination(ta.reborrow(), a_terms).expect("A block shapes agree");
                ops::linear_combination(tb.reborrow(), b_terms).expect("B block shapes agree");
                // The executors accumulate; the task region is reused, so
                // clear M_r before descending.
                mr.fill(T::ZERO);
                fmm_execute(mr, ta.as_ref(), tb.as_ref(), &inner, variant, ictx.ctx());
            });
        },
    );

    // Phase 2: merge with the level-1 W coefficients.
    // SAFETY: phase 1's fan-out returned above.
    unsafe { merge_phase(&c_blocks, outer.w(), &slots, workers) };

    hybrid_executions.fetch_add(1, Ordering::Relaxed);
    tasks_executed.fetch_add(r1 as u64, Ordering::Relaxed);
    slots.total_elements()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::registry::strassen;
    use fmm_dense::{fill, norms, Matrix, Scalar};

    fn check(
        m: usize,
        k: usize,
        n: usize,
        plan: &FmmPlan,
        variant: Variant,
        strategy: Strategy,
        workers: usize,
    ) {
        let a = fill::bench_workload(m, k, 1);
        let b = fill::bench_workload(k, n, 2);
        let mut c = fill::bench_workload(m, n, 3);
        let c_orig = c.clone();
        let mut ctx = SchedContext::new(BlockingParams::tiny());
        execute(c.as_mut(), a.as_ref(), b.as_ref(), plan, variant, strategy, &mut ctx, workers);
        let mut c_ref = c_orig;
        fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
        let err = norms::max_abs_diff(c.as_ref(), c_ref.as_ref());
        let tol = f64::accuracy_bound(k, plan.num_levels());
        assert!(
            err < tol,
            "{} {} {} m={m} k={k} n={n} workers={workers}: err={err} tol={tol}",
            plan.describe(),
            variant.name(),
            strategy.name()
        );
    }

    #[test]
    fn all_strategies_match_reference_one_level() {
        let plan = FmmPlan::new(vec![strassen()]);
        for strategy in Strategy::ALL {
            for variant in Variant::ALL {
                check(16, 16, 16, &plan, variant, strategy, 2);
                check(17, 19, 21, &plan, variant, strategy, 2); // fringes
            }
        }
    }

    #[test]
    fn all_strategies_match_reference_two_level() {
        let plan = FmmPlan::uniform(strassen(), 2);
        for strategy in Strategy::ALL {
            for variant in Variant::ALL {
                check(36, 36, 36, &plan, variant, strategy, 3);
            }
        }
    }

    #[test]
    fn problem_smaller_than_partition_falls_back_to_rims() {
        let plan = FmmPlan::uniform(strassen(), 2); // needs multiples of 4
        for strategy in [Strategy::Bfs, Strategy::Hybrid] {
            check(3, 3, 3, &plan, Variant::Abc, strategy, 2);
        }
    }

    #[test]
    fn bfs_accumulates_into_nonzero_c() {
        // The merge phase must add into C, not overwrite it.
        let plan = FmmPlan::new(vec![strassen()]);
        check(24, 24, 24, &plan, Variant::Ab, Strategy::Bfs, 2);
    }

    #[test]
    fn bfs_results_are_identical_across_worker_counts() {
        // Per-task products and the in-order merge make BFS deterministic:
        // the worker count must not change a single bit.
        let plan = FmmPlan::uniform(strassen(), 2);
        let (m, k, n) = (52, 44, 60);
        let a = fill::bench_workload(m, k, 5);
        let b = fill::bench_workload(k, n, 6);
        let mut reference = None;
        for workers in [1, 2, 4] {
            let mut c = Matrix::zeros(m, n);
            let mut ctx = SchedContext::new(BlockingParams::tiny());
            execute(
                c.as_mut(),
                a.as_ref(),
                b.as_ref(),
                &plan,
                Variant::Abc,
                Strategy::Bfs,
                &mut ctx,
                workers,
            );
            match &reference {
                None => reference = Some(c),
                Some(r) => assert_eq!(&c, r, "workers={workers}"),
            }
        }
    }

    #[test]
    fn hybrid_of_one_level_plan_delegates_to_bfs() {
        let plan = FmmPlan::new(vec![strassen()]);
        let a = fill::bench_workload(16, 16, 1);
        let b = fill::bench_workload(16, 16, 2);
        let mut c = Matrix::zeros(16, 16);
        let mut ctx = SchedContext::with_defaults();
        execute(
            c.as_mut(),
            a.as_ref(),
            b.as_ref(),
            &plan,
            Variant::Abc,
            Strategy::Hybrid,
            &mut ctx,
            2,
        );
        let stats = ctx.stats();
        assert_eq!(stats.bfs_executions, 1);
        assert_eq!(stats.hybrid_executions, 0);
        assert_eq!(stats.tasks_executed, 7);
    }

    #[test]
    fn fan_out_visits_each_index_once_with_worker_state() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let inits = AtomicU64::new(0);
        fan_out(
            100,
            4,
            // Relaxed everywhere: `fan_out` joins its workers before
            // returning, so the loads below are ordered by the join.
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(inits.load(Ordering::Relaxed) <= 4, "at most one init per worker");
        fan_out(0, 4, || (), |(), _| panic!("no tasks, no calls"));
    }

    #[test]
    fn dfs_strategy_uses_the_wrapped_context() {
        let plan = FmmPlan::new(vec![strassen()]);
        let mut ctx = SchedContext::new(BlockingParams::tiny());
        let a = fill::bench_workload(16, 16, 1);
        let b = fill::bench_workload(16, 16, 2);
        let mut c = Matrix::zeros(16, 16);
        let occupied = execute(
            c.as_mut(),
            a.as_ref(),
            b.as_ref(),
            &plan,
            Variant::Naive,
            Strategy::Dfs,
            &mut ctx,
            2,
        );
        assert!(ctx.fmm.fmm_workspace_elements() > 0, "DFS ran on the inner context");
        assert_eq!(occupied, Variant::Naive.workspace_elements(&plan, 16, 16, 16));
        assert_eq!(ctx.stats().tasks_executed, 0, "DFS fans out no tasks");
    }
}
