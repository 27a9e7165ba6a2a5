//! Preplanned workspace arena for the FMM temporaries.
//!
//! The Naive and AB variants need scratch matrices (`T_A`, `T_B`, `M_r`)
//! whose exact sizes are known up-front from the paper's workspace formulas
//! ([`Variant::workspace_elements`], §4.1). Instead of growing per-slot
//! heap allocations lazily, the executor sizes one arena before the first
//! product and carves it into disjoint column-major views. The arena never
//! shrinks, so a long-lived context (or engine) reaches a steady state
//! where repeated executions perform **zero** heap allocation for FMM
//! temporaries — [`WorkspaceArena::grow_count`] makes that property
//! testable.

use super::Variant;
use crate::plan::FmmPlan;
use fmm_dense::{AlignedBuf, MatMut, MatRef, Scalar};

/// The block shapes one FMM core execution needs from the arena.
///
/// All shapes are in elements of the *block* grid: for a core problem
/// `(m, k, n)` under a plan with aggregate partition dims `(M̃, K̃, Ñ)`,
/// `T_A` is `m/M̃ x k/K̃`, `T_B` is `k/K̃ x n/Ñ`, and `M_r` is `m/M̃ x n/Ñ`.
/// Variants that skip a temporary get a `(0, 0)` shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaLayout {
    /// `(rows, cols)` of the operand-sum temporary `T_A` (Naive only).
    pub ta: (usize, usize),
    /// `(rows, cols)` of the operand-sum temporary `T_B` (Naive only).
    pub tb: (usize, usize),
    /// `(rows, cols)` of the product temporary `M_r` (Naive and AB).
    pub mr: (usize, usize),
}

impl ArenaLayout {
    /// Layout for a core problem `(m, k, n)` (dimensions divisible by the
    /// plan's aggregate partition dims) executed as `variant` under `plan`.
    pub fn for_core(variant: Variant, plan: &FmmPlan, m: usize, k: usize, n: usize) -> Self {
        let (mt, kt, nt) = plan.partition_dims();
        debug_assert!(
            m.is_multiple_of(mt) && k.is_multiple_of(kt) && n.is_multiple_of(nt),
            "core dims must divide"
        );
        let (bm, bk, bn) = (m / mt, k / kt, n / nt);
        match variant {
            Variant::Abc => Self { ta: (0, 0), tb: (0, 0), mr: (0, 0) },
            Variant::Ab => Self { ta: (0, 0), tb: (0, 0), mr: (bm, bn) },
            Variant::Naive => Self { ta: (bm, bk), tb: (bk, bn), mr: (bm, bn) },
        }
    }

    /// Total arena elements this layout occupies — by construction equal to
    /// [`Variant::workspace_elements`] for the same `(plan, m, k, n)`.
    pub fn total_elements(&self) -> usize {
        self.ta.0 * self.ta.1 + self.tb.0 * self.tb.1 + self.mr.0 * self.mr.1
    }
}

/// The three disjoint scratch views of one core execution.
pub struct ArenaViews<'a, T = f64> {
    /// `T_A` view (empty for AB/ABC).
    pub ta: MatMut<'a, T>,
    /// `T_B` view (empty for AB/ABC).
    pub tb: MatMut<'a, T>,
    /// `M_r` view (empty for ABC).
    pub mr: MatMut<'a, T>,
}

impl<T: Scalar> ArenaViews<'_, T> {
    /// The same views for a shorter borrow, so one set serves every
    /// product of an execution.
    pub fn reborrow(&mut self) -> ArenaViews<'_, T> {
        ArenaViews { ta: self.ta.reborrow(), tb: self.tb.reborrow(), mr: self.mr.reborrow() }
    }
}

/// A grow-only scratch allocation carved into [`ArenaViews`] per execution,
/// generic over the scalar it stores (default `f64`).
pub struct WorkspaceArena<T = f64> {
    buf: AlignedBuf<T>,
    grows: u64,
}

impl<T: Scalar> WorkspaceArena<T> {
    /// An empty arena; the first [`WorkspaceArena::preplan_tasks`] sizes it.
    pub fn new() -> Self {
        Self { buf: AlignedBuf::zeroed(0), grows: 0 }
    }

    /// Current capacity in scalar elements.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// How many times the arena has (re)allocated — stays flat once warm.
    pub fn grow_count(&self) -> u64 {
        self.grows
    }

    /// Ensure capacity for `tasks` copies of `layout`, reallocating only
    /// when that grows beyond anything seen before: one for a depth-first
    /// execution, one per task for the BFS/hybrid schedulers' task-private
    /// regions. Idempotent; never shrinks.
    pub fn preplan_tasks(&mut self, layout: &ArenaLayout, tasks: usize) {
        let need = layout.total_elements() * tasks;
        if need > self.buf.len() {
            self.buf = AlignedBuf::zeroed(need);
            self.grows += 1;
        }
    }

    /// Carve the arena into `tasks` disjoint per-task regions, each shaped
    /// as `layout`. The returned descriptor is `Sync`, so worker threads
    /// can each materialize the views of their own task; growth happens
    /// here (once), never inside a task.
    pub fn task_slots(&mut self, layout: &ArenaLayout, tasks: usize) -> TaskSlots<'_, T> {
        self.preplan_tasks(layout, tasks);
        TaskSlots {
            base: self.buf.as_mut_ptr(),
            stride: layout.total_elements(),
            layout: *layout,
            tasks,
            _marker: std::marker::PhantomData,
        }
    }

    /// Carve the arena into the disjoint views of `layout`, growing first
    /// if the layout was not preplanned.
    pub fn views(&mut self, layout: &ArenaLayout) -> ArenaViews<'_, T> {
        self.preplan_tasks(layout, 1);
        let (ta_rows, ta_cols) = layout.ta;
        let (tb_rows, tb_cols) = layout.tb;
        let (mr_rows, mr_cols) = layout.mr;
        let (ta_slice, rest) = self.buf.split_at_mut(ta_rows * ta_cols);
        let (tb_slice, rest) = rest.split_at_mut(tb_rows * tb_cols);
        let mr_slice = &mut rest[..mr_rows * mr_cols];
        ArenaViews {
            ta: MatMut::from_col_major(ta_slice, ta_rows, ta_cols, ta_rows.max(1)),
            tb: MatMut::from_col_major(tb_slice, tb_rows, tb_cols, tb_rows.max(1)),
            mr: MatMut::from_col_major(mr_slice, mr_rows, mr_cols, mr_rows.max(1)),
        }
    }
}

impl<T: Scalar> Default for WorkspaceArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// `tasks` disjoint per-task workspace regions carved from one arena: task
/// `r` owns elements `[r·stride, (r+1)·stride)`, shaped as the shared
/// [`ArenaLayout`]. Holds raw parts of the parent arena (like
/// [`super::DestBlocks`] does for `C`) so that several tasks' views can be
/// alive at once, on different threads.
pub struct TaskSlots<'a, T = f64> {
    base: *mut T,
    stride: usize,
    layout: ArenaLayout,
    tasks: usize,
    _marker: std::marker::PhantomData<&'a mut T>,
}

// SAFETY: every accessor that materializes a view is an `unsafe fn` whose
// contract requires disjoint task indices (or read-only access after all
// writers finished); sharing the descriptor itself grants no capability
// beyond those contracts.
unsafe impl<T: Scalar> Send for TaskSlots<'_, T> {}
unsafe impl<T: Scalar> Sync for TaskSlots<'_, T> {}

// The carve accessors below run inside warm task execution, so they carry
// `fmm-check`'s allocation contract: pure pointer arithmetic, no heap
// (growth happened once, in `WorkspaceArena::preplan_tasks`).
// fmm-check: contract(warm-alloc-free)
impl<'a, T: Scalar> TaskSlots<'a, T> {
    /// The per-task layout.
    pub fn layout(&self) -> &ArenaLayout {
        &self.layout
    }

    /// Number of task regions.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Total arena elements occupied by all task regions.
    pub fn total_elements(&self) -> usize {
        self.stride * self.tasks
    }

    /// The scratch views of task `r`.
    ///
    /// # Safety
    /// Views for *distinct* `r` address disjoint elements, so several may
    /// be alive simultaneously (on different threads); the caller must not
    /// obtain two view sets of the same `r` at once, nor use a view beyond
    /// the parent borrow.
    pub unsafe fn views(&self, r: usize) -> ArenaViews<'a, T> {
        assert!(r < self.tasks, "task index {r} out of range");
        let (ta_rows, ta_cols) = self.layout.ta;
        let (tb_rows, tb_cols) = self.layout.tb;
        let (mr_rows, mr_cols) = self.layout.mr;
        // SAFETY: `r < self.tasks` (asserted above) keeps every offset inside
        // the arena region carved by `preplan_tasks`; the three sub-regions
        // are disjoint by construction of `stride`, and exclusivity per `r`
        // is the caller's contract.
        unsafe {
            let ta_ptr = self.base.add(r * self.stride);
            let tb_ptr = ta_ptr.add(ta_rows * ta_cols);
            let mr_ptr = tb_ptr.add(tb_rows * tb_cols);
            ArenaViews {
                ta: MatMut::from_raw_parts(ta_ptr, ta_rows, ta_cols, 1, ta_rows.max(1) as isize),
                tb: MatMut::from_raw_parts(tb_ptr, tb_rows, tb_cols, 1, tb_rows.max(1) as isize),
                mr: MatMut::from_raw_parts(mr_ptr, mr_rows, mr_cols, 1, mr_rows.max(1) as isize),
            }
        }
    }

    /// Read-only view of task `r`'s product block `M_r` (the merge phase's
    /// input).
    ///
    /// # Safety
    /// No mutable view of task `r` may be alive (i.e. the compute phase
    /// that wrote `M_r` has completed).
    pub unsafe fn mr(&self, r: usize) -> MatRef<'a, T> {
        assert!(r < self.tasks, "task index {r} out of range");
        let (ta_rows, ta_cols) = self.layout.ta;
        let (tb_rows, tb_cols) = self.layout.tb;
        let (mr_rows, mr_cols) = self.layout.mr;
        // SAFETY: `r < self.tasks` (asserted above) keeps the offset inside
        // the arena; no mutable view of task `r` is alive per the caller's
        // contract, so a shared read view is sound.
        unsafe {
            let mr_ptr = self.base.add(r * self.stride + ta_rows * ta_cols + tb_rows * tb_cols);
            MatRef::from_raw_parts(mr_ptr, mr_rows, mr_cols, 1, mr_rows.max(1) as isize)
        }
    }
}

impl<T: Scalar> std::fmt::Debug for WorkspaceArena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkspaceArena(capacity={}, grows={})", self.buf.len(), self.grows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::strassen;

    #[test]
    fn layout_matches_variant_workspace_elements() {
        let plan = FmmPlan::new(vec![strassen()]);
        let (m, k, n) = (16, 12, 20);
        for variant in Variant::ALL {
            let layout = ArenaLayout::for_core(variant, &plan, m, k, n);
            assert_eq!(
                layout.total_elements(),
                variant.workspace_elements(&plan, m, k, n),
                "variant {}",
                variant.name()
            );
        }
    }

    #[test]
    fn views_are_disjoint_and_shaped() {
        let plan = FmmPlan::new(vec![strassen()]);
        let layout = ArenaLayout::for_core(Variant::Naive, &plan, 16, 12, 20);
        let mut arena = WorkspaceArena::new();
        let mut views = arena.views(&layout);
        assert_eq!((views.ta.rows(), views.ta.cols()), (8, 6));
        assert_eq!((views.tb.rows(), views.tb.cols()), (6, 10));
        assert_eq!((views.mr.rows(), views.mr.cols()), (8, 10));
        views.ta.fill(1.0);
        views.tb.fill(2.0);
        views.mr.fill(3.0);
        assert_eq!(views.ta.at(7, 5), 1.0);
        assert_eq!(views.tb.at(5, 9), 2.0);
        assert_eq!(views.mr.at(7, 9), 3.0);
    }

    #[test]
    fn preplan_grows_once_then_stays_flat() {
        let plan = FmmPlan::new(vec![strassen()]);
        let big = ArenaLayout::for_core(Variant::Naive, &plan, 32, 32, 32);
        let small = ArenaLayout::for_core(Variant::Ab, &plan, 16, 16, 16);
        let mut arena = WorkspaceArena::<f64>::new();
        assert_eq!(arena.grow_count(), 0);
        arena.preplan_tasks(&big, 1);
        assert_eq!(arena.grow_count(), 1);
        let cap = arena.capacity();
        arena.preplan_tasks(&small, 1);
        arena.preplan_tasks(&big, 1);
        let _ = arena.views(&big);
        assert_eq!(arena.grow_count(), 1, "no reallocation once warm");
        assert_eq!(arena.capacity(), cap);
    }

    #[test]
    fn task_slots_are_disjoint_per_task() {
        let plan = FmmPlan::new(vec![strassen()]);
        let layout = ArenaLayout::for_core(Variant::Naive, &plan, 8, 8, 8);
        let mut arena = WorkspaceArena::new();
        let slots = arena.task_slots(&layout, 7);
        assert_eq!(slots.tasks(), 7);
        assert_eq!(slots.total_elements(), 7 * layout.total_elements());
        // Fill every task region with a task-specific value, from several
        // threads at once, then check nothing bled across regions.
        std::thread::scope(|s| {
            for r in 0..7 {
                let slots = &slots;
                s.spawn(move || {
                    // SAFETY: distinct r -> disjoint regions.
                    let mut views = unsafe { slots.views(r) };
                    views.ta.fill(r as f64);
                    views.tb.fill(10.0 + r as f64);
                    views.mr.fill(100.0 + r as f64);
                });
            }
        });
        for r in 0..7 {
            // SAFETY: the writer threads joined above; reads can't race.
            let views = unsafe { slots.views(r) };
            assert_eq!(views.ta.at(3, 3), r as f64);
            assert_eq!(views.tb.at(0, 0), 10.0 + r as f64);
            assert_eq!(views.mr.at(3, 0), 100.0 + r as f64);
            // SAFETY: as above — no concurrent writer remains.
            let mr = unsafe { slots.mr(r) };
            assert_eq!(mr.at(3, 0), 100.0 + r as f64);
            assert_eq!((mr.rows(), mr.cols()), (4, 4));
        }
    }

    #[test]
    fn task_slots_grow_once_then_stay_flat() {
        let plan = FmmPlan::new(vec![strassen()]);
        let layout = ArenaLayout::for_core(Variant::Ab, &plan, 16, 16, 16);
        let mut arena = WorkspaceArena::<f64>::new();
        arena.preplan_tasks(&layout, 7);
        assert_eq!(arena.grow_count(), 1);
        let _ = arena.task_slots(&layout, 7);
        let smaller = ArenaLayout::for_core(Variant::Ab, &plan, 8, 8, 8);
        let _ = arena.task_slots(&smaller, 7);
        assert_eq!(arena.grow_count(), 1, "warm task carving allocates nothing");
    }

    #[test]
    fn abc_layout_occupies_nothing() {
        let plan = FmmPlan::new(vec![strassen()]);
        let layout = ArenaLayout::for_core(Variant::Abc, &plan, 64, 64, 64);
        assert_eq!(layout.total_elements(), 0);
        let mut arena = WorkspaceArena::<f64>::new();
        let views = arena.views(&layout);
        assert_eq!(views.mr.rows() * views.mr.cols(), 0);
        assert_eq!(arena.capacity(), 0);
        assert_eq!(arena.grow_count(), 0);
    }
}
