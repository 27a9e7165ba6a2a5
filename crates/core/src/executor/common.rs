//! Shared executor machinery: operand block grids and destination grids.
//! (Scratch temporaries live in the preplanned [`super::WorkspaceArena`].)
//!
//! The grid collections below allocate on the warm path, three grid
//! `Vec`s per execution; the term lists [`gather_terms`] fills are the
//! caller's, one per operand per execution or per task worker.
//! `fmm-engine`'s `tests/warm_alloc.rs` counts them, with the driver's,
//! on every engine route.

use crate::indexing::BlockGrid;
use fmm_dense::{ops, MatMut, MatRef, Scalar};

/// The immutable operand blocks of one FMM core execution, indexed by the
/// recursive-block flat index the composed coefficients use.
pub struct OperandBlocks<'a, T = f64> {
    blocks: Vec<MatRef<'a, T>>,
}

impl<'a, T: Scalar> OperandBlocks<'a, T> {
    /// Slice `op` into its `grid` of `(block_rows x block_cols)` views.
    pub fn new(op: MatRef<'a, T>, grid: &BlockGrid) -> Self {
        assert_eq!(op.rows() % grid.rows(), 0, "operand rows not divisible by grid");
        assert_eq!(op.cols() % grid.cols(), 0, "operand cols not divisible by grid");
        let bm = op.rows() / grid.rows();
        let bn = op.cols() / grid.cols();
        let blocks = (0..grid.len())
            .map(|flat| {
                let (r, c) = grid.coords(flat);
                op.submatrix(r * bm, c * bn, bm, bn)
            })
            .collect();
        Self { blocks }
    }

    /// Block view for flat index `i`.
    pub fn get(&self, i: usize) -> MatRef<'a, T> {
        self.blocks[i]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if there are no blocks (never for a valid plan).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The mutable destination grid over `C`.
///
/// Holds raw parts of the parent view so that several disjoint block views
/// can be alive at once (one FMM product updates multiple `C_p`).
pub struct DestBlocks<'a, T = f64> {
    ptr: *mut T,
    rs: isize,
    cs: isize,
    bm: usize,
    bn: usize,
    coords: Vec<(usize, usize)>,
    _marker: std::marker::PhantomData<&'a mut T>,
}

// SAFETY: the only way to reach the underlying elements is
// [`DestBlocks::get`], an `unsafe fn` whose contract requires distinct
// (hence disjoint) block indices; moving the descriptor to another thread
// moves only a pointer and adds no capability beyond that contract.
unsafe impl<T: Scalar> Send for DestBlocks<'_, T> {}
// SAFETY: sharing the descriptor across threads — which the BFS merge
// phase does, one block per task — still reaches elements only through
// `get`, whose contract is unchanged.
unsafe impl<T: Scalar> Sync for DestBlocks<'_, T> {}

impl<'a, T: Scalar> DestBlocks<'a, T> {
    /// Slice `c` into its `grid` of blocks.
    pub fn new(mut c: MatMut<'a, T>, grid: &BlockGrid) -> Self {
        assert_eq!(c.rows() % grid.rows(), 0, "C rows not divisible by grid");
        assert_eq!(c.cols() % grid.cols(), 0, "C cols not divisible by grid");
        let bm = c.rows() / grid.rows();
        let bn = c.cols() / grid.cols();
        let coords = (0..grid.len()).map(|flat| grid.coords(flat)).collect();
        Self {
            ptr: c.as_mut_ptr(),
            rs: c.row_stride(),
            cs: c.col_stride(),
            bm,
            bn,
            coords,
            _marker: std::marker::PhantomData,
        }
    }

    /// Block shape `(rows, cols)`.
    pub fn block_shape(&self) -> (usize, usize) {
        (self.bm, self.bn)
    }

    /// Mutable view of block `p`.
    ///
    /// # Safety
    /// Views for *distinct* `p` address disjoint elements, so several may be
    /// alive simultaneously; the caller must not obtain two views of the
    /// same `p` at once, nor use a view beyond the parent borrow.
    pub unsafe fn get(&self, p: usize) -> MatMut<'a, T> {
        let (r, c) = self.coords[p];
        // SAFETY: `coords[p]` is a grid coordinate inside the parent view,
        // so the offset and the `bm x bn` block stay in bounds; disjointness
        // across distinct `p` is the caller's contract.
        unsafe {
            let ptr = self
                .ptr
                .offset((r * self.bm) as isize * self.rs + (c * self.bn) as isize * self.cs);
            MatMut::from_raw_parts(ptr, self.bm, self.bn, self.rs, self.cs)
        }
    }

    /// `C_p += w·M`: merge a materialized product `M` into block `p`. The
    /// one merge of the Naive and AB variants and of a task schedule's
    /// merge phase.
    ///
    /// # Safety
    /// As for [`DestBlocks::get`]: no other view of block `p` may be alive.
    pub unsafe fn merge(&self, p: usize, w: f64, m: MatRef<'_, T>) {
        // SAFETY: the caller's contract is `get`'s.
        let dest = unsafe { self.get(p) };
        ops::axpy(dest, T::from_f64(w), m).expect("block shapes agree");
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True if there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

/// Gather the non-zero operand terms of product `r` from a coefficient
/// matrix column into `terms`, replacing what it held:
/// `[(coeff, block view), ...]`. Plan coefficients are stored in `f64` and
/// narrowed to the execution scalar here — the single point where the
/// coefficient domain meets the data domain. A list with capacity for
/// `coeffs.rows()` terms never grows, so callers reuse one across products.
pub fn gather_terms<'a, T: Scalar>(
    terms: &mut Vec<(T, MatRef<'a, T>)>,
    coeffs: &crate::coeffs::CoeffMatrix,
    r: usize,
    blocks: &OperandBlocks<'a, T>,
) {
    terms.clear();
    terms.extend(coeffs.col_nonzeros(r).map(|(i, g)| (T::from_f64(g), blocks.get(i))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FmmPlan;
    use crate::registry::strassen;
    use fmm_dense::fill;

    #[test]
    fn operand_blocks_match_manual_submatrices() {
        let plan = FmmPlan::new(vec![strassen()]);
        let a = fill::counter(6, 8);
        let blocks = OperandBlocks::new(a.as_ref(), plan.a_grid());
        assert_eq!(blocks.len(), 4);
        // Flat order row-major: A0 = top-left 3x4.
        assert_eq!(blocks.get(0).at(0, 0), a.get(0, 0));
        assert_eq!(blocks.get(1).at(0, 0), a.get(0, 4));
        assert_eq!(blocks.get(2).at(0, 0), a.get(3, 0));
        assert_eq!(blocks.get(3).at(2, 3), a.get(5, 7));
    }

    #[test]
    fn two_level_blocks_follow_morton_order() {
        let plan = FmmPlan::uniform(strassen(), 2);
        let a = fill::counter(8, 8);
        let blocks = OperandBlocks::new(a.as_ref(), plan.a_grid());
        assert_eq!(blocks.len(), 16);
        // Flat index 1 = outer block (0,0), inner block (0,1):
        // rows 0..2, cols 2..4.
        assert_eq!(blocks.get(1).at(0, 0), a.get(0, 2));
        // Flat index 4 = outer block (0,1), inner (0,0): rows 0..2, cols 4..6.
        assert_eq!(blocks.get(4).at(0, 0), a.get(0, 4));
    }

    #[test]
    fn dest_blocks_write_disjoint_regions() {
        let plan = FmmPlan::new(vec![strassen()]);
        let mut c = fmm_dense::Matrix::zeros(4, 4);
        {
            let dests = DestBlocks::new(c.as_mut(), plan.c_grid());
            assert_eq!(dests.block_shape(), (2, 2));
            // SAFETY: distinct indices -> disjoint views.
            let mut b0 = unsafe { dests.get(0) };
            // SAFETY: index 3 is disjoint from index 0.
            let mut b3 = unsafe { dests.get(3) };
            b0.fill(1.0);
            b3.fill(2.0);
        }
        assert_eq!(c.get(0, 0), 1.0);
        assert_eq!(c.get(1, 1), 1.0);
        assert_eq!(c.get(2, 2), 2.0);
        assert_eq!(c.get(0, 2), 0.0);
        assert_eq!(c.get(2, 0), 0.0);
    }

    #[test]
    fn gather_terms_reads_u_column() {
        let s = strassen();
        let plan = FmmPlan::new(vec![s.clone()]);
        let a = fill::counter(4, 4);
        let blocks = OperandBlocks::new(a.as_ref(), plan.a_grid());
        // Product 1 of Strassen: A2 + A3.
        let mut terms = vec![(0.0, blocks.get(0)); 3];
        gather_terms(&mut terms, plan.u(), 1, &blocks);
        assert_eq!(terms.len(), 2);
        assert_eq!(terms[0].0, 1.0);
        assert_eq!(terms[0].1.at(0, 0), a.get(2, 0)); // A2 top-left
        assert_eq!(terms[1].1.at(0, 0), a.get(2, 2)); // A3 top-left
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_operand_panics() {
        let plan = FmmPlan::new(vec![strassen()]);
        let a = fill::counter(5, 4);
        let _ = OperandBlocks::new(a.as_ref(), plan.a_grid());
    }
}
