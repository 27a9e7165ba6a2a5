//! Property-style tests over the core invariants.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these run each property over a deterministic seeded sweep of case
//! parameters (an inline xorshift generator), 48 cases per property as the
//! original proptest configuration used.
#![allow(clippy::needless_range_loop)]

use fmm_core::compose;
use fmm_core::indexing::BlockGrid;
use fmm_core::peeling;
use fmm_core::prelude::*;
use fmm_core::registry::Registry;
use fmm_dense::{fill, norms, Scalar};
use fmm_gemm::BlockingParams;

/// Deterministic case-parameter generator (xorshift64*).
struct Cases {
    state: u64,
}

impl Cases {
    fn new(seed: u64) -> Self {
        Self { state: seed.wrapping_mul(2685821657736338717).max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(2685821657736338717)
    }

    /// Uniform in `[lo, hi)`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

const CASES: usize = 48;

/// FMM == reference for arbitrary sizes (including fringes), arbitrary
/// variant, and a sampled registry algorithm.
#[test]
fn fmm_matches_reference() {
    let reg = Registry::shared();
    let rows = reg.paper_rows();
    let mut cases = Cases::new(11);
    for case in 0..CASES {
        let m = cases.usize_in(1, 48);
        let k = cases.usize_in(1, 48);
        let n = cases.usize_in(1, 48);
        let algo_idx = cases.usize_in(0, rows.len());
        let variant = Variant::ALL[cases.usize_in(0, 3)];
        let (_, algo) = &rows[algo_idx];
        let plan = FmmPlan::from_arcs(vec![algo.clone()]);

        let a = fill::bench_workload(m, k, 11);
        let b = fill::bench_workload(k, n, 22);
        let mut c = fill::bench_workload(m, n, 33);
        let mut c_ref = c.clone();
        let mut ctx = FmmContext::new(BlockingParams::tiny());
        fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), &plan, variant, &mut ctx);
        fmm_gemm::reference::matmul_into(c_ref.as_mut(), a.as_ref(), b.as_ref());
        let err = norms::max_abs_diff(c.as_ref(), c_ref.as_ref());
        assert!(
            err < f64::accuracy_bound(k, 1),
            "case {case}: {} {} m={m} k={k} n={n}: err {err}",
            plan.describe(),
            variant.name()
        );
    }
}

/// Morton block indexing is a bijection for arbitrary level stacks.
#[test]
fn block_grid_bijection() {
    let mut cases = Cases::new(12);
    for case in 0..CASES {
        let n_levels = cases.usize_in(1, 4);
        let levels: Vec<(usize, usize)> =
            (0..n_levels).map(|_| (cases.usize_in(1, 4), cases.usize_in(1, 4))).collect();
        let grid = BlockGrid::new(levels.clone());
        let mut seen = vec![false; grid.len()];
        for flat in 0..grid.len() {
            let (r, c) = grid.coords(flat);
            assert!(r < grid.rows() && c < grid.cols(), "case {case}: levels {levels:?}");
            assert_eq!(grid.flat(r, c), flat, "case {case}: levels {levels:?}");
            assert!(!seen[flat], "case {case}: duplicate flat index {flat}");
            seen[flat] = true;
        }
    }
}

/// Peeling covers the iteration space exactly once.
#[test]
fn peeling_partitions_exactly() {
    let mut cases = Cases::new(13);
    for case in 0..CASES {
        let m = cases.usize_in(1, 30);
        let k = cases.usize_in(1, 30);
        let n = cases.usize_in(1, 30);
        let mt = cases.usize_in(1, 5);
        let kt = cases.usize_in(1, 5);
        let nt = cases.usize_in(1, 5);
        let plan = peeling::peel(m, k, n, (mt, kt, nt));
        let (mc, kc, nc) = plan.core;
        assert_eq!(mc % mt, 0, "case {case}");
        assert_eq!(kc % kt, 0, "case {case}");
        assert_eq!(nc % nt, 0, "case {case}");
        let core_flops = mc * kc * nc;
        assert_eq!(
            core_flops + plan.rim_flops(),
            m * k * n,
            "case {case}: m={m} k={k} n={n} tiles=({mt},{kt},{nt})"
        );
    }
}

/// Symmetry orientations of valid algorithms are valid (construction
/// verifies; this exercises it over every registry pick).
#[test]
fn orientations_preserve_rank() {
    let reg = Registry::shared();
    for (_, algo) in reg.paper_rows() {
        for o in compose::all_orientations(&algo) {
            assert_eq!(o.rank(), algo.rank());
            let (m, k, n) = algo.dims();
            let dims = o.dims();
            let mut sorted_a = [m, k, n];
            let mut sorted_b = [dims.0, dims.1, dims.2];
            sorted_a.sort_unstable();
            sorted_b.sort_unstable();
            assert_eq!(sorted_a, sorted_b);
        }
    }
}

/// Direct sums add ranks and dims.
#[test]
fn stacking_adds_ranks() {
    let s = fmm_core::registry::strassen();
    for n1 in 1usize..4 {
        for n2 in 1usize..4 {
            let a = if n1 == 2 { s.clone() } else { compose::classical(2, 2, n1) };
            let b = if n2 == 2 { s.clone() } else { compose::classical(2, 2, n2) };
            let sum = compose::stack_n(&a, &b);
            assert_eq!(sum.rank(), a.rank() + b.rank());
            assert_eq!(sum.dims(), (2, 2, n1 + n2));
        }
    }
}

/// The packed-sum primitive equals materialize-then-pack.
#[test]
fn pack_sum_equals_add_then_pack() {
    let mut cases = Cases::new(14);
    for case in 0..CASES {
        let mb = cases.usize_in(1, 20);
        let kb = cases.usize_in(1, 16);
        let g0 = cases.usize_in(0, 5) as f64 - 2.0;
        let g1 = cases.usize_in(0, 5) as f64 - 2.0;
        let x = fill::bench_workload(mb, kb, 1);
        let y = fill::bench_workload(mb, kb, 2);
        let terms = [(g0, x.as_ref()), (g1, y.as_ref())];
        let panels = mb.div_ceil(8);
        let mut packed_direct = vec![0.0; panels * 8 * kb];
        fmm_gemm::pack::pack_a_sum(&mut packed_direct, &terms, 8);

        let mut sum = fmm_dense::Matrix::zeros(mb, kb);
        fmm_dense::ops::linear_combination(sum.as_mut(), &terms).unwrap();
        let mut packed_indirect = vec![0.0; panels * 8 * kb];
        fmm_gemm::pack::pack_a_sum(&mut packed_indirect, &[(1.0, sum.as_ref())], 8);
        for (i, (a, b)) in packed_direct.iter().zip(packed_indirect.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "case {case}: mb={mb} kb={kb} g0={g0} g1={g1} index {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn registry_algorithms_all_pass_brent_exactly() {
    // Deterministic, but the central invariant: every algorithm that
    // reaches users is exactly verified.
    let reg = Registry::standard();
    for algo in reg.all() {
        assert!(fmm_core::brent::verify(algo).is_ok(), "{}", algo.name());
        assert_eq!(fmm_core::brent::count_violations(algo, 0.0), 0);
    }
}
