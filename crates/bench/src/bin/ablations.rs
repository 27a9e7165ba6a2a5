//! Ablation timings for four design choices, none of which the ledger
//! (`benchmark/`) has a row for:
//!
//! 1. multi-destination epilogue (ABC) vs materializing `M_r` (AB) on a
//!    rank-k shape;
//! 2. hybrid vs homogeneous two-level partitions at `k = 1200`-type depth;
//! 3. model-guided selection cost (must be negligible next to a multiply);
//! 4. recursive-block vs row-major flat indexing of operand blocks.
//!
//! `--scale` shrinks the `m = n` dimensions (default 0.1: 960 and 720);
//! `--reps` is the timed calls per entry, the fastest of which is printed.

use fmm_bench::timing::{gflops, time_min};
use fmm_bench::FigureParams;
use fmm_core::indexing::BlockGrid;
use fmm_core::registry::{self, Registry};
use fmm_core::{fmm_execute, FmmContext, FmmPlan, Variant};
use fmm_dense::{fill, Matrix};
use fmm_gemm::BlockingParams;
use fmm_model::{rank_candidates, ArchParams, Impl};
use std::hint::black_box;
use std::sync::Arc;

/// Per-call nanoseconds of a sub-microsecond `f`: each timed sample is
/// `iters` back-to-back calls, so the clock read does not dominate.
fn nanos_per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let secs = time_min(reps, || {
        for _ in 0..iters {
            f();
        }
    });
    secs * 1e9 / iters as f64
}

/// Time `plan` as `variant` on an `(m, k, n)` workload; effective GFLOPS.
fn fmm_gflops(
    reps: usize,
    (m, k, n): (usize, usize, usize),
    plan: &FmmPlan,
    variant: Variant,
) -> f64 {
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    let mut ctx = FmmContext::new(BlockingParams::default());
    let secs =
        time_min(reps, || fmm_execute(c.as_mut(), a.as_ref(), b.as_ref(), plan, variant, &mut ctx));
    gflops(m, k, n, secs)
}

fn ablate_epilogue(p: &FigureParams) {
    // Rank-k shape: m = n >> k. The paper's claim: ABC wins because AB's
    // M_r buffer round-trips cost 3·nnz(W) extra C-traffic.
    let mn = p.dim(9600, 24);
    let shape = (mn, 128, mn);
    let plan = FmmPlan::new(vec![registry::strassen()]);
    println!("# epilogue on rank-k {mn}x128x{mn} (GFLOP/s)");
    for variant in Variant::ALL {
        println!("{:<22} {:>10.2}", variant.name(), fmm_gflops(p.reps, shape, &plan, variant));
    }
}

fn ablate_hybrid(p: &FigureParams) {
    let reg = Registry::shared();
    let a222 = reg.get((2, 2, 2)).expect("<2,2,2> is in the registry");
    let a232 = reg.get((2, 3, 2)).expect("<2,3,2> is in the registry");
    let mn = p.dim(7200, 24);
    let shape = (mn, 1200, mn);
    println!("# two-level partitions at {mn}x1200x{mn}, ABC (GFLOP/s)");
    for (label, plan) in [
        ("homogeneous_222x222", FmmPlan::from_arcs(vec![a222.clone(), a222.clone()])),
        ("hybrid_222x232", FmmPlan::from_arcs(vec![a222, a232])),
    ] {
        println!("{label:<22} {:>10.2}", fmm_gflops(p.reps, shape, &plan, Variant::Abc));
    }
}

fn ablate_selection(p: &FigureParams) {
    // Cost of ranking candidates with the model — must be negligible next
    // to a single matrix multiplication.
    let plans: Vec<Arc<FmmPlan>> = Registry::shared()
        .paper_rows()
        .into_iter()
        .flat_map(|(_, a)| {
            [
                Arc::new(FmmPlan::from_arcs(vec![a.clone()])),
                Arc::new(FmmPlan::from_arcs(vec![a.clone(), a])),
            ]
        })
        .collect();
    let arch = ArchParams::paper_machine();
    let nanos = nanos_per_call(p.reps, 100, || {
        black_box(rank_candidates(1440, 480, 1440, &plans, &Impl::FMM_VARIANTS, &arch, true));
    });
    println!("# selection cost (us per ranking of {} plans)", plans.len());
    println!("{:<22} {:>10.2}", "rank_all_candidates", nanos / 1e3);
}

fn ablate_indexing(p: &FigureParams) {
    // Recursive-block coordinate math vs plain row-major flat indexing.
    let grid = BlockGrid::new(vec![(2, 2), (3, 2), (2, 3)]);
    let (len, cols) = (grid.len(), grid.cols());
    let morton = nanos_per_call(p.reps, 10_000, || {
        let mut acc = 0usize;
        for flat in 0..len {
            let (r, c) = grid.coords(black_box(flat));
            acc += r + c;
        }
        black_box(acc);
    });
    let row_major = nanos_per_call(p.reps, 10_000, || {
        let mut acc = 0usize;
        for flat in 0..len {
            let flat = black_box(flat);
            acc += flat / cols + flat % cols;
        }
        black_box(acc);
    });
    println!("# block indexing (ns per block, {len} blocks)");
    println!("{:<22} {:>10.2}", "morton_coords", morton / len as f64);
    println!("{:<22} {:>10.2}", "row_major_coords", row_major / len as f64);
}

fn main() {
    let p = FigureParams::from_args();
    ablate_epilogue(&p);
    ablate_hybrid(&p);
    ablate_selection(&p);
    ablate_indexing(&p);
}
