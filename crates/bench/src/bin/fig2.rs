//! Figure 2 (the algorithm table): theoretical and practical speedups of
//! the 23-algorithm family versus blocked GEMM.
//!
//! Columns reproduce the paper's table: classical sub-multiplications
//! `m̃k̃ñ`, rank `R` (ours and published), theoretical speedup per level,
//! and the two practical one-level speedups — Practical #1 on a rank-k
//! update (`m = n = 14400·scale`, `k = 480` absolute) and Practical #2 on a
//! near-square problem (`k = 12000·scale`). Practical speedups take the
//! best of the ABC/AB/Naive variants, as the paper reports its best
//! generated implementation.

use fmm_bench::figure::Table;
use fmm_bench::{measure_fmm, measure_gemm, FigureParams};
use fmm_core::{registry::Registry, FmmPlan, Variant};
use fmm_gemm::BlockingParams;

fn main() {
    let p = FigureParams::from_args();
    let params = BlockingParams::default();
    let arch = fmm_bench::runner::calibrated_arch(&params, p.scale);
    let reg = Registry::shared();

    let mn = p.dim(14400, 120); // divisible by every m̃·ñ pair up to 6x6
    let k1 = 480; // rank-k update: absolute, ~2·kc
    let k2 = p.dim(12000, 120);
    eprintln!(
        "fig2: m=n={mn}, k1={k1}, k2={k2}, reps={}, kernel={}",
        p.reps,
        <f64 as fmm_gemm::GemmScalar>::micro_kernel_name()
    );

    let gemm1 = measure_gemm(mn, k1, mn, &params, &arch, p.reps, p.parallel());
    let gemm2 = measure_gemm(mn, k2, mn, &params, &arch, p.reps, p.parallel());

    let mut table = Table::new(
        format!(
            "Figure 2: FMM family speedups (scale {}, GEMM {:.2}/{:.2} GFLOPS)",
            p.scale, gemm1.actual, gemm2.actual
        ),
        &["mkn", "R", "R_paper", "theory%", "theory_paper%", "practical1%", "practical2%"],
    );

    let mut rows = reg.paper_rows();
    if p.limit_algos > 0 {
        rows.truncate(p.limit_algos);
    }
    for (entry, algo) in rows {
        let plan = FmmPlan::from_arcs(vec![algo.clone()]);
        let best = |k: usize, gemm_gflops: f64| -> f64 {
            let mut best = f64::NEG_INFINITY;
            for v in Variant::ALL {
                let m = measure_fmm(&plan, v, mn, k, mn, &params, &arch, p.reps, p.parallel());
                best = best.max(m.actual);
            }
            (best / gemm_gflops - 1.0) * 100.0
        };
        let practical1 = best(k1, gemm1.actual);
        let practical2 = best(k2, gemm2.actual);
        let (mt, kt, nt) = entry.dims;
        table.push(
            format!("<{mt},{kt},{nt}>"),
            vec![
                (mt * kt * nt) as f64,
                algo.rank() as f64,
                entry.r_paper as f64,
                (algo.speedup_per_level() - 1.0) * 100.0,
                ((mt * kt * nt) as f64 / entry.r_paper as f64 - 1.0) * 100.0,
                practical1,
                practical2,
            ],
        );
    }
    table.print(p.csv);
}
