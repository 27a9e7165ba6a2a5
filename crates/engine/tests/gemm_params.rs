//! The GEMM route packs at the engine's configured blocking parameters,
//! as its FMM routes do. One test in its own binary: the pack histogram it
//! counts is process-global, so no other test may pack beside it.

use fmm_dense::{fill, norms, Matrix};
use fmm_engine::{EngineConfig, FmmEngine, Routing, Strategy, Variant};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::ArchParams;

#[test]
fn gemm_route_packs_at_the_configured_params() {
    let params = BlockingParams::tiny();
    // No registry algorithm has these dims: every shape routes to GEMM.
    let routing = Routing::Pinned {
        dims: (7, 7, 7),
        levels: 1,
        variant: Variant::Abc,
        strategy: Strategy::Dfs,
    };
    let engine = FmmEngine::<f64>::new(EngineConfig {
        arch: ArchParams::paper_machine().into(),
        params,
        routing,
        ..EngineConfig::default()
    });
    let n = 64;
    assert_eq!(engine.decision_label(n, n, n), "GEMM");
    let a = fill::bench_workload(n, n, 1);
    let b = fill::bench_workload(n, n, 2);
    let mut c = Matrix::zeros(n, n);

    let packs = fmm_obs::global().histogram("fmm_gemm_pack_nanos");
    let before = packs.count();
    engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
    let packed = packs.count() - before;

    // One B̃ panel per (jc, pc) block, and one Ã block per (jc, pc, ic),
    // at the configured cache blocking and the kernel's 16x8 tile. The
    // default parameters would pack twice at 64³; tiny ones (kc 8, mc 16,
    // nc 12) 240 times.
    let p = params.with_register_tile(f64::MR, f64::NR);
    assert_eq!((p.kc, p.mc, p.nc), (params.kc, params.mc, params.nc), "the tile fits tiny()");
    let (jc, pc, ic) = (n.div_ceil(p.nc), n.div_ceil(p.kc), n.div_ceil(p.mc));
    assert_eq!(packed, (jc * pc * (1 + ic)) as u64, "packs at {p:?}");

    let c_ref = fmm_gemm::reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::rel_error(c.as_ref(), c_ref.as_ref()) < 1e-12);
}
