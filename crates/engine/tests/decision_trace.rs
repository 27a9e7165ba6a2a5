//! Decisions say why: a traced cold decision leaves an `EngineDecision`
//! span whose args are the predicted nanos of the winner, of GEMM and of
//! the runner-up, as the model ranks them. Its own test binary, so no
//! other test's decisions write into the span ring while it reads.

use fmm_engine::{ArchSource, EngineConfig, FmmEngine};
use fmm_model::{rank_scheduled, ArchParams, Impl};
use fmm_obs::trace::{self, Kind};

#[test]
fn decision_spans_carry_winner_gemm_and_runner_up_predictions() {
    // `benchmark/arch.json`'s f64 constants when this was written: 1024³
    // routes to one level of Strassen, 64³ to GEMM.
    let arch = ArchParams {
        tau_a: 4.716310501098633e-11,
        tau_b: 1.4108443525102402e-9,
        lambda: 0.5,
        mc: 96,
        kc: 256,
        nc: 4096,
        elem_bytes: 8,
    };
    let engine = FmmEngine::<f64>::new(EngineConfig {
        arch: ArchSource::Fixed(arch),
        ..EngineConfig::default()
    });
    let shapes = [(1024, 1024, 1024, 0x7ace_0d01), (64, 64, 64, 0x7ace_0d02)];

    trace::set_enabled(true);
    for (m, k, n, request) in shapes {
        let previous = trace::set_current_request(request);
        engine.prepare(m, k, n);
        trace::set_current_request(previous);
    }
    trace::set_enabled(false);

    let plans = engine.candidate_plans();
    for (m, k, n, request) in shapes {
        let span = trace::recent(0)
            .into_iter()
            .find(|e| e.kind == Kind::EngineDecision && e.request_id == request)
            .expect("a cold decision leaves its span");
        let ranked = rank_scheduled(m, k, n, &plans, &Impl::FMM_VARIANTS, engine.arch(), 1, true);
        let gemm = ranked.iter().find(|c| c.plan.is_none()).unwrap();
        let want = [
            ranked[0].prediction.total_nanos(),
            gemm.prediction.total_nanos(),
            ranked[1].prediction.total_nanos(),
        ];
        assert_eq!(span.args, want, "{m}x{k}x{n}");
        let line = span.describe();
        assert!(line.starts_with("EngineDecision of request"), "{line}");
        let label = engine.decision_label(m, k, n);
        if label == "GEMM" {
            assert!(line.contains("chose GEMM, runner-up at 1."), "{line}");
        } else {
            assert!(want[0] < want[1], "{label} is predicted to beat GEMM");
            let ratio = want[0] as f64 / want[1] as f64;
            assert!(line.contains(&format!("at {ratio:.2}x GEMM predicted")), "{line}");
        }
    }
    assert_eq!(engine.decision_label(1024, 1024, 1024), "<2,2,2> ABC");
    assert_eq!(engine.decision_label(64, 64, 64), "GEMM");
}
