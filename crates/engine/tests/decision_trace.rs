//! Decisions say why: a traced cold decision leaves an `EngineDecision`
//! span whose args are the nanos Fig. 5 predicts for the winner, for GEMM
//! and for the runner-up of the model's ranking, and whose line says when
//! the guard band made GEMM win over a candidate predicted faster. Its own
//! test binary, so no other test's decisions write into the span ring
//! while it reads.

use fmm_engine::{ArchSource, EngineConfig, FmmEngine};
use fmm_model::{rank_scheduled, ArchParams, Impl};
use fmm_obs::trace::{self, Kind};

#[test]
fn decision_spans_carry_winner_gemm_and_runner_up_predictions() {
    // `benchmark/arch.json`'s f64 constants when this was written: Fig. 5
    // predicts one level of Strassen at 0.97x GEMM on 1024³, inside the
    // guard band, so both shapes route to GEMM.
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
            ranked[0].prediction.fig5_nanos(),
            gemm.prediction.total_nanos(),
            ranked[1].prediction.fig5_nanos(),
        ];
        assert_eq!(span.args, want, "{m}x{k}x{n}");
        let line = span.describe();
        assert!(line.starts_with("EngineDecision of request"), "{line}");
        let label = engine.decision_label(m, k, n);
        let of_gemm = |nanos: u64| nanos as f64 / want[1] as f64;
        if label != "GEMM" {
            assert!(want[0] < want[1], "{label} is predicted to beat GEMM");
            let ratio = of_gemm(want[0]);
            assert!(line.contains(&format!("at {ratio:.2}x GEMM predicted")), "{line}");
        } else if want[2] < want[1] {
            let ratio = of_gemm(want[2]);
            let why = format!("chose GEMM; the runner-up predicted {ratio:.2}x GEMM, inside the");
            assert!(line.contains(&why), "{line}");
        } else {
            assert!(line.contains("chose GEMM, runner-up at 1."), "{line}");
        }
    }
    // A ledger shape: Fig. 5 puts one level of Strassen ahead of GEMM, and
    // the band does not let it win.
    assert_eq!(engine.decision_label(1024, 1024, 1024), "GEMM");
    let ledger = trace::recent(0)
        .into_iter()
        .find(|e| e.kind == Kind::EngineDecision && e.request_id == shapes[0].3)
        .expect("asserted above");
    assert!(
        ledger
            .describe()
            .contains("chose GEMM; the runner-up predicted 0.97x GEMM, inside the guard band"),
        "{}",
        ledger.describe()
    );
    assert_eq!(engine.decision_label(64, 64, 64), "GEMM");
}
