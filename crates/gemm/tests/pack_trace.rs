//! Pack spans say what they packed: a traced two-term `gemm_sums` leaves
//! `Kind::Pack` spans whose args are `[operand (0 = A, 1 = B), terms,
//! source elements]`. Its own test binary, so no other test's GEMMs write
//! into the span ring while it reads.

use fmm_dense::{fill, Matrix};
use fmm_gemm::{gemm_sums, BlockingParams, DestTile, GemmWorkspace};
use fmm_obs::trace::{self, Kind};

#[test]
fn pack_spans_carry_operand_terms_and_source_elements() {
    // One block per operand at the default blocking: A is 40 x 30 (one
    // `mc x kc` block), B 30 x 20 (one `kc x nc` panel).
    let (m, k, n) = (40, 30, 20);
    let x = fill::bench_workload(m, k, 1);
    let y = fill::bench_workload(m, k, 2);
    let b = fill::bench_workload(k, n, 3);
    let mut c = Matrix::zeros(m, n);
    let params = BlockingParams::default();
    let mut ws = GemmWorkspace::for_params(&params);

    let request = 0x7ace_0001;
    trace::set_enabled(true);
    let previous = trace::set_current_request(request);
    gemm_sums(
        &mut [DestTile::new(c.as_mut(), 1.0)],
        &[(1.0, x.as_ref()), (-1.0, y.as_ref())],
        &[(1.0, b.as_ref())],
        &params,
        &mut ws,
    );
    trace::set_current_request(previous);
    trace::set_enabled(false);

    let packs: Vec<[u64; 3]> = trace::recent(0)
        .into_iter()
        .filter(|e| e.kind == Kind::Pack && e.request_id == request)
        .map(|e| e.args)
        .collect();
    // B's panel is packed before A's block in the loop nest.
    assert_eq!(packs, [[1, 1, (k * n) as u64], [0, 2, (2 * m * k) as u64]]);
    let a = trace::recent(0).into_iter().find(|e| e.kind == Kind::Pack && e.args[0] == 0);
    let line = a.expect("the A pack span").describe();
    assert!(line.starts_with("Pack A of request"), "{line}");
    assert!(line.contains("2 terms, 2400 source elements"), "{line}");
}
