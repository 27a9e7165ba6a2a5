// @generated by fmm-gen — do not edit by hand.
//! 1-level `<2,2,2>` ABC FMM, specialized from its `[[U,V,W]]` coefficients.
//!
//! `R_L = 7` products over a 2x2 / 2x2 / 2x2 block partition.

use fmm_dense::{MatMut, MatRef};
use fmm_gemm::{driver, BlockingParams, DestTile, GemmWorkspace};

/// `C += A·B`; `m % 2 == 0`, `k % 2 == 0`, `n % 2 == 0` required.
#[allow(clippy::too_many_lines)]
pub fn strassen_1l_abc(
    mut c: MatMut<'_>,
    a: MatRef<'_>,
    b: MatRef<'_>,
    params: &BlockingParams,
    ws: &mut GemmWorkspace,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "C shape mismatch");
    assert_eq!(m % 2, 0, "m must be a multiple of 2");
    assert_eq!(k % 2, 0, "k must be a multiple of 2");
    assert_eq!(n % 2, 0, "n must be a multiple of 2");
    let bm = m / 2;
    let bk = k / 2;
    let bn = n / 2;
    let ab = |ri: usize, ci: usize| a.submatrix(ri * bm, ci * bk, bm, bk);
    let bb = |ri: usize, ci: usize| b.submatrix(ri * bk, ci * bn, bk, bn);
    let cptr = c.as_mut_ptr();
    let (crs, ccs) = (c.row_stride(), c.col_stride());
    // SAFETY: distinct (ri, ci) pairs address disjoint bm x bn blocks of C,
    // and every product's destination list below names each block at most
    // once, so no two live `MatMut`s alias.
    let cb = |ri: usize, ci: usize| unsafe {
        MatMut::from_raw_parts(
            cptr.offset((ri * bm) as isize * crs + (ci * bn) as isize * ccs),
            bm,
            bn,
            crs,
            ccs,
        )
    };

    // M0 = (+1 A(0,0) +1 A(1,1)) * (+1 B(0,0) +1 B(1,1)); C(0,0) += +1 M0; C(1,1) += +1 M0;
    driver::gemm_sums(
        &mut [
            DestTile::new(cb(0, 0), 1f64),
            DestTile::new(cb(1, 1), 1f64),
        ],
        &[(1f64, ab(0, 0)), (1f64, ab(1, 1))],
        &[(1f64, bb(0, 0)), (1f64, bb(1, 1))],
        params,
        ws,
    );

    // M1 = (+1 A(1,0) +1 A(1,1)) * (+1 B(0,0)); C(1,0) += +1 M1; C(1,1) += -1 M1;
    driver::gemm_sums(
        &mut [
            DestTile::new(cb(1, 0), 1f64),
            DestTile::new(cb(1, 1), -1f64),
        ],
        &[(1f64, ab(1, 0)), (1f64, ab(1, 1))],
        &[(1f64, bb(0, 0))],
        params,
        ws,
    );

    // M2 = (+1 A(0,0)) * (+1 B(0,1) -1 B(1,1)); C(0,1) += +1 M2; C(1,1) += +1 M2;
    driver::gemm_sums(
        &mut [
            DestTile::new(cb(0, 1), 1f64),
            DestTile::new(cb(1, 1), 1f64),
        ],
        &[(1f64, ab(0, 0))],
        &[(1f64, bb(0, 1)), (-1f64, bb(1, 1))],
        params,
        ws,
    );

    // M3 = (+1 A(1,1)) * (-1 B(0,0) +1 B(1,0)); C(0,0) += +1 M3; C(1,0) += +1 M3;
    driver::gemm_sums(
        &mut [
            DestTile::new(cb(0, 0), 1f64),
            DestTile::new(cb(1, 0), 1f64),
        ],
        &[(1f64, ab(1, 1))],
        &[(-1f64, bb(0, 0)), (1f64, bb(1, 0))],
        params,
        ws,
    );

    // M4 = (+1 A(0,0) +1 A(0,1)) * (+1 B(1,1)); C(0,0) += -1 M4; C(0,1) += +1 M4;
    driver::gemm_sums(
        &mut [
            DestTile::new(cb(0, 0), -1f64),
            DestTile::new(cb(0, 1), 1f64),
        ],
        &[(1f64, ab(0, 0)), (1f64, ab(0, 1))],
        &[(1f64, bb(1, 1))],
        params,
        ws,
    );

    // M5 = (-1 A(0,0) +1 A(1,0)) * (+1 B(0,0) +1 B(0,1)); C(1,1) += +1 M5;
    driver::gemm_sums(
        &mut [
            DestTile::new(cb(1, 1), 1f64),
        ],
        &[(-1f64, ab(0, 0)), (1f64, ab(1, 0))],
        &[(1f64, bb(0, 0)), (1f64, bb(0, 1))],
        params,
        ws,
    );

    // M6 = (+1 A(0,1) -1 A(1,1)) * (+1 B(1,0) +1 B(1,1)); C(0,0) += +1 M6;
    driver::gemm_sums(
        &mut [
            DestTile::new(cb(0, 0), 1f64),
        ],
        &[(1f64, ab(0, 1)), (-1f64, ab(1, 1))],
        &[(1f64, bb(1, 0)), (1f64, bb(1, 1))],
        params,
        ws,
    );
}
