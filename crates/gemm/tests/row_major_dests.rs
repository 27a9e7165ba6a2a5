//! Row-major destinations (unit column stride — what the serving daemon's
//! zero-copy result views are) through the driver, its `ic` loop inline
//! and parallel, against the reference product: the driver runs them as
//! the transposed column-major problem, which must be invisible from
//! outside.

use fmm_dense::{fill, norms, MatMut, MatRef, Matrix, Scalar};
use fmm_gemm::driver::{gemm_sums, gemm_sums_with, DestTile, IcLoop, Update};
use fmm_gemm::{reference, BlockingParams, GemmScalar, GemmWorkspace};

/// The row-major `m × n` view whose element `(i, j)` is element `(j, i)` of
/// the column-major `n × m` matrix `store`.
fn row_major<T: Scalar>(store: &mut Matrix<T>) -> MatMut<'_, T> {
    let (n, m, ld) = (store.rows(), store.cols(), store.leading_dim());
    // SAFETY: `(i, j) ↦ j + i·ld` for `i < m`, `j < n` is `store`'s own
    // column-major index map with the roles of row and column swapped, so
    // it is in bounds and injective; the borrow of `store` is exclusive.
    unsafe { MatMut::from_raw_parts(store.as_mut().as_mut_ptr(), m, n, ld as isize, 1) }
}

/// `store` as an operand: itself, or the row-major view it transposes to.
fn operand<T: Scalar>(store: &Matrix<T>, row_major: bool) -> MatRef<'_, T> {
    if row_major {
        store.as_ref().t()
    } else {
        store.as_ref()
    }
}

#[derive(Clone, Copy, Debug)]
enum Driver {
    Sequential,
    Parallel,
}

/// `C_d (+)= w_d · (ΣαA)(ΣβB)` on row-major `C_d` for `dests` destinations
/// and `terms` terms per operand — row-major too (the daemon's request
/// views) or column-major — checked element by element.
fn check<T: GemmScalar>(
    (m, k, n): (usize, usize, usize),
    dests: usize,
    terms: usize,
    overwrite: bool,
    row_major_operands: bool,
    driver: Driver,
) {
    let params = BlockingParams::tiny();
    let coeff = |t: usize| T::from_f64([1.0, -1.0, 0.5][t % 3]);
    // A row-major `r × c` operand is the transpose of a column-major `c × r`.
    let stores = |r: usize, c: usize, seed: u64| -> Vec<Matrix<T>> {
        let (r, c) = if row_major_operands { (c, r) } else { (r, c) };
        (0..terms).map(|t| fill::bench_workload_t(r, c, seed + t as u64)).collect()
    };
    let (a, b) = (stores(m, k, 10), stores(k, n, 20));
    let a_terms: Vec<_> =
        a.iter().enumerate().map(|(t, x)| (coeff(t), operand(x, row_major_operands))).collect();
    let b_terms: Vec<_> =
        b.iter().enumerate().map(|(t, x)| (coeff(t + 1), operand(x, row_major_operands))).collect();

    // What the destinations hold beforehand, transposed storage.
    let before: Vec<Matrix<T>> =
        (0..dests).map(|d| fill::bench_workload_t(n, m, 30 + d as u64)).collect();
    let mut stores = before.clone();
    {
        let mut tiles: Vec<DestTile<'_, T>> = stores
            .iter_mut()
            .enumerate()
            .map(|(d, s)| DestTile::new(row_major(s), coeff(d + 2)))
            .collect();
        let update = if overwrite { Update::Overwrite } else { Update::Accumulate };
        let mut ws = GemmWorkspace::for_params(&params);
        let ic_loop = match driver {
            Driver::Sequential => IcLoop::Inline(&mut ws),
            Driver::Parallel => IcLoop::Parallel,
        };
        gemm_sums_with(&mut tiles, &a_terms, &b_terms, &params, update, ic_loop);
    }

    // The same update in f64, from explicit operand sums.
    let sum = |rows: usize, cols: usize, terms: &[(T, MatRef<'_, T>)]| {
        Matrix::<f64>::from_fn(rows, cols, |i, j| {
            terms.iter().map(|(g, x)| g.to_f64() * x.at(i, j).to_f64()).sum()
        })
    };
    let product = reference::matmul(sum(m, k, &a_terms).as_ref(), sum(k, n, &b_terms).as_ref());
    for (d, (store, before)) in stores.iter().zip(&before).enumerate() {
        let w = coeff(d + 2).to_f64();
        let want = Matrix::<f64>::from_fn(m, n, |i, j| {
            let prior = if overwrite { 0.0 } else { before.get(j, i).to_f64() };
            prior + w * product.get(i, j)
        });
        let got = Matrix::<f64>::from_fn(m, n, |i, j| store.get(j, i).to_f64());
        let err = norms::max_abs_diff(got.as_ref(), want.as_ref());
        let bound = T::accuracy_bound(k, 0) * (terms * terms) as f64;
        assert!(
            err < bound,
            "{} {driver:?} m={m} k={k} n={n} dests={dests} terms={terms} overwrite={overwrite} \
             row_major_operands={row_major_operands} dest {d}: err {err} bound {bound}",
            T::NAME
        );
    }
}

fn sweep<T: GemmScalar>(driver: Driver) {
    // Blocked, ragged, a single row, a single column, several kc panels
    // (tiny: mc 16, kc 8, nc 12), and sizes below one register tile.
    for shape in [(16, 8, 12), (33, 17, 29), (1, 9, 40), (40, 25, 1), (3, 5, 2), (50, 31, 37)] {
        for (dests, terms) in [(1, 1), (1, 3), (3, 1), (2, 2)] {
            for (overwrite, row_major_operands) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                check::<T>(shape, dests, terms, overwrite, row_major_operands, driver);
            }
        }
    }
}

#[test]
fn sequential_driver_f64() {
    sweep::<f64>(Driver::Sequential);
}

#[test]
fn sequential_driver_f32() {
    sweep::<f32>(Driver::Sequential);
}

#[test]
fn parallel_driver_f64() {
    sweep::<f64>(Driver::Parallel);
}

#[test]
fn parallel_driver_f32() {
    sweep::<f32>(Driver::Parallel);
}

/// One row-major destination among column-major ones is not the
/// transposed problem; the general-stride epilogue still serves it.
#[test]
fn mixed_layouts_stay_on_the_general_path() {
    let (m, k, n) = (19, 11, 9);
    let params = BlockingParams::tiny();
    let a = fill::bench_workload(m, k, 1);
    let b = fill::bench_workload(k, n, 2);
    let mut col = Matrix::zeros(m, n);
    let mut row_store = Matrix::zeros(n, m);
    let mut ws = GemmWorkspace::for_params(&params);
    gemm_sums(
        &mut [DestTile::new(col.as_mut(), 1.0), DestTile::new(row_major(&mut row_store), -1.0)],
        &[(1.0, a.as_ref())],
        &[(1.0, b.as_ref())],
        &params,
        &mut ws,
    );
    let product = reference::matmul(a.as_ref(), b.as_ref());
    assert!(norms::max_abs_diff(col.as_ref(), product.as_ref()) < 1e-12);
    let negated = Matrix::from_fn(m, n, |i, j| -row_store.get(j, i));
    assert!(norms::max_abs_diff(negated.as_ref(), product.as_ref()) < 1e-12);
}
