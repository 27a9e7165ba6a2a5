//! Cache blocking regroups rows and columns and nothing else: each element
//! of `C` is one FMA chain over `k` split at every `kc`, so `mc` and `nc`
//! cannot move an output bit. Plain GEMM and 2-term, 2-destination sums,
//! on shapes that straddle `mc` and `kc` (and fringe every tile), at `mc ∈
//! {MR, 96, 512, 1024}` and `nc ∈ {NR, 96, 4096}`, accumulating and
//! overwriting, with the `ic` loop inline and over 2 and 4 workers,
//! each equal bit for bit to the same call at `mc = 96`, `nc = 4096`
//! inline. Prints the kernel row it ran and the blockings it compared
//! (`--nocapture`).
//!
//! One test in its own binary: it sets the rayon width, which is global.

use fmm_dense::{fill, Matrix};
use fmm_gemm::{
    gemm_sums_with, BlockingParams, DestTile, GemmScalar, GemmWorkspace, IcLoop, Update,
};

const SHAPES: [(usize, usize, usize); 3] = [(530, 300, 70), (1030, 513, 37), (33, 257, 1100)];
const WIDTHS: [usize; 2] = [2, 4];

/// Where the `ic` loop of one call runs.
#[derive(Clone, Copy, Debug)]
enum Loop {
    Inline,
    Parallel { width: usize },
}

/// Operands of one shape: two terms per operand, two destinations.
struct Operands<T> {
    a: [Matrix<T>; 2],
    b: [Matrix<T>; 2],
    c: [Matrix<T>; 2],
}

impl<T: GemmScalar> Operands<T> {
    fn new((m, k, n): (usize, usize, usize)) -> Self {
        let mat = |r, c, seed| fill::bench_workload_t::<T>(r, c, seed);
        Self {
            a: [mat(m, k, 1), mat(m, k, 2)],
            b: [mat(k, n, 3), mat(k, n, 4)],
            c: [mat(m, n, 5), mat(m, n, 6)],
        }
    }

    /// The bits of every destination after `C_d (+)= w_d·(Σ A)(Σ B)` over
    /// the first `terms` terms and destinations, on fresh copies of `c`.
    fn product(
        &self,
        terms: usize,
        params: &BlockingParams,
        update: Update,
        ic: Loop,
    ) -> Vec<Vec<u64>> {
        let coeffs = [T::ONE, T::from_f64(-0.3)];
        let weights = [T::ONE, T::from_f64(-1.25)];
        let a: Vec<_> = coeffs.iter().zip(&self.a).map(|(g, x)| (*g, x.as_ref())).collect();
        let b: Vec<_> = coeffs.iter().zip(&self.b).map(|(g, x)| (*g, x.as_ref())).collect();
        let mut cs: Vec<Matrix<T>> = self.c[..terms].to_vec();
        let mut dests: Vec<_> =
            cs.iter_mut().zip(weights).map(|(c, w)| DestTile::new(c.as_mut(), w)).collect();
        let mut ws = GemmWorkspace::empty();
        let ic_loop = match ic {
            Loop::Inline => IcLoop::Inline(&mut ws),
            Loop::Parallel { width } => {
                rayon::ThreadPoolBuilder::new().num_threads(width).build_global().unwrap();
                IcLoop::Parallel
            }
        };
        gemm_sums_with(&mut dests, &a[..terms], &b[..terms], params, update, ic_loop);
        drop(dests);
        cs.iter().map(|c| c.raw().iter().map(|v| v.to_f64().to_bits()).collect()).collect()
    }
}

fn run<T: GemmScalar>() {
    println!("blocking invariance on {} ({})", T::micro_kernel_name(), T::NAME);
    let base = BlockingParams { mc: 96, nc: 4096, ..BlockingParams::default() };
    let loops = std::iter::once(Loop::Inline)
        .chain(WIDTHS.map(|width| Loop::Parallel { width }))
        .collect::<Vec<_>>();
    let blockings: Vec<BlockingParams> = [T::MR, 96, 512, 1024]
        .into_iter()
        .flat_map(|mc| [T::NR, 96, 4096].map(|nc| BlockingParams { mc, nc, ..base }))
        .collect();
    for shape in SHAPES {
        let ops = Operands::<T>::new(shape);
        for (terms, update) in
            [1, 2].into_iter().flat_map(|t| [Update::Accumulate, Update::Overwrite].map(|u| (t, u)))
        {
            let want = ops.product(terms, &base, update, Loop::Inline);
            for params in &blockings {
                for &ic in &loops {
                    let got = ops.product(terms, params, update, ic);
                    let (name, mc, nc) = (T::NAME, params.mc, params.nc);
                    let what = format!("{name} {shape:?}, {terms} term(s), {update:?}, {ic:?}");
                    assert!(got == want, "{what}: mc {mc} nc {nc} moved bits from 96/4096 inline");
                }
            }
        }
    }
    let listed: Vec<_> = blockings.iter().map(|p| format!("{}/{}", p.mc, p.nc)).collect();
    println!(
        "  mc/nc {} against 96/4096, kc {}, on {SHAPES:?}, inline and over {WIDTHS:?} workers",
        listed.join(", "),
        base.kc
    );
}

#[test]
fn mc_and_nc_move_no_output_bit() {
    run::<f64>();
    run::<f32>();
}
