//! What a warm multiply asks of the heap, counted.
//!
//! A warm engine reuses its pooled contexts, arenas and packing buffers,
//! and the ABC variant needs no `M_r` temporary, so what is left on the
//! heap are small bookkeeping lists. A counting global allocator counts
//! every heap call of a warm `FmmEngine::multiply`, and each route's count
//! is asserted exactly, derived from the plan and the blocking:
//!
//! * `gemm(bm, bk, bn, p, spawn)`: one `gemm_sums_with` call makes its
//!   destination list, one B-slice list per `(jc, pc)` iteration and one
//!   A-slice list per `ic` block inside it:
//!   `1 + ⌈bn/nC⌉·⌈bk/kC⌉·(1 + ⌈bm/step⌉ + spawn)`, where `step` is `mC`
//!   inline and, over `w` workers, `⌈bm/b⌉` rounded up to `MR` and at
//!   most `mC`, for `b = ⌈bm/mC⌉` rounded up to a multiple of `w`; `spawn`
//!   is what a parallel `ic` loop of more than one block pays for its
//!   threads.
//! * A depth-first execution of a rank-`R` plan on `(bm, bk, bn)` blocks:
//!   3 block-grid `Vec`s (A, B, C), 2 term lists (`gather_terms` fills
//!   them for A and B) and for ABC one destination-tile list, each made
//!   once with room for every block, then per product the GEMM's lists:
//!   `5 + [ABC] + R·gemm`.
//! * Parallel regions add their threads. `threads(w)` is what spawning `w`
//!   scoped threads costs std, measured here, not assumed. A fan-out
//!   (`fmm_sched::fan_out`) adds its task queue and one boxed task per
//!   worker: `1 + w + threads(w)`. A task fan-out's workers each make
//!   their own 2 term lists: `2·w`.
//!
//! At the default blocking on 256³ this gives 26 / 26 / 27 heap calls for
//! one level of ⟨2,2,2⟩ Naive / AB / ABC and 152 / 152 / 153 for two (33 /
//! 33 / 34 and 152 / 152 / 153 at the paper's `mC = 96`). The test runs
//! smaller blocking and shapes so it stays quick unoptimized.
//!
//! Packing itself (`pack_a_sum`, `pack_b_sum`) makes no heap call.
//!
//! One test in its own binary: the counter is process-global, and a
//! second test running beside it would add its own heap calls.

use fmm_core::{Strategy, Variant};
use fmm_dense::{fill, MatRef, Matrix};
use fmm_engine::{EngineConfig, FmmEngine, Routing};
use fmm_gemm::pack::{pack_a_sum, pack_b_sum};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::ArchParams;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only added
// behavior is a relaxed counter bump, which cannot violate GlobalAlloc's
// contract (layout and pointer are forwarded untouched).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout pair came from a matching alloc call.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr/layout pair came from a matching alloc call.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_calls(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Wait until no other thread touches the heap: the test harness's main
/// thread books the test in after it starts, and on a busy host it may do
/// so well into the first counts.
fn settle() {
    while heap_calls(|| std::thread::sleep(Duration::from_millis(10))) > 0 {}
}

/// Small cache blocking, so a 64³ block runs two iterations of each of
/// the `jc`, `pc` and `ic` loops and every term of `gemm` counts. `mc` is
/// at least both dtypes' `MR` (16 and 32), so the driver's
/// `mc.max(MR)` keeps it, and `nc` at least both `NR` (8).
const PARAMS: BlockingParams = BlockingParams { mr: 8, nr: 4, kc: 32, mc: 32, nc: 32 };
/// Every FMM route multiplies `N`³: one ⟨2,2,2⟩ level leaves 64³ blocks,
/// two leave 32³.
const N: usize = 128;
/// Workers of the parallel routes (the rayon pool is set to this width).
const WORKERS: usize = 2;
/// Products of one ⟨2,2,2⟩ (Strassen) level.
const R1: u64 = 7;

/// Heap calls of one `gemm_sums_with` call on an `m × k · k × n` block,
/// whose `ic` loop, when parallel (`spawn > 0`) over more than one block,
/// costs `spawn`. A parallel loop shares `m` evenly over a multiple of
/// `WORKERS` blocks, in whole micro-panels of at most `mc` rows.
fn gemm<T: GemmScalar>(m: usize, k: usize, n: usize, p: &BlockingParams, spawn: u64) -> u64 {
    let p = p.with_register_tile(T::MR, T::NR);
    let loops = |dim: usize, block: usize| dim.div_ceil(block) as u64;
    let blocks = m.div_ceil(p.mc).next_multiple_of(WORKERS);
    let step = if spawn > 0 { p.mc.min(m.div_ceil(blocks).next_multiple_of(T::MR)) } else { p.mc };
    let ic = loops(m, step);
    let spawn = if ic > 1 { spawn } else { 0 };
    1 + loops(n, p.nc) * loops(k, p.kc) * (1 + ic + spawn)
}

/// Heap calls of a depth-first execution of `rank` products, each a
/// `product`-call GEMM.
fn dfs(rank: u64, product: u64, variant: Variant) -> u64 {
    5 + u64::from(variant == Variant::Abc) + rank * product
}

/// Heap calls per warm `multiply` of `n`³ on `engine`, checked equal over
/// three calls after one that warms the caches.
fn warm_multiply<T: GemmScalar>(engine: &FmmEngine<T>, n: usize) -> u64 {
    let a = fill::bench_workload_t::<T>(n, n, 1);
    let b = fill::bench_workload_t::<T>(n, n, 2);
    let mut c = Matrix::<T>::zeros(n, n);
    engine.multiply(c.as_mut(), a.as_ref(), b.as_ref());
    let counts: Vec<u64> = (0..3)
        .map(|_| heap_calls(|| engine.multiply(c.as_mut(), a.as_ref(), b.as_ref())))
        .collect();
    assert!(counts.iter().all(|&x| x == counts[0]), "warm calls disagree: {counts:?}");
    counts[0]
}

fn engine<T: GemmScalar>(workers: usize, routing: Routing) -> FmmEngine<T> {
    FmmEngine::new(EngineConfig {
        arch: ArchParams::paper_machine().into(),
        params: PARAMS,
        parallel: workers > 1,
        workers: if workers > 1 { workers } else { 0 },
        routing,
    })
}

fn pinned(levels: usize, variant: Variant, strategy: Strategy) -> Routing {
    Routing::Pinned { dims: (2, 2, 2), levels, variant, strategy }
}

fn check_routes<T: GemmScalar>(threads: u64) {
    let fan_out = 1 + WORKERS as u64 + threads;
    let term_lists = 2 * WORKERS as u64;
    let (b1, b2) = (N / 2, N / 4);
    let task = PARAMS.for_workers(WORKERS);
    // The global packing pool grows to the most GEMM workspaces ever out
    // at once, which a parallel `ic` loop reaches only when its threads
    // overlap. Fill it to that peak, the caller's B̃ panel plus one Ã per
    // worker, as a process that has run warm for a while would have.
    drop((0..=WORKERS).map(|_| T::global_pool().acquire(&PARAMS)).collect::<Vec<_>>());

    for variant in Variant::ALL {
        let route = |workers, levels, strategy| {
            warm_multiply(&engine::<T>(workers, pinned(levels, variant, strategy)), N)
        };
        let name = format!("{} {variant:?}", T::NAME);

        // One worker: the R_L products in order, each one inline GEMM.
        let one = dfs(R1, gemm::<T>(b1, b1, b1, &PARAMS, 0), variant);
        assert_eq!(route(1, 1, Strategy::Dfs), one, "{name}, one level");
        let two = dfs(R1 * R1, gemm::<T>(b2, b2, b2, &PARAMS, 0), variant);
        assert_eq!(route(1, 2, Strategy::Dfs), two, "{name}, two levels");

        // DFS over two workers: each GEMM's two `ic` blocks run on two
        // threads, spawned once per (jc, pc) iteration.
        let par_gemm = gemm::<T>(b1, b1, b1, &PARAMS, threads);
        assert_eq!(
            route(WORKERS, 1, Strategy::Dfs),
            dfs(R1, par_gemm, variant),
            "{name}, DFS, threads {threads}"
        );

        // BFS: the held packing buffers (1 Vec) and the grids (3), the
        // product fan-out over 7 tasks with each worker's 2 term lists,
        // each task one inline GEMM at worker-shrunk blocking, and the
        // merge fan-out over the 4 C blocks. ABC runs as AB: its tasks
        // write M_r.
        let bfs = 1 + 3 + fan_out + term_lists + R1 * gemm::<T>(b1, b1, b1, &task, 0) + fan_out;
        assert_eq!(route(WORKERS, 1, Strategy::Bfs), bfs, "{name}, BFS");

        // Hybrid on two levels: the level-1 grid shapes (3) and blocks (3),
        // the fan-out over the 7 level-1 products with each worker's 2 term
        // lists, each task one depth-first level on its 64³ operand sums,
        // and the merge.
        let inner = dfs(R1, gemm::<T>(b2, b2, b2, &task, 0), variant);
        let hybrid = 3 + 3 + fan_out + term_lists + R1 * inner + fan_out;
        assert_eq!(route(WORKERS, 2, Strategy::Hybrid), hybrid, "{name}, Hybrid");
    }

    // Plain GEMM: the model routes 8³ to it; one block, one GEMM.
    let gemm_engine = engine::<T>(1, Routing::Model);
    assert_eq!(gemm_engine.decision_label(8, 8, 8), "GEMM");
    assert_eq!(warm_multiply(&gemm_engine, 8), gemm::<T>(8, 8, 8, &PARAMS, 0), "{} GEMM", T::NAME);
}

/// Packing an operand sum, column-major or strided, touches no heap.
fn check_packing<T: GemmScalar>() {
    let x: Vec<Matrix<T>> = (1..4).map(|s| fill::bench_workload_t::<T>(48, 40, s)).collect();
    let xt: Vec<Matrix<T>> = (4..7).map(|s| fill::bench_workload_t::<T>(40, 48, s)).collect();
    let coeff = [T::ONE, T::from_f64(-1.0), T::ONE];
    let cols: Vec<(T, MatRef<'_, T>)> =
        coeff.iter().zip(&x).map(|(g, m)| (*g, m.as_ref())).collect();
    let rows: Vec<(T, MatRef<'_, T>)> =
        coeff.iter().zip(&xt).map(|(g, m)| (*g, m.as_ref().t())).collect();
    let mut dst = vec![T::ZERO; 64 * 64];
    for terms in [&cols[..], &rows[..], &cols[..1]] {
        let calls = heap_calls(|| {
            pack_a_sum(&mut dst, terms, T::MR);
            pack_b_sum(&mut dst, terms, T::NR);
        });
        assert_eq!(calls, 0, "{}: packing {} terms hit the heap", T::NAME, terms.len());
    }
}

#[test]
fn warm_paths_make_the_heap_calls_the_plan_predicts() {
    // Fix the pool width, so the parallel routes run two workers whatever
    // the host or `RAYON_NUM_THREADS` says.
    rayon::ThreadPoolBuilder::new().num_threads(WORKERS).build_global().expect("pool width");
    settle();
    let threads = heap_calls(|| {
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| ());
            }
        })
    });
    check_packing::<f64>();
    check_packing::<f32>();
    check_routes::<f64>(threads);
    check_routes::<f32>(threads);
}
