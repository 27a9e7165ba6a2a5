//! Allocation-freedom proof for the event recorder.
//!
//! A counting global allocator holds the record path to zero heap calls:
//! recording every kind, with tracing on and off, from several threads,
//! wrapping both rings, must not call the allocator at all. Lives in its
//! own integration-test binary because the rings and the allocation
//! counter are process-global.

use fmm_obs::trace::{self, Event, Kind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only added
// behavior is a relaxed counter bump, which cannot violate GlobalAlloc's
// contract (layout and pointer are forwarded untouched).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; we forward as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we forward as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout pair came from a matching alloc call.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we forward as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr/layout pair came from a matching alloc call.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Record every kind `rounds` times through each entry point.
fn record_everything(rounds: u64) {
    for i in 0..rounds {
        for kind in Kind::ALL {
            trace::record(Event::now(kind, i).with_args([i, 1, 2]));
            trace::mark(kind, i);
            trace::finish(kind, i, trace::start());
        }
    }
}

#[test]
fn warm_records_do_not_allocate() {
    const THREADS: usize = 4;
    let rounds = trace::SPAN_CAPACITY as u64 / 4;
    for tracing in [false, true] {
        trace::set_enabled(tracing);
        let (heap_before, recorded_before) =
            (ALLOCATIONS.load(Ordering::Relaxed), trace::events_recorded());
        record_everything(rounds);
        let heap_delta = ALLOCATIONS.load(Ordering::Relaxed) - heap_before;
        assert_eq!(
            heap_delta, 0,
            "tracing {tracing}: recording hit the allocator {heap_delta} times"
        );
        // Tracing on, every kind through all three entry points; off, only
        // the always-on kinds, only through `record`.
        let always_on = Kind::ALL.iter().filter(|k| k.always_on()).count();
        let per_round = if tracing { 3 * Kind::ALL.len() } else { always_on };
        assert_eq!(trace::events_recorded() - recorded_before, rounds * per_round as u64);
    }

    // Several threads at once: spawning allocates, so count only between
    // two barriers the threads pass before and after recording.
    let (start, end) = (Barrier::new(THREADS + 1), Barrier::new(THREADS + 1));
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                record_everything(rounds / THREADS as u64);
                end.wait();
            });
        }
        start.wait();
        let heap_before = ALLOCATIONS.load(Ordering::Relaxed);
        end.wait();
        let heap_delta = ALLOCATIONS.load(Ordering::Relaxed) - heap_before;
        assert_eq!(heap_delta, 0, "threaded recording hit the allocator {heap_delta} times");
    });

    // The cold export path may allocate, and sees both rings full.
    let events = trace::recent(0);
    assert_eq!(events.len(), trace::ALWAYS_ON_CAPACITY + trace::SPAN_CAPACITY);
    trace::set_enabled(false);
}
