//! Allocation-freedom proof for the warm audit record path.
//!
//! A counting global allocator holds the warm audit record path to zero
//! heap calls: after the one-time table allocation, recording thousands
//! of samples — old classes and new — must not call the allocator at
//! all. Lives in its own integration-test binary because both the audit
//! table and the allocation counter are process-global.

use fmm_obs::audit::{self, AuditDtype, AuditSample, AuditSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

fn sample(class_m: u64, predicted: u64, measured: u64) -> AuditSample {
    AuditSample {
        class_m,
        class_k: 128,
        class_n: 128,
        dtype: AuditDtype::F64,
        source: AuditSource::Model,
        predicted_nanos: predicted,
        measured_nanos: measured,
        flops: 2 * class_m * 128 * 128,
    }
}

#[test]
fn warm_audit_records_do_not_allocate() {
    // Warm-up: the first record allocates the slot table, exactly once.
    assert!(audit::record(&sample(128, 900, 1_000)));
    assert_eq!(audit::table_allocations(), 1);

    let heap_before = ALLOCATIONS.load(Ordering::Relaxed);
    let recorded_before = audit::samples_recorded();

    // Warm load: repeat samples on the hot class, plus fresh classes
    // (slot claims are CAS-only — claiming must not allocate either).
    for i in 0..5_000u64 {
        audit::record(&sample(128, 900 + i % 300, 1_000));
    }
    for exp in 9..=16u64 {
        audit::record(&sample(1 << exp, 1_000, 1_000));
    }

    let heap_delta = ALLOCATIONS.load(Ordering::Relaxed) - heap_before;
    assert_eq!(heap_delta, 0, "warm audit record path hit the allocator {heap_delta} times");
    assert_eq!(audit::table_allocations(), 1, "slot table must never be reallocated");
    assert_eq!(audit::samples_recorded() - recorded_before, 5_008);

    // The cold export path is allowed to allocate — and must still see
    // everything the warm path recorded.
    let entries = audit::snapshot();
    let hot = entries
        .iter()
        .find(|e| e.class_label == "128x128x128" && e.dtype == "f64")
        .expect("hot class present");
    assert_eq!(hot.samples, 5_001);
    assert!(hot.err_permille.count == 5_001 && hot.err_permille.max <= 1_200);
}
