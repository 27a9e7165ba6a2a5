//! Decision audit: predicted-vs-measured accounting per shape class.
//!
//! The engine routes every multiply off a cost model (or a pinned
//! decision), but the model is only as good as its last calibration.
//! This module closes the loop: each executed multiply reports an
//! [`AuditSample`] — which shape class and dtype it was,
//! where the routing decision came from, what the router *predicted*
//! the multiply would cost, and what it actually cost — and the sample
//! lands in a fixed-capacity table of per-(shape-class, dtype)
//! aggregates:
//!
//! * a log-bucketed [`Histogram`] of the model-error ratio in permille
//!   (`predicted_nanos * 1000 / measured_nanos`, so 1000 ≡ perfect),
//! * best / worst observed throughput in milli-GFLOP/s,
//! * predicted / measured / flop running sums and per-source counts.
//!
//! The warm [`record`] path is lock-free (relaxed atomics plus one CAS
//! when a class is first seen) and carries `fmm-check`'s
//! `contract(warm-alloc-free)`: the 64-slot table is allocated once on
//! first use — counted by [`table_allocations`] so tests can prove the
//! steady state allocates nothing — and every later sample only touches
//! preallocated atomics. The cold side ([`note_decision`], which
//! attaches a human-readable "chosen plan" label when the engine makes
//! a fresh routing decision, and [`snapshot`] for export) may allocate
//! and may take the per-slot label lock; `record` never does.
//!
//! Shape classes are identified by their power-of-two-bucketed dims
//! (the same bucketing `fmm-tune` uses): each dim is stored as its
//! floor-log2 exponent, so keys pack into one `AtomicU64` and claiming
//! a slot is a single compare-exchange. Non-power-of-two dims are
//! bucketed down deterministically; callers are expected to pass
//! already-bucketed class dims.

use crate::hist::{HistSnapshot, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fixed slot capacity of the audit table. A slot is one
/// (shape-class, dtype) pair; production workloads see a handful.
/// When the table fills, further unseen classes are dropped and
/// counted in [`samples_dropped`].
pub const AUDIT_SLOTS: usize = 64;

/// Element type of the audited multiply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditDtype {
    F64,
    F32,
}

impl AuditDtype {
    pub fn name(self) -> &'static str {
        match self {
            AuditDtype::F64 => "f64",
            AuditDtype::F32 => "f32",
        }
    }

    /// Map a kernel element name (`fmm_core::Element::NAME`) to a
    /// dtype tag. Unknown names audit as `F64` rather than dropping.
    pub fn from_name(name: &str) -> AuditDtype {
        if name == "f32" {
            AuditDtype::F32
        } else {
            AuditDtype::F64
        }
    }

    fn id(self) -> u64 {
        match self {
            AuditDtype::F64 => 1,
            AuditDtype::F32 => 2,
        }
    }
}

/// Where the routing decision for a multiply came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditSource {
    /// Ranked live by the cost model.
    Model,
    /// Operator-pinned plan.
    Pinned,
    /// Fallback (pinned registry miss).
    Fallback,
}

/// Source names in [`AuditSource::index`] order, for export.
pub const SOURCE_NAMES: [&str; 3] = ["model", "pinned", "fallback"];

impl AuditSource {
    pub fn index(self) -> usize {
        match self {
            AuditSource::Model => 0,
            AuditSource::Pinned => 1,
            AuditSource::Fallback => 2,
        }
    }

    pub fn name(self) -> &'static str {
        SOURCE_NAMES[self.index()]
    }
}

/// One executed multiply, as reported by the engine.
#[derive(Clone, Copy, Debug)]
pub struct AuditSample {
    /// Power-of-two-bucketed shape-class dims (rows of A, inner, cols of B).
    pub class_m: u64,
    pub class_k: u64,
    pub class_n: u64,
    pub dtype: AuditDtype,
    pub source: AuditSource,
    /// What the router predicted this multiply would take (0 = unknown).
    pub predicted_nanos: u64,
    /// Wall-clock cost of the executed multiply.
    pub measured_nanos: u64,
    /// Classical flop count (2·m·k·n of the *actual* dims, not the class).
    pub flops: u64,
}

struct AuditSlot {
    /// Packed (marker | dtype | class-exponent) key; 0 = unclaimed.
    key: AtomicU64,
    samples: AtomicU64,
    predicted_nanos: AtomicU64,
    measured_nanos: AtomicU64,
    flops: AtomicU64,
    /// Model-error ratio in permille: 1000 ≡ predicted == measured.
    err_permille: Histogram,
    best_gflops_milli: AtomicU64,
    /// u64::MAX until the first sample lands.
    worst_gflops_milli: AtomicU64,
    by_source: [AtomicU64; SOURCE_NAMES.len()],
    /// Human-readable "chosen" label, written on the cold decision path
    /// only — `record` never touches this lock.
    chosen: Mutex<String>,
}

impl AuditSlot {
    fn new() -> AuditSlot {
        AuditSlot {
            key: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            predicted_nanos: AtomicU64::new(0),
            measured_nanos: AtomicU64::new(0),
            flops: AtomicU64::new(0),
            err_permille: Histogram::new(),
            best_gflops_milli: AtomicU64::new(0),
            worst_gflops_milli: AtomicU64::new(u64::MAX),
            by_source: std::array::from_fn(|_| AtomicU64::new(0)),
            chosen: Mutex::new(String::new()),
        }
    }
}

static SAMPLES_RECORDED: AtomicU64 = AtomicU64::new(0);
static SAMPLES_DROPPED: AtomicU64 = AtomicU64::new(0);
static TABLE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The one-time table. `Histogram::new` is not const, so a true static
/// is impossible; the single allocation is counted so tests can prove
/// the warm path never repeats it.
// fmm-check: contract(warm-alloc-free)
fn table() -> &'static [AuditSlot] {
    static TABLE: OnceLock<Box<[AuditSlot]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        TABLE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // fmm-check: allow(deny-alloc, reason = "one-time audit-table allocation at first use; warm records reuse the slots in place")
        (0..AUDIT_SLOTS).map(|_| AuditSlot::new()).collect::<Vec<_>>().into_boxed_slice()
    })
}

/// Floor-log2 dim encoding: 0 → 0, otherwise `floor(log2(d)) + 1`,
/// capped at 63 so it packs into 6 bits. Exact for the power-of-two
/// class dims the engine passes.
fn encode_dim(d: u64) -> u64 {
    if d == 0 {
        0
    } else {
        (64 - u64::from(d.leading_zeros())).min(63)
    }
}

fn decode_dim(e: u64) -> u64 {
    if e == 0 {
        0
    } else {
        1u64 << (e - 1)
    }
}

/// Pack a (class, dtype) identity into a nonzero u64: bit 63 is a
/// claim marker, bits 56.. carry the dtype, the low 18 bits the three
/// dim exponents.
// fmm-check: contract(warm-alloc-free)
fn pack_key(class_m: u64, class_k: u64, class_n: u64, dtype: AuditDtype) -> u64 {
    (1u64 << 63)
        | (dtype.id() << 56)
        | (encode_dim(class_m) << 12)
        | (encode_dim(class_k) << 6)
        | encode_dim(class_n)
}

/// Find the slot for `key`, claiming an empty one if needed. Linear
/// probe from a key-derived start; `None` when the table is full.
// fmm-check: contract(warm-alloc-free)
fn find_or_claim(key: u64) -> Option<&'static AuditSlot> {
    let slots = table();
    let start = (key % AUDIT_SLOTS as u64) as usize;
    for i in 0..AUDIT_SLOTS {
        let slot = &slots[(start + i) % AUDIT_SLOTS];
        let current = slot.key.load(Ordering::Relaxed);
        if current == key {
            return Some(slot);
        }
        if current == 0 {
            // Relaxed CAS is enough: every slot field is an atomic that
            // was fully constructed before the OnceLock published the
            // table, so a racing reader sees zeroed aggregates, never
            // uninitialized memory.
            match slot.key.compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(slot),
                Err(winner) if winner == key => return Some(slot),
                Err(_) => continue,
            }
        }
    }
    None
}

/// Record one executed multiply into its (shape-class, dtype)
/// aggregate. Lock-free, allocation-free after the first call; returns
/// `false` (and counts a drop) when the class table is full.
// fmm-check: contract(warm-alloc-free)
pub fn record(sample: &AuditSample) -> bool {
    let key = pack_key(sample.class_m, sample.class_k, sample.class_n, sample.dtype);
    let Some(slot) = find_or_claim(key) else {
        SAMPLES_DROPPED.fetch_add(1, Ordering::Relaxed);
        return false;
    };
    let measured = sample.measured_nanos.max(1);
    slot.samples.fetch_add(1, Ordering::Relaxed);
    slot.predicted_nanos.fetch_add(sample.predicted_nanos, Ordering::Relaxed);
    slot.measured_nanos.fetch_add(measured, Ordering::Relaxed);
    slot.flops.fetch_add(sample.flops, Ordering::Relaxed);
    // Ratio in permille; a 0 prediction audits as bucket 0 ("unknown").
    slot.err_permille.record(sample.predicted_nanos.saturating_mul(1000) / measured);
    // flops/nanos ≡ GFLOP/s, so milli-GFLOP/s is flops*1000/nanos.
    let gflops_milli = sample.flops.saturating_mul(1000) / measured;
    slot.best_gflops_milli.fetch_max(gflops_milli, Ordering::Relaxed);
    slot.worst_gflops_milli.fetch_min(gflops_milli, Ordering::Relaxed);
    slot.by_source[sample.source.index()].fetch_add(1, Ordering::Relaxed);
    SAMPLES_RECORDED.fetch_add(1, Ordering::Relaxed);
    true
}

/// Attach a human-readable "chosen decision" label (plan / variant /
/// strategy) to a class. Cold path: called when the engine computes a
/// fresh routing decision, not per multiply. Allocates and locks.
pub fn note_decision(class_m: u64, class_k: u64, class_n: u64, dtype: AuditDtype, chosen: &str) {
    let key = pack_key(class_m, class_k, class_n, dtype);
    if let Some(slot) = find_or_claim(key) {
        if let Ok(mut label) = slot.chosen.lock() {
            label.clear();
            label.push_str(chosen);
        }
    }
}

/// Exported aggregate for one (shape-class, dtype) pair.
#[derive(Clone, Debug)]
pub struct AuditEntry {
    /// Bucketed class label, e.g. `256x256x256`.
    pub class_label: String,
    pub dtype: &'static str,
    pub samples: u64,
    pub predicted_nanos: u64,
    pub measured_nanos: u64,
    pub flops: u64,
    pub best_gflops_milli: u64,
    /// 0 until a sample lands.
    pub worst_gflops_milli: u64,
    /// Per-source sample counts, [`SOURCE_NAMES`] order.
    pub by_source: [u64; SOURCE_NAMES.len()],
    /// Chosen decision label from the cold path ("" if never noted).
    pub chosen: String,
    /// Model-error ratio histogram (permille, 1000 ≡ perfect).
    pub err_permille: HistSnapshot,
}

impl AuditEntry {
    /// `label/dtype` export key, e.g. `256x256x256/f32`.
    pub fn key(&self) -> String {
        format!("{}/{}", self.class_label, self.dtype)
    }

    /// |log2(predicted / measured)| over the running sums — the ranking
    /// metric for retune candidates. 0.0 when either sum is empty.
    pub fn error_log2(&self) -> f64 {
        if self.predicted_nanos == 0 || self.measured_nanos == 0 {
            return 0.0;
        }
        (self.predicted_nanos as f64 / self.measured_nanos as f64).log2().abs()
    }

    /// Mean achieved GFLOP/s over every sample (flops per nanosecond).
    pub fn mean_gflops(&self) -> f64 {
        if self.measured_nanos == 0 {
            return 0.0;
        }
        self.flops as f64 / self.measured_nanos as f64
    }
}

/// Point-in-time copy of every claimed audit slot, unsorted. Cold path.
pub fn snapshot() -> Vec<AuditEntry> {
    let mut out = Vec::new();
    for slot in table() {
        let key = slot.key.load(Ordering::Relaxed);
        if key == 0 {
            continue;
        }
        let dtype = if (key >> 56) & 0x7f == 2 { AuditDtype::F32 } else { AuditDtype::F64 };
        let (m, k, n) =
            (decode_dim((key >> 12) & 0x3f), decode_dim((key >> 6) & 0x3f), decode_dim(key & 0x3f));
        let worst = slot.worst_gflops_milli.load(Ordering::Relaxed);
        out.push(AuditEntry {
            class_label: format!("{m}x{k}x{n}"),
            dtype: dtype.name(),
            samples: slot.samples.load(Ordering::Relaxed),
            predicted_nanos: slot.predicted_nanos.load(Ordering::Relaxed),
            measured_nanos: slot.measured_nanos.load(Ordering::Relaxed),
            flops: slot.flops.load(Ordering::Relaxed),
            best_gflops_milli: slot.best_gflops_milli.load(Ordering::Relaxed),
            worst_gflops_milli: if worst == u64::MAX { 0 } else { worst },
            by_source: std::array::from_fn(|i| slot.by_source[i].load(Ordering::Relaxed)),
            chosen: slot.chosen.lock().map(|l| l.clone()).unwrap_or_default(),
            err_permille: slot.err_permille.snapshot(),
        });
    }
    out
}

/// Samples successfully recorded process-wide.
pub fn samples_recorded() -> u64 {
    SAMPLES_RECORDED.load(Ordering::Relaxed)
}

/// Samples dropped because the class table was full.
pub fn samples_dropped() -> u64 {
    SAMPLES_DROPPED.load(Ordering::Relaxed)
}

/// How many times the slot table has been allocated (0 or 1). Warm
/// records must leave this flat — the allocation-freedom proof counter.
pub fn table_allocations() -> u64 {
    TABLE_ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(m: u64, k: u64, n: u64, dtype: AuditDtype) -> AuditSample {
        AuditSample {
            class_m: m,
            class_k: k,
            class_n: n,
            dtype,
            source: AuditSource::Model,
            predicted_nanos: 2_000,
            measured_nanos: 1_000,
            flops: 2u64.saturating_mul(m).saturating_mul(k).saturating_mul(n),
        }
    }

    /// One serialized test: the table is process-global, so ordering
    /// between sub-scenarios matters (overflow last — it fills the
    /// table for good).
    #[test]
    fn audit_end_to_end() {
        // -- Aggregation per (class, dtype) ---------------------------
        assert!(record(&sample(256, 256, 256, AuditDtype::F64)));
        assert!(record(&sample(256, 256, 256, AuditDtype::F64)));
        assert!(record(&sample(256, 256, 256, AuditDtype::F32)));
        let allocations = table_allocations();
        assert_eq!(allocations, 1, "table allocated exactly once");

        note_decision(256, 256, 256, AuditDtype::F64, "fmm <3,3,3>^2 dfs");
        let entries = snapshot();
        let f64_entry = entries
            .iter()
            .find(|e| e.class_label == "256x256x256" && e.dtype == "f64")
            .expect("f64 class present");
        assert_eq!(f64_entry.samples, 2);
        assert_eq!(f64_entry.key(), "256x256x256/f64");
        assert_eq!(f64_entry.predicted_nanos, 4_000);
        assert_eq!(f64_entry.measured_nanos, 2_000);
        assert_eq!(f64_entry.chosen, "fmm <3,3,3>^2 dfs");
        assert_eq!(f64_entry.by_source, [2, 0, 0]);
        // predicted/measured = 2.0 → error_log2 = 1, ratio 2000 permille.
        assert!((f64_entry.error_log2() - 1.0).abs() < 1e-12);
        assert_eq!(f64_entry.err_permille.count, 2);
        assert!(f64_entry.err_permille.min >= 2000 && f64_entry.err_permille.max <= 2250);
        // flops = 2·256³ over 1000ns → 33_554 GFLOP/s· milli units.
        assert_eq!(f64_entry.best_gflops_milli, f64_entry.worst_gflops_milli);
        assert!(f64_entry.best_gflops_milli > 0);
        assert!((f64_entry.mean_gflops() - f64_entry.flops as f64 / 2_000.0).abs() < 1e-9);

        let f32_entry = entries
            .iter()
            .find(|e| e.class_label == "256x256x256" && e.dtype == "f32")
            .expect("f32 class is a distinct slot");
        assert_eq!(f32_entry.samples, 1);
        assert_eq!(f32_entry.chosen, "", "note_decision only labeled the f64 slot");

        // -- Degenerate inputs ----------------------------------------
        // Zero dims and zero measured time must not divide by zero.
        let zero = AuditSample {
            class_m: 0,
            class_k: 0,
            class_n: 0,
            dtype: AuditDtype::F64,
            source: AuditSource::Fallback,
            predicted_nanos: 0,
            measured_nanos: 0,
            flops: 0,
        };
        assert!(record(&zero));
        let entries = snapshot();
        let degenerate =
            entries.iter().find(|e| e.class_label == "0x0x0").expect("zero class is representable");
        assert_eq!(degenerate.by_source, [0, 0, 1]);
        assert_eq!(degenerate.error_log2(), 0.0);
        assert_eq!(degenerate.worst_gflops_milli, 0);

        // -- Warm path leaves the allocation counter flat -------------
        for _ in 0..100 {
            record(&sample(512, 512, 512, AuditDtype::F64));
        }
        assert_eq!(table_allocations(), allocations, "warm records must not allocate tables");

        // -- Overflow: unseen classes drop once the table is full -----
        // 6-bit exponents give far more than AUDIT_SLOTS distinct keys.
        let recorded_before = samples_recorded();
        let mut dropped = 0u64;
        for em in 1..=63u64 {
            for ek in 1..=3u64 {
                if !record(&sample(1 << (em - 1), 1 << (ek - 1), 4, AuditDtype::F32)) {
                    dropped += 1;
                }
            }
        }
        assert!(dropped > 0, "189 distinct classes must overflow {AUDIT_SLOTS} slots");
        assert_eq!(samples_dropped(), dropped);
        assert!(samples_recorded() > recorded_before, "pre-overflow classes still recorded");
        // Known classes keep recording even when the table is full.
        assert!(record(&sample(256, 256, 256, AuditDtype::F64)));
    }
}
