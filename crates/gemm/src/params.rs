//! Cache blocking parameters for the five-loop GEMM algorithm.

/// Register and cache blocking parameters `{mR, nR, kC, mC, nC}`.
///
/// The roles follow the GotoBLAS analysis reproduced in the paper (§2.1):
///
/// * `mr x nr` — the register tile of `C` the micro-kernel accumulates;
/// * `kc` — depth of a packed micro-panel: an `mr x kc` sliver of `A` and a
///   `kc x nr` sliver of `B` stay in L1;
/// * `mc x kc` — the packed block of `A` held in L2;
/// * `kc x nc` — the packed row panel of `B` held in L3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockingParams {
    /// Micro-tile rows (register blocking).
    pub mr: usize,
    /// Micro-tile columns (register blocking).
    pub nr: usize,
    /// L1/packing depth.
    pub kc: usize,
    /// Rows of the packed `A` block (L2).
    pub mc: usize,
    /// Columns of the packed `B` panel (L3).
    pub nc: usize,
}

/// Cache sizes in bytes, used by the analytic parameter derivation.
#[derive(Clone, Copy, Debug)]
pub struct CacheInfo {
    /// L1 data cache per core.
    pub l1d: usize,
    /// L2 cache per core.
    pub l2: usize,
    /// L3 cache (shared).
    pub l3: usize,
}

impl Default for BlockingParams {
    /// The parameters used throughout the paper's experiments
    /// (§5.1: `nR = 4, mR = 8, kC = 256, nC = 4096, mC = 96`).
    ///
    /// These were derived for a 32 KB L1 / 256 KB L2 / 25.6 MB L3 Ivy
    /// Bridge; they remain valid (conservative) on larger caches. Use
    /// [`BlockingParams::analytic`] to resize for a specific machine. The
    /// `8 x 4` register tile is the paper's: the GEMM driver runs each
    /// dtype at its kernel's tile instead
    /// ([`BlockingParams::with_register_tile`]), `16 x 8` for `f64` and
    /// `32 x 8` for `f32`, and keeps `kc`, `mc` and `nc` (96 rows is six
    /// `f64` or three `f32` micro-panels).
    fn default() -> Self {
        Self { mr: 8, nr: 4, kc: 256, mc: 96, nc: 4096 }
    }
}

impl BlockingParams {
    /// Derive parameters analytically from cache sizes for an `mr x nr`
    /// register tile of `elem_bytes`-byte elements, following Low et al.,
    /// "Analytical modeling is enough for high performance BLIS" (paper
    /// ref. [7]):
    ///
    /// * `kc`: an `mr x kc` panel of `A` plus a `kc x nr` panel of `B`
    ///   occupy at most half of L1;
    /// * `mc`: the packed `mc x kc` block of `A` occupies at most half of L2;
    /// * `nc`: the packed `kc x nc` panel of `B` occupies at most half of L3.
    ///
    /// `mc` is rounded down to a multiple of `mr` and `nc` to a multiple of
    /// `nr`, each floored at one tile; `kc` is floored at 8.
    pub fn analytic(cache: CacheInfo, mr: usize, nr: usize, elem_bytes: usize) -> Self {
        let w = elem_bytes.max(1);
        let (mr, nr) = (mr.max(1), nr.max(1));
        let kc = (cache.l1d / 2 / w / (mr + nr)).max(8);
        let mc_raw = (cache.l2 / 2 / w / kc).max(mr);
        let mc = (mc_raw / mr).max(1) * mr;
        let nc_raw = (cache.l3 / 2 / w / kc).max(nr);
        let nc = (nc_raw / nr).max(1) * nr;
        Self { mr, nr, kc, mc, nc }
    }

    /// Size in elements of the packed `A` block buffer (`mc x kc`, with the
    /// row count rounded up to whole micro-panels).
    pub fn packed_a_len(&self) -> usize {
        self.mc.div_ceil(self.mr) * self.mr * self.kc
    }

    /// Size in elements of the packed `B` panel buffer (`kc x nc`, with the
    /// column count rounded up to whole micro-panels).
    pub fn packed_b_len(&self) -> usize {
        self.nc.div_ceil(self.nr) * self.nr * self.kc
    }

    /// Validate internal consistency (non-zero tiles, `mc` a multiple of
    /// `mr` is *not* required, but everything must be positive).
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in
            [("mr", self.mr), ("nr", self.nr), ("kc", self.kc), ("mc", self.mc), ("nc", self.nc)]
        {
            if v == 0 {
                return Err(format!("blocking parameter {name} must be positive"));
            }
        }
        if self.mc < self.mr {
            return Err("mc must be at least mr".into());
        }
        if self.nc < self.nr {
            return Err("nc must be at least nr".into());
        }
        Ok(())
    }

    /// A small-parameter set for tests: exercises every edge case (partial
    /// panels, multiple jc/pc/ic iterations) on matrices of modest size.
    /// At the kernels' tiles it is `mc = 16, nc = 12` for `f64` (one
    /// 16-row panel per `ic` block, a full and a partial 8-column panel per
    /// `jc` block) and `mc = 32` for `f32`.
    pub fn tiny() -> Self {
        Self { mr: 8, nr: 4, kc: 8, mc: 16, nc: 12 }
    }

    /// The same cache blocking with the register tile replaced — the
    /// generic driver derives the effective parameter set for a scalar
    /// type from its kernel's `MR x NR` tile (e.g. `32 x 8` for `f32`),
    /// keeping every cache-level parameter as configured. Sizing and
    /// packing always go through this, so one `BlockingParams` value can
    /// serve every dtype.
    pub fn with_register_tile(&self, mr: usize, nr: usize) -> Self {
        Self { mr, nr, mc: self.mc.max(mr), nc: self.nc.max(nr), ..*self }
    }

    /// Parameters for one of `workers` *co-resident* GEMM instances — the
    /// BFS scheduler's situation, where every worker packs its own `B̃`
    /// panel at the same time.
    ///
    /// `nc` sizes the packed `B` panel against the *shared* L3, so it is
    /// divided across workers (rounded to whole `nr` micro-panels, floored
    /// at one) to keep the aggregate packed footprint within the budget a
    /// single instance was tuned for. The register tile, `kc` (L1) and
    /// `mc` (per-core L2) are private resources and stay unchanged.
    pub fn for_workers(&self, workers: usize) -> Self {
        if workers <= 1 {
            return *self;
        }
        let nc = ((self.nc / workers).max(self.nr) / self.nr) * self.nr;
        Self { nc, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_section_5_1() {
        let p = BlockingParams::default();
        assert_eq!((p.mr, p.nr, p.kc, p.mc, p.nc), (8, 4, 256, 96, 4096));
    }

    /// Ivy Bridge: 32 KB L1d, 256 KB L2, 25.6 MB L3.
    const PAPER_CACHES: CacheInfo =
        CacheInfo { l1d: 32 * 1024, l2: 256 * 1024, l3: 25 * 1024 * 1024 + 614 * 1024 };

    #[test]
    fn analytic_for_paper_machine_is_close_to_paper_values() {
        let p = BlockingParams::analytic(PAPER_CACHES, 8, 4, 8);
        assert_eq!(p.mr, 8);
        assert_eq!(p.nr, 4);
        // kc: 16KB / 8B / 12 = 170; same order as the paper's 256.
        assert_eq!(p.kc, 170);
        // mc: 128KB / 8B / kc, multiple of mr; paper uses 96.
        assert!(p.mc >= 64 && p.mc <= 128, "mc = {}", p.mc);
        assert!(p.nc >= 2048, "nc = {}", p.nc);
        p.validate().unwrap();
    }

    #[test]
    fn analytic_rounds_to_the_given_tile_and_width() {
        for (mr, nr, w) in [(16, 8, 8), (32, 8, 4), (8, 4, 4)] {
            let p = BlockingParams::analytic(PAPER_CACHES, mr, nr, w);
            assert_eq!((p.mr, p.nr), (mr, nr));
            assert_eq!(p.kc, PAPER_CACHES.l1d / 2 / w / (mr + nr), "{mr}x{nr} at {w} bytes");
            assert_eq!(p.mc % mr, 0, "mc = {} for mr = {mr}", p.mc);
            assert_eq!(p.nc % nr, 0, "nc = {} for nr = {nr}", p.nc);
            // The packed A block fits half of L2, the B panel half of L3.
            assert!(p.packed_a_len() * w <= PAPER_CACHES.l2 / 2, "{p:?}");
            assert!(p.packed_b_len() * w <= PAPER_CACHES.l3 / 2, "{p:?}");
            p.validate().unwrap();
        }
        // Half the width doubles the depth at the same tile.
        let (f64_p, f32_p) = (
            BlockingParams::analytic(PAPER_CACHES, 16, 8, 8),
            BlockingParams::analytic(PAPER_CACHES, 16, 8, 4),
        );
        assert_eq!(f32_p.kc, 2 * f64_p.kc);
    }

    #[test]
    fn packed_lengths_cover_partial_panels() {
        let p = BlockingParams { mr: 8, nr: 4, kc: 10, mc: 12, nc: 6 };
        // 12 rows -> 2 panels of 8 rows.
        assert_eq!(p.packed_a_len(), 2 * 8 * 10);
        // 6 cols -> 2 panels of 4 cols.
        assert_eq!(p.packed_b_len(), 2 * 4 * 10);
    }

    #[test]
    fn for_workers_divides_the_shared_panel() {
        let p = BlockingParams::default();
        assert_eq!(p.for_workers(1), p, "single worker keeps the tuned panel");
        let q = p.for_workers(4);
        assert_eq!(q.nc, 1024, "L3 panel split four ways");
        assert_eq!((q.mr, q.nr, q.kc, q.mc), (p.mr, p.nr, p.kc, p.mc), "private resources kept");
        q.validate().unwrap();
        // Extreme worker counts still yield at least one micro-panel.
        let tiny = BlockingParams::tiny().for_workers(64);
        assert_eq!(tiny.nc, tiny.nr);
        tiny.validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_and_undersized() {
        assert!(BlockingParams { mr: 0, nr: 4, kc: 1, mc: 1, nc: 4 }.validate().is_err());
        assert!(BlockingParams { mr: 8, nr: 4, kc: 16, mc: 4, nc: 16 }.validate().is_err());
        assert!(BlockingParams { mr: 8, nr: 4, kc: 16, mc: 8, nc: 2 }.validate().is_err());
        BlockingParams::tiny().validate().unwrap();
        BlockingParams::default().validate().unwrap();
    }
}
