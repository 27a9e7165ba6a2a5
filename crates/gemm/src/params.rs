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

impl Default for BlockingParams {
    /// `mR = 8, nR = 4, kC = 256, mC = 512, nC = 4096`.
    ///
    /// `kc` and `nc` are the paper's (§5.1). Its `mC = 96` made a 192 KiB
    /// `Ã` block for the 256 KiB L2 of its Ivy Bridge; 512 rows follow the
    /// rule of its ref. [7] (Low et al., "Analytical modeling is enough for
    /// high performance BLIS"), which fills half of L2 with the packed `A`
    /// block, on a 2 MiB L2: 1 MiB of `f64` or 512 KiB of `f32` at `kc =
    /// 256`. Each `B̃` micro-panel is then reused by 32 `f64` (16 `f32`)
    /// tiles before the next one comes from L3, where 96 rows gave 6 (3).
    /// `mc` and `nc` only regroup rows and columns, and each element's FMA
    /// chain depends on `kc` alone, so no output changes bits with them.
    ///
    /// Measured in-process: `gemm_with_params` at `mc` 96 and 512,
    /// interleaved, best of 10 each, five runs, one thread of a 2-vCPU
    /// Xeon (48 KiB L1d, 2 MiB L2, AVX-512 kernels); the gain of 512:
    ///
    /// | shape (`m x k x n`) | dtype | `mc` 96 → 512 |
    /// |---|---|---|
    /// | 2048 x 256 x 2048 | `f64` | +10 to +17 % |
    /// | 1536 x 512 x 1536 | `f64` | +7 to +28 % |
    /// | 1024 x 1024 x 1024 | `f64` | −3 to +6 % |
    /// | 1536 x 1536 x 1536 | `f64` | +1 to +9 % |
    /// | 1536 x 1536 x 1536 | `f32` | +8 to +12 % |
    ///
    /// `mc = 1024`, whose `f64` block fills all of L2, ran `f64` 1536³
    /// 14–21 % slower than 512 and `f32` no faster. `kc` stays: it sets
    /// where each element's FMA chain is split, so another `kc` moves
    /// bits. The `8 x 4` register tile is the paper's: the GEMM driver
    /// runs each dtype at its kernel's tile instead
    /// ([`BlockingParams::with_register_tile`]), `16 x 8` for `f64` and
    /// `32 x 8` for `f32`, and keeps `kc`, `mc` and `nc` (512 rows is 32
    /// `f64` or 16 `f32` micro-panels). The paper's own set stays pinned
    /// as `fmm_model::ArchParams::paper_machine`.
    fn default() -> Self {
        Self { mr: 8, nr: 4, kc: 256, mc: 512, nc: 4096 }
    }
}

impl BlockingParams {
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

    /// This blocking clamped to an `m x k x n` problem: `mc` to `m` rounded
    /// up to whole `mr` micro-panels, `kc` to `k` and `nc` to `n` rounded up
    /// to whole `nr` micro-panels (at least one micro-panel each, and `kc`
    /// at least 1).
    /// The loop nest runs the same blocks under either set, and
    /// [`Self::packed_a_len`] / [`Self::packed_b_len`] of the result are
    /// the largest `Ã` block and `B̃` panel the problem packs, which is
    /// what its workspace needs. Apply it at the register tile the problem
    /// is packed on ([`Self::with_register_tile`]).
    pub fn fit(&self, m: usize, k: usize, n: usize) -> Self {
        Self {
            kc: self.kc.min(k).max(1),
            mc: self.mc.min(m.next_multiple_of(self.mr)).max(self.mr),
            nc: self.nc.min(n.next_multiple_of(self.nr)).max(self.nr),
            ..*self
        }
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

    /// `mc` follows ref. [7]'s rule on a 2 MiB L2: at `kc = 256` the
    /// packed `f64` block on its 16-row tile fills half of L2, the `f32`
    /// one a quarter, and both tiles' `MR` divide it. The rest is the
    /// paper's §5.1 set (whose `mc = 96` `fmm_model::ArchParams` pins).
    #[test]
    fn default_fills_half_of_a_2_mib_l2_with_the_packed_a_block() {
        const L2: usize = 2 << 20;
        let p = BlockingParams::default();
        assert_eq!((p.mr, p.nr, p.kc, p.mc, p.nc), (8, 4, 256, 512, 4096));
        for (mr, nr, bytes, share) in [(16, 8, 8, 2), (32, 8, 4, 4)] {
            let q = p.with_register_tile(mr, nr);
            assert_eq!(q.mc, p.mc, "{mr}x{nr} keeps mc");
            assert_eq!(q.mc % mr, 0, "mc is whole {mr}-row micro-panels");
            assert_eq!(q.packed_a_len() * bytes, L2 / share, "{mr}x{nr} A block");
        }
    }

    /// A fitted blocking packs the problem's own block and panel, and
    /// keeps the configured one past it.
    #[test]
    fn fit_clamps_each_block_to_the_problem() {
        let p = BlockingParams::default().with_register_tile(16, 8);
        let small = p.fit(100, 70, 33);
        assert_eq!((small.mc, small.kc, small.nc), (112, 70, 40));
        assert_eq!((small.mr, small.nr), (16, 8));
        assert_eq!(small.packed_a_len(), 112 * 70);
        assert_eq!(small.packed_b_len(), 70 * 40);
        assert_eq!(p.fit(4096, 4096, 8192), p, "a problem past every block keeps them");
        assert_eq!(p.fit(512, 256, 4096), p, "exactly one block");
        let empty = p.fit(0, 0, 0);
        assert_eq!((empty.mc, empty.kc, empty.nc), (16, 1, 8));
        empty.validate().unwrap();
        // A step that is not whole micro-panels stays as configured.
        let odd = BlockingParams { mc: 100, ..p };
        assert_eq!(odd.fit(1000, 10, 10).mc, 100);
        assert_eq!(odd.fit(90, 10, 10).mc, 96);
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
