//! The paper's Fig. 9 as measured rows, and the guard band derived from
//! them.
//!
//! The paper ranks candidates with the Fig. 5 model and then measures the
//! top two (§4.4), because the model errs. The replay table is that error
//! measured once and committed: each row is one FMM candidate the model
//! ranked ahead of GEMM on one shape, timed against GEMM on the same
//! operands (`examples/replay_table.rs` writes it). The table also records
//! the [`ArchParams`] its predictions use, so a row's predicted ratio is a
//! pure function of the code and the file.
//!
//! [`ReplayTable::derive_band`] reduces the rows to one number: the
//! largest `|ln(measured FMM/GEMM) − ln(predicted FMM/GEMM)|` over the rows
//! where Fig. 5 predicts the candidate faster. On the committed table
//! (`crates/model/replay/fig9.txt`) that number is [`GUARD_BAND`], which
//! [`crate::rank_scheduled`] charges every FMM candidate: a guard of
//! `(e^band − 1) × its Fig. 5 total`, so a fast algorithm outranks GEMM
//! only when `ln(GEMM/FMM)` as Fig. 5 predicts it exceeds the error the
//! model has been measured to make. The band was measured with one worker
//! at the table's constants; rankings at other constants or worker counts
//! are charged the same band without rows of their own.
//!
//! Text format, one record a line (`#` starts a comment):
//!
//! ```text
//! arch f64 tau_a=4.7e-11 tau_b=1.4e-9 lambda=0.5 mc=96 kc=256 nc=4096
//! arch f32 tau_a=3.2e-11 tau_b=1.4e-9 lambda=0.5 mc=96 kc=256 nc=4096
//! # dtype m k n plan variant best_ns gemm_best_ns
//! f64 1024 1024 1024 <2,2,2> ABC 15800000 15100000
//! ```

use crate::arch::ArchParams;
use crate::predict::{predict_fmm, predict_gemm};
use crate::Impl;
use fmm_core::counts::PlanCounts;
use fmm_core::registry::Registry;
use fmm_core::FmmPlan;
use std::fmt::Write as _;

/// What [`ReplayTable::derive_band`] gives on the committed table,
/// `crates/model/replay/fig9.txt` (a test re-derives it bit for bit): the
/// largest error of Fig. 5's `ln(FMM/GEMM)` the table measured.
pub const GUARD_BAND: f64 = 0.43942983015838144;

/// One measured FMM candidate on one shape.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayRow {
    /// Bytes per element: 8 (`f64`) or 4 (`f32`).
    pub elem_bytes: usize,
    /// Problem size: `A` is `m×k`, `B` is `k×n`.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Partition dims of each level, outermost first.
    pub plan: Vec<(usize, usize, usize)>,
    /// The FMM variant measured.
    pub impl_: Impl,
    /// The candidate's best time, in nanoseconds.
    pub best_nanos: u64,
    /// GEMM's best time on the same operands, in nanoseconds.
    pub gemm_nanos: u64,
}

impl ReplayRow {
    /// `"<2,2,2>+<2,2,2>"`, as `FmmPlan::describe` words it.
    fn plan_label(&self) -> String {
        let level = |&(m, k, n): &(usize, usize, usize)| format!("<{m},{k},{n}>");
        self.plan.iter().map(level).collect::<Vec<_>>().join("+")
    }

    /// `"f64"` or `"f32"`.
    fn dtype(&self) -> &'static str {
        if self.elem_bytes == 4 {
            "f32"
        } else {
            "f64"
        }
    }

    /// Measured FMM/GEMM time ratio.
    fn measured_ratio(&self) -> f64 {
        self.best_nanos as f64 / self.gemm_nanos as f64
    }

    /// The plan this row measured, with `registry`'s algorithm per level
    /// (`None` if a level's dims are not registered).
    fn resolve(&self, registry: &Registry) -> Option<FmmPlan> {
        let levels = self.plan.iter().map(|&dims| registry.get(dims)).collect::<Option<_>>()?;
        Some(FmmPlan::from_arcs(levels))
    }

    /// FMM/GEMM time ratio as Fig. 5 predicts it at `arch` (the element
    /// width is taken from the row), one worker.
    fn predicted_ratio(&self, plan: &FmmPlan, arch: &ArchParams) -> f64 {
        let arch = arch.with_elem_bytes(self.elem_bytes);
        let (m, k, n) = (self.m, self.k, self.n);
        let fmm = predict_fmm(self.impl_, &PlanCounts::of(plan), m, k, n, &arch);
        fmm.total / predict_gemm(m, k, n, &arch).total
    }
}

/// A parsed replay table.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayTable {
    /// Constants the `f64` rows' predictions use (`elem_bytes` 8).
    pub arch_f64: ArchParams,
    /// Constants the `f32` rows' predictions use (`elem_bytes` as for
    /// `f64`; each row applies its own width).
    pub arch_f32: ArchParams,
    /// Measured rows, in the order they were measured.
    pub rows: Vec<ReplayRow>,
}

fn parse_impl(name: &str) -> Option<Impl> {
    Impl::FMM_VARIANTS.into_iter().find(|v| v.name() == name)
}

fn parse_plan(label: &str) -> Option<Vec<(usize, usize, usize)>> {
    label
        .split('+')
        .map(|level| {
            let inner = level.strip_prefix('<')?.strip_suffix('>')?;
            let dims: Vec<usize> =
                inner.split(',').map(|d| d.parse().ok()).collect::<Option<_>>()?;
            match dims[..] {
                [m, k, n] => Some((m, k, n)),
                _ => None,
            }
        })
        .collect()
}

fn parse_arch(fields: &[&str]) -> Option<ArchParams> {
    let value = |key: &str| fields.iter().find_map(|f| f.strip_prefix(key)?.strip_prefix('='));
    let arch = ArchParams {
        tau_a: value("tau_a")?.parse().ok()?,
        tau_b: value("tau_b")?.parse().ok()?,
        lambda: value("lambda")?.parse().ok()?,
        mc: value("mc")?.parse().ok()?,
        kc: value("kc")?.parse().ok()?,
        nc: value("nc")?.parse().ok()?,
        elem_bytes: 8,
    };
    arch.validate().ok()?;
    Some(arch)
}

fn parse_row(elem_bytes: usize, fields: &[&str]) -> Option<ReplayRow> {
    let [m, k, n, plan, variant, best, gemm] = fields else { return None };
    let row = ReplayRow {
        elem_bytes,
        m: m.parse().ok()?,
        k: k.parse().ok()?,
        n: n.parse().ok()?,
        plan: parse_plan(plan)?,
        impl_: parse_impl(variant)?,
        best_nanos: best.parse().ok()?,
        gemm_nanos: gemm.parse().ok()?,
    };
    (row.best_nanos > 0 && row.gemm_nanos > 0).then_some(row)
}

fn arch_line(name: &str, a: &ArchParams) -> String {
    format!(
        "arch {name} tau_a={:e} tau_b={:e} lambda={} mc={} kc={} nc={}\n",
        a.tau_a, a.tau_b, a.lambda, a.mc, a.kc, a.nc
    )
}

impl ReplayTable {
    /// Parse the text format (module docs). Every `arch` and row line must
    /// be well formed, and both `arch` lines must be present; the error
    /// names the first line that is not.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (mut arch_f64, mut arch_f32) = (None, None);
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields[..] {
                [] => Some(()),
                ["arch", "f64", ref rest @ ..] => parse_arch(rest).map(|a| arch_f64 = Some(a)),
                ["arch", "f32", ref rest @ ..] => parse_arch(rest).map(|a| arch_f32 = Some(a)),
                ["f64", ref rest @ ..] => parse_row(8, rest).map(|r| rows.push(r)),
                ["f32", ref rest @ ..] => parse_row(4, rest).map(|r| rows.push(r)),
                _ => None,
            };
            if parsed.is_none() {
                return Err(format!("replay table line {}: cannot parse {line:?}", i + 1));
            }
        }
        Ok(Self {
            arch_f64: arch_f64.ok_or("replay table: no `arch f64` line")?,
            arch_f32: arch_f32.ok_or("replay table: no `arch f32` line")?,
            rows,
        })
    }

    /// The text [`ReplayTable::parse`] reads back to `self`, under a
    /// header comment saying what wrote it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# The paper's Fig. 9 as measured rows: every FMM candidate the Fig. 5 model\n\
             # ranks ahead of GEMM, timed against GEMM on the same operands (best of\n\
             # interleaved runs, one thread). Written by\n\
             #   cargo run --release --example replay_table -- --out <this file>\n\
             # `arch` is what the predictions use (memory terms per row's width);\n\
             # `ReplayTable::derive_band` reduces the rows to the ranker's guard band.\n",
        );
        out.push_str(&arch_line("f64", &self.arch_f64));
        out.push_str(&arch_line("f32", &self.arch_f32));
        out.push_str("# dtype m k n plan variant best_ns gemm_best_ns\n");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{} {} {} {} {} {} {} {}",
                r.dtype(),
                r.m,
                r.k,
                r.n,
                r.plan_label(),
                r.impl_.name(),
                r.best_nanos,
                r.gemm_nanos
            );
        }
        out
    }

    /// The constants a row of width `elem_bytes` is predicted with.
    pub fn arch(&self, elem_bytes: usize) -> ArchParams {
        let arch = if elem_bytes == 4 { self.arch_f32 } else { self.arch_f64 };
        arch.with_elem_bytes(elem_bytes)
    }

    /// The largest `|ln(measured/GEMM) − ln(predicted/GEMM)|` over the rows
    /// Fig. 5 predicts faster than GEMM (0 if there are none). Plans are
    /// resolved in `registry`; a row whose plan it lacks is an error.
    pub fn derive_band(&self, registry: &Registry) -> Result<f64, String> {
        let mut band: f64 = 0.0;
        for row in &self.rows {
            let plan = row.resolve(registry).ok_or_else(|| {
                format!("replay row {}: plan not in the registry", row.plan_label())
            })?;
            let predicted = row.predicted_ratio(&plan, &self.arch(row.elem_bytes));
            if predicted < 1.0 {
                band = band.max((row.measured_ratio().ln() - predicted.ln()).abs());
            }
        }
        Ok(band)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
arch f64 tau_a=4.716310501098633e-11 tau_b=1.4108443525102402e-9 lambda=0.5 mc=96 kc=256 nc=4096
arch f32 tau_a=3.18719228108724e-11 tau_b=1.4347923861609562e-9 lambda=0.5 mc=96 kc=256 nc=4096
# a comment
f64 1024 1024 1024 <2,2,2> ABC 1100 1000 # a trailing comment
f32 1536 512 1536 <2,2,2>+<3,2,3> Naive 900 1000
";

    #[test]
    fn render_and_parse_round_trip() {
        let table = ReplayTable::parse(SAMPLE).unwrap();
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[1].plan, [(2, 2, 2), (3, 2, 3)]);
        assert_eq!(table.rows[1].impl_, Impl::Naive);
        assert_eq!(table.rows[1].elem_bytes, 4);
        assert_eq!(table.arch(4).elem_bytes, 4);
        assert_eq!(ReplayTable::parse(&table.render()).unwrap(), table);
    }

    #[test]
    fn malformed_lines_are_named() {
        for bad in [
            "f64 1024 1024 <2,2,2> ABC 1 1",
            "f64 1024 1024 1024 <2,2> ABC 1 1",
            "f64 1024 1024 1024 <2,2,2> GEMM 1 1",
            "f64 1024 1024 1024 <2,2,2> ABC 0 1",
            "band 0.1",
            "arch f64 tau_a=1e-11 lambda=0.5",
        ] {
            let err = ReplayTable::parse(&format!("{SAMPLE}{bad}\n")).unwrap_err();
            assert!(err.contains("line 6"), "{bad}: {err}");
        }
        let no_f32 = SAMPLE.lines().filter(|l| !l.starts_with("arch f32")).collect::<Vec<_>>();
        assert!(ReplayTable::parse(&no_f32.join("\n")).is_err());
    }

    #[test]
    fn band_is_the_largest_error_where_fmm_is_predicted_faster() {
        let registry = Registry::shared();
        let mut table = ReplayTable::parse(SAMPLE).unwrap();
        table.rows.truncate(1);
        let row = table.rows[0].clone();
        let plan = row.resolve(&registry).unwrap();
        let predicted = row.predicted_ratio(&plan, &table.arch(8));
        assert!(predicted < 1.0, "the ledger's constants predict Strassen faster at 1024^3");
        let band = table.derive_band(&registry).unwrap();
        assert_eq!(band, (1.1f64.ln() - predicted.ln()).abs());
        // A row Fig. 5 predicts slower than GEMM does not count.
        table.rows[0].m = 64;
        table.rows[0].k = 64;
        table.rows[0].n = 64;
        assert_eq!(table.derive_band(&registry).unwrap(), 0.0);
    }
}
