//! The pinned calibration: `benchmark/arch.json`.
//!
//! Engines measure the host once and persist it (`ArchSource::Calibrated`);
//! the first measurement in a process differs from every later one, and one
//! noisy sample flips routes for good. The benchmark instead reads committed
//! constants, so routing is a pure function of the code under test.

use fmm_core::json::{self, Value};
use fmm_gemm::{BlockingParams, GemmScalar};
use fmm_model::ArchParams;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The committed model constants, one entry per element type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArchFile {
    pub f64: ArchParams,
    pub f32: ArchParams,
}

pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("arch.json")
}

fn entry_to_json(a: &ArchParams) -> Value {
    Value::Object(BTreeMap::from([
        ("tau_a".to_string(), Value::Number(a.tau_a)),
        ("tau_b".to_string(), Value::Number(a.tau_b)),
        ("lambda".to_string(), Value::Number(a.lambda)),
        ("mc".to_string(), Value::Int(a.mc as i64)),
        ("kc".to_string(), Value::Int(a.kc as i64)),
        ("nc".to_string(), Value::Int(a.nc as i64)),
    ]))
}

fn entry_from_json(v: &Value) -> Result<ArchParams, String> {
    let arch = ArchParams {
        tau_a: v.get("tau_a")?.as_number()?,
        tau_b: v.get("tau_b")?.as_number()?,
        lambda: v.get("lambda")?.as_number()?,
        mc: v.get("mc")?.as_usize()?,
        kc: v.get("kc")?.as_usize()?,
        nc: v.get("nc")?.as_usize()?,
        // Engines charge memory terms at their own element width.
        elem_bytes: 8,
    };
    arch.validate()?;
    Ok(arch)
}

impl ArchFile {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text)?;
        Ok(Self { f64: entry_from_json(doc.get("f64")?)?, f32: entry_from_json(doc.get("f32")?)? })
    }

    /// The committed file, or — loudly — the paper machine's constants.
    /// Never a live calibration: that is the noise the file exists to
    /// keep out.
    pub fn load_or_paper_machine() -> Self {
        let path = default_path();
        match Self::load(&path) {
            Ok(file) => file,
            Err(e) => {
                for _ in 0..3 {
                    eprintln!("WARNING: pinned calibration unusable ({e})");
                }
                eprintln!(
                    "WARNING: routing with the paper machine's constants; numbers are not \
                     comparable. Run `fmm-ledger calibrate` and commit arch.json."
                );
                let paper = ArchParams::paper_machine();
                Self { f64: paper, f32: paper }
            }
        }
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let doc = Value::Object(BTreeMap::from([
            ("f64".to_string(), entry_to_json(&self.f64)),
            ("f32".to_string(), entry_to_json(&self.f32)),
            (
                "kernels".to_string(),
                Value::String(format!(
                    "{} / {}",
                    f64::micro_kernel_name(),
                    f32::micro_kernel_name()
                )),
            ),
        ]));
        std::fs::write(path, json::to_string_pretty(&doc) + "\n")
    }
}

/// Component-wise median of `arches`.
pub fn median_arch(arches: &[ArchParams]) -> ArchParams {
    let med =
        |f: fn(&ArchParams) -> f64| crate::stats::median(&arches.iter().map(f).collect::<Vec<_>>());
    ArchParams {
        tau_a: med(|a| a.tau_a),
        tau_b: med(|a| a.tau_b),
        lambda: med(|a| a.lambda),
        ..arches[0]
    }
}

/// Six full-scale calibrations of `T`; the first (cold pages, an outlier
/// in `tau_b`) is dropped and the rest reduced to their median.
fn calibrate_dtype<T: GemmScalar>() -> ArchParams {
    let runs: Vec<ArchParams> =
        (0..6).map(|_| fmm_tune::calibrate_host::<T>(&BlockingParams::default(), 1.0)).collect();
    for (i, a) in runs.iter().enumerate() {
        println!(
            "  {} run {i}: tau_a {:.4e} tau_b {:.4e} lambda {:.2}{}",
            T::NAME,
            a.tau_a,
            a.tau_b,
            a.lambda,
            if i == 0 { "  (discarded)" } else { "" }
        );
    }
    median_arch(&runs[1..])
}

/// `fmm-ledger calibrate`: measure and overwrite `arch.json`.
pub fn calibrate() -> std::io::Result<()> {
    let file = ArchFile { f64: calibrate_dtype::<f64>(), f32: calibrate_dtype::<f32>() };
    let path = default_path();
    file.save(&path)?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_file_round_trips_through_json() {
        let mut f32_arch = ArchParams::paper_machine();
        f32_arch.tau_a /= 2.0;
        let file = ArchFile { f64: ArchParams::paper_machine(), f32: f32_arch };
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("arch-roundtrip-{}.json", std::process::id()));
        file.save(&path).unwrap();
        let back = ArchFile::load(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.unwrap(), file);
    }

    #[test]
    fn the_committed_file_loads_and_validates() {
        ArchFile::load(&default_path()).expect("benchmark/arch.json is committed");
    }

    #[test]
    fn median_is_taken_per_component() {
        let mk = |tau_a, tau_b| ArchParams { tau_a, tau_b, ..ArchParams::paper_machine() };
        let m = median_arch(&[mk(1.0, 30.0), mk(3.0, 10.0), mk(2.0, 20.0)]);
        assert_eq!((m.tau_a, m.tau_b), (2.0, 20.0));
    }
}
