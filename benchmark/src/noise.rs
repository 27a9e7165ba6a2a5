//! `fmm-ledger noise N`: how far N end-to-end runs of the same code
//! disagree, measured the way the driver measures it.

use crate::names::END_TO_END;
use crate::ops::Workload;
use crate::stats::{median, quantile, spread};
use std::collections::BTreeMap;
use std::process::Command;

/// Row of `vs_gemm` as a ratio of per-op minima; it carries no bound.
const BY_MINIMA: &str = "vs_gemm by minima";

/// Metrics and routes one child run printed.
struct RunOutput {
    metrics: BTreeMap<String, f64>,
    /// Shape label → route label.
    routes: Vec<(String, String)>,
    failed: u64,
}

fn one_run(workload: Workload, seed: u64, seconds: f64) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "run",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run {} failed: {}",
            workload.name(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut run = RunOutput { metrics: BTreeMap::new(), routes: Vec::new(), failed: 0 };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let words: Vec<&str> = line.split(' ').collect();
        match words.as_slice() {
            ["metric", name, value, _unit] => {
                run.metrics
                    .insert(name.to_string(), value.parse().map_err(|e| format!("{line}: {e}"))?);
            }
            // The ratio as the issue defined it, printed beside the gated one.
            ["vs_gemm", "by", "minima", value] => {
                run.metrics.insert(
                    BY_MINIMA.to_string(),
                    value.parse().map_err(|e| format!("{line}: {e}"))?,
                );
            }
            ["route", _op, shape, label @ ..] => {
                run.routes.push((shape.to_string(), label.join(" ")))
            }
            ["ops_attempted", _, "ops_failed", failed] => {
                run.failed = failed.parse().map_err(|e| format!("{line}: {e}"))?;
            }
            _ => {}
        }
    }
    Ok(run)
}

/// Run every workload `n` times, each run with another seed, and print
/// per metric min, median, max, the quartile spread as a share of the
/// median (the driver's rule) and the medians of the two halves. Errors
/// unless every range stayed within its bound, every op succeeded and no
/// shape was routed two ways. The driver asks less — spread within the
/// bound, second median not worse than the first by more than the bound.
pub fn noise(n: usize, seconds: f64) -> Result<(), String> {
    if n < 4 {
        return Err("noise needs at least 4 runs".into());
    }
    let mut ok = true;
    println!("| workload | metric | min | median | max | range/median | IQR/median | median A | median B | bound |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for workload in Workload::ALL {
        let runs: Vec<RunOutput> = (1..=n as u64)
            .map(|seed| one_run(workload, seed, seconds))
            .collect::<Result<_, _>>()?;
        let rows = END_TO_END.iter().map(|def| (def.name, def.better, def.bound));
        for (name, better, bound) in rows.chain([(BY_MINIMA, "higher", None)]) {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.metrics.get(name).copied().ok_or(format!("{name} missing")))
                .collect::<Result<_, _>>()?;
            eprintln!("{} {name} per run: {values:?}", workload.name());
            let med = median(&values);
            let (lo, hi) = (quantile(&values, 0.0), quantile(&values, 1.0));
            let (a, b) = (median(&values[..n / 2]), median(&values[n / 2..]));
            let worse = if better == "higher" { (a - b) / a } else { (b - a) / a };
            let within = bound.is_none_or(|bound| (hi - lo) / med <= bound && worse <= bound);
            ok &= within;
            println!(
                "| {} | {name} | {lo:.4} | {med:.4} | {hi:.4} | {:.2}% | {:.2}% | {a:.4} | {b:.4} | {}{} |",
                workload.name(),
                (hi - lo) / med * 100.0,
                spread(&values) * 100.0,
                bound.map_or("—".to_string(), |bound| format!("{:.0}%", bound * 100.0)),
                if within { "" } else { " EXCEEDED" }
            );
        }
        if runs.iter().any(|r| r.failed > 0) {
            ok = false;
            eprintln!("{}: some ops failed", workload.name());
        }
        // Seeds change small_mix's shapes, so routes are compared per
        // shape: one shape, one route, in every run it appears in.
        let mut routes: BTreeMap<&str, &str> = BTreeMap::new();
        let mut flips = 0;
        for (shape, label) in runs.iter().flat_map(|r| &r.routes) {
            if *routes.entry(shape).or_insert(label) != label {
                flips += 1;
                eprintln!(
                    "{}: {shape} routed to {label} and to {}",
                    workload.name(),
                    routes[shape.as_str()]
                );
            }
        }
        ok &= flips == 0;
        let mut histogram: BTreeMap<&str, usize> = BTreeMap::new();
        for label in routes.values() {
            *histogram.entry(label).or_default() += 1;
        }
        eprintln!(
            "{}: {} distinct shapes, route flips {flips}, routes {histogram:?}",
            workload.name(),
            routes.len()
        );
    }
    if ok {
        Ok(())
    } else {
        Err("a range exceeded its bound, an op failed or a route flipped".into())
    }
}
