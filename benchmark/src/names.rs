//! The metric tables: every name the benchmark may print, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test holds the two in step, and [`Report::to_json`] refuses to print a
//! result that misses one or carries a value that is not a finite number.

use std::collections::BTreeMap;

/// One metric the benchmark reports.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// What a user of the system sees; printed by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    gated("gflops", "GFLOP/s", "higher", 0.25),
    gated("vs_gemm", "ratio", "higher", 0.10),
    gated("lat_p50_ms", "ms", "lower", 0.25),
    gated("peak_rss_mb", "MiB", "lower", 0.05),
    gated("setup_s", "s", "lower", 0.25),
];

/// Single layers, timed from outside around public calls; printed by the
/// traced run. They carry no bound.
pub const PER_LAYER: &[MetricDef] = &[
    // probe: ceilings the benchmark measures with its own code.
    layer("probe.fma_gflops", "GFLOP/s", "higher"),
    layer("probe.stream_gbs", "GB/s", "higher"),
    layer("probe.stream_array_mb", "MiB", "higher"),
    layer("probe.llc_mb", "MiB", "higher"),
    layer("probe.timer_ns", "ns", "lower"),
    // gemm
    layer("gemm.kernel_gflops_f64", "GFLOP/s", "higher"),
    layer("gemm.kernel_gflops_f32", "GFLOP/s", "higher"),
    layer("gemm.kernel_vs_probe", "ratio", "higher"),
    layer("gemm.pack_a_gbs", "GB/s", "higher"),
    layer("gemm.pack_b_gbs", "GB/s", "higher"),
    layer("gemm.pack_a_sum3_gbs", "GB/s", "higher"),
    layer("gemm.pack_b_sum3_gbs", "GB/s", "higher"),
    layer("gemm.pack_vs_stream", "ratio", "higher"),
    layer("gemm.gflops", "GFLOP/s", "higher"),
    layer("gemm.kernel_frac", "frac", "higher"),
    layer("gemm.par_eff2", "ratio", "higher"),
    layer("gemm.pool_allocs", "count", "lower"),
    // core
    layer("core.exec_naive_gflops", "GFLOP/s", "higher"),
    layer("core.exec_ab_gflops", "GFLOP/s", "higher"),
    layer("core.exec_abc_gflops", "GFLOP/s", "higher"),
    layer("core.exec_abc2_gflops", "GFLOP/s", "higher"),
    layer("core.peel_frac", "frac", "lower"),
    layer("core.compose_us", "us", "lower"),
    layer("core.arena_mb", "MiB", "lower"),
    layer("core.err_over_bound", "ratio", "lower"),
    // model
    layer("model.rank_us", "us", "lower"),
    layer("model.pred_err_log2", "log2", "lower"),
    layer("model.regret", "frac", "lower"),
    layer("model.lose_to_gemm", "count", "lower"),
    // sched
    layer("sched.dfs_gflops", "GFLOP/s", "higher"),
    layer("sched.bfs_gflops", "GFLOP/s", "higher"),
    layer("sched.hybrid_gflops", "GFLOP/s", "higher"),
    layer("sched.par_eff2", "ratio", "higher"),
    // tune
    layer("tune.calibrate_ms", "ms", "lower"),
    layer("tune.tau_a_spread", "frac", "lower"),
    layer("tune.tau_b_spread", "frac", "lower"),
    layer("tune.route_flips", "count", "lower"),
    // engine
    layer("engine.decide_cold_us", "us", "lower"),
    layer("engine.overhead_ns", "ns", "lower"),
    layer("engine.overhead_frac", "frac", "lower"),
    layer("engine.batch_speedup", "ratio", "higher"),
    layer("engine.rankings", "count", "lower"),
    layer("engine.plan_compositions", "count", "lower"),
    layer("engine.arena_grows", "count", "lower"),
    // serve
    layer("serve.encode_req_gbs", "GB/s", "higher"),
    layer("serve.decode_req_gbs", "GB/s", "higher"),
    layer("serve.encode_resp_gbs", "GB/s", "higher"),
    layer("serve.decode_resp_gbs", "GB/s", "higher"),
    layer("serve.ping_us", "us", "lower"),
    layer("serve.rtt_overhead_us", "us", "lower"),
    layer("serve.gap_wait_us", "us", "lower"),
    layer("serve.spawn_ms", "ms", "lower"),
    layer("serve.threads", "count", "lower"),
    layer("serve.lat_p50_all_ms", "ms", "lower"),
    layer("serve.lat_p99_all_ms", "ms", "lower"),
    layer("serve.loaded_rps", "1/s", "higher"),
    layer("serve.batch_occupancy", "count", "higher"),
    layer("serve.busy_rejects", "count", "lower"),
    layer("serve.queue_wait_p50_us", "us", "lower"),
    layer("serve.service_p50_us", "us", "lower"),
    // obs
    layer("obs.trace_overhead_frac", "frac", "lower"),
    layer("obs.hist_record_ns", "ns", "lower"),
    // gen
    layer("gen.generated_vs_interp", "ratio", "higher"),
    // ledger
    layer("ledger.unattributed_frac", "frac", "lower"),
    layer("trace.overhead_frac", "frac", "lower"),
];

/// Values measured so far for one of the two tables.
pub struct Report {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self { defs, values: BTreeMap::new() }
    }

    /// Record `name`. A name outside the table is a bug in the harness.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.defs.iter().any(|d| d.name == name), "metric {name} is not in the table");
        self.values.insert(name, value);
    }

    /// `metric <name> <value> <unit>` lines, in table order.
    pub fn print(&self) {
        for d in self.defs {
            if let Some(v) = self.values.get(d.name) {
                println!("metric {} {} {}", d.name, v, d.unit);
            }
        }
    }

    /// The result object the driver reads from the last line of output.
    /// Errors when a metric of the table is missing or not finite, so a
    /// broken probe fails the run instead of printing a partial result.
    pub fn to_json(&self, attempted: u64, failed: u64) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.defs.len());
        for d in self.defs {
            let v = self.values.get(d.name).ok_or_else(|| format!("metric {} missing", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", d.name));
            }
            metrics.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Workload;
    use fmm_core::json;

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn check_table(listed: &json::Value, defs: &[MetricDef]) {
        let listed = listed.as_array().unwrap();
        let names: Vec<&str> =
            listed.iter().map(|m| m.get("name").unwrap().as_str().unwrap()).collect();
        let ours: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, ours, "BENCHMARK.json and the metric table list the same names");
        for (m, d) in listed.iter().zip(defs) {
            assert!(well_formed(d.name), "{}", d.name);
            assert_eq!(m.get("unit").unwrap().as_str().unwrap(), d.unit, "{}", d.name);
            assert_eq!(m.get("better").unwrap().as_str().unwrap(), d.better, "{}", d.name);
            match d.bound {
                Some(b) => {
                    assert_eq!(m.get("bound").unwrap().as_number().unwrap(), b, "{}", d.name)
                }
                None => assert!(m.get("bound").is_err(), "{} carries no bound", d.name),
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let doc = benchmark_json();
        check_table(doc.get("end_to_end").unwrap(), END_TO_END);
        check_table(doc.get("per_layer").unwrap(), PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert!(workloads.iter().all(|w| well_formed(w)));
    }

    #[test]
    fn names_are_unique_across_both_tables() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn a_missing_or_non_finite_metric_refuses_to_print() {
        let mut r = Report::new(END_TO_END);
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        let line = r.to_json(10, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(r.to_json(10, 1).unwrap().starts_with("{\"correct\": false"));
        r.set("gflops", f64::NAN);
        assert!(r.to_json(10, 0).is_err());
        assert!(Report::new(END_TO_END).to_json(1, 0).is_err());
    }
}
