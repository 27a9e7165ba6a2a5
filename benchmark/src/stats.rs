//! Estimators: best-of per operation, medians, and the quartile spread the
//! driver computes over repeated runs.

use std::time::Instant;

/// Every time seen per operation, in nanoseconds, and the two estimates
/// the gated metrics are built from. Interference on a shared host only
/// ever adds time, so the fast end of the samples estimates the program and
/// the rest estimates the neighbours.
///
/// * `best(op)`, the single fastest sample, is what an absolute time
///   (`gflops`, `lat_p50_ms`) wants: the least disturbed sample there is.
/// * A ratio of two programs (`vs_gemm`) wants its two sides disturbed
///   alike and averaged, not each side's luckiest sample from a moment of
///   its own: where an operation has two dozen samples a ratio of two
///   minima moved by 3–4 % from run to run. `steady(op)` is the mean of the
///   eight fastest samples, and of no more than the fastest quarter.
///
/// `README.md` has the run-to-run figures for both, and for the cuts of
/// the fast end that were tried and dropped.
#[derive(Clone)]
pub struct BestOf(Vec<Vec<u64>>);

impl BestOf {
    pub fn new(ops: usize) -> Self {
        Self(vec![Vec::new(); ops])
    }

    pub fn record(&mut self, op: usize, nanos: u64) {
        self.0[op].push(nanos);
    }

    /// Best time of `op`; `None` until a sample landed.
    pub fn get(&self, op: usize) -> Option<u64> {
        self.0[op].iter().copied().min()
    }

    /// Mean of the fastest few samples of `op` (see [`fastest_mean`]).
    pub fn steady(&self, op: usize) -> Option<u64> {
        fastest_mean(&self.0[op])
    }

    /// Best times of every operation that has one.
    pub fn all(&self) -> Vec<u64> {
        (0..self.0.len()).filter_map(|op| self.get(op)).collect()
    }

    pub fn sum(&self) -> u64 {
        self.all().iter().sum()
    }
}

/// Most samples `steady(op)` averages.
const FASTEST: usize = 8;

/// Mean of the [`FASTEST`] fastest of `samples`, and of no more than their
/// fastest quarter (rounded up, so one to four samples give their
/// minimum): few samples must not reach into the disturbed ones.
pub fn fastest_mean(samples: &[u64]) -> Option<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let fastest = &v[..v.len().div_ceil(4).min(FASTEST)];
    (!fastest.is_empty()).then(|| fastest.iter().sum::<u64>() / fastest.len() as u64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Nearest-rank quantile.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the exclusive method) — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Time one call, in nanoseconds.
pub fn time_ns(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One untimed warm-up call, then the fastest of `reps` timed calls.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> u64 {
    f();
    (0..reps.max(1)).map(|_| time_ns(&mut f)).min().expect("at least one rep")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_keeps_the_minimum_per_op_and_steady_the_fastest_few() {
        let mut best = BestOf::new(3);
        assert_eq!(best.get(0), None);
        for (op, ns) in [(0, 50), (1, 7), (0, 30), (0, 90), (1, 9)] {
            best.record(op, ns);
        }
        assert_eq!(best.get(0), Some(30));
        assert_eq!(best.get(1), Some(7));
        assert_eq!(best.get(2), None, "an op that never succeeded has no best");
        assert_eq!(best.all(), vec![30, 7]);
        assert_eq!(best.sum(), 37);
        assert_eq!(best.steady(0), Some(30), "up to four samples: the minimum");
        assert_eq!(best.steady(2), None);
        // Eight samples: the two fastest count, disturbed ones do not.
        for ns in [34, 1000, 32, 5000, 60] {
            best.record(0, ns);
        }
        assert_eq!(best.steady(0), Some(31));
        assert_eq!(best.get(0), Some(30));
    }

    #[test]
    fn fastest_mean_takes_a_quarter_and_at_most_eight() {
        assert_eq!(fastest_mean(&[]), None);
        assert_eq!(fastest_mean(&[9, 3, 5, 7]), Some(3));
        assert_eq!(fastest_mean(&[9, 3, 5, 7, 11]), Some(4));
        let twenty_four: Vec<u64> = (1..=24).rev().collect();
        assert_eq!(fastest_mean(&twenty_four), Some(3), "six of 24: (1+…+6)/6 = 3.5");
        let thousand: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(fastest_mean(&thousand), Some(4), "eight of 1000: (1+…+8)/8 = 4.5");
    }

    #[test]
    fn best_of_runs_warmup_plus_reps() {
        let mut calls = 0;
        best_of(4, || calls += 1);
        assert_eq!(calls, 5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_u64(&[10, 30, 20]), 20.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }
}
