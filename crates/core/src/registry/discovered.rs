//! Algorithms discovered by the `fmm-search` flip-graph search.
//!
//! Each JSON file under `registry/data/` serializes one
//! [`crate::algorithm::FmmAlgorithm`]. Files are embedded at compile time
//! and **re-verified against the Brent equations at load**, so a corrupted
//! or mis-discovered file cannot enter the registry: loading panics with the
//! offending file name, turning data corruption into a loud CI failure
//! (exercised by unit tests).

use crate::algorithm::FmmAlgorithm;

/// `(file name, JSON contents)` pairs embedded from `registry/data/`.
///
/// New discoveries are added here after `fmm-search` finds and verifies
/// them (`cargo run --release --example discover -- m k n R --save` writes
/// the file).
const DATA: &[(&str, &str)] = &[("mkn223_r11.json", include_str!("data/mkn223_r11.json"))];

/// Deserialize and re-verify every embedded algorithm.
pub fn discovered_algorithms() -> Vec<FmmAlgorithm> {
    DATA.iter()
        .map(|(name, json)| {
            FmmAlgorithm::from_json(json)
                .unwrap_or_else(|e| panic!("embedded algorithm {name} failed verification: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_embedded_algorithms_verify() {
        for algo in discovered_algorithms() {
            // from_json re-verifies; reaching here means all passed.
            assert!(algo.rank() > 0);
            assert!(algo.rank() <= algo.classical_rank());
        }
    }

    #[test]
    fn embedded_set_contains_the_223_seed() {
        let algos = discovered_algorithms();
        assert!(algos.iter().any(|a| a.dims() == (2, 2, 3) && a.rank() == 11));
    }
}
