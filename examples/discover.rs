//! Discover a fast matrix multiplication algorithm from scratch: run a
//! search campaign on `<2,2,2>` at rank 7 and verify that the result is a
//! genuine Strassen-class algorithm.
//!
//! ```sh
//! cargo run --release --example discover                   # <2,2,2> rank 7
//! cargo run --release --example discover 2 2 3 11          # custom target
//! cargo run --release --example discover 2 2 3 11 --save  # ... into the registry
//! ```
//!
//! `--save` writes a find to `crates/core/src/registry/data/` under its
//! canonical name (`mkn223_r11.json`); add it to `DATA` in
//! `crates/core/src/registry/discovered.rs` to embed it.

use fmm_search::{search, SearchConfig};
use std::path::Path;
use std::time::Duration;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let save = args.iter().any(|a| a == "--save");
    args.retain(|a| a != "--save");
    let (m, k, n, rank) = if args.len() >= 4 {
        (
            args[0].parse().unwrap(),
            args[1].parse().unwrap(),
            args[2].parse().unwrap(),
            args[3].parse().unwrap(),
        )
    } else {
        (2, 2, 2, 7)
    };

    println!("searching for a <{m},{k},{n}> algorithm of rank {rank}...");
    let out =
        search(&SearchConfig { dims: (m, k, n), rank, budget: Duration::from_secs(60), seed: 1 });

    match out.algorithm {
        Some(algo) => {
            println!(
                "found after {} restart(s) in {:.1}s: {algo}",
                out.restarts_run,
                out.elapsed.as_secs_f64()
            );
            println!("\nU (A-side combinations), one column per product:");
            for i in 0..algo.u().rows() {
                let row: Vec<String> =
                    (0..algo.rank()).map(|r| format!("{:>5}", algo.u().at(i, r))).collect();
                println!("  {}", row.join(""));
            }
            println!("\nverified against all Brent equations ✓");
            println!("registry JSON:\n{}", &algo.to_json()[..200.min(algo.to_json().len())]);
            if save {
                let data =
                    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/registry/data");
                let path = data.join(fmm_search::io::registry_file_name(&algo));
                fmm_search::io::save(&algo, &path).unwrap();
                println!("saved {}", path.display());
            }
        }
        None => {
            println!(
                "not found within budget: best rank {} over GF(2) in {} restarts ({:.1}s)",
                out.best_rank,
                out.restarts_run,
                out.elapsed.as_secs_f64()
            );
            println!("(larger targets need longer campaigns; see fmm-search docs)");
        }
    }
}
