//! Regenerates the paper's evaluation from the experiment index
//! (`erapid_bench::index::INDEX`): each selected experiment's tables (and
//! CSVs under `ERAPID_RESULTS`), then its claims as the block
//! EXPERIMENTS.md carries. Exits 1 if a claim is outside its band.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin figures -- all
//! cargo run --release -p erapid-bench --bin figures -- fig5 ablation
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin figures -- all   # tables only
//! ```
//!
//! `ERAPID_QUICK` runs quarter-length points on a 3-load axis: a smoke of
//! the tables. The claims are calibrated on the full plan, so a quick run
//! prints none and writes no CSV.

use erapid_bench::index::{Experiment, Results, INDEX};
use erapid_bench::{usage_exit, BenchConfig};

fn main() {
    let bench = BenchConfig::from_env();
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let known = || INDEX.each_ref().map(|e| e.id).join(" ");
    if ids.is_empty() {
        usage_exit(&format!(
            "usage: figures <id>... | all   (ids: {})",
            known()
        ));
    }
    let selected: Vec<&Experiment> = if ids == ["all"] {
        INDEX.iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                INDEX.iter().find(|e| e.id == id).unwrap_or_else(|| {
                    usage_exit(&format!(
                        "unknown experiment {id:?} (want all or: {})",
                        known()
                    ))
                })
            })
            .collect()
    };

    let mut results = Results::default();
    let mut failed = Vec::new();
    for e in selected {
        println!("=== {} ===\n", e.title);
        results.run(&bench, (e.points)(&bench));
        (e.render)(&bench, &results);
        if bench.quick || e.claims.is_empty() {
            continue;
        }
        let (block, all_hold) = e.claim_block(&results);
        println!("{block}");
        if !all_hold {
            failed.push(e.id);
        }
    }
    let missing = results.missing();
    assert!(missing.is_empty(), "looked up but never run: {missing:?}");
    if !failed.is_empty() {
        eprintln!("claims outside their band in: {}", failed.join(" "));
        std::process::exit(1);
    }
}
