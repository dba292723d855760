//! Index shootout (3D R-tree / bulk R-tree / STR-tree / TB-tree) over
//! the same insertion stream and k-MST workload.
//!
//! Usage: `cargo run -p mst-bench --release --bin index_comparison --
//! [--objects 250] [--samples 2000] [--queries 50] [--length 0.25]
//! [--k 1] [--seed 7] [--csv results]`
//!
//! Exits non-zero when any index's answers disagree with the exact
//! linear scan, so CI can use a small configuration as a cross-index
//! correctness smoke.

use mst_bench::args::Args;
use mst_bench::experiments::{index_comparison, IndexComparisonConfig};

fn main() {
    let args = Args::from_env();
    let cfg = IndexComparisonConfig {
        objects: args.get("objects", 250),
        samples: args.get("samples", 2000),
        queries: args.get("queries", 50),
        length: args.get("length", 0.25),
        k: args.get("k", 1),
        seed: args.get("seed", 7),
    };
    eprintln!(
        "[index_comparison] {} objects, {} queries...",
        cfg.objects, cfg.queries
    );
    let table = index_comparison(&cfg);
    let dir = args
        .has("csv")
        .then(|| std::path::PathBuf::from(args.get("csv", String::from("results"))));
    table.emit(dir.as_deref());
    let disagreeing: Vec<String> = table
        .to_csv()
        .lines()
        .skip(1)
        .filter(|line| line.rsplit(',').next() != Some("true"))
        .map(|line| line.split(',').next().unwrap_or(line).to_string())
        .collect();
    if !disagreeing.is_empty() {
        eprintln!("[index_comparison] FAILED: {disagreeing:?} disagree with the exact scan");
        std::process::exit(1);
    }
    eprintln!("[index_comparison] every index agrees with the exact scan");
}
