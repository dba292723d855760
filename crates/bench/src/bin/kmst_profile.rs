//! Emits `BENCH_kmst.json`: per-query k-MST observability profiles
//! (pruning, I/O, evaluation counters + wall time) on the 3D R-tree and
//! the TB-tree.
//!
//! Usage: `cargo run -p mst-bench --release --bin kmst_profile --
//! [--smoke] [--objects 250] [--samples 2000] [--queries 50]
//! [--length 0.25] [--k 2] [--seed 7] [--out BENCH_kmst.json]`
//!
//! `--smoke` selects the small CI configuration. The process exits
//! non-zero when [`KmstProfileReport::validate`] finds a dead counter,
//! so CI trips the moment an instrumentation hook falls off.

use mst_bench::args::Args;
use mst_bench::experiments::{kmst_profile, KmstProfileConfig};

fn main() {
    let args = Args::from_env();
    let base = if args.has("smoke") {
        KmstProfileConfig::smoke()
    } else {
        KmstProfileConfig::default()
    };
    let cfg = KmstProfileConfig {
        objects: args.get("objects", base.objects),
        samples: args.get("samples", base.samples),
        queries: args.get("queries", base.queries),
        length: args.get("length", base.length),
        k: args.get("k", base.k),
        seed: args.get("seed", base.seed),
    };
    eprintln!(
        "[kmst_profile] {} objects x {} samples, {} queries, k={}...",
        cfg.objects, cfg.samples, cfg.queries, cfg.k
    );
    let report = kmst_profile(&cfg);
    let out = args.get("out", String::from("BENCH_kmst.json"));
    std::fs::write(&out, report.to_json()).expect("write report");
    eprintln!("[kmst_profile] wrote {out}");
    let failures = report.validate();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[kmst_profile] FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("[kmst_profile] all counters live on every substrate");
}
