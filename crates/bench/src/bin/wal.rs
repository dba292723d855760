//! Emits `BENCH_wal.json`: group-commit ingest throughput of the
//! durable store over real files, and recovery time against log length.
//!
//! Usage: `cargo run -p mst-bench --release --bin wal --
//! [--smoke] [--objects 200] [--samples 200] [--shards 4] [--bursts 40]
//! [--burst-size 16] [--replace-bursts 10] [--rotate-kib 512] [--seed 23]
//! [--out BENCH_wal.json]`
//!
//! `--smoke` selects the small CI configuration. The process exits
//! non-zero when [`WalReport::validate`] detects a group-commit
//! breakdown (fsyncs tracking records instead of bursts), an inexact
//! replay, a recovery that lost or mangled objects or revived deleted
//! ones, a checkpoint that failed to truncate the replay work, or
//! deletes that read more than 10% of a shard's index pages per deleted
//! segment.
//!
//! [`WalReport::validate`]: mst_bench::experiments::WalReport::validate

use mst_bench::args::Args;
use mst_bench::experiments::{wal_bench, WalBenchConfig};

fn main() {
    let args = Args::from_env();
    let base = if args.has("smoke") {
        WalBenchConfig::smoke()
    } else {
        WalBenchConfig::default()
    };
    let cfg = WalBenchConfig {
        objects: args.get("objects", base.objects),
        samples: args.get("samples", base.samples),
        shards: args.get("shards", base.shards),
        bursts: args.get("bursts", base.bursts),
        burst_size: args.get("burst-size", base.burst_size),
        replace_bursts: args.get("replace-bursts", base.replace_bursts),
        rotate_kib: args.get("rotate-kib", base.rotate_kib),
        seed: args.get("seed", base.seed),
    };
    eprintln!(
        "[wal] {} seed objects x {} samples in {} shards, then {} bursts x {} inserts \
         and {} replace bursts (rotate at {} KiB)...",
        cfg.objects,
        cfg.samples,
        cfg.shards,
        cfg.bursts,
        cfg.burst_size,
        cfg.replace_bursts,
        cfg.rotate_kib,
    );
    let report = wal_bench(&cfg);
    let out = args.get("out", String::from("BENCH_wal.json"));
    std::fs::write(&out, report.to_json()).expect("write report");
    eprintln!("[wal] wrote {out}");
    let failures = report.validate();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("[wal] FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "[wal] {:.0} ops/s at {:.1} appends/fsync; {:.1} node reads per deleted segment \
         ({} pages per shard); full recovery {:.1} ms for {} records, {:.1} ms after a \
         checkpoint",
        report.ingest.ops_per_sec,
        report.ingest.appends_per_fsync,
        report.replace.delete_node_reads_per_segment,
        report.replace.shard_pages,
        report.recovery.full_ms,
        report.recovery.replayed_records,
        report.recovery.after_checkpoint_ms,
    );
}
