//! Durability cost of the always-on store: group-commit ingest
//! throughput through [`mst_wal::DurableDatabase`] over real files, the
//! cost of online deletes, and recovery time as a function of log length.
//!
//! Emits `BENCH_wal.json`. [`WalReport::validate`] is the CI tripwire:
//!
//! * **group commit amortises** — the ingest phase must issue far fewer
//!   fsyncs than appends (a per-record-fsync regression multiplies the
//!   fsync count by the burst size and trips immediately);
//! * **recovery is exact** — reopening the store must replay exactly
//!   the records written after the last checkpoint, rebuild exactly the
//!   ingested object count, and reproduce a spot-checked trajectory
//!   byte-for-byte;
//! * **checkpoints pay off** — a reopen right after a checkpoint must
//!   replay zero records;
//! * **deletes stay cheap** — the replace bursts (each deletes seed
//!   objects, then inserts fresh ones) must read at most 10% of a shard's
//!   pages per deleted segment. R-tree deletion descends only into
//!   children whose box encloses the segment's, so it reads a few paths'
//!   worth of nodes; a delete that scans the tree reads all of them. The
//!   check counts node reads, not time, so it holds on any host. Recovery
//!   replays these deletes too.
//!
//! The phases run in a scratch directory under the system temp dir,
//! removed afterwards; the store is the real [`mst_wal::FileStore`]
//! (fsyncs included), so absolute numbers reflect the host's disk.

use std::path::PathBuf;

use mst_exec::IngestOp;
use mst_index::{Rtree3D, TrajectoryIndex};
use mst_trajectory::TrajectoryId;
use mst_wal::{DurableDatabase, FileStore, WalConfig as WalWriterConfig};

use crate::datasets::DatasetSpec;
use crate::metrics::time_ms;

/// Configuration of the durability benchmark.
#[derive(Debug, Clone)]
pub struct WalBenchConfig {
    /// Seed objects in the store before the ingest phase.
    pub objects: usize,
    /// Samples per object.
    pub samples: usize,
    /// Shards of the durable database.
    pub shards: usize,
    /// Ingest bursts (each is one group commit).
    pub bursts: usize,
    /// Insert operations per burst, and deletes (then inserts) per
    /// replace burst.
    pub burst_size: usize,
    /// Replace bursts after the insert bursts: each commits `burst_size`
    /// deletes of seed objects, then `burst_size` inserts of fresh ones.
    pub replace_bursts: usize,
    /// WAL segment rotation threshold, KiB.
    pub rotate_kib: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WalBenchConfig {
    fn default() -> Self {
        WalBenchConfig {
            objects: 200,
            samples: 200,
            shards: 4,
            bursts: 40,
            burst_size: 16,
            replace_bursts: 10,
            rotate_kib: 512,
            seed: 23,
        }
    }
}

impl WalBenchConfig {
    /// The small CI configuration.
    pub fn smoke() -> Self {
        WalBenchConfig {
            objects: 40,
            samples: 60,
            shards: 2,
            bursts: 8,
            burst_size: 8,
            replace_bursts: 4,
            rotate_kib: 64,
            seed: 23,
        }
    }
}

/// The ingest phase's measurements.
#[derive(Debug, Clone)]
pub struct IngestPhase {
    /// Operations applied (all bursts).
    pub ops: u64,
    /// Wall-clock of the whole phase, milliseconds.
    pub wall_ms: f64,
    /// Operations per second, fsyncs included.
    pub ops_per_sec: f64,
    /// Median burst latency (one group commit), milliseconds.
    pub burst_p50_ms: f64,
    /// 99th-percentile burst latency, milliseconds.
    pub burst_p99_ms: f64,
    /// WAL records appended during the phase.
    pub wal_appends: u64,
    /// Commit fsyncs issued during the phase.
    pub wal_fsyncs: u64,
    /// Segment rotations during the phase.
    pub wal_rotations: u64,
    /// Appends amortised per fsync.
    pub appends_per_fsync: f64,
}

/// The replace phase's measurements: deletes and their cost.
#[derive(Debug, Clone)]
pub struct ReplacePhase {
    /// Objects deleted (and as many inserted).
    pub deleted_objects: u64,
    /// Index segment entries those deletes removed.
    pub deleted_segments: u64,
    /// Logical index node reads of the delete commits, all shards.
    pub delete_node_reads: u64,
    /// `delete_node_reads / deleted_segments`.
    pub delete_node_reads_per_segment: f64,
    /// Mean index pages per shard after the phase.
    pub shard_pages: usize,
    /// Median delete-commit latency (one group commit), milliseconds.
    pub delete_burst_p50_ms: f64,
}

/// The recovery phase's measurements.
#[derive(Debug, Clone)]
pub struct RecoveryPhase {
    /// Records replayed by the long recovery (full post-checkpoint log).
    pub replayed_records: u64,
    /// Wall-clock of the long recovery, milliseconds.
    pub full_ms: f64,
    /// Records replayed right after a checkpoint (must be 0).
    pub replayed_after_checkpoint: u64,
    /// Wall-clock of the post-checkpoint recovery, milliseconds.
    pub after_checkpoint_ms: f64,
    /// Objects in the recovered database.
    pub recovered_objects: u64,
    /// The spot-checked trajectory survived byte-for-byte.
    pub spot_check_identical: bool,
    /// No deleted object came back.
    pub deleted_stay_deleted: bool,
}

/// The full durability report (`BENCH_wal.json`).
#[derive(Debug, Clone)]
pub struct WalReport {
    /// The configuration that produced this report.
    pub config: WalBenchConfig,
    /// Milliseconds to seed the store through the WAL.
    pub seed_ms: f64,
    /// The online-ingest phase.
    pub ingest: IngestPhase,
    /// The replace (delete + insert) phase.
    pub replace: ReplacePhase,
    /// The recovery sweep.
    pub recovery: RecoveryPhase,
}

fn percentile(sorted_ms: &[f64], pct: usize) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    sorted_ms[(sorted_ms.len() - 1) * pct / 100]
}

/// Logical node reads and pages of the database's indexes, summed over
/// its shards.
fn index_totals(db: &DurableDatabase<Rtree3D, FileStore>) -> (u64, usize) {
    db.database()
        .shards()
        .iter()
        .map(|shard| {
            let stats = shard
                .index()
                .with(|index| index.stats())
                .expect("index lock");
            (stats.node_reads, stats.pages)
        })
        .fold((0, 0), |(reads, pages), (r, p)| (reads + r, pages + p))
}

/// Runs the durability benchmark in a scratch directory.
pub fn wal_bench(cfg: &WalBenchConfig) -> WalReport {
    assert!(
        cfg.replace_bursts * cfg.burst_size <= cfg.objects,
        "replace bursts delete seed objects: need at least {} of them",
        cfg.replace_bursts * cfg.burst_size
    );
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mst-bench-wal-{}-{}", std::process::id(), cfg.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_config = WalWriterConfig {
        rotate_bytes: cfg.rotate_kib * 1024,
    };

    // Seed fleet + a disjoint pool of trajectories to ingest online.
    let inserted = cfg.bursts * cfg.burst_size;
    let replaced = cfg.replace_bursts * cfg.burst_size;
    let store = DatasetSpec::Synthetic {
        objects: cfg.objects + inserted + replaced,
        samples: cfg.samples,
        seed: cfg.seed,
    }
    .build_store();
    let mut all: Vec<(TrajectoryId, mst_trajectory::Trajectory)> =
        store.iter().map(|(id, t)| (id, t.clone())).collect();
    all.sort_by_key(|(id, _)| id.0);
    let (seed_fleet, fresh) = all.split_at(cfg.objects);
    let (pool, replacements) = fresh.split_at(inserted);

    let file_store = FileStore::open(&dir).expect("open scratch store");
    let mut db =
        DurableDatabase::<Rtree3D, FileStore>::create(file_store, wal_config.clone(), cfg.shards)
            .expect("create durable store");
    let seed_ops: Vec<IngestOp> = seed_fleet
        .iter()
        .map(|(id, t)| IngestOp::Insert {
            id: *id,
            trajectory: t.clone(),
        })
        .collect();
    let (seed_ms, _) = time_ms(|| {
        db.apply(&seed_ops).expect("seed store");
        db.checkpoint().expect("seed checkpoint");
    });

    // Ingest phase: each burst is one apply_independent call — one
    // validation sweep, one group-commit fsync.
    let before = db.stats();
    let mut burst_ms = Vec::with_capacity(cfg.bursts);
    let (wall_ms, _) = time_ms(|| {
        for burst in pool.chunks(cfg.burst_size) {
            let ops: Vec<IngestOp> = burst
                .iter()
                .map(|(id, t)| IngestOp::Insert {
                    id: *id,
                    trajectory: t.clone(),
                })
                .collect();
            let (ms, results) = time_ms(|| db.apply_independent(&ops).expect("ingest burst"));
            assert!(
                results.iter().all(|r| matches!(r, Ok((_, true)))),
                "fresh ids always apply"
            );
            burst_ms.push(ms);
        }
    });

    // Replace phase: each burst commits deletes of seed objects (counting
    // the index node reads they cost), then inserts as many fresh ones.
    let doomed = &seed_fleet[..replaced];
    let mut delete_ms = Vec::with_capacity(cfg.replace_bursts);
    let mut delete_node_reads = 0;
    let replace_ms = time_ms(|| {
        for (gone, new) in doomed
            .chunks(cfg.burst_size)
            .zip(replacements.chunks(cfg.burst_size))
        {
            let deletes: Vec<IngestOp> = gone
                .iter()
                .map(|(id, _)| IngestOp::Delete { id: *id })
                .collect();
            let (reads_before, _) = index_totals(&db);
            let (ms, results) = time_ms(|| db.apply_independent(&deletes).expect("delete burst"));
            delete_node_reads += index_totals(&db).0 - reads_before;
            assert!(
                results.iter().all(|r| matches!(r, Ok((_, true)))),
                "seed ids always delete"
            );
            delete_ms.push(ms);
            let inserts: Vec<IngestOp> = new
                .iter()
                .map(|(id, t)| IngestOp::Insert {
                    id: *id,
                    trajectory: t.clone(),
                })
                .collect();
            let results = db.apply_independent(&inserts).expect("replace inserts");
            assert!(
                results.iter().all(|r| matches!(r, Ok((_, true)))),
                "fresh ids always apply"
            );
        }
    })
    .0;
    let after = db.stats();
    burst_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    delete_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let deleted_segments: u64 = doomed.iter().map(|(_, t)| t.num_segments() as u64).sum();
    let replace = ReplacePhase {
        deleted_objects: replaced as u64,
        deleted_segments,
        delete_node_reads,
        delete_node_reads_per_segment: delete_node_reads as f64 / (deleted_segments.max(1)) as f64,
        shard_pages: index_totals(&db).1 / cfg.shards.max(1),
        delete_burst_p50_ms: percentile(&delete_ms, 50),
    };
    let ops = (inserted + 2 * replaced) as u64;
    let fsyncs = after.wal_fsyncs - before.wal_fsyncs;
    let wall_ms = wall_ms + replace_ms;
    let ingest = IngestPhase {
        ops,
        wall_ms,
        ops_per_sec: ops as f64 / (wall_ms / 1e3).max(1e-9),
        burst_p50_ms: percentile(&burst_ms, 50),
        burst_p99_ms: percentile(&burst_ms, 99),
        wal_appends: after.wal_appends - before.wal_appends,
        wal_fsyncs: fsyncs,
        wal_rotations: after.wal_rotations - before.wal_rotations,
        appends_per_fsync: (after.wal_appends - before.wal_appends) as f64 / (fsyncs.max(1)) as f64,
    };

    // Recovery sweep: reopen with the whole ingest phase in the log,
    // then checkpoint and reopen again (nothing left to replay).
    let spot_id = pool[pool.len() / 2].0;
    let spot_points = pool[pool.len() / 2].1.points().to_vec();
    drop(db);
    let (full_ms, mut recovered) = time_ms(|| {
        DurableDatabase::<Rtree3D, FileStore>::open(
            FileStore::open(&dir).expect("reopen store"),
            wal_config.clone(),
        )
        .expect("recover")
    });
    let replayed_records = recovered.stats().replayed_records;
    let recovered_objects = recovered.database().num_objects() as u64;
    let spot_check_identical = recovered
        .database()
        .trajectory(spot_id)
        .is_some_and(|t| t.points() == spot_points.as_slice());
    let deleted_stay_deleted = doomed
        .iter()
        .all(|(id, _)| recovered.database().trajectory(*id).is_none());
    recovered.checkpoint().expect("post-ingest checkpoint");
    drop(recovered);
    let (after_checkpoint_ms, reopened) = time_ms(|| {
        DurableDatabase::<Rtree3D, FileStore>::open(
            FileStore::open(&dir).expect("reopen store"),
            wal_config.clone(),
        )
        .expect("recover from checkpoint")
    });
    let replayed_after_checkpoint = reopened.stats().replayed_records;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    WalReport {
        config: cfg.clone(),
        seed_ms,
        ingest,
        replace,
        recovery: RecoveryPhase {
            replayed_records,
            full_ms,
            replayed_after_checkpoint,
            after_checkpoint_ms,
            recovered_objects,
            spot_check_identical,
            deleted_stay_deleted,
        },
    }
}

impl WalReport {
    /// Renders the report as a JSON document (`BENCH_wal.json`).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let i = &self.ingest;
        let d = &self.replace;
        let r = &self.recovery;
        let mut out = String::new();
        out.push_str("{\n  \"experiment\": \"wal\",\n");
        out.push_str(&format!(
            "  \"config\": {{\"objects\":{},\"samples\":{},\"shards\":{},\"bursts\":{},\
             \"burst_size\":{},\"replace_bursts\":{},\"rotate_kib\":{},\"seed\":{}}},\n",
            c.objects,
            c.samples,
            c.shards,
            c.bursts,
            c.burst_size,
            c.replace_bursts,
            c.rotate_kib,
            c.seed,
        ));
        out.push_str(&format!("  \"seed_ms\": {:.3},\n", self.seed_ms));
        out.push_str(&format!(
            "  \"ingest\": {{\"ops\":{},\"wall_ms\":{:.3},\"ops_per_sec\":{:.1},\
             \"burst_p50_ms\":{:.3},\"burst_p99_ms\":{:.3},\"wal_appends\":{},\
             \"wal_fsyncs\":{},\"wal_rotations\":{},\"appends_per_fsync\":{:.2}}},\n",
            i.ops,
            i.wall_ms,
            i.ops_per_sec,
            i.burst_p50_ms,
            i.burst_p99_ms,
            i.wal_appends,
            i.wal_fsyncs,
            i.wal_rotations,
            i.appends_per_fsync,
        ));
        out.push_str(&format!(
            "  \"replace\": {{\"deleted_objects\":{},\"deleted_segments\":{},\
             \"delete_node_reads\":{},\"delete_node_reads_per_segment\":{:.2},\
             \"shard_pages\":{},\"delete_burst_p50_ms\":{:.3}}},\n",
            d.deleted_objects,
            d.deleted_segments,
            d.delete_node_reads,
            d.delete_node_reads_per_segment,
            d.shard_pages,
            d.delete_burst_p50_ms,
        ));
        out.push_str(&format!(
            "  \"recovery\": {{\"replayed_records\":{},\"full_ms\":{:.3},\
             \"replayed_after_checkpoint\":{},\"after_checkpoint_ms\":{:.3},\
             \"recovered_objects\":{},\"spot_check_identical\":{},\
             \"deleted_stay_deleted\":{}}}\n",
            r.replayed_records,
            r.full_ms,
            r.replayed_after_checkpoint,
            r.after_checkpoint_ms,
            r.recovered_objects,
            r.spot_check_identical,
            r.deleted_stay_deleted,
        ));
        out.push_str("}\n");
        out
    }

    /// The CI tripwire (see the module docs). Returns the list of
    /// failures (empty = healthy).
    pub fn validate(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let c = &self.config;
        let i = &self.ingest;
        let d = &self.replace;
        let r = &self.recovery;
        let expected_ops = ((c.bursts + 2 * c.replace_bursts) * c.burst_size) as u64;
        if i.ops != expected_ops || i.wal_appends != expected_ops {
            failures.push(format!(
                "ingest accounting: {} ops / {} appends, expected {expected_ops} of both",
                i.ops, i.wal_appends,
            ));
        }
        // One group commit per burst (a replace burst commits twice:
        // deletes, then inserts), plus at most one extra fsync per
        // rotation. A per-record-fsync regression lands far outside this.
        let commits = (c.bursts + 2 * c.replace_bursts) as u64;
        let fsync_budget = commits + i.wal_rotations + 1;
        if i.wal_fsyncs > fsync_budget {
            failures.push(format!(
                "group commit broke down: {} fsyncs for {commits} commits (budget {fsync_budget})",
                i.wal_fsyncs,
            ));
        }
        // A delete finds each segment through the boxes that enclose it;
        // reading a tenth of a shard per segment means it is scanning.
        let read_budget = 0.10 * d.shard_pages as f64;
        if d.deleted_segments == 0 || d.delete_node_reads_per_segment > read_budget {
            failures.push(format!(
                "deletes read {:.1} index nodes per segment over {} segments, budget \
                 {read_budget:.1} (10% of a shard's {} pages)",
                d.delete_node_reads_per_segment, d.deleted_segments, d.shard_pages,
            ));
        }
        if r.replayed_records != expected_ops {
            failures.push(format!(
                "recovery replayed {} records, expected exactly the {expected_ops} \
                 post-checkpoint writes",
                r.replayed_records,
            ));
        }
        if r.replayed_after_checkpoint != 0 {
            failures.push(format!(
                "a reopen right after a checkpoint replayed {} records, expected 0",
                r.replayed_after_checkpoint,
            ));
        }
        let expected_objects = (c.objects + c.bursts * c.burst_size) as u64;
        if r.recovered_objects != expected_objects {
            failures.push(format!(
                "recovery rebuilt {} objects, expected {expected_objects}",
                r.recovered_objects,
            ));
        }
        if !r.spot_check_identical {
            failures.push("the spot-checked trajectory did not survive byte-for-byte".into());
        }
        if !r.deleted_stay_deleted {
            failures.push("a deleted object came back after recovery".into());
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_healthy_and_serialises() {
        // Shards of ~130 pages: the delete budget (10% of a shard) must
        // exceed a root-to-leaf path with room to spare.
        let report = wal_bench(&WalBenchConfig {
            objects: 10,
            samples: 400,
            shards: 2,
            bursts: 3,
            burst_size: 4,
            replace_bursts: 2,
            rotate_kib: 16,
            seed: 5,
        });
        assert_eq!(report.validate(), Vec::<String>::new());
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"wal\""));
        assert!(json.contains("\"replayed_records\":28"));
        assert!(json.contains("\"recovered_objects\":22"));
        assert!(json.contains("\"deleted_objects\":8"));
        assert!(json.contains("\"deleted_stay_deleted\":true"));
    }
}
