//! Batch-execution throughput: queries/second and latency percentiles of
//! the sharded executor across worker and shard counts, on both index
//! substrates — the benchmark face of the `mst-exec` subsystem.
//!
//! Emits `BENCH_throughput.json`. [`ThroughputReport::validate`] is the CI
//! tripwire with three teeth:
//!
//! * **determinism** — every (substrate, shards, threads) point must
//!   return the same answers as every other point of that substrate;
//! * **cooperative pruning liveness** — on multi-shard points, the shared
//!   kth bound must actually prune (`shared_kth_prunes > 0`), and no query
//!   may degrade (no deadlines are configured);
//! * **scaling** — when (and only when) the host has ≥ 4 cores, 4 workers
//!   must beat 1 worker by at least 1.5x on the largest shard count. On
//!   smaller hosts the check is skipped with a loud warning instead of
//!   measuring noise.

use mst_exec::{BatchExecutor, BatchQuery, QueryAnswer, ShardedDatabase};
use mst_search::Query;

use crate::datasets::{DatasetSpec, IndexKind};
use crate::metrics::time_ms;
use crate::workload::{sample_queries, QuerySpec};

/// Configuration of the throughput sweep.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Moving objects in the synthetic dataset.
    pub objects: usize,
    /// Samples per object.
    pub samples: usize,
    /// Queries per batch.
    pub queries: usize,
    /// Query length fraction.
    pub length: f64,
    /// Results per query.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker counts to sweep.
    pub threads: Vec<usize>,
    /// Shard counts to sweep.
    pub shards: Vec<usize>,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            objects: 250,
            samples: 1000,
            queries: 48,
            length: 0.15,
            k: 4,
            seed: 11,
            threads: vec![1, 2, 4, 8],
            shards: vec![1, 2, 4],
        }
    }
}

impl ThroughputConfig {
    /// The CI configuration: 2 threads x 2 shards, small dataset — enough
    /// to prove liveness of every moving part in a debug build.
    pub fn smoke() -> Self {
        ThroughputConfig {
            objects: 60,
            samples: 240,
            queries: 24,
            length: 0.2,
            k: 3,
            seed: 11,
            threads: vec![1, 2],
            shards: vec![1, 2],
        }
    }
}

/// One measured (substrate, shards, threads) point of the sweep.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Which substrate.
    pub kind: IndexKind,
    /// Shard count of the database.
    pub shards: usize,
    /// Worker threads of the executor.
    pub threads: usize,
    /// Whole-batch wall time, milliseconds.
    pub wall_ms: f64,
    /// Queries per second over the batch.
    pub qps: f64,
    /// Median per-query latency, milliseconds (first shard-job start to
    /// last shard-job end).
    pub p50_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
    /// Queries whose deadline fired (must be 0: none is configured).
    pub degraded: usize,
    /// Shared-bound threshold evaluations summed over the batch.
    pub shared_kth_evals: u64,
    /// Prunes attributable to the cross-shard bound alone.
    pub shared_kth_prunes: u64,
    /// Per-query answer fingerprints, for cross-point determinism checks.
    fingerprints: Vec<u64>,
}

/// The whole sweep, plus what the host could actually parallelize.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The configuration that produced the report.
    pub config: ThroughputConfig,
    /// Available hardware parallelism at run time (1 when unknown).
    pub host_parallelism: usize,
    /// All measured points, substrate-major, then shards, then threads.
    pub points: Vec<ThroughputPoint>,
}

/// FNV-1a over the answer's ids and value bits: equal answers, equal
/// fingerprints — cheap to compare across dozens of sweep points.
fn fingerprint(answer: &QueryAnswer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    match answer {
        QueryAnswer::Kmst(matches) => {
            for m in matches {
                eat(m.traj.0);
                eat(m.dissim.to_bits());
            }
        }
        QueryAnswer::Knn(matches) => {
            for m in matches {
                eat(m.traj.0);
                eat(m.distance.to_bits());
            }
        }
        QueryAnswer::Segments(matches) => {
            for m in matches {
                eat(m.entry.traj.0);
                eat(u64::from(m.entry.seq));
                eat(m.distance.to_bits());
            }
        }
        QueryAnswer::Range(entries) => {
            for e in entries {
                eat(e.traj.0);
                eat(u64::from(e.seq));
            }
        }
    }
    h
}

/// Builds the mixed batch: mostly k-MST, every fourth query kNN, all from
/// the standard Table-3-style workload sampler.
fn build_batch(queries: &[QuerySpec], k: usize) -> Vec<BatchQuery> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if i % 4 == 3 {
                BatchQuery::knn(Query::knn(&q.query).k(k).during(&q.period))
            } else {
                BatchQuery::kmst(Query::kmst(&q.query).k(k).during(&q.period))
            }
            .expect("workload queries cover their periods")
        })
        .collect()
}

fn percentile_ms(sorted_us: &[u64], pct: usize) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = (sorted_us.len() - 1) * pct / 100;
    sorted_us[idx] as f64 / 1000.0
}

/// Runs the full sweep on both substrates.
pub fn throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let store = DatasetSpec::Synthetic {
        objects: cfg.objects,
        samples: cfg.samples,
        seed: cfg.seed,
    }
    .build_store();
    let queries = sample_queries(&store, cfg.queries, cfg.length, cfg.seed ^ 0xB5);
    let fleet: Vec<_> = store.iter().map(|(id, t)| (id, t.clone())).collect();

    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut points = Vec::new();
    for kind in IndexKind::all() {
        for &shards in &cfg.shards {
            match kind {
                IndexKind::Rtree3D => {
                    let db = ShardedDatabase::with_rtree(shards, fleet.iter().cloned())
                        .expect("shard build");
                    sweep_threads(cfg, kind, shards, &db, &queries, &mut points);
                }
                IndexKind::TbTree => {
                    let db = ShardedDatabase::with_tbtree(shards, fleet.iter().cloned())
                        .expect("shard build");
                    sweep_threads(cfg, kind, shards, &db, &queries, &mut points);
                }
            }
        }
    }
    ThroughputReport {
        config: cfg.clone(),
        host_parallelism,
        points,
    }
}

fn sweep_threads<I: mst_index::TrajectoryIndexWrite + Send>(
    cfg: &ThroughputConfig,
    kind: IndexKind,
    shards: usize,
    db: &ShardedDatabase<I>,
    queries: &[QuerySpec],
    points: &mut Vec<ThroughputPoint>,
) {
    for &threads in &cfg.threads {
        // Cold buffers per point so thread counts compete fairly.
        db.set_buffer_capacity(None).expect("buffer reset");
        let batch = build_batch(queries, cfg.k);
        let executor = BatchExecutor::new().workers(threads);
        let (wall_ms, outcome) = time_ms(|| executor.run(db, batch));

        let mut latencies_us = Vec::with_capacity(outcome.outcomes.len());
        let mut fingerprints = Vec::with_capacity(outcome.outcomes.len());
        let mut degraded = 0usize;
        for result in &outcome.outcomes {
            let q = result.as_ref().expect("batch query failed");
            latencies_us.push(q.latency_us);
            fingerprints.push(fingerprint(&q.answer));
            if q.degraded {
                degraded += 1;
            }
        }
        latencies_us.sort_unstable();
        let total = outcome.merged_profile();
        points.push(ThroughputPoint {
            kind,
            shards,
            threads,
            wall_ms,
            qps: if wall_ms > 0.0 {
                outcome.outcomes.len() as f64 / (wall_ms / 1000.0)
            } else {
                f64::INFINITY
            },
            p50_ms: percentile_ms(&latencies_us, 50),
            p99_ms: percentile_ms(&latencies_us, 99),
            degraded,
            shared_kth_evals: total.pruning.shared_kth_evals,
            shared_kth_prunes: total.pruning.shared_kth_prunes,
            fingerprints,
        });
        eprintln!(
            "[throughput] {} shards={} threads={}: {:.1} ms, {:.0} qps, p50 {:.2} ms, p99 {:.2} ms",
            kind.label(),
            shards,
            threads,
            wall_ms,
            points.last().map_or(0.0, |p| p.qps),
            points.last().map_or(0.0, |p| p.p50_ms),
            points.last().map_or(0.0, |p| p.p99_ms),
        );
    }
}

impl ThroughputReport {
    /// Renders the report as a JSON document (`BENCH_throughput.json`).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let list = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        let mut out = String::new();
        out.push_str("{\n  \"experiment\": \"throughput\",\n");
        out.push_str(&format!(
            "  \"config\": {{\"objects\":{},\"samples\":{},\"queries\":{},\
             \"length\":{},\"k\":{},\"seed\":{},\"threads\":[{}],\"shards\":[{}]}},\n",
            c.objects,
            c.samples,
            c.queries,
            c.length,
            c.k,
            c.seed,
            list(&c.threads),
            list(&c.shards),
        ));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n  \"points\": [\n",
            self.host_parallelism
        ));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"index\":{:?},\"shards\":{},\"threads\":{},\"wall_ms\":{:.3},\
                 \"qps\":{:.1},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"degraded\":{},\
                 \"shared_kth_evals\":{},\"shared_kth_prunes\":{}}}{}\n",
                p.kind.label(),
                p.shards,
                p.threads,
                p.wall_ms,
                p.qps,
                p.p50_ms,
                p.p99_ms,
                p.degraded,
                p.shared_kth_evals,
                p.shared_kth_prunes,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The CI tripwire (see the module docs). Returns the list of failures
    /// (empty = healthy); speedup on under-provisioned hosts is reported on
    /// stderr, never failed.
    pub fn validate(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for kind in IndexKind::all() {
            let of_kind: Vec<&ThroughputPoint> =
                self.points.iter().filter(|p| p.kind == kind).collect();
            let label = kind.label();
            if of_kind.is_empty() {
                failures.push(format!("{label}: no sweep points measured"));
                continue;
            }

            // Determinism: every point of the substrate answered identically.
            let reference = &of_kind[0].fingerprints;
            for p in &of_kind {
                if &p.fingerprints != reference {
                    failures.push(format!(
                        "{label} shards={} threads={}: answers differ from the \
                         shards={} threads={} baseline — executor nondeterminism",
                        p.shards, p.threads, of_kind[0].shards, of_kind[0].threads
                    ));
                }
                if p.degraded != 0 {
                    failures.push(format!(
                        "{label} shards={} threads={}: {} queries degraded with \
                         no deadline configured",
                        p.shards, p.threads, p.degraded
                    ));
                }
            }

            // Cooperative pruning must be alive on multi-shard points.
            let multi: Vec<&&ThroughputPoint> = of_kind.iter().filter(|p| p.shards >= 2).collect();
            if !multi.is_empty() {
                if multi.iter().map(|p| p.shared_kth_evals).sum::<u64>() == 0 {
                    failures.push(format!(
                        "{label}: the shared kth bound was never even consulted \
                         on multi-shard points — bound sharing is disconnected"
                    ));
                }
                if multi.iter().map(|p| p.shared_kth_prunes).sum::<u64>() == 0 {
                    failures.push(format!(
                        "{label}: the cross-shard bound never pruned anything \
                         on multi-shard points — cooperative pruning is dead"
                    ));
                }
            }

            // Scaling: only meaningful when the host can actually run 4
            // workers in parallel.
            let max_shards = of_kind.iter().map(|p| p.shards).max().unwrap_or(1);
            let wall_at = |threads: usize| {
                of_kind
                    .iter()
                    .find(|p| p.shards == max_shards && p.threads == threads)
                    .map(|p| p.wall_ms)
            };
            if let (Some(t1), Some(t4)) = (wall_at(1), wall_at(4)) {
                let speedup = if t4 > 0.0 { t1 / t4 } else { f64::INFINITY };
                if self.host_parallelism >= 4 {
                    if speedup < 1.5 {
                        failures.push(format!(
                            "{label}: 4 workers are only {speedup:.2}x faster than 1 \
                             on shards={max_shards} (need >= 1.5x on this \
                             {}-core host)",
                            self.host_parallelism
                        ));
                    }
                } else {
                    eprintln!(
                        "[throughput] WARNING: host exposes only {} core(s); \
                         skipping the >=1.5x speedup-at-4-threads check for \
                         {label} (measured {speedup:.2}x)",
                        self.host_parallelism
                    );
                }
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ThroughputConfig {
        ThroughputConfig {
            objects: 24,
            samples: 120,
            queries: 8,
            length: 0.25,
            k: 2,
            seed: 11,
            threads: vec![1, 2],
            shards: vec![1, 2],
        }
    }

    #[test]
    fn smoke_report_is_healthy_and_serializes() {
        let report = throughput(&tiny());
        let failures = report.validate();
        assert!(failures.is_empty(), "{failures:#?}");
        // 2 substrates x 2 shard counts x 2 thread counts.
        assert_eq!(report.points.len(), 8);
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"throughput\""));
        assert!(json.contains("\"shared_kth_prunes\""));
        assert!(json.contains("\"host_parallelism\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn validate_catches_nondeterminism_and_dead_pruning() {
        let mut report = throughput(&tiny());
        // Corrupt one point's fingerprints: determinism must trip.
        report.points[1].fingerprints[0] ^= 1;
        let failures = report.validate();
        assert!(
            failures.iter().any(|f| f.contains("nondeterminism")),
            "{failures:#?}"
        );

        // Zero out the shared-bound counters: liveness must trip.
        let mut report = throughput(&tiny());
        for p in &mut report.points {
            p.shared_kth_prunes = 0;
        }
        let failures = report.validate();
        assert!(
            failures.iter().any(|f| f.contains("cooperative pruning")),
            "{failures:#?}"
        );
    }

    #[test]
    fn percentiles_take_the_right_ranks() {
        let us: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert!((percentile_ms(&us, 50) - 50.0).abs() < 1e-9);
        assert!((percentile_ms(&us, 99) - 99.0).abs() < 1e-9);
        assert_eq!(percentile_ms(&[], 50), 0.0);
    }
}
