//! Per-query observability profiles of the k-MST search — the benchmark
//! face of the `QueryProfile` subsystem.
//!
//! Runs a seeded GSTD k-MST workload (BFMST) against the 3D R-tree and
//! the TB-tree with a [`QueryProfile`] attached to every query, and emits
//! the result as `BENCH_kmst.json`: per-query wall time plus every counter
//! the metrics layer collects (heap traffic, node accesses by level,
//! buffer hits and misses, bytes decoded, exact vs trapezoid piece
//! evaluations, and the per-heuristic pruning ledger).
//! [`KmstProfileReport::validate`] is the CI tripwire: an all-zero counter
//! means an instrumentation hook fell off. Every substrate must show the
//! paper's MINDIST-family heuristics firing.

use mst_index::TrajectoryIndex;
use mst_search::{bfmst_search, MstConfig, NoShare, QueryProfile};

use crate::datasets::{build_rtree, build_tbtree, DatasetSpec, IndexKind};
use crate::metrics::time_ms;
use crate::workload::{sample_queries, QuerySpec};

/// Configuration of the profiling run.
#[derive(Debug, Clone)]
pub struct KmstProfileConfig {
    /// Moving objects in the synthetic dataset.
    pub objects: usize,
    /// Samples per object.
    pub samples: usize,
    /// Number of profiled queries per substrate.
    pub queries: usize,
    /// Query length fraction.
    pub length: f64,
    /// Results per query.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KmstProfileConfig {
    fn default() -> Self {
        KmstProfileConfig {
            objects: 250,
            samples: 2000,
            queries: 50,
            length: 0.25,
            k: 2,
            seed: 7,
        }
    }
}

impl KmstProfileConfig {
    /// The CI configuration: small enough for a debug-build smoke run,
    /// large enough that every pruning heuristic demonstrably fires.
    pub fn smoke() -> Self {
        KmstProfileConfig {
            objects: 80,
            samples: 400,
            queries: 12,
            length: 0.25,
            k: 2,
            seed: 7,
        }
    }
}

/// One profiled query.
#[derive(Debug, Clone)]
pub struct ProfiledQuery {
    /// Index of the query within the workload.
    pub query: usize,
    /// Wall-clock time of the search, milliseconds.
    pub time_ms: f64,
    /// Number of matches returned.
    pub matches: usize,
    /// Whether heuristic 2 terminated the traversal early.
    pub terminated_early: bool,
    /// The full observability profile.
    pub profile: QueryProfile,
}

/// All profiled queries of one index substrate.
#[derive(Debug, Clone)]
pub struct SubstrateProfile {
    /// Which substrate.
    pub kind: IndexKind,
    /// Index pages the substrate occupied.
    pub pages: usize,
    /// The per-query rows, in workload order.
    pub rows: Vec<ProfiledQuery>,
}

/// The whole report: every substrate over the same workload.
#[derive(Debug, Clone)]
pub struct KmstProfileReport {
    /// The configuration that produced the report.
    pub config: KmstProfileConfig,
    /// One entry per substrate, in [`IndexKind::all`] order.
    pub substrates: Vec<SubstrateProfile>,
}

/// Runs the profiled workload on every substrate.
pub fn kmst_profile(cfg: &KmstProfileConfig) -> KmstProfileReport {
    let store = DatasetSpec::Synthetic {
        objects: cfg.objects,
        samples: cfg.samples,
        seed: cfg.seed,
    }
    .build_store();
    let queries = sample_queries(&store, cfg.queries, cfg.length, cfg.seed ^ 0xC0);

    let mut substrates = Vec::new();
    for kind in IndexKind::all() {
        let rows = match kind {
            IndexKind::Rtree3D => {
                let mut idx = build_rtree(&store);
                profile_workload(&mut idx, &store, &queries, cfg.k)
            }
            IndexKind::TbTree => {
                let mut idx = build_tbtree(&store);
                profile_workload(&mut idx, &store, &queries, cfg.k)
            }
        };
        substrates.push(SubstrateProfile {
            kind,
            pages: rows.1,
            rows: rows.0,
        });
    }
    KmstProfileReport {
        config: cfg.clone(),
        substrates,
    }
}

/// Runs the query set against one substrate, one fresh profile per query.
/// The buffer is cleared first, so query 0 faults every page in (misses)
/// while later queries re-read the upper tree levels from the buffer
/// (hits).
fn profile_workload<I: TrajectoryIndex>(
    index: &mut I,
    store: &mst_search::TrajectoryStore,
    queries: &[QuerySpec],
    k: usize,
) -> (Vec<ProfiledQuery>, usize) {
    index.clear_buffer().expect("buffer clear");
    index.reset_stats();
    let mut rows = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let mut profile = QueryProfile::new();
        let (ms, report) = time_ms(|| {
            bfmst_search(
                index,
                store,
                &q.query,
                &q.period,
                &MstConfig::k(k),
                &NoShare,
                &mut profile,
            )
            .expect("profiled query")
        });
        rows.push(ProfiledQuery {
            query: i,
            time_ms: ms,
            matches: report.matches.len(),
            terminated_early: report.terminated_early,
            profile,
        });
    }
    (rows, index.num_pages())
}

// ---------------------------------------------------------------------------
// JSON emission (hand-rolled: the workspace is dependency-free)
// ---------------------------------------------------------------------------

fn profile_json(p: &QueryProfile) -> String {
    let levels: Vec<String> = p.node_accesses.iter().map(u64::to_string).collect();
    format!(
        concat!(
            "{{\"heap_pushes\":{},\"heap_pops\":{},\"node_accesses_by_level\":[{}],",
            "\"buffer_hits\":{},\"buffer_misses\":{},\"bytes_decoded\":{},",
            "\"exact_piece_evals\":{},\"trapezoid_piece_evals\":{},",
            "\"exact_recomputations\":{},",
            "\"candidates\":{{\"seen\":{},\"refined\":{},\"pruned\":{},\"pending\":{}}},",
            "\"pruning\":{{\"ldd_evals\":{},\"opt_dissim_evals\":{},\"opt_dissim_prunes\":{},",
            "\"pes_dissim_evals\":{},\"pes_dissim_tightenings\":{},",
            "\"opt_dissim_inc_evals\":{},\"opt_dissim_inc_prunes\":{},",
            "\"min_dissim_inc_evals\":{},\"min_dissim_inc_prunes\":{}}},",
            "\"early_terminations\":{}}}"
        ),
        p.heap_pushes,
        p.heap_pops,
        levels.join(","),
        p.buffer_hits,
        p.buffer_misses,
        p.bytes_decoded,
        p.exact_piece_evals,
        p.trapezoid_piece_evals,
        p.exact_recomputations,
        p.candidates.seen,
        p.candidates.refined,
        p.candidates.pruned,
        p.candidates.pending,
        p.pruning.ldd_evals,
        p.pruning.opt_dissim_evals,
        p.pruning.opt_dissim_prunes,
        p.pruning.pes_dissim_evals,
        p.pruning.pes_dissim_tightenings,
        p.pruning.opt_dissim_inc_evals,
        p.pruning.opt_dissim_inc_prunes,
        p.pruning.min_dissim_inc_evals,
        p.pruning.min_dissim_inc_prunes,
        p.early_terminations,
    )
}

impl KmstProfileReport {
    /// Renders the report as a JSON document (`BENCH_kmst.json`).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        out.push_str("{\n  \"experiment\": \"kmst_profile\",\n");
        out.push_str(&format!(
            "  \"config\": {{\"objects\":{},\"samples\":{},\"queries\":{},\
             \"length\":{},\"k\":{},\"seed\":{}}},\n",
            c.objects, c.samples, c.queries, c.length, c.k, c.seed
        ));
        out.push_str("  \"substrates\": [\n");
        for (si, s) in self.substrates.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"index\":{:?},\"pages\":{},\"queries\":[\n",
                s.kind.label(),
                s.pages
            ));
            for (qi, row) in s.rows.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"query\":{},\"time_ms\":{:.3},\"matches\":{},\
                     \"terminated_early\":{},\"profile\":{}}}{}\n",
                    row.query,
                    row.time_ms,
                    row.matches,
                    row.terminated_early,
                    profile_json(&row.profile),
                    if qi + 1 < s.rows.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if si + 1 < self.substrates.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The CI tripwire: per substrate, every counter class the workload is
    /// designed to exercise must be non-zero when summed over the query
    /// set, and every per-query candidate ledger must balance. Returns the
    /// list of failures (empty = healthy).
    pub fn validate(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for s in &self.substrates {
            let label = s.kind.label();
            let mut total = QueryProfile::new();
            for row in &s.rows {
                if !row.profile.is_consistent() {
                    failures.push(format!(
                        "{label} query {}: candidate ledger does not balance \
                         (seen {} != pruned {} + refined {} + pending {})",
                        row.query,
                        row.profile.candidates.seen,
                        row.profile.candidates.pruned,
                        row.profile.candidates.refined,
                        row.profile.candidates.pending,
                    ));
                }
                total.merge(&row.profile);
            }
            let checks = [
                ("heap_pushes", total.heap_pushes),
                ("heap_pops", total.heap_pops),
                ("node_accesses", total.nodes_accessed()),
                ("buffer_hits", total.buffer_hits),
                ("buffer_misses", total.buffer_misses),
                ("bytes_decoded", total.bytes_decoded),
                ("piece_evals", total.piece_evals()),
                ("ldd_evals", total.pruning.ldd_evals),
                ("opt_dissim_evals", total.pruning.opt_dissim_evals),
                ("pes_dissim_evals", total.pruning.pes_dissim_evals),
                ("opt_dissim_inc_evals", total.pruning.opt_dissim_inc_evals),
                ("min_dissim_inc_evals", total.pruning.min_dissim_inc_evals),
            ];
            for (name, value) in checks {
                if value == 0 {
                    failures.push(format!(
                        "{label}: counter `{name}` is zero over the whole \
                         workload — an instrumentation hook is disconnected"
                    ));
                }
            }
            let prunes = total.candidates.pruned
                + total.pruning.opt_dissim_prunes
                + total.pruning.opt_dissim_inc_prunes
                + total.pruning.min_dissim_inc_prunes;
            if prunes == 0 {
                failures.push(format!(
                    "{label}: no candidate or node was ever pruned — the \
                     heuristics are not engaging on this workload"
                ));
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_healthy_and_serializes() {
        let report = kmst_profile(&KmstProfileConfig::smoke());
        let failures = report.validate();
        assert!(failures.is_empty(), "{failures:#?}");
        assert_eq!(report.substrates.len(), 2);
        for s in &report.substrates {
            assert_eq!(s.rows.len(), report.config.queries);
        }
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"kmst_profile\""));
        assert!(json.contains("\"3D R-tree\""));
        assert!(json.contains("\"TB-tree\""));
        assert!(json.contains("\"min_dissim_inc_evals\""));
        // Crude structural sanity: balanced braces and brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn validate_catches_a_dead_counter() {
        let mut report = kmst_profile(&KmstProfileConfig {
            objects: 15,
            samples: 120,
            queries: 4,
            ..KmstProfileConfig::smoke()
        });
        for s in &mut report.substrates {
            for row in &mut s.rows {
                row.profile.heap_pushes = 0;
            }
        }
        let failures = report.validate();
        assert!(
            failures.iter().any(|f| f.contains("heap_pushes")),
            "{failures:#?}"
        );
    }
}
