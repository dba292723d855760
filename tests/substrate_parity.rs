//! Cross-index parity: BFMST over every MBB tree must be bit-identical to
//! the linear-scan ground truth on both seeded datasets (Trucks-like and
//! GSTD synthetic) — the R-tree, TB-tree and STR-tree through the
//! single-index `Query` builder, and the R-tree and TB-tree through the
//! sharded batch executor across 1/4 shards x 1/8 workers.

use mst::datagen::{GstdConfig, TrucksConfig};
use mst::exec::{BatchExecutor, BatchQuery, ShardedDatabase};
use mst::index::{Rtree3D, StrTree, TbTree, TrajectoryIndexWrite};
use mst::search::{scan_kmst, Integration, MovingObjectDatabase, MstMatch, Query, TrajectoryStore};
use mst::trajectory::{TimeInterval, Trajectory, TrajectoryId};

fn trucks_store() -> TrajectoryStore {
    let trajs = TrucksConfig {
        num_trucks: 10,
        ..TrucksConfig::paper_like(5)
    }
    .generate();
    TrajectoryStore::from_trajectories(trajs)
}

fn synthetic_store() -> TrajectoryStore {
    let trajs = GstdConfig {
        num_objects: 10,
        samples_per_object: 150,
        ..GstdConfig::paper_dataset(10, 7)
    }
    .generate();
    TrajectoryStore::from_trajectories(trajs)
}

/// Query workload over a store: a handful of member trajectories clipped
/// to the middle half of their own lifetime.
fn workload(store: &TrajectoryStore, k: usize) -> Vec<(Trajectory, TimeInterval, usize)> {
    (0..4u64)
        .map(|qi| {
            let t = store.get(TrajectoryId(qi)).expect("query trajectory");
            let span = t.time();
            let quarter = span.duration() * 0.25;
            let period = TimeInterval::new(span.start() + quarter, span.end() - quarter)
                .expect("valid period");
            let q = t.clip(&period).expect("clip to period");
            (q, period, k)
        })
        .collect()
}

fn bits(matches: &[MstMatch]) -> Vec<(TrajectoryId, u64)> {
    matches
        .iter()
        .map(|m| (m.traj, m.dissim.to_bits()))
        .collect()
}

fn ground_truth(
    store: &TrajectoryStore,
    workload: &[(Trajectory, TimeInterval, usize)],
) -> Vec<Vec<(TrajectoryId, u64)>> {
    workload
        .iter()
        .map(|(q, period, k)| {
            bits(&scan_kmst(store, q, period, *k, Integration::Exact).expect("scan ground truth"))
        })
        .collect()
}

/// Single-index parity on one dataset and one index kind: scan == BFMST,
/// bit for bit, through the `Query` builder.
fn check_single_index<I: TrajectoryIndexWrite>(name: &str, store: &TrajectoryStore, index: I) {
    let wl = workload(store, 3);
    let truth = ground_truth(store, &wl);

    let mut db = MovingObjectDatabase::new(index);
    for (id, t) in store.iter() {
        db.insert_trajectory(id, t).expect("insert");
    }

    for (i, (q, period, k)) in wl.iter().enumerate() {
        let got = Query::kmst(q)
            .k(*k)
            .during(period)
            .run(&mut db)
            .expect("query");
        assert_eq!(bits(&got), truth[i], "{name} q{i}: index vs scan");
    }
}

type Fleet = Vec<(TrajectoryId, Trajectory)>;

/// Sharded parity on one dataset: every shard count x worker count cell
/// reproduces the scan answer bit-for-bit.
fn check_sharded<I: TrajectoryIndexWrite + Send>(
    name: &str,
    store: &TrajectoryStore,
    build: fn(usize, Fleet) -> mst::exec::Result<ShardedDatabase<I>>,
) {
    let wl = workload(store, 3);
    let truth = ground_truth(store, &wl);
    let fleet: Fleet = store.iter().map(|(id, t)| (id, t.clone())).collect();

    for shards in [1usize, 4] {
        let db = build(shards, fleet.clone()).expect("sharded build");
        for workers in [1usize, 8] {
            let batch: Vec<BatchQuery> = wl
                .iter()
                .map(|(q, period, k)| {
                    BatchQuery::kmst(Query::kmst(q).k(*k).during(period)).expect("kmst spec")
                })
                .collect();
            let outcome = BatchExecutor::new().workers(workers).run(&db, batch);
            assert_eq!(outcome.degraded_count(), 0, "{name} s={shards} w={workers}");
            for (i, want) in truth.iter().enumerate() {
                let got = outcome.outcomes[i].as_ref().expect("query ok");
                let matches = got.answer.as_kmst().expect("kmst answer");
                assert_eq!(
                    &bits(matches),
                    want,
                    "{name} s={shards} w={workers} q{i}: shard parity"
                );
            }
        }
    }
}

fn check_every_tree(name: &str, store: &TrajectoryStore) {
    check_single_index(&format!("{name}/rtree"), store, Rtree3D::new());
    check_single_index(&format!("{name}/tbtree"), store, TbTree::new());
    check_single_index(&format!("{name}/strtree"), store, StrTree::new());
}

fn check_every_sharded_tree(name: &str, store: &TrajectoryStore) {
    check_sharded(&format!("{name}/rtree"), store, |n, fleet| {
        ShardedDatabase::with_rtree(n, fleet)
    });
    check_sharded(&format!("{name}/tbtree"), store, |n, fleet| {
        ShardedDatabase::with_tbtree(n, fleet)
    });
}

#[test]
fn mbb_trees_match_scan_on_trucks() {
    check_every_tree("trucks", &trucks_store());
}

#[test]
fn mbb_trees_match_scan_on_synthetic() {
    check_every_tree("synthetic", &synthetic_store());
}

#[test]
fn sharded_mbb_trees_match_scan_on_trucks() {
    check_every_sharded_tree("trucks", &trucks_store());
}

#[test]
fn sharded_mbb_trees_match_scan_on_synthetic() {
    check_every_sharded_tree("synthetic", &synthetic_store());
}
