//! k-MST over a fleet where some trajectories cover the query period only
//! in part. Such a trajectory can never be a match (DISSIM is defined over
//! the whole period), so it must not influence the search either: the
//! pessimistic bound of a trajectory that never completes may not tighten
//! the k-th threshold. Answers must stay bit-identical to the exact scan,
//! which only considers trajectories covering the period, through the
//! single-index `Query` builder and the sharded executor.

use mst::exec::{BatchExecutor, BatchQuery, ShardedDatabase};
use mst::search::{scan_kmst, Integration, MovingObjectDatabase, MstMatch, Query, TrajectoryStore};
use mst::trajectory::{SamplePoint, TimeInterval, Trajectory, TrajectoryId};

/// A lane at height `y` moving along x at unit speed, sampled once per
/// time unit over `[t0, t1]`.
fn lane(y: f64, t0: u32, t1: u32) -> Trajectory {
    Trajectory::new(
        (t0..=t1)
            .map(|t| SamplePoint::new(f64::from(t), f64::from(t), y))
            .collect(),
    )
    .expect("increasing timestamps")
}

/// Six full-lifetime lanes far from the query, plus partly covering lanes
/// hugging it: one that ends early, one that starts late, and one that
/// covers the middle only.
fn fleet() -> Vec<(TrajectoryId, Trajectory)> {
    let mut fleet: Vec<(TrajectoryId, Trajectory)> = (0..6u64)
        .map(|i| (TrajectoryId(i), lane(40.0 + 8.0 * i as f64, 0, 100)))
        .collect();
    fleet.push((TrajectoryId(10), lane(0.5, 0, 40)));
    fleet.push((TrajectoryId(11), lane(-0.5, 60, 100)));
    fleet.push((TrajectoryId(12), lane(0.25, 30, 70)));
    fleet
}

fn bits(matches: &[MstMatch]) -> Vec<(TrajectoryId, u64)> {
    matches
        .iter()
        .map(|m| (m.traj, m.dissim.to_bits()))
        .collect()
}

fn workload() -> Vec<(Trajectory, TimeInterval, usize)> {
    let q = lane(0.0, 0, 100);
    let mut out = Vec::new();
    for (a, b) in [(5.0, 95.0), (0.0, 100.0), (20.0, 80.0)] {
        let period = TimeInterval::new(a, b).expect("valid period");
        let clipped = q.clip(&period).expect("query covers the period");
        for k in [1usize, 2, 4] {
            out.push((clipped.clone(), period, k));
        }
    }
    out
}

#[test]
fn partly_covering_trajectories_never_corrupt_the_kmst_answer() {
    let fleet = fleet();
    let mut store = TrajectoryStore::new();
    for (id, t) in &fleet {
        store.insert(*id, t.clone());
    }
    let wl = workload();
    let truth: Vec<Vec<(TrajectoryId, u64)>> = wl
        .iter()
        .map(|(q, period, k)| {
            bits(&scan_kmst(&store, q, period, *k, Integration::Exact).expect("scan"))
        })
        .collect();
    for (i, want) in truth.iter().enumerate() {
        // Only the full lanes qualify, nearest first.
        assert_eq!(want.len(), wl[i].2, "q{i}: scan returns k matches");
        assert!(want.iter().all(|(id, _)| id.0 < 6), "q{i}: {want:?}");
    }

    let mut rtree = MovingObjectDatabase::with_rtree();
    let mut tbtree = MovingObjectDatabase::with_tbtree();
    for (id, t) in &fleet {
        rtree.insert_trajectory(*id, t).expect("rtree insert");
        tbtree.insert_trajectory(*id, t).expect("tbtree insert");
    }
    for (i, (q, period, k)) in wl.iter().enumerate() {
        let r = Query::kmst(q)
            .k(*k)
            .during(period)
            .run(&mut rtree)
            .expect("rtree query");
        assert_eq!(bits(&r), truth[i], "q{i}: rtree Query::run vs scan");
        let t = Query::kmst(q)
            .k(*k)
            .during(period)
            .run(&mut tbtree)
            .expect("tbtree query");
        assert_eq!(bits(&t), truth[i], "q{i}: tbtree Query::run vs scan");
    }

    for shards in [1usize, 4] {
        let db = ShardedDatabase::with_rtree(shards, fleet.iter().cloned()).expect("sharded build");
        let batch: Vec<BatchQuery> = wl
            .iter()
            .map(|(q, period, k)| {
                BatchQuery::kmst(Query::kmst(q).k(*k).during(period)).expect("kmst spec")
            })
            .collect();
        let outcome = BatchExecutor::new().workers(2).run(&db, batch);
        assert_eq!(outcome.degraded_count(), 0, "shards={shards}");
        for (i, want) in truth.iter().enumerate() {
            let got = outcome.outcomes[i].as_ref().expect("query ok");
            let matches = got.answer.as_kmst().expect("kmst answer");
            assert_eq!(
                &bits(matches),
                want,
                "shards={shards} q{i}: sharded vs scan"
            );
        }
    }
}
