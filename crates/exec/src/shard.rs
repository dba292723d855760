//! Horizontal partitioning of a trajectory database into independently
//! indexed shards.
//!
//! # Shard routing
//!
//! Trajectories are assigned by identity hash: object `id` lives on shard
//! `id % P`. Routing is pure and stateless — any thread can compute it —
//! and because the DISSIM candidate set of a query is a set of *whole
//! trajectories*, partitioning by object keeps every candidate's segments
//! on one shard. A k-MST/kNN query therefore decomposes into P
//! independent shard searches whose per-shard top-k lists merge losslessly
//! into the global answer ([`mst_search::merge_shard_matches`]).
//!
//! Each shard owns a complete vertical slice: its own index (3D R-tree,
//! TB-tree or STR-tree) with its own private LRU buffer pool, and its own
//! [`TrajectoryStore`] snapshot. Shards share nothing mutable, so P shards
//! scale page caching and index traversal independently; within a shard,
//! concurrent jobs serialize on node fetches through
//! [`mst_index::ConcurrentIndex`].
//!
//! Per-shard `Vmax`: each shard's index reports the maximum speed of *its*
//! objects, which is at most the global `Vmax`. MINDIST expansion and
//! OPTDISSIM use the shard-local value — a tighter, still sound bound
//! (the paper's Lemma 2 argument needs only "no object in this index moves
//! faster than `Vmax`", a per-shard fact).
//!
//! # Online ingest
//!
//! Shards accept live mutations ([`ShardedDatabase::apply_op`]) without a
//! global write lock. Each shard's trajectory store sits behind its own
//! `RwLock`: query jobs hold the *read* half for their whole run, a
//! writer takes the *write* half of **one** shard, applies the
//! operation's segments to that shard's index, and publishes a new index
//! snapshot generation ([`mst_index::ConcurrentIndex::apply`]) before
//! releasing. Visibility is therefore whole-shard atomic: a query job
//! either started before the commit (and computed its answer on the
//! pre-ingest generation — root, `Vmax` and candidate set all from the
//! old snapshot) or starts after it and sees the complete operation.
//! Queries on the *other* shards are never blocked. Lock order is
//! store → index everywhere (readers: store read lock, then per-fetch
//! index locks; writers: store write lock, then the index lock inside
//! `apply`).

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use mst_index::{
    knn_segments_traced, ConcurrentIndex, IndexError, KnnMatch, LeafEntry, Rtree3D, TbTree,
    TrajectoryIndex, TrajectoryIndexWrite,
};
use mst_search::{
    bfmst_search, nearest_trajectories, BoundShare, KmstSpec, KnnSpec, NnOutcome, QueryMetrics,
    RangeSpec, SearchReport, SegmentsSpec, TrajectoryStore,
};
use mst_trajectory::{Trajectory, TrajectoryId};

use crate::{ExecError, Result};

/// One shard: a private index plus the trajectory store of the objects
/// routed to it. The store's `RwLock` doubles as the shard's ingest
/// visibility gate — see the module docs.
pub struct Shard<I> {
    index: ConcurrentIndex<I>,
    store: RwLock<TrajectoryStore>,
}

impl<I: TrajectoryIndex> Shard<I> {
    /// Read access to the shard's trajectory store. The returned guard
    /// blocks ingest on this shard while held — query paths hold it for
    /// the whole job, giving whole-shard-atomic ingest visibility.
    ///
    /// A poisoned lock is recovered rather than propagated: the store's
    /// mutations are slot-local (no multi-step invariants a mid-panic
    /// writer can tear), and the paired *index* mutex poisons too, so a
    /// genuinely torn shard still fails queries with a typed
    /// `Poisoned` error from the node-fetch path.
    pub fn store(&self) -> RwLockReadGuard<'_, TrajectoryStore> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard's index, wrapped for concurrent read access.
    pub fn index(&self) -> &ConcurrentIndex<I> {
        &self.index
    }

    /// Runs one point-kNN (nearest segments) query against this shard.
    /// Point-kNN has no cross-shard pruning threshold to share, so there
    /// is no `BoundShare` parameter; the merge keeps the global k best.
    pub fn run_knn_segments<M: QueryMetrics>(
        &self,
        spec: &SegmentsSpec,
        metrics: &mut M,
    ) -> mst_search::Result<Vec<KnnMatch>> {
        let _store = self.store();
        let mut reader = self.index.reader();
        Ok(knn_segments_traced(
            &mut reader,
            spec.location,
            &spec.window,
            spec.options.k,
            metrics,
        )?)
    }

    /// Runs one 3D range query against this shard.
    pub fn run_range<M: QueryMetrics>(
        &self,
        spec: &RangeSpec,
        metrics: &mut M,
    ) -> mst_search::Result<Vec<LeafEntry>> {
        let _store = self.store();
        let mut reader = self.index.reader();
        Ok(reader.range_query_traced(&spec.window, metrics)?)
    }

    /// Runs one k-MST query (BFMST) against this shard, folding `share`
    /// into the pruning threshold (and publishing local kth improvements
    /// back).
    pub fn run_kmst<B: BoundShare, M: QueryMetrics>(
        &self,
        spec: &KmstSpec,
        share: &B,
        metrics: &mut M,
    ) -> mst_search::Result<SearchReport> {
        // Lock order: store read lock first, index (inside the reader's
        // node fetches) second — same order as the ingest writer.
        let store = self.store();
        let mut reader = self.index.reader();
        let period = spec.period();
        bfmst_search(
            &mut reader,
            &store,
            &spec.query,
            &period,
            &spec.config,
            share,
            metrics,
        )
    }

    /// Runs one trajectory-kNN query against this shard.
    pub fn run_knn<B: BoundShare, M: QueryMetrics>(
        &self,
        spec: &KnnSpec,
        share: &B,
        metrics: &mut M,
    ) -> mst_search::Result<NnOutcome> {
        let _store = self.store();
        let mut reader = self.index.reader();
        let period = spec.period();
        nearest_trajectories(&mut reader, &spec.query, &period, spec.k(), share, metrics)
    }
}

/// A trajectory database partitioned across P shards, each with its own
/// index and buffer pool, shareable across threads by reference.
///
/// ```
/// use mst_exec::ShardedDatabase;
/// use mst_trajectory::{SamplePoint, Trajectory, TrajectoryId};
///
/// let trajs: Vec<_> = (0..4u64)
///     .map(|id| {
///         let pts = (0..10).map(|i| SamplePoint::new(f64::from(i), id as f64, 0.0));
///         (TrajectoryId(id), Trajectory::new(pts.collect()).unwrap())
///     })
///     .collect();
/// let db = ShardedDatabase::with_rtree(2, trajs)?;
/// assert_eq!(db.num_shards(), 2);
/// assert_eq!(db.num_objects(), 4);
/// assert_eq!(db.shard_of(TrajectoryId(3)), 1);
/// # Ok::<(), mst_exec::ExecError>(())
/// ```
pub struct ShardedDatabase<I> {
    shards: Vec<Shard<I>>,
}

impl ShardedDatabase<Rtree3D> {
    /// Partitions `trajectories` across `num_shards` 3D R-trees.
    pub fn with_rtree(
        num_shards: usize,
        trajectories: impl IntoIterator<Item = (TrajectoryId, Trajectory)>,
    ) -> Result<Self> {
        ShardedDatabase::build(num_shards, Rtree3D::new, trajectories)
    }
}

impl ShardedDatabase<TbTree> {
    /// Partitions `trajectories` across `num_shards` TB-trees.
    pub fn with_tbtree(
        num_shards: usize,
        trajectories: impl IntoIterator<Item = (TrajectoryId, Trajectory)>,
    ) -> Result<Self> {
        ShardedDatabase::build(num_shards, TbTree::new, trajectories)
    }
}

impl<I: TrajectoryIndexWrite> ShardedDatabase<I> {
    /// Partitions `trajectories` across `num_shards` indexes created by
    /// `make_index`. Segments are inserted in global temporal order (by
    /// segment start time, then object, then sequence), mimicking the
    /// arrival order of a live position feed — the regime the TB-tree's
    /// page-chaining is designed for — and making shard construction
    /// deterministic for any input order.
    pub fn build(
        num_shards: usize,
        make_index: impl Fn() -> I,
        trajectories: impl IntoIterator<Item = (TrajectoryId, Trajectory)>,
    ) -> Result<Self> {
        if num_shards == 0 {
            return Err(ExecError::Config(
                "a sharded database needs at least one shard",
            ));
        }
        let mut stores: Vec<TrajectoryStore> =
            (0..num_shards).map(|_| TrajectoryStore::new()).collect();
        let mut entries: Vec<Vec<LeafEntry>> = (0..num_shards).map(|_| Vec::new()).collect();
        for (id, traj) in trajectories {
            let shard = shard_index(id, num_shards);
            for (seq, pair) in traj.points().windows(2).enumerate() {
                let segment = mst_trajectory::Segment::new(pair[0], pair[1])
                    .map_err(mst_search::SearchError::Trajectory)?;
                entries[shard].push(LeafEntry {
                    traj: id,
                    seq: seq as u32,
                    segment,
                });
            }
            stores[shard].insert(id, traj);
        }
        let mut shards = Vec::with_capacity(num_shards);
        for (store, mut shard_entries) in stores.into_iter().zip(entries) {
            shard_entries.sort_by(|a, b| {
                a.segment
                    .time()
                    .start()
                    .total_cmp(&b.segment.time().start())
                    .then(a.traj.0.cmp(&b.traj.0))
                    .then(a.seq.cmp(&b.seq))
            });
            let mut index = make_index();
            for entry in shard_entries {
                index
                    .insert_entry(entry)
                    .map_err(mst_search::SearchError::Index)?;
            }
            shards.push(Shard {
                index: ConcurrentIndex::new(index),
                store: RwLock::new(store),
            });
        }
        Ok(ShardedDatabase { shards })
    }

    /// Applies one online ingest operation to its home shard, under that
    /// shard's write lock (other shards keep answering untouched). On
    /// success returns the shard's new index snapshot generation — the
    /// signal a serving layer uses to invalidate answer caches.
    ///
    /// Failure mid-apply can leave the shard's index holding part of the
    /// operation while the store does not (the index mutex is poisoned
    /// only on panic, not on error). Durable deployments recover such
    /// states by log replay; in-memory callers should treat the shard as
    /// degraded.
    pub fn apply_op(&self, op: &IngestOp) -> Result<IngestOutcome> {
        match op {
            IngestOp::Insert { id, trajectory } => self.ingest_insert(*id, trajectory),
            IngestOp::Delete { id } => self.ingest_delete(*id),
        }
    }

    /// Inserts a *new* trajectory: every segment goes into the home
    /// shard's index, then the store. Inserting an id that already exists
    /// is a config error (delete it first) — silent replacement would
    /// leave the old segments in substrates that cannot delete.
    fn ingest_insert(&self, id: TrajectoryId, trajectory: &Trajectory) -> Result<IngestOutcome> {
        if trajectory.num_segments() == 0 {
            return Err(ExecError::Config("ingest of a segment-less trajectory"));
        }
        let shard = &self.shards[shard_index(id, self.shards.len())];
        let mut store = write_store(shard)?;
        if store.get(id).is_some() {
            return Err(ExecError::Config(
                "ingest insert of an id that already exists; delete it first",
            ));
        }
        let ((), generation) = shard
            .index
            .apply(|index| {
                for (seq, segment) in trajectory.segments().enumerate() {
                    index.insert_entry(LeafEntry {
                        traj: id,
                        seq: seq as u32,
                        segment,
                    })?;
                }
                Ok(())
            })
            .map_err(mst_search::SearchError::Index)?;
        store.insert(id, trajectory.clone());
        Ok(IngestOutcome {
            applied: true,
            generation,
        })
    }

    /// Deletes a trajectory and all its segment entries from its home
    /// shard. Each entry is rebuilt from the stored trajectory, so the
    /// index finds it by its box. Unknown ids report `applied: false`
    /// without touching anything; substrates without point deletes
    /// (TB-tree, STR-tree) surface the index's typed error. A segment the
    /// store holds but the index does not fails the delete with
    /// [`IndexError::MissingEntry`] before the store is touched.
    fn ingest_delete(&self, id: TrajectoryId) -> Result<IngestOutcome> {
        let shard = &self.shards[shard_index(id, self.shards.len())];
        let mut store = write_store(shard)?;
        let Some(existing) = store.get(id) else {
            return Ok(IngestOutcome {
                applied: false,
                generation: shard.index.generation(),
            });
        };
        let ((), generation) = shard
            .index
            .apply(|index| {
                for (seq, segment) in existing.segments().enumerate() {
                    let seq = seq as u32;
                    let entry = LeafEntry {
                        traj: id,
                        seq,
                        segment,
                    };
                    if !index.delete_entry(&entry)? {
                        return Err(IndexError::MissingEntry { traj: id, seq });
                    }
                }
                Ok(())
            })
            .map_err(mst_search::SearchError::Index)?;
        store.remove(id);
        Ok(IngestOutcome {
            applied: true,
            generation,
        })
    }
}

/// One online mutation, routed to the owning shard by
/// [`ShardedDatabase::apply_op`]. This is also the logical unit the
/// write-ahead log records.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestOp {
    /// Insert a new trajectory under `id`.
    Insert {
        /// The object's identity (must not already exist).
        id: TrajectoryId,
        /// The full trajectory; each segment becomes one index entry.
        trajectory: Trajectory,
    },
    /// Delete the trajectory stored under `id` (all its segments).
    Delete {
        /// The object to remove.
        id: TrajectoryId,
    },
}

impl IngestOp {
    /// The object the operation addresses (= its shard routing key).
    pub fn id(&self) -> TrajectoryId {
        match self {
            IngestOp::Insert { id, .. } | IngestOp::Delete { id } => *id,
        }
    }
}

/// What an applied ingest operation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// False only for a delete of an unknown id (a no-op).
    pub applied: bool,
    /// The home shard's index snapshot generation after the operation.
    pub generation: u64,
}

/// The write half of a shard's store lock, with poisoning mapped into the
/// exec error space (xtask R7: never unwrap a lock).
fn write_store<I>(shard: &Shard<I>) -> Result<std::sync::RwLockWriteGuard<'_, TrajectoryStore>> {
    shard.store.write().map_err(|_| {
        ExecError::Search(mst_search::SearchError::Index(IndexError::Poisoned(
            "shard store".to_string(),
        )))
    })
}

impl<I: TrajectoryIndex> ShardedDatabase<I> {
    /// Reassembles a database from per-shard `(index, store)` parts in
    /// routing order — the durable store's recovery path, where each
    /// shard's index is loaded from a persisted image rather than
    /// rebuilt. The caller is responsible for the parts actually being
    /// consistent (store contents routed by `id % P`, index entries
    /// matching the stores); [`mst_index::check_invariants`] plus the
    /// recovery suite's answer comparisons are the safety net.
    pub fn from_shard_parts(parts: Vec<(I, TrajectoryStore)>) -> Result<Self> {
        if parts.is_empty() {
            return Err(ExecError::Config(
                "a sharded database needs at least one shard",
            ));
        }
        Ok(ShardedDatabase {
            shards: parts
                .into_iter()
                .map(|(index, store)| Shard {
                    index: ConcurrentIndex::new(index),
                    store: RwLock::new(store),
                })
                .collect(),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of stored trajectories across shards. With live
    /// ingest running this is a momentary figure (each shard is read at
    /// its own instant).
    pub fn num_objects(&self) -> usize {
        self.shards.iter().map(|s| s.store().len()).sum()
    }

    /// The shard an object is routed to.
    pub fn shard_of(&self, id: TrajectoryId) -> usize {
        shard_index(id, self.shards.len())
    }

    /// The shards, in routing order.
    pub fn shards(&self) -> &[Shard<I>] {
        &self.shards
    }

    /// A stored trajectory, cloned out of its home shard (the shard's
    /// read lock is held only for the copy, never across caller code).
    pub fn trajectory(&self, id: TrajectoryId) -> Option<Trajectory> {
        self.shards.get(self.shard_of(id))?.store().get(id).cloned()
    }

    /// Sets every shard's buffer-pool capacity (`None` restores the
    /// paper's sizing rule). Maintenance only — call between batches.
    pub fn set_buffer_capacity(&self, capacity: Option<usize>) -> Result<()> {
        for shard in &self.shards {
            shard
                .index
                .with(|index| index.set_buffer_capacity(capacity))
                .map_err(mst_search::SearchError::Index)?
                .map_err(mst_search::SearchError::Index)?;
        }
        Ok(())
    }

    /// Arms (or with `None`, disarms) deterministic fault injection on one
    /// shard's page store. Maintenance only — call between batches; the
    /// fault schedule then replays deterministically over that shard's
    /// physical page I/O. Out-of-range `shard` is a config error.
    pub fn set_fault_injection(
        &self,
        shard: usize,
        config: Option<mst_index::FaultConfig>,
    ) -> Result<()> {
        let shard = self
            .shards
            .get(shard)
            .ok_or(ExecError::Config("fault injection shard out of range"))?;
        shard
            .index
            .with(|index| index.set_fault_injection(config))
            .map_err(mst_search::SearchError::Index)?
            .map_err(mst_search::SearchError::Index)?;
        Ok(())
    }

    /// The fault-injection counters of one shard's page store, if that
    /// shard has an injector armed (and its lock is healthy).
    pub fn fault_stats(&self, shard: usize) -> Option<mst_index::FaultStats> {
        self.shards
            .get(shard)?
            .index
            .with(|index| index.fault_stats())
            .ok()
            .flatten()
    }
}

/// Pure routing function: object `id` lives on shard `id % P`.
fn shard_index(id: TrajectoryId, num_shards: usize) -> usize {
    (id.0 % num_shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_trajectory::SamplePoint;

    fn traj(id: u64, y: f64, n: usize) -> (TrajectoryId, Trajectory) {
        let pts = (0..n)
            .map(|i| SamplePoint::new(i as f64, i as f64 * 0.5, y))
            .collect();
        (TrajectoryId(id), Trajectory::new(pts).expect("valid"))
    }

    #[test]
    fn routing_partitions_every_object_exactly_once() {
        let db =
            ShardedDatabase::with_rtree(3, (0..10u64).map(|id| traj(id, id as f64, 8))).unwrap();
        assert_eq!(db.num_shards(), 3);
        assert_eq!(db.num_objects(), 10);
        for id in 0..10u64 {
            let id = TrajectoryId(id);
            let home = db.shard_of(id);
            for (s, shard) in db.shards().iter().enumerate() {
                assert_eq!(shard.store().get(id).is_some(), s == home);
            }
            assert!(db.trajectory(id).is_some());
        }
    }

    #[test]
    fn shard_indexes_hold_only_their_objects_segments() {
        let db =
            ShardedDatabase::with_rtree(2, (0..6u64).map(|id| traj(id, id as f64, 5))).unwrap();
        // 6 objects x 4 segments, split 3/3 by parity.
        for shard in db.shards() {
            assert_eq!(shard.index().reader().num_entries(), 3 * 4);
        }
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        let r = ShardedDatabase::with_rtree(0, std::iter::empty());
        assert!(matches!(r, Err(ExecError::Config(_))));
    }

    #[test]
    fn tbtree_shards_build_leaf_chains() {
        let db =
            ShardedDatabase::with_tbtree(2, (0..4u64).map(|id| traj(id, id as f64, 6))).unwrap();
        for shard in db.shards() {
            assert_eq!(shard.index().chain_tip_count(), 2);
        }
    }

    #[test]
    fn ingest_insert_lands_on_the_home_shard_and_bumps_its_generation() {
        let db =
            ShardedDatabase::with_rtree(2, (0..4u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let before: Vec<u64> = db.shards().iter().map(|s| s.index().generation()).collect();
        let (id, t) = traj(10, 99.0, 6);
        let outcome = db
            .apply_op(&IngestOp::Insert { id, trajectory: t })
            .unwrap();
        assert!(outcome.applied);
        assert_eq!(db.num_objects(), 5);
        let home = db.shard_of(id);
        for (s, shard) in db.shards().iter().enumerate() {
            if s == home {
                assert_eq!(shard.index().generation(), before[s] + 1);
                assert_eq!(shard.index().reader().num_entries(), 2 * 4 + 5);
            } else {
                assert_eq!(
                    shard.index().generation(),
                    before[s],
                    "other shards untouched"
                );
            }
        }
        assert!(db.trajectory(id).is_some());
        // Double insert is refused, not silently replaced.
        let (_, again) = traj(10, 1.0, 3);
        let err = db
            .apply_op(&IngestOp::Insert {
                id,
                trajectory: again,
            })
            .expect_err("duplicate id");
        assert!(matches!(err, ExecError::Config(_)));
    }

    #[test]
    fn ingest_delete_removes_store_and_index_entries() {
        let db =
            ShardedDatabase::with_rtree(2, (0..4u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let id = TrajectoryId(2);
        let home = db.shard_of(id);
        let outcome = db.apply_op(&IngestOp::Delete { id }).unwrap();
        assert!(outcome.applied);
        assert!(db.trajectory(id).is_none());
        assert_eq!(db.num_objects(), 3);
        assert_eq!(db.shards()[home].index().reader().num_entries(), 4);
        // Deleting an unknown id is a no-op, not an error.
        let outcome = db.apply_op(&IngestOp::Delete { id }).unwrap();
        assert!(!outcome.applied);
    }

    #[test]
    fn ingest_delete_of_a_segment_missing_from_the_index_is_a_typed_error() {
        // The store holds T0 with 4 segments; the index lacks segment 2.
        let (id, t) = traj(0, 0.0, 5);
        let mut index = Rtree3D::new();
        for (seq, segment) in t.segments().enumerate().filter(|(seq, _)| *seq != 2) {
            index
                .insert(LeafEntry {
                    traj: id,
                    seq: seq as u32,
                    segment,
                })
                .unwrap();
        }
        let store = TrajectoryStore::from_trajectories(vec![t]);
        let db = ShardedDatabase::from_shard_parts(vec![(index, store)]).unwrap();
        let err = db
            .apply_op(&IngestOp::Delete { id })
            .expect_err("the index lost a segment");
        assert!(
            matches!(
                err,
                ExecError::Search(mst_search::SearchError::Index(IndexError::MissingEntry {
                    traj,
                    seq: 2,
                })) if traj == id
            ),
            "{err}"
        );
        assert!(
            err.to_string().contains("segment 2 of trajectory T0"),
            "{err}"
        );
        // The store was not touched.
        assert!(db.trajectory(id).is_some());
    }

    #[test]
    fn ingest_delete_on_a_tbtree_is_a_typed_refusal() {
        let db =
            ShardedDatabase::with_tbtree(1, (0..2u64).map(|id| traj(id, id as f64, 4))).unwrap();
        let err = db
            .apply_op(&IngestOp::Delete {
                id: TrajectoryId(0),
            })
            .expect_err("tbtree has no point deletes");
        assert!(matches!(err, ExecError::Search(_)));
        // The refusal left the store untouched.
        assert_eq!(db.num_objects(), 2);
    }

    #[test]
    fn queries_started_before_an_ingest_commit_answer_on_the_old_generation() {
        let db =
            ShardedDatabase::with_rtree(1, (0..3u64).map(|id| traj(id, id as f64, 5))).unwrap();
        let shard = &db.shards()[0];
        // Pin a reader (as a query job does) before the ingest commits.
        let reader = shard.index().reader();
        let entries_before = reader.num_entries();
        let (id, t) = traj(7, 50.0, 5);
        db.apply_op(&IngestOp::Insert { id, trajectory: t })
            .unwrap();
        assert_eq!(reader.num_entries(), entries_before, "pinned generation");
        assert_eq!(shard.index().reader().num_entries(), entries_before + 4);
    }

    #[test]
    fn single_shard_holds_everything() {
        let db =
            ShardedDatabase::with_rtree(1, (0..5u64).map(|id| traj(id, id as f64, 4))).unwrap();
        assert_eq!(db.num_shards(), 1);
        assert_eq!(db.shards()[0].store().len(), 5);
        assert_eq!(db.shards()[0].index().reader().num_entries(), 5 * 3);
    }
}
