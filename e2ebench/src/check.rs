//! Correctness: every checked k-MST answer must equal, bit for bit, a
//! single-index `Query::run` over the same objects; after recovery every
//! acknowledged insert must be present and every acknowledged delete
//! absent.
//!
//! A disagreement with `Query::run` is arbitrated by the exact scan
//! (`scan_kmst` with exact integration). If the served answer equals the
//! scan, the fault lies in the single-index reference path: it is counted
//! and reported as a reference defect, not charged to the served system.
//! Otherwise the served answer is wrong and the run fails.

use std::collections::{BTreeMap, BTreeSet};

use mst_exec::ShardedDatabase;
use mst_index::Rtree3D;
use mst_search::{scan_kmst, Integration, MovingObjectDatabase, MstMatch, Query, TrajectoryStore};
use mst_trajectory::{Trajectory, TrajectoryId};

use crate::data::{OpBody, QuerySpec};
use crate::load::{Outcome, Record};

pub fn bits(matches: &[MstMatch]) -> Vec<(u64, u64)> {
    matches
        .iter()
        .map(|m| (m.traj.0, m.dissim.to_bits()))
        .collect()
}

/// The single-index reference database.
pub struct Reference {
    db: MovingObjectDatabase<Rtree3D>,
    /// The same objects, for the exact-scan arbitration.
    store: TrajectoryStore,
}

impl Reference {
    pub fn build<'a>(
        objects: impl IntoIterator<Item = (TrajectoryId, &'a Trajectory)>,
    ) -> Result<Reference, String> {
        let mut db = MovingObjectDatabase::with_rtree();
        let mut store = TrajectoryStore::new();
        for (id, t) in objects {
            store.insert(id, t.clone());
            db.insert_trajectory(id, t)
                .map_err(|e| format!("reference insert {}: {e}", id.0))?;
        }
        Ok(Reference { db, store })
    }

    pub fn answer(&mut self, q: &QuerySpec) -> Result<Vec<(u64, u64)>, String> {
        Query::kmst(&q.query)
            .k(q.k)
            .during(&q.period)
            .run(&mut self.db)
            .map(|m| bits(&m))
            .map_err(|e| format!("reference query: {e}"))
    }

    fn exact_scan(&self, q: &QuerySpec) -> Result<Vec<(u64, u64)>, String> {
        scan_kmst(&self.store, &q.query, &q.period, q.k, Integration::Exact)
            .map(|m| bits(&m))
            .map_err(|e| format!("exact scan: {e}"))
    }
}

/// What checking a set of answers found.
#[derive(Default)]
pub struct Verdict {
    pub checked: u64,
    /// Served answers that differ from the exact scan: the run fails.
    pub mismatches: Vec<String>,
    /// Served answers that equal the exact scan while `Query::run`
    /// differs: defects of the reference path.
    pub reference_defects: Vec<String>,
}

/// Checks every answered query among `records`.
pub fn check_answers<'a>(
    reference: &mut Reference,
    records: impl IntoIterator<Item = &'a Record>,
) -> Result<Verdict, String> {
    let mut verdict = Verdict::default();
    for record in records {
        let (OpBody::Query(q), Outcome::Answer(got)) = (&record.body, &record.outcome) else {
            continue;
        };
        verdict.checked += 1;
        let got = bits(got);
        let want = reference.answer(q)?;
        if got == want {
            continue;
        }
        let exact = reference.exact_scan(q)?;
        let detail = format!(
            "period {:?}, k {}: served {got:?}, Query::run {want:?}, exact scan {exact:?}",
            q.period, q.k
        );
        if got == exact {
            verdict.reference_defects.push(detail);
        } else {
            verdict
                .mismatches
                .push(format!("wrong k-MST answer: {detail}"));
        }
    }
    Ok(verdict)
}

/// What the acknowledged writes among `records` imply.
#[derive(Default)]
pub struct Acked {
    /// Inserted and not deleted since: must be present.
    pub live: BTreeMap<u64, Trajectory>,
    /// Deleted: must be absent.
    pub deleted: BTreeSet<u64>,
    /// Sample bytes inserted (24 B per sample).
    pub inserted_bytes: u64,
    /// Write frames acknowledged.
    pub frames: u64,
}

impl Acked {
    pub fn absorb<'a>(&mut self, records: impl IntoIterator<Item = &'a Record>) {
        for record in records {
            let OpBody::Replace { delete, insert } = &record.body else {
                continue;
            };
            if let (Some(id), true) = (delete, record.acked.0) {
                self.live.remove(&id.0);
                self.deleted.insert(id.0);
                self.frames += 1;
            }
            if record.acked.1 {
                self.live.insert(insert.0 .0, insert.1.clone());
                self.inserted_bytes += 24 * insert.1.num_points() as u64;
                self.frames += 1;
            }
        }
    }

    /// Every acknowledged write is reflected in `db`.
    pub fn verify(&self, db: &ShardedDatabase<Rtree3D>) -> Vec<String> {
        let mut problems = Vec::new();
        for (id, want) in &self.live {
            match db.trajectory(TrajectoryId(*id)) {
                Some(got) if got.points() == want.points() => {}
                Some(_) => problems.push(format!("acked insert {id} recovered with other samples")),
                None => problems.push(format!("acked insert {id} lost by recovery")),
            }
        }
        for id in &self.deleted {
            if db.trajectory(TrajectoryId(*id)).is_some() {
                problems.push(format!("acked delete {id} undone by recovery"));
            }
        }
        problems
    }
}
