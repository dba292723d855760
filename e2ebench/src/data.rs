//! Seeded inputs: the GSTD fleet, the three workloads' query streams, and
//! the durable-ingest op streams. Everything here is a pure function of
//! the run's seed and the fixed fleet and hot-set seeds; the program under
//! test only ever sees the generated frames.

use std::collections::VecDeque;
use std::sync::Arc;

use mst_datagen::GstdConfig;
use mst_prng::Rng;
use mst_search::QueryOptions;
use mst_serve::Request;
use mst_trajectory::{SamplePoint, TimeInterval, Trajectory, TrajectoryId};

/// The GSTD fleet S0250: 250 objects x 1000 samples.
pub const OBJECTS: usize = 250;
pub const SAMPLES: usize = 1000;
/// Samples per trajectory inserted online by the ingest streams, and
/// their spacing in time: each new trajectory spans 80 time units.
pub const INSERT_SAMPLES: usize = 5;
pub const INSERT_TIME_STEP: f64 = 20.0;
/// Live benchmark inserts each connection keeps before it deletes its
/// oldest one, so the store size stays level.
pub const LIVE_PER_CONN: usize = 32;
/// Hot set of `hot-short`: this many trajectories ...
pub const HOT_OBJECTS: usize = 8;
/// ... inside this share of the time domain.
pub const HOT_SPAN: f64 = 0.10;
/// First id handed to online inserts (far above the fleet's dense ids).
const INSERT_ID_BASE: u64 = 1 << 32;
/// Insert ids of one stream step by this much (streams interleave).
const ID_STRIDE: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotShort,
    SpreadLong,
    IngestMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-short" => Some(Workload::HotShort),
            "spread-long" => Some(Workload::SpreadLong),
            "ingest-mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotShort => "hot-short",
            Workload::SpreadLong => "spread-long",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    /// Query length as a share of the time domain.
    pub fn length(self) -> f64 {
        match self {
            Workload::SpreadLong => 0.40,
            Workload::HotShort | Workload::IngestMixed => 0.05,
        }
    }

    pub fn k(self) -> usize {
        match self {
            Workload::SpreadLong => 8,
            Workload::HotShort | Workload::IngestMixed => 4,
        }
    }
}

/// A generated k-MST query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub query: Trajectory,
    pub period: TimeInterval,
    pub k: usize,
}

impl QuerySpec {
    pub fn request(&self) -> Request {
        Request::Kmst {
            points: self.query.points().to_vec(),
            options: QueryOptions::new().k(self.k).during(&self.period),
        }
    }
}

/// One operation of a client stream.
#[derive(Debug, Clone)]
pub enum OpBody {
    Query(QuerySpec),
    /// A durable replace: delete the stream's oldest live insert (once
    /// the stream holds `LIVE_PER_CONN`) and insert a new trajectory,
    /// sent back to back as two frames.
    Replace {
        delete: Option<TrajectoryId>,
        insert: (TrajectoryId, Trajectory),
    },
}

impl OpBody {
    /// The op's request frames, in send order.
    pub fn requests(&self) -> Vec<Request> {
        match self {
            OpBody::Query(q) => vec![q.request()],
            OpBody::Replace { delete, insert } => {
                let mut out = Vec::with_capacity(2);
                if let Some(id) = delete {
                    out.push(Request::Delete { id: *id });
                }
                out.push(Request::Insert {
                    id: insert.0,
                    points: insert.1.points().to_vec(),
                });
                out
            }
        }
    }

    /// Frames the op puts on the wire.
    pub fn frames(&self) -> usize {
        match self {
            OpBody::Query(_) | OpBody::Replace { delete: None, .. } => 1,
            OpBody::Replace {
                delete: Some(_), ..
            } => 2,
        }
    }

    pub fn is_query(&self) -> bool {
        matches!(self, OpBody::Query(_))
    }
}

/// Generation seed of the served fleet. The fleet is the deployment's
/// data, fixed like `mst-serve`'s demo fleet; the run's seed drives the
/// traffic. (A fleet drawn per seed moves query cost by up to 2x between
/// seeds through the fleet's maximum speed, which every bound uses.)
pub const FLEET_SEED: u64 = 1;
/// Seed of the hot set and hot window of `hot-short` (fixed for the same
/// reason: which 8 trajectories are hot moves query cost by ~30%).
const HOT_SEED: u64 = 0x0405_75e7;

/// The fleet, ids dense from zero.
pub fn fleet(objects: usize) -> Vec<(TrajectoryId, Trajectory)> {
    GstdConfig {
        samples_per_object: SAMPLES,
        ..GstdConfig::paper_dataset(objects, FLEET_SEED)
    }
    .generate()
    .into_iter()
    .enumerate()
    .map(|(i, t)| (TrajectoryId(i as u64), t))
    .collect()
}

/// What the query generators draw from: the fleet plus the hot set.
pub struct Universe {
    pub trajectories: Vec<Trajectory>,
    /// Indexes into `trajectories` of the hot set.
    hot: Vec<usize>,
    /// The hot time window `[start, start + HOT_SPAN * domain]`.
    hot_start: f64,
    domain: f64,
}

impl Universe {
    pub fn new(fleet: &[(TrajectoryId, Trajectory)]) -> Universe {
        let trajectories: Vec<Trajectory> = fleet.iter().map(|(_, t)| t.clone()).collect();
        let domain = trajectories[0].end_time() - trajectories[0].start_time();
        let mut rng = Rng::seed_from(HOT_SEED);
        let mut ids: Vec<usize> = (0..trajectories.len()).collect();
        rng.shuffle(&mut ids);
        ids.truncate(HOT_OBJECTS);
        let hot_start = rng.f64_range(0.0, domain * (1.0 - HOT_SPAN));
        Universe {
            trajectories,
            hot: ids,
            hot_start,
            domain,
        }
    }

    fn clip(t: &Trajectory, start: f64, span: f64, k: usize) -> QuerySpec {
        let period = TimeInterval::new(start, start + span).expect("positive query span");
        let query = t.clip(&period).expect("window inside the trajectory");
        QuerySpec { query, period, k }
    }

    /// A `hot-short` query: a clip from the hot set inside the hot window.
    pub fn hot_query(&self, rng: &mut Rng, workload: Workload) -> QuerySpec {
        let t = &self.trajectories[self.hot[rng.usize_below(self.hot.len())]];
        let span = self.domain * workload.length();
        let lo = self.hot_start;
        let hi = lo + self.domain * HOT_SPAN - span;
        Self::clip(t, rng.f64_range(lo, hi), span, workload.k())
    }

    /// A `spread-long` query: uniform over trajectories and time.
    pub fn spread_query(&self, rng: &mut Rng, workload: Workload) -> QuerySpec {
        let t = &self.trajectories[rng.usize_below(self.trajectories.len())];
        let span = self.domain * workload.length();
        let start = rng.f64_range(t.start_time(), t.end_time() - span);
        Self::clip(t, start, span, workload.k())
    }

    /// A new GSTD trajectory of `INSERT_SAMPLES` samples, placed at a
    /// seeded offset inside the fleet's time domain.
    pub fn new_trajectory(&self, rng: &mut Rng) -> Trajectory {
        let raw = GstdConfig {
            samples_per_object: INSERT_SAMPLES,
            time_step: INSERT_TIME_STEP,
            ..GstdConfig::paper_dataset(1, rng.next_u64())
        }
        .generate()
        .pop()
        .expect("one object generated");
        let offset = rng.f64_range(0.0, self.domain - raw.end_time()).floor();
        let points: Vec<SamplePoint> = raw
            .points()
            .iter()
            .map(|p| SamplePoint::new(p.t + offset, p.x, p.y))
            .collect();
        Trajectory::new(points).expect("shifted samples stay ordered")
    }
}

/// Every this-many ops of an `ingest-mixed` stream, one is a replace.
pub const MIXED_WRITE_EVERY: usize = 12;

/// One connection's deterministic op stream.
pub struct OpGen {
    rng: Rng,
    workload: Workload,
    universe: Arc<Universe>,
    /// Every `write_every`-th op is a replace (0: never, 1: always).
    write_every: usize,
    step: usize,
    next_id: u64,
    live: VecDeque<(TrajectoryId, Trajectory)>,
    /// An op handed back unsent; `next_op` returns it first.
    deferred: Option<OpBody>,
}

impl OpGen {
    /// The query-only stream of a read workload.
    pub fn queries(universe: Arc<Universe>, workload: Workload, seed: u64, conn: usize) -> OpGen {
        Self::new(universe, workload, seed, conn, 0)
    }

    /// The `ingest-mixed` stream: queries with a replace every
    /// `MIXED_WRITE_EVERY` ops.
    pub fn mixed(universe: Arc<Universe>, seed: u64, conn: usize) -> OpGen {
        Self::new(
            universe,
            Workload::IngestMixed,
            seed,
            conn,
            MIXED_WRITE_EVERY,
        )
    }

    /// A replace-only stream (the ingest lane of the read workloads).
    pub fn writes(universe: Arc<Universe>, seed: u64, conn: usize) -> OpGen {
        Self::new(universe, Workload::IngestMixed, seed, conn, 1)
    }

    fn new(
        universe: Arc<Universe>,
        workload: Workload,
        seed: u64,
        conn: usize,
        write_every: usize,
    ) -> OpGen {
        let stream = (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        OpGen {
            rng: Rng::seed_from(seed ^ stream),
            workload,
            universe,
            write_every,
            step: 0,
            next_id: INSERT_ID_BASE + conn as u64,
            live: VecDeque::new(),
            deferred: None,
        }
    }

    pub fn next_op(&mut self) -> OpBody {
        if let Some(op) = self.deferred.take() {
            return op;
        }
        self.step += 1;
        if self.write_every > 0 && self.step.is_multiple_of(self.write_every) {
            self.next_write()
        } else {
            OpBody::Query(self.next_query())
        }
    }

    /// The stream's next query, skipping its write slots.
    pub fn next_query(&mut self) -> QuerySpec {
        let universe = Arc::clone(&self.universe);
        match self.workload {
            Workload::HotShort => universe.hot_query(&mut self.rng, self.workload),
            Workload::SpreadLong => universe.spread_query(&mut self.rng, self.workload),
            Workload::IngestMixed => {
                // Half the queries clip one of this stream's recent
                // inserts, the rest come from the hot set.
                if !self.live.is_empty() && self.rng.bool() {
                    let recent = self.live.len().min(8);
                    let pick = self.live.len() - 1 - self.rng.usize_below(recent);
                    let t = &self.live[pick].1;
                    let span = universe.domain * self.workload.length();
                    let start = self.rng.f64_range(t.start_time(), t.end_time() - span);
                    Universe::clip(t, start, span, self.workload.k())
                } else {
                    universe.hot_query(&mut self.rng, self.workload)
                }
            }
        }
    }

    fn next_write(&mut self) -> OpBody {
        let delete = if self.live.len() >= LIVE_PER_CONN {
            self.live.pop_front().map(|(id, _)| id)
        } else {
            None
        };
        let id = TrajectoryId(self.next_id);
        self.next_id += ID_STRIDE;
        let t = self.universe.new_trajectory(&mut self.rng);
        self.live.push_back((id, t.clone()));
        OpBody::Replace {
            delete,
            insert: (id, t),
        }
    }

    /// Hands back an op that was generated but not sent, so the stream
    /// stays gapless across phases (its writes track what they insert).
    pub fn defer(&mut self, op: OpBody) {
        self.deferred = Some(op);
    }

    /// True once the stream deletes on every write (its live set is full).
    pub fn is_level(&self) -> bool {
        self.live.len() >= LIVE_PER_CONN
    }

    /// Emits the next write (used to fill the live set before timing).
    pub fn fill_write(&mut self) -> OpBody {
        self.next_write()
    }
}
