//! The timed run (`--trace 0`): set-up, the closed-loop saturate phase,
//! the open-loop paced phase, the durable-ingest lane, and the checks.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mst_exec::ShardedDatabase;
use mst_index::{Rtree3D, TrajectoryIndex};
use mst_serve::{Server, ServerConfig, ServerCounters, ServerHandle};
use mst_trajectory::{Trajectory, TrajectoryId};

use crate::check::{self, Acked, Reference};
use crate::data::{self, OpBody, OpGen, Universe, Workload, MIXED_WRITE_EVERY};
use crate::durable::{self, WorkDir};
use crate::load::{self, PhaseResult, Record};
use crate::stats::{self, Report};
use crate::Args;

pub const SHARDS: usize = 4;
/// Client connections, one client thread each.
pub const CONNS: usize = 2;
/// Pipeline depth of each client connection.
pub const DEPTH: u16 = 8;
/// The server's admission bound: every frame the two connections can
/// have in flight, so the closed loop never meets `Overloaded`.
pub const QUEUE: usize = CONNS * DEPTH as usize;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Paced k-MST samples per run: at least ten beyond p99.
pub const MIN_PACED_QUERIES: usize = 1000;
/// Objects in the small durable store the read workloads' ingest lane
/// writes to.
pub const LANE_OBJECTS: usize = 25;
/// The read workloads' ingest lane: paced replaces per second, how many,
/// and the closed-loop replaces.
pub const LANE_RATE: f64 = 200.0;
pub const LANE_PACED: usize = 1000;
pub const LANE_SATURATE: usize = 500;
/// Queries issued after the quiesce point of `ingest-mixed`.
pub const QUIESCE_QUERIES: usize = 200;

/// Offered rate of the paced phase, in ops per second, against the seed
/// commit's closed-loop throughput on a 2-core host: `spread-long` about
/// half (50 of ~105), `hot-short` and `ingest-mixed` a fifth and a
/// quarter (300 of ~1550; 200 of ~800), because at a third or more the
/// host's minute-to-minute capacity swings moved `hot-short`'s p50 by 2x.
pub fn offered_rate(workload: Workload) -> f64 {
    match workload {
        Workload::HotShort => 300.0,
        Workload::SpreadLong => 50.0,
        Workload::IngestMixed => 200.0,
    }
}

/// Closed-loop throughput of the seed commit on a 2-core host, in ops
/// per second: sizes the closed-loop phase to about a quarter of
/// `--seconds` of work.
pub fn expected_throughput(workload: Workload) -> f64 {
    match workload {
        Workload::HotShort => 1600.0,
        Workload::SpreadLong => 110.0,
        Workload::IngestMixed => 800.0,
    }
}

/// The phase plan of a run measuring for `seconds`: warm-up and
/// closed-loop op counts, the offered rate and the paced op count.
#[derive(Clone, Copy)]
pub struct Plan {
    pub warm: usize,
    pub saturate: usize,
    pub rate: f64,
    pub paced: usize,
}

impl Plan {
    pub fn new(workload: Workload, seconds: f64) -> Plan {
        let rate = offered_rate(workload);
        let query_share = match workload {
            Workload::IngestMixed => 1.0 - 1.0 / MIXED_WRITE_EVERY as f64,
            Workload::HotShort | Workload::SpreadLong => 1.0,
        };
        let min_ops = (MIN_PACED_QUERIES as f64 / query_share).ceil() as usize + CONNS;
        let throughput = expected_throughput(workload);
        Plan {
            warm: (throughput * 0.5) as usize,
            saturate: (throughput * seconds * 0.25) as usize,
            rate,
            paced: min_ops.max((rate * seconds * 0.5) as usize),
        }
    }
}

pub fn server_config() -> ServerConfig {
    ServerConfig::new().queue_capacity(QUEUE)
}

/// Blocks until the server answers a handshake.
pub fn wait_accepting(addr: SocketAddr) -> Result<(), String> {
    crate::conn::Conn::connect(addr, 1).map(|_| ())
}

/// A read-only server over the seeded fleet, set up `SETUP_REPEATS`
/// times; returns the median set-up seconds and the last instance.
pub struct ReadServer {
    pub setup_s: f64,
    pub server: ServerHandle<Rtree3D>,
    pub db: Arc<ShardedDatabase<Rtree3D>>,
    pub fleet: Vec<(TrajectoryId, Trajectory)>,
}

pub fn setup_read(repeats: usize) -> Result<ReadServer, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        // The previous instance stops before the next one is timed.
        if let Some(ReadServer { server, .. }) = last.take() {
            server.shutdown();
        }
        let start = Instant::now();
        let fleet = data::fleet(data::OBJECTS);
        let db = Arc::new(
            ShardedDatabase::with_rtree(SHARDS, fleet.iter().cloned())
                .map_err(|e| format!("build shards: {e}"))?,
        );
        let server = Server::start(server_config(), Arc::clone(&db))
            .map_err(|e| format!("start server: {e}"))?;
        wait_accepting(server.local_addr())?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(ReadServer {
            setup_s: 0.0,
            server,
            db,
            fleet,
        });
    }
    let mut served = last.ok_or("no set-up ran")?;
    served.setup_s = stats::median(&times);
    Ok(served)
}

/// A durable primary over a freshly seeded `FileStore`.
pub struct DurableServer {
    pub setup_s: f64,
    pub server: ServerHandle<Rtree3D>,
    pub db: Arc<ShardedDatabase<Rtree3D>>,
    pub fleet: Vec<(TrajectoryId, Trajectory)>,
    pub store: std::path::PathBuf,
    /// WAL bytes on disk once seeded (the seed's own log segment).
    pub seed_wal_bytes: u64,
}

pub fn setup_durable(
    work: &WorkDir,
    objects: usize,
    repeats: usize,
) -> Result<DurableServer, String> {
    let mut times = Vec::new();
    let mut last: Option<DurableServer> = None;
    for i in 0..repeats {
        if let Some(prev) = last.take() {
            prev.server.shutdown();
            std::fs::remove_dir_all(&prev.store).map_err(|e| format!("drop store: {e}"))?;
        }
        let store = work.sub(&format!("store-{objects}-{i}"));
        let start = Instant::now();
        let fleet = data::fleet(objects);
        let durable = durable::seed(&store, SHARDS, &fleet)?;
        let seed_wal_bytes = durable::store_bytes(&store)?.0;
        let db = Arc::clone(durable.database());
        let server = Server::start_durable(server_config(), durable)
            .map_err(|e| format!("start durable server: {e}"))?;
        wait_accepting(server.local_addr())?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(DurableServer {
            setup_s: 0.0,
            server,
            db,
            fleet,
            store,
            seed_wal_bytes,
        });
    }
    let mut served = last.ok_or("no set-up ran")?;
    served.setup_s = stats::median(&times);
    Ok(served)
}

/// Buffer-pool (hits, misses) summed over the shards.
pub fn buffer_counts(db: &ShardedDatabase<Rtree3D>) -> (u64, u64) {
    db.shards().iter().fold((0, 0), |(h, m), shard| {
        let s = shard
            .index()
            .with(|index| index.stats())
            .unwrap_or_default();
        (h + s.buffer.hits, m + s.buffer.misses)
    })
}

/// Fetches the server's counters over a fresh connection.
pub fn counters(addr: SocketAddr) -> Result<ServerCounters, String> {
    let mut client = mst_serve::ServeClient::connect(addr).map_err(|e| format!("stats: {e}"))?;
    client
        .stats()
        .map(|s| s.counters)
        .map_err(|e| format!("stats: {e}"))
}

/// Fills each write stream's live set (inserts only), serially.
pub fn fill(addr: SocketAddr, gens: &mut [OpGen]) -> Result<Vec<Record>, String> {
    let mut ops = Vec::new();
    for gen in gens.iter_mut() {
        while !gen.is_level() {
            ops.push(gen.fill_write());
        }
    }
    load::serial(addr, ops, &mut load::NoHooks)
}

/// Slices a closed-loop phase is cut into by completion order. A run
/// reports the median over slices (here and for open-loop latency), so
/// one stall of the shared host cannot move a metric alone.
pub const SLICES: usize = 5;

/// The per-second rate of `weight` in each slice of a closed-loop phase:
/// its successful records, in completion order, cut into `SLICES + 1`
/// runs of equal length; each slice's rate is its weight over the time
/// from the previous slice's last completion to its own. The first run
/// is the ramp, where connections open and pipelines fill, and is not
/// reported.
pub fn slice_rates(phase: &PhaseResult, weight: impl Fn(&Record) -> f64) -> Vec<f64> {
    let mut done: Vec<&Record> = phase.records.iter().filter(|r| !r.failed()).collect();
    done.sort_by_key(|r| r.done);
    let size = done.len() / (SLICES + 1);
    if size == 0 {
        return vec![f64::NAN];
    }
    (1..=SLICES)
        .map(|i| {
            let slice = &done[i * size..(i + 1) * size];
            let span = (slice[size - 1].done - done[i * size - 1].done).as_secs_f64();
            slice.iter().map(|r| weight(r)).sum::<f64>() / span.max(1e-9)
        })
        .collect()
}

fn rounded(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    parts.join(" ")
}

/// At most this many latency slices per open-loop phase.
pub const MAX_LATENCY_SLICES: usize = 9;
/// Samples per slice for a slice p50, and for a slice p99 (ten beyond).
pub const P50_SLICE: usize = 200;

/// The successful ops matching `pred` in an open-loop phase, cut by due
/// time into at most `MAX_LATENCY_SLICES` slices of at least
/// `per_slice` samples each: their ascending latencies per slice, and
/// all of them.
pub fn latency_slices(
    phase: &PhaseResult,
    per_slice: usize,
    pred: impl Fn(&Record) -> bool,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut picked: Vec<&Record> = phase
        .records
        .iter()
        .filter(|r| !r.failed() && pred(r))
        .collect();
    picked.sort_by_key(|r| r.start);
    let n = (picked.len() / per_slice).clamp(1, MAX_LATENCY_SLICES);
    let size = picked.len().div_ceil(n).max(1);
    let slices = picked
        .chunks(size)
        .map(|c| stats::sorted(c.iter().map(|r| r.latency_ms).collect()))
        .collect();
    let all = stats::sorted(picked.iter().map(|r| r.latency_ms).collect());
    (slices, all)
}

/// Records the latency of an open-loop phase's successful ops matching
/// `pred`: `<prefix>p50_ms` and `<prefix>p99_ms`, each the median over
/// the phase's latency slices (of at least `P50_SLICE` and
/// `MIN_PACED_QUERIES` samples), with the slices' values, the sample
/// count and the pooled p90.
fn record_latency(
    report: &mut Report,
    prefix: &str,
    phase: &PhaseResult,
    pred: impl Fn(&Record) -> bool,
) {
    let (slices, all) = latency_slices(phase, P50_SLICE, &pred);
    let p50s: Vec<f64> = slices.iter().map(|s| stats::percentile(s, 50.0)).collect();
    let (slices, _) = latency_slices(phase, MIN_PACED_QUERIES, &pred);
    let p99s: Vec<f64> = slices.iter().map(|s| stats::percentile(s, 99.0)).collect();
    report.fact(&format!("{prefix}p50_ms"), stats::median(&p50s));
    report.fact(&format!("{prefix}p99_ms"), stats::median(&p99s));
    report.fact(&format!("{prefix}latency_samples"), all.len());
    report.fact(&format!("{prefix}p99_slices"), slices.len());
    report.fact(&format!("{prefix}p50_slices_ms"), rounded(&p50s));
    report.fact(&format!("{prefix}p99_slices_ms"), rounded(&p99s));
    report.fact(&format!("{prefix}p90_ms"), stats::percentile(&all, 90.0));
}

/// Records a closed-loop rate's slices as a fact and returns their
/// median.
fn record_rate(
    report: &mut Report,
    name: &str,
    phase: &PhaseResult,
    weight: impl Fn(&Record) -> f64,
) -> f64 {
    let rates = slice_rates(phase, weight);
    report.fact(&format!("{name}_slices"), rounded(&rates));
    stats::median(&rates)
}

/// Ascending latencies of successful ops matching `pred`, pooled.
pub fn latencies(records: &[Record], pred: impl Fn(&Record) -> bool) -> Vec<f64> {
    stats::sorted(
        records
            .iter()
            .filter(|r| !r.failed() && pred(r))
            .map(|r| r.latency_ms)
            .collect(),
    )
}

/// Write frames a record had acked.
pub fn acked_frames(r: &Record) -> f64 {
    f64::from(u8::from(r.acked.0) + u8::from(r.acked.1))
}

/// Everything the load phases of one server produced.
pub struct Phases {
    /// Warm-up (read workloads) or live-set fill (write streams).
    pub warm: Vec<Record>,
    pub saturate: PhaseResult,
    pub paced: PhaseResult,
    /// Queries issued after the quiesce point (`ingest-mixed`).
    pub quiesce: Vec<Record>,
    pub counters: ServerCounters,
}

impl Phases {
    pub fn all(&self) -> impl Iterator<Item = &Record> {
        self.warm
            .iter()
            .chain(&self.saturate.records)
            .chain(&self.paced.records)
            .chain(&self.quiesce)
    }
}

/// Runs warm-up (or fill), the saturate phase and the paced phase.
pub fn drive(
    addr: SocketAddr,
    gens: &mut [OpGen],
    plan: &Plan,
    writes: bool,
) -> Result<Phases, String> {
    let warm = if writes {
        fill(addr, gens)?
    } else {
        load::closed_loop(addr, gens, DEPTH, plan.warm)?.records
    };
    let saturate = load::closed_loop(addr, gens, DEPTH, plan.saturate)?;
    let mut hooks: Vec<load::NoHooks> = gens.iter().map(|_| load::NoHooks).collect();
    let paced = load::open_loop(addr, gens, &mut hooks, DEPTH, plan.rate, plan.paced)?;
    Ok(Phases {
        warm,
        saturate,
        paced,
        quiesce: Vec::new(),
        counters: ServerCounters::default(),
    })
}

/// What stopping a durable server and recovering its store measured.
pub struct Durability {
    pub recovery_s: f64,
    /// (WAL segment bytes, snapshot bytes) on disk after the stop.
    pub store_bytes: (u64, u64),
    /// Sample bytes inserted over the store's life (seed included).
    pub user_bytes: u64,
    pub acked: Acked,
}

/// Stops a durable server, measures its store, recovers it, and checks
/// every acknowledged write against the recovered state.
pub fn stop_and_recover<'a>(
    server: ServerHandle<Rtree3D>,
    store: &std::path::Path,
    fleet: &[(TrajectoryId, Trajectory)],
    records: impl IntoIterator<Item = &'a Record>,
    report: &mut Report,
) -> Result<Durability, String> {
    server.shutdown();
    drop(server);
    let store_bytes = durable::store_bytes(store)?;
    let (recovered, recovery_s) = durable::recover(store)?;
    let mut acked = Acked::default();
    acked.absorb(records);
    for problem in acked.verify(recovered.database()) {
        report.problem(problem);
    }
    let seed_bytes: u64 = fleet.iter().map(|(_, t)| 24 * t.num_points() as u64).sum();
    Ok(Durability {
        recovery_s,
        store_bytes,
        user_bytes: seed_bytes + acked.inserted_bytes,
        acked,
    })
}

/// The read workloads' ingest lane: replace-only streams against a small
/// durable primary, which is then stopped and recovered.
pub fn ingest_lane(
    work: &WorkDir,
    seed: u64,
    report: &mut Report,
) -> Result<(Phases, Durability), String> {
    let lane = setup_durable(work, LANE_OBJECTS, 1)?;
    let addr = lane.server.local_addr();
    let universe = Arc::new(Universe::new(&lane.fleet));
    let mut gens: Vec<OpGen> = (0..CONNS)
        .map(|c| OpGen::writes(Arc::clone(&universe), seed, c))
        .collect();
    let plan = Plan {
        warm: 0,
        saturate: LANE_SATURATE,
        rate: LANE_RATE,
        paced: LANE_PACED,
    };
    let mut phases = drive(addr, &mut gens, &plan, true)?;
    phases.counters = counters(addr)?;
    let durability = stop_and_recover(lane.server, &lane.store, &lane.fleet, phases.all(), report)?;
    Ok((phases, durability))
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("bad VmHWM line")?;
    Ok(kb / 1024.0)
}

/// The paper's buffer sizing rule the index applies by default: 10% of
/// the index's pages, clamped to 8..=1000.
pub fn buffer_pages(pages: usize) -> usize {
    (pages / 10).clamp(8, 1000)
}

/// Records the run's configuration and host facts.
pub fn record_config(report: &mut Report, args: &Args, plan: &Plan) {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let config = server_config();
    report.fact("workload", args.workload.name());
    report.fact("seed", args.seed);
    report.fact("seconds", args.seconds);
    report.fact("available_parallelism", parallelism);
    report.fact(
        "server",
        format!(
            "{SHARDS} shards, {} workers, {} io threads, depth cap {}, queue {QUEUE}, cache {}",
            config.workers, config.io_threads, config.max_depth, config.cache_capacity
        ),
    );
    report.fact(
        "clients",
        format!("{CONNS} threads x 1 connection at depth {DEPTH}"),
    );
    report.fact("offered_rate_ops_s", plan.rate);
    report.fact("paced_ops", plan.paced);
    report.fact("saturate_ops", plan.saturate);
    report.fact(
        "flush_policy",
        "group commit: each coalescer tick's ingest frames share one WAL fdatasync; \
         acked only after it returns",
    );
}

/// Records each shard's page count and buffer capacity.
pub fn record_shards(report: &mut Report, db: &ShardedDatabase<Rtree3D>) -> Vec<(usize, usize)> {
    let sizes: Vec<(usize, usize)> = db
        .shards()
        .iter()
        .map(|s| {
            let pages = s.index().with(|i| i.num_pages()).unwrap_or(0);
            (pages, buffer_pages(pages))
        })
        .collect();
    let text: Vec<String> = sizes
        .iter()
        .map(|(p, b)| format!("{p} pages / {b} buffer"))
        .collect();
    report.fact("shards", text.join("; "));
    sizes
}

/// Adds the k-MST end-to-end metric of `phases` (`qps`) and records the
/// paced phase's latency.
pub fn query_metrics(report: &mut Report, phases: &Phases) {
    let qps = record_rate(report, "qps", &phases.saturate, |r| {
        f64::from(u8::from(r.body.is_query()))
    });
    report.metric("qps", qps, "1/s");
    record_latency(report, "", &phases.paced, |r| r.body.is_query());
    report.fact("generator_max_lateness_ms", phases.paced.max_lateness_ms);
}

/// Adds the durable-ingest metrics: the store's bytes per user byte is
/// gated; ingest latency, throughput and recovery time are recorded.
pub fn ingest_metrics(report: &mut Report, phases: &Phases, durability: &Durability) {
    record_latency(report, "ingest_", &phases.paced, |r| !r.body.is_query());
    let ops_s = record_rate(report, "ingest_ops_s", &phases.saturate, acked_frames);
    report.fact("ingest_ops_s", ops_s);
    report.fact("recovery_s", durability.recovery_s);
    let (wal, snapshot) = durability.store_bytes;
    report.metric(
        "store_bytes_per_user_byte",
        (wal + snapshot) as f64 / durability.user_bytes as f64,
        "ratio",
    );
    report.fact(
        "ingest_generator_max_lateness_ms",
        phases.paced.max_lateness_ms,
    );
    report.fact("store_wal_bytes", wal);
    report.fact("store_snapshot_bytes", snapshot);
    report.fact("acked_write_frames", durability.acked.frames);
}

/// Records the server's own counts of the run's queries.
pub fn record_counters(report: &mut Report, c: &ServerCounters) {
    report.fact(
        "server_queries",
        format!(
            "{} admitted, {} completed, {} degraded, {} overloaded, {} cache hits",
            c.queries_admitted,
            c.queries_completed,
            c.queries_degraded,
            c.overload_rejections,
            c.cache_hits
        ),
    );
}

/// Tallies attempted and failed operations.
pub fn count_ops<'a>(report: &mut Report, records: impl IntoIterator<Item = &'a Record>) {
    for record in records {
        report.attempted += 1;
        if let load::Outcome::Failed(why) = &record.outcome {
            report.failed += 1;
            if report.failed <= 3 {
                eprintln!("[e2ebench] operation failed: {why}");
            }
        }
    }
}

/// Checks answers against a reference over `objects`, on two threads,
/// each with its own reference database and half of the answers.
pub fn check_against<'a>(
    report: &mut Report,
    objects: &[(TrajectoryId, &'a Trajectory)],
    records: impl IntoIterator<Item = &'a Record>,
) -> Result<(), String> {
    let records: Vec<&Record> = records.into_iter().collect();
    let halves: Vec<Result<check::Verdict, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = records
            .chunks(records.len().div_ceil(2).max(1))
            .map(|half| {
                scope.spawn(move || {
                    let mut reference = Reference::build(objects.iter().copied())?;
                    check::check_answers(&mut reference, half.iter().copied())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("check thread panicked".into()))
            })
            .collect()
    });
    let mut verdict = check::Verdict::default();
    for half in halves {
        let half = half?;
        verdict.checked += half.checked;
        verdict.mismatches.extend(half.mismatches);
        verdict.reference_defects.extend(half.reference_defects);
    }
    report.fact("answers_checked", verdict.checked);
    report.fact("reference_defects", verdict.reference_defects.len());
    if let Some(first) = verdict.reference_defects.first() {
        eprintln!(
            "[e2ebench] WARNING: {} answer(s) where the single-index Query::run reference \
             disagrees with the exact scan while the served answer equals it; first: {first}",
            verdict.reference_defects.len()
        );
    }
    report.failed += verdict.mismatches.len() as u64;
    for m in verdict.mismatches {
        report.problem(m);
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let plan = Plan::new(args.workload, args.seconds);
    let mut report = Report::default();
    record_config(&mut report, args, &plan);
    let work = WorkDir::new(args.workload.name())?;
    match args.workload {
        Workload::HotShort | Workload::SpreadLong => {
            let served = setup_read(SETUP_REPEATS)?;
            record_shards(&mut report, &served.db);
            let universe = Arc::new(Universe::new(&served.fleet));
            let mut gens: Vec<OpGen> = (0..CONNS)
                .map(|c| OpGen::queries(Arc::clone(&universe), args.workload, args.seed, c))
                .collect();
            let addr = served.server.local_addr();
            let before = buffer_counts(&served.db);
            let mut phases = drive(addr, &mut gens, &plan, false)?;
            let after = buffer_counts(&served.db);
            phases.counters = counters(addr)?;
            served.server.shutdown();
            let (hits, misses) = (after.0 - before.0, after.1 - before.1);
            report.fact(
                "buffer_hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            let (lane, durability) = ingest_lane(&work, args.seed, &mut report)?;
            let objects: Vec<_> = served.fleet.iter().map(|(id, t)| (*id, t)).collect();
            check_against(&mut report, &objects, phases.all())?;
            count_ops(&mut report, phases.all().chain(lane.all()));
            report.metric("setup_s", served.setup_s, "s");
            record_counters(&mut report, &phases.counters);
            query_metrics(&mut report, &phases);
            ingest_metrics(&mut report, &lane, &durability);
        }
        Workload::IngestMixed => {
            let served = setup_durable(&work, data::OBJECTS, SETUP_REPEATS)?;
            record_shards(&mut report, &served.db);
            let universe = Arc::new(Universe::new(&served.fleet));
            let mut gens: Vec<OpGen> = (0..CONNS)
                .map(|c| OpGen::mixed(Arc::clone(&universe), args.seed, c))
                .collect();
            let addr = served.server.local_addr();
            let mut phases = drive(addr, &mut gens, &plan, true)?;
            // The quiesce point: every write has been acked, so these
            // answers have a well-defined reference.
            let quiesce: Vec<OpBody> = (0..QUIESCE_QUERIES)
                .map(|i| OpBody::Query(gens[i % CONNS].next_query()))
                .collect();
            phases.quiesce = load::serial(addr, quiesce, &mut load::NoHooks)?;
            phases.counters = counters(addr)?;
            let durability = stop_and_recover(
                served.server,
                &served.store,
                &served.fleet,
                phases.all(),
                &mut report,
            )?;
            let live = durability
                .acked
                .live
                .iter()
                .map(|(id, t)| (TrajectoryId(*id), t));
            let objects: Vec<_> = served
                .fleet
                .iter()
                .map(|(id, t)| (*id, t))
                .chain(live)
                .collect();
            check_against(&mut report, &objects, &phases.quiesce)?;
            count_ops(&mut report, phases.all());
            report.metric("setup_s", served.setup_s, "s");
            record_counters(&mut report, &phases.counters);
            query_metrics(&mut report, &phases);
            ingest_metrics(&mut report, &phases, &durability);
        }
    }
    let failed = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("success_share", 1.0 - failed, "ratio");
    report.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(report)
}
