//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Spans are recorded from this benchmark's own code around its calls
//! into each crate's public functions (name, start, end, parent, request
//! id), kept in memory and written to `.bench_trace/` when the run ends.
//! The end-to-end metrics are measured by the untraced run; here the
//! paced phase runs in chunks that alternate untraced and traced, and the
//! difference of the two sides' p50s is the tracing overhead.
//!
//! Layers are the repository's crates: `serve` (wire codec, coalescer,
//! I/O), `exec` (admission queue, fan-out, merge), `search` (BFMST in
//! `crates/core`), `index` (pages, buffer, node codec, MINDIST) and `wal`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mst_exec::{BatchExecutor, BatchQuery, ExecHandle, IngestOp, QueryControl, Stopwatch};
use mst_index::{
    checksum, mindist::trajectory_mbb_mindist, Node, PageId, Rtree3D, TrajectoryIndex,
};
use mst_search::{dissim, Integration, KmstSpec, Query, QueryProfile};
use mst_serve::{Request, Response, ServerCounters, ServerHandle};
use mst_trajectory::{Mbb, Segment, TrajectoryId};
use mst_wal::{FileStore, WalConfig, WalRecord, WalWriter};

use crate::conn::Conn;
use crate::data::{OpBody, OpGen, QuerySpec, Universe, Workload};
use crate::durable::{self, WorkDir};
use crate::load::{self, Hooks, Record};
use crate::run::{self, Plan, CONNS, DEPTH, QUEUE};
use crate::stats::{mean, median, percentile, sorted, Report};
use crate::Args;

/// Serial probe queries of the layered decomposition.
const PROBE_QUERIES: usize = 60;
/// Queries of the in-process executor loop.
const EXEC_QUERIES: usize = 300;
/// Serial replaces of the ingest probes.
const INGEST_PROBES: usize = 10;
/// The paced phase runs in this many untraced/traced chunk pairs.
const OVERHEAD_CHUNKS: usize = 4;

/// One span: a timed call, its parent span and the request it served.
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    fn dur_us(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// A span's duration minus the part its children cover (children of
    /// one span never overlap here: the benchmark calls them in turn).
    fn self_us(&self, i: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let s = &self.spans[i];
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e3
    }

    fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    /// Writes the spans as JSON lines under `.bench_trace/`.
    fn write(&self, tag: &str) -> Result<String, String> {
        use std::io::Write;
        std::fs::create_dir_all(".bench_trace").map_err(|e| format!("trace dir: {e}"))?;
        let path = format!(".bench_trace/{tag}.jsonl");
        let file = std::fs::File::create(&path).map_err(|e| format!("trace file: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )
            .map_err(|e| format!("trace write: {e}"))?;
        }
        out.flush().map_err(|e| format!("trace write: {e}"))?;
        Ok(path)
    }
}

/// Open-loop hooks that record a request span with the request encode
/// and each response decode as its children.
struct SpanHooks {
    spans: Spans,
    /// Encode/decode spans waiting for their request's root span.
    pending: std::collections::HashMap<u64, Vec<(&'static str, Instant, Instant)>>,
}

impl SpanHooks {
    fn new(origin: Instant) -> SpanHooks {
        SpanHooks {
            spans: Spans::new(origin),
            pending: Default::default(),
        }
    }
}

impl Hooks for SpanHooks {
    fn encoded(&mut self, op: u64, start: Instant, end: Instant) {
        self.pending
            .entry(op)
            .or_default()
            .push(("serve.encode_request", start, end));
    }
    fn decoded(&mut self, op: u64, start: Instant, end: Instant) {
        self.pending
            .entry(op)
            .or_default()
            .push(("serve.decode_response", start, end));
    }
    fn finished(&mut self, op: u64, start: Instant, end: Instant) {
        let root = self.spans.record("client.op", op, None, start, end);
        for (name, s, e) in self.pending.remove(&op).unwrap_or_default() {
            // The request is encoded ahead of its due time, so only the
            // codec work inside the op's window is its child.
            if s >= start {
                self.spans.record(name, op, Some(root), s, e);
            }
        }
    }
}

fn exec_handle(
    db: &Arc<mst_exec::ShardedDatabase<Rtree3D>>,
) -> Result<ExecHandle<Rtree3D>, String> {
    BatchExecutor::new()
        .workers(2)
        .queue_capacity(QUEUE)
        .submit_handle(Arc::clone(db))
        .map_err(|e| format!("exec handle: {e}"))
}

fn batch_query(q: &QuerySpec) -> Result<BatchQuery, String> {
    BatchQuery::kmst(Query::kmst(&q.query).k(q.k).during(&q.period))
        .map_err(|e| format!("batch query: {e}"))
}

fn spec(q: &QuerySpec) -> Result<KmstSpec, String> {
    Query::kmst(&q.query)
        .k(q.k)
        .during(&q.period)
        .spec()
        .map_err(|e| format!("spec: {e}"))
}

/// The serial layered probe: per query, the loopback round trip, the
/// same query through an in-process `ExecHandle`, and its fan-out run
/// shard by shard with one shared bound, as the executor does.
struct Layered {
    roundtrip_us: Vec<f64>,
    ticket_us: Vec<f64>,
    latency_us: Vec<f64>,
    max_shard_us: Vec<f64>,
    shard_us: Vec<f64>,
    harness_self_us: Vec<f64>,
    nodes: Vec<f64>,
    misses: Vec<f64>,
}

fn layered_probe(
    spans: &mut Spans,
    addr: SocketAddr,
    handle: &ExecHandle<Rtree3D>,
    db: &mst_exec::ShardedDatabase<Rtree3D>,
    queries: &[QuerySpec],
) -> Result<Layered, String> {
    let mut conn = Conn::connect(addr, 1)?;
    let mut out = Layered {
        roundtrip_us: Vec::new(),
        ticket_us: Vec::new(),
        latency_us: Vec::new(),
        max_shard_us: Vec::new(),
        shard_us: Vec::new(),
        harness_self_us: Vec::new(),
        nodes: Vec::new(),
        misses: Vec::new(),
    };
    for (r, q) in queries.iter().enumerate() {
        let r = r as u64;
        let t0 = Instant::now();
        // serve: the loopback round trip.
        let e0 = Instant::now();
        let payload = q.request().encode();
        let e1 = Instant::now();
        let body = conn.call(&payload)?;
        let d0 = Instant::now();
        let response = Response::decode(&body).map_err(|e| format!("decode: {e}"))?;
        let d1 = Instant::now();
        if !matches!(
            response,
            Response::Kmst {
                degraded: false,
                ..
            }
        ) {
            return Err(format!("probe query failed: {response:?}"));
        }
        // exec: the same query through an in-process handle.
        let batch = batch_query(q)?;
        let x0 = Instant::now();
        let outcome = handle
            .submit(batch)
            .map_err(|e| format!("submit: {e}"))?
            .wait()
            .map_err(|e| format!("ticket: {e}"))?;
        let x1 = Instant::now();
        // search: the fan-out, shard by shard.
        let spec = spec(q)?;
        let control = QueryControl::with_sharing(Stopwatch::start(), None, true);
        let f0 = Instant::now();
        let mut shard_spans = Vec::new();
        let mut profile = QueryProfile::default();
        for shard in db.shards() {
            let s0 = Instant::now();
            shard
                .run_kmst(&spec, &control, &mut profile)
                .map_err(|e| format!("run_kmst: {e}"))?;
            shard_spans.push((s0, Instant::now()));
        }
        let f1 = Instant::now();
        let t1 = Instant::now();
        let root = spans.record("request", r, None, t0, t1);
        let rt = spans.record("serve.roundtrip", r, Some(root), e0, d1);
        spans.record("serve.encode_request", r, Some(rt), e0, e1);
        spans.record("serve.decode_response", r, Some(rt), d0, d1);
        let ticket = spans.record("exec.ticket", r, Some(root), x0, x1);
        let fan = spans.record("exec.fanout", r, Some(root), f0, f1);
        let mut shard_durs = Vec::new();
        for (s0, s1) in shard_spans {
            let i = spans.record("search.shard_kmst", r, Some(fan), s0, s1);
            shard_durs.push(spans.dur_us(i));
        }
        out.roundtrip_us.push(spans.dur_us(rt));
        out.ticket_us.push(spans.dur_us(ticket));
        out.latency_us.push(outcome.latency_us as f64);
        out.max_shard_us
            .push(shard_durs.iter().copied().fold(0.0, f64::max));
        out.shard_us.extend(shard_durs);
        out.harness_self_us.push(spans.self_us(root));
        out.nodes.push(profile.nodes_accessed() as f64);
        out.misses.push(profile.buffer_misses as f64);
    }
    Ok(out)
}

/// The in-process executor loop: up to `QUEUE` tickets outstanding.
struct ExecLoop {
    queue_wait_us: Vec<f64>,
    latency_us: Vec<f64>,
    profile: QueryProfile,
    queries: usize,
}

fn exec_loop(handle: &ExecHandle<Rtree3D>, queries: &[QuerySpec]) -> Result<ExecLoop, String> {
    let mut out = ExecLoop {
        queue_wait_us: Vec::new(),
        latency_us: Vec::new(),
        profile: QueryProfile::default(),
        queries: queries.len(),
    };
    let mut outstanding: Vec<(mst_exec::Ticket, Instant)> = Vec::new();
    let mut next = 0;
    while next < queries.len() || !outstanding.is_empty() {
        while next < queries.len() && outstanding.len() < QUEUE {
            let ticket = handle
                .submit(batch_query(&queries[next])?)
                .map_err(|e| format!("submit: {e}"))?;
            outstanding.push((ticket, Instant::now()));
            next += 1;
        }
        let mut i = 0;
        let mut progressed = false;
        while i < outstanding.len() {
            let done = outstanding[i]
                .0
                .try_wait()
                .map_err(|e| format!("ticket: {e}"))?;
            if let Some(outcome) = done {
                let waited = outstanding[i].1.elapsed().as_secs_f64() * 1e6;
                out.queue_wait_us
                    .push((waited - outcome.latency_us as f64).max(0.0));
                out.latency_us.push(outcome.latency_us as f64);
                out.profile.merge(&outcome.profile);
                outstanding.swap_remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            std::thread::sleep(std::time::Duration::from_micros(20));
        }
    }
    Ok(out)
}

/// A page image: its id and its encoded bytes with the checksum embedded.
type PageImage = (PageId, Vec<u8>);

/// Every page image of every shard, plus the internal-node MBBs.
fn page_images(
    db: &mst_exec::ShardedDatabase<Rtree3D>,
) -> Result<(Vec<PageImage>, Vec<Mbb>), String> {
    let mut images = Vec::new();
    let mut mbbs = Vec::new();
    for shard in db.shards() {
        shard
            .index()
            .with(|index| -> Result<(), String> {
                let mut stack: Vec<PageId> = index.root().into_iter().collect();
                while let Some(page) = stack.pop() {
                    let node = index
                        .read_node(page)
                        .map_err(|e| format!("read node: {e}"))?;
                    if let Node::Internal { entries, .. } = &node {
                        for e in entries {
                            stack.push(e.child);
                            mbbs.push(e.mbb);
                        }
                    }
                    let mut bytes = node.encode();
                    checksum::embed(&mut bytes);
                    images.push((page, bytes));
                }
                Ok(())
            })
            .map_err(|e| format!("index lock: {e}"))??;
    }
    Ok((images, mbbs))
}

/// Mean nanoseconds per call of `f` over `n` calls (at least once).
fn time_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n.max(1) {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Distinct pages the probe queries touch: the queries run cold, one
/// shard at a time, against an unbounded buffer, so each page misses
/// exactly once. Restores the paper's buffer sizing afterwards.
fn working_set(
    db: &mst_exec::ShardedDatabase<Rtree3D>,
    queries: &[QuerySpec],
) -> Result<u64, String> {
    let lock = |e| format!("index lock: {e}");
    db.set_buffer_capacity(Some(1 << 24))
        .map_err(|e| format!("buffer: {e}"))?;
    for shard in db.shards() {
        shard
            .index()
            .with(|i| i.clear_buffer().map(|_| i.reset_stats()))
            .map_err(lock)?
            .map_err(|e| format!("clear: {e}"))?;
    }
    let mut misses = 0;
    for q in queries {
        let spec = spec(q)?;
        let control = QueryControl::with_sharing(Stopwatch::start(), None, true);
        let mut profile = QueryProfile::default();
        for shard in db.shards() {
            shard
                .run_kmst(&spec, &control, &mut profile)
                .map_err(|e| format!("run_kmst: {e}"))?;
        }
        misses += profile.buffer_misses;
    }
    db.set_buffer_capacity(None)
        .map_err(|e| format!("buffer: {e}"))?;
    Ok(misses)
}

/// Serial replaces over a depth-1 connection, once the stream's live
/// set is full (so every probe deletes as well as inserts).
fn ingest_wire_probe(addr: SocketAddr, gen: &mut OpGen) -> Result<Vec<f64>, String> {
    run::fill(addr, std::slice::from_mut(gen))?;
    let ops: Vec<OpBody> = (0..INGEST_PROBES).map(|_| gen.fill_write()).collect();
    let records = load::serial(addr, ops, &mut load::NoHooks)?;
    Ok(records
        .iter()
        .filter(|r| !r.failed())
        .map(|r| r.latency_ms)
        .collect())
}

/// In-process timings on a recovered store: `apply_independent` on
/// replace-shaped bursts, and `ShardedDatabase::apply_op` for inserts and
/// deletes.
fn durable_in_process(
    report: &mut Report,
    recovered: &mut durable::Durable,
    universe: &Universe,
    wire_ms: &[f64],
) -> Result<(), String> {
    let mut rng = mst_prng::Rng::seed_from(0x1a9e);
    let mut ids: Vec<TrajectoryId> = (0..INGEST_PROBES as u64)
        .map(|i| TrajectoryId((3 << 32) + i))
        .collect();
    // Seed the probe's own objects, then replace each by a new one.
    let first: Vec<IngestOp> = ids
        .iter()
        .map(|id| IngestOp::Insert {
            id: *id,
            trajectory: universe.new_trajectory(&mut rng),
        })
        .collect();
    recovered.apply(&first).map_err(|e| format!("apply: {e}"))?;
    let mut burst_ms = Vec::new();
    for (i, id) in ids.iter_mut().enumerate() {
        let fresh = TrajectoryId((4 << 32) + i as u64);
        let burst = [
            IngestOp::Delete { id: *id },
            IngestOp::Insert {
                id: fresh,
                trajectory: universe.new_trajectory(&mut rng),
            },
        ];
        let start = Instant::now();
        let results = recovered
            .apply_independent(&burst)
            .map_err(|e| format!("apply_independent: {e}"))?;
        burst_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if results.iter().any(|r| !matches!(r, Ok((_, true)))) {
            return Err(format!("in-process replace refused: {results:?}"));
        }
        *id = fresh;
    }
    report.metric(
        "serve.ingest_gap_ms",
        median(wire_ms) - median(&burst_ms),
        "ms",
    );
    report.metric("wal.apply_burst_ms", median(&burst_ms), "ms");
    let db = Arc::clone(recovered.database());
    let (mut insert_us, mut delete_us) = (Vec::new(), Vec::new());
    for i in 0..INGEST_PROBES as u64 {
        let id = TrajectoryId((5 << 32) + i);
        let trajectory = universe.new_trajectory(&mut rng);
        let start = Instant::now();
        db.apply_op(&IngestOp::Insert { id, trajectory })
            .map_err(|e| format!("apply_op: {e}"))?;
        insert_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        db.apply_op(&IngestOp::Delete { id })
            .map_err(|e| format!("apply_op: {e}"))?;
        delete_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    report.metric("exec.apply_insert_us", median(&insert_us), "us");
    report.metric("exec.apply_delete_us", median(&delete_us), "us");
    Ok(())
}

/// `WalWriter::commit` on replace-shaped bursts in a scratch store.
fn wal_commit_ms(work: &WorkDir, universe: &Universe) -> Result<Vec<f64>, String> {
    let store = FileStore::open(work.sub("commit-probe")).map_err(|e| format!("store: {e}"))?;
    let mut writer =
        WalWriter::create(store, WalConfig::default(), 1).map_err(|e| format!("wal: {e}"))?;
    let mut rng = mst_prng::Rng::seed_from(0xc0);
    let mut out = Vec::new();
    for i in 0..INGEST_PROBES as u64 {
        for op in [
            IngestOp::Delete {
                id: TrajectoryId(i),
            },
            IngestOp::Insert {
                id: TrajectoryId(i + 1000),
                trajectory: universe.new_trajectory(&mut rng),
            },
        ] {
            writer
                .append(&WalRecord::from_op(&op))
                .map_err(|e| format!("append: {e}"))?;
        }
        let start = Instant::now();
        writer.commit().map_err(|e| format!("commit: {e}"))?;
        out.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// Stops a durable server and measures replay, recovery and the store.
fn stop_durable(
    report: &mut Report,
    server: ServerHandle<Rtree3D>,
    store: &std::path::Path,
    (snapshot_lsn, seed_wal_bytes): (u64, u64),
    counters: &ServerCounters,
) -> Result<durable::Durable, String> {
    server.shutdown();
    drop(server);
    let (wal_bytes, _) = durable::store_bytes(store)?;
    let files = FileStore::open(store).map_err(|e| format!("store: {e}"))?;
    let start = Instant::now();
    let replayed = mst_wal::replay(&files, snapshot_lsn + 1).map_err(|e| format!("replay: {e}"))?;
    report.metric("wal.replay_ms", start.elapsed().as_secs_f64() * 1e3, "ms");
    report.fact("wal_replayed_records", replayed.records.len());
    let (recovered, recovery_s) = durable::recover(store)?;
    report.metric("wal.recover_ms", recovery_s * 1e3, "ms");
    report.metric("wal.fsyncs", counters.wal_fsyncs as f64, "count");
    report.metric(
        "wal.appends_per_fsync",
        counters.wal_appends as f64 / counters.wal_fsyncs.max(1) as f64,
        "ratio",
    );
    report.metric(
        "wal.bytes_per_op",
        wal_bytes.saturating_sub(seed_wal_bytes) as f64 / counters.wal_appends.max(1) as f64,
        "B",
    );
    Ok(recovered)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let plan = Plan::new(args.workload, args.seconds);
    let mut report = Report::default();
    run::record_config(&mut report, args, &plan);
    let work = WorkDir::new(&format!("trace-{}", args.workload.name()))?;
    let mut spans = Spans::new(origin);

    // The served system, set up once.
    let (server, db, fleet, store) = match args.workload {
        Workload::IngestMixed => {
            let s = run::setup_durable(&work, crate::data::OBJECTS, 1)?;
            (s.server, s.db, s.fleet, Some((s.store, s.seed_wal_bytes)))
        }
        _ => {
            let s = run::setup_read(1)?;
            (s.server, s.db, s.fleet, None)
        }
    };
    let sizes = run::record_shards(&mut report, &db);
    let addr = server.local_addr();
    let universe = Arc::new(Universe::new(&fleet));
    let mut gens: Vec<OpGen> = (0..CONNS)
        .map(|c| match args.workload {
            Workload::IngestMixed => OpGen::mixed(Arc::clone(&universe), args.seed, c),
            w => OpGen::queries(Arc::clone(&universe), w, args.seed, c),
        })
        .collect();
    let writes = args.workload == Workload::IngestMixed;

    // Warm-up and saturate untraced; then the paced phase in chunks that
    // alternate untraced and traced, so both see the same conditions.
    let before = run::buffer_counts(&db);
    let mut phases = run::drive(addr, &mut gens, &Plan { paced: 0, ..plan }, writes)?;
    let chunk = plan.paced.div_ceil(OVERHEAD_CHUNKS);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0..OVERHEAD_CHUNKS {
        for traced_turn in [i % 2 == 1, i % 2 == 0] {
            if traced_turn {
                let mut hooks: Vec<SpanHooks> =
                    (0..CONNS).map(|_| SpanHooks::new(origin)).collect();
                let part = load::open_loop(addr, &mut gens, &mut hooks, DEPTH, plan.rate, chunk)?;
                for h in hooks {
                    spans.absorb(h.spans);
                }
                traced.extend(part.records);
            } else {
                let mut hooks: Vec<load::NoHooks> = (0..CONNS).map(|_| load::NoHooks).collect();
                let part = load::open_loop(addr, &mut gens, &mut hooks, DEPTH, plan.rate, chunk)?;
                untraced.extend(part.records);
            }
        }
    }
    let after = run::buffer_counts(&db);
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    phases.paced.records = untraced;
    let untraced_p50 = percentile(
        &run::latencies(&phases.paced.records, |r| r.body.is_query()),
        50.0,
    );
    let traced_p50 = percentile(&run::latencies(&traced, |r| r.body.is_query()), 50.0);
    report.fact("untraced_p50_ms", untraced_p50);
    report.fact("traced_p50_ms", traced_p50);
    report.metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms");

    // Wire sizes and codec costs over this workload's own frames.
    let answered: Vec<&Record> = phases
        .all()
        .filter(|r| r.body.is_query() && !r.failed())
        .collect();
    report.metric(
        "serve.request_bytes",
        mean(
            &answered
                .iter()
                .map(|r| r.request_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "B",
    );
    report.metric(
        "serve.response_bytes",
        mean(
            &answered
                .iter()
                .map(|r| r.response_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "B",
    );
    let sample: Vec<&Record> = answered.iter().copied().take(2000).collect();
    let requests: Vec<Vec<u8>> = sample
        .iter()
        .map(|r| r.body.requests()[0].encode())
        .collect();
    let responses: Vec<Response> = sample
        .iter()
        .filter_map(|r| match &r.outcome {
            load::Outcome::Answer(m) => Some(Response::Kmst {
                degraded: false,
                matches: m.clone(),
            }),
            _ => None,
        })
        .collect();
    let decode_ns = time_ns(requests.len() * 5, |i| {
        let decoded = Request::decode(&requests[i % requests.len()]);
        std::hint::black_box(decoded.is_ok());
    });
    let encode_ns = time_ns(responses.len() * 5, |i| {
        std::hint::black_box(responses[i % responses.len()].encode());
    });
    report.metric("serve.decode_us", decode_ns / 1e3, "us");
    report.metric("serve.encode_us", encode_ns / 1e3, "us");

    // The layered serial probe and the in-process executor loop.
    let probe_queries: Vec<QuerySpec> = (0..PROBE_QUERIES)
        .map(|i| gens[i % CONNS].next_query())
        .collect();
    let exec_queries: Vec<QuerySpec> = (0..EXEC_QUERIES)
        .map(|i| gens[i % CONNS].next_query())
        .collect();
    let handle = exec_handle(&db)?;
    let layered = layered_probe(&mut spans, addr, &handle, &db, &probe_queries)?;
    let exec = exec_loop(&handle, &exec_queries)?;
    handle.shutdown();

    // The ingest side: the served durable store on `ingest-mixed`, the
    // small lane store on the read workloads.
    let ingest_universe;
    let (ingest_server, ingest_store, seeded, mut ingest_gen) = match store {
        Some((path, seed_wal_bytes)) => {
            ingest_universe = Arc::clone(&universe);
            let gen = OpGen::writes(Arc::clone(&universe), args.seed ^ 0x7ace, CONNS);
            (None, path, (fleet.len() as u64, seed_wal_bytes), gen)
        }
        None => {
            let lane = run::setup_durable(&work, run::LANE_OBJECTS, 1)?;
            ingest_universe = Arc::new(Universe::new(&lane.fleet));
            let gen = OpGen::writes(Arc::clone(&ingest_universe), args.seed ^ 0x7ace, CONNS);
            let seeded = (lane.fleet.len() as u64, lane.seed_wal_bytes);
            (Some(lane.server), lane.store, seeded, gen)
        }
    };
    let ingest_addr = ingest_server.as_ref().map_or(addr, |s| s.local_addr());
    let wire_ms = ingest_wire_probe(ingest_addr, &mut ingest_gen)?;
    let main_counters = run::counters(addr)?;
    let ingest_counters = run::counters(ingest_addr)?;
    report.metric("serve.ingest_wire_ms", median(&wire_ms), "ms");

    // Stop everything; the durable store is replayed and recovered.
    let mut recovered = match ingest_server {
        Some(lane) => {
            server.shutdown();
            stop_durable(&mut report, lane, &ingest_store, seeded, &ingest_counters)?
        }
        None => stop_durable(&mut report, server, &ingest_store, seeded, &ingest_counters)?,
    };
    durable_in_process(&mut report, &mut recovered, &ingest_universe, &wire_ms)?;
    drop(recovered);
    let commit = wal_commit_ms(&work, &ingest_universe)?;
    report.metric("wal.commit_ms", median(&commit), "ms");

    // serve: counters of the served run.
    let c = &main_counters;
    report.metric(
        "serve.admitted_per_completed",
        c.queries_admitted as f64 / c.queries_completed.max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.cache_hit_share",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.overload_rejections",
        c.overload_rejections as f64,
        "count",
    );

    // index: unit costs over the tree's own pages and MBBs.
    let (images, mbbs) = page_images(&db)?;
    let node_decode_ns = time_ns(images.len() * 3, |i| {
        let (page, bytes) = &images[i % images.len()];
        std::hint::black_box(Node::decode(*page, bytes).is_ok());
    });
    let checksum_ns = time_ns(images.len() * 3, |i| {
        std::hint::black_box(checksum::verify(&images[i % images.len()].1).is_ok());
    });
    let mbb_sample: Vec<&Mbb> = mbbs.iter().step_by((mbbs.len() / 2000).max(1)).collect();
    let pairs = mbb_sample.len() * probe_queries.len().min(20);
    let mindist_ns = time_ns(pairs, |i| {
        let q = &probe_queries[(i / mbb_sample.len()) % probe_queries.len()];
        let mbb = mbb_sample[i % mbb_sample.len()];
        std::hint::black_box(trajectory_mbb_mindist(&q.query, mbb, &q.period));
    });
    report.metric("index.node_decode_us", node_decode_ns / 1e3, "us");
    report.metric("index.checksum_us", checksum_ns / 1e3, "us");
    report.metric("index.mindist_ns", mindist_ns, "ns");
    for (i, (pages, buffer)) in sizes.iter().enumerate() {
        report.metric(&format!("index.pages_s{i}"), *pages as f64, "pages");
        report.metric(&format!("index.buffer_pages_s{i}"), *buffer as f64, "pages");
    }
    let buffer_total: usize = sizes.iter().map(|(_, b)| b).sum();
    let ws = working_set(&db, &exec_queries)?;
    report.metric("index.working_set_pages", ws as f64, "pages");
    report.metric(
        "index.working_set_over_buffer",
        ws as f64 / buffer_total.max(1) as f64,
        "ratio",
    );
    report.metric(
        "index.buffer_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );

    // search: DISSIM piece cost over this workload's segment pairs.
    let mut seg_pairs: Vec<(Segment, Segment)> = Vec::new();
    for q in probe_queries.iter().take(20) {
        let other = &universe.trajectories[seg_pairs.len() % universe.trajectories.len()];
        for seg in q.query.segments() {
            let (a, b) = (seg.start().t, seg.end().t);
            if let (Ok(p), Ok(r)) = (other.sample_at(a), other.sample_at(b)) {
                if let Ok(t) = Segment::new(p, r) {
                    seg_pairs.push((seg, t));
                }
            }
        }
    }
    for (name, integration) in [
        ("search.piece_exact_ns", Integration::Exact),
        ("search.piece_trapezoid_ns", Integration::Trapezoid),
    ] {
        let ns = time_ns(seg_pairs.len() * 5, |i| {
            let (q, t) = &seg_pairs[i % seg_pairs.len()];
            std::hint::black_box(dissim::piece(q, t, integration).is_ok());
        });
        report.metric(name, ns, "ns");
    }

    // exec + search + index: the in-process executor loop's profile.
    let n = exec.queries.max(1) as f64;
    let p = &exec.profile;
    let pr = &p.pruning;
    let wait = sorted(exec.queue_wait_us.clone());
    report.metric("exec.queue_wait_p50_us", percentile(&wait, 50.0), "us");
    report.metric("exec.queue_wait_p99_us", percentile(&wait, 99.0), "us");
    report.metric("exec.query_us", median(&exec.latency_us), "us");
    report.metric(
        "exec.fanout_us",
        median(&layered.latency_us) - median(&layered.max_shard_us),
        "us",
    );
    report.metric(
        "exec.shared_kth_prunes",
        pr.shared_kth_prunes as f64 / n,
        "count",
    );
    report.metric("search.shard_kmst_us", median(&layered.shard_us), "us");
    report.metric(
        "search.candidates_seen",
        p.candidates.seen as f64 / n,
        "count",
    );
    report.metric(
        "search.candidates_refined",
        p.candidates.refined as f64 / n,
        "count",
    );
    let k = exec_queries.first().map_or(1, |q| q.k) as f64;
    report.metric(
        "search.refine_yield",
        k / (p.candidates.refined as f64 / n).max(1e-9),
        "ratio",
    );
    let evals = pr.ldd_evals
        + pr.opt_dissim_evals
        + pr.pes_dissim_evals
        + pr.opt_dissim_inc_evals
        + pr.min_dissim_inc_evals
        + pr.shared_kth_evals
        + pr.triangle_ineq_evals;
    let prunes = pr.opt_dissim_prunes
        + pr.opt_dissim_inc_prunes
        + pr.min_dissim_inc_prunes
        + pr.shared_kth_prunes
        + pr.triangle_ineq_prunes;
    report.metric("search.bound_evals", evals as f64 / n, "count");
    report.metric("search.bound_prunes", prunes as f64 / n, "count");
    report.metric("search.heap_pushes", p.heap_pushes as f64 / n, "count");
    report.metric(
        "search.exact_piece_evals",
        p.exact_piece_evals as f64 / n,
        "count",
    );
    report.metric(
        "search.trapezoid_piece_evals",
        p.trapezoid_piece_evals as f64 / n,
        "count",
    );
    report.metric(
        "index.nodes_per_query",
        p.nodes_accessed() as f64 / n,
        "count",
    );
    report.metric(
        "index.misses_per_query",
        p.buffer_misses as f64 / n,
        "count",
    );
    report.metric(
        "index.bytes_decoded_per_query",
        p.bytes_decoded as f64 / n,
        "B",
    );

    // Self time per layer, from the layered probe's spans (medians).
    let index_est: Vec<f64> = layered
        .nodes
        .iter()
        .zip(&layered.misses)
        .map(|(nodes, misses)| nodes * node_decode_ns / 1e3 + misses * checksum_ns / 1e3)
        .collect();
    let serve_self: Vec<f64> = layered
        .roundtrip_us
        .iter()
        .zip(&layered.ticket_us)
        .map(|(rt, t)| rt - t)
        .collect();
    let exec_self: Vec<f64> = layered
        .ticket_us
        .iter()
        .zip(&layered.latency_us)
        .map(|(t, l)| t - l)
        .collect();
    let search_self: Vec<f64> = layered
        .latency_us
        .iter()
        .zip(&index_est)
        .map(|(l, i)| l - i)
        .collect();
    report.metric("serve.self_us", median(&serve_self), "us");
    report.metric("exec.self_us", median(&exec_self), "us");
    report.metric("search.self_us", median(&search_self), "us");
    report.metric("index.self_us", median(&index_est), "us");
    report.metric(
        "trace.harness_self_us",
        median(&layered.harness_self_us),
        "us",
    );
    report.metric(
        "serve.wire_gap_ms",
        (median(&layered.roundtrip_us) - median(&layered.ticket_us)) / 1e3,
        "ms",
    );
    report.fact("spans", spans.spans.len());
    let path = spans.write(&format!("{}-{}", args.workload.name(), args.seed))?;
    report.fact("spans_file", path);
    report.fact("probe_queries", PROBE_QUERIES);
    report.fact("exec_loop_queries", EXEC_QUERIES);
    report.attempted = (phases.all().count() + traced.len()) as u64;
    report.failed = phases.all().chain(&traced).filter(|r| r.failed()).count() as u64;
    Ok(report)
}
