//! The multiplexed serving core: a blocking acceptor, a pool of
//! non-blocking I/O workers, and one coalescer thread that batches the
//! queries pending across **all** connections into single executor
//! submissions.
//!
//! # Thread topology
//!
//! ```text
//! acceptor ──Conn──▶ io worker 0..N ──Event::Query──▶ coalescer
//!                        ▲                               │ try_submit_batch
//!                        └──────WorkerMsg::Response──────┤
//!                                                        ▼
//!                                         executor workers ──Event::Done──▶ (same channel)
//! ```
//!
//! * The **acceptor** owns the listener: cap check, then round-robin
//!   handoff of the raw stream to an I/O worker. It blocks in
//!   `accept()`; shutdown pokes it with a self-connection.
//! * Each **I/O worker** owns its connections outright: it reads
//!   non-blocking, carves frames incrementally
//!   ([`crate::protocol::split_frame_v2`]), answers `Stats`, `Shutdown`,
//!   handshakes and typed errors directly (so cheap requests overtake
//!   slow queries — the out-of-order guarantee), and forwards query
//!   work to the coalescer. A connection at its pipeline depth simply
//!   stops being read — TCP backpressure, no bookkeeping.
//! * The **coalescer** is the single wait point: incoming queries,
//!   finished executions, and worker drain notices all arrive on one
//!   channel. Per tick it serves answer-cache hits, attaches duplicate
//!   concurrent queries to one in-flight execution (dedup), and hands
//!   the whole backlog to the executor in **one**
//!   [`mst_exec::ExecHandle::try_submit_batch`] call.
//!
//! # Drain correctness
//!
//! Each worker sends all its `Query` events and then one `Drained`
//! event on the same channel sender, so per-sender FIFO guarantees the
//! coalescer has seen every forwarded query once all `Drained` notices
//! are in. It then runs the backlog dry, waits for `outstanding == 0`
//! (every forwarded query answered — admitted work is never dropped),
//! signals `CoalescerDone`, and the workers flush + close. A stall
//! bound (consecutive empty timeouts) caps the drain if an executor
//! outcome is lost to a bug, trading a hung shutdown for a loud one.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
// Park intervals and flush pauses below are scheduling inputs, not
// measurements; no clock is ever read in this module.
use std::time::Duration; // invariant: no clock is read; determinism holds

use mst_exec::{
    BatchQuery, IngestOp, OutcomeSink, QueryAnswer, QueryOutcome, RoutedQuery, SubmitError,
};
use mst_index::TrajectoryIndex;
use mst_search::QueryProfile;
use mst_trajectory::Trajectory;

use crate::cache::cache_key;
use crate::ingest::IngestBackend;
use crate::protocol::split_frame_v2;
use crate::protocol::{
    classify_first_payload, encode_frame_v2, ErrorCode, FirstFrame, Request, Response, SplitFrame,
    WireError, MAX_FRAME, VERSION,
};
use crate::server::{build_query, initiate_shutdown, ServerStats, Shared};

/// How long an I/O worker parks on its control channel when a pass made
/// no progress. Small: it bounds the latency of *discovering* a new
/// request on an otherwise idle connection.
const IO_PARK: Duration = Duration::from_micros(300);

/// The coalescer's park interval; also the unit of its drain stall
/// bound.
const COALESCER_PARK: Duration = Duration::from_millis(25);

/// Consecutive empty park intervals during a drain before the coalescer
/// declares a lost outcome and force-exits (~5 s).
const STALL_LIMIT: u32 = 200;

/// Cap on unflushed response bytes per connection. A peer that stops
/// reading while answers pile up gets disconnected instead of growing
/// server memory without bound.
const WRITE_BUF_CAP: usize = 8 << 20;

/// Read chunk size for the per-worker scratch buffer.
const READ_CHUNK: usize = 64 << 10;

/// Stop reading a connection whose parse buffer already holds this much
/// (a frame can legitimately be `4 + 8 + MAX_FRAME` bytes).
const READ_BUF_CAP: usize = (MAX_FRAME as usize + 12) * 2;

/// Bounded final flush after `CoalescerDone`: rounds x pause ≈ 1 s.
const DRAIN_FLUSH_ROUNDS: usize = 500;
const DRAIN_FLUSH_PAUSE: Duration = Duration::from_millis(2);

/// Control messages into an I/O worker.
pub(crate) enum WorkerMsg {
    /// A fresh connection from the acceptor.
    Conn(TcpStream),
    /// A response payload to frame and write to one connection.
    Response {
        conn: u64,
        request_id: u64,
        payload: Arc<Vec<u8>>,
    },
    /// The coalescer has answered everything; flush and exit.
    CoalescerDone,
}

/// Events into the coalescer — the single channel it blocks on.
pub(crate) enum Event {
    /// A validated query forwarded by an I/O worker.
    Query {
        worker: usize,
        conn: u64,
        request_id: u64,
        /// Canonical cache key (kind + options + geometry).
        key: Vec<u8>,
        query: BatchQuery,
    },
    /// A validated ingest operation forwarded by an I/O worker. The
    /// coalescer accumulates these into one write batch per tick and
    /// flushes it through the durable backend **before** submitting the
    /// tick's query backlog, so an acked write is visible to every query
    /// admitted after its ack.
    Ingest {
        worker: usize,
        conn: u64,
        request_id: u64,
        op: IngestOp,
    },
    /// A replication fetch forwarded by an I/O worker: a `Subscribe` or
    /// the ack-doubling-as-poll `ReplicaAck`. Served by the coalescer
    /// **after** the tick's write batch flushes, so every batch reflects
    /// the newest committed state.
    Repl {
        worker: usize,
        conn: u64,
        request_id: u64,
        /// First LSN the subscriber still needs.
        from_lsn: u64,
        /// Whether this was a `Subscribe` (a fresh stream; `from_lsn`
        /// below the floor triggers a snapshot bootstrap).
        subscribe: bool,
    },
    /// An execution finished (token, outcome) — delivered by the
    /// executor workers through [`EventSink`].
    Done(u64, QueryOutcome),
    /// A worker stopped forwarding queries (drain has begun). Sent on
    /// the same sender as that worker's `Query` events, so per-sender
    /// FIFO guarantees the coalescer has seen them all first.
    Drained,
}

/// Adapts the coalescer's event channel into the executor's
/// [`OutcomeSink`], so completions land in the same queue as new work
/// and the coalescer has exactly one thing to wait on.
struct EventSink(Sender<Event>);

impl OutcomeSink for EventSink {
    fn complete(&self, token: u64, outcome: QueryOutcome) {
        // invariant: a send failure means the coalescer already exited
        // (forced drain); the outcome is undeliverable by design then
        let _ = self.0.send(Event::Done(token, outcome));
    }
}

/// The acceptor's configuration crumb.
pub(crate) struct MuxConfig {
    pub(crate) max_connections: usize,
}

/// The accept loop: cap check, then round-robin handoff to the I/O
/// workers. Runs on the `mst-serve-accept` thread until shutdown.
pub(crate) fn accept_loop<I>(
    shared: &Arc<Shared<I>>,
    listener: &TcpListener,
    workers: &[Sender<WorkerMsg>],
    cfg: &MuxConfig,
) where
    I: TrajectoryIndex + Send + 'static,
{
    let mut next_worker = 0usize;
    while !shared.shutting_down.load(Ordering::SeqCst) {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            drop(stream);
            break;
        }
        // ordering: the live count is advisory admission control; a
        // slightly stale read admits or rejects one connection early,
        // never corrupts state.
        let live = shared.live_conns.load(Ordering::Relaxed);
        if live >= cfg.max_connections {
            ServerStats::bump(&shared.stats.connections_rejected);
            reject_connection(stream, cfg.max_connections);
            continue;
        }
        ServerStats::bump(&shared.stats.connections_accepted);
        // ordering: see the live count read above — same advisory gauge.
        shared.live_conns.fetch_add(1, Ordering::Relaxed);
        if workers.is_empty()
            || workers[next_worker % workers.len()]
                .send(WorkerMsg::Conn(stream))
                .is_err()
        {
            // The worker is gone (tear-down race): undo the registration
            // and let the dropped stream close the connection.
            // ordering: advisory gauge, as above.
            shared.live_conns.fetch_sub(1, Ordering::Relaxed);
        }
        next_worker = next_worker.wrapping_add(1);
    }
    // Dropping the listener here (by returning) refuses later connects.
}

/// Answers an over-cap connection with one v2 `Overloaded` frame at
/// request id 0 and closes it.
fn reject_connection(mut stream: TcpStream, max_connections: usize) {
    let payload = Response::Overloaded {
        queued: 0,
        capacity: u32::try_from(max_connections).unwrap_or(u32::MAX),
    }
    .encode();
    // invariant: the rejected client may already be gone; the rejection
    // frame is best-effort by design
    let _ = crate::protocol::write_frame_v2(&mut stream, 0, &payload);
}

/// One connection's state machine, owned by exactly one I/O worker.
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    /// Queries forwarded to the coalescer and not yet answered.
    inflight: usize,
    /// Granted pipeline depth (1 until the handshake completes).
    depth: usize,
    /// Handshake completed — subsequent frames are v2.
    handshaken: bool,
    /// The peer can still send (no EOF, no protocol violation).
    read_open: bool,
    /// Close once the write buffer drains (protocol violations answer
    /// first, then disconnect).
    close_after_flush: bool,
    /// Remove this connection now (socket dead or fully closed).
    dead: bool,
}

impl Conn {
    /// `max_depth` seeds `depth` as the negotiable cap; the handshake
    /// replaces it with the granted value.
    fn new(stream: TcpStream, max_depth: u16) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            inflight: 0,
            depth: usize::from(max_depth.max(1)),
            handshaken: false,
            read_open: true,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Queues one v2 frame for writing.
    fn queue_v2(&mut self, request_id: u64, payload: &[u8]) {
        if encode_frame_v2(&mut self.write_buf, request_id, payload).is_err() {
            let err = Response::Error {
                code: ErrorCode::Internal,
                message: "answer exceeds the frame cap; narrow the query".into(),
            }
            .encode();
            // invariant: the fallback error frame is tiny and cannot
            // itself exceed the frame cap
            let _ = encode_frame_v2(&mut self.write_buf, request_id, &err);
        }
    }

    /// Queues one legacy v1 frame — only used to answer v1 clients and
    /// pre-handshake garbage with a typed error before closing.
    fn queue_v1(&mut self, response: &Response) {
        let payload = response.encode();
        let len = u32::try_from(payload.len()).unwrap_or(0);
        if len == 0 || len > MAX_FRAME {
            return;
        }
        self.write_buf.extend_from_slice(&len.to_le_bytes());
        self.write_buf.extend_from_slice(&payload);
    }

    /// Drives pending bytes into the socket without blocking. Returns
    /// true when any byte moved.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    return progress;
                }
                Ok(n) => {
                    self.written += n;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return progress;
                }
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
            if self.close_after_flush {
                self.dead = true;
            }
        } else {
            if self.written > (1 << 20) {
                self.write_buf.drain(..self.written);
                self.written = 0;
            }
            if self.write_buf.len() - self.written > WRITE_BUF_CAP {
                // The peer stopped reading while answers piled up.
                self.dead = true;
            }
        }
        progress
    }

    /// Whether this worker pass should read the socket.
    fn wants_read(&self) -> bool {
        self.read_open
            && !self.close_after_flush
            && self.read_buf.len() < READ_BUF_CAP
            && (!self.handshaken || self.inflight < self.depth)
    }
}

/// One I/O worker: owns a set of connections, parses their frames,
/// answers cheap requests directly, forwards queries, writes responses.
pub(crate) fn io_worker_loop<I>(
    worker: usize,
    shared: &Arc<Shared<I>>,
    control: &Receiver<WorkerMsg>,
    events: &Sender<Event>,
    max_depth: u16,
) where
    I: TrajectoryIndex + Send + 'static,
{
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id = 0u64;
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut draining = false;
    let mut drained_sent = false;
    let mut done = false;

    loop {
        let mut progress = false;
        // 1. Drain control messages (new conns, responses, completion).
        loop {
            match control.try_recv() {
                Ok(msg) => {
                    progress = true;
                    handle_msg(
                        msg,
                        &mut conns,
                        &mut next_conn_id,
                        &mut done,
                        shared,
                        max_depth,
                    );
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    done = true;
                    break;
                }
            }
        }
        if !draining && shared.shutting_down.load(Ordering::SeqCst) {
            draining = true;
        }

        // 2. Per-connection I/O: write what's pending, read what's new,
        //    parse what's complete.
        let mut dead_conns: Vec<u64> = Vec::new();
        for (&id, conn) in conns.iter_mut() {
            if conn.flush() {
                progress = true;
            }
            if conn.dead {
                dead_conns.push(id);
                continue;
            }
            if !draining && conn.wants_read() {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        conn.read_open = false;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.dead = true;
                    }
                }
            }
            if !conn.dead && !draining {
                parse_frames(worker, id, conn, shared, events);
            }
            // A half-closed or violated connection lingers only until its
            // answers are out.
            if !conn.dead
                && !conn.read_open
                && conn.inflight == 0
                && conn.written == conn.write_buf.len()
            {
                conn.dead = true;
            }
            if conn.dead {
                dead_conns.push(id);
            }
        }
        for id in dead_conns {
            if conns.remove(&id).is_some() {
                // ordering: advisory connection gauge for admission
                // control; staleness admits/rejects one conn early.
                shared.live_conns.fetch_sub(1, Ordering::Relaxed);
                progress = true;
            }
        }

        // 3. Drain protocol: tell the coalescer our forwarded total once.
        if draining && !drained_sent {
            drained_sent = true;
            // invariant: if the coalescer is already gone the drain is
            // past the point where this notice matters
            let _ = events.send(Event::Drained);
        }

        // 4. Exit after the coalescer's final word: flush what remains
        //    (bounded), close everything, leave.
        if done {
            for _ in 0..DRAIN_FLUSH_ROUNDS {
                let mut all_clear = true;
                for conn in conns.values_mut() {
                    if !conn.dead && conn.written < conn.write_buf.len() {
                        conn.flush();
                        if !conn.dead && conn.written < conn.write_buf.len() {
                            all_clear = false;
                        }
                    }
                }
                if all_clear {
                    break;
                }
                std::thread::sleep(DRAIN_FLUSH_PAUSE);
            }
            let remaining = conns.len();
            conns.clear();
            // ordering: advisory gauge — final teardown bookkeeping.
            shared.live_conns.fetch_sub(remaining, Ordering::Relaxed);
            return;
        }

        // 5. Park briefly when idle; responses on the control channel
        //    wake us immediately.
        if !progress {
            match control.recv_timeout(IO_PARK) {
                Ok(msg) => handle_msg(
                    msg,
                    &mut conns,
                    &mut next_conn_id,
                    &mut done,
                    shared,
                    max_depth,
                ),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => done = true,
            }
        }
    }
}

fn handle_msg<I>(
    msg: WorkerMsg,
    conns: &mut HashMap<u64, Conn>,
    next_conn_id: &mut u64,
    done: &mut bool,
    shared: &Shared<I>,
    max_depth: u16,
) {
    match msg {
        WorkerMsg::Conn(stream) => {
            if stream.set_nonblocking(true).is_err() {
                // The whole design assumes non-blocking sockets; refuse.
                // ordering: advisory connection gauge (see accept_loop).
                shared.live_conns.fetch_sub(1, Ordering::Relaxed);
                return;
            }
            // invariant: nodelay is a latency optimisation; a socket that
            // rejects it still serves correctly
            let _ = stream.set_nodelay(true);
            conns.insert(*next_conn_id, Conn::new(stream, max_depth));
            *next_conn_id += 1;
        }
        WorkerMsg::Response {
            conn,
            request_id,
            payload,
        } => {
            if let Some(c) = conns.get_mut(&conn) {
                c.inflight = c.inflight.saturating_sub(1);
                c.queue_v2(request_id, &payload);
            }
            // A response for a connection that died in the meantime is
            // dropped — the peer is gone.
        }
        WorkerMsg::CoalescerDone => *done = true,
    }
}

/// Parses every complete frame in the connection's read buffer.
fn parse_frames<I>(
    worker: usize,
    conn_id: u64,
    conn: &mut Conn,
    shared: &Shared<I>,
    events: &Sender<Event>,
) where
    I: TrajectoryIndex + Send + 'static,
{
    loop {
        if conn.dead || conn.close_after_flush {
            return;
        }
        if !conn.handshaken {
            if !handshake(conn, shared) {
                return;
            }
            continue;
        }
        let (consumed, request_id, decoded) = match split_frame_v2(&conn.read_buf) {
            Ok(None) => return,
            Ok(Some(SplitFrame {
                consumed,
                request_id,
                payload,
            })) => (consumed, request_id, Request::decode(payload)),
            Err(wire) => {
                ServerStats::bump(&shared.stats.malformed_frames);
                let err = Response::Error {
                    code: ErrorCode::Malformed,
                    message: wire.to_string(),
                }
                .encode();
                conn.queue_v2(0, &err);
                conn.close_after_flush = true;
                return;
            }
        };
        conn.read_buf.drain(..consumed);
        let request = match decoded {
            Ok(request) => request,
            Err(wire) => {
                ServerStats::bump(&shared.stats.malformed_frames);
                let err = Response::Error {
                    code: ErrorCode::Malformed,
                    message: wire.to_string(),
                }
                .encode();
                conn.queue_v2(request_id, &err);
                conn.close_after_flush = true;
                return;
            }
        };
        ServerStats::bump(&shared.stats.requests_decoded);
        match request {
            Request::Hello { .. } => {
                ServerStats::bump(&shared.stats.malformed_frames);
                let err = Response::Error {
                    code: ErrorCode::Malformed,
                    message: "hello after the handshake".into(),
                }
                .encode();
                conn.queue_v2(request_id, &err);
                conn.close_after_flush = true;
                return;
            }
            // Answered directly on the I/O thread: a stats probe must
            // overtake slow queries pipelined ahead of it.
            Request::Stats => {
                let payload = Response::Stats(shared.stats_report()).encode();
                conn.queue_v2(request_id, &payload);
            }
            Request::Shutdown => {
                conn.queue_v2(request_id, &Response::ShutdownAck.encode());
                initiate_shutdown(shared);
                return;
            }
            Request::Insert { id, points } => {
                if !ingest_admitted(conn, request_id, shared) {
                    continue;
                }
                match Trajectory::new(points) {
                    Err(e) => {
                        ServerStats::bump(&shared.stats.invalid_queries);
                        let err = Response::Error {
                            code: ErrorCode::InvalidQuery,
                            message: e.to_string(),
                        }
                        .encode();
                        conn.queue_v2(request_id, &err);
                    }
                    Ok(trajectory) => {
                        conn.inflight += 1;
                        // invariant: see the query send below — a dead
                        // coalescer means a forced drain is tearing the
                        // connection down anyway
                        let _ = events.send(Event::Ingest {
                            worker,
                            conn: conn_id,
                            request_id,
                            op: IngestOp::Insert { id, trajectory },
                        });
                    }
                }
            }
            Request::Delete { id } => {
                if !ingest_admitted(conn, request_id, shared) {
                    continue;
                }
                conn.inflight += 1;
                // invariant: as above — undeliverable only under a drain
                let _ = events.send(Event::Ingest {
                    worker,
                    conn: conn_id,
                    request_id,
                    op: IngestOp::Delete { id },
                });
            }
            Request::Subscribe { from_lsn } => {
                if !repl_admitted(conn, request_id, shared) {
                    continue;
                }
                conn.inflight += 1;
                // invariant: as for queries — undeliverable only when a
                // forced drain is tearing the connection down anyway
                let _ = events.send(Event::Repl {
                    worker,
                    conn: conn_id,
                    request_id,
                    from_lsn,
                    subscribe: true,
                });
            }
            Request::ReplicaAck { lsn } => {
                if !repl_admitted(conn, request_id, shared) {
                    continue;
                }
                ServerStats::raise(&shared.stats.repl_acked_lsn, lsn);
                conn.inflight += 1;
                // invariant: as above — undeliverable only under a drain
                let _ = events.send(Event::Repl {
                    worker,
                    conn: conn_id,
                    request_id,
                    from_lsn: lsn.saturating_add(1),
                    subscribe: false,
                });
            }
            query_request => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    let err = Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".into(),
                    }
                    .encode();
                    conn.queue_v2(request_id, &err);
                    continue;
                }
                // Read-your-writes gate: a query carrying `min_lsn` is
                // admitted only once this server's applied watermark has
                // reached it. Refusal is typed and immediate (never a
                // block on the I/O thread) so the client can retry or
                // fail over.
                if let Some(required) = request_min_lsn(&query_request) {
                    if !shared.watermark.reached(required) {
                        let err = Response::Error {
                            code: ErrorCode::ReplicaLagging {
                                required,
                                watermark: shared.watermark.current(),
                            },
                            message: "replica has not caught up to the requested LSN".into(),
                        }
                        .encode();
                        conn.queue_v2(request_id, &err);
                        continue;
                    }
                }
                let Some(key) = cache_key(&query_request) else {
                    // Unreachable by construction (all four query kinds
                    // have keys), but a typed answer beats a panic.
                    let err = Response::Error {
                        code: ErrorCode::Internal,
                        message: "request has no query key".into(),
                    }
                    .encode();
                    conn.queue_v2(request_id, &err);
                    continue;
                };
                match build_query(query_request) {
                    Err(message) => {
                        ServerStats::bump(&shared.stats.invalid_queries);
                        let err = Response::Error {
                            code: ErrorCode::InvalidQuery,
                            message,
                        }
                        .encode();
                        conn.queue_v2(request_id, &err);
                    }
                    Ok(query) => {
                        conn.inflight += 1;
                        // invariant: a send failure means the coalescer
                        // exited under a forced drain; the connection is
                        // about to be torn down with it
                        let _ = events.send(Event::Query {
                            worker,
                            conn: conn_id,
                            request_id,
                            key,
                            query,
                        });
                    }
                }
            }
        }
    }
}

/// Gate on an ingest frame: a read-only server (no durable backend)
/// answers `ReadOnly`, a draining server answers `ShuttingDown` — both
/// directly on the I/O thread. Returns whether the operation may be
/// forwarded to the coalescer's write lane.
fn ingest_admitted<I>(conn: &mut Conn, request_id: u64, shared: &Shared<I>) -> bool {
    if shared.replica {
        let err = Response::Error {
            code: ErrorCode::NotPrimary,
            message: "this server is a read-only replica; write to the primary".into(),
        }
        .encode();
        conn.queue_v2(request_id, &err);
        return false;
    }
    if !shared.ingest_enabled {
        let err = Response::Error {
            code: ErrorCode::ReadOnly,
            message: "this server has no durable store; start it with one to ingest".into(),
        }
        .encode();
        conn.queue_v2(request_id, &err);
        return false;
    }
    if shared.shutting_down.load(Ordering::SeqCst) {
        let err = Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".into(),
        }
        .encode();
        conn.queue_v2(request_id, &err);
        return false;
    }
    true
}

/// Gate on a replication frame: a replica answers `NotPrimary` (streams
/// fan out from the primary only), a server with no durable store
/// answers `ReadOnly` (there is no log to ship), a draining server
/// answers `ShuttingDown`. Returns whether the fetch may be forwarded
/// to the coalescer's replication lane.
fn repl_admitted<I>(conn: &mut Conn, request_id: u64, shared: &Shared<I>) -> bool {
    if shared.replica {
        let err = Response::Error {
            code: ErrorCode::NotPrimary,
            message: "this server is a replica; subscribe to the primary".into(),
        }
        .encode();
        conn.queue_v2(request_id, &err);
        return false;
    }
    if !shared.ingest_enabled {
        let err = Response::Error {
            code: ErrorCode::ReadOnly,
            message: "this server has no durable store and therefore no log to ship".into(),
        }
        .encode();
        conn.queue_v2(request_id, &err);
        return false;
    }
    if shared.shutting_down.load(Ordering::SeqCst) {
        let err = Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".into(),
        }
        .encode();
        conn.queue_v2(request_id, &err);
        return false;
    }
    true
}

/// The read-your-writes token carried by a query request, if any.
fn request_min_lsn(request: &Request) -> Option<u64> {
    match request {
        Request::Kmst { options, .. }
        | Request::Knn { options, .. }
        | Request::KnnSegments { options, .. }
        | Request::Range { options, .. } => options.min_lsn,
        _ => None,
    }
}

/// Runs the version handshake on the first complete frame. Returns false
/// when more bytes are needed (or the connection is now closing).
fn handshake<I>(conn: &mut Conn, shared: &Shared<I>) -> bool {
    // Both protocol versions open with the same [len: u32] prefix.
    if conn.read_buf.len() < 4 {
        return false;
    }
    let len = u32::from_le_bytes([
        conn.read_buf[0],
        conn.read_buf[1],
        conn.read_buf[2],
        conn.read_buf[3],
    ]);
    if len == 0 || len > MAX_FRAME + 8 {
        ServerStats::bump(&shared.stats.malformed_frames);
        conn.queue_v1(&Response::Error {
            code: ErrorCode::Malformed,
            message: WireError::Oversized(len).to_string(),
        });
        conn.close_after_flush = true;
        return false;
    }
    let total = 4 + len as usize;
    if conn.read_buf.len() < total {
        return false;
    }
    let verdict = classify_first_payload(&conn.read_buf[4..total]);
    match verdict {
        FirstFrame::V2Hello => {
            let decoded = Request::decode(&conn.read_buf[12..total]);
            conn.read_buf.drain(..total);
            match decoded {
                Ok(Request::Hello {
                    min_version,
                    max_version,
                    depth,
                }) => {
                    if min_version > VERSION || max_version < VERSION {
                        let err = Response::Error {
                            code: ErrorCode::UnsupportedVersion {
                                min: VERSION,
                                max: VERSION,
                            },
                            message: format!(
                                "server speaks protocol v{VERSION}; client offered \
                                 v{min_version}..=v{max_version}"
                            ),
                        }
                        .encode();
                        conn.queue_v2(0, &err);
                        conn.close_after_flush = true;
                        return false;
                    }
                    ServerStats::bump(&shared.stats.requests_decoded);
                    let granted = depth.max(1).min(conn_depth_cap(conn));
                    conn.depth = usize::from(granted);
                    conn.handshaken = true;
                    let ack = Response::HelloAck {
                        version: VERSION,
                        depth: granted,
                    }
                    .encode();
                    conn.queue_v2(0, &ack);
                    true
                }
                _ => {
                    ServerStats::bump(&shared.stats.malformed_frames);
                    let err = Response::Error {
                        code: ErrorCode::Malformed,
                        message: "malformed hello".into(),
                    }
                    .encode();
                    conn.queue_v2(0, &err);
                    conn.close_after_flush = true;
                    false
                }
            }
        }
        FirstFrame::V1Request => {
            // A legacy v1 client: answer in *its* framing with a typed
            // error so it fails loudly, never hangs, never sees silence.
            conn.queue_v1(&Response::Error {
                code: ErrorCode::UnsupportedVersion {
                    min: VERSION,
                    max: VERSION,
                },
                message: format!(
                    "this server speaks wire protocol v{VERSION}; \
                     upgrade the client and open with a hello frame"
                ),
            });
            conn.close_after_flush = true;
            false
        }
        FirstFrame::Unknown => {
            ServerStats::bump(&shared.stats.malformed_frames);
            conn.queue_v1(&Response::Error {
                code: ErrorCode::Malformed,
                message: "first frame is neither a v2 hello nor a v1 request".into(),
            });
            conn.close_after_flush = true;
            false
        }
    }
}

/// The depth cap stored on the connection before the handshake is the
/// configured maximum (the worker seeds it there); expressed as a
/// helper so the clamp reads clearly.
fn conn_depth_cap(conn: &Conn) -> u16 {
    u16::try_from(conn.depth).unwrap_or(u16::MAX)
}

/// One in-flight (or backlogged) execution and everyone waiting on it.
struct PendingExec {
    key: Vec<u8>,
    deadline_us: Option<u64>,
    /// Cache generation observed at admission; guards the insert.
    generation: u64,
    waiters: Vec<(usize, u64, u64)>,
    /// The query itself, present while backlogged, taken at submission.
    query: Option<BatchQuery>,
}

/// The coalescer: the single wait point turning per-connection request
/// streams into batched executor submissions and fanned-out responses.
pub(crate) fn coalescer_loop<I>(
    shared: &Arc<Shared<I>>,
    events: &Receiver<Event>,
    sink_tx: Sender<Event>,
    workers: &[Sender<WorkerMsg>],
    queue_capacity: usize,
    mut ingest: Option<Box<dyn IngestBackend>>,
) where
    I: TrajectoryIndex + Send + 'static,
{
    let sink: Arc<dyn OutcomeSink> = Arc::new(EventSink(sink_tx));
    let mut pending: HashMap<u64, PendingExec> = HashMap::new();
    let mut dedup: HashMap<(Vec<u8>, Option<u64>), u64> = HashMap::new();
    let mut backlog: VecDeque<u64> = VecDeque::new();
    // Ingest frames accumulated this tick: (worker, conn, request_id, op).
    let mut write_batch: Vec<(usize, u64, u64, IngestOp)> = Vec::new();
    // Replication fetches accumulated this tick:
    // (worker, conn, request_id, from_lsn, subscribe).
    let mut repl_batch: Vec<(usize, u64, u64, u64, bool)> = Vec::new();
    let mut next_token = 0u64;
    // Queries received and not yet answered (any path).
    let mut outstanding = 0usize;
    let mut drained_workers = 0usize;
    let mut stall = 0u32;

    loop {
        let draining = shared.shutting_down.load(Ordering::SeqCst);
        match events.recv_timeout(COALESCER_PARK) {
            Ok(event) => {
                stall = 0;
                handle_event(
                    event,
                    shared,
                    workers,
                    &mut pending,
                    &mut dedup,
                    &mut backlog,
                    &mut write_batch,
                    &mut repl_batch,
                    &mut next_token,
                    &mut outstanding,
                    &mut drained_workers,
                    queue_capacity,
                );
                while let Ok(event) = events.try_recv() {
                    handle_event(
                        event,
                        shared,
                        workers,
                        &mut pending,
                        &mut dedup,
                        &mut backlog,
                        &mut write_batch,
                        &mut repl_batch,
                        &mut next_token,
                        &mut outstanding,
                        &mut drained_workers,
                        queue_capacity,
                    );
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if draining {
                    stall = stall.saturating_add(1);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Durable writes first — one group commit for everything this
        // tick — so a query admitted below sees every acked ingest.
        flush_write_batch(
            shared,
            workers,
            &mut ingest,
            &mut write_batch,
            &mut outstanding,
        );

        // Replication fetches next: they run **after** the flush so a
        // subscriber polling right behind a write batch always ships the
        // records that batch just committed.
        serve_replication(
            shared,
            workers,
            &mut ingest,
            &mut repl_batch,
            &mut outstanding,
        );

        // One batched submission per tick: the whole backlog in one
        // queue-lock round-trip; the executor admits a prefix.
        submit_backlog(
            shared,
            workers,
            &sink,
            &mut pending,
            &mut dedup,
            &mut backlog,
            &mut outstanding,
        );

        if draining
            && drained_workers >= workers.len()
            && backlog.is_empty()
            && (outstanding == 0 || stall > STALL_LIMIT)
        {
            break;
        }
        if draining && stall > STALL_LIMIT {
            // Lost-outcome backstop: a hung executor must not hang the
            // drain forever. Whatever is left gets no answer; the flush
            // below still delivers everything already queued.
            break;
        }
    }
    for tx in workers {
        // invariant: a worker that already exited needs no completion
        // notice; the drain proceeds with the rest
        let _ = tx.send(WorkerMsg::CoalescerDone);
    }
}

/// Sends one response payload to the worker owning the connection.
fn respond(
    workers: &[Sender<WorkerMsg>],
    worker: usize,
    conn: u64,
    request_id: u64,
    payload: Arc<Vec<u8>>,
) {
    if let Some(tx) = workers.get(worker) {
        // invariant: a worker gone mid-teardown drops its connections
        // with it; the undeliverable response has no reader anyway
        let _ = tx.send(WorkerMsg::Response {
            conn,
            request_id,
            payload,
        });
    }
}

/// Encodes a response, downgrading an over-cap answer to a typed
/// internal error (mirrors the v1 server's contract).
fn encode_capped(response: &Response) -> Arc<Vec<u8>> {
    let bytes = response.encode();
    if bytes.len() > MAX_FRAME as usize {
        return Arc::new(
            Response::Error {
                code: ErrorCode::Internal,
                message: "answer exceeds the frame cap; narrow the query".into(),
            }
            .encode(),
        );
    }
    Arc::new(bytes)
}

/// Flushes the tick's accumulated ingest operations through the durable
/// backend as **one** write batch (one WAL group commit), answers every
/// writer with its per-operation outcome, and invalidates the answer
/// cache if any operation changed state. Runs before `submit_backlog`
/// each tick, so queries admitted afterwards see the new state; the
/// generation guard in [`crate::cache::AnswerCache::insert_if`] drops
/// any in-flight answer computed against the pre-ingest state.
fn flush_write_batch<I>(
    shared: &Shared<I>,
    workers: &[Sender<WorkerMsg>],
    ingest: &mut Option<Box<dyn IngestBackend>>,
    write_batch: &mut Vec<(usize, u64, u64, IngestOp)>,
    outstanding: &mut usize,
) where
    I: TrajectoryIndex + Send + 'static,
{
    if write_batch.is_empty() {
        return;
    }
    let batch = std::mem::take(write_batch);
    *outstanding = outstanding.saturating_sub(batch.len());
    let Some(backend) = ingest.as_mut() else {
        // Unreachable: the I/O workers gate ingest frames on
        // `Shared::ingest_enabled`, which is true only with a backend.
        let payload = encode_capped(&Response::Error {
            code: ErrorCode::ReadOnly,
            message: "this server has no durable store".into(),
        });
        for (worker, conn, request_id, _) in batch {
            respond(workers, worker, conn, request_id, Arc::clone(&payload));
        }
        return;
    };
    let ops: Vec<IngestOp> = batch.iter().map(|(_, _, _, op)| op.clone()).collect();
    let outcome = backend.apply_batch(&ops);
    // Counters, gauges, and the cache settle BEFORE any ack goes out: a
    // client that pipelines a stats probe (answered on the I/O thread)
    // right behind its acked write must see the write reflected. The
    // watermark in particular must advance before acks, so a client
    // threading `Ingested.lsn` into its next read's `min_lsn` is always
    // admitted here on the primary.
    let committed = backend.committed_lsn();
    shared.watermark.advance(committed);
    ServerStats::raise(&shared.stats.repl_committed_lsn, committed);
    ServerStats::raise(&shared.stats.repl_applied_lsn, committed);
    // WAL counters are gauges owned by the backend; mirror, don't add.
    let wal = backend.wal_counters();
    // ordering: monotonic stats gauges; stale reads only undercount a probe
    shared
        .stats
        .wal_appends
        .store(wal.appends, Ordering::Relaxed);
    // ordering: monotonic stats gauges; stale reads only undercount a probe
    shared.stats.wal_fsyncs.store(wal.fsyncs, Ordering::Relaxed);
    shared
        .stats
        .replayed_records
        // ordering: monotonic stats gauges; stale reads only undercount a probe
        .store(wal.replayed_records, Ordering::Relaxed);
    match outcome {
        Ok(results) => {
            let applied_count = results
                .iter()
                .filter(|r| matches!(r, Ok((_, true))))
                .count() as u64;
            if applied_count > 0 {
                ServerStats::bump_by(&shared.stats.ingest_applied, applied_count);
                // An answer computed against the old state must never be
                // served after an ingest ack.
                shared.cache.invalidate();
            }
            for ((worker, conn, request_id, _), result) in batch.into_iter().zip(results) {
                let response = match result {
                    Ok((lsn, applied)) => Response::Ingested { lsn, applied },
                    Err(message) => Response::Error {
                        code: ErrorCode::InvalidQuery,
                        message,
                    },
                };
                respond(workers, worker, conn, request_id, encode_capped(&response));
            }
        }
        Err(message) => {
            // Store-level failure: nothing was acked; every writer in the
            // batch hears the same internal error.
            let payload = encode_capped(&Response::Error {
                code: ErrorCode::Internal,
                message,
            });
            for (worker, conn, request_id, _) in batch {
                respond(workers, worker, conn, request_id, Arc::clone(&payload));
            }
        }
    }
}

/// Cap on record bytes per `Replicate` response. Keeps any one batch
/// well inside the frame cap while still amortising the round trip
/// during catch-up.
const REPL_BATCH_BYTES: usize = 1 << 20;

/// Answers the tick's accumulated replication fetches from the durable
/// backend's committed log. Runs right after `flush_write_batch`, so a
/// poll that raced a write batch onto the same tick ships that batch's
/// records. A subscriber whose `from_lsn` sits below the log floor
/// (checkpoints truncated past it — or the bootstrap sentinel
/// `from_lsn == 0`, since the floor is always at least 1) receives a
/// full snapshot at the committed LSN instead of records. An empty
/// record batch with no snapshot is the heartbeat: it still carries the
/// primary's committed LSN, so lag gauges stay live under a write-idle
/// primary.
fn serve_replication<I>(
    shared: &Shared<I>,
    workers: &[Sender<WorkerMsg>],
    ingest: &mut Option<Box<dyn IngestBackend>>,
    repl_batch: &mut Vec<(usize, u64, u64, u64, bool)>,
    outstanding: &mut usize,
) where
    I: TrajectoryIndex + Send + 'static,
{
    if repl_batch.is_empty() {
        return;
    }
    let batch = std::mem::take(repl_batch);
    *outstanding = outstanding.saturating_sub(batch.len());
    let Some(backend) = ingest.as_mut() else {
        // Unreachable: `repl_admitted` gates on `ingest_enabled`.
        let payload = encode_capped(&Response::Error {
            code: ErrorCode::ReadOnly,
            message: "this server has no durable store".into(),
        });
        for (worker, conn, request_id, _, _) in batch {
            respond(workers, worker, conn, request_id, Arc::clone(&payload));
        }
        return;
    };
    let committed = backend.committed_lsn();
    ServerStats::raise(&shared.stats.repl_committed_lsn, committed);
    ServerStats::raise(&shared.stats.repl_applied_lsn, committed);
    for (worker, conn, request_id, from_lsn, _subscribe) in batch {
        let floor = match backend.replication_floor() {
            Ok(floor) => floor,
            Err(message) => {
                let payload = encode_capped(&Response::Error {
                    code: ErrorCode::Internal,
                    message,
                });
                respond(workers, worker, conn, request_id, payload);
                continue;
            }
        };
        let response = if from_lsn < floor {
            // The log no longer reaches back far enough (or this is the
            // bootstrap sentinel): ship a full snapshot instead.
            match backend.encode_snapshot() {
                Ok(snapshot) => Response::Replicate {
                    committed_lsn: committed,
                    snapshot: Some(snapshot),
                    records: Vec::new(),
                },
                Err(message) => Response::Error {
                    code: ErrorCode::Internal,
                    message,
                },
            }
        } else {
            match backend.read_records(from_lsn, REPL_BATCH_BYTES) {
                Ok(records) => {
                    if records.is_empty() {
                        ServerStats::bump(&shared.stats.repl_heartbeats);
                    } else {
                        ServerStats::bump_by(
                            &shared.stats.repl_records_shipped,
                            records.len() as u64,
                        );
                    }
                    Response::Replicate {
                        committed_lsn: committed,
                        snapshot: None,
                        records,
                    }
                }
                Err(message) => Response::Error {
                    code: ErrorCode::Internal,
                    message,
                },
            }
        };
        respond(workers, worker, conn, request_id, encode_capped(&response));
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_event<I>(
    event: Event,
    shared: &Shared<I>,
    workers: &[Sender<WorkerMsg>],
    pending: &mut HashMap<u64, PendingExec>,
    dedup: &mut HashMap<(Vec<u8>, Option<u64>), u64>,
    backlog: &mut VecDeque<u64>,
    write_batch: &mut Vec<(usize, u64, u64, IngestOp)>,
    repl_batch: &mut Vec<(usize, u64, u64, u64, bool)>,
    next_token: &mut u64,
    outstanding: &mut usize,
    drained_workers: &mut usize,
    queue_capacity: usize,
) where
    I: TrajectoryIndex + Send + 'static,
{
    match event {
        Event::Query {
            worker,
            conn,
            request_id,
            key,
            query,
        } => {
            *outstanding += 1;
            // 1. Answer cache: a certified answer for the same canonical
            //    query goes straight back out.
            if let Some(hit) = shared.cache.lookup(&key) {
                ServerStats::bump(&shared.stats.cache_hits);
                ServerStats::bump(&shared.stats.queries_completed);
                let delta = QueryProfile {
                    answer_cache_hits: 1,
                    ..QueryProfile::default()
                };
                if let Ok(mut profile) = shared.profile.lock() {
                    profile.merge(&delta);
                }
                respond(workers, worker, conn, request_id, hit);
                *outstanding -= 1;
                return;
            }
            ServerStats::bump(&shared.stats.cache_misses);
            // 2. Dedup: identical queries (same canonical key AND same
            //    deadline class) concurrently in flight share one
            //    execution. The deadline rides in the dedup key so a
            //    no-deadline query can never be answered by a
            //    potentially-degraded deadline-bearing execution.
            let deadline_us = query.options().deadline_us;
            let dk = (key.clone(), deadline_us);
            if let Some(&token) = dedup.get(&dk) {
                if let Some(p) = pending.get_mut(&token) {
                    p.waiters.push((worker, conn, request_id));
                    return;
                }
            }
            // 3. A new execution: backlog it for the next batch
            //    submission, unless the backlog is already full — then
            //    the newest query answers a typed overload.
            if backlog.len() >= queue_capacity {
                ServerStats::bump(&shared.stats.overload_rejections);
                let queued =
                    u32::try_from(backlog.len() + shared.exec.queue_depth()).unwrap_or(u32::MAX);
                let capacity = u32::try_from(queue_capacity).unwrap_or(u32::MAX);
                let payload = encode_capped(&Response::Overloaded { queued, capacity });
                respond(workers, worker, conn, request_id, payload);
                *outstanding -= 1;
                return;
            }
            let token = *next_token;
            *next_token += 1;
            pending.insert(
                token,
                PendingExec {
                    key,
                    deadline_us,
                    generation: shared.cache.generation(),
                    waiters: vec![(worker, conn, request_id)],
                    query: Some(query),
                },
            );
            dedup.insert(dk, token);
            backlog.push_back(token);
        }
        Event::Ingest {
            worker,
            conn,
            request_id,
            op,
        } => {
            *outstanding += 1;
            write_batch.push((worker, conn, request_id, op));
        }
        Event::Repl {
            worker,
            conn,
            request_id,
            from_lsn,
            subscribe,
        } => {
            *outstanding += 1;
            repl_batch.push((worker, conn, request_id, from_lsn, subscribe));
        }
        Event::Done(token, mut outcome) => {
            let Some(entry) = pending.remove(&token) else {
                return;
            };
            dedup.remove(&(entry.key.clone(), entry.deadline_us));
            let waiters = entry.waiters;
            ServerStats::bump_by(&shared.stats.queries_completed, waiters.len() as u64);
            if outcome.degraded {
                ServerStats::bump_by(&shared.stats.queries_degraded, waiters.len() as u64);
            }
            // Every waiter of this execution was a cache miss; the
            // profile's miss count mirrors the stats counter.
            outcome.profile.answer_cache_misses = waiters.len() as u64;
            if let Ok(mut profile) = shared.profile.lock() {
                profile.merge(&outcome.profile);
            }
            let degraded = outcome.degraded;
            let response = match outcome.answer {
                QueryAnswer::Kmst(matches) => Response::Kmst { degraded, matches },
                QueryAnswer::Knn(matches) => Response::Knn { degraded, matches },
                QueryAnswer::Segments(matches) => Response::Segments { degraded, matches },
                QueryAnswer::Range(entries) => Response::Range { degraded, entries },
            };
            let payload = encode_capped(&response);
            // Only certified answers are cached, and only if no
            // invalidation happened since this query was admitted.
            if !degraded {
                shared
                    .cache
                    .insert_if(entry.key, Arc::clone(&payload), entry.generation);
            }
            *outstanding = outstanding.saturating_sub(waiters.len());
            for (worker, conn, request_id) in waiters {
                respond(workers, worker, conn, request_id, Arc::clone(&payload));
            }
        }
        Event::Drained => {
            *drained_workers += 1;
        }
    }
}

/// Hands the entire backlog to the executor in one batched call. The
/// admitted prefix leaves the backlog; capacity rejections stay (in
/// order) for the next tick; shutdown rejections answer typed errors.
fn submit_backlog<I>(
    shared: &Shared<I>,
    workers: &[Sender<WorkerMsg>],
    sink: &Arc<dyn OutcomeSink>,
    pending: &mut HashMap<u64, PendingExec>,
    dedup: &mut HashMap<(Vec<u8>, Option<u64>), u64>,
    backlog: &mut VecDeque<u64>,
    outstanding: &mut usize,
) where
    I: TrajectoryIndex + Send + 'static,
{
    if backlog.is_empty() {
        return;
    }
    let mut batch: Vec<RoutedQuery> = Vec::with_capacity(backlog.len());
    let mut tokens: Vec<u64> = Vec::with_capacity(backlog.len());
    while let Some(token) = backlog.pop_front() {
        let Some(entry) = pending.get_mut(&token) else {
            continue;
        };
        let Some(query) = entry.query.take() else {
            continue;
        };
        tokens.push(token);
        batch.push(RoutedQuery { token, query });
    }
    if batch.is_empty() {
        return;
    }
    let admission = shared.exec.try_submit_batch(batch, sink);
    ServerStats::bump_by(&shared.stats.queries_admitted, admission.admitted as u64);
    for rejected in admission.rejected {
        match rejected.reason {
            SubmitError::Overloaded { .. } => {
                // Not dropped, not client-rejected: the query keeps its
                // backlog slot and rides the next tick's batch.
                if let Some(entry) = pending.get_mut(&rejected.token) {
                    entry.query = Some(rejected.query);
                    backlog.push_back(rejected.token);
                }
            }
            SubmitError::ShuttingDown => {
                // The executor is gone (forced teardown): answer typed.
                if let Some(entry) = pending.remove(&rejected.token) {
                    dedup.remove(&(entry.key.clone(), entry.deadline_us));
                    let payload = encode_capped(&Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".into(),
                    });
                    *outstanding = outstanding.saturating_sub(entry.waiters.len());
                    for (worker, conn, request_id) in entry.waiters {
                        respond(workers, worker, conn, request_id, Arc::clone(&payload));
                    }
                }
            }
        }
    }
}
