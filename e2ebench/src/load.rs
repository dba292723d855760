//! The two load shapes, each driven by at most two client threads with
//! one pipelined connection apiece:
//!
//! * **closed loop** (saturate): every connection keeps `depth`
//!   requests in flight and sends the next one only when an answer
//!   returns, until it has sent its share of a fixed op count;
//! * **open loop** (paced): requests are due on a fixed schedule at a
//!   stated total rate and are sent when due regardless of answers
//!   (up to the connection's depth); latency is timed from the due time,
//!   so a stall also charges the requests queued behind it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mst_search::MstMatch;
use mst_serve::Response;

use crate::conn::Conn;
use crate::data::{OpBody, OpGen};

/// How one operation ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    Answer(Vec<MstMatch>),
    /// Every frame of a replace was acked as applied.
    Ingested,
    Failed(String),
}

/// One finished operation.
pub struct Record {
    pub body: OpBody,
    pub latency_ms: f64,
    pub outcome: Outcome,
    /// Request and response payload bytes on the wire, all frames.
    pub request_bytes: usize,
    pub response_bytes: usize,
    /// Frames of a replace acked as applied: (delete, insert).
    pub acked: (bool, bool),
    /// When the op's latency started (its due time in the open loop) and
    /// when its last frame was answered.
    pub start: Instant,
    pub done: Instant,
}

impl Record {
    pub fn failed(&self) -> bool {
        matches!(self.outcome, Outcome::Failed(_))
    }
}

/// What a phase returns: every record plus the generator's lateness.
pub struct PhaseResult {
    pub records: Vec<Record>,
    /// Largest delay between an op's due time and its send (open loop).
    pub max_lateness_ms: f64,
}

/// Per-request hooks of the traced run: how long encoding and decoding
/// took, reported with the request's id and its start/end instants.
pub trait Hooks: Send {
    fn encoded(&mut self, _op: u64, _start: Instant, _end: Instant) {}
    fn decoded(&mut self, _op: u64, _start: Instant, _end: Instant) {}
    fn finished(&mut self, _op: u64, _start: Instant, _end: Instant) {}
}

/// The untraced run's hooks: nothing recorded.
pub struct NoHooks;
impl Hooks for NoHooks {}

/// An op on the wire: its frames' ids resolve to it until all answered.
struct InFlight {
    op: u64,
    body: OpBody,
    start: Instant,
    request_bytes: usize,
    response_bytes: usize,
    frames_left: usize,
    failure: Option<String>,
    answer: Option<Vec<MstMatch>>,
    acked: (bool, bool),
}

struct Wire {
    conn: Conn,
    /// Frame id -> (op slot, frame index within the op).
    frames: HashMap<u64, (u64, usize)>,
    ops: HashMap<u64, InFlight>,
    next_op: u64,
    conn_tag: u64,
}

impl Wire {
    fn new(addr: SocketAddr, depth: u16, conn_tag: u64) -> Result<Wire, String> {
        Ok(Wire {
            conn: Conn::connect(addr, depth)?,
            frames: HashMap::new(),
            ops: HashMap::new(),
            next_op: 0,
            conn_tag,
        })
    }

    fn frames_in_flight(&self) -> usize {
        self.frames.len()
    }

    fn encode(&self, body: &OpBody, hooks: &mut dyn Hooks) -> Vec<Vec<u8>> {
        let op = self.op_tag(self.next_op);
        let start = Instant::now();
        let payloads = body.requests().iter().map(|r| r.encode()).collect();
        hooks.encoded(op, start, Instant::now());
        payloads
    }

    fn op_tag(&self, op: u64) -> u64 {
        self.conn_tag << 48 | op
    }

    /// Sends every frame of `body`; the op's latency runs from `start`.
    fn send(&mut self, body: OpBody, payloads: Vec<Vec<u8>>, start: Instant) -> Result<(), String> {
        let op = self.next_op;
        self.next_op += 1;
        let mut request_bytes = 0;
        for (i, payload) in payloads.iter().enumerate() {
            let id = self.conn.send(payload)?;
            self.frames.insert(id, (op, i));
            request_bytes += payload.len();
        }
        self.ops.insert(
            op,
            InFlight {
                op: self.op_tag(op),
                body,
                start,
                request_bytes,
                response_bytes: 0,
                frames_left: payloads.len(),
                failure: None,
                answer: None,
                acked: (false, false),
            },
        );
        Ok(())
    }

    /// Waits until `deadline` for one frame; returns the op it completed.
    fn recv(
        &mut self,
        deadline: Option<Instant>,
        hooks: &mut dyn Hooks,
    ) -> Result<Option<Record>, String> {
        let Some((id, payload)) = self.conn.recv(deadline)? else {
            return Ok(None);
        };
        let (op, frame) = self
            .frames
            .remove(&id)
            .ok_or_else(|| format!("answer for unknown request id {id}"))?;
        let entry = self
            .ops
            .get_mut(&op)
            .ok_or_else(|| format!("answer for a finished op {op}"))?;
        entry.response_bytes += payload.len();
        entry.frames_left -= 1;
        let start = Instant::now();
        let response = Response::decode(&payload);
        hooks.decoded(entry.op, start, Instant::now());
        let has_delete = matches!(
            entry.body,
            OpBody::Replace {
                delete: Some(_),
                ..
            }
        );
        match (&entry.body, response) {
            (
                OpBody::Query(_),
                Ok(Response::Kmst {
                    degraded: false,
                    matches,
                }),
            ) => {
                entry.answer = Some(matches);
            }
            (OpBody::Replace { .. }, Ok(Response::Ingested { applied: true, .. })) => {
                if has_delete && frame == 0 {
                    entry.acked.0 = true;
                } else {
                    entry.acked.1 = true;
                }
            }
            (_, Ok(Response::Kmst { degraded: true, .. })) => {
                entry.failure = Some("degraded answer".into());
            }
            (_, Ok(Response::Ingested { applied: false, .. })) => {
                entry.failure = Some("ingest acked as not applied".into());
            }
            (_, Ok(Response::Overloaded { .. })) => entry.failure = Some("overloaded".into()),
            (_, Ok(Response::Error { code, message })) => {
                entry.failure = Some(format!("error {code:?}: {message}"));
            }
            (_, Ok(other)) => entry.failure = Some(format!("unexpected response {other:?}")),
            (_, Err(e)) => entry.failure = Some(format!("undecodable response: {e}")),
        }
        if entry.frames_left > 0 {
            return Ok(None);
        }
        let done = Instant::now();
        let entry = self.ops.remove(&op).expect("op present");
        hooks.finished(entry.op, entry.start, done);
        let outcome = match (entry.failure, entry.answer) {
            (Some(why), _) => Outcome::Failed(why),
            (None, Some(matches)) => Outcome::Answer(matches),
            (None, None) => Outcome::Ingested,
        };
        Ok(Some(Record {
            body: entry.body,
            latency_ms: (done - entry.start).as_secs_f64() * 1e3,
            outcome,
            request_bytes: entry.request_bytes,
            response_bytes: entry.response_bytes,
            acked: entry.acked,
            start: entry.start,
            done,
        }))
    }
}

/// Closed loop: each connection keeps `depth` frames in flight until it
/// has sent its share of `ops`, then drains. A fixed amount of work (not
/// a fixed window) keeps what the phase writes, and so what recovery
/// replays, the same on every run of a seed.
pub fn closed_loop(
    addr: SocketAddr,
    gens: &mut [OpGen],
    depth: u16,
    ops: usize,
) -> Result<PhaseResult, String> {
    let share = ops.div_ceil(gens.len().max(1));
    let per_conn: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(c, gen)| scope.spawn(move || closed_conn(addr, gen, depth, share, c as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut records = Vec::new();
    for r in per_conn {
        records.extend(r?);
    }
    Ok(PhaseResult {
        records,
        max_lateness_ms: 0.0,
    })
}

fn closed_conn(
    addr: SocketAddr,
    gen: &mut OpGen,
    depth: u16,
    ops: usize,
    tag: u64,
) -> Result<Vec<Record>, String> {
    let mut wire = Wire::new(addr, depth, tag)?;
    let window = wire.conn.depth();
    let mut records = Vec::with_capacity(ops);
    let mut sent = 0;
    loop {
        while sent < ops {
            let body = gen.next_op();
            if wire.frames_in_flight() + body.frames() > window {
                gen.defer(body);
                break;
            }
            let payloads = wire.encode(&body, &mut NoHooks);
            wire.send(body, payloads, Instant::now())?;
            sent += 1;
        }
        if wire.ops.is_empty() {
            return Ok(records);
        }
        if let Some(record) = wire.recv(None, &mut NoHooks)? {
            records.push(record);
        }
    }
}

/// Open loop: `count` ops in total across the connections, due at
/// `rate` per second in total (each connection takes every n-th slot).
pub fn open_loop<H: Hooks>(
    addr: SocketAddr,
    gens: &mut [OpGen],
    hooks: &mut [H],
    depth: u16,
    rate: f64,
    count: usize,
) -> Result<PhaseResult, String> {
    let conns = gens.len();
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let per_conn = count.div_ceil(conns);
    let per_conn: Vec<Result<(Vec<Record>, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .iter_mut()
            .zip(hooks.iter_mut())
            .enumerate()
            .map(|(c, (gen, hooks))| {
                // Stagger the connections so the total stream is even.
                let first = start + interval.mul_f64(c as f64 / conns as f64);
                scope.spawn(move || {
                    open_conn(addr, gen, hooks, depth, first, interval, per_conn, c as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut result = PhaseResult {
        records: Vec::new(),
        max_lateness_ms: 0.0,
    };
    for r in per_conn {
        let (records, lateness) = r?;
        result.records.extend(records);
        result.max_lateness_ms = result.max_lateness_ms.max(lateness);
    }
    Ok(result)
}

#[allow(clippy::too_many_arguments)]
fn open_conn(
    addr: SocketAddr,
    gen: &mut OpGen,
    hooks: &mut dyn Hooks,
    depth: u16,
    first: Instant,
    interval: Duration,
    count: usize,
    tag: u64,
) -> Result<(Vec<Record>, f64), String> {
    let mut wire = Wire::new(addr, depth, tag)?;
    let window = wire.conn.depth();
    let mut records = Vec::with_capacity(count);
    // The next op, generated and encoded ahead of its due time so that
    // neither ever delays a send.
    let mut ready: Option<(OpBody, Vec<Vec<u8>>)> = None;
    let mut sent = 0usize;
    let mut max_late = Duration::ZERO;
    while sent < count || !wire.ops.is_empty() {
        if ready.is_none() && sent < count {
            let body = gen.next_op();
            let payloads = wire.encode(&body, hooks);
            ready = Some((body, payloads));
        }
        let due = first + interval.mul_f64(sent as f64);
        let room = ready
            .as_ref()
            .is_some_and(|(_, p)| wire.frames_in_flight() + p.len() <= window);
        let now = Instant::now();
        if sent < count && room && now >= due {
            let (body, payloads) = ready.take().expect("an op is ready");
            max_late = max_late.max(now - due);
            wire.send(body, payloads, due)?;
            sent += 1;
            continue;
        }
        let wait_until = (sent < count && room).then_some(due);
        if wire.ops.is_empty() {
            if let Some(until) = wait_until {
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
            }
            continue;
        }
        if let Some(record) = wire.recv(wait_until, hooks)? {
            records.push(record);
        }
    }
    Ok((records, max_late.as_secs_f64() * 1e3))
}

/// Sends `ops` one at a time over a depth-1 connection (serial probe).
pub fn serial(
    addr: SocketAddr,
    ops: Vec<OpBody>,
    hooks: &mut dyn Hooks,
) -> Result<Vec<Record>, String> {
    let mut wire = Wire::new(addr, 2, 0)?;
    let mut records = Vec::with_capacity(ops.len());
    for body in ops {
        let payloads = wire.encode(&body, hooks);
        wire.send(body, payloads, Instant::now())?;
        loop {
            if let Some(record) = wire.recv(None, hooks)? {
                records.push(record);
                break;
            }
        }
    }
    Ok(records)
}
