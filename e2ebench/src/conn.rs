//! A pipelined wire-protocol v2 connection that hands back raw response
//! payloads, so the caller decides when (and whether to time) decoding,
//! and that can wait for a response with a deadline — what an open-loop
//! sender needs to keep its schedule while requests are in flight.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mst_serve::protocol::{encode_frame_v2, split_frame_v2};
use mst_serve::{Request, Response, VERSION};

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    next_id: u64,
    depth: usize,
}

impl Conn {
    /// Connects and completes the hello handshake, asking for `depth`.
    pub fn connect(addr: SocketAddr, depth: u16) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            chunk: vec![0u8; 64 << 10],
            next_id: 1,
            depth: 1,
        };
        let hello = Request::Hello {
            min_version: VERSION,
            max_version: VERSION,
            depth,
        };
        conn.write(0, &hello.encode())?;
        let (id, payload) = conn.recv(None)?.ok_or_else(|| "no hello ack".to_string())?;
        match Response::decode(&payload) {
            Ok(Response::HelloAck { depth, .. }) if id == 0 => {
                conn.depth = usize::from(depth.max(1));
                Ok(conn)
            }
            other => Err(format!("handshake refused: {other:?}")),
        }
    }

    /// The pipeline depth the server granted.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Writes one request payload and returns its request id.
    pub fn send(&mut self, payload: &[u8]) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        self.write(id, payload)?;
        Ok(id)
    }

    fn write(&mut self, id: u64, payload: &[u8]) -> Result<(), String> {
        let mut frame = Vec::with_capacity(12 + payload.len());
        encode_frame_v2(&mut frame, id, payload).map_err(|e| format!("frame: {e}"))?;
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("write: {e}"))
    }

    /// Returns the next response frame `(request id, payload)`, waiting
    /// at most until `deadline` (forever with `None`). `Ok(None)` means
    /// the deadline passed first.
    pub fn recv(&mut self, deadline: Option<Instant>) -> Result<Option<(u64, Vec<u8>)>, String> {
        loop {
            if let Some(frame) = split_frame_v2(&self.buf).map_err(|e| format!("split: {e}"))? {
                let out = (frame.request_id, frame.payload.to_vec());
                let consumed = frame.consumed;
                self.buf.drain(..consumed);
                return Ok(Some(out));
            }
            let timeout = match deadline {
                None => None,
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    Some(left.max(Duration::from_micros(20)))
                }
            };
            self.stream
                .set_read_timeout(timeout)
                .map_err(|e| format!("set_read_timeout: {e}"))?;
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// One blocking request/response exchange (depth 1).
    pub fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let id = self.send(payload)?;
        loop {
            let (got, body) = self
                .recv(None)?
                .ok_or_else(|| "connection went quiet".to_string())?;
            if got == id {
                return Ok(body);
            }
        }
    }
}
