//! The wire client: pipelined framed requests over a small pool of TCP
//! connections, with request-id correlation and lazy reconnect.
//!
//! Each connection ("lane") has one background reader thread that decodes
//! response frames and resolves the matching pending request by id, so any
//! number of requests can be in flight on a lane at once — [`send`]
//! returns a [`PendingReply`] immediately and the caller decides when to
//! block on it ([`PendingReply::wait`]).
//! Lanes are picked round-robin per request; writes hold the lane lock only
//! while the frame hits the socket, so senders on different threads pipeline
//! onto shared lanes without coordinating.
//!
//! When a connection dies (server restart, network error, protocol
//! violation) its pending requests resolve to [`WireError::ConnectionLost`]
//! and the lane reconnects lazily on its next use — callers retry at their
//! own policy.
//!
//! [`send`]: WireClient::send

use crate::frame::{decode_frame, encode_frame, FrameError, ReadBuf};
use crate::tables::{Reply, Request};
use lsa_engine::IdMap;
use lsa_service::oneshot::{OneshotPool, Receiver, Sender};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Transport-level client errors. Application-level outcomes — including
/// [`Reply::Overloaded`] and [`Reply::Error`] — are *values*, not errors:
/// they arrive as normal replies.
#[derive(Debug)]
pub enum WireError {
    /// Connecting or writing failed at the socket level.
    Io(std::io::Error),
    /// The connection died (or the server restarted) before the reply
    /// arrived. The request may or may not have executed — retrying is the
    /// caller's policy decision (transfers are not idempotent!).
    ConnectionLost,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::ConnectionLost => f.write_str("connection lost before reply"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Pending requests of one connection, keyed by request id. `closed` flips
/// when the reader exits, closing the insert/drain race: a sender either
/// lands in the map before the drain (and is cancelled by it) or observes
/// `closed` and fails fast.
///
/// Every key is an id this client drew from its own `next_id`; a reply's
/// `req_id` only ever looks one up, so a peer cannot choose what the table
/// holds and the unkeyed [`IdMap`] hasher is safe here.
struct PendingMap {
    map: IdMap<Sender<Reply>>,
    closed: bool,
}

/// One live connection: the write half plus its reader thread.
struct LaneConn {
    stream: TcpStream,
    pending: Arc<Mutex<PendingMap>>,
    reader: JoinHandle<()>,
}

/// A connection slot; `None` until first use and after a death is noticed.
/// The encode buffer lives with the lane (both are used under the lane
/// lock), so steady-state sends reuse it instead of allocating per request.
struct Lane {
    conn: Option<LaneConn>,
    buf: Vec<u8>,
}

/// A reply that has not arrived yet; block on it with [`wait`](Self::wait).
pub struct PendingReply {
    rx: Receiver<Reply>,
}

impl PendingReply {
    /// Block the calling thread until the reply (or connection loss).
    pub fn wait(self) -> Result<Reply, WireError> {
        self.rx.wait().map_err(|_| WireError::ConnectionLost)
    }
}

/// A pipelined wire client over `lanes` TCP connections.
pub struct WireClient {
    addr: SocketAddr,
    lanes: Vec<Mutex<Lane>>,
    next_id: AtomicU64,
    rr: AtomicUsize,
    /// Pooled reply channels: at steady state a request's pending-reply
    /// correlation reuses a recycled channel allocation.
    replies: OneshotPool<Reply>,
}

/// The shard hint a request travels with in its frame header: the key or
/// source account it touches, none for pings and whole-table audits. No
/// server reads it (the service routes round-robin); the header field and
/// this function stay because the benchmark's wire-codec probe encodes
/// frames with them.
pub fn shard_hint(req: &Request) -> Option<u32> {
    match *req {
        Request::Ping | Request::BankAudit | Request::Stats => None,
        Request::BankTransfer { from, .. } => Some(from),
        Request::Intset { key, .. } | Request::Hashset { key, .. } => {
            Some(key.rem_euclid(1 << 30) as u32)
        }
    }
}

impl WireClient {
    /// Create a client for `addr` with `lanes` connections. Connections are
    /// opened lazily on first use of each lane — the constructor itself
    /// cannot fail, and a server restart heals the same way first use does.
    pub fn connect(addr: impl ToSocketAddrs, lanes: usize) -> std::io::Result<WireClient> {
        assert!(lanes >= 1, "a client needs at least one lane");
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        Ok(WireClient {
            addr,
            lanes: (0..lanes)
                .map(|_| {
                    Mutex::new(Lane {
                        conn: None,
                        buf: Vec::with_capacity(256),
                    })
                })
                .collect(),
            next_id: AtomicU64::new(1),
            rr: AtomicUsize::new(0),
            replies: OneshotPool::new((lanes * 256).max(1024)),
        })
    }

    /// Fire one request without waiting: encodes, writes to a round-robin
    /// lane (reconnecting it if dead), and returns the correlation handle.
    pub fn send(&self, req: &Request) -> Result<PendingReply, WireError> {
        let lane_ix = self.rr.fetch_add(1, Ordering::Relaxed) % self.lanes.len();
        let mut lane = self.lanes[lane_ix].lock().unwrap();

        // Notice a dead connection (reader exited) and clear it.
        if let Some(conn) = &lane.conn {
            if conn.pending.lock().unwrap().closed {
                if let Some(conn) = lane.conn.take() {
                    let _ = conn.reader.join();
                }
            }
        }
        if lane.conn.is_none() {
            lane.conn = Some(open_conn(self.addr)?);
        }
        // Split the lane borrow: the connection and the reusable encode
        // buffer are distinct fields under the same lock.
        let Lane { conn, buf } = &mut *lane;
        let conn = conn.as_mut().expect("lane connected above");

        let req_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = self.replies.channel();
        {
            let mut pending = conn.pending.lock().unwrap();
            if pending.closed {
                return Err(WireError::ConnectionLost);
            }
            pending.map.insert(req_id, tx);
        }
        buf.clear();
        encode_frame(buf, req.opcode(), req_id, shard_hint(req), |b| {
            req.encode_payload(b)
        });
        if let Err(e) = conn.stream.write_all(buf) {
            // The write failed before the request could have been accepted:
            // withdraw the pending entry and tear the lane down so the next
            // send reconnects.
            conn.pending.lock().unwrap().map.remove(&req_id);
            if let Some(conn) = lane.conn.take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                let _ = conn.reader.join();
            }
            return Err(WireError::Io(e));
        }
        Ok(PendingReply { rx })
    }

    /// Send and block for the reply.
    pub fn call(&self, req: &Request) -> Result<Reply, WireError> {
        self.send(req)?.wait()
    }

    /// Send with bounded retry on transport errors — for idempotent
    /// requests (reads, pings, set ops with known intent) across a server
    /// restart. Non-idempotent requests should use [`call`](Self::call) and
    /// decide for themselves.
    pub fn call_retry(&self, req: &Request, attempts: usize) -> Result<Reply, WireError> {
        let mut last = WireError::ConnectionLost;
        for _ in 0..attempts.max(1) {
            match self.call(req) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    last = e;
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        }
        Err(last)
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        for lane in &self.lanes {
            let mut lane = lane.lock().unwrap();
            if let Some(conn) = lane.conn.take() {
                let _ = conn.stream.shutdown(Shutdown::Both);
                let _ = conn.reader.join();
            }
        }
    }
}

fn open_conn(addr: SocketAddr) -> std::io::Result<LaneConn> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let pending = Arc::new(Mutex::new(PendingMap {
        map: IdMap::default(),
        closed: false,
    }));
    let reader = {
        let stream = stream.try_clone()?;
        let pending = Arc::clone(&pending);
        std::thread::spawn(move || reader_loop(stream, pending))
    };
    Ok(LaneConn {
        stream,
        pending,
        reader,
    })
}

/// Decode response frames and resolve pending requests until the connection
/// dies; then cancel everything still pending (→ `ConnectionLost`).
fn reader_loop(mut stream: TcpStream, pending: Arc<Mutex<PendingMap>>) {
    let mut rb = ReadBuf::new();
    let mut chunk = vec![0u8; 64 * 1024];
    'conn: loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break 'conn,
            Ok(n) => n,
            Err(_) => break 'conn,
        };
        rb.extend(&chunk[..n]);
        loop {
            match decode_frame(rb.window()) {
                Ok(None) => break,
                Ok(Some((frame, consumed))) => {
                    let req_id = frame.header.req_id;
                    let reply = Reply::decode(&frame);
                    rb.consume(consumed);
                    match reply {
                        Ok(reply) => {
                            let tx = pending.lock().unwrap().map.remove(&req_id);
                            if let Some(tx) = tx {
                                tx.send(reply);
                            }
                            // else: reply for a withdrawn request — ignore.
                        }
                        Err(FrameError::BadPayload(_)) => {
                            // Framing is intact but the payload is garbage:
                            // fail this request, keep the stream.
                            pending.lock().unwrap().map.remove(&req_id);
                            // Dropping the sender cancels the waiter.
                        }
                        Err(_) => break 'conn,
                    }
                }
                Err(_) => break 'conn, // unsyncable stream
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    let mut p = pending.lock().unwrap();
    p.closed = true;
    p.map.clear(); // drops senders → pending waiters see ConnectionLost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::SetOp;

    #[test]
    fn shard_hints_follow_the_touched_data() {
        assert_eq!(shard_hint(&Request::Ping), None);
        assert_eq!(shard_hint(&Request::BankAudit), None);
        assert_eq!(
            shard_hint(&Request::BankTransfer {
                from: 7,
                to: 3,
                amount: 1
            }),
            Some(7)
        );
        let a = shard_hint(&Request::Intset {
            op: SetOp::Member,
            key: -5,
        });
        assert!(a.is_some(), "negative keys still map to a hint");
        assert_eq!(
            a,
            shard_hint(&Request::Hashset {
                op: SetOp::Insert,
                key: -5
            }),
            "same key, same hint, regardless of table"
        );
    }

    #[test]
    fn connect_is_lazy_and_send_reports_refusal() {
        // Port 1 on localhost is essentially never listening.
        let client = WireClient::connect("127.0.0.1:1", 2).expect("lazy connect cannot fail");
        match client.send(&Request::Ping) {
            Err(WireError::Io(_)) => {}
            Err(e) => panic!("expected an i/o error, got {e:?}"),
            Ok(_) => panic!("send to a dead port must not succeed"),
        }
    }
}
