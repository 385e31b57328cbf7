//! The TCP wire server: framed requests multiplexed onto a [`TxnService`]
//! worker pool.
//!
//! Threading model (DESIGN.md §12):
//!
//! * one *listener* thread accepts connections,
//! * per connection, one *reader* thread decodes frames from the socket and
//!   submits them to the service through a cloned
//!   [`ServiceHandle`](lsa_service::ServiceHandle), and one *writer* thread
//!   drains the connection's [`OutQueue`] back to the socket,
//! * the transactions themselves run on the service's worker pool — the
//!   completion closure encodes the reply and pushes it straight onto the
//!   connection's out queue, so no extra completion-pump thread sits between
//!   the engine and the socket.
//!
//! Backpressure is two-layered. The service's bounded submission queues
//! shed excess *admitted* load with typed [`Reply::Overloaded`] responses
//! (the client sees every shed — it is an answered request, counted in the
//! service's overload taxonomy). Before that, each connection's bounded
//! in-flight [`Window`] caps how many decoded requests may be outstanding;
//! at the cap the reader stops reading, the kernel's receive buffer fills,
//! and TCP pushes back on the client's writes — per-connection backpressure
//! that no amount of client pipelining can overrun.

use crate::conn::{OutQueue, Window};
use crate::frame::{decode_frame, encode_frame, ErrorCode, FrameError, ReadBuf};
use crate::tables::{Reply, Request, Tables, TablesConfig};
use lsa_engine::TxnEngine;
use lsa_obs::registry::{Counter, MetricsRegistry};
use lsa_service::pool::{Pool, PoolStats, WeakPool};
use lsa_service::{
    RunRequest, ServiceConfig, ServiceHandle, ServiceReport, SubmitError, TxnService,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Frames the writer drains from the out queue per wakeup; the burst is
/// coalesced into one gather buffer and hits the socket as a single
/// `write_all` instead of one syscall per reply.
const WRITER_BATCH: usize = 64;

/// Free reply-encode buffers the server retains across all connections.
const BUF_POOL_CAP: usize = 2048;

/// Wire-server construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Service worker threads (each holds one registered engine handle).
    pub workers: usize,
    /// Bounded depth of each worker's submission queue; pushes past it are
    /// answered with [`Reply::Overloaded`].
    pub queue_depth: usize,
    /// Per-connection in-flight window: decoded-but-unanswered requests a
    /// connection may have outstanding before its reader stops reading.
    pub window: usize,
    /// Sizing of the hosted tables.
    pub tables: TablesConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            queue_depth: 256,
            window: 128,
            tables: TablesConfig::default(),
        }
    }
}

/// Shared server state: shutdown flag, connection registry, wire counters,
/// and the reply-buffer pool. The counters live in the server's
/// [`MetricsRegistry`] — per-thread sharded and cache-line padded inside
/// `lsa-obs`, so readers, workers, and writers bump them without false
/// sharing, and a live `Stats` scrape sees them merged alongside the
/// service- and engine-level metrics (the registry is shared with the
/// [`TxnService`]).
struct ServerShared {
    shutdown: AtomicBool,
    conns: Mutex<Vec<ConnHandle>>,
    metrics: MetricsRegistry,
    accepted: Counter,
    frames_in: Counter,
    frames_out: Counter,
    protocol_errors: Counter,
    ops: OpCounters,
    /// Recycled reply-encode buffers: `queue_reply` takes one, the writer
    /// returns it after the frame hits the socket.
    buf_pool: Pool<Vec<u8>>,
}

/// Per-opcode request counters (`wire.op.*`): which operations the peers
/// actually send, visible live through the `Stats` surface.
struct OpCounters {
    ping: Counter,
    bank_transfer: Counter,
    bank_audit: Counter,
    intset: Counter,
    hashset: Counter,
    stats: Counter,
}

impl OpCounters {
    fn new(metrics: &MetricsRegistry) -> Self {
        OpCounters {
            ping: metrics.counter("wire.op.ping"),
            bank_transfer: metrics.counter("wire.op.bank_transfer"),
            bank_audit: metrics.counter("wire.op.bank_audit"),
            intset: metrics.counter("wire.op.intset"),
            hashset: metrics.counter("wire.op.hashset"),
            stats: metrics.counter("wire.op.stats"),
        }
    }

    fn for_req(&self, req: &Request) -> &Counter {
        match req {
            Request::Ping => &self.ping,
            Request::BankTransfer { .. } => &self.bank_transfer,
            Request::BankAudit => &self.bank_audit,
            Request::Intset { .. } => &self.intset,
            Request::Hashset { .. } => &self.hashset,
            Request::Stats => &self.stats,
        }
    }
}

/// Everything a request needs to answer on its connection, shared once per
/// connection instead of cloned per request: the old closure path cloned
/// four `Arc`s into a fresh box per request; a [`WireJob`] carries one
/// `Arc<ConnCtx>` and is itself pooled.
struct ConnCtx<E: TxnEngine> {
    tables: Tables<E>,
    out: OutQueue,
    window: Window,
    shared: Arc<ServerShared>,
}

/// A pooled request record for the serving hot path (see
/// [`RunRequest`]): armed by the reader with the decoded request and its
/// connection context, executed on a service worker, recycled to the
/// server-wide job pool. At steady state submission allocates nothing.
struct WireJob<E: TxnEngine> {
    /// Armed with the connection context; taken by `run`.
    ctx: Option<Arc<ConnCtx<E>>>,
    req: Request,
    req_id: u64,
    /// Home pool (weak: pooled jobs must not keep the pool alive).
    home: WeakPool<Box<WireJob<E>>>,
}

impl<E: TxnEngine> RunRequest<E> for WireJob<E> {
    fn run(&mut self, handle: &mut E::Handle) {
        let ctx = self.ctx.take().expect("job armed before submission");
        let reply = ctx.tables.apply(handle, &self.req);
        queue_reply(&ctx.shared, &ctx.out, self.req_id, reply);
        ctx.window.release();
    }

    fn recycle(mut self: Box<Self>) {
        // Drop the context even when `run` never executed (shed path): a
        // pooled job must not pin a dead connection's queues.
        self.ctx = None;
        if let Some(pool) = self.home.upgrade() {
            pool.put(self);
        }
    }
}

/// A live connection's teardown handles.
struct ConnHandle {
    stream: TcpStream,
    out: OutQueue,
    window: Window,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// What [`WireServer::shutdown`] hands back.
#[derive(Debug)]
pub struct WireReport {
    /// The drained service's report (latency, shed accounting, engine
    /// statistics; wire sheds appear as `abort_reasons.overload`).
    pub service: ServiceReport,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Response frames queued for writing.
    pub frames_out: u64,
    /// Connections torn down on malformed frame streams.
    pub protocol_errors: u64,
    /// Request-record pool traffic: hits mean a request was served without
    /// allocating its record.
    pub job_pool: PoolStats,
    /// Reply-encode buffer pool traffic.
    pub buf_pool: PoolStats,
}

/// A TCP front-end serving [`Request`]s against [`Tables`] hosted on any
/// [`TxnEngine`], through an `lsa-service` worker pool.
pub struct WireServer<E: TxnEngine> {
    engine: E,
    tables: Tables<E>,
    service: Option<TxnService<E>>,
    shared: Arc<ServerShared>,
    job_pool: Pool<Box<WireJob<E>>>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl<E: TxnEngine> WireServer<E> {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), seed the
    /// tables on `engine`, start the service pool and the listener thread.
    pub fn start(engine: E, addr: &str, cfg: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let tables = Tables::build(&engine, &cfg.tables);
        let service = TxnService::start(
            engine.clone(),
            ServiceConfig {
                workers: cfg.workers,
                queue_depth: cfg.queue_depth,
            },
        );
        // One registry spans the whole serving path: the service's, with
        // the server's wire counters registered beside its engine/queue
        // metrics, so a live `Stats` scrape snapshots them all together.
        let metrics = service.metrics().clone();
        let handle = service.handle();
        let shared = Arc::new(ServerShared {
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            accepted: metrics.counter("wire.accepted"),
            frames_in: metrics.counter("wire.frames_in"),
            frames_out: metrics.counter("wire.frames_out"),
            protocol_errors: metrics.counter("wire.protocol_errors"),
            ops: OpCounters::new(&metrics),
            metrics,
            buf_pool: Pool::new(BUF_POOL_CAP),
        });
        // Live in-flight window occupancy, summed across connections. Weak:
        // the registry outliving the server must not pin its state.
        let occupancy_src = Arc::downgrade(&shared);
        shared.metrics.gauge_fn("wire.window_in_flight", move || {
            occupancy_src
                .upgrade()
                .map(|s| {
                    s.conns
                        .lock()
                        .unwrap()
                        .iter()
                        .map(|c| c.window.in_flight() as i64)
                        .sum()
                })
                .unwrap_or(0)
        });
        // Sized past the in-flight high-water mark (every queue slot full
        // plus a worker batch in hand) so steady state never overflows it.
        let job_pool: Pool<Box<WireJob<E>>> =
            Pool::new(cfg.workers * cfg.queue_depth + cfg.window + 64);
        let accept = {
            let shared = Arc::clone(&shared);
            let tables = tables.clone();
            let job_pool = job_pool.clone();
            std::thread::spawn(move || {
                accept_loop(listener, shared, tables, handle, job_pool, cfg.window);
            })
        };
        Ok(WireServer {
            engine,
            tables,
            service: Some(service),
            shared,
            job_pool,
            accept: Some(accept),
            addr: local,
        })
    }

    /// The bound address (to hand to clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, tear down connection readers, drain the service (all
    /// admitted requests still execute and their responses are written),
    /// flush and join the writers, audit the tables, and report.
    pub fn shutdown(mut self) -> WireReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let conns: Vec<ConnHandle> = self.shared.conns.lock().unwrap().drain(..).collect();
        // Stop the readers first: no new submissions after this point.
        for c in &conns {
            c.window.close();
            let _ = c.stream.shutdown(Shutdown::Read);
        }
        let mut readers = Vec::new();
        let mut writers = Vec::new();
        let mut outs = Vec::new();
        for c in conns {
            readers.push(c.reader);
            writers.push(c.writer);
            outs.push(c.out);
        }
        for r in readers {
            let _ = r.join();
        }
        // Drain the service: every admitted request runs, its completion
        // closure pushes the response onto its connection's out queue.
        let service = self.service.take().expect("service present until shutdown");
        let report = service.shutdown();
        // Now the out queues are complete: close-then-drain flushes them.
        for o in &outs {
            o.close();
        }
        for w in writers {
            let _ = w.join();
        }
        self.tables.assert_quiescent(&self.engine);
        WireReport {
            service: report,
            connections: self.shared.accepted.value(),
            frames_in: self.shared.frames_in.value(),
            frames_out: self.shared.frames_out.value(),
            protocol_errors: self.shared.protocol_errors.value(),
            job_pool: self.job_pool.stats(),
            buf_pool: self.shared.buf_pool.stats(),
        }
    }

    /// The server's metrics registry — shared with its [`TxnService`], so a
    /// snapshot covers engine, service-queue, and wire-layer metrics. The
    /// same snapshot is served over the wire as [`Request::Stats`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }
}

impl<E: TxnEngine> Drop for WireServer<E> {
    fn drop(&mut self) {
        if self.service.is_some() {
            self.shared.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            if let Some(a) = self.accept.take() {
                let _ = a.join();
            }
            let conns: Vec<ConnHandle> = self.shared.conns.lock().unwrap().drain(..).collect();
            for c in &conns {
                c.window.close();
                c.out.close();
                let _ = c.stream.shutdown(Shutdown::Both);
            }
            for c in conns {
                let _ = c.reader.join();
                let _ = c.writer.join();
            }
            // Dropping the service closes and drains its queues.
            self.service.take();
        }
    }
}

fn accept_loop<E: TxnEngine>(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    tables: Tables<E>,
    service: ServiceHandle<E>,
    job_pool: Pool<Box<WireJob<E>>>,
    window_cap: usize,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a late client) is dropped
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_nodelay(true);
        shared.accepted.inc();
        let out = OutQueue::new();
        let window = Window::new(window_cap);
        let ctx = Arc::new(ConnCtx {
            tables: tables.clone(),
            out: out.clone(),
            window: window.clone(),
            shared: Arc::clone(&shared),
        });
        let reader = {
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            let service = service.clone();
            let job_pool = job_pool.clone();
            std::thread::spawn(move || {
                reader_loop(stream, ctx, service, job_pool);
            })
        };
        let writer = {
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            let shared = Arc::clone(&shared);
            let out = out.clone();
            std::thread::spawn(move || writer_loop(stream, out, shared))
        };
        shared.conns.lock().unwrap().push(ConnHandle {
            stream,
            out,
            window,
            reader,
            writer,
        });
    }
}

/// Encode `reply` for `req_id` and queue it on the connection. The encode
/// buffer comes from the server's pool (the writer returns it after the
/// frame hits the socket), so steady-state replies allocate nothing.
fn queue_reply(shared: &ServerShared, out: &OutQueue, req_id: u64, reply: Reply) {
    let mut buf = shared
        .buf_pool
        .get()
        .unwrap_or_else(|| Vec::with_capacity(64));
    buf.clear();
    encode_frame(&mut buf, reply.opcode(), req_id, None, |b| {
        reply.encode_payload(b)
    });
    shared.frames_out.inc();
    out.push(buf);
}

fn reader_loop<E: TxnEngine>(
    mut stream: TcpStream,
    ctx: Arc<ConnCtx<E>>,
    service: ServiceHandle<E>,
    job_pool: Pool<Box<WireJob<E>>>,
) {
    let shared = Arc::clone(&ctx.shared);
    let mut rb = ReadBuf::new();
    let mut chunk = vec![0u8; 64 * 1024];
    'conn: loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break 'conn, // peer closed
            Ok(n) => n,
            Err(_) => break 'conn,
        };
        rb.extend(&chunk[..n]);
        loop {
            match decode_frame(rb.window()) {
                Ok(None) => break, // need more bytes
                Ok(Some((frame, consumed))) => {
                    shared.frames_in.inc();
                    let req_id = frame.header.req_id;
                    match Request::decode(&frame) {
                        Ok(Request::Stats) => {
                            // Answered inline from the registry, off the
                            // service queues: the scrape stays live while
                            // admission control sheds the workload.
                            shared.ops.stats.inc();
                            rb.consume(consumed);
                            let json = shared.metrics.snapshot_json().into_bytes();
                            queue_reply(&shared, &ctx.out, req_id, Reply::Stats(json));
                        }
                        Ok(req) => {
                            shared.ops.for_req(&req).inc();
                            rb.consume(consumed);
                            if !submit_request(&ctx, &service, &job_pool, req_id, req) {
                                break 'conn; // service closed / window closed
                            }
                        }
                        Err(FrameError::BadPayload(_)) => {
                            // Framing was sound — answer the request with a
                            // typed error and keep the stream.
                            rb.consume(consumed);
                            queue_reply(
                                &shared,
                                &ctx.out,
                                req_id,
                                Reply::Error(ErrorCode::BadPayload),
                            );
                        }
                        Err(_) => unreachable!("Request::decode only raises BadPayload"),
                    }
                }
                Err(err) => {
                    // The stream cannot be resynchronized: answer with a
                    // typed error frame (req id 0 — the header is not
                    // trustworthy) and tear the connection down.
                    shared.protocol_errors.inc();
                    let code = match err {
                        FrameError::VersionSkew { .. } => ErrorCode::WrongDirection,
                        _ => ErrorCode::BadPayload,
                    };
                    queue_reply(&shared, &ctx.out, 0, Reply::Error(code));
                    // Close-then-drain: the writer flushes the error frame,
                    // then shuts the write half down so the peer sees EOF.
                    // (On a plain peer EOF the queue stays open — in-flight
                    // replies still need the writer.)
                    ctx.out.close();
                    break 'conn;
                }
            }
        }
    }
    // Reader gone: no further submissions will land on this connection. The
    // out queue stays open — in-flight completions still push replies, and
    // the server's shutdown path closes it after the service drain.
    let _ = stream.shutdown(Shutdown::Read);
}

/// Submit one decoded request as a pooled record. Returns `false` when the
/// connection should stop reading (service closed or window torn down).
fn submit_request<E: TxnEngine>(
    ctx: &Arc<ConnCtx<E>>,
    service: &ServiceHandle<E>,
    job_pool: &Pool<Box<WireJob<E>>>,
    req_id: u64,
    req: Request,
) -> bool {
    // Bounded in-flight window: block the reader (and thereby the socket)
    // until a slot frees up.
    if !ctx.window.acquire() {
        return false;
    }
    // Arm a recycled record (or allocate one on a cold pool): one pointer-
    // sized context handle plus the `Copy` request — no per-request boxes,
    // no oneshot.
    let mut job = job_pool.get().unwrap_or_else(|| {
        Box::new(WireJob {
            ctx: None,
            req: Request::Ping,
            req_id: 0,
            home: job_pool.downgrade(),
        })
    });
    job.ctx = Some(Arc::clone(ctx));
    job.req = req;
    job.req_id = req_id;
    match service.submit_record(job) {
        Ok(()) => true, // the record itself writes the response
        Err((SubmitError::Overloaded, record)) => {
            // Shed by admission control: the typed overload response IS the
            // answer — the client sees every shed explicitly. The refused
            // record goes straight back to the pool.
            queue_reply(&ctx.shared, &ctx.out, req_id, Reply::Overloaded);
            ctx.window.release();
            record.recycle();
            true
        }
        Err((SubmitError::Closed, record)) => {
            queue_reply(
                &ctx.shared,
                &ctx.out,
                req_id,
                Reply::Error(ErrorCode::Shutdown),
            );
            ctx.window.release();
            record.recycle();
            false
        }
    }
}

fn writer_loop(mut stream: TcpStream, out: OutQueue, shared: Arc<ServerShared>) {
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(WRITER_BATCH);
    let mut gather: Vec<u8> = Vec::with_capacity(16 * 1024);
    loop {
        frames.clear();
        if out.pop_batch(&mut frames, WRITER_BATCH) == 0 {
            break; // closed and fully drained: flush semantics preserved
        }
        // Coalesce the burst into one socket write. A lone frame skips the
        // gather copy; a backlog becomes a single syscall instead of one
        // per reply.
        let wrote = if frames.len() == 1 {
            stream.write_all(&frames[0])
        } else {
            gather.clear();
            for f in &frames {
                gather.extend_from_slice(f);
            }
            stream.write_all(&gather)
        };
        if wrote.is_err() {
            // The peer is gone; drain the queue so completion pushes never
            // accumulate, then exit with it.
            while out.pop().is_some() {}
            return;
        }
        // Frames are on the wire: recycle their buffers for `queue_reply`.
        for f in frames.drain(..) {
            shared.buf_pool.put(f);
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}
