//! Open-loop load generation against the serving path, in process or over
//! a loopback socket.
//!
//! The closed-loop `BenchWorker` runner measures *capacity*: each thread
//! fires its next transaction the instant the previous one finishes, so
//! queueing never appears and latency is invisible. Here requests *arrive*
//! on a fixed schedule — arrival `n` at `start + n/rate`, regardless of
//! completions, with catch-up bursts when the submitter falls behind — so
//! queueing delay lands in the latency percentiles and overload lands in
//! the shed rate.
//!
//! Every request is an [`lsa_wire::Request`] drawn from one [`Kind`]'s mix
//! by one seeded generator, and every request runs as
//! [`Tables::apply`](lsa_wire::Tables::apply) on a service worker. The
//! [`Transport`] decides only how it gets there:
//!
//! * [`Transport::Service`] submits a pooled [`RunRequest`] record straight
//!   to a [`TxnService`], routed by [`shard_hint`];
//! * [`Transport::Wire`] sends it through a pipelined [`WireClient`] to a
//!   loopback [`WireServer`].
//!
//! For one seed both transports draw the same request sequence, so the
//! difference between their rows is the socket. Every audit reply is
//! checked against the invariant bank total, and the tables are audited
//! after the drain (`Tables::assert_quiescent`). Sweeping `rate` over a
//! geometric grid ([`crate::args::RangeSpec`]) and feeding the outcomes to
//! [`knee_index`] locates the saturation knee; `rounds > 1` samples the
//! memory gauges once per round for the memory-ceiling check
//! ([`Outcome::plateaued`]).

use lsa_engine::{EngineStats, MemoryStats, TxnEngine};
use lsa_service::pool::WeakPool;
use lsa_service::{
    LatencyHistogram, Pool, PoolStats, RunRequest, ServiceConfig, SubmitError, TxnService,
};
use lsa_wire::{
    shard_hint, PendingReply, Reply, Request, ServerConfig, SetOp, Tables, TablesConfig,
    WireClient, WireServer,
};
use lsa_workloads::FastRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The one request stream's seed: both transports replay it.
const SEED: u64 = 0x0b5e_55ed;

/// Which request mix the generator draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Bank transfers (80%) and whole-table audits (20%).
    Bank,
    /// The bank table read-mostly: audits (80%) racing transfers (20%) —
    /// the snapshot-analytics shape that separates multi-version engines.
    Snapshot,
    /// Sorted-list member (60%) / insert (20%) / remove (20%).
    Intset,
    /// Bucketed-hash member / insert / remove in the same 60/20/20 mix —
    /// short transactions where fixed per-request costs dominate.
    Hashset,
}

impl Kind {
    /// All kinds, in table order.
    pub const ALL: [Kind; 4] = [Kind::Bank, Kind::Snapshot, Kind::Intset, Kind::Hashset];

    /// Short name for tables and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Bank => "bank",
            Kind::Snapshot => "snapshot",
            Kind::Intset => "intset",
            Kind::Hashset => "hashset",
        }
    }

    /// Parse a CLI argument.
    pub fn parse(s: &str) -> Option<Self> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Draw one request. Account and key ranges come from the tables'
    /// sizing, so no request is ever out of range; with `groups > 1` (the
    /// tables' [`Tables::groups`]) a transfer stays inside one account
    /// group. One group draws exactly what the whole table does.
    pub fn draw(self, rng: &mut FastRng, cfg: &TablesConfig, groups: usize) -> Request {
        let set_op = |rng: &mut FastRng| match rng.below(10) {
            0..=5 => SetOp::Member,
            6 | 7 => SetOp::Insert,
            _ => SetOp::Remove,
        };
        match self {
            Kind::Bank | Kind::Snapshot => {
                let audit_percent = if self == Kind::Bank { 20 } else { 80 };
                if rng.percent(audit_percent) {
                    return Request::BankAudit;
                }
                let n = cfg.accounts as usize;
                let (lo, hi) = if groups > 1 {
                    let g = rng.below(groups);
                    (g * n / groups, (g + 1) * n / groups)
                } else {
                    (0, n)
                };
                let span = hi - lo;
                let from = rng.below(span);
                let to = (from + 1 + rng.below(span - 1)) % span;
                Request::BankTransfer {
                    from: (lo + from) as u32,
                    to: (lo + to) as u32,
                    amount: rng.range(1, 100),
                }
            }
            Kind::Intset => Request::Intset {
                op: set_op(rng),
                key: rng.below(cfg.set_key_range as usize) as i64,
            },
            Kind::Hashset => Request::Hashset {
                op: set_op(rng),
                key: rng.below(cfg.set_key_range as usize) as i64,
            },
        }
    }
}

/// How a request reaches the service workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// In process: a pooled record submitted straight to the service.
    Service,
    /// Over loopback TCP: a pipelined client in front of a wire server.
    Wire,
}

impl Transport {
    /// Both transports, in table order.
    pub const ALL: [Transport; 2] = [Transport::Service, Transport::Wire];

    /// Short name for tables and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Service => "service",
            Transport::Wire => "wire",
        }
    }

    /// Parse a CLI argument.
    pub fn parse(s: &str) -> Option<Self> {
        Transport::ALL.into_iter().find(|t| t.name() == s)
    }
}

/// Parameters of one open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// How requests reach the workers.
    pub transport: Transport,
    /// Request mix.
    pub kind: Kind,
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Submission window of one round (drain time comes on top).
    pub duration: Duration,
    /// Successive submission windows, with a memory-gauge sample after
    /// each.
    pub rounds: u32,
    /// Service worker threads.
    pub workers: usize,
    /// Per-worker bounded queue depth (admission limit).
    pub queue_depth: usize,
    /// Per-connection in-flight window on the server (`wire` only).
    pub window: usize,
    /// Client connections, i.e. pipelined lanes (`wire` only).
    pub conns: usize,
}

impl Default for Spec {
    fn default() -> Self {
        let server = ServerConfig::default();
        Spec {
            transport: Transport::Service,
            kind: Kind::Bank,
            rate: 5_000.0,
            duration: Duration::from_millis(300),
            rounds: 1,
            workers: server.workers,
            queue_depth: server.queue_depth,
            window: server.window,
            conns: 2,
        }
    }
}

/// The wire server's frame accounting of a `wire` run.
#[derive(Clone, Copy, Debug)]
pub struct Frames {
    /// Request frames the server decoded.
    pub frames_in: u64,
    /// Reply frames the server queued.
    pub frames_out: u64,
    /// Connections torn down on malformed frame streams.
    pub protocol_errors: u64,
    /// `Stats` requests sent beside the workload. They ride the frame
    /// counters but not the service queues, so
    /// `frames_in == offered + scrapes`.
    pub scrapes: u64,
    /// Reply-encode buffer pool traffic.
    pub buf_pool: PoolStats,
}

/// Outcome of one open-loop run.
#[derive(Debug)]
pub struct Outcome {
    /// Requests the generator offered (`completed + shed + errors`).
    pub offered: u64,
    /// Requests answered with a success reply.
    pub completed: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Requests lost to the transport, answered with a typed error, or
    /// audits that saw a torn total — zero in a healthy run.
    pub errors: u64,
    /// Audit replies checked against the invariant total.
    pub audits: u64,
    /// Wall clock from first arrival to full drain.
    pub elapsed: Duration,
    /// On `service`, the service's submit→complete histogram (every
    /// executed request, queueing included); on `wire`, client-observed
    /// submit→reply of the completed requests (framing and socket
    /// included).
    pub latency: LatencyHistogram,
    /// Merged worker engine statistics (sheds under
    /// `abort_reasons.overload`), with the memory gauges sampled after the
    /// drain.
    pub engine: EngineStats,
    /// Request-record pool traffic: a hit means the arrival reused a
    /// recycled record and the serving path allocated nothing for it.
    pub pool: PoolStats,
    /// A metrics-registry snapshot (JSON) taken at the halfway point of the
    /// submission window, mid-load: in process on `service`, as a `Stats`
    /// request over the loaded socket on `wire`. `None` only if the
    /// scrape's reply was lost with the connection.
    pub mid_scrape: Option<String>,
    /// One memory-gauge sample at the end of each round, taken on the live
    /// engine.
    pub samples: Vec<MemoryStats>,
    /// Frame accounting, on `wire` only.
    pub wire: Option<Frames>,
}

impl Outcome {
    /// Completed requests per second (drain included).
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of offered requests shed in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.offered.max(1) as f64
    }

    /// The sweep-point summary [`knee_index`] consumes.
    pub fn knee_point(&self) -> KneePoint {
        KneePoint {
            shed_rate: self.shed_rate(),
            p99_ns: self.latency.p99(),
        }
    }

    /// Whether the live-version and arena-byte gauges plateaued over the
    /// rounds (meaningful from two rounds on): the peak over the second
    /// half must not exceed twice the peak over the first half, plus a
    /// small absolute slack for in-flight chains. An unbounded version
    /// store fails this by construction — under sustained load its live
    /// count grows linearly with the round index.
    pub fn plateaued(&self) -> bool {
        let peak =
            |s: &[MemoryStats], f: fn(&MemoryStats) -> u64| s.iter().map(f).max().unwrap_or(0);
        let (early, late) = self.samples.split_at(self.samples.len() / 2);
        peak(late, |m| m.versions_live) <= 2 * peak(early, |m| m.versions_live) + 64
            && peak(late, |m| m.arena_bytes) <= 2 * peak(early, |m| m.arena_bytes) + 64 * 1024
    }
}

/// One point of a saturation sweep, reduced to the two knee signals.
#[derive(Clone, Copy, Debug)]
pub struct KneePoint {
    /// Observed shed fraction in `[0, 1]`.
    pub shed_rate: f64,
    /// Observed p99 latency in nanoseconds.
    pub p99_ns: u64,
}

/// Shed fraction above which a sweep point counts as saturated.
pub const KNEE_SHED_THRESHOLD: f64 = 0.01;
/// p99 blow-up factor over the first (baseline) point that counts as the
/// queueing knee even before admission control sheds.
pub const KNEE_P99_FACTOR: u64 = 4;

/// Locate the saturation knee in an increasing-rate sweep: the first point
/// that sheds more than [`KNEE_SHED_THRESHOLD`] of its offered load, or
/// whose p99 exceeds [`KNEE_P99_FACTOR`] × the first point's p99 (queueing
/// delay blows up before admission control engages). Returns `None` when
/// every point is below both signals — the sweep never left the linear
/// regime.
pub fn knee_index(points: &[KneePoint]) -> Option<usize> {
    let baseline = points.first()?.p99_ns.max(1);
    points
        .iter()
        .position(|p| p.shed_rate > KNEE_SHED_THRESHOLD || p.p99_ns > KNEE_P99_FACTOR * baseline)
}

/// Run one open-loop benchmark on `engine` over `spec.transport`.
///
/// After the last round the transport drains every accepted request, the
/// tables are audited, and both sides' accounting comes back in the
/// [`Outcome`]. On `wire`, a submitter slowed by full in-flight windows
/// shows as `offered` falling short of `rate × duration`.
pub fn run_open_loop<E: TxnEngine>(engine: E, spec: &Spec) -> Outcome {
    assert!(spec.rate > 0.0, "rate must be positive");
    assert!(spec.rounds >= 1, "a run needs at least one round");
    match spec.transport {
        Transport::Service => drive(ServicePath::start(engine.clone(), spec), &engine, spec),
        Transport::Wire => drive(WirePath::start(engine.clone(), spec), &engine, spec),
    }
}

/// One transport's end of the arrival loop.
trait ServingPath {
    /// Submit one request without waiting for it.
    fn offer(&mut self, req: Request);
    /// Take the halftime registry snapshot, mid-load.
    fn scrape(&mut self);
    /// Drain every accepted request, audit the tables and account;
    /// `elapsed` runs from `start` to the end of the drain.
    fn finish(self, start: Instant, offered: u64, samples: Vec<MemoryStats>) -> Outcome;
}

/// The arrival loop both transports share.
fn drive<E: TxnEngine>(mut path: impl ServingPath, engine: &E, spec: &Spec) -> Outcome {
    let cfg = TablesConfig::default();
    let mut rng = FastRng::new(SEED);
    let mut samples = Vec::with_capacity(spec.rounds as usize);
    let mut scraped = false;
    let mut offered = 0u64;
    let start = Instant::now();
    for round in 1..=spec.rounds {
        while start.elapsed() < spec.duration * round {
            wait_until(start + Duration::from_secs_f64(offered as f64 / spec.rate));
            if !scraped && start.elapsed() >= spec.duration * spec.rounds / 2 {
                path.scrape();
                scraped = true;
            }
            path.offer(spec.kind.draw(&mut rng, &cfg, 1));
            offered += 1;
        }
        samples.push(engine.memory_stats());
    }
    let mut out = path.finish(start, offered, samples);
    out.engine.memory = engine.memory_stats();
    out
}

/// Sleep-then-spin until `deadline`: coarse sleeps stop short of the target
/// so the arrival schedule keeps microsecond-ish precision at rates far
/// above the OS timer granularity.
fn wait_until(deadline: Instant) {
    while let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
        if remaining > Duration::from_micros(300) {
            std::thread::sleep(remaining - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Whether `reply` completes its request. A typed error or a shed does
/// not, and neither does an audit that saw a total other than
/// `expected_total` — a torn snapshot.
pub(crate) fn completes(reply: &Reply, expected_total: i64) -> bool {
    match *reply {
        Reply::Overloaded | Reply::Error(_) => false,
        Reply::Total(total) => total == expected_total,
        Reply::Ok | Reply::Flag(_) | Reply::Stats(_) => true,
    }
}

/// The `service` transport's pooled request record: armed with a request,
/// run once on a worker, recycled into its home pool. The tables and the
/// error counter stay in the record across reuses, so arming one writes the
/// request and nothing else. Workers touch the shared counter only on a
/// failed request: a healthy run shares no cache line with the measurement.
struct Record<E: TxnEngine> {
    tables: Arc<Tables<E>>,
    errors: Arc<AtomicU64>,
    req: Request,
    home: WeakPool<Box<Record<E>>>,
}

impl<E: TxnEngine> RunRequest<E> for Record<E> {
    fn run(&mut self, h: &mut E::Handle) {
        let reply = self.tables.apply(h, &self.req);
        if !completes(&reply, self.tables.expected_total()) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn recycle(self: Box<Self>) {
        if let Some(pool) = self.home.upgrade() {
            pool.put(self);
        }
    }
}

struct ServicePath<E: TxnEngine> {
    engine: E,
    svc: TxnService<E>,
    tables: Arc<Tables<E>>,
    errors: Arc<AtomicU64>,
    /// Admitted audits, counted on the submitter.
    audits: u64,
    pool: Pool<Box<Record<E>>>,
    mid_scrape: Option<String>,
}

impl<E: TxnEngine> ServicePath<E> {
    fn start(engine: E, spec: &Spec) -> Self {
        let tables = Arc::new(Tables::build(&engine, &TablesConfig::default()));
        let svc = TxnService::start(
            engine.clone(),
            ServiceConfig {
                workers: spec.workers,
                queue_depth: spec.queue_depth,
            },
        );
        ServicePath {
            engine,
            svc,
            tables,
            errors: Arc::default(),
            audits: 0,
            // Every record that can be admitted at once (all queues full)
            // has a home to return to.
            pool: Pool::new(spec.workers * spec.queue_depth + 64),
            mid_scrape: None,
        }
    }
}

impl<E: TxnEngine> ServingPath for ServicePath<E> {
    fn offer(&mut self, req: Request) {
        let mut record = self.pool.get().unwrap_or_else(|| {
            Box::new(Record {
                tables: Arc::clone(&self.tables),
                errors: Arc::clone(&self.errors),
                req,
                home: self.pool.downgrade(),
            })
        });
        record.req = req;
        let shard = shard_hint(&req).map(|s| s as usize);
        match self.svc.submit_record(shard, record) {
            Ok(()) => self.audits += u64::from(req == Request::BankAudit),
            Err((SubmitError::Overloaded, record)) => record.recycle(),
            Err((SubmitError::Closed, _)) => {
                panic!("service closed during the measurement window")
            }
        }
    }

    fn scrape(&mut self) {
        self.mid_scrape = Some(self.svc.metrics().snapshot_json());
    }

    fn finish(self, start: Instant, offered: u64, samples: Vec<MemoryStats>) -> Outcome {
        let report = self.svc.shutdown();
        let elapsed = start.elapsed();
        self.tables.assert_quiescent(&self.engine);
        assert_eq!(
            report.completed, report.submitted,
            "close-then-drain must finish every accepted request"
        );
        let errors = self.errors.load(Ordering::Relaxed);
        Outcome {
            offered,
            completed: report.completed - errors,
            shed: report.shed,
            errors,
            audits: self.audits,
            elapsed,
            latency: report.latency,
            engine: report.engine,
            pool: self.pool.stats(),
            mid_scrape: self.mid_scrape,
            samples,
            wire: None,
        }
    }
}

/// The `wire` receiver's reply accounting; it alone owns it.
#[derive(Default)]
struct Tally {
    completed: u64,
    shed: u64,
    errors: u64,
    audits: u64,
}

/// A sent request's pending reply, with its submit instant; the halftime
/// `Stats` scrape's carries `None`.
type InFlight = (PendingReply, Option<Instant>);

struct WirePath<E: TxnEngine> {
    server: WireServer<E>,
    client: WireClient,
    fifo: mpsc::Sender<InFlight>,
    receiver: JoinHandle<(Tally, LatencyHistogram, Option<String>)>,
    send_errors: u64,
    scrapes: u64,
}

impl<E: TxnEngine> WirePath<E> {
    fn start(engine: E, spec: &Spec) -> Self {
        let tables = TablesConfig::default();
        let server = WireServer::start(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: spec.workers,
                queue_depth: spec.queue_depth,
                window: spec.window,
                tables,
            },
        )
        .expect("loopback bind");
        let client = WireClient::connect(server.local_addr(), spec.conns).expect("loopback client");
        // The submitter never waits on a reply: it pushes each pending reply
        // into this FIFO, and one receiver thread waits on them in send
        // order and alone owns the tally and the histogram.
        let (fifo, replies) = mpsc::channel();
        let expected_total = tables.expected_total();
        let receiver = std::thread::spawn(move || collect_replies(replies, expected_total));
        WirePath {
            server,
            client,
            fifo,
            receiver,
            send_errors: 0,
            scrapes: 0,
        }
    }
}

/// Wait on every reply in send order.
fn collect_replies(
    fifo: mpsc::Receiver<InFlight>,
    expected_total: i64,
) -> (Tally, LatencyHistogram, Option<String>) {
    let mut tally = Tally::default();
    let mut latency = LatencyHistogram::new();
    let mut mid_scrape = None;
    for (pending, submitted) in fifo {
        match (pending.wait(), submitted) {
            (Ok(Reply::Stats(json)), None) => mid_scrape = String::from_utf8(json).ok(),
            (_, None) => {} // a lost scrape is not a lost request
            (Ok(Reply::Overloaded), Some(_)) => tally.shed += 1,
            (Ok(reply), Some(t)) => {
                tally.audits += u64::from(matches!(reply, Reply::Total(_)));
                if completes(&reply, expected_total) {
                    tally.completed += 1;
                    latency.record(t.elapsed());
                } else {
                    tally.errors += 1;
                }
            }
            (Err(_), Some(_)) => tally.errors += 1,
        }
    }
    (tally, latency, mid_scrape)
}

impl<E: TxnEngine> ServingPath for WirePath<E> {
    fn offer(&mut self, req: Request) {
        let submitted = Instant::now();
        match self.client.send(&req) {
            Ok(pending) => {
                // The receiver outlives the submitter: this cannot fail.
                let _ = self.fifo.send((pending, Some(submitted)));
            }
            Err(_) => self.send_errors += 1,
        }
    }

    fn scrape(&mut self) {
        if let Ok(pending) = self.client.send(&Request::Stats) {
            self.scrapes += 1;
            let _ = self.fifo.send((pending, None));
        }
    }

    fn finish(self, start: Instant, offered: u64, samples: Vec<MemoryStats>) -> Outcome {
        // Every sent request resolves (reply or connection loss) before the
        // server is torn down, so the histogram covers every completion.
        drop(self.fifo);
        let (tally, latency, mid_scrape) = self.receiver.join().expect("reply receiver panicked");
        let elapsed = start.elapsed();
        drop(self.client);
        // Shutdown audits the tables.
        let report = self.server.shutdown();
        Outcome {
            offered,
            completed: tally.completed,
            shed: tally.shed,
            errors: tally.errors + self.send_errors,
            audits: tally.audits,
            elapsed,
            latency,
            engine: report.service.engine,
            pool: report.job_pool,
            mid_scrape,
            samples,
            wire: Some(Frames {
                frames_in: report.frames_in,
                frames_out: report.frames_out,
                protocol_errors: report.protocol_errors,
                scrapes: self.scrapes,
                buf_pool: report.buf_pool,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_stm::{Stm, StmConfig};
    use lsa_time::counter::SharedCounter;
    use lsa_time::sharded::ShardedTimeBase;

    fn quick_spec(transport: Transport, kind: Kind) -> Spec {
        Spec {
            transport,
            kind,
            rate: 1_500.0,
            duration: Duration::from_millis(100),
            rounds: 1,
            workers: 2,
            queue_depth: 128,
            window: 64,
            conns: 2,
        }
    }

    /// The accounting identities every healthy run keeps, on either
    /// transport.
    fn assert_accounts(out: &Outcome, transport: Transport) {
        let t = transport.name();
        assert_eq!(out.errors, 0, "{t}: a healthy run loses nothing");
        assert_eq!(out.completed + out.shed + out.errors, out.offered, "{t}");
        assert_eq!(out.latency.count(), out.completed, "{t}");
        assert_eq!(out.engine.abort_reasons.overload, out.shed, "{t}");
        // Every arrival that reaches the service takes one record.
        assert_eq!(out.pool.hits + out.pool.misses, out.offered, "{t}");
        assert_eq!(out.wire.is_some(), transport == Transport::Wire, "{t}");
        if let Some(f) = &out.wire {
            assert_eq!(f.scrapes, 1, "one stats scrape per run");
            assert_eq!(f.frames_in, out.offered + f.scrapes);
            assert_eq!(f.frames_out, out.offered + f.scrapes);
            assert_eq!(f.protocol_errors, 0);
        }
    }

    /// A bank run on `lsa-rt` accounts exactly, checks its audits, and fills
    /// in the engine, memory, pool and halftime-scrape columns.
    fn bank_run_accounts(transport: Transport) {
        let out = run_open_loop(
            Stm::new(SharedCounter::new()),
            &quick_spec(transport, Kind::Bank),
        );
        let t = transport.name();
        assert!(
            out.offered > 50,
            "{t}: open loop must offer at the schedule"
        );
        assert_accounts(&out, transport);
        assert!(out.audits > 0, "{t}: 20% of bank requests are audits");
        assert!(out.latency.p99() >= out.latency.p50());
        assert!(out.throughput() > 0.0);
        assert!(
            out.engine.commits > 0 && out.engine.memory.versions_live >= 64,
            "{t}: engine stats and memory gauges must be filled in: {:?}",
            out.engine
        );
        // After warm-up recycled records dominate fresh allocations.
        assert!(out.pool.hits > 0, "{t}: no record reuse: {:?}", out.pool);
        // The halftime scrape happened under live load and carries the
        // engine- and service-level names, plus the wire's on `wire`.
        let scrape = out.mid_scrape.expect("halftime registry scrape");
        for name in [
            "service.submitted",
            "service.queue_depth",
            "engine.commits",
            "time.commit_ts.shared",
        ] {
            assert!(scrape.contains(&format!("\"{name}\"")), "{t}: no {name}");
        }
        assert_eq!(
            scrape.contains("\"wire.frames_in\""),
            transport == Transport::Wire
        );
    }

    #[test]
    fn open_loop_bank_completes_and_accounts() {
        bank_run_accounts(Transport::Service);
    }

    #[test]
    fn open_loop_bank_over_the_wire_accounts_exactly() {
        bank_run_accounts(Transport::Wire);
    }

    #[test]
    fn transports_draw_identical_requests() {
        /// Records what the arrival loop offers, then passes it on.
        struct Tap<'a, P>(P, &'a mut Vec<Request>);
        impl<P: ServingPath> ServingPath for Tap<'_, P> {
            fn offer(&mut self, req: Request) {
                self.1.push(req);
                self.0.offer(req);
            }
            fn scrape(&mut self) {
                self.0.scrape();
            }
            fn finish(self, start: Instant, offered: u64, samples: Vec<MemoryStats>) -> Outcome {
                self.0.finish(start, offered, samples)
            }
        }

        let spec = quick_spec(Transport::Service, Kind::Bank);
        let (mut service, mut wire) = (Vec::new(), Vec::new());
        let engine = Stm::new(SharedCounter::new());
        let path = ServicePath::start(engine.clone(), &spec);
        drive(Tap(path, &mut service), &engine, &spec);
        let engine = Stm::new(SharedCounter::new());
        let path = WirePath::start(engine.clone(), &spec);
        drive(Tap(path, &mut wire), &engine, &spec);
        let n = service.len().min(wire.len());
        assert!(n > 50, "both runs offer at the schedule");
        assert_eq!(service[..n], wire[..n]);
        assert!(service.contains(&Request::BankAudit));
    }

    /// Every kind serves, accounts and checks its audits on a sharded LSA
    /// engine.
    fn every_kind_on_sharded_lsa(transport: Transport) {
        for kind in Kind::ALL {
            let out = run_open_loop(
                Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4)),
                &Spec {
                    duration: Duration::from_millis(80),
                    ..quick_spec(transport, kind)
                },
            );
            let cell = format!("{} over {}", kind.name(), transport.name());
            assert!(out.completed > 0, "{cell} served nothing");
            assert_accounts(&out, transport);
            if matches!(kind, Kind::Bank | Kind::Snapshot) {
                assert!(out.audits > 0, "{cell} checked no audit");
            }
        }
    }

    #[test]
    fn all_request_kinds_run_on_sharded_lsa() {
        every_kind_on_sharded_lsa(Transport::Service);
    }

    #[test]
    fn every_kind_runs_on_the_sharded_engine() {
        every_kind_on_sharded_lsa(Transport::Wire);
    }

    #[test]
    fn overload_sheds_instead_of_queueing_unboundedly() {
        // One worker, a tiny queue, a rate far above what one worker serves
        // of 80% whole-table audits: admission control must shed rather
        // than absorb the backlog.
        for transport in Transport::ALL {
            let out = run_open_loop(
                Stm::new(SharedCounter::new()),
                &Spec {
                    rate: 1_000_000.0,
                    duration: Duration::from_millis(80),
                    workers: 1,
                    queue_depth: 8,
                    ..quick_spec(transport, Kind::Snapshot)
                },
            );
            assert!(
                out.shed > 0,
                "{}: an offered rate far above capacity must shed ({} offered, {} done)",
                transport.name(),
                out.offered,
                out.completed
            );
            assert!(out.shed_rate() > 0.0 && out.shed_rate() <= 1.0);
            assert_accounts(&out, transport);
        }
    }

    #[test]
    fn memory_ceiling_samples_every_round_and_plateaus() {
        for transport in Transport::ALL {
            let out = run_open_loop(
                Stm::with_config(SharedCounter::new(), StmConfig::watermark_retention()),
                &Spec {
                    duration: Duration::from_millis(40),
                    rounds: 4,
                    ..quick_spec(transport, Kind::Snapshot)
                },
            );
            assert_eq!(out.samples.len(), 4, "one sample per round");
            assert_accounts(&out, transport);
            assert!(
                out.plateaued(),
                "{}: watermark retention must bound live versions: {:?}",
                transport.name(),
                out.samples
            );
        }
    }

    #[test]
    fn torn_audits_count_as_errors() {
        assert!(completes(&Reply::Total(640), 640));
        assert!(!completes(&Reply::Total(639), 640));
        assert!(!completes(&Reply::Overloaded, 640));
        assert!(completes(&Reply::Flag(false), 640));
        assert!(completes(&Reply::Ok, 640));
    }

    #[test]
    fn knee_index_flags_shed_onset_and_latency_blowup() {
        let p = |shed_rate, p99_ns| KneePoint { shed_rate, p99_ns };
        // Shed onset at the third point.
        assert_eq!(
            knee_index(&[p(0.0, 100), p(0.001, 120), p(0.2, 150), p(0.6, 200)]),
            Some(2)
        );
        // p99 blow-up before any shedding.
        assert_eq!(
            knee_index(&[p(0.0, 100), p(0.0, 250), p(0.0, 900)]),
            Some(2)
        );
        // Linear regime throughout.
        assert_eq!(knee_index(&[p(0.0, 100), p(0.0, 110), p(0.005, 130)]), None);
        assert_eq!(knee_index(&[]), None);
    }

    #[test]
    fn kind_parsing_round_trips() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        for transport in Transport::ALL {
            assert_eq!(Transport::parse(transport.name()), Some(transport));
        }
        assert_eq!(Kind::parse("nope"), None);
        assert_eq!(Transport::parse("nope"), None);
    }
}
