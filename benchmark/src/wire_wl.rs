//! The served workloads: `wire_pipelined` (closed loop) and `wire_open`
//! (open loop) over loopback TCP, through `WireClient` → `WireServer` →
//! `TxnService` → the engine.

use crate::gen;
use crate::run::{
    fold_segment, Check, RunOut, SegAcc, SegmentSpec, SPAN_CAPACITY, THREADS, WARMUP_OPS,
};
use crate::spans::{SpanLog, REQUEST, WIRE_SEND, WIRE_WAIT};
use crate::sys;
use lsa_engine::{MemoryStats, TxnEngine};
use lsa_obs::MetricsRegistry;
use lsa_wire::{
    PendingReply, Reply, Request, ServerConfig, TablesConfig, WireClient, WireError, WireReport,
    WireServer,
};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests `wire_pipelined` keeps outstanding, over both lanes together.
pub const DEPTH: usize = 32;
/// Requests per second `wire_open` offers: about a quarter of what the
/// closed loop sustains on the bank mix on the reference host.
pub const OPEN_RATE: u32 = 20_000;
/// `wire_open` offers its rate as bursts of this many requests, all due at
/// once, one burst per millisecond. A sender pacing single requests 50 µs
/// apart can only spin, which on a two-CPU host takes a CPU from the
/// server and made the median latency irreproducible (90–400 µs between
/// identical runs); between bursts the sender sleeps.
pub const OPEN_BURST: u32 = 20;
/// A burst whose first send leaves this long after it was due is late:
/// well past the sleeping sender's usual overshoot, so a late burst means
/// the generator was stalled, not that the timer was coarse.
pub const LATE: Duration = Duration::from_micros(250);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireKind {
    /// Hashset ops, [`DEPTH`] outstanding, refilled on each reply.
    Pipelined,
    /// Bank transfers and audits offered at [`OPEN_RATE`], in bursts of
    /// [`OPEN_BURST`], whatever comes back.
    Open,
}

impl WireKind {
    /// The workload's inputs, generated from `seed`.
    pub fn requests(self, seed: u64, tables: &TablesConfig) -> Vec<Request> {
        match self {
            WireKind::Pipelined => gen::hashset_requests(seed, tables),
            WireKind::Open => gen::bank_requests(seed, tables),
        }
    }

    fn lanes(self) -> usize {
        match self {
            WireKind::Pipelined => 2,
            WireKind::Open => 1,
        }
    }
}

/// The server every wire workload runs against.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: THREADS,
        queue_depth: 256,
        window: 128,
        tables: TablesConfig::default(),
    }
}

/// Is `reply` the right answer to `req`? Sheds, typed errors and lost
/// connections are all wrong answers here: the workloads are sized so
/// that none occurs.
pub fn reply_ok(req: &Request, reply: &Result<Reply, WireError>, expected_total: i64) -> bool {
    match (req, reply) {
        (Request::Hashset { .. } | Request::Intset { .. }, Ok(Reply::Flag(_))) => true,
        (Request::BankTransfer { .. } | Request::Ping, Ok(Reply::Ok)) => true,
        (Request::BankAudit, Ok(Reply::Total(total))) => *total == expected_total,
        (Request::Stats, Ok(Reply::Stats(_))) => true,
        _ => false,
    }
}

/// One request the closed loop has sent and not yet seen answered.
struct InFlight {
    pending: PendingReply,
    sent: Instant,
    send_end: Option<Instant>,
    idx: usize,
}

/// One answered request.
pub struct Completed {
    pub ok: bool,
    pub sent: Instant,
    pub send_end: Option<Instant>,
    pub done: Instant,
    pub idx: usize,
}

/// A closed-loop generator: keeps up to `depth` requests outstanding and
/// waits for replies in send order.
pub struct ClosedLoop<'a> {
    client: &'a WireClient,
    reqs: &'a [Request],
    depth: usize,
    expected_total: i64,
    cursor: usize,
    window: VecDeque<InFlight>,
    /// Requests sent, answered correctly, and failed (at send or by answer).
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
}

impl<'a> ClosedLoop<'a> {
    pub fn new(
        client: &'a WireClient,
        reqs: &'a [Request],
        depth: usize,
        expected_total: i64,
    ) -> Self {
        ClosedLoop {
            client,
            reqs,
            depth,
            expected_total,
            cursor: 0,
            window: VecDeque::with_capacity(depth),
            attempted: 0,
            completed: 0,
            failed: 0,
        }
    }

    /// Send until `depth` requests are outstanding. With `stamp`, read the
    /// clock once more after each send (the `wire.send` span's end).
    pub fn fill(&mut self, stamp: bool) {
        while self.window.len() < self.depth {
            let idx = self.cursor;
            self.cursor = (self.cursor + 1) % self.reqs.len();
            self.attempted += 1;
            let sent = Instant::now();
            match self.client.send(&self.reqs[idx]) {
                Ok(pending) => self.window.push_back(InFlight {
                    pending,
                    sent,
                    send_end: stamp.then(Instant::now),
                    idx,
                }),
                Err(_) => {
                    self.failed += 1;
                    return; // a dead lane: let the caller look at the clock
                }
            }
        }
    }

    /// Wait for the oldest outstanding reply; `None` when nothing is
    /// outstanding.
    pub fn complete_one(&mut self) -> Option<Completed> {
        let f = self.window.pop_front()?;
        let reply = f.pending.wait();
        let done = Instant::now();
        let ok = reply_ok(&self.reqs[f.idx], &reply, self.expected_total);
        if ok {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
        Some(Completed {
            ok,
            sent: f.sent,
            send_end: f.send_end,
            done,
            idx: f.idx,
        })
    }

    /// Answer `n` more requests at full depth.
    pub fn run_ops(&mut self, n: usize) {
        for _ in 0..n {
            self.fill(false);
            if self.complete_one().is_none() {
                break; // every send failed; `failed` says so
            }
        }
    }

    /// Wait for everything outstanding.
    pub fn drain(&mut self) {
        while self.complete_one().is_some() {}
    }
}

/// Record one answered request as `request` ⊃ `wire.send`, `wire.wait`:
/// the whole tree or, when the log is full, none of it. `send_end` is
/// `None` outside traced segments.
fn record_request(
    log: &mut SpanLog,
    start: Instant,
    sent: Instant,
    send_end: Option<Instant>,
    done: Instant,
    req_id: u64,
) {
    let Some(send_end) = send_end else { return };
    if !log.has_room(3) {
        log.dropped += 3;
        return;
    }
    let parent = log.push(REQUEST, start, done, 0, req_id);
    log.push(WIRE_SEND, sent, send_end, parent, req_id);
    log.push(WIRE_WAIT, send_end, done, parent, req_id);
}

/// A server with its tables and a connected client, ready to run.
pub struct WireRig<E: TxnEngine> {
    kind: WireKind,
    engine: E,
    server: WireServer<E>,
    client: WireClient,
    reqs: Vec<Request>,
    expected_total: i64,
}

/// What the open-loop sender hands the receiver per request.
struct Sent {
    due: Instant,
    sent: Instant,
    send_end: Option<Instant>,
    pending: Result<PendingReply, WireError>,
    idx: usize,
    seg: usize,
}

/// Sleep until `deadline`. The sender neither spins nor yields its way to
/// a due time: on a two-CPU host either takes a CPU from the server for
/// part of every millisecond, and which server threads it displaced
/// changed the median latency by a factor of two between identical runs.
/// A sleeping sender wakes 60–110 µs late; that lateness is measured (it is
/// part of every latency, which counts from the due time) and reported.
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

impl<E: TxnEngine> WireRig<E> {
    /// Generate the requests from `seed`, start the server on `engine`
    /// (which builds the tables) and make the client.
    pub fn setup(kind: WireKind, engine: E, seed: u64) -> std::io::Result<Self> {
        let cfg = server_config();
        let reqs = kind.requests(seed, &cfg.tables);
        let server = WireServer::start(engine.clone(), "127.0.0.1:0", cfg)?;
        let client = WireClient::connect(server.local_addr(), kind.lanes())?;
        Ok(WireRig {
            kind,
            engine,
            server,
            client,
            reqs,
            expected_total: cfg.tables.accounts as i64 * cfg.tables.initial,
        })
    }

    pub fn requests(&self) -> &[Request] {
        &self.reqs
    }

    pub fn expected_total(&self) -> i64 {
        self.expected_total
    }

    pub fn client(&self) -> &WireClient {
        &self.client
    }

    pub fn registry(&self) -> &MetricsRegistry {
        self.server.metrics()
    }

    /// Warm up (closed loop, which also opens the lazily connected
    /// lanes), then run `plan`. With `probe_mid`, sample the server's
    /// queue-depth and window gauges halfway through.
    pub fn run(&self, plan: &[SegmentSpec], epoch: Instant, probe_mid: bool) -> RunOut {
        let mut warm = ClosedLoop::new(&self.client, &self.reqs, DEPTH, self.expected_total);
        warm.run_ops(WARMUP_OPS);
        let mut out = match self.kind {
            WireKind::Pipelined => self.run_pipelined(warm, plan, epoch, probe_mid),
            WireKind::Open => {
                warm.drain();
                let cursor = warm.cursor;
                let mut out = self.run_open(cursor, plan, epoch, probe_mid);
                out.attempted += warm.attempted;
                out.completed += warm.completed;
                out.failed += warm.failed;
                out
            }
        };
        out.lat_ns.sort_unstable();
        out.late_ns.sort_unstable();
        out
    }

    fn mid_gauges(&self) -> Option<(i64, i64)> {
        let snap = self.registry().snapshot();
        Some((
            snap.gauge("service.queue_depth")?,
            snap.gauge("wire.window_in_flight")?,
        ))
    }

    fn run_pipelined(
        &self,
        mut cl: ClosedLoop<'_>,
        plan: &[SegmentSpec],
        epoch: Instant,
        probe_mid: bool,
    ) -> RunOut {
        let mut log = SpanLog::new(epoch, SPAN_CAPACITY);
        let mut accs: Vec<SegAcc> = plan
            .iter()
            // Room for a latency per 2 µs of segment, several times what
            // the loopback stack can answer.
            .map(|spec| SegAcc::with_capacity(spec.dur.as_micros() as usize / 2 + DEPTH))
            .collect();
        let mut mid_gauges = None;
        let warm_done = Instant::now();
        let cpu_before = sys::process_cpu_seconds();
        for (i, (spec, acc)) in plan.iter().zip(&mut accs).enumerate() {
            if probe_mid && i == plan.len() / 2 {
                cl.fill(false);
                mid_gauges = self.mid_gauges();
            }
            let start = Instant::now();
            let deadline = start + spec.dur;
            loop {
                cl.fill(spec.traced);
                let now = match cl.complete_one() {
                    Some(c) => {
                        if c.ok {
                            acc.ok += 1;
                        } else {
                            acc.failed += 1;
                        }
                        acc.judge(c.ok, c.done - c.sent);
                        record_request(&mut log, c.sent, c.sent, c.send_end, c.done, c.idx as u64);
                        c.done
                    }
                    None => {
                        // Every send failed: do not spin on a dead server.
                        std::thread::sleep(Duration::from_millis(1));
                        Instant::now()
                    }
                };
                if now >= deadline {
                    acc.elapsed = now - start;
                    break;
                }
            }
        }
        let cpu_s = sys::process_cpu_seconds() - cpu_before;
        cl.drain();
        let mut lat_ns = Vec::new();
        let segments = plan
            .iter()
            .zip(accs)
            .map(|(&spec, acc)| fold_segment(spec, vec![acc], &mut lat_ns))
            .collect();
        RunOut {
            warm_done,
            segments,
            attempted: cl.attempted,
            completed: cl.completed,
            failed: cl.failed,
            lat_ns,
            late_ns: Vec::new(),
            offered_per_s: 0.0,
            spans_dropped: log.dropped,
            spans: log.into_spans(),
            mid_gauges,
            cpu_s,
        }
    }

    fn run_open(
        &self,
        first_req: usize,
        plan: &[SegmentSpec],
        epoch: Instant,
        probe_mid: bool,
    ) -> RunOut {
        let tick = Duration::from_secs(1) * OPEN_BURST / OPEN_RATE;
        // Segment `i` owns the due times (and the replies seen) before
        // `ends[i]` on the schedule's clock.
        let ends: Vec<Duration> = plan
            .iter()
            .scan(Duration::ZERO, |t, spec| {
                *t += spec.dur;
                Some(*t)
            })
            .collect();
        let total = ends.last().copied().unwrap_or(Duration::ZERO);
        let per_segment = |spec: &SegmentSpec| {
            (spec.dur.as_nanos() / tick.as_nanos() + 1) as usize * OPEN_BURST as usize
        };
        let mut accs: Vec<SegAcc> = plan
            .iter()
            .map(|spec| SegAcc::with_capacity(per_segment(spec)))
            .collect();
        let mut late_ns = Vec::with_capacity((total.as_nanos() / tick.as_nanos()) as usize + 1);
        let mut log = SpanLog::new(epoch, SPAN_CAPACITY);
        let mut mid_gauges = None;
        let (mut completed, mut failed) = (0u64, 0u64);
        let (tx, rx) = mpsc::channel::<Sent>();
        let warm_done = Instant::now();
        let cpu_before = sys::process_cpu_seconds();
        let start = warm_done + Duration::from_millis(2);

        let (client, reqs) = (&self.client, &self.reqs[..]);
        let ends_ref = &ends;
        let (attempted, sender_cpu_s) = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                let cpu_before = sys::thread_cpu_seconds();
                let mut sends = 0u64;
                let mut seg = 0;
                for k in 0u32.. {
                    let offset = tick * k;
                    if offset >= total {
                        break;
                    }
                    while offset >= ends_ref[seg] {
                        seg += 1;
                    }
                    let due = start + offset;
                    sleep_until(due);
                    for _ in 0..OPEN_BURST {
                        let idx = (first_req + sends as usize) % reqs.len();
                        sends += 1;
                        let sent = Instant::now();
                        let pending = client.send(&reqs[idx]);
                        let send_end = plan[seg].traced.then(Instant::now);
                        // The receiver outlives the sender: this cannot fail.
                        let _ = tx.send(Sent {
                            due,
                            sent,
                            send_end,
                            pending,
                            idx,
                            seg,
                        });
                    }
                }
                (sends, sys::thread_cpu_seconds() - cpu_before)
            });

            // The receiver: replies are awaited in send order, so the
            // sender never waits for one.
            let mut done_seg = 0;
            let mut last_due = None;
            // First and last reply seen per segment window: the window's
            // throughput is taken between them, as measured.
            let mut seen_span: Vec<Option<(Duration, Duration)>> = vec![None; plan.len()];
            for item in rx {
                let ok = match item.pending {
                    Ok(pending) => reply_ok(&reqs[item.idx], &pending.wait(), self.expected_total),
                    Err(_) => false,
                };
                let done = Instant::now();
                // Latency and failures belong to the segment the request
                // was due in, throughput to the one its reply was seen in.
                let acc = &mut accs[item.seg];
                acc.judge(ok, done.saturating_duration_since(item.due));
                if last_due != Some(item.due) {
                    // First send of a burst: how late did the sender wake?
                    last_due = Some(item.due);
                    let lateness = item.sent.saturating_duration_since(item.due);
                    acc.paced += 1;
                    acc.late += (lateness > LATE) as u64;
                    late_ns.push(u32::try_from(lateness.as_nanos()).unwrap_or(u32::MAX));
                }
                if ok {
                    completed += 1;
                    let seen = done.saturating_duration_since(start);
                    while done_seg < ends.len() && seen >= ends[done_seg] {
                        done_seg += 1;
                    }
                    if let Some(acc) = accs.get_mut(done_seg) {
                        acc.ok += 1;
                        let span = seen_span[done_seg].get_or_insert((seen, seen));
                        span.1 = seen;
                    }
                } else {
                    failed += 1;
                    accs[item.seg].failed += 1;
                }
                let id = item.idx as u64;
                record_request(&mut log, item.due, item.sent, item.send_end, done, id);
                if probe_mid && mid_gauges.is_none() && item.seg >= plan.len() / 2 {
                    mid_gauges = self.mid_gauges();
                }
            }
            // `n` replies between the first and the last span `n - 1`
            // gaps; scale the span so that `ok / elapsed` is the rate.
            for (acc, span) in accs.iter_mut().zip(seen_span) {
                acc.elapsed = match span {
                    Some((first, last)) if acc.ok > 1 => {
                        (last - first).mul_f64(acc.ok as f64 / (acc.ok - 1) as f64)
                    }
                    _ => Duration::ZERO,
                };
            }
            sender.join().expect("open-loop sender panicked")
        });
        let cpu_s = sys::process_cpu_seconds() - cpu_before - sender_cpu_s;

        let mut lat_ns = Vec::new();
        let segments = plan
            .iter()
            .zip(accs)
            .map(|(&spec, acc)| fold_segment(spec, vec![acc], &mut lat_ns))
            .collect();
        RunOut {
            warm_done,
            segments,
            attempted,
            completed,
            failed,
            lat_ns,
            late_ns,
            offered_per_s: attempted as f64 / total.as_secs_f64().max(1e-9),
            spans_dropped: log.dropped,
            spans: log.into_spans(),
            mid_gauges,
            cpu_s,
        }
    }

    /// Drop the client, shut the server down (which audits the tables)
    /// and check both sides' accounting against the generator's counts of
    /// requests sent, answered correctly and failed.
    pub fn finish(
        self,
        attempted: u64,
        completed: u64,
        failed: u64,
    ) -> (Vec<Check>, Option<WireReport>, MemoryStats) {
        let WireRig {
            engine,
            server,
            client,
            ..
        } = self;
        drop(client);
        let memory = engine.memory_stats();
        // `shutdown` panics when its audit of the tables fails.
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.shutdown()));
        let mut checks = vec![
            ("server shutdown audit passes".to_string(), report.is_ok()),
            (
                format!("completed ({completed}) + failed ({failed}) == attempted ({attempted})"),
                completed + failed == attempted,
            ),
        ];
        let report = report.ok();
        if let Some(r) = &report {
            checks.push((
                format!(
                    "frames_in ({}) == frames_out ({}) == attempted ({attempted})",
                    r.frames_in, r.frames_out
                ),
                r.frames_in == attempted && r.frames_out == attempted,
            ));
            checks.push((
                format!(
                    "service.submitted ({}) == service.completed ({})",
                    r.service.submitted, r.service.completed
                ),
                r.service.submitted == r.service.completed,
            ));
            checks.push((
                format!("protocol_errors ({}) == 0", r.protocol_errors),
                r.protocol_errors == 0,
            ));
        }
        (checks, report, memory)
    }
}
