//! Open-loop load generation over the wire: the `lsa-wire` TCP serving
//! path measured end to end (encode → socket → server → service → reply).
//!
//! [`crate::service_bench`] measures the in-process serving path; this
//! module puts a real loopback socket, framing and the server's bounded
//! in-flight windows between the load generator and the workers. The same
//! open-loop discipline applies — arrival `n` fires at `start + n/rate`
//! regardless of completions — so queueing delay lands in the latency
//! percentiles and overload shows up as typed `Overloaded` replies rather
//! than an unbounded backlog.
//!
//! Sweeping `rate` over a geometric grid ([`crate::args::RangeSpec`])
//! and feeding the per-point outcomes to [`knee_index`] locates the
//! saturation knee: the first offered rate where the server starts
//! shedding or p99 latency blows past the uncontended baseline.

use lsa_engine::TxnEngine;
use lsa_service::LatencyHistogram;
use lsa_wire::{
    PendingReply, Reply, Request, ServerConfig, SetOp, TablesConfig, WireClient, WireReport,
    WireServer,
};
use lsa_workloads::FastRng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Which request mix the wire load generator submits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetKind {
    /// Transfers (80%) + whole-table audits (20%); the server asserts the
    /// invariant total at shutdown.
    Bank,
    /// Sorted-list member (60%) / insert (20%) / remove (20%).
    Intset,
    /// Bucketed-hash member (60%) / insert (20%) / remove (20%) — short
    /// transactions where fixed per-request costs dominate.
    Hashset,
}

impl NetKind {
    /// All kinds, in table order.
    pub const ALL: [NetKind; 3] = [NetKind::Bank, NetKind::Intset, NetKind::Hashset];

    /// Short name for tables and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            NetKind::Bank => "bank",
            NetKind::Intset => "intset",
            NetKind::Hashset => "hashset",
        }
    }

    /// Parse a CLI argument.
    pub fn parse(s: &str) -> Option<Self> {
        NetKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Parameters of one open-loop wire run.
#[derive(Clone, Copy, Debug)]
pub struct NetSpec {
    /// Request mix.
    pub kind: NetKind,
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Submission window (drain time comes on top).
    pub duration: Duration,
    /// Service worker threads behind the server.
    pub workers: usize,
    /// Per-worker bounded admission queue depth.
    pub queue_depth: usize,
    /// Per-connection in-flight window on the server.
    pub window: usize,
    /// Client connections (pipelined lanes).
    pub conns: usize,
}

impl Default for NetSpec {
    fn default() -> Self {
        NetSpec {
            kind: NetKind::Bank,
            rate: 5_000.0,
            duration: Duration::from_millis(300),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            queue_depth: 256,
            window: 128,
            conns: 2,
        }
    }
}

/// Outcome of one open-loop wire run.
#[derive(Debug)]
pub struct NetOutcome {
    /// Requests the generator offered (completed + shed + errors).
    pub offered: u64,
    /// Requests that completed with a success reply.
    pub completed: u64,
    /// Requests the server shed with a typed `Overloaded` reply.
    pub shed: u64,
    /// Requests lost to transport failure or answered with a typed error —
    /// zero in a healthy run.
    pub errors: u64,
    /// Wall clock from first arrival to full drain.
    pub elapsed: Duration,
    /// Client-side submit-to-reply latency distribution (completed
    /// requests only — the full round trip including framing and socket),
    /// recorded by the one receiver thread that waits on replies in send
    /// order.
    pub latency: LatencyHistogram,
    /// The server's own accounting (frames, sheds, protocol errors,
    /// service report).
    pub report: WireReport,
    /// A `Stats` scrape sent over the live wire at the halfway point of the
    /// submission window: the server's registry snapshot (JSON), taken
    /// while the workload was in flight. `None` only if the scrape's reply
    /// was lost with the connection.
    pub mid_scrape: Option<String>,
    /// `Stats` requests the generator sent alongside the workload. They
    /// ride the frame counters (`frames_in`/`frames_out`) but not the
    /// service queues, so `report.frames_in == offered + scrapes`.
    pub scrapes: u64,
}

impl NetOutcome {
    /// Completed requests per second (drain included).
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of offered requests shed in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// The sweep-point summary [`knee_index`] consumes.
    pub fn knee_point(&self, rate: f64) -> KneePoint {
        KneePoint {
            rate,
            shed_rate: self.shed_rate(),
            p99_ns: self.latency.p99(),
        }
    }
}

/// One point of a saturation sweep, reduced to the two knee signals.
#[derive(Clone, Copy, Debug)]
pub struct KneePoint {
    /// Offered rate at this point, requests per second.
    pub rate: f64,
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

/// Draw one request from the mix. Key and account ranges match the
/// server-side [`TablesConfig`] so no request is ever out of range.
fn draw_request(kind: NetKind, rng: &mut FastRng, cfg: &TablesConfig) -> Request {
    fn set_op(rng: &mut FastRng) -> SetOp {
        match rng.below(10) {
            0..=5 => SetOp::Member,
            6 | 7 => SetOp::Insert,
            _ => SetOp::Remove,
        }
    }
    match kind {
        NetKind::Bank => {
            if rng.percent(20) {
                Request::BankAudit
            } else {
                let accounts = cfg.accounts as usize;
                let from = rng.below(accounts);
                let to = (from + 1 + rng.below(accounts - 1)) % accounts;
                Request::BankTransfer {
                    from: from as u32,
                    to: to as u32,
                    amount: rng.range(1, 100),
                }
            }
        }
        NetKind::Intset => Request::Intset {
            op: set_op(rng),
            key: rng.below(cfg.set_key_range as usize) as i64,
        },
        NetKind::Hashset => Request::Hashset {
            op: set_op(rng),
            key: rng.below(cfg.set_key_range as usize) as i64,
        },
    }
}

/// What the receiver thread tallies from the reply FIFO.
#[derive(Default)]
struct Replies {
    completed: u64,
    shed: u64,
    errors: u64,
    latency: LatencyHistogram,
    mid_scrape: Option<String>,
}

/// Wait on every reply in send order: a request's entry carries its submit
/// instant, the halftime `Stats` scrape's carries `None`.
fn collect_replies(fifo: mpsc::Receiver<(PendingReply, Option<Instant>)>) -> Replies {
    let mut r = Replies::default();
    for (pending, submitted) in fifo {
        match (pending.wait(), submitted) {
            (Ok(Reply::Stats(json)), None) => r.mid_scrape = String::from_utf8(json).ok(),
            (_, None) => {} // a lost scrape is not a lost request
            (Ok(Reply::Overloaded), Some(_)) => r.shed += 1,
            (Ok(Reply::Error(_)) | Err(_), Some(_)) => r.errors += 1,
            (Ok(_), Some(t)) => {
                r.latency.record(t.elapsed());
                r.completed += 1;
            }
        }
    }
    r
}

/// Run one open-loop wire benchmark on `engine`: start a loopback
/// [`WireServer`], connect a pipelined [`WireClient`] with `spec.conns`
/// lanes, submit on the arrival schedule, drain fully, shut the server
/// down (which audits the table invariants) and return both sides'
/// accounting.
///
/// Latency is measured on the client from just before the frame is written
/// to the moment the reply resolves — socket, framing, queueing and
/// execution included. When the server's in-flight windows fill, the
/// client's blocking writes slow the submitter itself; that lost offered
/// load is visible as `offered` falling short of `rate × duration`.
pub fn run_net_bench<E: TxnEngine>(engine: E, spec: &NetSpec) -> NetOutcome {
    assert!(spec.rate > 0.0, "rate must be positive");
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
    // into this FIFO, and one receiver thread waits on them in send order
    // and owns the one histogram.
    let (fifo, replies) = mpsc::channel();
    let receiver = std::thread::spawn(move || collect_replies(replies));
    let mut rng = FastRng::new(0x0b5e_55ed);
    let mut scrapes = 0u64;
    let mut send_errors = 0u64;

    let start = Instant::now();
    let mut offered = 0u64;
    while start.elapsed() < spec.duration {
        crate::wait_until(start + Duration::from_secs_f64(offered as f64 / spec.rate));
        // One live scrape at halftime, over the same wire the workload is
        // using: its reply rides the FIFO, so the schedule is not perturbed.
        if scrapes == 0 && start.elapsed() >= spec.duration / 2 {
            if let Ok(pending) = client.send(&Request::Stats) {
                scrapes += 1;
                // The receiver outlives the submitter: this cannot fail.
                let _ = fifo.send((pending, None));
            }
        }
        let req = draw_request(spec.kind, &mut rng, &tables);
        let submitted = Instant::now();
        match client.send(&req) {
            Ok(pending) => {
                let _ = fifo.send((pending, Some(submitted)));
            }
            Err(_) => send_errors += 1,
        }
        offered += 1;
    }

    // Drain: every accepted request resolves (reply or connection loss)
    // before the server is torn down, so the histogram covers every
    // completed request.
    drop(fifo);
    let replies = receiver.join().expect("reply receiver panicked");
    let elapsed = start.elapsed();
    drop(client);
    let report = server.shutdown();

    NetOutcome {
        offered,
        completed: replies.completed,
        shed: replies.shed,
        errors: replies.errors + send_errors,
        elapsed,
        latency: replies.latency,
        report,
        mid_scrape: replies.mid_scrape,
        scrapes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use lsa_time::sharded::ShardedTimeBase;

    fn quick_spec(kind: NetKind) -> NetSpec {
        NetSpec {
            kind,
            rate: 1_500.0,
            duration: Duration::from_millis(120),
            workers: 2,
            queue_depth: 128,
            window: 64,
            conns: 2,
        }
    }

    #[test]
    fn open_loop_bank_over_the_wire_accounts_exactly() {
        let out = run_net_bench(Stm::new(SharedCounter::new()), &quick_spec(NetKind::Bank));
        assert!(out.offered > 50, "open loop must offer at the schedule");
        assert_eq!(out.completed + out.shed + out.errors, out.offered);
        assert_eq!(out.errors, 0, "healthy loopback run must not lose requests");
        assert_eq!(out.latency.count(), out.completed);
        assert!(out.latency.p99() >= out.latency.p50());
        assert!(out.throughput() > 0.0);
        // Both sides agree: the server read one frame per offered request
        // (plus the halftime stats scrape) and wrote one reply per frame.
        assert_eq!(out.report.frames_in, out.offered + out.scrapes);
        assert_eq!(out.report.frames_out, out.offered + out.scrapes);
        assert_eq!(out.report.service.shed, out.shed);
        assert_eq!(out.report.protocol_errors, 0);
        // The halftime scrape crossed the live wire and carries all three
        // layers of the metrics surface.
        assert_eq!(out.scrapes, 1, "one stats scrape per run");
        let scrape = out.mid_scrape.expect("stats reply resolved");
        assert!(scrape.contains("\"wire.frames_in\""));
        assert!(scrape.contains("\"service.submitted\""));
        assert!(scrape.contains("\"engine.commits\""));
    }

    #[test]
    fn every_kind_runs_on_the_sharded_engine() {
        for kind in NetKind::ALL {
            let out = run_net_bench(
                Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4)),
                &NetSpec {
                    duration: Duration::from_millis(80),
                    ..quick_spec(kind)
                },
            );
            assert!(out.completed > 0, "{} served nothing", kind.name());
            assert_eq!(out.errors, 0, "{} lost requests", kind.name());
        }
    }

    #[test]
    fn knee_index_flags_shed_onset_and_latency_blowup() {
        let p = |rate, shed_rate, p99_ns| KneePoint {
            rate,
            shed_rate,
            p99_ns,
        };
        // Shed onset at the third point.
        assert_eq!(
            knee_index(&[
                p(1e3, 0.0, 100),
                p(2e3, 0.001, 120),
                p(4e3, 0.2, 150),
                p(8e3, 0.6, 200),
            ]),
            Some(2)
        );
        // p99 blow-up before any shedding.
        assert_eq!(
            knee_index(&[p(1e3, 0.0, 100), p(2e3, 0.0, 250), p(4e3, 0.0, 900)]),
            Some(2)
        );
        // Linear regime throughout.
        assert_eq!(
            knee_index(&[p(1e3, 0.0, 100), p(2e3, 0.0, 110), p(4e3, 0.005, 130)]),
            None
        );
        assert_eq!(knee_index(&[]), None);
    }

    #[test]
    fn kind_parsing_round_trips() {
        for kind in NetKind::ALL {
            assert_eq!(NetKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(NetKind::parse("nope"), None);
    }
}
