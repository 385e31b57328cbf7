//! Open-loop load generation against the `lsa-service` front-end.
//!
//! The closed-loop `BenchWorker` runner measures *capacity*: each thread
//! fires its next transaction the instant the previous one finishes, so
//! queueing never appears and latency is invisible. Serving behaviour needs
//! the open-loop lens instead: requests *arrive* on a fixed schedule
//! (`rate` per second) regardless of how fast the system drains them, so
//! queueing delay shows up in the latency percentiles and overload shows up
//! as a shed rate — the two columns capacity numbers cannot produce. This
//! is how the engine × time-base matrix becomes a *service* benchmark
//! (throughput, p50/p90/p99/max, shed rate per cell).
//!
//! Three request types mirror the workload axis: `bank` (transfers +
//! audits, shard-affine under partitioned placement), `intset` (sorted-list
//! member/insert/remove) and `snapshot` (the analytics scans that separate
//! multi-version from single-version engines). Invariants are asserted
//! inside the request bodies, so the bench doubles as an end-to-end
//! consistency check of the serving path.

use lsa_engine::{EngineHandle, EngineStats, EngineVar, MemoryStats, TxnEngine, TxnOps};
use lsa_service::pool::WeakPool;
use lsa_service::{
    LatencyHistogram, Pool, PoolStats, RunRequest, ServiceConfig, SubmitError, TxnService,
};
use lsa_workloads::{
    BankConfig, BankWorkload, FastRng, IntSetList, PlacementHint, SnapshotConfig, SnapshotWorkload,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which request mix the load generator submits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Transfers (80%) + full-table audits (20%); audits assert the
    /// invariant total inside the request.
    Bank,
    /// Sorted-list member (60%) / insert (20%) / remove (20%).
    Intset,
    /// Snapshot analytics: full-table scans (80%, asserting the zero-sum
    /// invariant) + zero-sum update transfers (20%).
    Snapshot,
}

impl RequestKind {
    /// All kinds, in table order.
    pub const ALL: [RequestKind; 3] = [
        RequestKind::Bank,
        RequestKind::Intset,
        RequestKind::Snapshot,
    ];

    /// Short name for tables and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Bank => "bank",
            RequestKind::Intset => "intset",
            RequestKind::Snapshot => "snapshot",
        }
    }

    /// Parse a CLI argument.
    pub fn parse(s: &str) -> Option<Self> {
        RequestKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Parameters of one open-loop service run.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    /// Request mix.
    pub kind: RequestKind,
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// Submission window (drain time comes on top).
    pub duration: Duration,
    /// Service worker threads.
    pub workers: usize,
    /// Per-worker bounded queue depth (admission limit).
    pub queue_depth: usize,
    /// Object placement: `Partitioned` pins bank account groups
    /// shard-locally and routes their transfers shard-affinely.
    pub placement: PlacementHint,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            kind: RequestKind::Bank,
            rate: 5_000.0,
            duration: Duration::from_millis(500),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            queue_depth: 256,
            placement: PlacementHint::Spread,
        }
    }
}

/// Outcome of one open-loop run.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Requests the generator offered (admitted + shed).
    pub offered: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Wall clock from first arrival to full drain.
    pub elapsed: Duration,
    /// Submission-to-completion latency distribution.
    pub latency: LatencyHistogram,
    /// Merged worker engine statistics (sheds under
    /// `abort_reasons.overload`).
    pub engine: EngineStats,
    /// Request-record pool accounting: after warm-up every arrival should
    /// reuse a recycled record (`hits`), so a high hit rate demonstrates
    /// the steady-state serving path allocates nothing per request.
    pub pool: PoolStats,
    /// A metrics-registry snapshot (JSON) taken at the halfway point of the
    /// submission window, while workers were mid-flight — the in-process
    /// twin of the wire-served `Stats` scrape. `None` for runs that skip
    /// the scrape (memory-ceiling rounds).
    pub mid_scrape: Option<String>,
}

impl ServiceOutcome {
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
}

/// What one pooled request record executes on a worker. The variants
/// mirror the closure bodies of the legacy submission path; shared tables
/// travel as `Arc`s cloned from the [`Mix`], so arming a record clones two
/// `Arc`s at most — never a `Vec`, never a fresh box.
enum BenchOp<E: TxnEngine> {
    /// A recycled record waiting in the pool.
    Idle,
    /// Bank transfer between two endpoints.
    Transfer {
        a: EngineVar<E, i64>,
        b: EngineVar<E, i64>,
        amount: i64,
    },
    /// Whole-table audit asserting the invariant total.
    Audit {
        accounts: Arc<Vec<EngineVar<E, i64>>>,
        expected: i64,
    },
    /// Sorted-list member/insert/remove (op drawn 0..10 like the mix).
    Set {
        set: IntSetList<E>,
        op: usize,
        key: i64,
    },
    /// Snapshot analytics scan asserting the zero-sum invariant.
    Scan { vars: Arc<Vec<EngineVar<E, i64>>> },
    /// Zero-sum update transfer between two snapshot keys.
    ZeroSum {
        a: EngineVar<E, i64>,
        b: EngineVar<E, i64>,
        amount: i64,
    },
}

/// The pooled request record of the open-loop generator: armed with a
/// [`BenchOp`] before submission, executed once on a worker, then recycled
/// into its home pool — the serving path's allocation-free lifecycle
/// ([`RunRequest`]), exercised here exactly as the wire server exercises it.
struct BenchJob<E: TxnEngine> {
    op: BenchOp<E>,
    home: WeakPool<Box<BenchJob<E>>>,
}

impl<E: TxnEngine> RunRequest<E> for BenchJob<E> {
    fn run(&mut self, h: &mut E::Handle) {
        match std::mem::replace(&mut self.op, BenchOp::Idle) {
            BenchOp::Idle => unreachable!("record submitted without being armed"),
            BenchOp::Transfer { a, b, amount } => {
                h.atomically(|tx| {
                    let va = *tx.read(&a)?;
                    let vb = *tx.read(&b)?;
                    tx.write(&a, va - amount)?;
                    tx.write(&b, vb + amount)?;
                    Ok(())
                });
            }
            BenchOp::Audit { accounts, expected } => {
                let total = h.atomically(|tx| {
                    let mut sum = 0i64;
                    for a in accounts.iter() {
                        sum += *tx.read(a)?;
                    }
                    Ok(sum)
                });
                assert_eq!(total, expected, "service audit observed a torn snapshot");
            }
            BenchOp::Set { set, op, key } => {
                match op {
                    0..=5 => set.contains(h, key),
                    6 | 7 => set.insert(h, key),
                    _ => set.remove(h, key),
                };
            }
            BenchOp::Scan { vars } => {
                let sum = h.atomically(|tx| {
                    let mut s = 0i64;
                    for v in vars.iter() {
                        s += *tx.read(v)?;
                    }
                    Ok(s)
                });
                assert_eq!(sum, 0, "analytics request observed a torn snapshot");
            }
            BenchOp::ZeroSum { a, b, amount } => {
                h.atomically(|tx| {
                    tx.modify(&a, |v| v + amount)?;
                    tx.modify(&b, |v| v - amount)
                });
            }
        }
    }

    fn recycle(mut self: Box<Self>) {
        self.op = BenchOp::Idle;
        if let Some(pool) = self.home.upgrade() {
            pool.put(self);
        }
    }
}

/// The record pool of one run, sized so every record that can be admitted
/// at once (all worker queues full) has a recycled home to return to.
fn job_pool<E: TxnEngine>(workers: usize, queue_depth: usize) -> Pool<Box<BenchJob<E>>> {
    Pool::new(workers * queue_depth + 64)
}

/// The per-kind request state plus the submission logic. One value of this
/// enum is built before the run; `submit_one` draws a request from the mix,
/// arms a pooled record with it and submits the record.
enum Mix<E: TxnEngine> {
    Bank {
        wl: BankWorkload<E>,
        audit: Arc<Vec<EngineVar<E, i64>>>,
    },
    Intset {
        set: IntSetList<E>,
        key_range: i64,
    },
    Snapshot {
        wl: SnapshotWorkload<E>,
        scan: Arc<Vec<EngineVar<E, i64>>>,
    },
}

impl<E: TxnEngine> Mix<E> {
    fn build(engine: &E, kind: RequestKind, placement: PlacementHint) -> Self {
        match kind {
            RequestKind::Bank => {
                let wl = BankWorkload::with_placement(
                    engine.clone(),
                    BankConfig {
                        accounts: 64,
                        initial: 1_000,
                        audit_percent: 20,
                    },
                    placement,
                );
                let audit = Arc::new(wl.accounts().to_vec());
                Mix::Bank { wl, audit }
            }
            RequestKind::Intset => {
                let set = IntSetList::new(engine.clone());
                let key_range = 128i64;
                let mut h = engine.register();
                for k in (0..key_range).step_by(2) {
                    set.insert(&mut h, k);
                }
                Mix::Intset { set, key_range }
            }
            RequestKind::Snapshot => {
                let wl = SnapshotWorkload::new(
                    engine.clone(),
                    SnapshotConfig {
                        keys: 128,
                        scan_percent: 80,
                        scan_window: 128,
                    },
                );
                let scan = Arc::new(wl.vars().to_vec());
                Mix::Snapshot { wl, scan }
            }
        }
    }

    /// Draw one request from the mix: the op to arm a record with plus its
    /// shard-affinity hint.
    fn draw(&self, rng: &mut FastRng) -> (BenchOp<E>, Option<usize>) {
        match self {
            Mix::Bank { wl, audit } => {
                if rng.percent(20) {
                    // Audit: read every account, assert the invariant.
                    (
                        BenchOp::Audit {
                            accounts: Arc::clone(audit),
                            expected: wl.expected_total(),
                        },
                        None,
                    )
                } else {
                    // Transfer inside one shard-affinity group; with spread
                    // placement the single group is the whole table.
                    let g = rng.below(wl.groups());
                    let (lo, hi) = wl.group_bounds(g);
                    let span = hi - lo;
                    let from = lo + rng.below(span);
                    let mut to = lo + rng.below(span);
                    if to == from {
                        to = lo + (to - lo + 1) % span;
                    }
                    // Only the two endpoints are cloned — this is the open
                    // loop's hot path, and per-arrival overhead distorts
                    // the schedule at high rates.
                    let accounts = wl.accounts();
                    (
                        BenchOp::Transfer {
                            a: accounts[from].clone(),
                            b: accounts[to].clone(),
                            amount: rng.range(1, 100),
                        },
                        (wl.groups() > 1).then_some(g),
                    )
                }
            }
            Mix::Intset { set, key_range } => (
                BenchOp::Set {
                    set: set.clone(),
                    op: rng.below(10),
                    key: rng.below(*key_range as usize) as i64,
                },
                None,
            ),
            Mix::Snapshot { wl, scan } => {
                if rng.percent(80) {
                    (
                        BenchOp::Scan {
                            vars: Arc::clone(scan),
                        },
                        None,
                    )
                } else {
                    let vars = wl.vars();
                    let i = rng.below(vars.len());
                    let mut j = rng.below(vars.len());
                    if j == i {
                        j = (j + 1) % vars.len();
                    }
                    (
                        BenchOp::ZeroSum {
                            a: vars[i].clone(),
                            b: vars[j].clone(),
                            amount: rng.range(1, 50),
                        },
                        None,
                    )
                }
            }
        }
    }

    /// Submit one request drawn from the mix through the pooled record
    /// path. Returns `false` if admission control shed it (the refused
    /// record goes straight back into the pool).
    fn submit_one(
        &self,
        svc: &TxnService<E>,
        rng: &mut FastRng,
        pool: &Pool<Box<BenchJob<E>>>,
    ) -> bool {
        let (op, shard) = self.draw(rng);
        let mut job = pool.get().unwrap_or_else(|| {
            Box::new(BenchJob {
                op: BenchOp::Idle,
                home: pool.downgrade(),
            })
        });
        job.op = op;
        match svc.submit_record(shard, job) {
            Ok(()) => true,
            Err((SubmitError::Overloaded, record)) => {
                record.recycle();
                false
            }
            Err((SubmitError::Closed, _)) => {
                panic!("service closed during the measurement window")
            }
        }
    }

    /// Post-drain invariant audit.
    fn assert_quiescent(&self) {
        match self {
            Mix::Bank { wl, .. } => {
                assert_eq!(
                    wl.quiescent_total(),
                    wl.expected_total(),
                    "bank invariant broken through the service"
                );
            }
            Mix::Intset { set, .. } => {
                // Structural invariant: still sorted and duplicate-free.
                let mut h = set.engine().register();
                let keys = set.to_vec(&mut h);
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "intset lost sortedness/uniqueness through the service"
                );
            }
            Mix::Snapshot { wl, .. } => {
                assert_eq!(
                    wl.quiescent_sum(),
                    0,
                    "snapshot zero-sum invariant broken through the service"
                );
            }
        }
    }
}

/// Run one open-loop service benchmark on `engine`.
///
/// Arrival `n` is scheduled at `start + n/rate` regardless of completions
/// (catch-up bursts if the submitter falls behind — open-loop semantics);
/// after the window the service's close-then-drain shutdown finishes the
/// accepted backlog (`completed == submitted` by construction), so the
/// latency histogram covers every completed request. Requests travel as
/// pooled [`RunRequest`] records — the same allocation-free lifecycle the
/// wire server uses — and the outcome's [`PoolStats`] gauge proves the
/// recycling actually happened.
pub fn run_service_bench<E: TxnEngine>(engine: E, spec: &ServiceSpec) -> ServiceOutcome {
    run_rounds(engine, spec, 1, 0x0af1_5e7e, true).0
}

/// `rounds` successive open-loop submission windows of `spec.duration` on
/// one service, sampling the engine's global memory gauges after each; with
/// `scrape`, one registry snapshot at the halfway point, mid-load.
fn run_rounds<E: TxnEngine>(
    engine: E,
    spec: &ServiceSpec,
    rounds: u32,
    seed: u64,
    scrape: bool,
) -> (ServiceOutcome, Vec<MemoryStats>) {
    assert!(spec.rate > 0.0, "rate must be positive");
    let mix = Mix::build(&engine, spec.kind, spec.placement);
    // Engines are cheap shared handles: keep one to sample the global
    // memory gauges.
    let mem_engine = engine.clone();
    let svc = TxnService::start(
        engine,
        ServiceConfig {
            workers: spec.workers,
            queue_depth: spec.queue_depth,
        },
    );
    let pool = job_pool::<E>(spec.workers, spec.queue_depth);
    let mut rng = FastRng::new(seed);

    let start = Instant::now();
    let mut offered = 0u64;
    let mut mid_scrape = None;
    let mut samples = Vec::with_capacity(rounds as usize);
    for round in 1..=rounds {
        while start.elapsed() < spec.duration * round {
            crate::wait_until(start + Duration::from_secs_f64(offered as f64 / spec.rate));
            mix.submit_one(&svc, &mut rng, &pool);
            offered += 1;
            // Scrape the registry once at halftime, mid-load: proves the
            // engine counters are readable while every worker is writing
            // its shard.
            if scrape && mid_scrape.is_none() && start.elapsed() >= spec.duration * rounds / 2 {
                mid_scrape = Some(svc.metrics().snapshot_json());
            }
        }
        samples.push(mem_engine.memory_stats());
    }

    // Drain: shutdown closes admission and the workers finish every
    // accepted record before joining.
    let report = svc.shutdown();
    let elapsed = start.elapsed();
    mix.assert_quiescent();
    assert_eq!(
        report.completed, report.submitted,
        "close-then-drain must finish every accepted request"
    );
    let mut engine_stats = report.engine;
    engine_stats.memory = mem_engine.memory_stats();
    let outcome = ServiceOutcome {
        offered,
        completed: report.completed,
        shed: report.shed,
        elapsed,
        latency: report.latency,
        engine: engine_stats,
        pool: pool.stats(),
        mid_scrape,
    };
    (outcome, samples)
}

/// Outcome of a [`run_memory_ceiling`] run: the per-round memory-gauge
/// samples plus the final service outcome.
#[derive(Debug)]
pub struct MemoryCeilingReport {
    /// One [`MemoryStats`] sample at the end of each submission round,
    /// taken on the live engine (mid-flight — a plateau check wants the
    /// trajectory, not just the quiesced endpoint).
    pub samples: Vec<MemoryStats>,
    /// The aggregate outcome over all rounds (final quiesced memory gauges
    /// included in `outcome.engine.memory`).
    pub outcome: ServiceOutcome,
}

impl MemoryCeilingReport {
    /// Whether the live-version and arena-byte gauges plateaued: the peak
    /// over the second half of the rounds must not exceed twice the peak
    /// over the first half (plus a small absolute slack for in-flight
    /// chains). An unbounded version store fails this by construction —
    /// under sustained load its live count grows linearly with the round
    /// index.
    pub fn plateaued(&self) -> bool {
        let half = self.samples.len() / 2;
        let peak =
            |s: &[MemoryStats], f: fn(&MemoryStats) -> u64| s.iter().map(f).max().unwrap_or(0);
        let (early, late) = self.samples.split_at(half);
        peak(late, |m| m.versions_live) <= 2 * peak(early, |m| m.versions_live) + 64
            && peak(late, |m| m.arena_bytes) <= 2 * peak(early, |m| m.arena_bytes) + 64 * 1024
    }
}

/// [`run_service_bench`] restructured as a memory-ceiling probe: one engine,
/// one workload instance, `rounds` successive open-loop submission windows
/// of `spec.duration` each, sampling the engine's global memory gauges
/// after every round. The CI smoke step drives this on a multi-version LSA
/// cell and asserts [`MemoryCeilingReport::plateaued`] — watermark pruning
/// must bound the live-version population under sustained load.
pub fn run_memory_ceiling<E: TxnEngine>(
    engine: E,
    spec: &ServiceSpec,
    rounds: usize,
) -> MemoryCeilingReport {
    assert!(rounds >= 2, "a plateau needs at least two rounds");
    let (outcome, samples) = run_rounds(engine, spec, rounds as u32, 0x5eed_c0de, false);
    MemoryCeilingReport { samples, outcome }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use lsa_time::sharded::ShardedTimeBase;

    fn quick_spec(kind: RequestKind) -> ServiceSpec {
        ServiceSpec {
            kind,
            rate: 2_000.0,
            duration: Duration::from_millis(100),
            workers: 2,
            queue_depth: 128,
            placement: PlacementHint::Spread,
        }
    }

    #[test]
    fn open_loop_bank_completes_and_accounts() {
        let out = run_service_bench(
            Stm::new(SharedCounter::new()),
            &quick_spec(RequestKind::Bank),
        );
        assert!(out.offered > 50, "open loop must offer at the schedule");
        assert_eq!(out.completed + out.shed, out.offered);
        assert_eq!(out.latency.count(), out.completed);
        assert!(out.latency.p99() >= out.latency.p50());
        assert!(out.throughput() > 0.0);
        assert_eq!(out.engine.abort_reasons.overload, out.shed);
        assert!(
            out.engine.memory.versions_live >= 64,
            "memory gauges must be sampled after the drain: {:?}",
            out.engine.memory
        );
        // Every arrival takes exactly one record from the pool, and after
        // warm-up recycled records dominate fresh allocations.
        assert_eq!(out.pool.hits + out.pool.misses, out.offered);
        assert!(
            out.pool.hits > 0,
            "steady state must reuse recycled records: {:?}",
            out.pool
        );
        // The halftime scrape happened under live load and carries the
        // engine- and service-level metric names.
        let scrape = out.mid_scrape.expect("halftime registry scrape");
        assert!(scrape.contains("\"service.submitted\""));
        assert!(scrape.contains("\"service.queue_depth\""));
        assert!(scrape.contains("\"engine.commits\""));
        assert!(scrape.contains("\"time.commit_ts.shared\""));
    }

    #[test]
    fn memory_ceiling_samples_every_round_and_plateaus() {
        let report = run_memory_ceiling(
            Stm::with_config(
                SharedCounter::new(),
                lsa_stm::StmConfig::watermark_retention(),
            ),
            &ServiceSpec {
                duration: Duration::from_millis(40),
                ..quick_spec(RequestKind::Snapshot)
            },
            4,
        );
        assert_eq!(report.samples.len(), 4, "one sample per round");
        assert_eq!(
            report.outcome.completed + report.outcome.shed,
            report.outcome.offered
        );
        assert!(
            report.plateaued(),
            "watermark retention must bound live versions: {:?}",
            report.samples
        );
    }

    #[test]
    fn all_request_kinds_run_on_sharded_lsa() {
        for kind in RequestKind::ALL {
            let out = run_service_bench(
                Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4)),
                &ServiceSpec {
                    placement: PlacementHint::Partitioned,
                    ..quick_spec(kind)
                },
            );
            assert!(out.completed > 0, "{} served nothing", kind.name());
        }
    }

    #[test]
    fn overload_sheds_instead_of_queueing_unboundedly() {
        // One worker, tiny queue, rate far above capacity of long audits:
        // admission control must shed rather than absorb the backlog.
        let out = run_service_bench(
            Stm::new(SharedCounter::new()),
            &ServiceSpec {
                kind: RequestKind::Snapshot,
                rate: 200_000.0,
                duration: Duration::from_millis(80),
                workers: 1,
                queue_depth: 8,
                placement: PlacementHint::Spread,
            },
        );
        assert!(
            out.shed > 0,
            "an offered rate far above capacity must shed ({} offered, {} done)",
            out.offered,
            out.completed
        );
        assert!(out.shed_rate() > 0.0 && out.shed_rate() <= 1.0);
        assert_eq!(out.engine.abort_reasons.overload, out.shed);
    }
}
