//! The layers timed one at a time, from outside, around their public
//! calls: micro-timings of each crate's hot operations, a probe stack for
//! the wire ceiling and the scrape, and the layer replay that splits a
//! workload's cost per operation into a budget.

use crate::engine_wl::{EngineKind, EngineRig};
use crate::gen::{SCAN_VARS, TABLE_VARS};
use crate::run::Check;
use crate::wire_wl::{server_config, ClosedLoop, WireKind, WireRig, DEPTH, OPEN_BURST};
use lsa_engine::{EngineHandle, EngineStats, TxnEngine};
use lsa_obs::MetricsRegistry;
use lsa_service::{BoundedQueue, ServiceConfig, TxnService};
use lsa_stm::{Stm, StmConfig};
use lsa_time::counter::{BlockCounter, SharedCounter};
use lsa_time::perfect::PerfectClock;
use lsa_time::{ThreadClock, TimeBase};
use lsa_wire::{decode_frame, encode_frame, shard_hint, Request, Tables, WireClient, WireServer};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serving default cell every workload runs: LSA-RT on the shared
/// counter.
pub type Engine = Stm<SharedCounter>;

pub fn new_engine() -> Engine {
    Stm::new(SharedCounter::new())
}

/// Inputs the layer replay runs at most.
pub const REPLAY_OPS: usize = 100_000;

type Pairs = Vec<(&'static str, f64)>;

/// Median nanoseconds per call of `f`, over batches of `batch` calls run
/// until `budget` is spent (at least three batches).
pub fn ns_per_op(budget: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut per_batch = Vec::new();
    while per_batch.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_batch.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    crate::stats::median(&per_batch)
}

fn clock_ns<C: ThreadClock<Ts = u64>>(budget: Duration, clock: &mut C) -> (f64, f64) {
    let get_time = ns_per_op(budget, 4096, || {
        black_box(clock.get_time());
    });
    let mut observed = clock.get_time();
    let commit_ts = ns_per_op(budget, 4096, || {
        observed = black_box(clock.acquire_commit_ts(observed).ts());
    });
    (get_time, commit_ts)
}

/// `lsa-time`: the serving time base and the paper's alternatives, timed
/// directly on `ThreadClock`.
pub fn time_layer(budget: Duration) -> Pairs {
    let shared = SharedCounter::new();
    let (get_time, commit_ts) = clock_ns(budget, &mut shared.register_thread());
    // Two threads contending for commit timestamps on the one counter.
    let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let commit_ts_2t = std::thread::scope(|s| {
        s.spawn(|| {
            let mut clock = shared.register_thread();
            let mut observed = 0;
            started.store(true, Ordering::Relaxed);
            while !stop.load(Ordering::Relaxed) {
                observed = black_box(clock.acquire_commit_ts(observed).ts());
            }
        });
        while !started.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let mut clock = shared.register_thread();
        let mut observed = 0;
        let ns = ns_per_op(budget, 4096, || {
            observed = black_box(clock.acquire_commit_ts(observed).ts());
        });
        stop.store(true, Ordering::Relaxed);
        ns
    });
    let (perfect_get_time, perfect_commit_ts) =
        clock_ns(budget, &mut PerfectClock::new().register_thread());
    let (_, block_commit_ts) = clock_ns(budget, &mut BlockCounter::new(64).register_thread());
    vec![
        ("time.get_time_ns", get_time),
        ("time.commit_ts_ns", commit_ts),
        ("time.commit_ts_2t_ns", commit_ts_2t),
        ("time.perfect.get_time_ns", perfect_get_time),
        ("time.perfect.commit_ts_ns", perfect_commit_ts),
        ("time.block64.commit_ts_ns", block_commit_ts),
    ]
}

/// `lsa-stm`: one uncontended thread on a table of [`TABLE_VARS`].
pub fn stm_layer(budget: Duration) -> Pairs {
    let engine = new_engine();
    let table: Vec<_> = (0..TABLE_VARS).map(|_| engine.new_var(0i64)).collect();
    let mut h = engine.register();
    let mut i = 0usize;
    let update = ns_per_op(budget, 256, || {
        i = (i + 7) % (TABLE_VARS - 1);
        let (a, b) = (&table[i], &table[i + 1]);
        h.atomically(|tx| {
            tx.modify(a, |v| v + 1)?;
            tx.modify(b, |v| v - 1)
        });
    });
    let mut block = 0usize;
    let scan = ns_per_op(budget, 8, || {
        block = (block + 1) % (TABLE_VARS / SCAN_VARS);
        let vars = &table[block * SCAN_VARS..(block + 1) * SCAN_VARS];
        black_box(h.atomically(|tx| {
            let mut sum = 0i64;
            for v in vars {
                sum += *tx.read(v)?;
            }
            Ok(sum)
        }));
    });
    vec![
        ("stm.update_txn_ns", update),
        ("stm.ro_txn_ns", scan),
        ("stm.read_ns", scan / SCAN_VARS as f64),
    ]
}

fn service_config() -> ServiceConfig {
    let cfg = server_config();
    ServiceConfig {
        workers: cfg.workers,
        queue_depth: cfg.queue_depth,
    }
}

/// `lsa-service`: no-op bodies through `submit` → `Completion::wait`, so
/// what is timed is the hand-off alone.
pub fn service_layer(budget: Duration) -> Pairs {
    let svc = TxnService::start(new_engine(), service_config());
    let submit = || svc.submit(|_h| ()).expect("probe load never fills a queue");
    let mut window = VecDeque::with_capacity(DEPTH);
    let pipelined = ns_per_op(budget, 1024, || {
        if window.len() == DEPTH {
            let oldest: lsa_service::Completion<()> = window.pop_front().expect("full window");
            oldest.wait().expect("service answers");
        }
        window.push_back(submit());
    });
    // The same loop again, the clock read around `submit` only.
    let (mut in_submit, mut submits) = (Duration::ZERO, 0u32);
    let start = Instant::now();
    while start.elapsed() < budget {
        for _ in 0..1024 {
            if window.len() == DEPTH {
                window
                    .pop_front()
                    .expect("full window")
                    .wait()
                    .expect("service answers");
            }
            let t = Instant::now();
            let completion = submit();
            in_submit += t.elapsed();
            submits += 1;
            window.push_back(completion);
        }
    }
    for completion in window.drain(..) {
        completion.wait().expect("service answers");
    }
    let handoff = ns_per_op(budget, 64, || {
        submit().wait().expect("service answers");
    });
    svc.shutdown();

    let queue = BoundedQueue::new(server_config().queue_depth);
    let mut item = 0u64;
    let push_pop = ns_per_op(budget, 4096, || {
        item += 1;
        let _ = queue.try_push(item);
        black_box(queue.try_pop());
    });
    vec![
        ("service.pipelined_ns", pipelined),
        ("service.handoff_ns", handoff),
        (
            "service.submit_ns",
            in_submit.as_nanos() as f64 / submits.max(1) as f64,
        ),
        ("service.queue_push_pop_ns", push_pop),
    ]
}

fn encode(buf: &mut Vec<u8>, req: &Request, req_id: u64) {
    encode_frame(buf, req.opcode(), req_id, shard_hint(req), |b| {
        req.encode_payload(b)
    });
}

/// `lsa-wire`'s codec on generated requests: no socket, no service.
pub fn codec_layer(budget: Duration, reqs: &[Request]) -> Pairs {
    let reqs = &reqs[..reqs.len().min(1024)];
    let mut buf = Vec::with_capacity(256);
    let mut i = 0usize;
    let encode_ns = ns_per_op(budget, 1024, || {
        buf.clear();
        encode(&mut buf, &reqs[i % reqs.len()], i as u64);
        black_box(&buf);
        i += 1;
    });
    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(id, req)| {
            let mut frame = Vec::new();
            encode(&mut frame, req, id as u64);
            frame
        })
        .collect();
    let mut i = 0usize;
    let decode_ns = ns_per_op(budget, 1024, || {
        let (frame, _) = decode_frame(&frames[i % frames.len()])
            .expect("own frame decodes")
            .expect("own frame is whole");
        black_box(Request::decode(&frame).expect("own payload decodes"));
        i += 1;
    });
    vec![("wire.encode_ns", encode_ns), ("wire.decode_ns", decode_ns)]
}

/// `Tables::apply` on a registered handle: the request interpreter and the
/// transaction under it, no service, no socket.
pub fn apply_layer(budget: Duration, reqs: &[Request]) -> Pairs {
    let engine = new_engine();
    let tables = Tables::build(&engine, &server_config().tables);
    let mut h = engine.register();
    let mut i = 0usize;
    let apply_ns = ns_per_op(budget, 256, || {
        black_box(tables.apply(&mut h, &reqs[i % reqs.len()]));
        i += 1;
    });
    vec![("wire.apply_ns", apply_ns)]
}

/// `lsa-obs`: the hot-path increment.
pub fn obs_layer(budget: Duration) -> Pairs {
    let registry = MetricsRegistry::new();
    let counter = registry.counter("bench.probe");
    let inc = ns_per_op(budget, 4096, || counter.inc());
    black_box(counter.value());
    vec![("obs.counter_inc_ns", inc)]
}

/// A stack of its own serving `Ping`: the ceiling of wire + service with
/// no transaction, one `Stats` scrape over the wire while pings are in
/// flight, and the cost of the snapshot the scrape serves. Also checks
/// the frame accounting with a scrape in it.
pub fn probe_stack(budget: Duration) -> std::io::Result<(Pairs, Vec<Check>)> {
    let server = WireServer::start(new_engine(), "127.0.0.1:0", server_config())?;
    let client = WireClient::connect(server.local_addr(), 2)?;
    let pings = [Request::Ping];
    let mut cl = ClosedLoop::new(&client, &pings, DEPTH, 0);
    cl.run_ops(2_000);
    let (start, before) = (Instant::now(), cl.completed);
    while start.elapsed() < budget {
        cl.run_ops(512);
    }
    let ping_per_s = (cl.completed - before) as f64 / start.elapsed().as_secs_f64();
    cl.fill(false);
    let t = Instant::now();
    let scrape = client.call(&Request::Stats);
    let scrape_rtt = t.elapsed();
    let scraped = matches!(scrape, Ok(lsa_wire::Reply::Stats(_)));
    cl.drain();
    let snapshot_ns = ns_per_op(budget / 4, 4, || {
        black_box(server.metrics().snapshot_json());
    });
    let (pinged, failed) = (cl.attempted, cl.failed);
    drop(client);
    let report = server.shutdown();
    let checks = vec![
        ("probe: stats scrape answered".to_string(), scraped),
        (format!("probe: failed pings ({failed}) == 0"), failed == 0),
        (
            format!(
                "probe: frames_in ({}) == frames_out ({}) == pings ({pinged}) + 1 scrape",
                report.frames_in, report.frames_out
            ),
            report.frames_in == pinged + 1 && report.frames_out == pinged + 1,
        ),
    ];
    let pairs = vec![
        ("wire.ping_req_per_s", ping_per_s),
        ("obs.scrape_rtt_us", scrape_rtt.as_nanos() as f64 / 1e3),
        ("obs.snapshot_us", snapshot_ns / 1e3),
    ];
    Ok((pairs, checks))
}

/// A workload's cost per operation at each boundary of the stack, the
/// lower layers run in isolation on the same inputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Inputs replayed at every boundary.
    pub ops: usize,
    /// (a) the full path, ns per op.
    pub full_ns: f64,
    /// (b) `TxnService::submit(Tables::apply)`, no socket.
    pub service_ns: f64,
    /// (c) `Tables::apply` / `atomically` directly.
    pub direct_ns: f64,
    /// (d) the time-base calls alone, at the counts (c) reported.
    pub time_ns: f64,
}

impl Budget {
    /// `(layer, self ns per op)`, outermost first. The four sum to
    /// [`full_ns`](Self::full_ns) by construction; a negative entry means
    /// run-to-run noise exceeded that layer's cost.
    pub fn self_ns(&self) -> [(&'static str, f64); 4] {
        [
            ("wire", self.full_ns - self.service_ns),
            ("service", self.service_ns - self.direct_ns),
            ("stm", self.direct_ns - self.time_ns),
            ("time", self.time_ns),
        ]
    }

    /// The time base's share of the transaction itself.
    pub fn time_share(&self) -> f64 {
        self.time_ns / self.direct_ns.max(1e-9)
    }

    pub fn pairs(&self) -> Pairs {
        let [wire, service, stm, time] = self.self_ns();
        vec![
            ("wire.self_ns", wire.1),
            ("service.self_ns", service.1),
            ("stm.self_ns", stm.1),
            ("time.self_ns", time.1),
            ("time.share", self.time_share()),
            ("stm.txn_ns", self.direct_ns),
        ]
    }
}

/// (d): as many `get_time` and `acquire_commit_ts` calls as the engine
/// made for `stats` — one reading per attempt, one per extension, one per
/// watermark advance, one commit timestamp per update commit — on a clock
/// of their own. Total nanoseconds.
fn time_calls_ns(stats: &EngineStats) -> f64 {
    let attempts = stats.total_commits() + stats.aborts;
    let advances = stats.total_commits() / StmConfig::default().wm_advance_interval;
    let mut clock = SharedCounter::new().register_thread();
    let start = Instant::now();
    for _ in 0..attempts + stats.validations + advances {
        black_box(clock.get_time());
    }
    let mut observed = 0;
    for _ in 0..stats.commits {
        observed = black_box(clock.acquire_commit_ts(observed).ts());
    }
    start.elapsed().as_nanos() as f64
}

/// Replay an engine workload's first inputs on one thread, for at most
/// about `cap`. Service and wire do nothing on these workloads, so (a),
/// (b) and (c) are one measurement.
pub fn replay_engine(kind: EngineKind, seed: u64, cap: Duration) -> Budget {
    // Size the replay from a short probe on a rig of its own.
    let probe_ops = 2_000;
    let (probe, _) = EngineRig::setup(kind, new_engine(), seed).replay(probe_ops);
    let per_op = probe.as_secs_f64() / probe_ops as f64;
    let ops = ((cap.as_secs_f64() / per_op) as usize).clamp(probe_ops, REPLAY_OPS);
    let (elapsed, stats) = EngineRig::setup(kind, new_engine(), seed).replay(ops);
    let direct_ns = elapsed.as_nanos() as f64 / ops as f64;
    Budget {
        ops,
        full_ns: direct_ns,
        service_ns: direct_ns,
        direct_ns,
        time_ns: time_calls_ns(&stats) / ops as f64,
    }
}

/// Replay a wire workload's first inputs from one generator at `depth`
/// outstanding, through each boundary in turn, each on a fresh engine.
pub fn replay_wire(
    kind: WireKind,
    seed: u64,
    cap: Duration,
) -> std::io::Result<(Budget, Vec<Check>)> {
    let depth = replay_depth(kind);
    // (a) The full path, which also fixes how many inputs the others run.
    let rig = WireRig::setup(kind, new_engine(), seed)?;
    let start = Instant::now();
    let mut cl = ClosedLoop::new(rig.client(), rig.requests(), depth, rig.expected_total());
    while (cl.attempted as usize) < REPLAY_OPS && start.elapsed() < cap {
        let left = REPLAY_OPS - cl.attempted as usize;
        cl.run_ops(left.min(256));
    }
    cl.drain();
    let full = start.elapsed();
    let (attempted, completed, failed) = (cl.attempted, cl.completed, cl.failed);
    let sent = (attempted as usize).min(rig.requests().len());
    let reqs: Vec<Request> = rig.requests()[..sent].to_vec();
    let expected_total = rig.expected_total();
    let (mut checks, _, _) = rig.finish(attempted, completed, failed);
    for (what, _) in &mut checks {
        what.insert_str(0, "replay: ");
    }
    let ops = reqs.len();

    // (b) The service with no socket in front of it.
    let engine = new_engine();
    let tables = Arc::new(Tables::build(&engine, &server_config().tables));
    let svc = TxnService::start(engine, service_config());
    let mut window = VecDeque::with_capacity(depth);
    let mut wrong = 0u64;
    let mut settle = |completion: lsa_service::Completion<(usize, lsa_wire::Reply)>| {
        let (i, reply) = completion.wait().expect("service answers").value;
        wrong += !crate::wire_wl::reply_ok(&reqs[i], &Ok(reply), expected_total) as u64;
    };
    let start = Instant::now();
    for (i, req) in reqs.iter().copied().enumerate() {
        if window.len() == depth {
            settle(window.pop_front().expect("full window"));
        }
        let tables = Arc::clone(&tables);
        let submitted = svc.submit(move |h| (i, tables.apply(h, &req)));
        window.push_back(submitted.expect("replay depth never fills a queue"));
    }
    window.drain(..).for_each(&mut settle);
    let service = start.elapsed();
    svc.shutdown();
    checks.push((
        format!("replay: wrong service replies ({wrong}) == 0"),
        wrong == 0,
    ));

    // (c) The request interpreter on a registered handle.
    let engine = new_engine();
    let tables = Tables::build(&engine, &server_config().tables);
    // A fresh handle counts from zero: seeding the tables ran on its own.
    let mut h = engine.register();
    let start = Instant::now();
    for req in &reqs {
        black_box(tables.apply(&mut h, req));
    }
    let direct = start.elapsed();
    let stats = h.engine_stats();

    let per_op = |d: Duration| d.as_nanos() as f64 / ops.max(1) as f64;
    let budget = Budget {
        ops,
        full_ns: per_op(full),
        service_ns: per_op(service),
        direct_ns: per_op(direct),
        time_ns: time_calls_ns(&stats) / ops.max(1) as f64,
    };
    Ok((budget, checks))
}

/// How many requests a wire workload's replay keeps outstanding: what
/// the workload itself has in flight, its window on the closed loop and
/// one burst on the open loop. (At depth 1 every boundary costs two idle
/// thread wake-ups of 20–60 µs that vary more than the layers cost, and
/// the differences come out negative.)
fn replay_depth(kind: WireKind) -> usize {
    match kind {
        WireKind::Pipelined => DEPTH,
        WireKind::Open => OPEN_BURST as usize,
    }
}
