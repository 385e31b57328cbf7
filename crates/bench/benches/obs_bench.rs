//! **obs_bench** — microbenchmarks for the `lsa-obs` instrumentation the
//! serving path now carries by default: the sharded counter vs the naive
//! alternatives it replaces, flight-recorder event cost at each sampling
//! mode, sharded histogram recording, and the scrape-side snapshot of a
//! running service's registry.
//!
//! ```sh
//! cargo bench -p lsa-bench --bench obs_bench
//! LSA_BENCH_MS=100 LSA_BENCH_JSON=BENCH_obs.json cargo bench -p lsa-bench --bench obs_bench
//! ```
//!
//! Each line is the median ns per operation over repeated samples
//! (`LSA_BENCH_MS` bounds the per-benchmark measurement budget, default
//! 200 ms). `LSA_BENCH_JSON=PATH` writes the results via the shared
//! `lsa_harness::Json` emitter for the CI artifact. The contended rows are
//! the ones the sharded design exists for: four threads hammering one
//! *plain* atomic bounce a cache line per increment, four threads on one
//! *sharded* counter each own their line. The `trace/*` rows price a fully
//! instrumented transaction lifecycle (begin + 3 events) at each sampling
//! mode — `one-in-64` is the default the serving path runs with, so its
//! row is the per-transaction overhead budget the CI smoke guards.

use criterion::black_box;
use lsa_obs::registry::MetricsRegistry;
use lsa_obs::trace::{self, EventKind, Sampling};
use lsa_service::{ServiceConfig, TxnService};
use lsa_stm::Stm;
use lsa_time::counter::SharedCounter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-benchmark measurement budget.
fn budget() -> Duration {
    let ms = std::env::var("LSA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(200);
    Duration::from_millis(ms.max(10))
}

/// Run `sample` repeatedly until the budget elapses (at least 3, at most 64
/// samples) and return the median ns/op. `sample` returns (ops, elapsed).
fn median_ns_per_op(budget: Duration, mut sample: impl FnMut() -> (u64, Duration)) -> f64 {
    let deadline = Instant::now() + budget;
    let mut ns: Vec<f64> = Vec::new();
    loop {
        let (ops, took) = sample();
        ns.push(took.as_nanos() as f64 / ops.max(1) as f64);
        if (Instant::now() >= deadline && ns.len() >= 3) || ns.len() >= 64 {
            break;
        }
    }
    ns.sort_by(|a, b| a.partial_cmp(b).expect("ns are finite"));
    ns[ns.len() / 2]
}

/// One thread incrementing: the uncontended fast path all three counter
/// designs handle well — this row isolates per-call overhead.
fn bench_counter_single(inc: impl Fn()) -> f64 {
    const OPS: u64 = 65_536;
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        for _ in 0..OPS {
            inc();
        }
        (OPS, start.elapsed())
    })
}

/// Four threads incrementing the same instrument: the row where a plain
/// atomic pays a cache-line bounce per increment and the sharded counter
/// does not.
fn bench_counter_4t(inc: impl Fn() + Send + Sync) -> f64 {
    const THREADS: u64 = 4;
    const PER: u64 = 16_384;
    let inc = &inc;
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(move || {
                    for _ in 0..PER {
                        inc();
                    }
                });
            }
        });
        (THREADS * PER, start.elapsed())
    })
}

/// One fully instrumented transaction lifecycle — the event pattern the
/// stm layer emits per attempt: a begin decision plus validate, cts, and
/// commit events (the latter three cost one TLS flag read when the
/// attempt was not sampled).
fn bench_trace_lifecycle(s: Sampling) -> f64 {
    const TXNS: u64 = 16_384;
    trace::set_sampling(s);
    let ns = median_ns_per_op(budget(), || {
        let start = Instant::now();
        for i in 0..TXNS {
            trace::txn_begin(black_box(i));
            trace::txn_event(EventKind::Validate, 0, i);
            trace::txn_event(EventKind::CtsShared, 0, i);
            trace::txn_event(EventKind::Commit, 0, i);
        }
        (TXNS, start.elapsed())
    });
    trace::set_sampling(Sampling::Off);
    trace::clear();
    ns
}

/// Sharded histogram record — the per-request latency write on the
/// service's completion path.
fn bench_hist_record() -> f64 {
    const OPS: u64 = 65_536;
    let reg = MetricsRegistry::new();
    let h = reg.histogram("bench.lat");
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        for i in 0..OPS {
            h.record_ns(black_box(i * 37 + 100));
        }
        (OPS, start.elapsed())
    })
}

/// Full registry snapshot → JSON with a serving-path-sized instrument
/// population: the cost a live Stats scrape pays, amortized over nothing —
/// it must simply be cheap enough at scrape rate (Hz, not MHz). The
/// registry is a running two-worker service's, so the `engine.*` and
/// `time.commit_ts.*` names are what a scrape really reads: sums over the
/// workers' statistics shards.
fn bench_snapshot_json() -> f64 {
    const SCRAPES: u64 = 64;
    let cfg = ServiceConfig {
        workers: 2,
        queue_depth: 64,
    };
    let svc = TxnService::start(Stm::new(SharedCounter::new()), cfg);
    // Round-robin: one request per worker, so both have handed over their
    // shard before the first scrape.
    for _ in 0..2 {
        svc.submit(|_| ()).unwrap().wait().unwrap();
    }
    let reg = svc.metrics();
    for name in [
        "wire.accepted",
        "wire.frames_in",
        "wire.frames_out",
        "wire.protocol_errors",
        "wire.op.ping",
        "wire.op.bank_transfer",
        "wire.op.stats",
    ] {
        reg.counter(name).add(12_345);
    }
    reg.gauge_fn("wire.window_in_flight", || 42);
    let h = reg.histogram("service.latency_ns");
    for i in 0..10_000u64 {
        h.record_ns(i * 97 + 500);
    }
    assert_eq!(reg.snapshot().counter("engine.commits"), Some(0));
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        for _ in 0..SCRAPES {
            black_box(reg.snapshot_json());
        }
        (SCRAPES, start.elapsed())
    })
}

fn main() {
    // Counter designs under comparison: the registry's sharded counter,
    // the single atomic it replaced, and the mutex-guarded u64 nobody
    // should write but every codebase has.
    let reg = MetricsRegistry::new();
    let sharded = reg.counter("bench.ops");
    let plain = AtomicU64::new(0);
    let mutexed = Mutex::new(0u64);

    let benches: Vec<(&str, f64)> = vec![
        (
            "counter/single-thread/sharded",
            bench_counter_single(|| sharded.inc()),
        ),
        (
            "counter/single-thread/plain-atomic",
            bench_counter_single(|| {
                plain.fetch_add(1, Ordering::Relaxed);
            }),
        ),
        (
            "counter/single-thread/mutex",
            bench_counter_single(|| {
                *mutexed.lock().expect("bench mutex poisoned") += 1;
            }),
        ),
        (
            "counter/4-threads/sharded",
            bench_counter_4t(|| sharded.inc()),
        ),
        (
            "counter/4-threads/plain-atomic",
            bench_counter_4t(|| {
                plain.fetch_add(1, Ordering::Relaxed);
            }),
        ),
        (
            "counter/4-threads/mutex",
            bench_counter_4t(|| {
                *mutexed.lock().expect("bench mutex poisoned") += 1;
            }),
        ),
        ("trace/lifecycle/off", bench_trace_lifecycle(Sampling::Off)),
        (
            "trace/lifecycle/one-in-64",
            bench_trace_lifecycle(Sampling::OneIn(trace::DEFAULT_ONE_IN)),
        ),
        ("trace/lifecycle/all", bench_trace_lifecycle(Sampling::All)),
        ("hist/record", bench_hist_record()),
        ("snapshot/json", bench_snapshot_json()),
    ];
    for (label, ns) in &benches {
        println!("{label:<40} {ns:>12.1} ns/op");
    }
    if let Ok(path) = std::env::var("LSA_BENCH_JSON") {
        use lsa_harness::Json;
        let doc = Json::obj([(
            "benches",
            Json::arr(benches.iter().map(|(label, ns)| {
                Json::obj([
                    ("name", Json::str(*label)),
                    ("ns_per_op", Json::Fixed(*ns, 1)),
                ])
            })),
        )]);
        doc.write_file(&path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }
    println!(
        "sanity: sharded counter summed to {} across all rows above",
        sharded.value()
    );
}
