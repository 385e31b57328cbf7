//! **queue_bench** — microbenchmarks for the serving path's hot-loop
//! primitives: the lock-free submission ring vs the retained mutex queue
//! baseline, pooled vs fresh oneshot channels, and reply-frame encoding
//! with vs without buffer reuse.
//!
//! ```sh
//! cargo bench -p lsa-bench --bench queue_bench
//! LSA_BENCH_MS=100 LSA_BENCH_JSON=BENCH_queue.json cargo bench -p lsa-bench --bench queue_bench
//! ```
//!
//! Each line is the median ns per operation over repeated samples
//! (`LSA_BENCH_MS` bounds the per-benchmark measurement budget, default
//! 200 ms). `LSA_BENCH_JSON=PATH` additionally writes the results as JSON
//! for the CI artifact. The queue benchmarks run the same contract through
//! both implementations — `ring` is [`lsa_service::BoundedQueue`] (the one
//! the service uses), `mutex` is this file's private `MutexQueue` (the
//! previous implementation, kept here, and only here, as the baseline).

use criterion::black_box;
use lsa_service::oneshot::{self, OneshotPool};
use lsa_service::{BoundedQueue, PushError};
use lsa_wire::{encode_frame, shard_hint, Request};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
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

/// The queue contract under test, abstracted over the two implementations.
trait Queue<T>: Clone + Send + Sync + 'static {
    fn make(capacity: usize) -> Self;
    fn try_push(&self, item: T) -> Result<(), PushError<T>>;
    fn pop(&self) -> Option<T>;
    fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize;
}

impl<T: Send + 'static> Queue<T> for BoundedQueue<T> {
    fn make(capacity: usize) -> Self {
        BoundedQueue::new(capacity)
    }
    fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        BoundedQueue::try_push(self, item)
    }
    fn pop(&self) -> Option<T> {
        BoundedQueue::pop(self)
    }
    fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        BoundedQueue::pop_batch(self, out, max)
    }
}

/// The `Mutex`+`Condvar` queue the service used before the lock-free
/// ring: the same shed-past-capacity, FIFO, blocking-pop contract, every
/// operation under one lock. Close is left out; no row exercises it.
struct MutexQueue<T> {
    inner: Arc<(Mutex<VecDeque<T>>, Condvar)>,
    capacity: usize,
}

impl<T> Clone for MutexQueue<T> {
    fn clone(&self) -> Self {
        MutexQueue {
            inner: Arc::clone(&self.inner),
            capacity: self.capacity,
        }
    }
}

impl<T: Send + 'static> Queue<T> for MutexQueue<T> {
    fn make(capacity: usize) -> Self {
        let items = VecDeque::with_capacity(capacity.min(1024));
        MutexQueue {
            inner: Arc::new((Mutex::new(items), Condvar::new())),
            capacity,
        }
    }
    fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let (items, cv) = &*self.inner;
        let mut q = items.lock().unwrap();
        if q.len() >= self.capacity {
            return Err(PushError::Overloaded(item));
        }
        q.push_back(item);
        drop(q);
        cv.notify_one();
        Ok(())
    }
    fn pop(&self) -> Option<T> {
        let (items, cv) = &*self.inner;
        let mut q = cv
            .wait_while(items.lock().unwrap(), |q| q.is_empty())
            .unwrap();
        q.pop_front()
    }
    fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let (items, cv) = &*self.inner;
        let mut q = cv
            .wait_while(items.lock().unwrap(), |q| q.is_empty())
            .unwrap();
        let n = q.len().min(max);
        out.extend(q.drain(..n));
        n
    }
}

/// Single-thread push+pop pairs: the uncontended fast path.
fn bench_uncontended<Q: Queue<u64>>() -> f64 {
    const PAIRS: u64 = 8_192;
    let q = Q::make(256);
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        for i in 0..PAIRS {
            q.try_push(black_box(i)).expect("queue has room");
            black_box(q.pop());
        }
        (PAIRS * 2, start.elapsed())
    })
}

/// One producer thread streams items through the queue to the consumer:
/// the steady-state hand-off cost including wakeups.
fn bench_ping_pong<Q: Queue<u64>>() -> f64 {
    const ITEMS: u64 = 8_192;
    median_ns_per_op(budget(), || {
        let q = Q::make(256);
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..ITEMS {
                    loop {
                        match q.try_push(i) {
                            Ok(()) => break,
                            Err(PushError::Overloaded(_)) => std::thread::yield_now(),
                            Err(PushError::Closed(_)) => panic!("closed mid-bench"),
                        }
                    }
                }
            })
        };
        let start = Instant::now();
        for _ in 0..ITEMS {
            black_box(q.pop().expect("producer still pushing"));
        }
        let took = start.elapsed();
        producer.join().unwrap();
        (ITEMS, took)
    })
}

/// Four producers race into one queue; the consumer drains in batches —
/// the contended admission path plus the batched drain the workers use.
fn bench_burst_4p<Q: Queue<u64>>() -> f64 {
    const PRODUCERS: u64 = 4;
    const PER: u64 = 2_048;
    median_ns_per_op(budget(), || {
        let q = Q::make(256);
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|t| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        loop {
                            match q.try_push(t * PER + i) {
                                Ok(()) => break,
                                Err(PushError::Overloaded(_)) => std::thread::yield_now(),
                                Err(PushError::Closed(_)) => panic!("closed mid-bench"),
                            }
                        }
                    }
                })
            })
            .collect();
        let start = Instant::now();
        let mut got = 0u64;
        let mut batch = Vec::with_capacity(64);
        while got < PRODUCERS * PER {
            batch.clear();
            got += q.pop_batch(&mut batch, 64) as u64;
            black_box(&batch);
        }
        let took = start.elapsed();
        for h in handles {
            h.join().unwrap();
        }
        (PRODUCERS * PER, took)
    })
}

/// Fresh oneshot per request: the allocation the pool exists to avoid.
fn bench_oneshot_fresh() -> f64 {
    const OPS: u64 = 8_192;
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        for i in 0..OPS {
            let (tx, rx) = oneshot::channel::<u64>();
            tx.send(black_box(i));
            black_box(rx.wait().expect("value sent"));
        }
        (OPS, start.elapsed())
    })
}

/// Pooled oneshot: at steady state every channel reuses a recycled
/// allocation.
fn bench_oneshot_pooled() -> f64 {
    const OPS: u64 = 8_192;
    let pool = OneshotPool::<u64>::new(64);
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        for i in 0..OPS {
            let (tx, rx) = pool.channel();
            tx.send(black_box(i));
            black_box(rx.wait().expect("value sent"));
        }
        (OPS, start.elapsed())
    })
}

/// Encode one reply-sized frame into a fresh `Vec` per request.
fn bench_encode_fresh() -> f64 {
    const OPS: u64 = 8_192;
    let req = Request::BankTransfer {
        from: 7,
        to: 3,
        amount: 42,
    };
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        for i in 0..OPS {
            let mut buf = Vec::new();
            encode_frame(&mut buf, req.opcode(), i, shard_hint(&req), |b| {
                req.encode_payload(b)
            });
            black_box(&buf);
        }
        (OPS, start.elapsed())
    })
}

/// Encode into one reused buffer — the per-lane/per-connection reuse the
/// client and server practice.
fn bench_encode_reused() -> f64 {
    const OPS: u64 = 8_192;
    let req = Request::BankTransfer {
        from: 7,
        to: 3,
        amount: 42,
    };
    let mut buf = Vec::with_capacity(256);
    median_ns_per_op(budget(), || {
        let start = Instant::now();
        for i in 0..OPS {
            buf.clear();
            encode_frame(&mut buf, req.opcode(), i, shard_hint(&req), |b| {
                req.encode_payload(b)
            });
            black_box(&buf);
        }
        (OPS, start.elapsed())
    })
}

fn main() {
    let benches: Vec<(&str, f64)> = vec![
        (
            "queue/uncontended-push-pop/ring",
            bench_uncontended::<BoundedQueue<u64>>(),
        ),
        (
            "queue/uncontended-push-pop/mutex",
            bench_uncontended::<MutexQueue<u64>>(),
        ),
        (
            "queue/spsc-ping-pong/ring",
            bench_ping_pong::<BoundedQueue<u64>>(),
        ),
        (
            "queue/spsc-ping-pong/mutex",
            bench_ping_pong::<MutexQueue<u64>>(),
        ),
        ("queue/burst-4p/ring", bench_burst_4p::<BoundedQueue<u64>>()),
        ("queue/burst-4p/mutex", bench_burst_4p::<MutexQueue<u64>>()),
        ("oneshot/fresh", bench_oneshot_fresh()),
        ("oneshot/pooled", bench_oneshot_pooled()),
        ("encode/fresh-buffer", bench_encode_fresh()),
        ("encode/reused-buffer", bench_encode_reused()),
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
}
