//! The in-process workloads: `engine_short` and `engine_scan`. Generator
//! threads call `EngineHandle::atomically` directly; `lsa-service` and
//! `lsa-wire` do nothing here.

use crate::gen::{self, ScanOp, SCAN_VARS, TABLE_VARS};
use crate::run::{
    fold_segment, Check, RunOut, SegAcc, SegmentSpec, SPAN_CAPACITY, THREADS, WARMUP_OPS,
};
use crate::spans::{self, SpanLog, ENGINE_BATCH};
use crate::sys;
use lsa_engine::{EngineHandle, EngineStats, EngineVar, TxnEngine, TxnOps};
use std::sync::Barrier;
use std::time::Instant;

/// Transactions per span, per deadline check and (on `engine_short`) per
/// latency sample.
pub const BATCH: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Each thread updates two variables of its own partition per
    /// transaction: no conflicts, the shortest useful transaction.
    Short,
    /// Both threads share one table: read-only scans of a 256-variable
    /// block beside zero-sum updates inside a block.
    Scan,
}

type Var<E> = EngineVar<E, i64>;

/// Tables and inputs of one engine workload, ready to run.
pub struct EngineRig<E: TxnEngine> {
    kind: EngineKind,
    engine: E,
    /// One table per thread; on `Scan` every entry is the same table.
    tables: Vec<Vec<Var<E>>>,
    ops: Vec<Vec<u32>>,
}

/// Run one generated op; `false` when its output is wrong.
#[inline]
fn exec<E: TxnEngine>(kind: EngineKind, h: &mut E::Handle, table: &[Var<E>], op: u32) -> bool {
    match kind {
        EngineKind::Short => {
            let (a, b) = gen::short_pair(op);
            let (a, b) = (&table[a], &table[b]);
            h.atomically(|tx| {
                tx.modify(a, |v| v + 1)?;
                tx.modify(b, |v| v - 1)
            });
            true
        }
        EngineKind::Scan => match gen::scan_op(op) {
            ScanOp::Scan { block } => {
                let vars = &table[block * SCAN_VARS..(block + 1) * SCAN_VARS];
                let sum = h.atomically(|tx| {
                    let mut sum = 0i64;
                    for v in vars {
                        sum += *tx.read(v)?;
                    }
                    Ok(sum)
                });
                sum == 0
            }
            ScanOp::Update { from, to } => {
                let (a, b) = (&table[from], &table[to]);
                h.atomically(|tx| {
                    tx.modify(a, |v| v - 1)?;
                    tx.modify(b, |v| v + 1)
                });
                true
            }
        },
    }
}

/// What one generator thread hands back.
struct ThreadOut {
    warm_done: Instant,
    segs: Vec<SegAcc>,
    spans: SpanLog,
    stats: EngineStats,
    attempted: u64,
    failed: u64,
    cpu_s: f64,
}

impl<E: TxnEngine> EngineRig<E> {
    /// Generate the inputs from `seed` and build the tables on `engine`.
    pub fn setup(kind: EngineKind, engine: E, seed: u64) -> Self {
        let table = |_| -> Vec<Var<E>> { (0..TABLE_VARS).map(|_| engine.new_var(0i64)).collect() };
        let (tables, ops) = match kind {
            EngineKind::Short => (
                (0..THREADS).map(table).collect(),
                (0..THREADS).map(|t| gen::short_ops(seed, t)).collect(),
            ),
            EngineKind::Scan => (
                vec![table(0); THREADS],
                (0..THREADS).map(|t| gen::scan_ops(seed, t)).collect(),
            ),
        };
        EngineRig {
            kind,
            engine,
            tables,
            ops,
        }
    }

    /// Warm up, then run `plan` on [`THREADS`] generator threads. Span
    /// times count from `epoch`.
    pub fn run(&self, plan: &[SegmentSpec], epoch: Instant) -> (RunOut, EngineStats) {
        let barrier = Barrier::new(THREADS);
        let outs: Vec<ThreadOut> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || self.generator(t, plan, epoch, barrier))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("engine generator panicked"))
                .collect()
        });

        let mut out = RunOut {
            warm_done: outs.iter().map(|o| o.warm_done).max().expect("two threads"),
            segments: Vec::new(),
            attempted: outs.iter().map(|o| o.attempted).sum(),
            completed: outs.iter().map(|o| o.attempted - o.failed).sum(),
            failed: outs.iter().map(|o| o.failed).sum(),
            lat_ns: Vec::new(),
            late_ns: Vec::new(),
            offered_per_s: 0.0,
            spans: Vec::new(),
            spans_dropped: 0,
            mid_gauges: None,
            cpu_s: outs[0].cpu_s,
        };
        let mut stats = EngineStats::default();
        let mut per_thread: Vec<_> = Vec::new();
        for o in outs {
            stats.merge(&o.stats);
            out.spans_dropped += o.spans.dropped;
            spans::append(&mut out.spans, o.spans.into_spans());
            per_thread.push(o.segs.into_iter());
        }
        for &spec in plan {
            let accs: Vec<SegAcc> = per_thread
                .iter_mut()
                .map(|segs| segs.next().expect("one accumulator per segment"))
                .collect();
            out.segments.push(fold_segment(spec, accs, &mut out.lat_ns));
        }
        out.lat_ns.sort_unstable();
        (out, stats)
    }

    fn generator(
        &self,
        thread: usize,
        plan: &[SegmentSpec],
        epoch: Instant,
        barrier: &Barrier,
    ) -> ThreadOut {
        let (kind, table, ops) = (self.kind, &self.tables[thread][..], &self.ops[thread][..]);
        // Registered on the generator thread itself, so the engine's
        // thread-local version pools are the ones warm-up fills.
        let mut h = self.engine.register();
        let mut cursor = 0usize;
        let mut next_op = || {
            let op = ops[cursor];
            cursor = (cursor + 1) % ops.len();
            op
        };
        let (mut attempted, mut failed) = (0u64, 0u64);
        for _ in 0..WARMUP_OPS / THREADS {
            attempted += 1;
            failed += !exec::<E>(kind, &mut h, table, next_op()) as u64;
        }
        // `engine_short` samples one latency per batch, `engine_scan`
        // takes every one: its transactions are long enough that a clock
        // reading per transaction is lost in them.
        let stride = match kind {
            EngineKind::Short => BATCH,
            EngineKind::Scan => 1,
        };
        let mut log = SpanLog::new(epoch, SPAN_CAPACITY / THREADS);
        let mut segs: Vec<SegAcc> = plan
            .iter()
            .map(|spec| {
                // Room for a latency per 5 µs of segment: no transaction
                // sampled here is shorter, so `judge` never reallocates.
                SegAcc::with_capacity(spec.dur.as_micros() as usize / 5 + BATCH)
            })
            .collect();
        barrier.wait();
        let warm_done = Instant::now();
        let cpu_before = sys::process_cpu_seconds();
        let mut batch_no = 0u64;
        for (spec, acc) in plan.iter().zip(&mut segs) {
            barrier.wait();
            let start = Instant::now();
            let deadline = start + spec.dur;
            loop {
                let batch_start = Instant::now();
                let mut prev = batch_start;
                for k in 0..BATCH {
                    let ok = exec::<E>(kind, &mut h, table, next_op());
                    if ok {
                        acc.ok += 1;
                    } else {
                        acc.failed += 1;
                    }
                    if k % stride == 0 {
                        let now = Instant::now();
                        acc.judge(ok, now - prev);
                        prev = now;
                    }
                }
                let batch_end = Instant::now();
                if spec.traced {
                    batch_no += 1;
                    log.push(ENGINE_BATCH, batch_start, batch_end, 0, batch_no);
                }
                if batch_end >= deadline {
                    acc.elapsed = batch_end - start;
                    break;
                }
            }
            attempted += acc.ok + acc.failed;
            failed += acc.failed;
        }
        barrier.wait();
        ThreadOut {
            warm_done,
            segs,
            spans: log,
            stats: h.engine_stats(),
            attempted,
            failed,
            cpu_s: sys::process_cpu_seconds() - cpu_before,
        }
    }

    /// The output checks that need the whole run: `(what, passed)`.
    pub fn checks(&self, out: &RunOut, stats: &EngineStats) -> Vec<Check> {
        let mut distinct: Vec<&Vec<Var<E>>> = self.tables.iter().collect();
        if self.kind == EngineKind::Scan {
            distinct.truncate(1);
        }
        let sum: i64 = distinct
            .iter()
            .flat_map(|t| t.iter())
            .map(|v| *E::peek(v))
            .sum();
        vec![
            ("final table sum is zero".into(), sum == 0),
            (
                format!(
                    "commits ({}) == operations ({})",
                    stats.total_commits(),
                    out.attempted
                ),
                stats.total_commits() == out.attempted,
            ),
        ]
    }

    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Run the first `n` ops of thread 0's inputs on one registered
    /// handle, untimed by the caller's choice: the layer replay's
    /// "`atomically` directly" boundary. Returns the handle's statistics.
    pub fn replay(&self, n: usize) -> (std::time::Duration, EngineStats) {
        let mut h = self.engine.register();
        let (table, ops) = (&self.tables[0][..], &self.ops[0]);
        let start = Instant::now();
        for &op in ops.iter().cycle().take(n) {
            std::hint::black_box(exec::<E>(self.kind, &mut h, table, op));
        }
        (start.elapsed(), h.engine_stats())
    }
}
