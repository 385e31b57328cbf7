//! Thread orchestration and throughput measurement.
//!
//! All real-thread experiments share this runner: spawn `n` workers, release
//! them simultaneously through a barrier, run for a fixed wall-clock
//! duration, collect per-thread statistics. Workers are built *before* the
//! barrier so allocation and registration never pollute the measured window.

use lsa_engine::EngineStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A measurable workload worker: one `step` = one transaction (or one
/// logical operation).
pub trait BenchWorker: Send {
    /// Execute one unit of work.
    fn step(&mut self);
    /// Statistics accumulated so far, on the engine-shared surface.
    fn worker_stats(&self) -> EngineStats;
}

/// Outcome of a timed run. Commit/abort totals are views over the single
/// source of truth, the merged [`EngineStats`].
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Worker thread count.
    pub threads: usize,
    /// Measured wall-clock window.
    pub elapsed: Duration,
    /// Total steps executed.
    pub steps: u64,
    /// Full merged per-thread statistics (validation cost included).
    pub stats: EngineStats,
}

impl RunOutcome {
    /// Total committed transactions (update + read-only).
    pub fn commits(&self) -> u64 {
        self.stats.total_commits()
    }

    /// Committed transactions per second.
    pub fn tx_per_sec(&self) -> f64 {
        self.commits() as f64 / self.elapsed.as_secs_f64()
    }

    /// Committed transactions per second, in millions (the paper's Figure 2
    /// y-axis unit).
    pub fn mtx_per_sec(&self) -> f64 {
        self.tx_per_sec() / 1e6
    }
}

/// Run `threads` workers for `duration`; `make(i)` builds worker `i`.
pub fn run_for<W, F>(threads: usize, duration: Duration, make: F) -> RunOutcome
where
    W: BenchWorker,
    F: Fn(usize) -> W + Sync,
{
    run_for_pinned(threads, duration, false, make)
}

/// [`run_for`] with optional thread pinning: worker `i` is pinned to
/// available core `i % cores` before the start barrier, so the measured
/// window never sees a migration. Pinning is best-effort — when the
/// platform refuses (or `pin` is `false`) workers run wherever the
/// scheduler puts them. The registry's modeled-NUMA cells use this: a
/// thread hopping cores mid-run would smear the modeled per-node time-base
/// state across cores.
pub fn run_for_pinned<W, F>(threads: usize, duration: Duration, pin: bool, make: F) -> RunOutcome
where
    W: BenchWorker,
    F: Fn(usize) -> W + Sync,
{
    assert!(threads >= 1);
    let barrier = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    let cores = if pin {
        core_affinity::get_core_ids()
    } else {
        None
    };

    let (elapsed, per_thread) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let barrier = &barrier;
                let stop = &stop;
                let cores = &cores;
                let mut worker = make(i);
                s.spawn(move || {
                    if let Some(cores) = cores {
                        // Before the barrier: the pinning syscall happens in
                        // the setup phase, never inside the measured window.
                        core_affinity::set_for_current(cores[i % cores.len()]);
                    }
                    barrier.wait();
                    let mut steps = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        worker.step();
                        steps += 1;
                    }
                    (steps, worker.worker_stats())
                })
            })
            .collect();

        barrier.wait();
        let start = Instant::now();
        while start.elapsed() < duration {
            std::thread::sleep(Duration::from_millis(1).min(duration));
        }
        stop.store(true, Ordering::Relaxed);
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (start.elapsed(), results)
    });

    aggregate(threads, elapsed, per_thread)
}

fn aggregate(threads: usize, elapsed: Duration, per_thread: Vec<(u64, EngineStats)>) -> RunOutcome {
    let mut outcome = RunOutcome {
        threads,
        elapsed,
        steps: 0,
        stats: EngineStats::default(),
    };
    for (steps, stats) in per_thread {
        outcome.steps += steps;
        outcome.stats.merge(&stats);
    }
    outcome
}

/// Run exactly `steps_per_thread` steps on each of `threads` workers
/// (deterministic workloads for tests).
pub fn run_steps<W, F>(threads: usize, steps_per_thread: u64, make: F) -> RunOutcome
where
    W: BenchWorker,
    F: Fn(usize) -> W + Sync,
{
    assert!(threads >= 1);
    let barrier = Barrier::new(threads);
    let start = Instant::now();
    let per_thread: Vec<(u64, EngineStats)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let barrier = &barrier;
                let mut worker = make(i);
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..steps_per_thread {
                        worker.step();
                    }
                    (steps_per_thread, worker.worker_stats())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    aggregate(threads, elapsed, per_thread)
}

/// Duration knob shared by the figure binaries: `LSA_MEASURE_MS` overrides
/// the per-point measurement window (milliseconds).
pub fn measure_window(default_ms: u64) -> Duration {
    let ms = std::env::var("LSA_MEASURE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_ms);
    Duration::from_millis(ms.max(1))
}

// Blanket adapters so workload workers plug straight into the runner — on
// ANY engine, thanks to the `TxnEngine` abstraction.
use lsa_engine::TxnEngine;

macro_rules! bench_workers {
    ($($worker:ident),*) => {$(
        impl<E: TxnEngine> BenchWorker for lsa_workloads::$worker<E> {
            fn step(&mut self) {
                lsa_workloads::$worker::step(self);
            }

            fn worker_stats(&self) -> EngineStats {
                self.stats()
            }
        }
    )*};
}

bench_workers!(
    DisjointWorker,
    BankWorker,
    ScanWorker,
    IntsetWorker,
    HashsetWorker,
    SnapshotWorker
);

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use lsa_workloads::{DisjointConfig, DisjointWorkload};

    #[test]
    fn run_steps_counts_exactly() {
        let wl = DisjointWorkload::new(
            Stm::new(SharedCounter::new()),
            2,
            DisjointConfig {
                objects_per_thread: 32,
                accesses_per_tx: 4,
            },
        );
        let out = run_steps(2, 100, |i| wl.worker(i));
        assert_eq!(out.steps, 200);
        assert_eq!(out.commits(), 200);
        assert_eq!(out.stats.aborts, 0);
        assert_eq!(wl.total(), 200 * 4);
    }

    #[test]
    fn run_for_executes_and_measures() {
        let wl = DisjointWorkload::new(
            Stm::new(SharedCounter::new()),
            1,
            DisjointConfig {
                objects_per_thread: 16,
                accesses_per_tx: 2,
            },
        );
        let out = run_for(1, Duration::from_millis(30), |i| wl.worker(i));
        assert!(out.commits() > 0, "some transactions must commit in 30 ms");
        assert!(out.elapsed >= Duration::from_millis(30));
        assert!(out.tx_per_sec() > 0.0);
        assert_eq!(out.commits(), out.steps, "no aborts in disjoint workload");
    }

    #[test]
    fn pinned_run_completes_work() {
        let wl = DisjointWorkload::new(
            Stm::new(SharedCounter::new()),
            2,
            DisjointConfig {
                objects_per_thread: 16,
                accesses_per_tx: 2,
            },
        );
        // Best-effort pinning must never break a run, pinnable or not.
        let out = run_for_pinned(2, Duration::from_millis(20), true, |i| wl.worker(i));
        assert!(out.commits() > 0, "pinned workers must make progress");
    }

    #[test]
    fn measure_window_env_override() {
        std::env::remove_var("LSA_MEASURE_MS");
        assert_eq!(measure_window(250), Duration::from_millis(250));
    }
}
