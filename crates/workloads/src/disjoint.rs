//! The paper's §4.2 time-base overhead workload: "transactions update
//! distinct objects (but this fact is not known a priori)".
//!
//! Each thread owns a private partition of objects and every transaction
//! updates `k` distinct objects drawn from that partition. There are no
//! logical conflicts — "the programmer relies on the transactional memory to
//! actually enforce atomicity and isolation" — so throughput is limited only
//! by the STM's fixed costs, making the time base's overhead maximally
//! visible (Figure 2).
//!
//! Generic over the [`TxnEngine`], so fixed costs can be compared *across
//! engines* as well as across time bases.

use crate::rng::FastRng;
use lsa_engine::{EngineHandle, EngineStats, EngineVar, TxnEngine, TxnOps};

/// Parameters of the disjoint-update workload.
#[derive(Clone, Copy, Debug)]
pub struct DisjointConfig {
    /// Objects per thread partition.
    pub objects_per_thread: usize,
    /// Distinct objects each transaction updates (the paper's panels use
    /// 10, 50 and 100 accesses).
    pub accesses_per_tx: usize,
}

impl Default for DisjointConfig {
    fn default() -> Self {
        DisjointConfig {
            objects_per_thread: 256,
            accesses_per_tx: 10,
        }
    }
}

/// The shared workload state: one object partition per prospective thread.
pub struct DisjointWorkload<E: TxnEngine> {
    engine: E,
    cfg: DisjointConfig,
    partitions: Vec<Vec<EngineVar<E, u64>>>,
}

impl<E: TxnEngine> DisjointWorkload<E> {
    /// Allocate `threads` partitions on `engine`.
    pub fn new(engine: E, threads: usize, cfg: DisjointConfig) -> Self {
        assert!(cfg.accesses_per_tx >= 1);
        assert!(cfg.objects_per_thread >= cfg.accesses_per_tx);
        let partitions = (0..threads)
            .map(|_| {
                (0..cfg.objects_per_thread)
                    .map(|_| engine.new_var(0u64))
                    .collect()
            })
            .collect();
        DisjointWorkload {
            engine,
            cfg,
            partitions,
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The workload parameters.
    pub fn config(&self) -> DisjointConfig {
        self.cfg
    }

    /// Number of partitions (maximum worker threads).
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Build the per-thread worker for partition `tid`.
    pub fn worker(&self, tid: usize) -> DisjointWorker<E> {
        DisjointWorker {
            handle: self.engine.register(),
            vars: self.partitions[tid].clone(),
            k: self.cfg.accesses_per_tx,
            rng: FastRng::new(0xD15C0 + tid as u64),
            picks: Vec::with_capacity(self.cfg.accesses_per_tx),
        }
    }

    /// Sum of all objects across all partitions (each committed transaction
    /// adds exactly `k`, so `total == k · commits` — the invariant tests use
    /// this).
    pub fn total(&self) -> u64 {
        self.partitions.iter().flatten().map(|v| *E::peek(v)).sum()
    }
}

/// Per-thread worker of the disjoint-update workload.
pub struct DisjointWorker<E: TxnEngine> {
    handle: E::Handle,
    vars: Vec<EngineVar<E, u64>>,
    k: usize,
    rng: FastRng,
    picks: Vec<usize>,
}

impl<E: TxnEngine> DisjointWorker<E> {
    /// Run one update transaction (increments `k` distinct private objects).
    pub fn step(&mut self) {
        self.rng.distinct(self.vars.len(), self.k, &mut self.picks);
        // Move picks out so the closure (which may re-run on retry) can
        // borrow it while `self.handle` is mutably borrowed.
        let picks = std::mem::take(&mut self.picks);
        let vars = &self.vars;
        self.handle.atomically(|tx| {
            for &i in &picks {
                tx.modify(&vars[i], |v| v + 1)?;
            }
            Ok(())
        });
        self.picks = picks;
    }

    /// Accumulated statistics on the engine-shared surface.
    pub fn stats(&self) -> EngineStats {
        self.handle.engine_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_baseline::{Tl2Stm, ValidationMode, ValidationStm};
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use lsa_time::hardware::HardwareClock;

    #[test]
    fn single_thread_accounting() {
        let wl = DisjointWorkload::new(
            Stm::new(SharedCounter::new()),
            1,
            DisjointConfig {
                objects_per_thread: 32,
                accesses_per_tx: 10,
            },
        );
        let mut w = wl.worker(0);
        for _ in 0..50 {
            w.step();
        }
        assert_eq!(w.stats().commits, 50);
        assert_eq!(w.stats().aborts, 0, "disjoint work never conflicts");
        assert_eq!(wl.total(), 50 * 10);
    }

    fn concurrent_accounting<E: TxnEngine>(engine: E) {
        let threads = 4;
        let wl = DisjointWorkload::new(
            engine,
            threads,
            DisjointConfig {
                objects_per_thread: 64,
                accesses_per_tx: 10,
            },
        );
        let per_thread = 300u64;
        let aborts: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let mut w = wl.worker(t);
                    s.spawn(move || {
                        for _ in 0..per_thread {
                            w.step();
                        }
                        w.stats().aborts
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wl.total(), threads as u64 * per_thread * 10);
        assert_eq!(aborts, 0, "partitions are disjoint: no conflicts possible");
    }

    #[test]
    fn concurrent_threads_never_conflict() {
        concurrent_accounting(Stm::new(HardwareClock::mmtimer_free()));
    }

    #[test]
    fn concurrent_threads_never_conflict_tl2() {
        concurrent_accounting(Tl2Stm::new(SharedCounter::new()));
    }

    #[test]
    fn concurrent_totals_hold_on_validation_engine() {
        // The commit-counter heuristic *does* revalidate on disjoint commits
        // (the paper's point), and in Always mode every access validates, but
        // disjoint read sets always stay valid — still zero aborts.
        concurrent_accounting(ValidationStm::new(ValidationMode::CommitCounter));
    }

    #[test]
    #[should_panic(expected = "objects_per_thread")]
    fn rejects_k_larger_than_partition() {
        let _ = DisjointWorkload::new(
            Stm::new(SharedCounter::new()),
            1,
            DisjointConfig {
                objects_per_thread: 4,
                accesses_per_tx: 10,
            },
        );
    }
}
