//! Read-only scan workload: the §1 validation-cost shape.
//!
//! Every transaction reads all `n` objects and sums them. Nothing ever
//! writes, so the workload isolates the pure *per-access consistency cost*:
//! time-based engines read at O(1) per access, validation-based engines pay
//! O(read-set) per access ("the validation overhead grows linearly with the
//! number of objects a transaction has read so far"), and the harness
//! divides elapsed time by [`lsa_engine::EngineStats::reads`] to report
//! ns/object per engine — the EXP-VAL experiment, now engine-generic.
//!
//! The objects are seeded with their index, so every scan doubles as a
//! consistency check: any torn snapshot breaks the arithmetic-series sum.

use lsa_engine::{EngineHandle, EngineStats, EngineVar, TxnEngine, TxnOps};

/// Parameters of the read-only scan workload.
#[derive(Clone, Copy, Debug)]
pub struct ScanConfig {
    /// Number of objects each transaction reads.
    pub objects: usize,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig { objects: 100 }
    }
}

/// The shared workload state: `n` objects holding their own index.
pub struct ScanWorkload<E: TxnEngine> {
    engine: E,
    vars: Vec<EngineVar<E, u64>>,
}

impl<E: TxnEngine> ScanWorkload<E> {
    /// Allocate the objects on `engine`, seeded `0..n`.
    pub fn new(engine: E, cfg: ScanConfig) -> Self {
        assert!(cfg.objects >= 1);
        let vars = (0..cfg.objects as u64).map(|i| engine.new_var(i)).collect();
        ScanWorkload { engine, vars }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The invariant sum every scan must observe: `0 + 1 + … + (n-1)`.
    pub fn expected_sum(&self) -> u64 {
        let n = self.vars.len() as u64;
        n * (n - 1) / 2
    }

    /// Build a per-thread worker.
    pub fn worker(&self, _tid: usize) -> ScanWorker<E> {
        ScanWorker {
            handle: self.engine.register(),
            vars: self.vars.clone(),
            expected: self.expected_sum(),
        }
    }
}

/// Per-thread worker of the scan workload.
pub struct ScanWorker<E: TxnEngine> {
    handle: E::Handle,
    vars: Vec<EngineVar<E, u64>>,
    expected: u64,
}

impl<E: TxnEngine> ScanWorker<E> {
    /// Run one read-only scan and check the invariant sum.
    pub fn step(&mut self) {
        let vars = &self.vars;
        let sum = self.handle.atomically(|tx| {
            let mut s = 0u64;
            for v in vars {
                s += *tx.read(v)?;
            }
            Ok(s)
        });
        assert_eq!(sum, self.expected, "scan observed a torn snapshot");
    }

    /// Accumulated statistics on the engine-shared surface.
    pub fn stats(&self) -> EngineStats {
        self.handle.engine_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_baseline::{NorecStm, ValidationMode, ValidationStm};
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;

    #[test]
    fn scans_are_read_only_and_consistent() {
        let wl = ScanWorkload::new(Stm::new(SharedCounter::new()), ScanConfig { objects: 32 });
        let mut w = wl.worker(0);
        for _ in 0..10 {
            w.step();
        }
        let s = w.stats();
        assert_eq!(s.ro_commits, 10);
        assert_eq!(s.commits, 0);
        assert_eq!(s.reads, 10 * 32);
    }

    #[test]
    fn scan_runs_on_validation_engines_too() {
        for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
            let wl = ScanWorkload::new(ValidationStm::new(mode), ScanConfig { objects: 16 });
            let mut w = wl.worker(0);
            for _ in 0..5 {
                w.step();
            }
            assert_eq!(w.stats().reads, 5 * 16);
        }
        let wl = ScanWorkload::new(NorecStm::new(), ScanConfig { objects: 16 });
        let mut w = wl.worker(0);
        w.step();
        assert_eq!(w.stats().ro_commits, 1);
    }

    #[test]
    fn expected_sum_matches_series() {
        let wl = ScanWorkload::new(Stm::new(SharedCounter::new()), ScanConfig { objects: 5 });
        assert_eq!(wl.expected_sum(), 10);
    }
}
