//! Snapshot-analytics workload: long read-only scans racing an update
//! stream — the separation workload for multi-version vs single-version
//! engines (and the service bench's "analytics" request type).
//!
//! A metrics table of `keys` objects is updated by zero-sum transfers
//! (bump one entry, debit another), so every consistent snapshot of the
//! *whole* table sums to zero. Most steps are analytics: one read-only
//! transaction scanning a contiguous window of `scan_window` keys. On a
//! multi-version LSA the scan finishes *in the past* on a version-chain
//! snapshot however fast the updates churn; single-version engines must
//! abort it whenever an update overwrites a scanned key mid-flight — the
//! §4.3 motivation, measurable as the abort-ratio gap between engines on
//! the same row of the matrix.
//!
//! Read-mostly by construction: `scan_percent` of steps scan (default 90),
//! the rest update.

use crate::rng::FastRng;
use lsa_engine::{EngineHandle, EngineStats, EngineVar, TxnEngine, TxnOps};

/// Parameters of the snapshot-analytics workload.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotConfig {
    /// Size of the metrics table.
    pub keys: usize,
    /// Percentage (0–100) of steps that are read-only analytics scans.
    pub scan_percent: u32,
    /// Keys each scan reads (contiguous, wrapping). Clamped to `keys`.
    /// Full-table scans additionally assert the zero-sum invariant.
    pub scan_window: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            keys: 256,
            scan_percent: 90,
            scan_window: 256,
        }
    }
}

/// Shared state: the metrics table.
pub struct SnapshotWorkload<E: TxnEngine> {
    engine: E,
    cfg: SnapshotConfig,
    vars: Vec<EngineVar<E, i64>>,
}

impl<E: TxnEngine> SnapshotWorkload<E> {
    /// Allocate the table on `engine`, all entries zero.
    pub fn new(engine: E, mut cfg: SnapshotConfig) -> Self {
        assert!(cfg.keys >= 2);
        assert!(cfg.scan_percent <= 100);
        cfg.scan_window = cfg.scan_window.clamp(1, cfg.keys);
        let vars = (0..cfg.keys).map(|_| engine.new_var(0i64)).collect();
        SnapshotWorkload { engine, cfg, vars }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The workload parameters (post-clamping).
    pub fn config(&self) -> SnapshotConfig {
        self.cfg
    }

    /// Quiescent table sum — zero by the transfer invariant (call when no
    /// workers run).
    pub fn quiescent_sum(&self) -> i64 {
        self.vars.iter().map(|v| *E::peek(v)).sum()
    }

    /// The metrics-table variables — what the transaction service builds
    /// its analytics/update request closures over.
    pub fn vars(&self) -> &[EngineVar<E, i64>] {
        &self.vars
    }

    /// Build the worker for thread `tid`.
    pub fn worker(&self, tid: usize) -> SnapshotWorker<E> {
        SnapshotWorker {
            handle: self.engine.register(),
            vars: self.vars.clone(),
            cfg: self.cfg,
            rng: FastRng::new(0x5CA7 + tid as u64),
        }
    }
}

/// Per-thread worker of the snapshot-analytics workload.
pub struct SnapshotWorker<E: TxnEngine> {
    handle: E::Handle,
    vars: Vec<EngineVar<E, i64>>,
    cfg: SnapshotConfig,
    rng: FastRng,
}

impl<E: TxnEngine> SnapshotWorker<E> {
    /// Run one step: an analytics scan with probability `scan_percent`,
    /// otherwise one zero-sum update transfer.
    pub fn step(&mut self) {
        if self.rng.percent(self.cfg.scan_percent) {
            let n = self.vars.len();
            let window = self.cfg.scan_window;
            let start = self.rng.below(n);
            let vars = &self.vars;
            let sum = self.handle.atomically(|tx| {
                let mut s = 0i64;
                for off in 0..window {
                    s += *tx.read(&vars[(start + off) % n])?;
                }
                Ok(s)
            });
            if window == n {
                // A full-table scan is a consistency witness: any torn
                // snapshot breaks the zero-sum invariant.
                assert_eq!(sum, 0, "analytics scan observed a torn snapshot");
            }
        } else {
            let i = self.rng.below(self.vars.len());
            let mut j = self.rng.below(self.vars.len());
            if j == i {
                j = (j + 1) % self.vars.len();
            }
            let amount = self.rng.range(1, 50);
            let (a, b) = (self.vars[i].clone(), self.vars[j].clone());
            self.handle.atomically(|tx| {
                tx.modify(&a, |v| v + amount)?;
                tx.modify(&b, |v| v - amount)
            });
        }
    }

    /// Accumulated statistics on the engine-shared surface.
    pub fn stats(&self) -> EngineStats {
        self.handle.engine_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_baseline::Tl2Stm;
    use lsa_stm::{Stm, StmConfig};
    use lsa_time::counter::SharedCounter;

    #[test]
    fn read_mostly_mix_and_invariant() {
        let wl = SnapshotWorkload::new(
            Stm::new(SharedCounter::new()),
            SnapshotConfig {
                keys: 32,
                scan_percent: 75,
                scan_window: 32,
            },
        );
        let mut w = wl.worker(0);
        for _ in 0..200 {
            w.step();
        }
        let s = w.stats();
        assert_eq!(s.total_commits(), 200);
        assert!(
            s.ro_commits > s.commits,
            "scan-dominated mix must be read-mostly (ro={} vs rw={})",
            s.ro_commits,
            s.commits
        );
        assert_eq!(wl.quiescent_sum(), 0);
    }

    #[test]
    fn window_clamps_to_table() {
        let wl = SnapshotWorkload::new(
            Stm::new(SharedCounter::new()),
            SnapshotConfig {
                keys: 8,
                scan_percent: 100,
                scan_window: 1_000,
            },
        );
        assert_eq!(wl.config().scan_window, 8);
        let mut w = wl.worker(0);
        w.step();
        assert_eq!(w.stats().reads, 8);
    }

    fn concurrent_scans_stay_consistent<E: TxnEngine>(engine: E) {
        let wl = SnapshotWorkload::new(
            engine,
            SnapshotConfig {
                keys: 64,
                scan_percent: 60,
                scan_window: 64,
            },
        );
        std::thread::scope(|s| {
            for t in 0..4 {
                let mut w = wl.worker(t);
                s.spawn(move || {
                    for _ in 0..150 {
                        w.step();
                    }
                });
            }
        });
        assert_eq!(wl.quiescent_sum(), 0);
    }

    #[test]
    fn concurrent_scans_on_multi_version_lsa() {
        concurrent_scans_stay_consistent(Stm::with_config(
            SharedCounter::new(),
            StmConfig::multi_version(8),
        ));
    }

    #[test]
    fn concurrent_scans_on_tl2() {
        concurrent_scans_stay_consistent(Tl2Stm::new(SharedCounter::new()));
    }

    /// The separation claim itself: under the same update pressure, the
    /// multi-version engine finishes scans without aborting them while a
    /// single-version engine pays scan aborts. Smoke-sized so it stays
    /// deterministic enough for CI: we only assert the qualitative gap
    /// (multi-version scan aborts strictly fewer than single-version).
    #[test]
    fn multi_version_scans_abort_less_than_single_version() {
        fn scan_aborts<E: TxnEngine>(engine: E) -> u64 {
            let wl = SnapshotWorkload::new(
                engine,
                SnapshotConfig {
                    keys: 128,
                    scan_percent: 50,
                    scan_window: 128,
                },
            );
            let totals: u64 = std::thread::scope(|s| {
                let handles: Vec<_> = (0..3)
                    .map(|t| {
                        let mut w = wl.worker(t);
                        s.spawn(move || {
                            for _ in 0..300 {
                                w.step();
                            }
                            w.stats().aborts
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            totals
        }
        let mv = scan_aborts(Stm::with_config(
            SharedCounter::new(),
            StmConfig::multi_version(16),
        ));
        let sv = scan_aborts(Tl2Stm::new(SharedCounter::new()));
        assert!(
            mv <= sv,
            "multi-version LSA must not abort more than single-version TL2 \
             on analytics scans (mv={mv}, sv={sv})"
        );
    }
}
