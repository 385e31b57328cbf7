//! Bank workload: transfers between accounts plus read-only audits.
//!
//! The classic STM correctness-and-contention workload. Update transactions
//! move money between two random accounts; read-only audit transactions sum
//! every account and must always observe the invariant total — the paper's
//! "consistent snapshot" guarantee made executable. The mix is configurable,
//! and audits of all accounts are exactly the long read-only transactions for
//! which multi-version LSA shines and for which synchronization errors
//! matter (§4.3, EXP-ERR).
//!
//! The workload is generic over its [`TxnEngine`], so the same transfers and
//! audits run on LSA-RT, TL2 and the validation STM (the engine matrix the
//! harness sweeps).

use crate::placement::PlacementHint;
use crate::rng::FastRng;
use lsa_engine::{EngineHandle, EngineStats, EngineVar, TxnEngine, TxnOps};

/// Parameters of the bank workload.
#[derive(Clone, Copy, Debug)]
pub struct BankConfig {
    /// Number of accounts.
    pub accounts: usize,
    /// Initial balance per account.
    pub initial: i64,
    /// Percentage (0–100) of transactions that are read-only audits.
    pub audit_percent: u32,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            accounts: 64,
            initial: 1_000,
            audit_percent: 20,
        }
    }
}

/// Shared state of the bank workload.
pub struct BankWorkload<E: TxnEngine> {
    engine: E,
    cfg: BankConfig,
    accounts: Vec<EngineVar<E, i64>>,
    /// Shard-affinity groups (1 = no partitioning). Account `i` belongs to
    /// group `i * groups / accounts`; under
    /// [`PlacementHint::Partitioned`] each group is pinned to its own shard
    /// and transfers stay group-local, so update transactions never cross
    /// shards. Audits always scan every account (cross-shard reads).
    groups: usize,
}

impl<E: TxnEngine> BankWorkload<E> {
    /// Create the bank on `engine` with engine-default (spread) placement.
    pub fn new(engine: E, cfg: BankConfig) -> Self {
        Self::with_placement(engine, cfg, PlacementHint::Spread)
    }

    /// Create the bank with an explicit [`PlacementHint`]. Partitioned
    /// placement pins contiguous account groups — one per engine shard —
    /// via [`TxnEngine::new_var_on`], clamped so every group keeps at least
    /// two accounts (a transfer needs a pair).
    pub fn with_placement(engine: E, cfg: BankConfig, placement: PlacementHint) -> Self {
        assert!(cfg.accounts >= 2);
        assert!(cfg.audit_percent <= 100);
        let groups = match placement {
            PlacementHint::Spread => 1,
            PlacementHint::Partitioned => engine.shards().clamp(1, cfg.accounts / 2),
        };
        let accounts = (0..cfg.accounts)
            .map(|i| match placement {
                PlacementHint::Spread => engine.new_var(cfg.initial),
                PlacementHint::Partitioned => {
                    engine.new_var_on(i * groups / cfg.accounts, cfg.initial)
                }
            })
            .collect();
        BankWorkload {
            engine,
            cfg,
            accounts,
            groups,
        }
    }

    /// Shard-affinity groups (1 unless partitioned on a sharded engine).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Index range `[start, end)` of group `g`'s accounts.
    pub fn group_bounds(&self, g: usize) -> (usize, usize) {
        assert!(g < self.groups);
        let n = self.cfg.accounts;
        (g * n / self.groups, (g + 1) * n / self.groups)
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The invariant total.
    pub fn expected_total(&self) -> i64 {
        self.cfg.accounts as i64 * self.cfg.initial
    }

    /// Quiescent total (non-transactional; call when no workers run).
    pub fn quiescent_total(&self) -> i64 {
        self.accounts.iter().map(|a| *E::peek(a)).sum()
    }

    /// The account variables — what the transaction service builds its
    /// transfer/audit request closures over.
    pub fn accounts(&self) -> &[EngineVar<E, i64>] {
        &self.accounts
    }

    /// Build the worker for thread `tid`.
    pub fn worker(&self, tid: usize) -> BankWorker<E> {
        BankWorker {
            handle: self.engine.register(),
            accounts: self.accounts.clone(),
            cfg: self.cfg,
            groups: self.groups,
            rng: FastRng::new(0xBA2C + tid as u64),
            audit_failures: 0,
        }
    }
}

/// Per-thread bank worker.
pub struct BankWorker<E: TxnEngine> {
    handle: E::Handle,
    accounts: Vec<EngineVar<E, i64>>,
    cfg: BankConfig,
    groups: usize,
    rng: FastRng,
    audit_failures: u64,
}

impl<E: TxnEngine> BankWorker<E> {
    /// Run one transaction: an audit with probability `audit_percent`,
    /// otherwise a transfer between two distinct random accounts.
    pub fn step(&mut self) {
        if self.rng.percent(self.cfg.audit_percent) {
            let expected = self.cfg.accounts as i64 * self.cfg.initial;
            let accounts = &self.accounts;
            let total = self.handle.atomically(|tx| {
                let mut sum = 0i64;
                for a in accounts {
                    sum += *tx.read(a)?;
                }
                Ok(sum)
            });
            if total != expected {
                self.audit_failures += 1;
            }
        } else {
            // Under partitioned placement transfers stay group-local (the
            // group is one shard), so updates never cross shards; spread
            // placement draws from the whole table.
            let (lo, hi) = if self.groups > 1 {
                let g = self.rng.below(self.groups);
                let n = self.cfg.accounts;
                (g * n / self.groups, (g + 1) * n / self.groups)
            } else {
                (0, self.cfg.accounts)
            };
            let span = hi - lo;
            let from = lo + self.rng.below(span);
            let mut to = lo + self.rng.below(span);
            if to == from {
                to = lo + (to - lo + 1) % span;
            }
            let amount = self.rng.range(1, 100);
            let (a, b) = (self.accounts[from].clone(), self.accounts[to].clone());
            self.handle.atomically(|tx| {
                let va = *tx.read(&a)?;
                let vb = *tx.read(&b)?;
                tx.write(&a, va - amount)?;
                tx.write(&b, vb + amount)?;
                Ok(())
            });
        }
    }

    /// Number of audits that observed a broken invariant (must stay 0).
    pub fn audit_failures(&self) -> u64 {
        self.audit_failures
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
    use lsa_stm::{Stm, StmConfig};
    use lsa_time::counter::SharedCounter;
    use lsa_time::external::{ExternalClock, OffsetPolicy};

    fn run_invariant<E: TxnEngine>(engine: E, cfg: BankConfig, steps: u64) {
        let wl = BankWorkload::new(engine, cfg);
        let failures: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let mut w = wl.worker(t);
                    s.spawn(move || {
                        for _ in 0..steps {
                            w.step();
                        }
                        w.audit_failures()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(failures, 0, "no audit may see a broken invariant");
        assert_eq!(wl.quiescent_total(), wl.expected_total());
    }

    #[test]
    fn invariant_survives_concurrency() {
        run_invariant(Stm::new(SharedCounter::new()), BankConfig::default(), 1_000);
    }

    #[test]
    fn invariant_survives_concurrency_on_every_engine() {
        let cfg = BankConfig {
            accounts: 16,
            initial: 500,
            audit_percent: 25,
        };
        run_invariant(Tl2Stm::new(SharedCounter::new()), cfg, 500);
        run_invariant(ValidationStm::new(ValidationMode::CommitCounter), cfg, 500);
        run_invariant(ValidationStm::new(ValidationMode::Always), cfg, 300);
    }

    #[test]
    fn invariant_survives_clock_uncertainty() {
        // Large injected deviation: validity gaps of 2·dev shrink snapshots
        // (more aborts) but must never break consistency.
        let tb = ExternalClock::with_policy(100_000, OffsetPolicy::Alternating);
        run_invariant(
            Stm::with_config(tb, StmConfig::multi_version(8)),
            BankConfig {
                accounts: 16,
                initial: 500,
                audit_percent: 30,
            },
            500,
        );
    }

    #[test]
    fn partitioned_placement_keeps_transfers_single_shard() {
        use lsa_time::sharded::ShardedTimeBase;
        let cfg = BankConfig {
            accounts: 32,
            initial: 100,
            audit_percent: 0, // transfers only — audits always cross shards
        };
        let engine = Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4));
        let wl = BankWorkload::with_placement(engine, cfg, crate::PlacementHint::Partitioned);
        assert_eq!(wl.groups(), 4);
        assert_eq!(wl.group_bounds(0), (0, 8));
        assert_eq!(wl.group_bounds(3), (24, 32));
        let mut w = wl.worker(0);
        for _ in 0..100 {
            w.step();
        }
        let s = w.stats();
        assert_eq!(s.commits, 100);
        assert_eq!(
            s.cross_shard_commits, 0,
            "partitioned transfers must stay shard-local"
        );
        assert_eq!(wl.quiescent_total(), wl.expected_total());

        // The spread baseline on the same engine does cross shards.
        let engine = Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4));
        let wl = BankWorkload::with_placement(engine, cfg, crate::PlacementHint::Spread);
        assert_eq!(wl.groups(), 1);
        let mut w = wl.worker(0);
        for _ in 0..100 {
            w.step();
        }
        assert!(
            w.stats().cross_shard_commits > 0,
            "round-robin spreading must produce cross-shard transfers"
        );
    }

    #[test]
    fn partitioned_disjoint_is_single_shard() {
        use lsa_time::sharded::ShardedTimeBase;
        let engine = Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4));
        let wl = crate::DisjointWorkload::with_placement(
            engine,
            2,
            crate::DisjointConfig {
                objects_per_thread: 16,
                accesses_per_tx: 8,
            },
            crate::PlacementHint::Partitioned,
        );
        let mut w = wl.worker(1);
        for _ in 0..50 {
            w.step();
        }
        assert_eq!(w.stats().commits, 50);
        assert_eq!(
            w.stats().cross_shard_commits,
            0,
            "pinned partitions must commit shard-locally"
        );
    }

    #[test]
    fn audit_percent_100_is_read_only() {
        let wl = BankWorkload::new(
            Stm::new(SharedCounter::new()),
            BankConfig {
                accounts: 8,
                initial: 10,
                audit_percent: 100,
            },
        );
        let mut w = wl.worker(0);
        for _ in 0..50 {
            w.step();
        }
        assert_eq!(w.stats().ro_commits, 50);
        assert_eq!(w.stats().commits, 0);
        assert_eq!(w.audit_failures(), 0);
    }
}
