//! A validation-based STM with invisible reads (RSTM-style), §1.2 of the
//! paper.
//!
//! The intro's motivating trade-off: an STM that re-validates its entire read
//! set on **every** object access is always consistent but pays `O(n)` per
//! access (`O(n²)` per transaction of `n` reads) — this is the cost
//! time-based STMs eliminate. RSTM reduces (but does not remove) that cost
//! with a heuristic: a global *commit counter* counts attempted update
//! commits, and the read set is revalidated only when the counter changed
//! since the last validation. "Even disjoint updates will lead to cache
//! misses, slowing down transactions that are never affected by these
//! updates" — the commit counter is itself a contended shared line.
//!
//! [`ValidationStm`] implements both modes ([`ValidationMode::Always`] /
//! [`ValidationMode::CommitCounter`]) over the runtime's versioned-lock word
//! per object, with buffered writes: a commit stamps each object it writes
//! `old + 1` where TL2 stamps its commit time, and a read-set entry stands
//! under TL2's rule with the version it read as the bound — no newer
//! version, no other committer's lock. The `validation_cost` experiment
//! (EXP-VAL in DESIGN.md) sweeps read-set sizes across this engine and
//! LSA-RT.

use crate::engine::{version, word_valid, Abort, BaselineStm, Meta, Protocol, Txn, VLock};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// When to revalidate the read set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationMode {
    /// Validate the whole read set on every access — the `O(n)`-per-access
    /// baseline of the paper's introduction.
    Always,
    /// RSTM heuristic: validate only when the global commit counter moved.
    CommitCounter,
}

/// The validation STM's protocol.
pub struct Validation {
    mode: ValidationMode,
    /// RSTM's global commit counter: incremented by every attempted update
    /// commit. Deliberately a single shared cache line — the point the paper
    /// makes about this design.
    commit_counter: CachePadded<AtomicU64>,
}

/// The validation-based STM runtime. Cheap to clone; clones share the commit
/// counter and the variable-id sequence.
pub type ValidationStm = BaselineStm<Validation>;

impl ValidationStm {
    /// Runtime in the given validation mode.
    pub fn new(mode: ValidationMode) -> Self {
        BaselineStm::with_protocol(Validation {
            mode,
            commit_counter: CachePadded::new(AtomicU64::new(0)),
        })
    }
}

/// Validate the read set: every object still at the version read and locked
/// by no other committer. Only a commit holds locks, so only a
/// `committing` transaction owns any.
fn revalidate(txn: &Txn<'_, Validation>, committing: bool) -> Result<(), Abort> {
    txn.validate(|r| {
        let owned = committing && txn.writes_to(r.id);
        word_valid(r.object.meta().word(), version(r.word), owned)
    })
}

impl Protocol for Validation {
    type Meta = VLock;
    type Local = ();

    fn name(&self) -> String {
        match self.mode {
            ValidationMode::Always => "validation(always)".into(),
            ValidationMode::CommitCounter => "validation(commit-counter)".into(),
        }
    }

    fn register(&self) {}

    fn begin(&self, _: &mut (), _retry: bool) -> u64 {
        self.commit_counter.load(Ordering::Acquire)
    }

    fn check_read(txn: &mut Txn<'_, Self>, _word: u64) -> Result<(), Abort> {
        if txn.protocol.mode == ValidationMode::CommitCounter {
            // The heuristic read: this load is the per-access shared
            // cache-line touch the paper calls out.
            let cc = txn.protocol.commit_counter.load(Ordering::Acquire);
            if cc == txn.snapshot {
                return Ok(());
            }
            txn.snapshot = cc;
        }
        revalidate(txn, false)
    }

    fn commit(txn: &mut Txn<'_, Self>) -> Result<(), Abort> {
        if txn.scratch.writes.is_empty() {
            // Read-only: the read set was kept valid throughout; one final
            // validation closes the linearization window.
            return revalidate(txn, false);
        }
        // RSTM heuristic: announce progress so concurrent readers revalidate.
        txn.protocol.commit_counter.fetch_add(1, Ordering::AcqRel);
        txn.lock_writes(|txn| revalidate(txn, true))?;
        txn.publish(|old| version(old) + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_engine::{EngineHandle, TxnEngine, TxnOps};
    use std::sync::Arc;

    #[test]
    fn roundtrip_both_modes() {
        for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
            let stm = ValidationStm::new(mode);
            let x = stm.new_var(1i32);
            let mut h = stm.register();
            let v = h.atomically(|tx| {
                let v = *tx.read(&x)?;
                tx.write(&x, v + 1)?;
                tx.read(&x).map(|v| *v)
            });
            assert_eq!(v, 2);
            assert_eq!(*x.snapshot_latest(), 2);
        }
    }

    #[test]
    fn always_mode_validates_on_each_access() {
        let stm = ValidationStm::new(ValidationMode::Always);
        let vars: Vec<_> = (0..10).map(|i| stm.new_var(i as u8)).collect();
        let mut h = stm.register();
        h.atomically(|tx| {
            for v in &vars {
                tx.read(v)?;
            }
            Ok(())
        });
        // n reads, each triggering a validation of the current read set:
        // 1 + 2 + ... + n entries validated, plus the commit validation.
        let n = 10u64;
        assert_eq!(h.engine_stats().validations, n + 1);
        assert_eq!(h.engine_stats().validated_entries, n * (n + 1) / 2 + n);
    }

    #[test]
    fn commit_counter_mode_skips_validation_when_quiescent() {
        let stm = ValidationStm::new(ValidationMode::CommitCounter);
        let vars: Vec<_> = (0..10).map(|_| stm.new_var(0)).collect();
        let mut h = stm.register();
        h.atomically(|tx| {
            for v in &vars {
                tx.read(v)?;
            }
            Ok(())
        });
        // No concurrent committers: only the final commit validation runs.
        assert_eq!(h.engine_stats().validations, 1);
    }

    #[test]
    fn commit_counter_mode_revalidates_on_progress() {
        let stm = ValidationStm::new(ValidationMode::CommitCounter);
        let a = stm.new_var(0u64);
        let b = stm.new_var(0u64);
        let unrelated = stm.new_var(0u64);
        let mut h = stm.register();
        let mut w = stm.register();
        let mut first = true;
        h.atomically(|tx| {
            tx.read(&a)?;
            if first {
                first = false;
                // A disjoint commit elsewhere moves the global counter...
                w.atomically(|tx2| tx2.modify(&unrelated, |v| v + 1));
            }
            // ...forcing this (unaffected!) transaction to revalidate.
            tx.read(&b)
        });
        assert!(
            h.engine_stats().validations >= 2,
            "disjoint progress must trigger revalidation (the paper's point)"
        );
    }

    #[test]
    fn doomed_transaction_aborts_mid_flight() {
        let stm = ValidationStm::new(ValidationMode::Always);
        let a = stm.new_var(0u64);
        let b = stm.new_var(0u64);
        let mut h = stm.register();
        let mut w = stm.register();
        let mut sabotaged = false;
        let (va, vb) = h.atomically(|tx| {
            let va = *tx.read(&a)?;
            if !sabotaged {
                sabotaged = true;
                w.atomically(|tx2| tx2.modify(&a, |v| v + 1));
            }
            // In Always mode this read detects the invalidation immediately.
            let vb = *tx.read(&b)?;
            Ok((va, vb))
        });
        assert_eq!((va, vb), (1, 0), "retry observed the new value of a");
        assert!(h.engine_stats().aborts >= 1);
    }

    #[test]
    fn concurrent_audits_never_see_mixed_snapshots() {
        // Regression test: the read path must not sample an object while a
        // committer holds its write lock — the data store and the version
        // bump are separate writes, and a read in between pairs a new value
        // with an old version number, certifying a torn snapshot. Writers
        // keep transferring between two accounts; auditors must always see
        // the invariant total.
        for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
            let stm = ValidationStm::new(mode);
            let a = stm.new_var(500i64);
            let b = stm.new_var(500i64);
            std::thread::scope(|s| {
                for seed in 0..2u64 {
                    let stm = stm.clone();
                    let (a, b) = (a.clone(), b.clone());
                    s.spawn(move || {
                        let mut h = stm.register();
                        for i in 0..4_000i64 {
                            let amt = (i * (seed as i64 + 1)) % 7 - 3;
                            h.atomically(|tx| {
                                let va = *tx.read(&a)?;
                                let vb = *tx.read(&b)?;
                                tx.write(&a, va - amt)?;
                                tx.write(&b, vb + amt)?;
                                Ok(())
                            });
                        }
                    });
                }
                for _ in 0..2 {
                    let stm = stm.clone();
                    let (a, b) = (a.clone(), b.clone());
                    s.spawn(move || {
                        let mut h = stm.register();
                        for _ in 0..4_000 {
                            let total = h.atomically(|tx| Ok(*tx.read(&a)? + *tx.read(&b)?));
                            assert_eq!(total, 1_000, "audit saw a torn snapshot");
                        }
                    });
                }
            });
            assert_eq!(*a.snapshot_latest() + *b.snapshot_latest(), 1_000);
        }
    }

    #[test]
    fn concurrent_invariant_preserved() {
        for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
            let stm = Arc::new(ValidationStm::new(mode));
            let accounts: Vec<_> = (0..8).map(|_| stm.new_var(100)).collect();
            std::thread::scope(|s| {
                for t in 0..4 {
                    let stm = Arc::clone(&stm);
                    let accounts = accounts.clone();
                    s.spawn(move || {
                        let mut h = stm.register();
                        let mut x = t as u64 + 7;
                        for _ in 0..1_000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let a = accounts[(x as usize) % 8].clone();
                            let b = accounts[((x >> 20) as usize) % 8].clone();
                            if a.id() == b.id() {
                                continue;
                            }
                            h.atomically(|tx| {
                                let va = *tx.read(&a)?;
                                let vb = *tx.read(&b)?;
                                tx.write(&a, va - 1)?;
                                tx.write(&b, vb + 1)?;
                                Ok(())
                            });
                        }
                    });
                }
            });
            let total: i64 = accounts.iter().map(|a| *a.snapshot_latest()).sum();
            assert_eq!(total, 800, "mode={mode:?}");
        }
    }

    #[test]
    fn a_read_locked_by_another_committer_fails_commit_validation() {
        // Write skew's window: another committer has locked `x` and
        // validated, but not yet stamped it. A commit that read `x` must not
        // validate through that lock.
        for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
            let stm = ValidationStm::new(mode);
            let (x, y) = (stm.new_var(0u64), stm.new_var(0u64));
            let mut h = stm.register();
            let (mut attempt, mut held) = (0, None);
            h.atomically(|tx| {
                attempt += 1;
                if let Some(word) = held.take() {
                    x.cell.meta.release(word);
                }
                let vx = *tx.read(&x)?;
                if attempt == 1 {
                    held = x.cell.meta.lock();
                }
                tx.write(&y, vx + 1)
            });
            let s = h.engine_stats();
            assert_eq!(
                (s.aborts, s.abort_reasons.validation, s.commits),
                (1, 1, 1),
                "{mode:?}: the locked read must fail validation, the retry commit"
            );
            assert_eq!(*y.snapshot_latest(), 1);
        }
    }
}
