//! A NOrec-style STM (Dalessandro, Spear, Scott — PPoPP'10): the
//! value-validation point of the paper's §1.2 design space.
//!
//! Where LSA-RT and TL2 derive consistency from *timestamps* (per-object
//! version metadata ordered by a time base) and the RSTM-style engine from
//! *per-object versions*, NOrec keeps **no per-location metadata at all**
//! (its per-object metadata in the runtime is `()`). Its entire shared state
//! is one global sequence lock:
//!
//! * **begin**: wait until the sequence lock is even and take it as the
//!   snapshot.
//! * **read**: read the location; if the global clock moved since the
//!   snapshot, revalidate the whole read set — this read included — *by
//!   value* and adopt the new clock, so every read returns a value
//!   consistent with all earlier ones.
//! * **write**: append to a redo log (buffered, invisible to others).
//! * **commit** (writers): acquire the sequence lock with
//!   `CAS(snapshot, snapshot + 1)`, revalidating (and re-snapshotting) on
//!   every failure; write back the redo log; release with `snapshot + 2`.
//!   Read-only transactions commit without touching shared state.
//!
//! The trade-off this engine adds to the matrix: zero per-object metadata
//! and invisible reads, bought with a global commit serialization point and
//! `O(read set)` revalidation whenever *any* writer commits — exactly the
//! validation cost the paper's time-based engines avoid, now measurable via
//! [`EngineStats::validations`](lsa_engine::EngineStats) in the harness.
//!
//! Values are compared by `Arc` identity: every committed write installs a
//! fresh `Arc`, so pointer equality means "this location still holds the
//! snapshot I read". This is NOrec's value comparison in an object-granular
//! STM — conservative only in that a bytewise-equal re-allocation would
//! abort where byte comparison would not (a benign extra abort, never an
//! unsound commit).

use crate::engine::{spin_until, Abort, BaselineStm, Protocol, Txn};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// NOrec's protocol.
pub struct Norec {
    /// The single global sequence lock: even = quiescent, odd = a committer
    /// is writing back. Deliberately the ONLY shared metadata word.
    seqlock: CachePadded<AtomicU64>,
}

/// The NOrec runtime. Cheap to clone; clones share the sequence lock and the
/// variable-id sequence.
pub type NorecStm = BaselineStm<Norec>;

impl Default for NorecStm {
    fn default() -> Self {
        Self::new()
    }
}

impl NorecStm {
    /// Create a runtime.
    pub fn new() -> Self {
        BaselineStm::with_protocol(Norec {
            seqlock: CachePadded::new(AtomicU64::new(0)),
        })
    }

    /// Current value of the global sequence lock (tests/experiments).
    pub fn sequence(&self) -> u64 {
        self.protocol().seqlock.load(Ordering::Acquire)
    }
}

impl Norec {
    /// Wait until the sequence lock is even (no write-back in progress) and
    /// return its value.
    fn wait_even(&self) -> u64 {
        spin_until(|| {
            let t = self.seqlock.load(Ordering::Acquire);
            (t & 1 == 0).then_some(t)
        })
    }
}

/// NOrec's `Validate()`: wait for a quiescent clock, compare every read
/// against current memory by value, and return the (even) clock value the
/// read set is now known consistent with.
fn revalidate(txn: &Txn<'_, Norec>) -> Result<u64, Abort> {
    loop {
        let t = txn.protocol.wait_even();
        txn.validate(|r| r.object.holds(&r.value))?;
        // A committer may have slipped in mid-validation; only a stable
        // clock certifies the comparison.
        if txn.protocol.seqlock.load(Ordering::Acquire) == t {
            return Ok(t);
        }
    }
}

impl Protocol for Norec {
    type Meta = ();
    type Local = ();

    fn name(&self) -> String {
        "norec(seqlock)".into()
    }

    fn register(&self) {}

    fn begin(&self, _: &mut (), _retry: bool) -> u64 {
        self.wait_even()
    }

    fn check_read(txn: &mut Txn<'_, Self>, _word: u64) -> Result<(), Abort> {
        if txn.protocol.seqlock.load(Ordering::Acquire) != txn.snapshot {
            // A commit since the snapshot: revalidate everything read so far,
            // this read included, and adopt the new clock.
            txn.snapshot = revalidate(txn)?;
        }
        Ok(())
    }

    fn commit(txn: &mut Txn<'_, Self>) -> Result<(), Abort> {
        if txn.scratch.writes.is_empty() {
            // Read-only: every read was validated against the snapshot at
            // read time, so the read set is a consistent snapshot already —
            // commit without touching shared state (NOrec's headline
            // read-only path).
            return Ok(());
        }
        // Acquire the global sequence lock at our snapshot. Every CAS
        // failure means some writer committed since we were last consistent:
        // revalidate by value and adopt the new clock, then try again.
        let seqlock = &txn.protocol.seqlock;
        while seqlock
            .compare_exchange(
                txn.snapshot,
                txn.snapshot + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            txn.snapshot = revalidate(txn)?;
        }
        // Sequence lock held (odd): write back the redo log, then release,
        // publishing a new even clock.
        for w in &txn.scratch.writes {
            w.object.install(&w.value);
        }
        seqlock.store(txn.snapshot + 2, Ordering::Release);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_engine::{EngineHandle, TxnEngine, TxnOps};

    #[test]
    fn single_thread_roundtrip() {
        let stm = NorecStm::new();
        let x = stm.new_var(5i64);
        let mut h = stm.register();
        let v = h.atomically(|tx| {
            let v = *tx.read(&x)?;
            tx.write(&x, v + 1)?;
            tx.read(&x).copied()
        });
        assert_eq!(v, 6, "read-own-write");
        assert_eq!(*x.snapshot_latest(), 6);
        assert_eq!(stm.sequence(), 2, "one writer commit bumps the clock by 2");
    }

    #[test]
    fn read_only_commits_touch_no_shared_state() {
        let stm = NorecStm::new();
        let x = stm.new_var(1u8);
        let mut h = stm.register();
        for _ in 0..10 {
            let v = h.atomically(|tx| tx.read(&x).copied());
            assert_eq!(v, 1);
        }
        assert_eq!(h.engine_stats().ro_commits, 10);
        assert_eq!(
            stm.sequence(),
            0,
            "read-only commits must not move the clock"
        );
    }

    #[test]
    fn doomed_reader_revalidates_and_retries() {
        let stm = NorecStm::new();
        let a = stm.new_var(0u64);
        let b = stm.new_var(0u64);
        let mut h = stm.register();
        let mut w = stm.register();
        let mut sabotaged = false;
        let (va, vb) = h.atomically(|tx| {
            let va = *tx.read(&a)?;
            if !sabotaged {
                sabotaged = true;
                // A concurrent writer updates BOTH variables: the clock
                // moves, the next read revalidates by value, sees `a`
                // overwritten, and the attempt aborts.
                w.atomically(|tx2| {
                    tx2.modify(&a, |v| v + 1)?;
                    tx2.modify(&b, |v| v + 1)
                });
            }
            let vb = *tx.read(&b)?;
            Ok((va, vb))
        });
        assert_eq!((va, vb), (1, 1), "retry observed the writer's state");
        assert!(
            h.engine_stats().revalidation_failures >= 1,
            "value check must fire"
        );
        assert!(h.engine_stats().aborts >= 1);
    }

    #[test]
    fn disjoint_writer_forces_validation_but_not_abort() {
        let stm = NorecStm::new();
        let mine = stm.new_var(0u64);
        let mine2 = stm.new_var(0u64);
        let other = stm.new_var(0u64);
        let mut h = stm.register();
        let mut w = stm.register();
        let mut first = true;
        h.atomically(|tx| {
            tx.read(&mine)?;
            if first {
                first = false;
                // A DISJOINT commit moves the single global clock...
                w.atomically(|tx2| tx2.modify(&other, |v| v + 1));
            }
            // ...forcing this unaffected transaction to revalidate on its
            // next fresh read (the cost NOrec pays for having no
            // per-location metadata), but the value comparison passes and
            // the transaction commits first try.
            tx.read(&mine2).copied()
        });
        assert!(h.engine_stats().validations >= 1);
        assert_eq!(h.engine_stats().revalidation_failures, 0);
        assert_eq!(h.engine_stats().aborts, 0);
    }

    /// Satellite regression test: the torn-snapshot window. A committer
    /// holds the sequence lock (odd) for the whole redo-log write-back; a
    /// reader sampling values in that window must never pair one account's
    /// NEW value with the other's OLD value. Mirrors the validation-engine
    /// race test from the PR-1 suite.
    #[test]
    fn concurrent_audits_never_see_mixed_snapshots() {
        let stm = NorecStm::new();
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

    #[test]
    fn write_write_increments_all_land() {
        let stm = NorecStm::new();
        let x = stm.new_var(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = stm.clone();
                let x = x.clone();
                s.spawn(move || {
                    let mut h = stm.register();
                    for _ in 0..1_000 {
                        h.atomically(|tx| tx.modify(&x, |v| v + 1));
                    }
                });
            }
        });
        assert_eq!(*x.snapshot_latest(), 4_000);
        assert_eq!(stm.sequence(), 8_000, "4000 writer commits, +2 each");
    }

    #[test]
    fn cloned_runtimes_share_clock_and_id_sequence() {
        let a = NorecStm::new();
        let b = a.clone();
        assert_ne!(a.new_var(0u8).id(), b.new_var(0u8).id());
        let v = a.new_var(0u64);
        let mut h = b.register();
        h.atomically(|tx| tx.modify(&v, |x| x + 1));
        assert_eq!(a.sequence(), b.sequence());
        assert_eq!(*v.snapshot_latest(), 1);
    }
}
