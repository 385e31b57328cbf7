//! A NOrec-style STM (Dalessandro, Spear, Scott — PPoPP'10): the
//! value-validation point of the paper's §1.2 design space.
//!
//! Where LSA-RT and TL2 derive consistency from *timestamps* (per-object
//! version metadata ordered by a time base) and the RSTM-style engine from
//! *per-object versions*, NOrec keeps **no per-location metadata at all**.
//! Its entire shared state is one global sequence lock:
//!
//! * **begin**: wait until the sequence lock is even and take it as the
//!   snapshot.
//! * **read**: read the location; if the global clock moved since the
//!   snapshot, revalidate the whole read set *by value* and adopt the new
//!   clock — so every read returns a value consistent with all earlier ones.
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

use crate::scratch::Scratch;
use crossbeam_utils::CachePadded;
use lsa_engine::{AbortClass, Stat, StatsShard};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Abort error of the NOrec engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NorecAbort {
    /// Value-based revalidation observed a concurrently overwritten read.
    Invalidated,
}

/// Result alias for NOrec operations.
pub type NorecResult<T> = Result<T, NorecAbort>;

/// A transactional variable of the NOrec engine: payload only, **no**
/// per-object version or lock metadata — the defining property of NOrec.
struct VarInner<T> {
    data: RwLock<Arc<T>>,
}

/// A NOrec transactional variable.
pub struct NorecVar<T> {
    id: u64,
    inner: Arc<VarInner<T>>,
}

impl<T> Clone for NorecVar<T> {
    fn clone(&self) -> Self {
        NorecVar {
            id: self.id,
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + Sync + 'static> NorecVar<T> {
    /// Latest committed value (non-transactional; seeding/audits).
    pub fn snapshot_latest(&self) -> Arc<T> {
        Arc::clone(&self.inner.data.read())
    }

    /// Stable id of this variable.
    pub fn id(&self) -> u64 {
        self.id
    }
}

struct NorecInner {
    /// The single global sequence lock: even = quiescent, odd = a committer
    /// is writing back. Deliberately the ONLY shared metadata word.
    seqlock: CachePadded<AtomicU64>,
    /// Shared id source so runtime clones never hand out colliding var ids.
    next_var: AtomicU64,
}

/// The NOrec runtime. Cheap to clone; clones share the sequence lock and the
/// variable-id sequence.
#[derive(Clone)]
pub struct NorecStm {
    inner: Arc<NorecInner>,
}

impl Default for NorecStm {
    fn default() -> Self {
        Self::new()
    }
}

impl NorecStm {
    /// Create a runtime.
    pub fn new() -> Self {
        NorecStm {
            inner: Arc::new(NorecInner {
                seqlock: CachePadded::new(AtomicU64::new(0)),
                next_var: AtomicU64::new(1),
            }),
        }
    }

    /// Current value of the global sequence lock (tests/experiments).
    pub fn sequence(&self) -> u64 {
        self.inner.seqlock.load(Ordering::Acquire)
    }

    /// Create a transactional variable.
    pub fn new_var<T: Send + Sync + 'static>(&self, value: T) -> NorecVar<T> {
        NorecVar {
            id: self.inner.next_var.fetch_add(1, Ordering::Relaxed),
            inner: Arc::new(VarInner {
                data: RwLock::new(Arc::new(value)),
            }),
        }
    }

    /// Register the calling thread.
    pub fn register(&self) -> NorecThread {
        NorecThread {
            inner: Arc::clone(&self.inner),
            stats: Arc::default(),
            scratch: Scratch::default(),
        }
    }
}

/// Type-erased read-set entry: re-reads the location and compares it against
/// the value observed at read time (NOrec's value-based validation).
trait ReadCheck: Send {
    fn still_same(&self) -> bool;
}

struct TypedCheck<T> {
    inner: Arc<VarInner<T>>,
    seen: Arc<T>,
}

impl<T: Send + Sync + 'static> ReadCheck for TypedCheck<T> {
    fn still_same(&self) -> bool {
        Arc::ptr_eq(&self.inner.data.read(), &self.seen)
    }
}

/// Type-erased redo-log entry.
trait RedoEntry: Send {
    fn write_back(&self);
}

struct TypedRedo<T> {
    inner: Arc<VarInner<T>>,
    pending: Arc<T>,
}

impl<T: Send + Sync + 'static> RedoEntry for TypedRedo<T> {
    fn write_back(&self) {
        *self.inner.data.write() = Arc::clone(&self.pending);
    }
}

/// An executing NOrec transaction.
pub struct NorecTxn<'h> {
    seqlock: &'h CachePadded<AtomicU64>,
    stats: &'h StatsShard,
    /// Even sequence-lock value this transaction is currently consistent
    /// with.
    snapshot: u64,
    /// The thread's read set and redo log (`writes`), emptied when the
    /// attempt ends.
    scratch: &'h mut NorecScratch,
}

type NorecScratch = Scratch<Box<dyn ReadCheck>, Box<dyn RedoEntry>>;

impl Drop for NorecTxn<'_> {
    fn drop(&mut self) {
        // On every way out of an attempt, a panicking body's unwind too.
        self.scratch.recycle();
    }
}

/// Spin until the sequence lock is even (no write-back in progress) and
/// return its value.
fn wait_even(seqlock: &AtomicU64) -> u64 {
    let mut spins = 0u32;
    loop {
        let t = seqlock.load(Ordering::Acquire);
        if t & 1 == 0 {
            return t;
        }
        spins += 1;
        if spins > 64 {
            std::thread::yield_now();
            spins = 0;
        } else {
            std::hint::spin_loop();
        }
    }
}

impl NorecTxn<'_> {
    /// The sequence-lock value this transaction is consistent with.
    pub fn snapshot(&self) -> u64 {
        self.snapshot
    }

    /// NOrec's `Validate()`: wait for a quiescent clock, compare every read
    /// against current memory by value, and return the (even) clock value
    /// the read set is now known consistent with.
    fn validate(&mut self) -> NorecResult<u64> {
        loop {
            let t = wait_even(self.seqlock);
            self.stats.inc(Stat::Validations);
            self.stats
                .add(Stat::ValidatedEntries, self.scratch.reads.len() as u64);
            if !self.scratch.reads.iter().all(|r| r.still_same()) {
                self.stats.inc(Stat::RevalidationFailures);
                return Err(NorecAbort::Invalidated);
            }
            // A committer may have slipped in mid-validation; only a stable
            // clock certifies the comparison.
            if self.seqlock.load(Ordering::Acquire) == t {
                return Ok(t);
            }
        }
    }

    /// Transactional read: value from the redo log if written, else from
    /// memory, revalidating the read set whenever the global clock moved.
    pub fn read<T: Send + Sync + 'static>(&mut self, var: &NorecVar<T>) -> NorecResult<Arc<T>> {
        self.stats.inc(Stat::Reads);
        if let Some(known) = self.scratch.known(var.id) {
            return Ok(known);
        }
        let value = loop {
            let value = Arc::clone(&var.inner.data.read());
            if self.seqlock.load(Ordering::Acquire) == self.snapshot {
                break value; // no commit since the snapshot — consistent
            }
            // The clock moved: revalidate everything read so far by value,
            // adopt the new clock, and re-read this location.
            self.snapshot = self.validate()?;
        };
        self.scratch.reads.push(Box::new(TypedCheck {
            inner: Arc::clone(&var.inner),
            seen: Arc::clone(&value),
        }));
        self.scratch.note_read(var.id, &value);
        Ok(value)
    }

    /// Transactional buffered write (redo log).
    pub fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &NorecVar<T>,
        value: T,
    ) -> NorecResult<()> {
        self.stats.inc(Stat::Writes);
        let pending = Arc::new(value);
        let entry = Box::new(TypedRedo {
            inner: Arc::clone(&var.inner),
            pending: Arc::clone(&pending),
        });
        self.scratch.buffer_write(var.id, &pending, entry);
        Ok(())
    }

    /// Read-modify-write convenience.
    pub fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &NorecVar<T>,
        f: impl FnOnce(&T) -> T,
    ) -> NorecResult<()> {
        let cur = self.read(var)?;
        self.write(var, f(&cur))
    }

    fn commit(&mut self) -> NorecResult<()> {
        if self.scratch.writes.is_empty() {
            // Read-only: every read was validated against the snapshot at
            // read time, so the read set is a consistent snapshot already —
            // commit without touching shared state (NOrec's headline
            // read-only path).
            self.stats.inc(Stat::RoCommits);
            return Ok(());
        }
        // Acquire the global sequence lock at our snapshot. Every CAS
        // failure means some writer committed since we were last consistent:
        // revalidate by value and adopt the new clock, then try again.
        while self
            .seqlock
            .compare_exchange(
                self.snapshot,
                self.snapshot + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            match self.validate() {
                Ok(t) => self.snapshot = t,
                Err(e) => {
                    self.stats.abort(AbortClass::Validation);
                    return Err(e);
                }
            }
        }
        // Sequence lock held (odd): write back the redo log, then release,
        // publishing a new even clock.
        for w in &self.scratch.writes {
            w.write_back();
        }
        self.seqlock.store(self.snapshot + 2, Ordering::Release);
        self.stats.inc(Stat::Commits);
        Ok(())
    }
}

/// A registered thread of the NOrec engine.
pub struct NorecThread {
    inner: Arc<NorecInner>,
    /// The shard this thread counts into (`EngineHandle::stats_shard`).
    pub(crate) stats: Arc<StatsShard>,
    scratch: NorecScratch,
}

impl NorecThread {
    /// Run `body` with retry-on-abort until it commits.
    pub fn atomically<R>(
        &mut self,
        mut body: impl FnMut(&mut NorecTxn<'_>) -> NorecResult<R>,
    ) -> R {
        let mut backoff = 0u32;
        loop {
            let snapshot = wait_even(&self.inner.seqlock);
            let mut txn = NorecTxn {
                seqlock: &self.inner.seqlock,
                stats: &self.stats,
                snapshot,
                scratch: &mut self.scratch,
            };
            match body(&mut txn) {
                Ok(value) => {
                    if txn.commit().is_ok() {
                        return value;
                    }
                }
                Err(NorecAbort::Invalidated) => txn.stats.abort(AbortClass::Validation),
            }
            drop(txn);
            for _ in 0..(1u64 << backoff.min(10)) {
                std::hint::spin_loop();
            }
            backoff += 1;
            if backoff > 10 {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_engine::EngineHandle;

    #[test]
    fn single_thread_roundtrip() {
        let stm = NorecStm::new();
        let x = stm.new_var(5i64);
        let mut h = stm.register();
        let v = h.atomically(|tx| {
            let v = *tx.read(&x)?;
            tx.write(&x, v + 1)?;
            tx.read(&x).map(|v| *v)
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
            let v = h.atomically(|tx| tx.read(&x).map(|v| *v));
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
            tx.read(&mine2)
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
