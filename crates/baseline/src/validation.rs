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
//! [`ValidationMode::CommitCounter`]) over single-version objects with
//! per-object write locks and buffered writes. The `validation_cost`
//! experiment (EXP-VAL in DESIGN.md) sweeps read-set sizes across this
//! engine and LSA-RT.

use crate::scratch::Scratch;
use crossbeam_utils::CachePadded;
use lsa_engine::{AbortClass, Stat, StatsShard};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Abort error of the validation engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValAbort {
    /// Read-set validation observed a concurrently updated object.
    Invalidated,
    /// Commit could not lock its write set.
    LockBusy,
}

/// Result alias for validation-STM operations.
pub type ValResult<T> = Result<T, ValAbort>;

/// When to revalidate the read set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationMode {
    /// Validate the whole read set on every access — the `O(n)`-per-access
    /// baseline of the paper's introduction.
    Always,
    /// RSTM heuristic: validate only when the global commit counter moved.
    CommitCounter,
}

struct VarInner<T> {
    /// Monotonic per-object version (bumped on every committed write).
    version: AtomicU64,
    data: RwLock<Arc<T>>,
    /// Write mutex is folded into `data`'s write lock; a separate flag marks
    /// a committer holding it for lock-busy detection.
    locked: AtomicU64,
}

/// A transactional variable of the validation engine.
pub struct ValVar<T> {
    id: u64,
    inner: Arc<VarInner<T>>,
}

impl<T> Clone for ValVar<T> {
    fn clone(&self) -> Self {
        ValVar {
            id: self.id,
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + Sync + 'static> ValVar<T> {
    /// Latest committed value (non-transactional).
    pub fn snapshot_latest(&self) -> Arc<T> {
        Arc::clone(&self.inner.data.read())
    }

    /// Stable id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

struct ValInner {
    mode: ValidationMode,
    /// RSTM's global commit counter: incremented by every attempted update
    /// commit. Deliberately a single shared cache line — the point the paper
    /// makes about this design.
    commit_counter: Arc<CachePadded<AtomicU64>>,
    /// Shared id source so runtime clones never hand out colliding var ids.
    next_var: AtomicU64,
}

/// The validation-based STM runtime. Cheap to clone; clones share the commit
/// counter and the variable-id sequence.
#[derive(Clone)]
pub struct ValidationStm {
    inner: Arc<ValInner>,
}

impl ValidationStm {
    /// Runtime in the given validation mode.
    pub fn new(mode: ValidationMode) -> Self {
        ValidationStm {
            inner: Arc::new(ValInner {
                mode,
                commit_counter: Arc::new(CachePadded::new(AtomicU64::new(0))),
                next_var: AtomicU64::new(1),
            }),
        }
    }

    /// The validation mode.
    pub fn mode(&self) -> ValidationMode {
        self.inner.mode
    }

    /// Current value of the global commit counter.
    pub fn commit_counter(&self) -> u64 {
        self.inner.commit_counter.load(Ordering::Acquire)
    }

    /// Create a transactional variable.
    pub fn new_var<T: Send + Sync + 'static>(&self, value: T) -> ValVar<T> {
        ValVar {
            id: self.inner.next_var.fetch_add(1, Ordering::Relaxed),
            inner: Arc::new(VarInner {
                version: AtomicU64::new(0),
                data: RwLock::new(Arc::new(value)),
                locked: AtomicU64::new(0),
            }),
        }
    }

    /// Register the calling thread.
    pub fn register(&self) -> ValThread {
        ValThread {
            mode: self.inner.mode,
            commit_counter: Arc::clone(&self.inner.commit_counter),
            stats: Arc::default(),
            scratch: Scratch::default(),
        }
    }
}

trait ReadCheck: Send {
    fn still_valid(&self) -> bool;
}

struct TypedCheck<T> {
    inner: Arc<VarInner<T>>,
    seen_version: u64,
}

impl<T: Send + Sync + 'static> ReadCheck for TypedCheck<T> {
    fn still_valid(&self) -> bool {
        self.inner.version.load(Ordering::Acquire) == self.seen_version
    }
}

trait WriteApply: Send {
    fn try_lock(&self) -> bool;
    fn unlock(&self);
    fn apply_and_bump(&self);
    fn var_id(&self) -> u64;
}

struct TypedApply<T> {
    inner: Arc<VarInner<T>>,
    id: u64,
    pending: Arc<T>,
}

impl<T: Send + Sync + 'static> WriteApply for TypedApply<T> {
    fn try_lock(&self) -> bool {
        self.inner
            .locked
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn unlock(&self) {
        self.inner.locked.store(0, Ordering::Release);
    }

    fn apply_and_bump(&self) {
        *self.inner.data.write() = Arc::clone(&self.pending);
        self.inner.version.fetch_add(1, Ordering::AcqRel);
    }

    fn var_id(&self) -> u64 {
        self.id
    }
}

/// An executing transaction of the validation engine.
pub struct ValTxn<'h> {
    mode: ValidationMode,
    commit_counter: &'h CachePadded<AtomicU64>,
    stats: &'h StatsShard,
    /// Commit-counter value at the last successful validation.
    seen_cc: u64,
    /// The thread's read / write sets, emptied when the attempt ends.
    scratch: &'h mut ValScratch,
}

type ValScratch = Scratch<Box<dyn ReadCheck>, Box<dyn WriteApply>>;

impl Drop for ValTxn<'_> {
    fn drop(&mut self) {
        // On every way out of an attempt, a panicking body's unwind too.
        self.scratch.recycle();
    }
}

impl ValTxn<'_> {
    fn validate_read_set(&mut self) -> bool {
        self.stats.inc(Stat::Validations);
        self.stats
            .add(Stat::ValidatedEntries, self.scratch.reads.len() as u64);
        let ok = self.scratch.reads.iter().all(|r| r.still_valid());
        if !ok {
            self.stats.inc(Stat::RevalidationFailures);
        }
        ok
    }

    /// Validate if the mode calls for it (on every access, or when the commit
    /// counter indicates progress).
    fn maybe_validate(&mut self) -> ValResult<()> {
        match self.mode {
            ValidationMode::Always => {
                if !self.validate_read_set() {
                    return Err(ValAbort::Invalidated);
                }
            }
            ValidationMode::CommitCounter => {
                // The heuristic read: this load is the per-access shared
                // cache-line touch the paper calls out.
                let cc = self.commit_counter.load(Ordering::Acquire);
                if cc != self.seen_cc {
                    if !self.validate_read_set() {
                        return Err(ValAbort::Invalidated);
                    }
                    self.seen_cc = cc;
                }
            }
        }
        Ok(())
    }

    /// Transactional read: read the current committed value, then make the
    /// whole read set consistent again (validation-on-access).
    pub fn read<T: Send + Sync + 'static>(&mut self, var: &ValVar<T>) -> ValResult<Arc<T>> {
        self.stats.inc(Stat::Reads);
        if let Some(known) = self.scratch.known(var.id) {
            return Ok(known);
        }
        let mut spins = 0u32;
        let (value, seen_version) = loop {
            // A committer holds `locked` for the whole apply (data write +
            // version bump). Readers must never sample while it is held:
            // the data store and the version bump are separate writes, so a
            // read in that window could pair a NEW value with the OLD
            // version number — and later validations, which compare version
            // numbers only, would wrongly certify the mixed snapshot.
            // Bounded spinning: on oversubscribed hosts the committer may be
            // descheduled while holding `locked`, so yield past 64 tries.
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
                spins = 0;
            }
            if var.inner.locked.load(Ordering::Acquire) != 0 {
                std::hint::spin_loop();
                continue;
            }
            let v1 = var.inner.version.load(Ordering::Acquire);
            let value = Arc::clone(&var.inner.data.read());
            if var.inner.locked.load(Ordering::Acquire) != 0 {
                continue; // a committer started mid-read — resample
            }
            let v2 = var.inner.version.load(Ordering::Acquire);
            if v1 == v2 {
                break (value, v1);
            }
        };
        self.scratch.reads.push(Box::new(TypedCheck {
            inner: Arc::clone(&var.inner),
            seen_version,
        }));
        self.maybe_validate()?;
        self.scratch.note_read(var.id, &value);
        Ok(value)
    }

    /// Transactional buffered write.
    pub fn write<T: Send + Sync + 'static>(&mut self, var: &ValVar<T>, value: T) -> ValResult<()> {
        self.stats.inc(Stat::Writes);
        let pending = Arc::new(value);
        let entry = Box::new(TypedApply {
            inner: Arc::clone(&var.inner),
            id: var.id,
            pending: Arc::clone(&pending),
        });
        self.scratch.buffer_write(var.id, &pending, entry);
        Ok(())
    }

    /// Read-modify-write convenience.
    pub fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &ValVar<T>,
        f: impl FnOnce(&T) -> T,
    ) -> ValResult<()> {
        let cur = self.read(var)?;
        self.write(var, f(&cur))
    }

    fn commit(&mut self) -> ValResult<()> {
        if self.scratch.writes.is_empty() {
            // Read-only: the read set was kept valid throughout; one final
            // validation closes the linearization window.
            if !self.validate_read_set() {
                self.stats.abort(AbortClass::Validation);
                return Err(ValAbort::Invalidated);
            }
            self.stats.inc(Stat::RoCommits);
            return Ok(());
        }
        // RSTM heuristic: announce progress so concurrent readers revalidate.
        self.commit_counter.fetch_add(1, Ordering::AcqRel);
        self.scratch.writes.sort_by_key(|w| w.var_id());
        let mut locked = 0usize;
        for (i, w) in self.scratch.writes.iter().enumerate() {
            let mut ok = false;
            for _ in 0..64 {
                if w.try_lock() {
                    ok = true;
                    break;
                }
                std::hint::spin_loop();
            }
            if !ok {
                for w in &self.scratch.writes[..i] {
                    w.unlock();
                }
                self.stats.abort(AbortClass::Contention);
                return Err(ValAbort::LockBusy);
            }
            locked = i + 1;
        }
        // Final validation under locks.
        if !self.validate_read_set() {
            for w in &self.scratch.writes[..locked] {
                w.unlock();
            }
            self.stats.abort(AbortClass::Validation);
            return Err(ValAbort::Invalidated);
        }
        for w in &self.scratch.writes {
            w.apply_and_bump();
        }
        for w in &self.scratch.writes {
            w.unlock();
        }
        self.stats.inc(Stat::Commits);
        Ok(())
    }
}

/// A registered thread of the validation engine.
pub struct ValThread {
    mode: ValidationMode,
    commit_counter: Arc<CachePadded<AtomicU64>>,
    /// The shard this thread counts into (`EngineHandle::stats_shard`).
    pub(crate) stats: Arc<StatsShard>,
    scratch: ValScratch,
}

impl ValThread {
    /// Run `body` with retry-on-abort until it commits.
    pub fn atomically<R>(&mut self, mut body: impl FnMut(&mut ValTxn<'_>) -> ValResult<R>) -> R {
        let mut backoff = 0u32;
        loop {
            let seen_cc = self.commit_counter.load(Ordering::Acquire);
            let mut txn = ValTxn {
                mode: self.mode,
                commit_counter: &self.commit_counter,
                stats: &self.stats,
                seen_cc,
                scratch: &mut self.scratch,
            };
            match body(&mut txn) {
                Ok(value) => {
                    if txn.commit().is_ok() {
                        return value;
                    }
                }
                Err(e) => txn.stats.abort(match e {
                    ValAbort::Invalidated => AbortClass::Validation,
                    ValAbort::LockBusy => AbortClass::Contention,
                }),
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
        let vars: Vec<ValVar<u8>> = (0..10).map(|i| stm.new_var(i as u8)).collect();
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
        let vars: Vec<ValVar<u8>> = (0..10).map(|_| stm.new_var(0)).collect();
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
            let accounts: Vec<ValVar<i64>> = (0..8).map(|_| stm.new_var(100)).collect();
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
}
