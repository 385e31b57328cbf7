//! A TL2-style single-version STM (Dice, Shalev, Shavit — DISC'06), §1.2 of
//! the paper.
//!
//! TL2 is the leanest of the time-based STMs the paper discusses: one version
//! per object, no validity-range extensions — "an object can only be read if
//! the most recent update to the object is before the start time of the
//! current transaction". A shared integer counter is the usual time base;
//! the TL2 paper itself already "suggested to use hardware clocks instead of
//! the shared counter to avoid its overhead", which is exactly the direction
//! the LSA-RT paper develops. This implementation is therefore *generic over
//! the time base* too (any [`TimeBase`] with `u64` timestamps), so the
//! benchmarks can run TL2-on-counter against TL2-on-MMTimer.
//!
//! Protocol (speculative read version):
//!
//! * **start**: `rv ← getTime()`.
//! * **read**: sample the object's versioned lock, read the payload, resample
//!   — retry on a concurrent writer, abort if the version is newer than `rv`.
//! * **commit** (writers): lock the write set (bounded spinning, abort on
//!   timeout — deadlock avoidance), `wv ← acquireCommitTS(rv)` through the
//!   time base's commit-arbitration protocol, validate the read set, publish
//!   payloads, release locks stamping version `wv`.
//!
//! The commit timestamp goes through [`ThreadClock::acquire_commit_ts`]
//! rather than bare `get_new_ts`, which surfaces the base's arbitration
//! outcome: on GV4/GV5 bases a [`CommitTs::Shared`] value may be shared
//! with a concurrent committer (safe here because `wv` is acquired *after*
//! all write locks are held — any reader whose `rv` admits our versions
//! started after the locks, so it either sees all our writes or aborts), and
//! an exclusively owned `wv == rv + 1` proves no other transaction committed
//! since `rv`, so read-set validation can be skipped entirely — TL2's
//! classic fast path. Exclusivity is a contract, not a hint: a base whose
//! losers can adopt a winner's value (GV4) reports *every* commit `Shared`
//! — an "exclusive" winner could otherwise skip validation while an
//! adopter holding locks commits at the very same timestamp, which is why
//! classic TL2 forbids the `rv + 1` shortcut under GV4. The fast path
//! therefore only ever fires on bases with genuinely unique commit times
//! (shared counter, batched blocks), where it is sound.

use crate::scratch::Scratch;
use lsa_engine::idmap::recycle_vec;
use lsa_engine::{AbortClass, Stat, StatsShard};
use lsa_time::{CommitTs, ThreadClock, TimeBase};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Abort error of the TL2 engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tl2Abort {
    /// A read observed a version newer than the snapshot (`rv`).
    ReadTooNew,
    /// Could not acquire a write lock (likely conflict / deadlock avoidance).
    LockBusy,
    /// Commit-time read-set validation failed.
    Validation,
}

/// Result alias for TL2 operations.
pub type Tl2Result<T> = Result<T, Tl2Abort>;

/// Map a TL2 abort onto the cross-engine taxonomy: stale snapshots and
/// failed commit validation are consistency failures, a busy write lock is
/// lost contention.
fn abort_class(e: Tl2Abort) -> AbortClass {
    match e {
        Tl2Abort::ReadTooNew | Tl2Abort::Validation => AbortClass::Validation,
        Tl2Abort::LockBusy => AbortClass::Contention,
    }
}

/// Versioned-lock word: `version << 1 | locked`.
#[derive(Debug, Default)]
struct VLock(AtomicU64);

impl VLock {
    #[inline]
    fn sample(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    #[inline]
    fn is_locked(word: u64) -> bool {
        word & 1 == 1
    }

    #[inline]
    fn version(word: u64) -> u64 {
        word >> 1
    }

    /// Try to acquire the lock given an unlocked sample.
    #[inline]
    fn try_lock(&self, unlocked_word: u64) -> bool {
        !Self::is_locked(unlocked_word)
            && self
                .0
                .compare_exchange(
                    unlocked_word,
                    unlocked_word | 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
    }

    /// Release, stamping a new version.
    #[inline]
    fn unlock_with(&self, version: u64) {
        self.0.store(version << 1, Ordering::Release);
    }

    /// Release without changing the version (commit failed).
    #[inline]
    fn unlock_revert(&self, old_word: u64) {
        self.0.store(old_word, Ordering::Release);
    }
}

struct VarInner<T> {
    vlock: VLock,
    data: RwLock<Arc<T>>,
}

/// A TL2 transactional variable.
pub struct Tl2Var<T> {
    id: u64,
    inner: Arc<VarInner<T>>,
}

impl<T> Clone for Tl2Var<T> {
    fn clone(&self) -> Self {
        Tl2Var {
            id: self.id,
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + Sync + 'static> Tl2Var<T> {
    /// Latest committed value (non-transactional; seeding/debug).
    pub fn snapshot_latest(&self) -> Arc<T> {
        Arc::clone(&self.inner.data.read())
    }

    /// Stable id of this variable.
    pub fn id(&self) -> u64 {
        self.id
    }
}

struct Tl2Inner<B> {
    tb: B,
    /// Shared id source: clones of the runtime hand out ids from the same
    /// sequence, so per-transaction maps keyed by id never collide.
    next_var: AtomicU64,
}

/// The TL2 runtime. Cheap to clone; clones share the time base and the
/// variable-id sequence.
pub struct Tl2Stm<B: TimeBase<Ts = u64>> {
    inner: Arc<Tl2Inner<B>>,
}

impl<B: TimeBase<Ts = u64>> Clone for Tl2Stm<B> {
    fn clone(&self) -> Self {
        Tl2Stm {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<B: TimeBase<Ts = u64>> Tl2Stm<B> {
    /// Create a runtime on the given time base. TL2 requires totally ordered
    /// `u64` timestamps (it has no mechanism for masking clock uncertainty —
    /// a limitation the LSA-RT paper's Algorithm 5 removes).
    pub fn new(tb: B) -> Self {
        Tl2Stm {
            inner: Arc::new(Tl2Inner {
                tb,
                next_var: AtomicU64::new(1),
            }),
        }
    }

    /// The underlying time base.
    pub fn time_base(&self) -> &B {
        &self.inner.tb
    }

    /// Create a transactional variable.
    pub fn new_var<T: Send + Sync + 'static>(&self, value: T) -> Tl2Var<T> {
        Tl2Var {
            id: self.inner.next_var.fetch_add(1, Ordering::Relaxed),
            inner: Arc::new(VarInner {
                vlock: VLock::default(),
                data: RwLock::new(Arc::new(value)),
            }),
        }
    }

    /// Register the calling thread.
    pub fn register(&self) -> Tl2Thread<B> {
        Tl2Thread {
            clock: self.inner.tb.register_thread(),
            stats: Arc::default(),
            scratch: Scratch::default(),
            locked: Vec::new(),
        }
    }
}

/// Type-erased write-set entry operations.
trait WriteEntry: Send {
    fn lock(&self) -> Option<u64>;
    fn publish_and_unlock(&self, wv: u64);
    fn revert(&self, old_word: u64);
    fn var_id(&self) -> u64;
}

struct TypedWrite<T> {
    inner: Arc<VarInner<T>>,
    id: u64,
    pending: Arc<T>,
}

impl<T: Send + Sync + 'static> WriteEntry for TypedWrite<T> {
    fn lock(&self) -> Option<u64> {
        for _ in 0..64 {
            let w = self.inner.vlock.sample();
            if !VLock::is_locked(w) {
                if self.inner.vlock.try_lock(w) {
                    return Some(w);
                }
            } else {
                std::hint::spin_loop();
            }
        }
        None
    }

    fn publish_and_unlock(&self, wv: u64) {
        *self.inner.data.write() = Arc::clone(&self.pending);
        self.inner.vlock.unlock_with(wv);
    }

    fn revert(&self, old_word: u64) {
        self.inner.vlock.unlock_revert(old_word);
    }

    fn var_id(&self) -> u64 {
        self.id
    }
}

/// A read-set entry: the lock word sampled when the read was taken.
struct ReadEntry {
    var_id: u64,
    /// Closure-free revalidation: sample the lock word again.
    sample: Box<dyn Fn() -> u64 + Send>,
}

/// An executing TL2 transaction.
pub struct Tl2Txn<'h, B: TimeBase<Ts = u64>> {
    clock: &'h mut B::Clock,
    stats: &'h StatsShard,
    rv: u64,
    /// The thread's read / write sets, emptied when the attempt ends.
    scratch: &'h mut Tl2Scratch,
    /// Commit's record of the locks it took: write-set index, old lock word.
    locked: &'h mut Vec<(usize, u64)>,
}

type Tl2Scratch = Scratch<ReadEntry, Box<dyn WriteEntry>>;

impl<B: TimeBase<Ts = u64>> Drop for Tl2Txn<'_, B> {
    fn drop(&mut self) {
        // On every way out of an attempt, a panicking body's unwind too.
        self.scratch.recycle();
        recycle_vec(self.locked);
    }
}

impl<B: TimeBase<Ts = u64>> Tl2Txn<'_, B> {
    /// Snapshot (read-version) timestamp of this transaction.
    pub fn rv(&self) -> u64 {
        self.rv
    }

    /// Transactional read.
    pub fn read<T: Send + Sync + 'static>(&mut self, var: &Tl2Var<T>) -> Tl2Result<Arc<T>> {
        self.stats.inc(Stat::Reads);
        // Read-own-write, or a repeated read.
        if let Some(known) = self.scratch.known(var.id) {
            return Ok(known);
        }
        loop {
            let w1 = var.inner.vlock.sample();
            if VLock::is_locked(w1) {
                std::hint::spin_loop();
                continue;
            }
            let value = Arc::clone(&var.inner.data.read());
            let w2 = var.inner.vlock.sample();
            if w1 != w2 {
                continue; // concurrent writer slipped in — resample
            }
            if VLock::version(w1) > self.rv {
                // §1.2: "an object can only be read if the most recent update
                // to the object is before the start time". Feed the too-new
                // stamp back to the clock: lazy bases (GV5) fold it into
                // their freshness state so ONE abort catches the retry up,
                // however far the versions ran ahead of the counter.
                self.clock.observe_ts(VLock::version(w1));
                return Err(Tl2Abort::ReadTooNew);
            }
            let inner = Arc::clone(&var.inner);
            self.scratch.reads.push(ReadEntry {
                var_id: var.id,
                sample: Box::new(move || inner.vlock.sample()),
            });
            self.scratch.note_read(var.id, &value);
            return Ok(value);
        }
    }

    /// Transactional (buffered) write.
    pub fn write<T: Send + Sync + 'static>(&mut self, var: &Tl2Var<T>, value: T) -> Tl2Result<()> {
        self.stats.inc(Stat::Writes);
        let pending = Arc::new(value);
        let entry = Box::new(TypedWrite {
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
        var: &Tl2Var<T>,
        f: impl FnOnce(&T) -> T,
    ) -> Tl2Result<()> {
        let cur = self.read(var)?;
        self.write(var, f(&cur))
    }

    fn commit(&mut self) -> Tl2Result<()> {
        let Scratch {
            reads,
            writes,
            write_ids,
            ..
        } = &mut *self.scratch;
        if writes.is_empty() {
            // Read-only transactions need no commit-time work at all.
            self.stats.inc(Stat::RoCommits);
            return Ok(());
        }
        // Deterministic lock order (by id) for deadlock avoidance.
        writes.sort_by_key(|w| w.var_id());
        let locked = &mut *self.locked;
        for (i, w) in writes.iter().enumerate() {
            match w.lock() {
                Some(old) => locked.push((i, old)),
                None => {
                    for &(j, old) in locked.iter() {
                        writes[j].revert(old);
                    }
                    self.stats.abort(AbortClass::Contention);
                    return Err(Tl2Abort::LockBusy);
                }
            }
        }
        // Acquire the write version *after* locking (TL2 ordering) through
        // the commit-arbitration protocol, anchored at our read version.
        let arbitrated = self.clock.acquire_commit_ts(self.rv);
        let wv = arbitrated.ts();
        // TL2's fast path: an *exclusively owned* `wv == rv + 1` proves no
        // transaction committed between our start and our locks, so the
        // read set cannot have changed — skip validation. Only Exclusive
        // can prove that: adoption-capable bases (GV4) report every commit
        // Shared, because a winner's value may simultaneously be handed to
        // a concurrent loser — one that can hold locks our validation
        // would have caught (see CommitTs::Exclusive and the conformance
        // suite's exclusivity-collision check).
        if matches!(arbitrated, CommitTs::Exclusive(v) if v == self.rv + 1) {
            self.stats.inc(Stat::FastpathCommits);
        } else {
            // General path: validate the read set — still unlocked-by-others
            // and not newer than rv.
            self.stats.inc(Stat::Validations);
            self.stats.add(Stat::ValidatedEntries, reads.len() as u64);
            for r in reads.iter() {
                let w = (r.sample)();
                // The version check applies to every read entry — including
                // objects we also wrote (we hold their lock, but a concurrent
                // committer may have updated them between our read and our lock
                // acquisition, which would make our pending write a lost update).
                // The lock-freedom check applies only to locks we do not own.
                let owned = write_ids.contains_key(&r.var_id);
                if VLock::version(w) > self.rv || (!owned && VLock::is_locked(w)) {
                    if VLock::version(w) > self.rv {
                        self.clock.observe_ts(VLock::version(w));
                    }
                    for &(j, old) in locked.iter() {
                        writes[j].revert(old);
                    }
                    self.stats.inc(Stat::RevalidationFailures);
                    self.stats.abort(AbortClass::Validation);
                    return Err(Tl2Abort::Validation);
                }
            }
        }
        for w in writes.iter() {
            w.publish_and_unlock(wv);
        }
        // The commit timestamp's class is counted with the commit it served,
        // so `shared_commit_ts <= commits` always holds.
        self.stats.inc(Stat::Commits);
        if arbitrated.is_shared() {
            self.stats.inc(Stat::SharedCommitTs);
        }
        Ok(())
    }
}

/// A registered TL2 thread.
pub struct Tl2Thread<B: TimeBase<Ts = u64>> {
    clock: B::Clock,
    /// The shard this thread counts into (`EngineHandle::stats_shard`).
    pub(crate) stats: Arc<StatsShard>,
    scratch: Tl2Scratch,
    locked: Vec<(usize, u64)>,
}

impl<B: TimeBase<Ts = u64>> Tl2Thread<B> {
    /// Run `body` with retry-on-abort until it commits.
    pub fn atomically<R>(&mut self, mut body: impl FnMut(&mut Tl2Txn<'_, B>) -> Tl2Result<R>) -> R {
        let mut backoff = 0u32;
        loop {
            let rv = self.clock.get_time();
            let mut txn = Tl2Txn::<B> {
                clock: &mut self.clock,
                stats: &self.stats,
                rv,
                scratch: &mut self.scratch,
                locked: &mut self.locked,
            };
            match body(&mut txn) {
                Ok(value) => {
                    if txn.commit().is_ok() {
                        return value;
                    }
                }
                Err(e) => txn.stats.abort(abort_class(e)),
            }
            drop(txn);
            // Abort feedback: GV5-style bases advance the clock on aborts so
            // the retry's rv can reach the versions that caused the abort.
            self.clock.note_abort();
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
    use lsa_time::counter::SharedCounter;
    use lsa_time::hardware::HardwareClock;

    #[test]
    fn single_thread_roundtrip() {
        let stm = Tl2Stm::new(SharedCounter::new());
        let x = stm.new_var(5i64);
        let mut h = stm.register();
        let v = h.atomically(|tx| {
            let v = *tx.read(&x)?;
            tx.write(&x, v + 1)?;
            tx.read(&x).map(|v| *v)
        });
        assert_eq!(v, 6, "read-own-write");
        assert_eq!(*x.snapshot_latest(), 6);
    }

    #[test]
    fn read_only_commits_freely() {
        let stm = Tl2Stm::new(SharedCounter::new());
        let x = stm.new_var(1u8);
        let mut h = stm.register();
        let v = h.atomically(|tx| tx.read(&x).map(|v| *v));
        assert_eq!(v, 1);
        assert_eq!(h.engine_stats().ro_commits, 1);
    }

    #[test]
    fn concurrent_transfers_preserve_total_counter() {
        concurrent_transfers_preserve_total(Tl2Stm::new(SharedCounter::new()));
    }

    #[test]
    fn concurrent_transfers_preserve_total_mmtimer() {
        concurrent_transfers_preserve_total(Tl2Stm::new(HardwareClock::mmtimer_free()));
    }

    #[test]
    fn concurrent_transfers_preserve_total_gv4() {
        use lsa_time::counter::Gv4Counter;
        concurrent_transfers_preserve_total(Tl2Stm::new(Gv4Counter::new()));
    }

    #[test]
    fn concurrent_transfers_preserve_total_gv5() {
        use lsa_time::counter::Gv5Counter;
        concurrent_transfers_preserve_total(Tl2Stm::new(Gv5Counter::new()));
    }

    #[test]
    fn concurrent_transfers_preserve_total_block() {
        use lsa_time::counter::BlockCounter;
        concurrent_transfers_preserve_total(Tl2Stm::new(BlockCounter::new(16)));
    }

    #[test]
    fn uncontended_counter_commits_take_the_fast_path() {
        // Single thread on an exclusive-arbitration base: every commit gets
        // wv == rv + 1 Exclusive, so read-set validation is skipped.
        let stm = Tl2Stm::new(SharedCounter::new());
        let x = stm.new_var(0u64);
        let mut h = stm.register();
        for _ in 0..100 {
            h.atomically(|tx| tx.modify(&x, |v| v + 1));
        }
        assert_eq!(*x.snapshot_latest(), 100);
        assert_eq!(h.engine_stats().fastpath_commits, 100);
        assert_eq!(h.engine_stats().validations, 0);
        assert_eq!(h.engine_stats().shared_commit_ts, 0);
    }

    #[test]
    fn gv4_commits_never_take_the_fast_path() {
        use lsa_time::counter::Gv4Counter;
        // A GV4 winner's value may be adopted by a concurrent loser, so no
        // GV4 commit is Exclusive and the rv + 1 validation skip must never
        // fire — the classic TL2 rule that GV4 forfeits the shortcut.
        let stm = Tl2Stm::new(Gv4Counter::new());
        let x = stm.new_var(0u64);
        let mut h = stm.register();
        for _ in 0..50 {
            h.atomically(|tx| tx.modify(&x, |v| v + 1));
        }
        assert_eq!(*x.snapshot_latest(), 50);
        let s = h.engine_stats();
        assert_eq!(
            s.fastpath_commits, 0,
            "shared wv must never skip validation"
        );
        assert_eq!(
            s.shared_commit_ts, s.commits,
            "every GV4 wv is shared-class"
        );
        assert_eq!(s.validations, s.commits);
    }

    #[test]
    fn uncontended_block_commits_take_the_fast_path() {
        use lsa_time::counter::BlockCounter;
        // Block commit times are exclusive and globally unique (losers
        // re-arbitrate instead of adopting), so the rv + 1 fast path is
        // sound and fires on the uncontended path just like on the plain
        // shared counter.
        let stm = Tl2Stm::new(BlockCounter::new(16));
        let x = stm.new_var(0u64);
        let mut h = stm.register();
        for _ in 0..100 {
            h.atomically(|tx| tx.modify(&x, |v| v + 1));
        }
        assert_eq!(*x.snapshot_latest(), 100);
        assert_eq!(h.engine_stats().fastpath_commits, 100);
        assert_eq!(h.engine_stats().shared_commit_ts, 0);
    }

    #[test]
    fn gv5_commits_stay_visible_through_abort_bumps() {
        use lsa_time::counter::Gv5Counter;
        let tb = Gv5Counter::new();
        let stm = Tl2Stm::new(tb.clone());
        let x = stm.new_var(0u64);
        let mut w = stm.register();
        for _ in 0..5 {
            w.atomically(|tx| tx.modify(&x, |v| v + 1));
        }
        // GV5 never advances the counter on commit; the writer's own
        // retries (and this reader's) advance it via note_abort instead.
        let mut r = stm.register();
        let v = r.atomically(|tx| tx.read(&x).map(|v| *v));
        assert_eq!(v, 5);
        assert!(
            tb.abort_bumps() >= 1,
            "catch-up must have gone through abort feedback"
        );
        let ws = w.engine_stats();
        assert_eq!(
            ws.shared_commit_ts, ws.commits,
            "every GV5 commit timestamp is shared-class"
        );
        assert_eq!(
            ws.fastpath_commits, 0,
            "shared wv must never skip validation"
        );
    }

    #[test]
    fn shared_commit_ts_are_counted_only_when_the_attempt_commits() {
        use lsa_time::counter::Gv4Counter;
        let stm = Tl2Stm::new(Gv4Counter::new());
        let (x, y) = (stm.new_var(0u64), stm.new_var(0u64));
        let (mut h, mut other) = (stm.register(), stm.register());
        // Read `x`, let `other` commit over it, write `y`: the first
        // attempt acquires its timestamp, then fails validation.
        let mut first = true;
        h.atomically(|tx| {
            let vx = *tx.read(&x)?;
            if std::mem::replace(&mut first, false) {
                other.atomically(|otx| otx.modify(&x, |v| v + 1));
            }
            tx.write(&y, vx)
        });
        let s = h.engine_stats();
        assert_eq!((s.revalidation_failures, s.commits), (1, 1));
        assert_eq!(s.shared_commit_ts, s.commits, "the doomed attempt's ts");

        // Contended: two threads read one shared variable, update another.
        let vars: Vec<_> = (0..4).map(|_| stm.new_var(0u64)).collect();
        std::thread::scope(|sc| {
            for t in 0..2 {
                let (stm, vars) = (&stm, &vars);
                sc.spawn(move || {
                    let mut h = stm.register();
                    for i in 0..2_000 {
                        let (a, b) = (&vars[(i + t) % 4], &vars[i % 3]);
                        h.atomically(|tx| {
                            let va = *tx.read(a)?;
                            tx.modify(b, |v| v + va % 2)
                        });
                    }
                    let s = h.engine_stats();
                    assert_eq!((s.commits, s.shared_commit_ts), (2_000, 2_000));
                });
            }
        });
    }

    fn concurrent_transfers_preserve_total<B: TimeBase<Ts = u64>>(stm: Tl2Stm<B>) {
        const N: usize = 8;
        let accounts: Vec<Tl2Var<i64>> = (0..N).map(|_| stm.new_var(100)).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let stm = stm.clone();
                let accounts = accounts.clone();
                s.spawn(move || {
                    let mut h = stm.register();
                    let mut x = t as u64 + 99;
                    for _ in 0..1_500 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let a = accounts[(x as usize) % N].clone();
                        let b = accounts[((x >> 20) as usize) % N].clone();
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
            // Read-only auditors must never see a broken invariant.
            for _ in 0..2 {
                let stm = stm.clone();
                let accounts = accounts.clone();
                s.spawn(move || {
                    let mut h = stm.register();
                    for _ in 0..300 {
                        let sum = h.atomically(|tx| {
                            let mut s = 0i64;
                            for a in &accounts {
                                s += *tx.read(a)?;
                            }
                            Ok(s)
                        });
                        assert_eq!(sum, (N as i64) * 100);
                    }
                });
            }
        });
        let total: i64 = accounts.iter().map(|a| *a.snapshot_latest()).sum();
        assert_eq!(total, (N as i64) * 100);
    }

    #[test]
    fn stale_snapshot_read_aborts_and_retries() {
        let stm = Tl2Stm::new(SharedCounter::new());
        let x = stm.new_var(0u64);
        let mut writer = stm.register();
        let mut reader = stm.register();
        // Reader starts and snapshots rv, writer commits, then reader reads:
        // within ONE attempt this aborts (ReadTooNew); atomically() retries
        // with a fresh rv and succeeds.
        let mut first_attempt = true;
        let v = reader.atomically(|tx| {
            if first_attempt {
                first_attempt = false;
                writer.atomically(|wtx| wtx.modify(&x, |v| v + 1));
            }
            tx.read(&x).map(|v| *v)
        });
        assert_eq!(v, 1);
        assert!(
            reader.engine_stats().aborts >= 1,
            "first attempt must have aborted"
        );
    }

    #[test]
    fn write_write_increments_all_land() {
        let stm = Tl2Stm::new(SharedCounter::new());
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
    }
}
