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
//! Protocol (speculative read version), over the runtime's versioned-lock
//! word per object:
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

use crate::engine::{version, word_valid, Abort, BaselineStm, Meta, Protocol, Txn, VLock};
use lsa_engine::Stat;
use lsa_time::{CommitTs, ThreadClock, TimeBase};

/// TL2's protocol over a time base with totally ordered `u64` timestamps.
pub struct Tl2<B> {
    tb: B,
}

/// The TL2 runtime. Cheap to clone; clones share the time base and the
/// variable-id sequence.
pub type Tl2Stm<B> = BaselineStm<Tl2<B>>;

impl<B: TimeBase<Ts = u64>> Tl2Stm<B> {
    /// Create a runtime on the given time base. TL2 requires totally ordered
    /// `u64` timestamps (it has no mechanism for masking clock uncertainty —
    /// a limitation the LSA-RT paper's Algorithm 5 removes).
    pub fn new(tb: B) -> Self {
        BaselineStm::with_protocol(Tl2 { tb })
    }
}

impl<B: TimeBase<Ts = u64>> Protocol for Tl2<B> {
    type Meta = VLock;
    type Local = B::Clock;

    fn name(&self) -> String {
        format!("tl2({})", self.tb.name())
    }

    fn register(&self) -> B::Clock {
        self.tb.register_thread()
    }

    fn begin(&self, clock: &mut B::Clock, retry: bool) -> u64 {
        if retry {
            // Abort feedback: GV5-style bases advance the clock on aborts so
            // the retry's rv can reach the versions that caused the abort.
            clock.note_abort();
        }
        clock.get_time()
    }

    fn check_read(txn: &mut Txn<'_, Self>, word: u64) -> Result<(), Abort> {
        if version(word) > txn.snapshot {
            // §1.2: "an object can only be read if the most recent update to
            // the object is before the start time". Feed the too-new stamp
            // back to the clock: lazy bases (GV5) fold it into their
            // freshness state so ONE abort catches the retry up, however far
            // the versions ran ahead of the counter.
            txn.local.observe_ts(version(word));
            return Err(Abort::ReadTooNew);
        }
        Ok(())
    }

    fn commit(txn: &mut Txn<'_, Self>) -> Result<(), Abort> {
        if txn.scratch.writes.is_empty() {
            // Read-only transactions need no commit-time work at all.
            return Ok(());
        }
        let rv = txn.snapshot;
        let arbitrated = txn.lock_writes(|txn| {
            // Acquire the write version *after* locking (TL2 ordering)
            // through the commit-arbitration protocol, anchored at rv.
            let arbitrated = txn.local.acquire_commit_ts(rv);
            // TL2's fast path: an *exclusively owned* `wv == rv + 1` proves
            // no transaction committed between our start and our locks, so
            // the read set cannot have changed — skip validation. Only
            // Exclusive can prove that: adoption-capable bases (GV4) report
            // every commit Shared, because a winner's value may
            // simultaneously be handed to a concurrent loser — one that can
            // hold locks our validation would have caught (see
            // CommitTs::Exclusive and the conformance suite's
            // exclusivity-collision check).
            if matches!(arbitrated, CommitTs::Exclusive(v) if v == rv + 1) {
                txn.stats.inc(Stat::FastpathCommits);
                return Ok(arbitrated);
            }
            // The version check covers objects we also wrote (a committer
            // may have updated one between our read and our lock, making
            // our write a lost update); the lock check only locks we do not
            // own.
            let mut too_new = None;
            let valid = txn.validate(|r| {
                let now = r.object.meta().word();
                if version(now) > rv {
                    too_new = Some(version(now));
                }
                word_valid(now, rv, txn.writes_to(r.id))
            });
            if let Some(ts) = too_new {
                txn.local.observe_ts(ts);
            }
            valid.map(|()| arbitrated)
        })?;
        let wv = arbitrated.ts();
        txn.publish(|_| wv);
        // Counted with the commit it served, so `shared_commit_ts <=
        // commits` always holds.
        if arbitrated.is_shared() {
            txn.stats.inc(Stat::SharedCommitTs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_engine::{EngineHandle, TxnEngine, TxnOps};
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
        let accounts: Vec<_> = (0..N).map(|_| stm.new_var(100)).collect();
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
