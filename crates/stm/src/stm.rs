//! The LSA-RT runtime: object factory, thread registration, retry loop.
//!
//! An [`Stm`] owns the time base and the configuration. Threads register
//! once ([`Stm::register`]) to obtain a [`ThreadHandle`] carrying their
//! per-thread clock ([`lsa_time::ThreadClock`]) and statistics;
//! [`ThreadHandle::atomically`] runs a transaction body with automatic
//! retry on abort:
//!
//! ```
//! use lsa_stm::stm::Stm;
//! use lsa_time::counter::SharedCounter;
//!
//! let stm = Stm::new(SharedCounter::new());
//! let account = stm.new_tvar(100i64);
//! let mut thread = stm.register();
//! thread.atomically(|tx| {
//!     let v = *tx.read(&account)?; // lent until the next operation: copy it
//!     tx.write(&account, v - 30)
//! });
//! assert_eq!(*account.snapshot_latest(), 70);
//! ```

use crate::alloc::BlockAlloc;
use crate::config::StmConfig;
use crate::error::TxResult;
use crate::lsa::{Txn, TxnScratch};
use crate::object::{TObject, TVar};
use crate::reclaim::{LocalReclaim, ReclaimDomain, SnapshotSlot};
use lsa_engine::MemoryStats;
use lsa_time::{ThreadClock, TimeBase, Timestamp};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Process-wide instance counter so object ids never collide between
/// distinct [`Stm`] instances (ids key per-transaction hash maps).
static STM_INSTANCES: AtomicU32 = AtomicU32::new(1);

/// Object-id layout: `instance << 40 | seq`.
const SEQ_BITS: u32 = 40;

/// Ids per thread-local refill of the object-id sequence (object creation
/// can sit inside transactions — linked-structure inserts — so it deserves
/// the full amortization).
const OBJ_ID_BLOCK: u64 = 64;
/// Handle ids are claimed once per registered thread; a small block still
/// removes the shared line from registration storms.
const HANDLE_ID_BLOCK: u64 = 8;

/// What a registered thread keeps between transactions: its clock,
/// snapshot-registration slot, transaction scratch and share of the
/// reclamation domain (which holds its statistics shard).
pub(crate) struct HandleCore<B: TimeBase> {
    handle_id: u64,
    txn_seq: u64,
    pub(crate) clock: B::Clock,
    pub(crate) last_commit_time: Option<B::Ts>,
    /// This thread's snapshot-registration slot ([`crate::reclaim`]).
    pub(crate) slot: Arc<SnapshotSlot<B::Ts>>,
    pub(crate) scratch: TxnScratch<B::Ts>,
    /// This thread's statistics shard, version-node pool and watermark
    /// copy ([`crate::reclaim`]); dropped with the handle, which releases
    /// and accounts the pooled nodes and hands the counts to the domain.
    pub(crate) reclaim: LocalReclaim<B::Ts>,
    /// Commits since the last watermark advance (the lazy amortization).
    commits_since_advance: u64,
}

impl<B: TimeBase> HandleCore<B> {
    pub(crate) fn next_txn_id(&mut self) -> u64 {
        self.txn_seq += 1;
        (self.handle_id << 40) | (self.txn_seq & ((1 << 40) - 1))
    }

    /// Amortized watermark maintenance, after every completed transaction:
    /// each `interval`-th one owes a registry rescan — the lazy advance of
    /// DESIGN.md §11, no dedicated reclamation thread. Only an advance that
    /// installed a watermark (no pending slot blocked it) is counted, by
    /// [`LocalReclaim::advance`].
    pub(crate) fn maintain_watermark(&mut self, interval: u64) {
        self.commits_since_advance += 1;
        if self.commits_since_advance < interval {
            return;
        }
        self.commits_since_advance = 0;
        self.reclaim.advance(self.clock.get_time());
    }
}

impl<B: TimeBase> Drop for HandleCore<B> {
    fn drop(&mut self) {
        // Free the slot for reuse and make sure a dropped handle can never
        // hold the watermark back.
        self.slot.close();
    }
}

struct StmInner<B: TimeBase> {
    tb: B,
    cfg: StmConfig,
    instance: u32,
    /// Object/handle sequences, block-allocated per thread so neither is a
    /// contended RMW line ([`crate::alloc::BlockAlloc`]): the runtime has no
    /// shared counter besides the time base.
    next_obj: BlockAlloc,
    next_handle: BlockAlloc,
    /// Version reclamation: the snapshot registry, the watermark and the
    /// version arena's gauges ([`crate::reclaim`]).
    reclaim: Arc<ReclaimDomain<B::Ts>>,
}

/// The LSA-RT software transactional memory runtime.
pub struct Stm<B: TimeBase> {
    inner: Arc<StmInner<B>>,
}

impl<B: TimeBase> Clone for Stm<B> {
    fn clone(&self) -> Self {
        Stm {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<B: TimeBase> Stm<B> {
    /// Runtime with the default configuration ([`StmConfig::default`]).
    /// Every update commits serializably, and a write-write conflict kills
    /// the registered writer (§2.3's one built-in policy, see
    /// [`crate::config`]).
    ///
    /// # Panics
    /// As [`Stm::with_config`].
    pub fn new(tb: B) -> Self {
        Self::with_config(tb, StmConfig::default())
    }

    /// Runtime with a custom configuration.
    ///
    /// # Panics
    /// Panics if the time base is not commit-monotonic
    /// ([`lsa_time::TimeBaseInfo::commit_monotonic`]). LSA's `getPrelimUB`
    /// fallback issues forward validity claims ("this version is valid at
    /// least until `t`") that are only sound when every later commit
    /// timestamp strictly exceeds every previously readable clock value —
    /// bases like GV5, whose commit times run ahead of the readable
    /// counter, or GV4, whose losers commit at a value the winner already
    /// made readable, would let a later commit undercut an issued claim.
    pub fn with_config(tb: B, cfg: StmConfig) -> Self {
        assert!(
            tb.info().commit_monotonic,
            "LSA requires a commit-monotonic time base; {} hands out commit \
             timestamps that can lag other threads' readings (use it with \
             an engine that revalidates reads, e.g. TL2)",
            tb.name()
        );
        Stm {
            inner: Arc::new(StmInner {
                tb,
                cfg,
                instance: STM_INSTANCES.fetch_add(1, Ordering::Relaxed),
                next_obj: BlockAlloc::new(0, OBJ_ID_BLOCK),
                next_handle: BlockAlloc::new(1, HANDLE_ID_BLOCK),
                reclaim: Arc::new(ReclaimDomain::new()),
            }),
        }
    }

    /// Point-in-time snapshot of the version-store gauges: live, retired,
    /// reclaimed, pooled and recycled versions, arena bytes, watermark lag
    /// (DESIGN.md §11). Dropped handles' counts are included.
    pub fn reclaim_stats(&self) -> MemoryStats {
        self.inner.reclaim.stats()
    }

    /// Force a watermark advance, whatever the handles' amortization says —
    /// hook for tests and teardown. (Pooled version nodes belong to the
    /// handles and are released and accounted when those drop.)
    #[doc(hidden)]
    pub fn reclaim_quiesce(&self) {
        let mut clock = self.inner.tb.register_thread();
        self.inner.reclaim.advance(clock.get_time());
    }

    /// The installed watermark, if any — hook for the slot-protocol
    /// witnesses.
    #[doc(hidden)]
    pub fn reclaim_watermark(&self) -> Option<B::Ts> {
        self.inner.reclaim.watermark()
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &StmConfig {
        &self.inner.cfg
    }

    /// The underlying time base.
    pub fn time_base(&self) -> &B {
        &self.inner.tb
    }

    /// Create a transactional variable holding `value`. The initial version
    /// is valid from [`Timestamp::origin`], i.e. visible to every snapshot.
    pub fn new_tvar<T: Send + Sync + 'static>(&self, value: T) -> TVar<T, B::Ts> {
        let seq = self.inner.next_obj.alloc();
        // Past 2^40 the sequence would spill into the instance bits and
        // alias another runtime's ids: one compare per creation turns that
        // into a panic.
        assert!(seq < 1 << SEQ_BITS, "object id space exhausted");
        let id = (u64::from(self.inner.instance) << SEQ_BITS) | seq;
        TVar::from_object(TObject::with_reclaim(
            id,
            value,
            <B::Ts as Timestamp>::origin(),
            self.inner.cfg.max_versions,
            Arc::clone(&self.inner.reclaim),
        ))
    }

    /// Register the calling thread: allocates its clock handle, statistics
    /// shard, snapshot-registration slot, transaction scratch and share of the
    /// reclamation domain.
    pub fn register(&self) -> ThreadHandle<B> {
        let domain = &self.inner.reclaim;
        ThreadHandle {
            core: HandleCore {
                handle_id: self.inner.next_handle.alloc(),
                txn_seq: 0,
                clock: self.inner.tb.register_thread(),
                last_commit_time: None,
                slot: domain.registry().register(),
                scratch: TxnScratch::new(),
                reclaim: LocalReclaim::new(domain),
                commits_since_advance: 0,
            },
            stm: self.clone(),
        }
    }
}

/// A registered thread's gateway to running transactions.
pub struct ThreadHandle<B: TimeBase> {
    stm: Stm<B>,
    pub(crate) core: HandleCore<B>,
}

impl<B: TimeBase> ThreadHandle<B> {
    /// The owning runtime.
    pub fn stm(&self) -> &Stm<B> {
        &self.stm
    }

    /// Commit time of this thread's most recent committed *update*
    /// transaction (`None` before the first one, unchanged by read-only
    /// commits). The offline serializability checker in the integration
    /// tests orders the committed history by these values.
    pub fn last_commit_time(&self) -> Option<B::Ts> {
        self.core.last_commit_time
    }

    /// Largest capacity, in entries, the transaction scratch holds on to
    /// between transactions — hook for the retention witness
    /// (`lsa_engine::idmap`'s rule).
    #[doc(hidden)]
    pub fn scratch_capacity(&self) -> usize {
        self.core.scratch.capacity()
    }

    /// Run `body` as a transaction, retrying on abort until it commits;
    /// returns the body's result. The body must perform all shared accesses
    /// through the provided [`Txn`] and propagate [`crate::error::Abort`]
    /// errors with `?` — the loop re-executes it from scratch after an abort
    /// (any side effects outside the STM must therefore be idempotent).
    pub fn atomically<R>(&mut self, body: impl FnMut(&mut Txn<'_, B>) -> TxResult<R>) -> R {
        match self.run(None, body) {
            Ok(value) => value,
            Err(_) => unreachable!("unbounded attempts end in a commit"),
        }
    }

    /// Like [`ThreadHandle::atomically`] but gives up after `max_attempts`
    /// aborts, returning the last abort. Useful for tests and bounded-effort
    /// callers.
    pub fn try_atomically<R>(
        &mut self,
        max_attempts: u32,
        body: impl FnMut(&mut Txn<'_, B>) -> TxResult<R>,
    ) -> TxResult<R> {
        assert!(max_attempts >= 1);
        self.run(Some(max_attempts), body)
    }

    /// The retry shell behind `atomically` / `try_atomically`: run `body`
    /// until an attempt commits, or — when `max_attempts` is given — until
    /// that many have aborted.
    fn run<R>(
        &mut self,
        max_attempts: Option<u32>,
        mut body: impl FnMut(&mut Txn<'_, B>) -> TxResult<R>,
    ) -> TxResult<R> {
        let inner = &self.stm.inner;
        let mut txn = Txn::new(&inner.cfg, &mut self.core);
        let mut failed = 0u32;
        let value = loop {
            txn.start();
            let result = body(&mut txn);
            match txn.conclude(result) {
                Ok(value) => break value,
                Err(abort) => {
                    failed += 1;
                    if max_attempts == Some(failed) {
                        return Err(abort);
                    }
                }
            }
        };
        drop(txn);
        self.core.maintain_watermark(inner.cfg.wm_advance_interval);
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_engine::EngineHandle;
    use lsa_time::counter::SharedCounter;
    use lsa_time::hardware::HardwareClock;
    use lsa_time::perfect::PerfectClock;

    #[test]
    fn single_thread_read_write_roundtrip() {
        let stm = Stm::new(SharedCounter::new());
        let x = stm.new_tvar(1i64);
        let mut h = stm.register();
        let seen = h.atomically(|tx| {
            let v = *tx.read(&x)?;
            tx.write(&x, v + 41)?;
            tx.read(&x).copied()
        });
        assert_eq!(seen, 42, "read-own-write");
        assert_eq!(*x.snapshot_latest(), 42);
        assert_eq!(h.engine_stats().commits, 1);
        assert_eq!(h.engine_stats().aborts, 0);
    }

    #[test]
    fn read_only_txn_commits_without_validation() {
        let stm = Stm::new(SharedCounter::new());
        let x = stm.new_tvar(7i64);
        let mut h = stm.register();
        let v = h.atomically(|tx| tx.read(&x).copied());
        assert_eq!(v, 7);
        assert_eq!(h.engine_stats().ro_commits, 1);
        assert_eq!(h.engine_stats().commits, 0);
    }

    #[test]
    fn modify_accumulates_within_txn() {
        let stm = Stm::new(PerfectClock::new());
        let x = stm.new_tvar(0i64);
        let mut h = stm.register();
        h.atomically(|tx| {
            for _ in 0..5 {
                tx.modify(&x, |v| v + 1)?;
            }
            Ok(())
        });
        assert_eq!(*x.snapshot_latest(), 5);
    }

    #[test]
    fn sequential_txns_see_each_other() {
        let stm = Stm::new(HardwareClock::mmtimer_free());
        let x = stm.new_tvar(0i64);
        let mut h = stm.register();
        for i in 1..=10 {
            h.atomically(|tx| tx.modify(&x, |v| v + 1));
            assert_eq!(*x.snapshot_latest(), i);
        }
        assert_eq!(h.engine_stats().commits, 10);
    }

    #[test]
    fn explicit_retry_reruns_body() {
        let stm = Stm::new(SharedCounter::new());
        let x = stm.new_tvar(0i64);
        let mut h = stm.register();
        let mut attempts = 0;
        h.atomically(|tx| {
            attempts += 1;
            if attempts < 3 {
                return Err(tx.abort_retry());
            }
            tx.write(&x, attempts)
        });
        assert_eq!(attempts, 3);
        assert_eq!(*x.snapshot_latest(), 3);
        // Explicit retries count as contention; one handle alone submits no
        // conflict and cannot be killed, so both are the body's.
        let es = h.engine_stats();
        assert_eq!((es.abort_reasons.contention, es.aborts), (2, 2));
        assert_eq!(es.conflicts, 0);
    }

    #[test]
    fn try_atomically_bounds_attempts() {
        let stm = Stm::new(SharedCounter::new());
        let mut h = stm.register();
        let r: TxResult<()> = h.try_atomically(3, |tx| Err(tx.abort_retry()));
        assert!(r.is_err());
        // Contention class, all explicit: a lone handle has no conflicts.
        let es = h.engine_stats();
        assert_eq!((es.abort_reasons.contention, es.aborts), (3, 3));
        assert_eq!(es.conflicts, 0);
    }

    #[test]
    fn only_first_opens_count() {
        let stm = Stm::new(SharedCounter::new());
        let x = stm.new_tvar(1u64);
        let mut h = stm.register();
        h.atomically(|tx| {
            tx.read(&x)?;
            tx.read(&x)?; // repeated read
            tx.write(&x, 2)?;
            tx.read(&x)?; // read-own-write
            tx.modify(&x, |v| v + 1) // neither a new read nor a new write
        });
        assert_eq!(*x.snapshot_latest(), 3);
        assert_eq!((h.engine_stats().reads, h.engine_stats().writes), (1, 1));
        assert_eq!(
            h.engine_stats().validated_entries,
            1,
            "the version read; the write is in the write set alone"
        );

        // `modify` as the first open is both at once, and validates nothing.
        let y = stm.new_tvar(1u64);
        let before = h.engine_stats();
        let opened = h.atomically(|tx| {
            tx.modify(&y, |v| v + 1)?;
            tx.modify(&y, |v| v + 1)?; // a re-write
            tx.read(&y)?; // read-own-write
            Ok(tx.opened())
        });
        assert_eq!(*y.snapshot_latest(), 3);
        let after = h.engine_stats();
        assert_eq!(
            (after.reads, after.writes),
            (before.reads + 1, before.writes + 1)
        );
        assert_eq!(opened, 1, "one object, opened for both");
        assert_eq!(after.validated_entries, before.validated_entries);
    }

    #[test]
    fn retry_does_not_see_the_aborted_attempts_write() {
        let stm = Stm::new(SharedCounter::new());
        let (x, y) = (stm.new_tvar(10i64), stm.new_tvar(20i64));
        let mut h = stm.register();
        let mut attempts = 0;
        let seen = h.atomically(|tx| {
            attempts += 1;
            if attempts == 1 {
                tx.read(&y)?;
                tx.write(&x, 99)?;
                assert_eq!(*tx.read(&x)?, 99, "read-own-write");
                return Err(tx.abort_retry());
            }
            // No stale scratch entry: `x` is neither "written" (its
            // speculative 99 is gone) nor cached.
            Ok((*tx.read(&x)?, *tx.read(&y)?))
        });
        assert_eq!(seen, (10, 20));
        assert_eq!(h.engine_stats().ro_commits, 1, "the retry wrote nothing");
        assert_eq!(*x.snapshot_latest(), 10);
    }

    #[test]
    fn a_blocked_advance_is_not_counted_and_installs_nothing() {
        let cfg = StmConfig {
            wm_advance_interval: 1,
            ..StmConfig::default()
        };
        let stm = Stm::with_config(SharedCounter::new(), cfg);
        let x = stm.new_tvar(0u64);
        let mut h = stm.register();
        // Another thread is between "begin" and "start time published".
        let beginner = stm.inner.reclaim.registry().register();
        beginner.mark_pending();
        h.atomically(|tx| tx.write(&x, 1));
        assert_eq!(
            h.engine_stats().wm_advances,
            0,
            "the advance was due, not done"
        );
        assert_eq!(stm.reclaim_watermark(), None);
        assert_eq!(h.core.reclaim.watermark(), None);
        beginner.clear();
        h.atomically(|tx| tx.write(&x, 2));
        assert_eq!(h.engine_stats().wm_advances, 1);
        assert!(h.core.reclaim.watermark().is_some(), "the copy follows");
    }

    #[test]
    fn a_dropped_handles_counts_stay_and_its_successor_starts_from_zero() {
        let stm = Stm::new(SharedCounter::new());
        let x = stm.new_tvar(0u64);
        let mut h = stm.register();
        for _ in 0..20 {
            h.atomically(|tx| tx.modify(&x, |v| v + 1));
        }
        let retired = stm.reclaim_stats().versions_retired;
        assert!(retired > 0, "the chain was pruned");
        drop(h);
        let m = stm.reclaim_stats();
        assert_eq!(
            m.versions_retired, retired,
            "the dropped handle's retirements"
        );
        assert_eq!(m.versions_reclaimed, retired, "its pool was released");
        assert_eq!(m.versions_pooled, 0);

        let next = stm.register();
        assert_eq!(next.engine_stats(), lsa_engine::EngineStats::default());
        let domain = &stm.inner.reclaim.shards;
        for _ in 0..1_000 {
            let mut h = stm.register();
            h.atomically(|tx| tx.modify(&x, |v| v + 1));
        }
        assert_eq!(
            domain.shard_count(),
            1,
            "the list holds the live handle's shard"
        );
        assert_eq!(domain.totals().engine_stats().commits, 1_020);
        assert_eq!(*x.snapshot_latest(), 1_020);
    }

    #[test]
    #[should_panic(expected = "commit-monotonic")]
    fn lsa_refuses_non_commit_monotonic_bases() {
        // GV5 commit times can lag other threads' readings, which breaks
        // the soundness of LSA's getPrelimUB fallback claims — the runtime
        // must reject the combination loudly instead of corrupting data.
        let _ = Stm::new(lsa_time::counter::Gv5Counter::new());
    }

    #[test]
    #[should_panic(expected = "commit-monotonic")]
    fn lsa_refuses_gv4() {
        // A GV4 loser adopts a counter value the winner already made
        // readable — a commit at a previously readable reading, which
        // would let an adopted commit undercut LSA's getPrelimUB forward
        // claims ("valid at least until t"). Rejected like GV5.
        let _ = Stm::new(lsa_time::counter::Gv4Counter::new());
    }

    #[test]
    fn lsa_runs_on_the_block_arbitration_base() {
        // BlockCounter stays commit-monotonic (lost confirmations are
        // discarded and re-arbitrated, never adopted), so LSA accepts it —
        // unlike the adopting/lazy GV4 and GV5 variants.
        use lsa_time::counter::BlockCounter;
        let stm = Stm::new(BlockCounter::new(8));
        let x = stm.new_tvar(0u64);
        let mut h = stm.register();
        for _ in 0..10 {
            h.atomically(|tx| tx.modify(&x, |v| v + 1));
        }
        assert_eq!(*x.snapshot_latest(), 10);
        assert_eq!(h.engine_stats().commits, 10);
    }

    #[test]
    fn two_stms_have_disjoint_object_ids() {
        let a = Stm::new(SharedCounter::new());
        let b = Stm::new(SharedCounter::new());
        let xa = a.new_tvar(0u8);
        let xb = b.new_tvar(0u8);
        assert_ne!(xa.id(), xb.id());
    }

    #[test]
    fn heterogeneous_payloads_in_one_txn() {
        let stm = Stm::new(SharedCounter::new());
        let n = stm.new_tvar(3usize);
        let s = stm.new_tvar(String::from("abc"));
        let v = stm.new_tvar(vec![1u8, 2, 3]);
        let mut h = stm.register();
        let total = h.atomically(|tx| {
            let a = *tx.read(&n)?;
            let b = tx.read(&s)?.len();
            let c = tx.read(&v)?.len();
            tx.write(&n, a + b + c)?;
            Ok(a + b + c)
        });
        assert_eq!(total, 9);
        assert_eq!(*n.snapshot_latest(), 9);
    }
}
