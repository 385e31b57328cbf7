//! The LSA-RT runtime: object factory, thread registration, retry loop.
//!
//! An [`Stm`] owns the time base, the configuration and the contention
//! manager. Threads register once ([`Stm::register`]) to obtain a
//! [`ThreadHandle`] carrying their per-thread clock ([`lsa_time::ThreadClock`])
//! and statistics; [`ThreadHandle::atomically`] runs a transaction body with
//! automatic retry on abort:
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
//!
//! On a [`lsa_time::ShardedTimeBase`] the same runtime is sharded: object
//! ids carry their home shard, [`Stm::new_tvar_on`] places explicitly, and
//! commits arbitrate on the shards they touch (DESIGN.md §9).

use crate::alloc::BlockAlloc;
use crate::cm::{ContentionManager, Polite};
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

/// Object-id layout: `instance << 40 | shard << 34 | seq`. The shard field
/// is 0 on an unsharded base; its 6 bits hold
/// [`lsa_time::sharded::MAX_SHARDS`] shards.
const SEQ_BITS: u32 = 34;
const SHARD_BITS: u32 = 6;

/// The home shard encoded in an object id.
#[inline]
pub(crate) fn shard_of_id(id: u64) -> usize {
    ((id >> SEQ_BITS) & ((1 << SHARD_BITS) - 1)) as usize
}

/// Ids per thread-local refill of the object-id sequence (object creation
/// can sit inside transactions — linked-structure inserts — so it deserves
/// the full amortization).
const OBJ_ID_BLOCK: u64 = 64;
/// Handle ids are claimed once per registered thread; a small block still
/// removes the shared line from registration storms.
const HANDLE_ID_BLOCK: u64 = 8;
/// Birth numbers feed contention-manager priority; small blocks bound the
/// cross-thread unfairness of the block-granular birth order (see
/// [`crate::alloc`]).
const BIRTH_BLOCK: u64 = 16;

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
    cm: Box<dyn ContentionManager>,
    instance: u32,
    /// Object/handle/birth sequences, block-allocated per thread so none of
    /// them is a contended RMW line ([`crate::alloc::BlockAlloc`]). There is
    /// one object sequence whatever the shard count. The birth sequence
    /// exists for contention managers that require one
    /// ([`ContentionManager::needs_birth`]); untouched otherwise so the
    /// default configuration has no shared counter besides the time base.
    next_obj: BlockAlloc,
    next_handle: BlockAlloc,
    birth_counter: BlockAlloc,
    /// Version reclamation: the snapshot registry, the watermark and the
    /// version arena's gauges ([`crate::reclaim`]). One domain however many
    /// shards: a transaction has one snapshot lower bound.
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
    /// Runtime with the default configuration and the [`Polite`] contention
    /// manager.
    pub fn new(tb: B) -> Self {
        Self::with_cm(tb, StmConfig::default(), Polite::default())
    }

    /// Runtime with a custom configuration.
    pub fn with_config(tb: B, cfg: StmConfig) -> Self {
        Self::with_cm(tb, cfg, Polite::default())
    }

    /// Runtime with custom configuration and contention manager.
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
    /// (A [`lsa_time::ShardedTimeBase`] runs its own composition checks
    /// when it is built.)
    pub fn with_cm(tb: B, cfg: StmConfig, cm: impl ContentionManager) -> Self {
        assert!(
            tb.info().commit_monotonic,
            "LSA requires a commit-monotonic time base; {} hands out commit \
             timestamps that can lag other threads' readings (use it with \
             an engine that revalidates reads, e.g. TL2)",
            tb.name()
        );
        assert!(tb.shards() <= 1 << SHARD_BITS, "ids hold 64 shards at most");
        Stm {
            inner: Arc::new(StmInner {
                tb,
                cfg,
                cm: Box::new(cm),
                instance: STM_INSTANCES.fetch_add(1, Ordering::Relaxed),
                next_obj: BlockAlloc::new(0, OBJ_ID_BLOCK),
                next_handle: BlockAlloc::new(1, HANDLE_ID_BLOCK),
                birth_counter: BlockAlloc::new(1, BIRTH_BLOCK),
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

    /// Name of the contention-management policy in use.
    pub fn cm_name(&self) -> &'static str {
        self.inner.cm.name()
    }

    /// Number of object shards: the time base's ([`TimeBase::shards`]).
    pub fn shard_count(&self) -> usize {
        self.inner.tb.shards()
    }

    /// Create a transactional variable holding `value`, placed round-robin
    /// across the shards. The initial version is valid from
    /// [`Timestamp::origin`], i.e. visible to every snapshot.
    pub fn new_tvar<T: Send + Sync + 'static>(&self, value: T) -> TVar<T, B::Ts> {
        let seq = self.inner.next_obj.alloc();
        self.tvar_at(seq % self.shard_count() as u64, seq, value)
    }

    /// Create a transactional variable on a specific shard — explicit
    /// placement for partitioned workloads that want their working set
    /// shard-local (Helenos-style: partitioned data, occasional
    /// cross-partition transactions).
    ///
    /// # Panics
    /// Panics if `shard >= self.shard_count()`.
    pub fn new_tvar_on<T: Send + Sync + 'static>(&self, shard: usize, value: T) -> TVar<T, B::Ts> {
        assert!(
            shard < self.shard_count(),
            "shard {shard} out of range (have {})",
            self.shard_count()
        );
        self.tvar_at(shard as u64, self.inner.next_obj.alloc(), value)
    }

    /// Home shard of a variable created by this runtime.
    pub fn shard_of<T: Send + Sync + 'static>(&self, var: &TVar<T, B::Ts>) -> usize {
        shard_of_id(var.id())
    }

    fn tvar_at<T: Send + Sync + 'static>(&self, shard: u64, seq: u64, value: T) -> TVar<T, B::Ts> {
        // Past 2^34 the sequence would spill into the shard bits and alias
        // another shard's ids: one compare per creation turns that into a
        // panic.
        assert!(seq < 1 << SEQ_BITS, "object id space exhausted");
        let id =
            (u64::from(self.inner.instance) << (SHARD_BITS + SEQ_BITS)) | (shard << SEQ_BITS) | seq;
        TVar::from_object(TObject::with_reclaim(
            id,
            value,
            <B::Ts as Timestamp>::origin(),
            self.inner.cfg.max_versions,
            Arc::clone(&self.inner.reclaim),
            self.inner.cfg.watermark_pruning,
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
    /// On a sharded base, a body that touches one shard commits with
    /// shard-local arbitration and one that touches several escalates to
    /// the cross-shard protocol (DESIGN.md §9).
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
        let mut txn = Txn::new(
            &inner.cfg,
            inner.cm.as_ref(),
            &inner.birth_counter,
            &mut self.core,
        );
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
    use crate::object::AnyObject;
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
    fn try_atomically_keeps_contention_manager_continuity() {
        // Bounded attempts are attempts of one logical transaction like any
        // other: the birth is drawn once and kept, opens and retries carry
        // over — what TimestampCm and Karma rank by.
        let stm = Stm::with_cm(
            SharedCounter::new(),
            StmConfig::default(),
            crate::cm::TimestampCm::default(),
        );
        let x = stm.new_tvar(0u64);
        let mut h = stm.register();
        let mut seen = Vec::new();
        let r: TxResult<()> = h.try_atomically(3, |tx| {
            tx.write(&x, 1)?;
            let me = x.object().current_writer().expect("registered");
            seen.push((me.cm().birth(), me.cm().ops(), me.cm().retries()));
            Err(tx.abort_retry())
        });
        assert!(r.is_err());
        let birth = seen[0].0;
        assert_ne!(birth, 0, "the policy needs a birth and must get one");
        assert_eq!(seen, [(birth, 1, 0), (birth, 2, 1), (birth, 3, 2)]);
        assert_eq!(h.engine_stats().aborts, 3);
    }

    #[test]
    fn only_first_opens_count() {
        let stm = Stm::new(SharedCounter::new());
        let x = stm.new_tvar(1u64);
        let mut h = stm.register();
        let ops = h.atomically(|tx| {
            tx.read(&x)?;
            tx.read(&x)?; // repeated read
            tx.write(&x, 2)?;
            tx.read(&x)?; // read-own-write
            tx.modify(&x, |v| v + 1)?; // neither a new read nor a new write
            Ok(x.object().current_writer().expect("registered").cm().ops())
        });
        assert_eq!(*x.snapshot_latest(), 3);
        assert_eq!((h.engine_stats().reads, h.engine_stats().writes), (1, 1));
        assert_eq!(ops, 2, "Karma's currency counts the same opens");
        assert_eq!(
            h.engine_stats().validated_entries,
            1,
            "the version read; the write is in the write set alone"
        );

        // `modify` as the first open is both at once, and validates nothing.
        let y = stm.new_tvar(1u64);
        let before = h.engine_stats();
        let (ops, opened) = h.atomically(|tx| {
            tx.modify(&y, |v| v + 1)?;
            tx.modify(&y, |v| v + 1)?; // a re-write
            tx.read(&y)?; // read-own-write
            let ops = y.object().current_writer().expect("registered").cm().ops();
            Ok((ops, tx.opened()))
        });
        assert_eq!(*y.snapshot_latest(), 3);
        let after = h.engine_stats();
        assert_eq!(
            (after.reads, after.writes),
            (before.reads + 1, before.writes + 1)
        );
        assert_eq!((ops, opened), (2, 1), "one object, opened for both");
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

    /// `Stm` on a [`ShardedTimeBase`]: placement, the id layout and the
    /// cross-shard commit protocol.
    mod sharded {
        use super::*;
        use lsa_time::counter::BlockCounter;
        use lsa_time::sharded::ShardedTimeBase;

        fn sharded<B: TimeBase>(tb: B, shards: usize) -> Stm<ShardedTimeBase<B>> {
            Stm::new(ShardedTimeBase::new(tb, shards))
        }

        #[test]
        fn round_robin_routing_covers_all_shards() {
            let stm = sharded(SharedCounter::new(), 4);
            let shards: Vec<usize> = (0..8).map(|i| stm.shard_of(&stm.new_tvar(i))).collect();
            // One full rotation per 4 allocations, single-threaded.
            assert_eq!(&shards[0..4], &[0, 1, 2, 3]);
            assert_eq!(&shards[4..8], &[0, 1, 2, 3]);
        }

        #[test]
        fn explicit_placement_and_id_encoding_agree() {
            let stm = sharded(SharedCounter::new(), 8);
            for shard in 0..8 {
                let v = stm.new_tvar_on(shard, 0u8);
                assert_eq!(stm.shard_of(&v), shard);
                assert_eq!(shard_of_id(v.id()), shard);
            }
        }

        #[test]
        fn per_shard_id_spaces_are_disjoint() {
            let stm = sharded(SharedCounter::new(), 8);
            let mut ids: Vec<u64> = (0..400).map(|i| stm.new_tvar(i).id()).collect();
            ids.extend((0..400).map(|i| stm.new_tvar_on(i % 3, i).id()));
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(n, ids.len(), "object ids must be unique across shards");
        }

        #[test]
        fn single_shard_txn_commits_without_cross_shard_escalation() {
            let stm = sharded(SharedCounter::new(), 4);
            let x = stm.new_tvar_on(2, 1i64);
            let mut h = stm.register();
            let seen = h.atomically(|tx| {
                let v = *tx.read(&x)?;
                tx.write(&x, v + 41)?;
                tx.read(&x).copied()
            });
            assert_eq!(seen, 42);
            assert_eq!(h.engine_stats().commits, 1);
            assert_eq!(h.engine_stats().cross_shard_commits, 0);
        }

        #[test]
        fn cross_shard_txn_is_counted_and_atomic() {
            let stm = sharded(BlockCounter::new(8), 4);
            let a = stm.new_tvar_on(0, 100i64);
            let b = stm.new_tvar_on(3, 0i64);
            let mut h = stm.register();
            h.atomically(|tx| {
                let va = *tx.read(&a)?;
                let vb = *tx.read(&b)?;
                tx.write(&a, va - 30)?;
                tx.write(&b, vb + 30)
            });
            assert_eq!(h.engine_stats().commits, 1);
            assert_eq!(h.engine_stats().cross_shard_commits, 1);
            assert_eq!(*a.snapshot_latest(), 70);
            assert_eq!(*b.snapshot_latest(), 30);
        }

        #[test]
        fn a_read_selects_its_shard() {
            // Reads on shard 3, writes only shard 0: the read's shard is
            // touched too, so the commit chains through both shards' clocks
            // and counts as cross-shard.
            let stm = sharded(BlockCounter::new(64), 4);
            let a = stm.new_tvar_on(0, 1u64);
            let b = stm.new_tvar_on(3, 2u64);
            let mut h = stm.register();
            let before = stm.time_base().inner().refills();
            h.atomically(|tx| {
                let vb = *tx.read(&b)?;
                tx.write(&a, vb)
            });
            assert_eq!(h.engine_stats().commits, 1);
            assert_eq!(h.engine_stats().cross_shard_commits, 1);
            // A fresh handle's shard clocks hold no block yet: each shard
            // the commit arbitrates on reserves one.
            assert_eq!(
                stm.time_base().inner().refills() - before,
                2,
                "the commit did not arbitrate on the read's shard"
            );
        }

        #[test]
        fn read_only_cross_shard_txns_are_not_counted_as_commits() {
            let stm = sharded(SharedCounter::new(), 2);
            let a = stm.new_tvar_on(0, 1u64);
            let b = stm.new_tvar_on(1, 2u64);
            let mut h = stm.register();
            let sum = h.atomically(|tx| Ok(*tx.read(&a)? + *tx.read(&b)?));
            assert_eq!(sum, 3);
            assert_eq!(h.engine_stats().ro_commits, 1);
            assert_eq!(h.engine_stats().cross_shard_commits, 0);
        }

        #[test]
        fn a_retry_starts_with_an_empty_shard_selection() {
            // The first attempt reads on shards 0 and 3 and gives up; the
            // retry touches shard 0 alone. Its commit must arbitrate on that
            // one shard — a selection left over from the failed attempt
            // would chain it through shard 3's clock too.
            let stm = sharded(BlockCounter::new(64), 4);
            let a = stm.new_tvar_on(0, 1u64);
            let b = stm.new_tvar_on(3, 2u64);
            let mut h = stm.register();
            let before = stm.time_base().inner().refills();
            let mut attempts = 0;
            h.atomically(|tx| {
                attempts += 1;
                if attempts == 1 {
                    tx.read(&a)?;
                    tx.read(&b)?;
                    return Err(tx.abort_retry());
                }
                tx.modify(&a, |v| v + 1)
            });
            assert_eq!(h.engine_stats().commits, 1);
            assert_eq!(h.engine_stats().cross_shard_commits, 0);
            // A fresh handle's shard clocks hold no block yet: each shard
            // the commit arbitrates on reserves one.
            assert_eq!(
                stm.time_base().inner().refills() - before,
                1,
                "the retry's commit arbitrated on more than one shard"
            );
        }

        #[test]
        fn cross_shard_audits_always_see_consistent_totals() {
            // The torn-cut hazard the one-domain composite exists to
            // prevent: transfers span shards while auditors sum both — no
            // audit may ever observe a half-applied cross-shard commit.
            let stm = sharded(BlockCounter::new(8), 4);
            let a = stm.new_tvar_on(0, 500i64);
            let b = stm.new_tvar_on(3, 500i64);
            std::thread::scope(|s| {
                {
                    let stm = stm.clone();
                    let (a, b) = (a.clone(), b.clone());
                    s.spawn(move || {
                        let mut h = stm.register();
                        for i in 0..2_000i64 {
                            let amt = (i % 7) - 3;
                            h.atomically(|tx| {
                                let va = *tx.read(&a)?;
                                let vb = *tx.read(&b)?;
                                tx.write(&a, va - amt)?;
                                tx.write(&b, vb + amt)
                            });
                        }
                    });
                }
                for _ in 0..2 {
                    let stm = stm.clone();
                    let (a, b) = (a.clone(), b.clone());
                    s.spawn(move || {
                        let mut h = stm.register();
                        for _ in 0..2_000 {
                            let total = h.atomically(|tx| Ok(*tx.read(&a)? + *tx.read(&b)?));
                            assert_eq!(total, 1_000, "torn cross-shard snapshot");
                        }
                    });
                }
            });
            assert_eq!(*a.snapshot_latest() + *b.snapshot_latest(), 1_000);
        }

        #[test]
        fn concurrent_cross_shard_increments_serialize() {
            let stm = sharded(SharedCounter::new(), 8);
            let vars: Vec<TVar<u64, u64>> = (0..8).map(|_| stm.new_tvar(0u64)).collect();
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let stm = stm.clone();
                    let vars = vars.clone();
                    s.spawn(move || {
                        let mut h = stm.register();
                        let mut seed = t + 1;
                        for _ in 0..500 {
                            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let i = (seed >> 33) as usize % vars.len();
                            let j = (i + 1) % vars.len();
                            let (x, y) = (vars[i].clone(), vars[j].clone());
                            h.atomically(|tx| {
                                tx.modify(&x, |v| v + 1)?;
                                tx.modify(&y, |v| v + 1)
                            });
                        }
                    });
                }
            });
            let total: u64 = vars.iter().map(|v| *v.snapshot_latest()).sum();
            assert_eq!(total, 4 * 500 * 2, "lost cross-shard updates");
        }

        #[test]
        #[should_panic(expected = "commit-monotonic")]
        fn sharded_stm_refuses_non_composable_bases() {
            let _ = sharded(lsa_time::counter::Gv5Counter::new(), 4);
        }

        #[test]
        #[should_panic(expected = "shard 9 out of range")]
        fn explicit_placement_bounds_checked() {
            let stm = sharded(SharedCounter::new(), 4);
            let _ = stm.new_tvar_on(9, 0u8);
        }
    }
}
