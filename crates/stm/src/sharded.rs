//! The sharded LSA runtime: disjoint object shards with per-shard time-base
//! arbitration and a cross-shard commit protocol.
//!
//! [`ShardedStm`] splits the object table into `N` shards. Every object id
//! encodes its home shard ([`shard_of_id`]), new objects are routed
//! round-robin across shards (or placed explicitly with
//! [`ShardedStm::new_tvar_on`]), and each shard draws ids from its own
//! block-allocated sequence — there is no global `next_obj` hot line. Each
//! registered thread carries one time-base clock *per shard*
//! ([`lsa_time::ShardedClock`]), so a shard's arbitration state (reserved
//! timestamp blocks, modeled NUMA cache-line ownership) is private to that
//! shard.
//!
//! ## Commit protocol
//!
//! The transaction machinery is the unmodified LSA algorithm
//! ([`crate::lsa::Txn`]); sharding changes *where commit timestamps come
//! from*, not how snapshots are built:
//!
//! * **Single-shard transactions** (the common case in partitioned
//!   workloads) arbitrate their commit timestamp on the one shard they
//!   touched — shard-local arbitration, nothing else pays for it.
//! * **Cross-shard transactions** escalate to a two-phase protocol driven by
//!   the [`lsa_time::TouchSet`] the runtime fills as objects are opened:
//!   the composite clock acquires a commit timestamp from *every* touched
//!   shard in ascending order, chaining each result into the next
//!   acquisition's floor, so the final timestamp dominates all per-shard
//!   acquisitions and every touched shard's frontier has been pushed above
//!   it. The read set (spanning all touched shards) is then validated at
//!   that single commit time, and the writes publish atomically through the
//!   existing status-word commit — one CAS decides every shard's
//!   speculative version at once, so no reader can observe a cross-shard
//!   commit half-applied.
//!
//! **What carries the soundness argument.** All shards share one *time
//! domain* (see `lsa_time::sharded` for why fully independent per-shard
//! counters would be unsound for LSA's forward validity claims), and it is
//! this single-domain property — every commit timestamp strictly exceeds
//! everything previously readable, on any shard — that [`ShardedStm`]'s
//! opacity rests on; it inherits LSA's argument verbatim. The per-shard
//! acquisitions are *structure*, not the proof: they route arbitration
//! state (block reservations, NUMA line ownership) per shard and push the
//! touched shards' frontiers, but a commit timestamp arbitrated on any one
//! shard's clock would already be sound. This matters on the helping path:
//! a stalled committer's timestamp may be installed by a helper whose own
//! clock arbitrates over the *helper's* touched shards (Algorithm 2 lines
//! 41–42 race), which is sound precisely because the domain is shared — a
//! design that moved to genuinely per-shard frontiers would first have to
//! propagate the writer's shard set to helpers (see the ROADMAP item).
//!
//! Cross-shard commits are counted in
//! [`crate::stats::TxnStats::cross_shard_commits`] and surface in the
//! harness matrix as `xshard/commit`.

use crate::alloc::BlockAlloc;
use crate::cm::{ContentionManager, Polite};
use crate::config::StmConfig;
use crate::error::{Abort, TxResult};
use crate::lsa::Txn;
use crate::object::{TObject, TVar};
use crate::reclaim::{ReclaimDomain, ReclaimStats};
use crate::stats::TxnStats;
use crate::stm::{next_instance, run_attempts, AttemptView, HandleCore};
use lsa_time::sharded::{ShardedTimeBase, TouchSet};
use lsa_time::{ThreadClock, TimeBase, Timestamp};
use std::sync::Arc;

/// Bits of an object id reserved for the home shard (supports
/// [`lsa_time::sharded::MAX_SHARDS`] = 64 shards).
const SHARD_BITS: u32 = 6;
/// Bits for the per-shard object sequence.
const SEQ_BITS: u32 = 34;

/// The home shard encoded in a [`ShardedStm`] object id.
#[inline]
pub fn shard_of_id(id: u64) -> usize {
    ((id >> SEQ_BITS) & ((1 << SHARD_BITS) - 1)) as usize
}

struct ShardedInner<B: TimeBase> {
    tb: ShardedTimeBase<B>,
    cfg: StmConfig,
    cm: Box<dyn ContentionManager>,
    instance: u32,
    /// Round-robin routing cursor (thread-cached blocks of one full rotation
    /// each, so a single thread's consecutive allocations still cover every
    /// shard once per rotation).
    route: BlockAlloc,
    /// Per-shard object-id sequences — the sharded replacement for the
    /// global `next_obj` line.
    shard_seq: Vec<BlockAlloc>,
    next_handle: BlockAlloc,
    birth_counter: BlockAlloc,
    /// One reclamation domain for the whole runtime: a transaction has a
    /// single snapshot lower bound no matter how many shards it touches, and
    /// folds read the watermark from their handle's copy, so there is no
    /// per-shard line to keep apart ([`crate::reclaim`]).
    reclaim: Arc<ReclaimDomain<B::Ts>>,
}

/// The sharded LSA software transactional memory runtime.
pub struct ShardedStm<B: TimeBase> {
    inner: Arc<ShardedInner<B>>,
}

impl<B: TimeBase> Clone for ShardedStm<B> {
    fn clone(&self) -> Self {
        ShardedStm {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<B: TimeBase> ShardedStm<B> {
    /// Runtime with `shards` object shards on `tb`, the default
    /// configuration and the [`Polite`] contention manager.
    ///
    /// # Panics
    /// Panics if `shards` is outside `1..=64`, or if `tb`'s advertised
    /// guarantees do not survive sharded composition (non-unique block
    /// domains, non-commit-monotonic arbitration) — see
    /// [`ShardedTimeBase::new`].
    pub fn new(tb: B, shards: usize) -> Self {
        Self::with_cm(tb, shards, StmConfig::default(), Polite::default())
    }

    /// Runtime with a custom configuration.
    pub fn with_config(tb: B, shards: usize, cfg: StmConfig) -> Self {
        Self::with_cm(tb, shards, cfg, Polite::default())
    }

    /// Runtime with custom configuration and contention manager. The
    /// composite time base performs the capability checks (LSA's
    /// commit-monotonicity requirement included — the composite refuses
    /// non-monotonic bases for its own composition reasons, which subsumes
    /// the engine's).
    pub fn with_cm(tb: B, shards: usize, cfg: StmConfig, cm: impl ContentionManager) -> Self {
        let tb = ShardedTimeBase::new(tb, shards);
        ShardedStm {
            inner: Arc::new(ShardedInner {
                cfg,
                cm: Box::new(cm),
                instance: next_instance(),
                route: BlockAlloc::new(0, shards as u64),
                shard_seq: (0..shards).map(|_| BlockAlloc::new(1, 64)).collect(),
                next_handle: BlockAlloc::new(1, 8),
                birth_counter: BlockAlloc::new(1, 16),
                reclaim: Arc::new(ReclaimDomain::new()),
                tb,
            }),
        }
    }

    /// Point-in-time snapshot of the version-store gauges (see
    /// [`crate::stm::Stm::reclaim_stats`]).
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.inner.reclaim.stats()
    }

    /// Force a watermark advance (see [`crate::stm::Stm::reclaim_quiesce`]).
    #[doc(hidden)]
    pub fn reclaim_quiesce(&self) {
        let mut clock = self.inner.tb.register_thread();
        self.inner.reclaim.advance(clock.get_time());
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &StmConfig {
        &self.inner.cfg
    }

    /// The composite time base.
    pub fn time_base(&self) -> &ShardedTimeBase<B> {
        &self.inner.tb
    }

    /// Number of object shards.
    pub fn shard_count(&self) -> usize {
        self.inner.tb.shards()
    }

    /// Name of the contention-management policy in use.
    pub fn cm_name(&self) -> &'static str {
        self.inner.cm.name()
    }

    /// Create a transactional variable, routed round-robin across shards.
    pub fn new_tvar<T: Send + Sync + 'static>(&self, value: T) -> TVar<T, B::Ts> {
        let shard = (self.inner.route.alloc() % self.shard_count() as u64) as usize;
        self.new_tvar_on(shard, value)
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
        let seq = self.inner.shard_seq[shard].alloc();
        debug_assert!(seq < 1 << SEQ_BITS, "per-shard id space exhausted");
        let id = ((self.inner.instance as u64) << (SHARD_BITS + SEQ_BITS))
            | ((shard as u64) << SEQ_BITS)
            | seq;
        TVar::from_object(TObject::with_reclaim(
            id,
            value,
            <B::Ts as Timestamp>::origin(),
            self.inner.cfg.max_versions,
            Arc::clone(&self.inner.reclaim),
            self.inner.cfg.watermark_pruning,
        ))
    }

    /// Home shard of a variable created by this runtime.
    pub fn shard_of<T: Send + Sync + 'static>(&self, var: &TVar<T, B::Ts>) -> usize {
        shard_of_id(var.id())
    }

    /// Register the calling thread: allocates its per-shard clocks, stats,
    /// snapshot-registration slot, transaction scratch and share of the
    /// reclamation domain.
    pub fn register(&self) -> ShardedHandle<B> {
        let clock = self.inner.tb.register_thread();
        ShardedHandle {
            touch: clock.touch_set(),
            core: HandleCore::new(self.inner.next_handle.alloc(), clock, &self.inner.reclaim),
            stm: self.clone(),
        }
    }
}

/// A registered thread's gateway to running sharded transactions.
pub struct ShardedHandle<B: TimeBase> {
    stm: ShardedStm<B>,
    core: HandleCore<ShardedTimeBase<B>>,
    /// Shard-selection mask shared with the clock: filled as the transaction
    /// opens objects, consumed by the commit arbitration.
    touch: TouchSet,
}

impl<B: TimeBase> ShardedHandle<B> {
    /// The owning runtime.
    pub fn stm(&self) -> &ShardedStm<B> {
        &self.stm
    }

    /// Statistics accumulated by this thread so far.
    pub fn stats(&self) -> &TxnStats {
        &self.core.stats
    }

    /// Take (and reset) the accumulated statistics.
    pub fn take_stats(&mut self) -> TxnStats {
        std::mem::take(&mut self.core.stats)
    }

    /// Commit time of this thread's most recent committed update
    /// transaction (see [`crate::stm::ThreadHandle::last_commit_time`]).
    pub fn last_commit_time(&self) -> Option<B::Ts> {
        self.core.last_commit_time
    }

    /// Run `body` as a transaction, retrying on abort until it commits
    /// (see [`crate::stm::ThreadHandle::atomically`] for the contract).
    /// Single-shard bodies commit with shard-local arbitration; bodies that
    /// touch several shards escalate to the cross-shard protocol described
    /// in the module docs.
    pub fn atomically<R>(&mut self, body: impl FnMut(&mut ShardedTxn<'_, B>) -> TxResult<R>) -> R {
        let inner = &self.stm.inner;
        let mut stx = ShardedTxn {
            txn: Txn::new(
                &inner.cfg,
                inner.cm.as_ref(),
                &inner.birth_counter,
                &mut self.core,
            ),
            touch: &self.touch,
        };
        let Ok((value, ct)) = run_attempts(&mut stx, None, body) else {
            unreachable!("unbounded attempts end in a commit")
        };
        drop(stx);
        // The mask is still set from the committed attempt.
        if ct.is_some() && self.touch.count() >= 2 {
            self.core.stats.cross_shard_commits += 1;
        }
        self.core.maintain_watermark(inner.cfg.wm_advance_interval);
        value
    }
}

/// An executing sharded transaction: the LSA transaction plus shard
/// tracking. Every open marks the object's home shard in the shared
/// [`TouchSet`] *before* delegating, so helping and commit arbitration see
/// the shard as selected from the first access on.
pub struct ShardedTxn<'h, B: TimeBase> {
    txn: Txn<'h, ShardedTimeBase<B>>,
    touch: &'h TouchSet,
}

impl<'h, B: TimeBase> AttemptView<'h, ShardedTimeBase<B>> for ShardedTxn<'h, B> {
    fn txn(&mut self) -> &mut Txn<'h, ShardedTimeBase<B>> {
        &mut self.txn
    }

    /// A fresh attempt selects its shards from scratch (and disarms any
    /// leftover commit flag). The failed attempt's mask stays set until
    /// here, so its abort feedback reaches the clocks of the shards it
    /// touched.
    fn before_attempt(&mut self) {
        self.touch.clear();
    }

    /// An update's commit acquisition (the next arbitration on this clock)
    /// must chain through every touched shard; helper/prelim arbitrations
    /// stay single-shard.
    fn before_commit(&mut self) {
        if self.txn.is_update() {
            self.touch.arm_commit();
        }
    }
}

impl<B: TimeBase> ShardedTxn<'_, B> {
    /// Unique id of this transaction attempt.
    pub fn id(&self) -> u64 {
        self.txn.id()
    }

    /// Whether the transaction has written anything yet.
    pub fn is_update(&self) -> bool {
        self.txn.is_update()
    }

    /// Number of distinct shards this transaction has touched so far.
    pub fn shards_touched(&self) -> u32 {
        self.touch.count()
    }

    /// Abort deliberately; the retry loop will re-run the body.
    pub fn abort_retry(&mut self) -> Abort {
        self.txn.abort_retry()
    }

    /// Transactional read (see [`Txn::read`]).
    pub fn read<T: Send + Sync + 'static>(&mut self, var: &TVar<T, B::Ts>) -> TxResult<Arc<T>> {
        self.touch.touch(shard_of_id(var.id()));
        self.txn.read(var)
    }

    /// Transactional write (see [`Txn::write`]).
    pub fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T, B::Ts>,
        value: T,
    ) -> TxResult<()> {
        self.touch.touch(shard_of_id(var.id()));
        self.txn.write(var, value)
    }

    /// Read-modify-write convenience (see [`Txn::modify`]).
    pub fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T, B::Ts>,
        f: impl FnOnce(&T) -> T,
    ) -> TxResult<()> {
        self.touch.touch(shard_of_id(var.id()));
        self.txn.modify(var, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_time::counter::{BlockCounter, SharedCounter};

    #[test]
    fn round_robin_routing_covers_all_shards() {
        let stm = ShardedStm::new(SharedCounter::new(), 4);
        let shards: Vec<usize> = (0..8).map(|i| stm.shard_of(&stm.new_tvar(i))).collect();
        // One full rotation per 4 allocations, single-threaded.
        assert_eq!(&shards[0..4], &[0, 1, 2, 3]);
        assert_eq!(&shards[4..8], &[0, 1, 2, 3]);
    }

    #[test]
    fn explicit_placement_and_id_encoding_agree() {
        let stm = ShardedStm::new(SharedCounter::new(), 8);
        for shard in 0..8 {
            let v = stm.new_tvar_on(shard, 0u8);
            assert_eq!(stm.shard_of(&v), shard);
            assert_eq!(shard_of_id(v.id()), shard);
        }
    }

    #[test]
    fn per_shard_id_spaces_are_disjoint() {
        let stm = ShardedStm::new(SharedCounter::new(), 8);
        let mut ids: Vec<u64> = (0..400).map(|i| stm.new_tvar(i).id()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(n, ids.len(), "object ids must be unique across shards");
    }

    #[test]
    fn single_shard_txn_commits_without_cross_shard_escalation() {
        let stm = ShardedStm::new(SharedCounter::new(), 4);
        let x = stm.new_tvar_on(2, 1i64);
        let mut h = stm.register();
        let seen = h.atomically(|tx| {
            let v = tx.read(&x)?;
            tx.write(&x, *v + 41)?;
            tx.read(&x).map(|v| *v)
        });
        assert_eq!(seen, 42);
        assert_eq!(h.stats().commits, 1);
        assert_eq!(h.stats().cross_shard_commits, 0);
    }

    #[test]
    fn cross_shard_txn_is_counted_and_atomic() {
        let stm = ShardedStm::new(BlockCounter::new(8), 4);
        let a = stm.new_tvar_on(0, 100i64);
        let b = stm.new_tvar_on(3, 0i64);
        let mut h = stm.register();
        h.atomically(|tx| {
            assert_eq!(tx.shards_touched(), 0);
            let va = *tx.read(&a)?;
            assert_eq!(tx.shards_touched(), 1);
            let vb = *tx.read(&b)?;
            assert_eq!(tx.shards_touched(), 2);
            tx.write(&a, va - 30)?;
            tx.write(&b, vb + 30)
        });
        assert_eq!(h.stats().commits, 1);
        assert_eq!(h.stats().cross_shard_commits, 1);
        assert_eq!(*a.snapshot_latest(), 70);
        assert_eq!(*b.snapshot_latest(), 30);
    }

    #[test]
    fn read_only_cross_shard_txns_are_not_counted_as_commits() {
        let stm = ShardedStm::new(SharedCounter::new(), 2);
        let a = stm.new_tvar_on(0, 1u64);
        let b = stm.new_tvar_on(1, 2u64);
        let mut h = stm.register();
        let sum = h.atomically(|tx| Ok(*tx.read(&a)? + *tx.read(&b)?));
        assert_eq!(sum, 3);
        assert_eq!(h.stats().ro_commits, 1);
        assert_eq!(h.stats().cross_shard_commits, 0);
    }

    #[test]
    fn cross_shard_audits_always_see_consistent_totals() {
        // The torn-cut hazard the one-domain composite exists to prevent:
        // transfers span shards while auditors sum both — no audit may ever
        // observe a half-applied cross-shard commit.
        let stm = ShardedStm::new(BlockCounter::new(8), 4);
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
        let stm = ShardedStm::new(SharedCounter::new(), 8);
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
        let _ = ShardedStm::new(lsa_time::counter::Gv5Counter::new(), 4);
    }

    #[test]
    #[should_panic(expected = "shard 9 out of range")]
    fn explicit_placement_bounds_checked() {
        let stm = ShardedStm::new(SharedCounter::new(), 4);
        let _ = stm.new_tvar_on(9, 0u8);
    }
}
