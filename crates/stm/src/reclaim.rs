//! Epoch-based version reclamation: snapshot watermarks + an arena-backed
//! version-node allocator.
//!
//! The fixed-depth version chains of earlier revisions were policy-blind:
//! `max_versions` too small starves long readers (`NoVersion` aborts),
//! too large wastes memory on versions nobody can read. This module converts
//! depth policy into *demand*: an object may prune every version whose
//! validity range ends below the **minimum-active-snapshot watermark** — the
//! `min` (timestamp [`meet`](lsa_time::Timestamp::meet)) over the snapshot
//! lower bounds of all live transactions.
//!
//! ## The watermark protocol
//!
//! Each registered thread owns one [`SnapshotSlot`]: a state byte (`idle` /
//! `pending` / `active` / `closed`) and a timestamp cell
//! ([`lsa_time::TsCell`]). A transaction publishes its snapshot lower bound
//! into its slot at begin and clears it at finish. The watermark is advanced
//! *lazily* — amortized over commits, no dedicated thread — by scanning the
//! slots and caching the result in the [`ReclaimDomain`]. Only the owning
//! thread writes a slot, with plain stores, and only the advancing thread
//! reads it: no lock, no read-modify-write and no new *global* hot cache
//! line on the per-transaction path — the same contention argument the paper
//! makes for its time bases (§4.2): the shared state is touched once per
//! *advance interval*, not once per transaction.
//!
//! The begin protocol is two-phase: a slot is first marked *pending*, then
//! the clock is read and the slot activated with the observed start time.
//! A pending slot blocks watermark advancement entirely. Without this, an
//! advance racing a begin could compute a watermark *after* the beginning
//! transaction read an earlier start time but *before* it published it —
//! and the stale watermark would overshoot that transaction's snapshot.
//!
//! ### Why no installed watermark is later than a live snapshot
//!
//! The owner `B` runs `state ← pending; fence; S ← clock; lower ← S;
//! state ← active (release)` and, at the end, `state ← idle (release)`. The
//! advancer `A` runs `now ← clock; fence; for each slot: look` and installs
//! `W = meet(now, bounds of the slots found active)`, or nothing if a slot
//! was pending. Both fences are `SeqCst`. Take `A`'s look at `B`'s slot:
//!
//! * **pending** — nothing is installed.
//! * **active**, bound `L` read, state re-read: still active → `W ≼ L`. The
//!   owner may have finished and begun again between the three loads, so
//!   `L` may belong to an earlier transaction than the one live at the
//!   re-read — but one thread's start times only grow, so it is no later
//!   than the live one's. (The release store of `active` after the cell
//!   write, and the acquire load of it before the cell read, make the cell
//!   hold a bound that was published whole.) Re-read pending → nothing is
//!   installed. Re-read idle → as below.
//! * **idle** (or closed): the look precedes the `pending` store of every
//!   later begin in the byte's modification order. Suppose such a begin
//!   read a start time `S` that `now` is possibly later than, i.e. its
//!   clock reading is ordered before `A`'s in the clock's own history. `A`'s
//!   fence sits between its clock reading and its look; `B`'s sits between
//!   its store and its clock reading. "Look before store" puts `A`'s fence
//!   before `B`'s in the single order of `SeqCst` fences, "reading before
//!   reading" puts `B`'s before `A`'s — a contradiction. (A read-modify-write
//!   on the byte would order the two on x86, where it is a full barrier;
//!   the language's model orders a later load of *another* location only
//!   against a fence, and the clocks read with `Acquire`.) So `S ≽ now ≽ W`.
//!   Clocks that are not memory (`PerfectClock`, `ExternalClock`) are read
//!   at an instant after `B`'s fence retires, respectively before `A`'s.
//!
//! `now` is part of the `meet` for that last case: a slot the scan has yet
//! to visit may carry a start time later than a transaction that began
//! behind the scan, and only `now` bounds the latter.
//!
//! ## What a commit touches
//!
//! Everything a fold needs from this module comes out of the folding
//! thread's own [`LocalReclaim`] — its share of the domain, owned by its
//! handle: the handle's statistics shard (`lsa_engine::StatsShard`, which
//! carries the version gauges beside the engine counters), the
//! version-node pool, and a copy of the watermark. The one domain word a
//! commit *reads* is the `epoch`, on a cache line of its own that is
//! written only by an advance (once per `wm_advance_interval` commits per
//! thread). Two disjoint commits therefore
//! write no common line in here; the time base stays the only one they
//! share, which is the paper's premise.
//!
//! The cached watermark is re-read whenever the epoch has moved, and every
//! install bumps the epoch *after* storing the watermark. A fold syncs
//! before it prunes, so it prunes against the watermark of the newest epoch
//! it can observe — exactly what reading the domain's lock at that point
//! returned. (A copy that lags is harmless in any case: watermarks only
//! grow, an older one prunes less.)
//!
//! Gauges live in the handles' statistics shards: written privately,
//! summed only by [`ReclaimDomain::stats`] over the domain's
//! `lsa_engine::StatsDomain`, which keeps a dropped handle's counts. Totals
//! are exact once writers have stopped and every monotone counter is
//! monotone while they run; `live` is a sum of per-shard deltas read one
//! after the other and may be off by the folds in flight during the scan.
//!
//! ## Why pruning is safe, and what reuse needs
//!
//! Pruning never breaks opacity: readers keep the version node — bounds and
//! payload — in their read sets, so unlinking a version from its chain only
//! limits *future* reads (availability). The watermark makes even that loss impossible for
//! registered snapshots: a pruned version has a fixed upper bound `u` with
//! `w ≿ u` (`w.possibly_later(u)`), and every active snapshot lower bound
//! `s` satisfies `s ≽ w` by the `meet` contract, so `u ≽ s` would imply
//! `u ≽ w` — contradiction. Hence no version readable by any registered
//! active snapshot is ever pruned.
//!
//! *Reuse* of a version node is the safety-critical part, and it rests on
//! two independent guards: (1) a node is only pooled when `Arc::get_mut`
//! proves the chain held the last reference (a node still referenced by any
//! reader is dropped normally instead — what the reader holds stays frozen
//! forever), and that exclusive access also empties it, so no pooled node
//! keeps a payload or an object alive; (2) pooled nodes are epoch-stamped at retirement and handed out
//! again only after the watermark has advanced past that epoch, so even the
//! *timing* of reuse is tied to snapshot progress. A fold that links the
//! node it prunes again, as the same object's next version, never pools it:
//! guard (1) and the object's write lock, held across both, are the whole
//! argument, and the node skips the epoch wait. See DESIGN.md §11.

use crate::version::VersionMeta;
use lsa_engine::{MemoryStats, Stat, StatsDomain, StatsShard};
use lsa_time::{Timestamp, TsCell};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Maximum recycled version nodes cached per [`LocalReclaim`]. A node waits
/// out the epoch it was retired in, so around an advance the pool carries
/// two epochs' worth — the one being handed out and the one filling up.
/// 128 is that for two-write commits at the default advance interval;
/// smaller, and the burst of retirements a fresh watermark releases spills
/// to the allocator every other epoch.
const POOL_CAP: usize = 128;

/// No transaction is live on the slot's owner.
const IDLE: u8 = 0;
/// A transaction is between "begin" and "start time published": blocks
/// watermark advancement (see the module docs).
const PENDING: u8 = 1;
/// A transaction is live; its snapshot lower bound is in the slot's cell.
const ACTIVE: u8 = 2;
/// The owning thread handle was dropped; the slot may be reused by the next
/// registration.
const CLOSED: u8 = 3;

/// One thread's snapshot registration slot: a state byte and the timestamp
/// cell holding the live transaction's snapshot lower bound.
///
/// Written only by the owning thread (begin/finish) with plain stores, read
/// by whichever thread happens to advance the watermark — no lock and no
/// read-modify-write on the transaction path (hence the alignment: two
/// threads' slots never share a cache line). The one contended transition
/// is claiming a closed slot at registration.
#[derive(Debug)]
#[repr(align(128))]
pub struct SnapshotSlot<Ts: Timestamp> {
    state: AtomicU8,
    /// Meaningful while `state` is `ACTIVE`; otherwise the last
    /// transaction's bound, which nobody reads.
    lower: Ts::Cell,
}

/// What a watermark scan learns from one slot.
enum Sampled<Ts> {
    /// No live transaction: nothing to respect.
    Idle,
    /// A live transaction with this snapshot lower bound.
    Active(Ts),
    /// A begin is in flight: the scan must give up.
    Pending,
}

impl<Ts: Timestamp> SnapshotSlot<Ts> {
    fn new() -> Self {
        SnapshotSlot {
            state: AtomicU8::new(IDLE),
            lower: Ts::Cell::default(),
        }
    }

    /// Phase 1 of begin: announce that a snapshot lower bound is about to be
    /// published, blocking watermark advancement until it is. The caller
    /// reads its clock next; the fence orders the announcement before that
    /// reading (store → load, see the module docs).
    pub(crate) fn mark_pending(&self) {
        self.state.store(PENDING, Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// Phase 2 of begin: publish the transaction's snapshot lower bound.
    pub(crate) fn activate(&self, lower: Ts) {
        self.lower.put(Some(lower));
        self.state.store(ACTIVE, Ordering::Release);
    }

    /// The owning transaction finished (committed or aborted): release the
    /// snapshot so the watermark may pass it.
    pub(crate) fn clear(&self) {
        self.state.store(IDLE, Ordering::Release);
    }

    /// The owning thread handle is gone: free the slot for reuse.
    pub(crate) fn close(&self) {
        self.state.store(CLOSED, Ordering::Release);
    }

    fn reopen(&self) -> bool {
        self.state
            .compare_exchange(CLOSED, IDLE, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// One slot's contribution to a watermark scan.
    fn sample(&self) -> Sampled<Ts> {
        match self.state.load(Ordering::Acquire) {
            PENDING => Sampled::Pending,
            ACTIVE => self.confirm(self.lower.get().expect("an active slot has a bound")),
            _ => Sampled::Idle,
        }
    }

    /// The second look at a slot found active, after its bound was read:
    /// the owner may have finished that transaction and begun the next in
    /// between. Whichever of its bounds was read is no later than its next
    /// start time, so an active slot contributes it; a begin in flight
    /// blocks the advance here as it does on the first look, and a slot
    /// found idle counts as idle.
    fn confirm(&self, lower: Ts) -> Sampled<Ts> {
        match self.state.load(Ordering::Acquire) {
            ACTIVE => Sampled::Active(lower),
            PENDING => Sampled::Pending,
            _ => Sampled::Idle,
        }
    }
}

/// The registry of [`SnapshotSlot`]s for one runtime.
#[derive(Debug)]
pub struct SnapshotRegistry<Ts: Timestamp> {
    slots: RwLock<Vec<Arc<SnapshotSlot<Ts>>>>,
}

impl<Ts: Timestamp> SnapshotRegistry<Ts> {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        SnapshotRegistry {
            slots: RwLock::new(Vec::new()),
        }
    }

    /// Claim a slot for a newly registered thread, reusing a closed one when
    /// available so the scan length is bounded by the peak number of
    /// concurrently registered threads.
    pub(crate) fn register(&self) -> Arc<SnapshotSlot<Ts>> {
        {
            let slots = self.slots.read();
            for slot in slots.iter() {
                if slot.reopen() {
                    return Arc::clone(slot);
                }
            }
        }
        let slot = Arc::new(SnapshotSlot::new());
        self.slots.write().push(Arc::clone(&slot));
        slot
    }

    /// The watermark candidate: the `meet` of `now` — a reading of the
    /// caller's clock taken before the call — and all active snapshot lower
    /// bounds, or `None` when a pending slot forbids advancing at all.
    pub(crate) fn min_active_or(&self, now: Ts) -> Option<Ts> {
        // Orders the caller's reading of `now` before the slot loads below
        // (load → load across the two locations; pairs with the fence in
        // `SnapshotSlot::mark_pending`).
        fence(Ordering::SeqCst);
        let slots = self.slots.read();
        let mut wm = now;
        for slot in slots.iter() {
            match slot.sample() {
                Sampled::Idle => {}
                Sampled::Active(lower) => wm = wm.meet(lower),
                Sampled::Pending => return None,
            }
        }
        Some(wm)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.read().len()
    }
}

/// The reuse epoch, alone on its line: every commit reads it, only an
/// advance writes it.
#[derive(Debug)]
#[repr(align(128))]
struct Epoch(AtomicU64);

/// One runtime's reclamation domain: the snapshot registry, the watermark
/// and the statistics shards the version gauges are summed over. A runtime
/// owns exactly one; fold-time watermark reads are served from each
/// handle's copy and never reach the domain.
#[derive(Debug)]
pub struct ReclaimDomain<Ts: Timestamp> {
    registry: SnapshotRegistry<Ts>,
    /// Bumped by every watermark advance, after the watermark is stored: a
    /// cached watermark is current while the epoch it was read at is, and a
    /// pooled node is handed out again only when the epoch is strictly past
    /// its retirement stamp.
    epoch: Epoch,
    /// The watermark: `None` until the first advance (prune nothing —
    /// maximally conservative).
    watermark: Mutex<Option<Ts>>,
    lag_raw: AtomicU64,
    /// Initial versions of the objects created on this domain (object
    /// creation has no handle, so these are counted here).
    seeded: AtomicU64,
    /// The live handles' statistics shards and what dropped ones counted.
    pub(crate) shards: StatsDomain,
}

impl<Ts: Timestamp> ReclaimDomain<Ts> {
    /// A domain with an empty registry and no watermark yet.
    pub(crate) fn new() -> Self {
        ReclaimDomain {
            registry: SnapshotRegistry::new(),
            epoch: Epoch(AtomicU64::new(1)),
            watermark: Mutex::new(None),
            lag_raw: AtomicU64::new(0),
            seeded: AtomicU64::new(0),
            shards: StatsDomain::default(),
        }
    }

    /// The registry of snapshot slots feeding the watermark.
    pub(crate) fn registry(&self) -> &SnapshotRegistry<Ts> {
        &self.registry
    }

    /// The minimum-active-snapshot watermark, if one has been computed yet.
    pub(crate) fn watermark(&self) -> Option<Ts> {
        *self.watermark.lock()
    }

    /// Recompute the watermark from the registry and install it; `false`
    /// when a pending slot forbade it. `now` is a fresh reading of the
    /// advancing thread's clock: the fallback watermark when no snapshot is
    /// active, and the reference point for the lag gauge.
    pub(crate) fn advance(&self, now: Ts) -> bool {
        let Some(wm) = self.registry.min_active_or(now) else {
            return false;
        };
        *self.watermark.lock() = Some(wm);
        let lag = (now.raw_value() - wm.raw_value()).clamp(0, u64::MAX as i128) as u64;
        self.lag_raw.store(lag, Ordering::Relaxed);
        self.epoch.0.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Account the initial version of a new object.
    pub(crate) fn note_seeded(&self) {
        self.seeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of the version gauges, summed over the
    /// handles' shards (dropped ones included).
    pub fn stats(&self) -> MemoryStats {
        let totals = self.shards.totals();
        totals.add(Stat::VersionsLive, self.seeded.load(Ordering::Relaxed));
        let mut m = totals.memory();
        // The node + the Arc's strong/weak counts that precede it.
        let node_bytes =
            (std::mem::size_of::<VersionMeta<Ts>>() + 2 * std::mem::size_of::<usize>()) as u64;
        m.arena_bytes = (m.versions_live + m.versions_pooled) * node_bytes;
        m.watermark_lag = self.lag_raw.load(Ordering::Relaxed);
        m
    }
}

/// One thread's share of a [`ReclaimDomain`], owned by its handle: the
/// statistics shard it alone writes, its pool of recycled version nodes,
/// and its copy of the watermark — everything a fold needs, so that folding touches no
/// domain line another thread writes (see the module docs).
#[derive(Debug)]
pub struct LocalReclaim<Ts: Timestamp> {
    domain: Arc<ReclaimDomain<Ts>>,
    /// The handle's statistics shard: engine counters and version gauges.
    pub(crate) stats: Arc<StatsShard>,
    /// Retired nodes awaiting reuse, `(retirement epoch, node)`, oldest
    /// first.
    pool: VecDeque<(u64, Arc<VersionMeta<Ts>>)>,
    /// The domain epoch `watermark` was read at.
    epoch: u64,
    watermark: Option<Ts>,
}

impl<Ts: Timestamp> LocalReclaim<Ts> {
    /// A share of `domain` with an empty pool.
    pub(crate) fn new(domain: &Arc<ReclaimDomain<Ts>>) -> Self {
        let mut share = LocalReclaim {
            domain: Arc::clone(domain),
            stats: domain.shards.claim(),
            pool: VecDeque::new(),
            epoch: 0, // behind every real epoch
            watermark: None,
        };
        share.sync();
        share
    }

    /// Whether this is a share of `domain`.
    pub(crate) fn serves(&self, domain: &Arc<ReclaimDomain<Ts>>) -> bool {
        Arc::ptr_eq(&self.domain, domain)
    }

    /// Bring the watermark copy up to the domain's current epoch. Objects
    /// call this once before they allocate or fold.
    pub(crate) fn sync(&mut self) {
        let epoch = self.domain.epoch.0.load(Ordering::Acquire);
        if epoch != self.epoch {
            self.watermark = self.domain.watermark();
            self.epoch = epoch;
        }
    }

    /// The watermark as of the last [`sync`](Self::sync).
    pub(crate) fn watermark(&self) -> Option<Ts> {
        self.watermark
    }

    /// Advance the domain's watermark ([`ReclaimDomain::advance`]); `true`
    /// when one was installed, which this copy then reflects and the shard
    /// counts.
    pub(crate) fn advance(&mut self, now: Ts) -> bool {
        let installed = self.domain.advance(now);
        if installed {
            self.stats.inc(Stat::WmAdvances);
            self.sync();
        }
        installed
    }

    /// The node for a fold's new version when it recycles none of its own
    /// ([`note_recycled`](Self::note_recycled)): from the pool when one
    /// retired before the current epoch is available. Pooled nodes were
    /// reset when they were retired, so this is a pop.
    pub(crate) fn alloc_meta(&mut self) -> Arc<VersionMeta<Ts>> {
        // Oldest stamp first: if even the front is too fresh, so is the
        // rest of the queue.
        if !matches!(self.pool.front(), Some((stamp, _)) if *stamp < self.epoch) {
            return Arc::new(VersionMeta::speculative());
        }
        let (_, meta) = self.pool.pop_front().expect("front() was Some");
        self.stats.sub(Stat::VersionsPooled, 1);
        self.stats.inc(Stat::VersionsReclaimed);
        self.stats.inc(Stat::VersionsRecycled);
        meta
    }

    /// A version was linked into a chain.
    pub(crate) fn note_live(&self) {
        self.stats.inc(Stat::VersionsLive);
    }

    /// A fold pruned a version and linked its node again as the same
    /// object's new version ([`VersionMeta::recommit`]): retired, reclaimed
    /// and recycled at once, never pooled, and `live` stays — one version
    /// left the chain, one joined it. The fold's `Arc::get_mut` under the
    /// object's write lock is all such a reuse needs (guard 1 of the module
    /// docs), so it does not wait out an epoch.
    pub(crate) fn note_recycled(&self) {
        self.stats.inc(Stat::VersionsRetired);
        self.stats.inc(Stat::VersionsReclaimed);
        self.stats.inc(Stat::VersionsRecycled);
    }

    /// A version was unlinked from its chain. Pools the node for reuse when
    /// the chain held the last reference (the uniqueness proof that makes
    /// recycling safe), resetting it through that same exclusive access: the
    /// payload and the back-reference go now, not when the node is next
    /// handed out, so the pool holds empty nodes only. Otherwise the
    /// surviving readers' `Arc` frees node and payload.
    pub(crate) fn retire(&mut self, mut meta: Arc<VersionMeta<Ts>>) {
        self.stats.sub(Stat::VersionsLive, 1);
        self.stats.inc(Stat::VersionsRetired);
        // A node shared with a read set is never pooled: the last reader
        // drops it. Like a node the full pool turns away, it counts as
        // reclaimed — the arena releases its claim.
        match Arc::get_mut(&mut meta) {
            Some(node) if self.pool.len() < POOL_CAP => {
                node.reset();
                self.pool.push_back((self.epoch, meta));
                self.stats.inc(Stat::VersionsPooled);
            }
            _ => self.stats.inc(Stat::VersionsReclaimed),
        }
    }
}

impl<Ts: Timestamp> Drop for LocalReclaim<Ts> {
    fn drop(&mut self) {
        // The pooled nodes are freed with the pool: account them released,
        // so `retired == reclaimed` once every handle is gone, then hand the
        // counts to the domain.
        let n = self.pool.len() as u64;
        self.stats.sub(Stat::VersionsPooled, n);
        self.stats.add(Stat::VersionsReclaimed, n);
        self.domain.shards.release(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> (Arc<ReclaimDomain<u64>>, LocalReclaim<u64>) {
        let dom = Arc::new(ReclaimDomain::new());
        let local = LocalReclaim::new(&dom);
        (dom, local)
    }

    #[test]
    fn watermark_is_min_over_active_slots() {
        let reg = SnapshotRegistry::new();
        let a = reg.register();
        let b = reg.register();
        a.activate(5);
        b.activate(9);
        assert_eq!(reg.min_active_or(100), Some(5));
        a.clear();
        assert_eq!(reg.min_active_or(100), Some(9));
        b.clear();
        assert_eq!(reg.min_active_or(100), Some(100), "idle registry: now");
    }

    #[test]
    fn pending_slot_blocks_advancement() {
        let (dom, mut local) = domain();
        let a = dom.registry().register();
        a.mark_pending();
        assert_eq!(dom.registry().min_active_or(50), None, "pending blocks");
        assert!(!local.advance(50));
        assert_eq!(dom.watermark(), None, "blocked advance installs nothing");
        assert_eq!(local.stats.get(Stat::WmAdvances), 0);
        a.activate(42);
        assert!(local.advance(50));
        assert_eq!(dom.watermark(), Some(42));
        assert_eq!(local.watermark(), Some(42), "the advancer's copy follows");
    }

    #[test]
    fn a_begin_that_races_the_bound_read_blocks_the_advance() {
        let reg = SnapshotRegistry::new();
        let a = reg.register();
        a.activate(5);
        // A scan looks at the slot, finds it active and reads its bound …
        let lower = match a.sample() {
            Sampled::Active(lower) => lower,
            _ => panic!("an active slot contributes its bound"),
        };
        // … while the owner finishes that transaction and begins the next:
        // its clock may already be read, its new bound is not published.
        a.clear();
        a.mark_pending();
        assert!(matches!(a.confirm(lower), Sampled::Pending));
        assert_eq!(reg.min_active_or(50), None, "and so does the next scan");
        // Published: the scan that sampled the old bound may use it — it is
        // no later than the new one.
        a.activate(9);
        assert!(matches!(a.confirm(lower), Sampled::Active(5)));
        assert_eq!(reg.min_active_or(50), Some(9));
        // Finished in between and idle since: nothing to respect.
        a.clear();
        assert!(matches!(a.confirm(lower), Sampled::Idle));
    }

    #[test]
    fn the_watermark_never_passes_the_advancers_own_reading() {
        // A transaction may begin behind a scan that has passed its slot,
        // with a start time between the scan's `now` and the bounds of
        // slots the scan has yet to visit; only `now` bounds it.
        let reg = SnapshotRegistry::new();
        let late = reg.register();
        late.activate(70);
        assert_eq!(reg.min_active_or(50), Some(50));
    }

    #[test]
    fn closed_slots_are_reused() {
        let reg = SnapshotRegistry::<u64>::new();
        let a = reg.register();
        assert_eq!(reg.len(), 1);
        a.close();
        let _b = reg.register();
        assert_eq!(reg.len(), 1, "closed slot must be reopened, not appended");
        let _c = reg.register();
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn closed_slot_does_not_hold_watermark() {
        let reg = SnapshotRegistry::new();
        let a = reg.register();
        a.activate(3);
        a.close();
        assert_eq!(reg.min_active_or(88), Some(88));
    }

    #[test]
    fn a_watermark_copy_is_refreshed_when_the_epoch_moves() {
        let (dom, mut mine) = domain();
        let mut other = LocalReclaim::new(&dom);
        assert_eq!(mine.watermark(), None);
        assert!(other.advance(10));
        assert_eq!(mine.watermark(), None, "a copy, until the next sync");
        mine.sync();
        assert_eq!(mine.watermark(), Some(10));
    }

    #[test]
    fn arena_recycles_only_after_epoch_advance() {
        let (dom, mut local) = domain();
        let m = local.alloc_meta();
        m.set_lower(1);
        local.note_live();
        local.retire(m);
        assert_eq!(dom.stats().versions_pooled, 1);
        // Same epoch: the pooled node is not yet eligible.
        let fresh = local.alloc_meta();
        assert_eq!(dom.stats().versions_recycled, 0);
        assert_eq!(fresh.lower(), None);
        drop(fresh);
        // Advance moves the epoch past the retirement stamp.
        assert!(local.advance(10));
        let recycled = local.alloc_meta();
        assert_eq!(dom.stats().versions_recycled, 1);
        assert_eq!(recycled.lower(), None, "recycled node must be reset");
        assert_eq!(dom.stats().versions_pooled, 0);
    }

    #[test]
    fn shared_nodes_are_never_pooled() {
        let (dom, mut local) = domain();
        let m = local.alloc_meta();
        local.note_live();
        let reader_copy = Arc::clone(&m);
        local.retire(m);
        let s = dom.stats();
        assert_eq!(s.versions_pooled, 0, "a shared node must not be pooled");
        assert_eq!(s.versions_retired, 1);
        assert_eq!(s.versions_reclaimed, 1);
        drop(reader_copy);
    }

    #[test]
    fn a_node_is_emptied_when_it_is_pooled_not_when_it_is_reused() {
        use crate::object::{AnyObject, TObject};
        use std::sync::Weak;
        let (dom, mut local) = domain();
        let obj = TObject::new(1, 0u64, 0, 4);
        let weak_before = Arc::weak_count(&obj);
        let payload = Arc::new(7u64);
        let bind = |node: &mut Arc<VersionMeta<u64>>| {
            let back = Arc::downgrade(&obj) as Weak<dyn AnyObject<u64>>;
            Arc::get_mut(node)
                .expect("a speculative node has one reference")
                .commit(1, payload.clone(), back);
        };
        // Unshared at retirement: pooled, and empty from that moment on.
        let mut node = local.alloc_meta();
        bind(&mut node);
        local.note_live();
        assert_eq!(Arc::strong_count(&payload), 2);
        local.retire(node);
        assert_eq!(dom.stats().versions_pooled, 1);
        assert!(local.pool.iter().all(|(_, node)| node.is_unbound()));
        assert_eq!(Arc::strong_count(&payload), 1, "released at retirement");
        assert_eq!(Arc::weak_count(&obj), weak_before);
        // Shared with a reader: not pooled, and the reader keeps all of it.
        let mut node = local.alloc_meta();
        bind(&mut node);
        local.note_live();
        let reader = Arc::clone(&node);
        local.retire(node);
        assert_eq!(dom.stats().versions_pooled, 1, "only the first one");
        assert_eq!(*reader.value::<u64>(), 7);
        assert_eq!(reader.object().expect("alive").id(), 1);
        drop(reader);
        assert_eq!(Arc::strong_count(&payload), 1, "the last reader's drop");
        assert_eq!(Arc::weak_count(&obj), weak_before);
    }

    #[test]
    fn dropping_a_share_releases_and_accounts_its_pool() {
        let (dom, mut local) = domain();
        for i in 0..10u64 {
            let m = local.alloc_meta();
            m.set_lower(i);
            local.note_live();
            local.retire(m);
        }
        let s = dom.stats();
        assert_eq!(s.versions_retired, 10);
        assert_eq!(s.versions_reclaimed + s.versions_pooled, 10);
        assert!(s.versions_pooled > 0 && s.arena_bytes > 0, "memory is held");
        drop(local);
        let s = dom.stats();
        assert_eq!(s.versions_pooled, 0);
        assert_eq!(s.versions_reclaimed, s.versions_retired);
        assert_eq!((s.versions_live, s.arena_bytes), (0, 0));
    }

    #[test]
    fn gauge_shards_are_merged_and_outlive_their_owner() {
        let (dom, mut a) = domain();
        let mut b = LocalReclaim::new(&dom);
        dom.note_seeded();
        // `a` links two versions, `b` unlinks one of them: per-shard deltas
        // of +2 and -1.
        let (m1, m2) = (a.alloc_meta(), a.alloc_meta());
        a.note_live();
        a.note_live();
        b.retire(m1);
        assert_eq!(dom.stats().versions_live, 2, "seeded + 2 - 1");
        drop(a);
        drop(b);
        assert_eq!(dom.stats().versions_live, 2, "counts stay when owners go");
        assert_eq!(dom.stats().versions_retired, 1);
        // The list holds the live shares' shards only; the next registrants
        // start from zero.
        let mut c = LocalReclaim::new(&dom);
        let _d = LocalReclaim::new(&dom);
        assert_eq!(
            dom.shards.shard_count(),
            2,
            "released shards leave the list"
        );
        assert_eq!(c.stats.get(Stat::VersionsRetired), 0);
        c.retire(m2);
        assert_eq!(dom.stats().versions_live, 1);
        assert_eq!(dom.stats().versions_retired, 2);
    }

    #[test]
    fn advance_tracks_lag_and_counts() {
        let (dom, mut local) = domain();
        let a = dom.registry().register();
        a.activate(3);
        assert!(local.advance(10));
        let s = dom.stats();
        assert_eq!(dom.watermark(), Some(3));
        assert_eq!(s.watermark_lag, 7);
        assert_eq!(local.stats.get(Stat::WmAdvances), 1);
        a.clear();
        assert!(local.advance(20));
        assert_eq!(dom.watermark(), Some(20));
        assert_eq!(dom.stats().watermark_lag, 0);
    }
}
