//! Composite time base for sharding: per-shard clock instances over one
//! arbitration-comparable time domain.
//!
//! The §6 scalable time bases break the single-counter bottleneck at the
//! *clock* level; sharding breaks it at the *system* level by splitting
//! the object table into disjoint shards, each arbitrating commits on its own
//! time base. [`ShardedTimeBase`] is the composite that makes the second
//! step sound: it wraps one inner [`TimeBase`] and hands out *per-shard*
//! [`ThreadClock`] instances, so every shard has its own arbitration state
//! (its own reserved timestamp blocks, its own modeled NUMA cache line, its
//! own adoption history) while all timestamps remain mutually comparable.
//! An STM runs on it like on any base: it reports its shard count through
//! [`TimeBase::shards`] and marks the shards a transaction touches through
//! the [`ThreadClock`] shard-selection hooks, which only [`ShardedClock`]
//! overrides (DESIGN.md §9).
//!
//! ## Why one domain, not one counter per shard
//!
//! The tempting design — a fully independent counter per shard, with
//! transactions keeping one validity range per shard — is **unsound** for a
//! multi-version STM that issues forward validity claims (LSA's
//! `getPrelimUB` fallback "this version is valid at least until `t`"):
//!
//! 1. *Torn cuts.* A cross-shard transaction `Tc` that updates `x` on shard
//!    A and `y` on shard B commits at unrelated per-shard times `(ctA,
//!    ctB)`. A reader that observed old-`x` before `Tc` and new-`y` after it
//!    holds per-shard ranges that are each non-empty — nothing links `ctA`
//!    to `ctB`, so the torn snapshot of `Tc` is accepted.
//! 2. *Cross-shard claim leakage.* A reader whose joined observation is
//!    dominated by a fast shard B (say 100) opens the latest version on a
//!    slow shard A (counter at 5) and claims it valid until 100; a later
//!    shard-A commit at 6 then supersedes the version *inside* the claimed
//!    range. Read-only transactions never validate, so the stale claim is
//!    never caught.
//!
//! Keeping every shard's clocks on **one inner base** removes both hazards
//! by construction: a cross-shard commit can anchor all its per-shard
//! acquisitions to one final commit time (the last acquisition, which
//! dominates the earlier ones), and the §2.4 strictness property ("commit
//! times exceed everything previously readable") holds globally, so claims
//! carried across shards stay sound. What remains genuinely per shard is the
//! arbitration *state*: block-reserving bases ([`crate::counter::BlockCounter`])
//! give every shard clock its own disjoint reservation, and
//! [`ShardedTimeBase::shard_clock`] carves disjoint `get_ts_block` domains
//! per shard for id/epoch allocation. See `DESIGN.md` §9.
//!
//! ## Composition requirements
//!
//! Not every base survives this composition, and [`ShardedTimeBase::new`]
//! rejects the ones that do not — the same fail-loud policy as LSA's
//! constructor refusing non-commit-monotonic bases:
//!
//! * `block_uniqueness` must be [`Uniqueness::Unique`]: per-shard
//!   `get_ts_block` domains must be disjoint, which best-effort real-time
//!   bases cannot promise.
//! * `commit_monotonic` must hold: bases whose per-clock state runs ahead of
//!   the readable time (GV5 lazy counters, GV4 adoption) break the
//!   composite's per-thread strictness contract when arbitration alternates
//!   between shard clocks — one shard clock's run-ahead is invisible to its
//!   siblings, so a later sibling acquisition could return a smaller value
//!   than the composite already handed out.

use crate::base::{CommitTs, ThreadClock, TimeBase, TimeBaseInfo, Uniqueness};
use crate::timestamp::Timestamp;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on the shard count: shard sets are tracked as a 64-bit mask.
pub const MAX_SHARDS: usize = 64;

/// Intern a composite base name so [`TimeBaseInfo::name`] can stay
/// `&'static str`; names are tiny and the set of distinct composites per
/// process is bounded, so the leak is bounded too.
fn intern_name(s: String) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut pool = pool.lock().expect("name pool poisoned");
    if let Some(&v) = pool.get(&s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.clone().into_boxed_str());
    pool.insert(s, leaked);
    leaked
}

/// A composite time base carving one inner [`TimeBase`] into per-shard clock
/// domains. See the module docs for the soundness story.
pub struct ShardedTimeBase<B: TimeBase> {
    inner: Arc<B>,
    shards: usize,
    name: &'static str,
}

impl<B: TimeBase> Clone for ShardedTimeBase<B> {
    fn clone(&self) -> Self {
        ShardedTimeBase {
            inner: Arc::clone(&self.inner),
            shards: self.shards,
            name: self.name,
        }
    }
}

impl<B: TimeBase> ShardedTimeBase<B> {
    /// Wrap `inner` into a `shards`-way composite.
    ///
    /// # Panics
    /// Panics if `shards` is 0 or exceeds [`MAX_SHARDS`], and — the
    /// composition capability check — if the inner base's advertised classes
    /// do not survive sharding: block domains that are not
    /// [`Uniqueness::Unique`] (per-shard domains must be disjoint) or a base
    /// that is not commit-monotonic (per-clock run-ahead state breaks the
    /// composite per-thread contract; see the module docs).
    pub fn new(inner: B, shards: usize) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        );
        let info = inner.info();
        assert!(
            info.block_uniqueness == Uniqueness::Unique,
            "sharding requires disjoint per-shard timestamp-block domains; {} \
             only promises {:?} blocks and cannot be composed",
            info.name,
            info.block_uniqueness
        );
        assert!(
            info.commit_monotonic,
            "sharding requires a commit-monotonic base; {}'s per-clock \
             run-ahead state (lazy/adopting arbitration) does not survive \
             composition across shard clocks",
            info.name
        );
        let name = intern_name(format!("sharded{}x-{}", shards, info.name));
        ShardedTimeBase {
            inner: Arc::new(inner),
            shards,
            name,
        }
    }

    /// The wrapped base.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// A composite clock pinned to one shard: `shard` is marked and stays
    /// selected until [`ThreadClock::begin_attempt`], so commit arbitration,
    /// `get_ts_block` allocation and abort feedback all route through that
    /// shard's internal clock — the path a single-shard transaction takes.
    /// `get_ts_block` domains of clocks pinned to different shards are
    /// disjoint (guaranteed by the inner base's `Unique` block class,
    /// asserted at construction and by `conformance::sharded_suite`).
    ///
    /// # Panics
    /// Panics if `shard >= self.shards()`.
    pub fn shard_clock(&self, shard: usize) -> ShardedClock<B> {
        assert!(shard < self.shards, "shard {shard} out of range");
        let mut clock = self.register_thread();
        clock.mark_shard(shard);
        clock
    }
}

impl<B: TimeBase> TimeBase for ShardedTimeBase<B> {
    type Ts = B::Ts;
    type Clock = ShardedClock<B>;

    fn register_thread(&self) -> ShardedClock<B> {
        ShardedClock {
            clocks: (0..self.shards)
                .map(|_| self.inner.register_thread())
                .collect(),
            marked: 0,
            commit_armed: false,
            seen: None,
        }
    }

    fn info(&self) -> TimeBaseInfo {
        // The composite inherits the inner base's classes: same domain, same
        // arbitration, one clock instance per shard. Only the name changes.
        // Bases whose classes would *not* carry over were rejected by
        // `new` — that rejection is the composite's capability check.
        TimeBaseInfo {
            name: self.name,
            ..self.inner.info()
        }
    }

    fn shards(&self) -> usize {
        self.shards
    }
}

/// Per-thread handle to a [`ShardedTimeBase`]: one inner clock per shard
/// plus the shard selection the owning transaction has made through the
/// [`ThreadClock`] hooks.
pub struct ShardedClock<B: TimeBase> {
    clocks: Vec<B::Clock>,
    /// Bit `i` set: the attempt has opened an object on shard `i`.
    marked: u64,
    /// The next arbitration is an update's commit: consumed by it, reset by
    /// [`ThreadClock::begin_attempt`].
    commit_armed: bool,
    /// Join of every timestamp this composite handle has returned, across
    /// all shard clocks — the freshness floor that keeps the per-thread
    /// `get_new_ts` contract intact when arbitration alternates shards.
    seen: Option<B::Ts>,
}

impl<B: TimeBase> ShardedClock<B> {
    /// The marked shards, or shard 0 alone when none is marked.
    fn selected(&self) -> u64 {
        match self.marked & mask_for(self.clocks.len()) {
            0 => 1,
            mask => mask,
        }
    }

    fn fold_seen(&mut self, t: B::Ts) {
        self.seen = Some(match self.seen {
            Some(prev) => prev.join(t),
            None => t,
        });
    }

    fn floor(&mut self) -> B::Ts {
        match self.seen {
            Some(t) => t,
            None => {
                let t = self.clocks[0].get_time();
                self.fold_seen(t);
                t
            }
        }
    }

    /// The arbitration dispatcher. When the clock was armed for a commit
    /// ([`ThreadClock::arm_commit`] — consumed here), acquire a commit
    /// timestamp from every selected shard's clock in ascending shard
    /// order, chaining each result into the next acquisition's floor: the
    /// final acquisition dominates all earlier ones and every selected
    /// shard's arbitration frontier has been pushed above the caller's
    /// observation — the per-shard half of the cross-shard commit protocol.
    /// Earlier (dominated) values are discarded, which is sound: for
    /// frontier-publishing bases they act as commits of nothing, and their
    /// exclusivity (if any) is simply never used.
    ///
    /// Unarmed arbitrations (helper commit-time races, `getPrelimUB`
    /// resolution, `get_new_ts`) need one sound timestamp, not a frontier
    /// push per shard — they arbitrate on the lowest selected shard alone,
    /// keeping mid-transaction resolutions to a single shared-line RMW.
    fn arbitrate(&mut self, observed: B::Ts) -> CommitTs<B::Ts> {
        let mut mask = self.selected();
        if !std::mem::take(&mut self.commit_armed) {
            mask = mask & mask.wrapping_neg(); // lowest selected shard only
        }
        let mut floor = observed;
        let mut last = None;
        for shard in 0..self.clocks.len() {
            if mask & (1u64 << shard) == 0 {
                continue;
            }
            let ct = self.clocks[shard].acquire_commit_ts(floor);
            floor = floor.join(ct.ts());
            last = Some(ct);
        }
        let ct = last.expect("mask is non-empty");
        self.fold_seen(ct.ts());
        ct
    }
}

fn mask_for(shards: usize) -> u64 {
    if shards >= 64 {
        u64::MAX
    } else {
        (1u64 << shards) - 1
    }
}

impl<B: TimeBase> ThreadClock for ShardedClock<B> {
    type Ts = B::Ts;

    fn get_time(&mut self) -> B::Ts {
        // All shard clocks read the same inner domain; shard 0's handle
        // carries this composite's get_time monotonicity state.
        let t = self.clocks[0].get_time();
        self.fold_seen(t);
        t
    }

    fn get_new_ts(&mut self) -> B::Ts {
        let floor = self.floor();
        self.arbitrate(floor).ts()
    }

    fn acquire_commit_ts(&mut self, observed: B::Ts) -> CommitTs<B::Ts> {
        let floor = observed.join(self.floor());
        self.arbitrate(floor)
    }

    fn get_ts_block(&mut self, n: usize) -> Vec<B::Ts> {
        // Allocation goes to the first selected shard's clock (shard 0 by
        // default): inner `Unique` blocks keep composite blocks disjoint
        // across threads and shards alike.
        let shard = self.selected().trailing_zeros() as usize;
        let block = self.clocks[shard].get_ts_block(n);
        if let Some(&last) = block.last() {
            self.fold_seen(last);
        }
        block
    }

    fn observe_ts(&mut self, ts: B::Ts) {
        // A stamp known to back committed data is valid feedback for every
        // shard's clock (one domain); forwarding costs only local updates.
        for c in &mut self.clocks {
            c.observe_ts(ts);
        }
    }

    fn note_abort(&mut self) {
        // Feed the abort back to the shards the failed attempt touched —
        // those are the clocks whose lag made it fail (shard 0 when the
        // attempt recorded nothing).
        let mask = self.selected();
        for shard in 0..self.clocks.len() {
            if mask & (1u64 << shard) != 0 {
                self.clocks[shard].note_abort();
            }
        }
    }

    #[inline]
    fn mark_shard(&mut self, shard: usize) {
        self.marked |= 1 << shard;
    }

    fn begin_attempt(&mut self) {
        self.marked = 0;
        self.commit_armed = false;
    }

    fn arm_commit(&mut self) -> u32 {
        self.commit_armed = true;
        self.selected().count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{BlockCounter, Gv5Counter, SharedCounter};
    use crate::hardware::HardwareClock;

    #[test]
    fn composite_info_derives_from_inner() {
        let tb = ShardedTimeBase::new(SharedCounter::new(), 8);
        let info = tb.info();
        assert_eq!(info.name, "sharded8x-shared-counter");
        assert_eq!(info.uniqueness, Uniqueness::Unique);
        assert!(info.commit_monotonic);
        assert_eq!(tb.shards(), 8);
        // Interning: a second identical composite shares the same &'static.
        let tb2 = ShardedTimeBase::new(SharedCounter::new(), 8);
        assert!(std::ptr::eq(tb.info().name, tb2.info().name));
    }

    #[test]
    #[should_panic(expected = "commit-monotonic")]
    fn rejects_lazy_bases() {
        // GV5's per-clock run-ahead does not survive composition across
        // shard clocks (a sibling acquisition cannot see it).
        let _ = ShardedTimeBase::new(Gv5Counter::new(), 4);
    }

    #[test]
    #[should_panic(expected = "block domains")]
    fn rejects_best_effort_block_bases() {
        // Real-time bases cannot carve disjoint per-shard block domains.
        let _ = ShardedTimeBase::new(HardwareClock::mmtimer_free(), 4);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn rejects_zero_shards() {
        let _ = ShardedTimeBase::new(SharedCounter::new(), 0);
    }

    #[test]
    fn touch_set_selects_arbitration_shards() {
        // The selection is the clock's own: marks accumulate, an armed
        // commit spans them, and a new attempt starts from none.
        let tb = ShardedTimeBase::new(SharedCounter::new(), 4);
        let mut clock = tb.register_thread();
        clock.mark_shard(1);
        clock.mark_shard(3);
        clock.mark_shard(3);
        assert_eq!(clock.arm_commit(), 2);
        let t0 = clock.get_time();
        let ct = clock.acquire_commit_ts(t0);
        assert!(ct.ts() > t0, "commit must clear the observation");
        clock.begin_attempt();
        assert_eq!(clock.arm_commit(), 1, "no selection: shard 0 alone");
    }

    #[test]
    fn cross_shard_arbitration_is_strictly_increasing() {
        let tb = ShardedTimeBase::new(BlockCounter::new(8), 4);
        let mut clock = tb.register_thread();
        let mut last = clock.get_time();
        for round in 0..200 {
            clock.begin_attempt();
            clock.mark_shard(round % 4);
            clock.mark_shard((round + 1) % 4);
            clock.arm_commit(); // commit acquisitions chain across shards
            let ct = clock.acquire_commit_ts(last);
            assert!(ct.ts() > last, "round {round}: {:?} !> {last:?}", ct.ts());
            last = ct.ts();
        }
    }

    #[test]
    fn unarmed_arbitration_stays_on_one_shard() {
        // Helper/prelim acquisitions must not fan out: with two shards
        // selected but no commit armed, only the lowest selected shard's
        // clock arbitrates — one reservation stream advances, not two.
        let tb = ShardedTimeBase::new(BlockCounter::new(4), 4);
        let inner = tb.inner().clone();
        let mut clock = tb.register_thread();
        clock.mark_shard(1);
        clock.mark_shard(3);
        let before = inner.refills();
        let t0 = clock.get_time();
        let mut prev = t0;
        for _ in 0..16 {
            let ct = clock.acquire_commit_ts(prev);
            assert!(ct.ts() > prev);
            prev = ct.ts();
        }
        // 16 single-shard acquisitions at block 4: a handful of refills.
        // A fanned-out version would pay on both shards' clocks (~double).
        let unarmed_refills = inner.refills() - before;
        assert!(
            unarmed_refills <= 8,
            "unarmed arbitration consumed {unarmed_refills} refills — \
             it fanned out across shards"
        );
    }

    #[test]
    fn shard_clocks_have_disjoint_block_domains() {
        let tb = ShardedTimeBase::new(BlockCounter::new(16), 4);
        let mut all: Vec<u64> = Vec::new();
        for shard in 0..4 {
            let mut clock = tb.shard_clock(shard);
            for _ in 0..10 {
                all.extend(clock.get_ts_block(16));
            }
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(n, all.len(), "per-shard block domains overlap");
    }

    #[test]
    fn commits_are_visible_across_shard_clocks() {
        // One domain: a commit arbitrated through shard 3's clock is
        // readable through shard 0's clock (this is what keeps cross-shard
        // snapshots sound).
        let tb = ShardedTimeBase::new(SharedCounter::new(), 4);
        let mut committer = tb.shard_clock(3);
        let mut reader = tb.shard_clock(0);
        let before = reader.get_time();
        let ct = committer.acquire_commit_ts(before).ts();
        assert!(reader.get_time() >= ct, "commit invisible across shards");
    }
}
