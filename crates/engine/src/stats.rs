//! Where an engine handle counts: one owner-written [`StatsShard`] of
//! [`EngineStats`], summed by whoever reads.
//!
//! Every engine handle owns one shard and increments it once per event. Only
//! the owner writes, so an increment is a relaxed load and a relaxed store —
//! no read-modify-write, and the shard's cache lines are the owner's alone
//! (hence the alignment). Readers — the handle's own
//! [`engine_stats`](crate::EngineHandle::engine_stats), a runtime's memory
//! gauges, a metrics scrape — load the slots and sum them over shards. A
//! read that races the owner may miss its latest increments, never one that
//! a later read would not see: each slot only moves forward.
//!
//! A [`StatsDomain`] is the set of shards a runtime sums: the shards of its
//! live handles plus an accumulator of everything released handles counted.
//! Releasing folds a shard into the accumulator and drops it from the list
//! under one lock, which is also what a [`totals`](StatsDomain::totals) read
//! takes, so engine-wide sums stay monotone across handle churn, the list
//! stays as long as the number of live handles, and a fresh handle's shard
//! starts at zero.

use crate::{AbortClass, AbortReasons, EngineStats, MemoryStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One slot of a [`StatsShard`]: an engine counter or a version-store
/// gauge, named after the [`EngineStats`] field it feeds (`Abort*` feed
/// [`AbortReasons`], `Versions*` feed [`MemoryStats`]). `VersionsLive` and
/// `VersionsPooled` hold signed per-shard deltas as wrapping `u64`s: one
/// handle may unlink what another linked.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stat {
    Commits,
    RoCommits,
    AbortValidation,
    AbortNoVersion,
    AbortContention,
    AbortOverload,
    Reads,
    Writes,
    Validations,
    RevalidationFailures,
    ValidatedEntries,
    SharedCommitTs,
    CrossShardCommits,
    Helps,
    Conflicts,
    WmAdvances,
    FastpathCommits,
    VersionsLive,
    VersionsRetired,
    VersionsReclaimed,
    VersionsPooled,
    VersionsRecycled,
}

const SLOTS: usize = Stat::VersionsRecycled as usize + 1;

/// One engine handle's counters, written by that handle alone (see the
/// module docs).
#[derive(Debug)]
#[repr(align(128))]
pub struct StatsShard {
    slots: [AtomicU64; SLOTS],
}

impl Default for StatsShard {
    fn default() -> Self {
        StatsShard {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StatsShard {
    /// `stat += n`, by the shard's one writer. Wrapping, so a gauge slot
    /// can carry a negative delta.
    #[inline]
    pub fn add(&self, stat: Stat, n: u64) {
        let slot = &self.slots[stat as usize];
        slot.store(
            slot.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// `stat += 1`.
    #[inline]
    pub fn inc(&self, stat: Stat) {
        self.add(stat, 1);
    }

    /// `stat -= n` (gauge slots only).
    #[inline]
    pub fn sub(&self, stat: Stat, n: u64) {
        self.add(stat, n.wrapping_neg());
    }

    /// Count an aborted attempt of `class`.
    #[inline]
    pub fn abort(&self, class: AbortClass) {
        self.inc(match class {
            AbortClass::Validation => Stat::AbortValidation,
            AbortClass::NoVersion => Stat::AbortNoVersion,
            AbortClass::Contention => Stat::AbortContention,
            AbortClass::Overload => Stat::AbortOverload,
        });
    }

    /// Current value of one slot.
    pub fn get(&self, stat: Stat) -> u64 {
        self.slots[stat as usize].load(Ordering::Relaxed)
    }

    /// A gauge slot read as the signed sum it is, clamped at zero.
    fn gauge(&self, stat: Stat) -> u64 {
        (self.get(stat) as i64).max(0) as u64
    }

    /// The counters as an [`EngineStats`]. `aborts` is the sum of the
    /// engine abort classes, not counted separately, and `memory` is left
    /// zero: gauges are engine-wide (see [`memory`](Self::memory)).
    pub fn engine_stats(&self) -> EngineStats {
        let abort_reasons = AbortReasons {
            validation: self.get(Stat::AbortValidation),
            no_version: self.get(Stat::AbortNoVersion),
            contention: self.get(Stat::AbortContention),
            overload: self.get(Stat::AbortOverload),
        };
        let aborts = abort_reasons.total() - abort_reasons.overload;
        EngineStats {
            commits: self.get(Stat::Commits),
            ro_commits: self.get(Stat::RoCommits),
            aborts,
            abort_reasons,
            reads: self.get(Stat::Reads),
            writes: self.get(Stat::Writes),
            validations: self.get(Stat::Validations),
            revalidation_failures: self.get(Stat::RevalidationFailures),
            validated_entries: self.get(Stat::ValidatedEntries),
            shared_commit_ts: self.get(Stat::SharedCommitTs),
            cross_shard_commits: self.get(Stat::CrossShardCommits),
            helps: self.get(Stat::Helps),
            conflicts: self.get(Stat::Conflicts),
            wm_advances: self.get(Stat::WmAdvances),
            fastpath_commits: self.get(Stat::FastpathCommits),
            memory: MemoryStats::default(),
        }
    }

    /// The version counts as [`MemoryStats`]; `arena_bytes` and
    /// `watermark_lag` are the runtime's to fill in. Meaningful on a
    /// [`StatsDomain::totals`] sum, where the signed per-shard deltas have
    /// met.
    pub fn memory(&self) -> MemoryStats {
        MemoryStats {
            versions_live: self.gauge(Stat::VersionsLive),
            versions_retired: self.get(Stat::VersionsRetired),
            versions_reclaimed: self.get(Stat::VersionsReclaimed),
            versions_pooled: self.gauge(Stat::VersionsPooled),
            versions_recycled: self.get(Stat::VersionsRecycled),
            ..MemoryStats::default()
        }
    }

    /// Add every slot of `self` into `sum` (a shard nobody else writes).
    fn add_into(&self, sum: &StatsShard) {
        for (from, to) in self.slots.iter().zip(&sum.slots) {
            to.fetch_add(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// The shards one runtime or service sums (see the module docs).
#[derive(Debug, Default)]
pub struct StatsDomain {
    inner: Mutex<DomainInner>,
}

#[derive(Debug, Default)]
struct DomainInner {
    live: Vec<Arc<StatsShard>>,
    released: StatsShard,
}

impl StatsDomain {
    /// A fresh zeroed shard, summed by this domain from now on.
    pub fn claim(&self) -> Arc<StatsShard> {
        let shard = Arc::new(StatsShard::default());
        self.adopt(Arc::clone(&shard));
        shard
    }

    /// Sum `shard`, whoever owns it, from now on.
    pub fn adopt(&self, shard: Arc<StatsShard>) {
        self.lock().live.push(shard);
    }

    /// The owner of `shard` is gone: keep its counts in the sums, drop the
    /// shard from the list.
    pub fn release(&self, shard: &Arc<StatsShard>) {
        let mut inner = self.lock();
        if let Some(at) = inner.live.iter().position(|s| Arc::ptr_eq(s, shard)) {
            inner.live.swap_remove(at);
            shard.add_into(&inner.released);
        }
    }

    /// Every slot summed over the released handles and the live shards.
    pub fn totals(&self) -> StatsShard {
        let inner = self.lock();
        let sum = StatsShard::default();
        inner.released.add_into(&sum);
        for shard in &inner.live {
            shard.add_into(&sum);
        }
        sum
    }

    /// Number of shards in the list.
    pub fn shard_count(&self) -> usize {
        self.lock().live.len()
    }

    /// The list, even after a panic elsewhere: no update leaves it half
    /// done, and `release` runs in `Drop`, which must not panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, DomainInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_aborts() {
        let s = StatsShard::default();
        use AbortClass::*;
        for class in [Validation, Validation, Contention] {
            s.abort(class);
        }
        let r = s.engine_stats().abort_reasons;
        assert_eq!((r.validation, r.no_version, r.contention), (2, 0, 1));
        assert_eq!(s.get(Stat::AbortValidation), 2);
    }

    #[test]
    fn aborts_stay_classified() {
        let s = StatsShard::default();
        for class in AbortClass::ALL {
            s.abort(class);
        }
        let es = s.engine_stats();
        assert_eq!(es.abort_reasons.total(), 4);
        assert_eq!(es.aborts, 3, "sheds are rejected requests, not attempts");
    }

    #[test]
    fn merge_adds_everything() {
        let s = StatsShard::default();
        use Stat::*;
        for stat in [Commits, Helps, Conflicts, WmAdvances, FastpathCommits] {
            s.inc(stat);
        }
        let mut a = s.engine_stats();
        a.merge(&s.engine_stats());
        assert_eq!(a.commits, 2);
        assert_eq!((a.helps, a.conflicts), (2, 2));
        assert_eq!((a.wm_advances, a.fastpath_commits), (2, 2));
    }

    #[test]
    fn merge_sums_fields() {
        // A domain's totals are the slot-wise sum of its shards, gauges as
        // signed deltas: one shard may unlink what another linked.
        let dom = StatsDomain::default();
        let (a, b) = (dom.claim(), dom.claim());
        a.add(Stat::Reads, 2);
        b.add(Stat::Reads, 3);
        a.add(Stat::VersionsLive, 2);
        b.sub(Stat::VersionsLive, 1);
        assert_eq!(b.memory().versions_live, 0, "a lone negative delta clamps");
        let sum = dom.totals();
        assert_eq!(sum.engine_stats().reads, 5);
        assert_eq!(sum.memory().versions_live, 1);
    }

    #[test]
    fn abort_ratio_handles_zero_commits() {
        let s = StatsShard::default();
        assert_eq!(s.engine_stats().abort_ratio(), 0.0);
        s.abort(AbortClass::Contention);
        assert_eq!(s.engine_stats().abort_ratio(), 0.0);
        s.add(Stat::Commits, 2);
        assert_eq!(s.engine_stats().abort_ratio(), 0.5);
        assert_eq!(s.engine_stats().memory, MemoryStats::default());
    }

    #[test]
    fn display_is_informative() {
        let s = StatsShard::default();
        s.inc(Stat::Commits);
        s.inc(Stat::Helps);
        s.abort(AbortClass::NoVersion);
        let txt = s.engine_stats().to_string();
        assert!(txt.contains("commits=1"));
        assert!(txt.contains("[0/1/0/0]"));
        assert!(txt.contains("helps=1"));
    }
}
