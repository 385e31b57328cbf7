//! Externally synchronized real-time clocks (§3.2, Algorithm 5).
//!
//! Each thread `p` reads a local clock `ECp` whose deviation from real time
//! is bounded: `|ECp(t) − t| ≤ dev`. A timestamp is therefore a triple
//! `(ts, cid, dev)` — the local reading, the identifier of the clock that
//! produced it, and the deviation bound. Comparisons between timestamps from
//! the *same* clock need no slack; comparisons across clocks must assume the
//! worst-case deviation of both sides (Algorithm 5 line 14). `max`/`min` of
//! incomparable timestamps *poison* the clock id (`cid = undefined`) so that
//! all future comparisons keep accounting for the uncertainty.
//!
//! Masking uncertainty this way virtually shrinks every version's validity
//! range by `dev` on each side, creating gaps of `2·dev` between versions
//! (§3.2) — the effect quantified by the EXP-ERR experiment (`matrix --dev`,
//! DESIGN.md §4).
//!
//! [`ExternalClock`] *injects* per-thread offsets of `±dev` on top of the
//! globally coherent monotonic clock — each thread's clock is a
//! [`SyncClock`] whose [`Deviation`] stamp adds the clock id and bound — so
//! the uncertainty handling is exercised for real: two threads genuinely
//! disagree about the current time, by `2·dev`.

use crate::base::TimeBase;
use crate::perfect::{Stamp, SyncClock};
use crate::timestamp::{Timestamp, TsCell};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Clock identifier carried by an [`ExtTimestamp`]. [`ClockId::UNDEFINED`]
/// marks a timestamp that resulted from `max`/`min` of incomparable inputs
/// and must always be compared with deviation slack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClockId(pub u32);

impl ClockId {
    /// The paper's `undefined` clock id.
    pub const UNDEFINED: ClockId = ClockId(u32::MAX);

    /// Whether this id is the `undefined` marker.
    #[inline]
    pub fn is_undefined(self) -> bool {
        self == Self::UNDEFINED
    }
}

/// A timestamp from an externally synchronized clock: `(ts, cid, dev)`
/// (§3.2). `ts` and `dev` are in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExtTimestamp {
    /// Local clock reading (nanoseconds).
    pub ts: u64,
    /// Identifier of the producing clock, or [`ClockId::UNDEFINED`].
    pub cid: ClockId,
    /// Maximum deviation of the producing clock from real time (nanoseconds).
    pub dev: u64,
}

impl ExtTimestamp {
    /// Construct a timestamp.
    #[inline]
    pub fn new(ts: u64, cid: ClockId, dev: u64) -> Self {
        ExtTimestamp { ts, cid, dev }
    }

    /// Latest real time at which this reading could have been taken.
    #[inline]
    pub fn upper_ns(self) -> u64 {
        self.ts.saturating_add(self.dev)
    }

    /// Earliest real time at which this reading could have been taken.
    #[inline]
    pub fn lower_ns(self) -> u64 {
        self.ts.saturating_sub(self.dev)
    }
}

impl Timestamp for ExtTimestamp {
    type Cell = ExtCell;

    /// Algorithm 5, function `≽`: same-clock timestamps compare exactly;
    /// cross-clock comparisons require the intervals of possible real times
    /// to be disjoint in the right direction.
    #[inline]
    fn ge(self, other: Self) -> bool {
        if self.cid == other.cid && !self.cid.is_undefined() {
            self.ts >= other.ts
        } else {
            self.lower_ns() >= other.upper_ns()
        }
    }

    /// Algorithm 5, function `max`.
    #[inline]
    fn join(self, other: Self) -> Self {
        if self.ge(other) {
            self
        } else if other.ge(self) {
            other
        } else if self.upper_ns() > other.upper_ns() {
            ExtTimestamp {
                cid: ClockId::UNDEFINED,
                ..self
            }
        } else {
            ExtTimestamp {
                cid: ClockId::UNDEFINED,
                ..other
            }
        }
    }

    /// Algorithm 5, function `min`.
    #[inline]
    fn meet(self, other: Self) -> Self {
        if self.ge(other) {
            other
        } else if other.ge(self) {
            self
        } else if self.lower_ns() < other.lower_ns() {
            ExtTimestamp {
                cid: ClockId::UNDEFINED,
                ..self
            }
        } else {
            ExtTimestamp {
                cid: ClockId::UNDEFINED,
                ..other
            }
        }
    }

    #[inline]
    fn prior(self) -> Self {
        ExtTimestamp {
            ts: self.ts.saturating_sub(1),
            ..self
        }
    }

    #[inline]
    fn raw_value(self) -> i128 {
        self.ts as i128
    }

    #[inline]
    fn origin() -> Self {
        // dev = 0 so that `t.ge(origin)` holds for every real reading `t`
        // (cross-clock comparison needs t.lower_ns() >= 0) and
        // `origin.ge(t)` never holds for t produced by a clock (all readings
        // sit above EPOCH_OFFSET_NS).
        ExtTimestamp {
            ts: 0,
            cid: ClockId::UNDEFINED,
            dev: 0,
        }
    }
}

/// [`TsCell`] for the three-word [`ExtTimestamp`]: a sequence lock over
/// atomic words. `seq` is `version << 2 | SET | BUSY`; a writer claims the
/// cell by raising `BUSY`, stores the triple, and publishes the next version
/// with `SET` telling whether a value is there. A reader takes the triple
/// only between two equal, non-busy readings of `seq`, so it never returns
/// one that was not stored whole; while a writer is between claim and
/// publish it waits, as `OnceLock` readers did for an initializer.
///
/// Orderings, writer then reader: the release fence after the claim orders
/// the `BUSY` store before the triple's stores, and pairs with the reader's
/// acquire fence — a reader that saw any word of a newer triple sees `seq`
/// moved on its second reading and retries; the publishing release store
/// pairs with the reader's first (acquire) reading.
#[derive(Debug, Default)]
pub struct ExtCell {
    seq: AtomicU64,
    ts: AtomicU64,
    cid: AtomicU32,
    dev: AtomicU64,
}

const BUSY: u64 = 1;
const SET: u64 = 2;
const VERSION: u64 = 4;

impl ExtCell {
    /// Store `value` and publish the version after `claimed`; the caller
    /// raised `BUSY` on `claimed` and is the only writer until this returns.
    fn publish(&self, claimed: u64, value: Option<ExtTimestamp>) {
        fence(Ordering::Release);
        let set = match value {
            Some(t) => {
                self.ts.store(t.ts, Ordering::Relaxed);
                self.cid.store(t.cid.0, Ordering::Relaxed);
                self.dev.store(t.dev, Ordering::Relaxed);
                SET
            }
            None => 0,
        };
        let next = (claimed & !(SET | BUSY)).wrapping_add(VERSION) | set;
        self.seq.store(next, Ordering::Release);
    }
}

impl TsCell<ExtTimestamp> for ExtCell {
    fn get(&self) -> Option<ExtTimestamp> {
        loop {
            let seq = self.seq.load(Ordering::Acquire);
            if seq & BUSY == 0 {
                if seq & SET == 0 {
                    return None;
                }
                let value = ExtTimestamp {
                    ts: self.ts.load(Ordering::Relaxed),
                    cid: ClockId(self.cid.load(Ordering::Relaxed)),
                    dev: self.dev.load(Ordering::Relaxed),
                };
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == seq {
                    return Some(value);
                }
            }
            std::hint::spin_loop();
        }
    }

    fn set_once(&self, ts: ExtTimestamp) -> ExtTimestamp {
        loop {
            if let Some(winner) = self.get() {
                return winner;
            }
            let seq = self.seq.load(Ordering::Relaxed);
            let unclaimed = seq & (SET | BUSY) == 0;
            if unclaimed
                && self
                    .seq
                    .compare_exchange(seq, seq | BUSY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                self.publish(seq, Some(ts));
                return ts;
            }
        }
    }

    fn put(&self, value: Option<ExtTimestamp>) {
        let seq = self.seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq & BUSY, 0, "put() raced another writer");
        self.seq.store(seq | BUSY, Ordering::Relaxed);
        self.publish(seq, value);
    }
}

/// An externally synchronized clock ensemble with deviation bound `dev`
/// (§3.2). Every registered thread gets its own [`ClockId`] and a
/// [`SyncClock`] offset from real time by `-dev` (even registrations) or
/// `+dev` (odd ones) — the worst case for cross-clock gaps.
#[derive(Clone, Debug)]
pub struct ExternalClock {
    dev_ns: u64,
    next_cid: Arc<AtomicU32>,
}

impl ExternalClock {
    /// Ensemble with alternating `-dev_ns`, `+dev_ns` offsets.
    pub fn new(dev_ns: u64) -> Self {
        ExternalClock {
            dev_ns,
            next_cid: Arc::new(AtomicU32::new(0)),
        }
    }
}

/// The [`Stamp`] of an externally synchronized clock: readings become
/// `(ts, cid, dev)` triples.
#[derive(Clone, Copy, Debug)]
pub struct Deviation {
    cid: ClockId,
    dev_ns: u64,
}

impl Stamp for Deviation {
    type Ts = ExtTimestamp;

    #[inline]
    fn stamp(&self, reading: u64) -> ExtTimestamp {
        ExtTimestamp::new(reading, self.cid, self.dev_ns)
    }

    /// With `dev > 0` every cross-clock comparison keeps `2·dev` of slack,
    /// so a version is never valid exactly at its commit time. With
    /// `dev == 0` the ensemble is a perfectly synchronized clock and needs
    /// Algorithm 4's loop.
    #[inline]
    fn masks_commit(&self) -> bool {
        self.dev_ns > 0
    }
}

impl TimeBase for ExternalClock {
    type Ts = ExtTimestamp;
    type Clock = SyncClock<Deviation>;

    fn register_thread(&self) -> SyncClock<Deviation> {
        let index = self.next_cid.fetch_add(1, Ordering::Relaxed);
        assert!(index < u32::MAX - 1, "too many clock registrations");
        let dev = self.dev_ns as i64;
        let offset = if index.is_multiple_of(2) { -dev } else { dev };
        let stamp = Deviation {
            cid: ClockId(index),
            dev_ns: self.dev_ns,
        };
        SyncClock::new(1, 0, offset, stamp)
    }

    fn info(&self) -> crate::base::TimeBaseInfo {
        crate::base::TimeBaseInfo {
            name: "external-clock",
            // Distinct clocks can draw overlapping (ts, cid, dev) readings;
            // only the uncertainty algebra orders them.
            uniqueness: crate::base::Uniqueness::BestEffort,
            block_uniqueness: crate::base::Uniqueness::BestEffort,
            contention: crate::base::ContentionClass::LocalRead,
            // The uncertainty algebra (Algorithm 5) masks deviations, so
            // guaranteed comparisons never contradict commit order.
            commit_monotonic: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{monotonic_ns, ThreadClock};

    fn ts(v: u64, cid: u32, dev: u64) -> ExtTimestamp {
        ExtTimestamp::new(v, ClockId(cid), dev)
    }

    #[test]
    fn same_clock_compares_exactly() {
        assert!(ts(100, 1, 50).ge(ts(99, 1, 50)));
        assert!(ts(100, 1, 50).ge(ts(100, 1, 50)));
        assert!(!ts(99, 1, 50).ge(ts(100, 1, 50)));
    }

    #[test]
    fn cross_clock_requires_deviation_gap() {
        // dev = 10 on both sides: need ts1 - 10 >= ts2 + 10, i.e. gap >= 20.
        assert!(ts(120, 1, 10).ge(ts(100, 2, 10)));
        assert!(!ts(119, 1, 10).ge(ts(100, 2, 10)));
        // Within the uncertainty window, *neither* dominates...
        assert!(!ts(110, 1, 10).ge(ts(100, 2, 10)));
        assert!(!ts(100, 2, 10).ge(ts(110, 1, 10)));
        // ...so each is "possibly later" than the other.
        assert!(ts(110, 1, 10).possibly_later(ts(100, 2, 10)));
        assert!(ts(100, 2, 10).possibly_later(ts(110, 1, 10)));
    }

    #[test]
    fn undefined_cid_always_uses_deviation() {
        let a = ts(100, u32::MAX, 10); // undefined
        let b = ts(100, u32::MAX, 10);
        assert!(
            !a.ge(b),
            "same values but undefined cid: not comparable exactly"
        );
    }

    #[test]
    fn join_picks_dominant_or_poisons() {
        let a = ts(200, 1, 10);
        let b = ts(100, 2, 10);
        assert_eq!(a.join(b), a, "clearly later keeps its cid");
        let c = ts(105, 1, 10);
        let d = ts(100, 2, 10);
        let j = c.join(d);
        assert!(j.cid.is_undefined(), "incomparable join poisons cid");
        assert_eq!(j.ts, 105, "larger upper bound wins (105+10 > 100+10)");
    }

    #[test]
    fn meet_picks_dominated_or_poisons() {
        let a = ts(200, 1, 10);
        let b = ts(100, 2, 10);
        assert_eq!(a.meet(b), b);
        let c = ts(105, 1, 10);
        let d = ts(100, 2, 10);
        let m = c.meet(d);
        assert!(m.cid.is_undefined());
        assert_eq!(m.ts, 100, "smaller lower bound wins (100-10 < 105-10)");
    }

    #[test]
    fn join_semantics_any_later_ts_is_later_than_both() {
        // For t3 ≽ join(t1,t2) (cross-clock), t3 must be ≽ t1 and ≽ t2.
        let t1 = ts(105, 1, 10);
        let t2 = ts(100, 2, 10);
        let j = t1.join(t2);
        let t3 = ts(j.ts + j.dev + 25, 3, 5);
        assert!(t3.ge(j));
        assert!(t3.ge(t1));
        assert!(t3.ge(t2));
    }

    #[test]
    fn handles_get_bounded_offsets() {
        let tb = ExternalClock::new(1000);
        for i in 0..16 {
            let h = tb.register_thread();
            let expected = if i % 2 == 0 { -1000 } else { 1000 };
            assert_eq!(h.offset_ns(), expected, "registration {i}");
        }
    }

    #[test]
    fn readings_stay_within_dev_of_real_time() {
        let tb = ExternalClock::new(5_000);
        let mut h = tb.register_thread();
        for _ in 0..100 {
            let before = monotonic_ns();
            let t = h.get_time();
            let after = monotonic_ns();
            assert!(t.ts + t.dev >= before, "reading too far in the past");
            assert!(t.ts <= after + t.dev, "reading too far in the future");
        }
    }

    #[test]
    fn per_thread_monotonic_despite_offsets() {
        let tb = ExternalClock::new(1_000_000);
        let mut h = tb.register_thread();
        let mut last = h.get_time();
        for _ in 0..100 {
            let t = h.get_time();
            assert!(t.ts >= last.ts);
            last = t;
        }
    }

    #[test]
    fn two_handles_disagree_when_offsets_differ() {
        let tb = ExternalClock::new(1_000_000_000);
        let mut a = tb.register_thread(); // -1 s
        let mut b = tb.register_thread(); // +1 s
        let ta = a.get_time();
        let tb2 = b.get_time();
        // b's reading is ~2 s ahead of a's: not within exact comparability,
        // but ge still must NOT claim a ≽ b.
        assert!(!ta.ge(tb2));
    }

    #[test]
    fn explicit_offsets_are_validated() {
        for dev in [0, 10, 1_000_000_000] {
            let tb = ExternalClock::new(dev);
            for _ in 0..8 {
                let h = tb.register_thread();
                assert!(
                    h.offset_ns().unsigned_abs() <= dev,
                    "offset beyond dev {dev}"
                );
            }
        }
    }

    #[test]
    fn dev_zero_get_new_ts_is_strict() {
        let tb = ExternalClock::new(0);
        let mut h = tb.register_thread();
        let a = h.get_new_ts();
        let b = h.get_new_ts();
        assert!(b.ts > a.ts);
    }
}
