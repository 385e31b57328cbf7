//! The timestamp algebra of Algorithm 1 of the paper.
//!
//! Time-based transactional memory reasons about *uncertain* readings of a
//! global time base. Two timestamps `t1`, `t2` read by different threads may
//! not be totally ordered: with a non-zero clock reading error we may only be
//! able to say that one was *possibly* read later than the other. The paper
//! therefore defines (§2.1, Algorithm 1):
//!
//! * `t1 ≽ t2` — *guaranteed later than or equal*: it is guaranteed that `t2`
//!   was read no later than `t1`. Modeled by [`Timestamp::ge`].
//! * `t1 ≿ t2` — *possibly later than*: defined as `¬(t2 ≽ t1)`. Modeled by
//!   [`Timestamp::possibly_later`] (a provided method, exactly the paper's
//!   definition).
//! * `max(t1, t2)` — any `t3 ≽ max(t1, t2)` is guaranteed later than both.
//!   Modeled by [`Timestamp::join`].
//! * `min(t1, t2)` — any `t3 ≼ min(t1, t2)` is guaranteed earlier than both.
//!   Modeled by [`Timestamp::meet`].
//!
//! The relations obey, for all `t1`, `t2` (tested as properties in this
//! crate):
//!
//! * `t1 ≽ t2  ⟹  ¬(t2 ≿ t1)` is **not** generally true; the paper's
//!   guarantees are `t2 ≽ t1 ⟹ ¬(t1 ≾ t2)` and `t2 ≾ t1 ⟹ ¬(t1 ≼ t2)`,
//!   where `≾`/`≼` are the converses of `≿`/`≽`. In trait terms:
//!   `a.ge(b) ⟹ !a.possibly_earlier_strict(b)` — see the property tests in
//!   `tests/timestamp_laws.rs` for the exact formulations.
//! * For totally ordered time bases (counters, perfectly synchronized
//!   clocks), `ge` degenerates to `>=` and `join`/`meet` to `max`/`min`.

use core::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

/// An atomic `Option<Ts>`: the shared cell a transaction's commit time, a
/// version's validity bounds and a thread's published snapshot bound live
/// in. Starts unset ([`Default`]). Two disciplines share it and a given
/// cell follows one of them:
///
/// * **first setter wins** — any number of threads race [`set_once`] on an
///   unset cell and all leave with the one value that landed (the paper's
///   `C&S(T.CT, 0, t)`, Algorithm 2 lines 41–42);
/// * **single writer** — one thread at a time (the cell's owner, or whoever
///   holds the lock that guards it) calls [`put`], readers run alongside.
///
/// [`get`] never blocks a writer and never returns a value that was not
/// written whole. A value a reader obtains was written before everything
/// the writer did after the write (release / acquire).
///
/// [`set_once`]: TsCell::set_once
/// [`put`]: TsCell::put
/// [`get`]: TsCell::get
pub trait TsCell<Ts>: Debug + Default + Send + Sync + 'static {
    /// The current value, `None` while unset.
    fn get(&self) -> Option<Ts>;

    /// Install `ts` unless a value is already there; returns the value
    /// every caller must use from now on.
    fn set_once(&self, ts: Ts) -> Ts;

    /// Overwrite the cell. Callers guarantee there is no concurrent `put`
    /// or `set_once`.
    fn put(&self, value: Option<Ts>);
}

/// A timestamp drawn from some time base, together with the uncertainty-aware
/// comparison operations of Algorithm 1.
///
/// Implementations must be cheap to copy (timestamps are passed by value
/// throughout the STM hot path) and must satisfy the algebraic laws
/// documented on each method.
pub trait Timestamp: Copy + Clone + Debug + PartialEq + Send + Sync + 'static {
    /// The atomic `Option<Self>` for this timestamp type, sized to it: one
    /// word for word-sized timestamps, a multi-word cell where the
    /// timestamp is a tuple.
    type Cell: TsCell<Self>;

    /// The paper's `t1 ≽ t2` ("guaranteed later than or equal"): returns
    /// `true` iff it is guaranteed that `other` was read no later than
    /// `self`.
    ///
    /// Laws:
    /// * reflexive: `t.ge(t)`,
    /// * transitive: `a.ge(b) && b.ge(c) ⟹ a.ge(c)`,
    /// * for timestamps read successively by one thread from its clock,
    ///   later reads are `ge` earlier reads (per-thread monotonicity).
    fn ge(self, other: Self) -> bool;

    /// The paper's `t1 ≿ t2` ("possibly later than"), defined — exactly as in
    /// Algorithm 1 — as `¬(t2 ≽ t1)`.
    ///
    /// `t2.ge(t1)` implies `!t1.possibly_later(t2)`, and `t2.possibly_later(t1)`
    /// implies `!t1.ge(t2)`.
    #[inline]
    fn possibly_later(self, other: Self) -> bool {
        !other.ge(self)
    }

    /// The paper's `max(t1, t2)`: any timestamp guaranteed later than the
    /// result is guaranteed later than both arguments.
    ///
    /// For totally ordered time bases this is the ordinary maximum. For
    /// externally synchronized clocks it may need to *widen* uncertainty
    /// (Algorithm 5 poisons the clock id).
    fn join(self, other: Self) -> Self;

    /// The paper's `min(t1, t2)`: any timestamp guaranteed earlier than the
    /// result is guaranteed earlier than both arguments.
    fn meet(self, other: Self) -> Self;

    /// The immediate predecessor of this timestamp in the time base's
    /// granularity — the `CT − 1` of Algorithm 3 line 29 ("version valid at
    /// least until then"). For a commit at time `t`, the superseded version
    /// remains valid through `t.prior()`.
    fn prior(self) -> Self;

    /// A raw scalar projection of the timestamp, in the time base's native
    /// units, used **only** by measurement and reporting code (never by the
    /// STM algorithm itself): offsets and errors in
    /// [`crate::sync_measure`] are computed on these values.
    fn raw_value(self) -> i128;

    /// The earliest representable timestamp: every timestamp producible by
    /// any clock of the base is `ge` this value. Used as the lower validity
    /// bound of the *initial* version of a freshly created transactional
    /// object ("valid since the beginning of time"), so new objects are
    /// visible to every snapshot.
    fn origin() -> Self;
}

/// Logical (integer) timestamps: the time base is a totally ordered counter
/// or a perfectly synchronized clock. `ge` is ordinary `>=`.
impl Timestamp for u64 {
    type Cell = U64Cell;

    #[inline]
    fn ge(self, other: Self) -> bool {
        self >= other
    }

    #[inline]
    fn join(self, other: Self) -> Self {
        self.max(other)
    }

    #[inline]
    fn meet(self, other: Self) -> Self {
        self.min(other)
    }

    #[inline]
    fn prior(self) -> Self {
        self.saturating_sub(1)
    }

    #[inline]
    fn raw_value(self) -> i128 {
        self as i128
    }

    #[inline]
    fn origin() -> Self {
        0
    }
}

/// [`TsCell`] for `u64` timestamps: one atomic word, `u64::MAX` standing for
/// "unset" — no time base reaches it, and storing it is refused rather than
/// read back as `None`.
#[derive(Debug)]
pub struct U64Cell(AtomicU64);

const UNSET: u64 = u64::MAX;

/// The word that stores `value`.
#[inline]
fn word(value: Option<u64>) -> u64 {
    match value {
        Some(ts) => {
            assert_ne!(ts, UNSET, "u64::MAX is the cell's unset marker");
            ts
        }
        None => UNSET,
    }
}

impl Default for U64Cell {
    fn default() -> Self {
        U64Cell(AtomicU64::new(UNSET))
    }
}

impl TsCell<u64> for U64Cell {
    #[inline]
    fn get(&self) -> Option<u64> {
        match self.0.load(Ordering::Acquire) {
            UNSET => None,
            ts => Some(ts),
        }
    }

    #[inline]
    fn set_once(&self, ts: u64) -> u64 {
        let raced =
            self.0
                .compare_exchange(UNSET, word(Some(ts)), Ordering::AcqRel, Ordering::Acquire);
        match raced {
            Ok(_) => ts,
            Err(winner) => winner,
        }
    }

    #[inline]
    fn put(&self, value: Option<u64>) {
        self.0.store(word(value), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_ge_is_total_order() {
        assert!(5u64.ge(5));
        assert!(6u64.ge(5));
        assert!(!5u64.ge(6));
    }

    #[test]
    fn u64_possibly_later_matches_strict_greater() {
        // For a totally ordered base, "possibly later" is exactly ">".
        assert!(6u64.possibly_later(5));
        assert!(!5u64.possibly_later(5));
        assert!(!4u64.possibly_later(5));
    }

    #[test]
    fn u64_join_meet_are_max_min() {
        assert_eq!(3u64.join(7), 7);
        assert_eq!(3u64.meet(7), 3);
        assert_eq!(9u64.join(9), 9);
    }

    #[test]
    fn u64_prior_saturates_at_zero() {
        assert_eq!(5u64.prior(), 4);
        assert_eq!(0u64.prior(), 0);
    }

    #[test]
    fn paper_implications_hold_for_u64() {
        // t2 ≽ t1 ⟹ ¬(t1 ≿ t2)  and  t2 ≿ t1 ⟹ ¬(t1 ≽ t2)
        for t1 in 0u64..8 {
            for t2 in 0u64..8 {
                if t2.ge(t1) {
                    assert!(!t1.possibly_later(t2), "t1={t1} t2={t2}");
                }
                if t2.possibly_later(t1) {
                    assert!(!t1.ge(t2), "t1={t1} t2={t2}");
                }
            }
        }
    }
}
