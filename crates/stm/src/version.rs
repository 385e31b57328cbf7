//! Object version metadata.
//!
//! Every object traverses a sequence of versions (§1.1). A version's
//! *validity range* `[⌊v.R⌋, ⌈v.R⌉]` starts at the commit time of the
//! transaction that wrote it and ends just before the commit time of the
//! transaction that superseded it; the latest version has `⌈v.R⌉ = ∞`.
//!
//! [`VersionMeta`] separates the range bookkeeping from the (typed) payload
//! so that the transaction read set can be stored type-erased. Both bounds
//! are write-once timestamp cells ([`lsa_time::TsCell`], one word each for
//! `u64` time bases): the lower bound is fixed when the writing
//! transaction's speculative version is *folded* into the committed chain,
//! the upper bound when the next version commits. Both happen inside a fold,
//! which holds the object's write lock — so a bound has one writer at a time
//! and fixing it is a load and a release store, no read-modify-write; readers
//! outside the lock (extend, validation, helpers) pair with it by acquire.
//! Readers keep an `Arc<VersionMeta>` in their read set, so pruning old
//! versions from an object's chain never invalidates the information a
//! reader needs — a pruned version always has both bounds fixed.

use lsa_time::{Timestamp, TsCell};

/// Shared, write-once validity-range metadata of one object version.
#[derive(Debug)]
pub struct VersionMeta<Ts: Timestamp> {
    lower: Ts::Cell,
    upper: Ts::Cell,
    /// Keeps a `u64` node the 32 bytes it was with two `OnceLock`s. At 16
    /// its `Arc` allocation drops a size class and packs tighter against
    /// the neighbouring payload `Arc`s, whose counts every reader of those
    /// objects increments: `engine_scan` ran ~3 % slower that way
    /// (EXPERIMENTS.md, "LSA update atomics").
    _class_pad: [u64; 2],
}

/// Fix `bound` unless it already is. The caller is the bound's only writer
/// (it holds the object's write lock, or the only reference to the node).
#[inline]
fn fix<Ts: Timestamp>(bound: &Ts::Cell, ts: Ts) {
    if bound.get().is_none() {
        bound.put(Some(ts));
    }
}

impl<Ts: Timestamp> VersionMeta<Ts> {
    /// Metadata for a speculative version: both bounds unknown.
    pub fn speculative() -> Self {
        VersionMeta {
            lower: Ts::Cell::default(),
            upper: Ts::Cell::default(),
            _class_pad: [0; 2],
        }
    }

    /// Metadata for an already-committed version with a known lower bound
    /// (used for the initial version of a fresh object).
    pub fn committed_at(lower: Ts) -> Self {
        let meta = Self::speculative();
        meta.lower.put(Some(lower));
        meta
    }

    /// `⌊v.R⌋`, if the version has been committed.
    #[inline]
    pub fn lower(&self) -> Option<Ts> {
        self.lower.get()
    }

    /// `⌈v.R⌉`, if the version has been superseded (`None` means `∞`).
    #[inline]
    pub fn upper(&self) -> Option<Ts> {
        self.upper.get()
    }

    /// Fix the lower bound (at fold time, to the writer's commit time).
    /// Only the first call takes effect. Callers hold the object's write
    /// lock (a fold) or own the node outright.
    #[inline]
    pub fn set_lower(&self, ts: Ts) {
        fix(&self.lower, ts);
    }

    /// Fix the upper bound (when a superseding version is folded, to the
    /// superseder's commit time minus one granule). Only the first call
    /// takes effect; same single-writer rule as [`set_lower`](Self::set_lower).
    #[inline]
    pub fn set_upper(&self, ts: Ts) {
        fix(&self.upper, ts);
    }

    /// Return the node to its speculative state (both bounds unknown) so the
    /// version arena can hand it out again. Requires exclusive access — the
    /// arena proves it with `Arc::get_mut` before calling.
    #[inline]
    pub(crate) fn reset(&mut self) {
        *self = VersionMeta::speculative();
    }

    /// The version's validity range as currently known:
    /// `[lower, upper-or-∞]`. Panics if called before the version committed
    /// (speculative versions have no range yet).
    pub fn range(&self) -> lsa_time::ValidityRange<Ts> {
        let lower = self.lower().expect("range() on a speculative version");
        match self.upper() {
            Some(u) => lsa_time::ValidityRange::bounded(lower, u),
            None => lsa_time::ValidityRange::from(lower),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculative_has_no_bounds() {
        let m: VersionMeta<u64> = VersionMeta::speculative();
        assert_eq!(m.lower(), None);
        assert_eq!(m.upper(), None);
    }

    #[test]
    fn bounds_are_write_once() {
        let m: VersionMeta<u64> = VersionMeta::speculative();
        m.set_lower(5);
        m.set_lower(99); // ignored
        assert_eq!(m.lower(), Some(5));
        m.set_upper(10);
        m.set_upper(3); // ignored
        assert_eq!(m.upper(), Some(10));
    }

    #[test]
    fn committed_at_sets_lower_only() {
        let m: VersionMeta<u64> = VersionMeta::committed_at(7);
        assert_eq!(m.lower(), Some(7));
        assert_eq!(m.upper(), None);
        let r = m.range();
        assert_eq!(r.lower, 7);
        assert_eq!(r.upper, None);
    }

    #[test]
    fn range_reflects_fixed_upper() {
        let m: VersionMeta<u64> = VersionMeta::committed_at(7);
        m.set_upper(20);
        let r = m.range();
        assert_eq!(r.upper, Some(20));
        assert!(r.contains(7) && r.contains(20) && !r.contains(21));
    }

    #[test]
    #[should_panic(expected = "speculative")]
    fn range_on_speculative_panics() {
        let m: VersionMeta<u64> = VersionMeta::speculative();
        let _ = m.range();
    }
}
