//! Object versions.
//!
//! Every object traverses a sequence of versions (§1.1). A version's
//! *validity range* `[⌊v.R⌋, ⌈v.R⌉]` starts at the commit time of the
//! transaction that wrote it and ends just before the commit time of the
//! transaction that superseded it; the latest version has `⌈v.R⌉ = ∞`.
//!
//! [`VersionMeta`] *is* the version: one node holds the two bounds, the
//! payload (type-erased, so read sets hold heterogeneous versions) and a weak
//! reference back to the object, and the object's chain, a transaction's read
//! set and the version arena all hold the same `Arc` of it. A first read
//! therefore moves one reference count — the node's, for `T.O` — and lends
//! the caller the payload from there ([`VersionMeta::value_ref`]): never the
//! payload's count nor the object's.
//!
//! Both bounds are write-once timestamp cells ([`lsa_time::TsCell`], one
//! word each for `u64` time bases): the lower bound is fixed when the writing
//! transaction's speculative version is *folded* into the committed chain,
//! the upper bound when the next version commits. Both happen inside a fold,
//! which holds the object's write lock — so a bound has one writer at a time
//! and fixing it is a load and a release store, no read-modify-write; readers
//! outside the lock (extend, validation, helpers) pair with it by acquire.
//! Pruning a version from its chain never invalidates what a reader holds —
//! a pruned version has both bounds fixed, and its payload stays until the
//! last reader lets go of the node.
//!
//! Payload and back-reference are plain fields, written only through
//! `&mut`: by the fold that commits the node, which holds its only
//! reference — a fresh or pooled node, or the version the same fold prunes
//! ([`VersionMeta::recommit`]) — and by the arena when it takes a retired
//! node nobody else holds ([`VersionMeta::reset`]). In between — for as
//! long as the node is shared — they do not change.

use crate::object::AnyObject;
use lsa_time::{Timestamp, TsCell};
use std::any::Any;
use std::sync::atomic::{fence, Ordering};
use std::sync::{Arc, Weak};

/// One object version: validity range, payload and the way back to the
/// object.
pub struct VersionMeta<Ts: Timestamp> {
    lower: Ts::Cell,
    upper: Ts::Cell,
    /// `None` until a fold commits the node, and once it is pooled.
    payload: Option<Arc<dyn Any + Send + Sync>>,
    /// The object this is a version of, for `o.writer` (`getPrelimUB`).
    /// Weak: the object owns its versions. Same lifetime as `payload`.
    object: Option<Weak<dyn AnyObject<Ts>>>,
}

/// Fix `bound` unless it already is. The caller is the bound's only writer
/// (it holds the object's write lock).
#[inline]
fn fix<Ts: Timestamp>(bound: &Ts::Cell, ts: Ts) {
    if bound.get().is_none() {
        bound.put(Some(ts));
    }
}

impl<Ts: Timestamp> VersionMeta<Ts> {
    /// A node no fold has committed yet: both bounds unknown, nothing
    /// bound.
    pub fn speculative() -> Self {
        VersionMeta {
            lower: Ts::Cell::default(),
            upper: Ts::Cell::default(),
            payload: None,
            object: None,
        }
    }

    /// An already-committed version of `object` with a known lower bound
    /// (the initial version of a fresh object).
    pub fn committed_at(
        lower: Ts,
        payload: Arc<dyn Any + Send + Sync>,
        object: Weak<dyn AnyObject<Ts>>,
    ) -> Self {
        let mut node = Self::speculative();
        node.commit(lower, payload, object);
        node
    }

    /// Make an unbound node the version of `object` valid from `lower`
    /// with `payload` — everything a fold binds, in the one exclusive
    /// access it takes.
    pub(crate) fn commit(
        &mut self,
        lower: Ts,
        payload: Arc<dyn Any + Send + Sync>,
        object: Weak<dyn AnyObject<Ts>>,
    ) {
        debug_assert!(self.is_unbound() && self.lower().is_none());
        self.lower.put(Some(lower));
        self.payload = Some(payload);
        self.object = Some(object);
    }

    /// Make a version its object's chain is pruning that object's next
    /// version, valid from `lower` with `payload`: the bounds start over,
    /// the old payload is released, and the way back — already the right
    /// one — stays. The fold that prunes the node proves with `Arc::get_mut`
    /// that nobody else holds it, under the object's write lock.
    pub(crate) fn recommit(&mut self, lower: Ts, payload: Arc<dyn Any + Send + Sync>) {
        debug_assert!(self.object.is_some() && self.lower().is_some());
        self.lower.put(Some(lower));
        self.upper.put(None);
        self.payload = Some(payload);
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

    /// Fix the lower bound of a node that is not going through
    /// [`commit`](Self::commit): unit tests that need a committed-looking
    /// node and no object.
    #[cfg(test)]
    pub(crate) fn set_lower(&self, ts: Ts) {
        fix(&self.lower, ts);
    }

    /// Fix the upper bound (when a superseding version is folded, to the
    /// superseder's commit time minus one granule). Only the first call
    /// takes effect. The caller is the bound's only writer: it holds the
    /// object's write lock.
    #[inline]
    pub fn set_upper(&self, ts: Ts) {
        fix(&self.upper, ts);
    }

    /// The version's payload, as the `T` its object holds. Panics on a
    /// speculative node, and if `T` is not the object's payload type.
    #[inline]
    pub fn value<T: Send + Sync + 'static>(&self) -> Arc<T> {
        Arc::clone(self.payload.as_ref().expect("a committed version"))
            .downcast::<T>()
            .expect("object payload type is stable")
    }

    /// The version's payload by reference — no count moves. Panics like
    /// [`value`](Self::value).
    #[inline]
    pub fn value_ref<T: Send + Sync + 'static>(&self) -> &T {
        self.payload
            .as_deref()
            .expect("a committed version")
            .downcast_ref::<T>()
            .expect("object payload type is stable")
    }

    /// The object this is a version of, if it is still alive. A `TVar` whose
    /// last handle is gone has no registered writer and never will have one,
    /// so `None` lets `getPrelimUB` go straight to its fallback — after the
    /// re-check of `upper` that the fence below orders behind every fold
    /// done through a reference that has since been dropped.
    #[inline]
    pub(crate) fn object(&self) -> Option<Arc<dyn AnyObject<Ts>>> {
        let object = self.object.as_ref().and_then(Weak::upgrade);
        if object.is_none() {
            // `upgrade` reads a zero strong count relaxed; the holders'
            // decrements were releases.
            fence(Ordering::Acquire);
        }
        object
    }

    /// Whether the node holds neither payload nor back-reference (what the
    /// arena's pool may contain).
    pub(crate) fn is_unbound(&self) -> bool {
        self.payload.is_none() && self.object.is_none()
    }

    /// Return the node to its speculative state — bounds unknown, payload
    /// and back-reference released — so the version arena can hand it out
    /// again. Requires exclusive access: the arena proves it with
    /// `Arc::get_mut` when it retires the node.
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

impl<Ts: Timestamp> std::fmt::Debug for VersionMeta<Ts> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionMeta")
            .field("lower", &self.lower())
            .field("upper", &self.upper())
            .field("bound", &!self.is_unbound())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::TObject;

    /// A committed version of a live object, and the object.
    fn committed_at(lower: u64) -> (Arc<TObject<u64, u64>>, VersionMeta<u64>) {
        let obj = TObject::new(1, 0u64, 0, 4);
        let object = Arc::downgrade(&obj) as Weak<dyn AnyObject<u64>>;
        (
            obj,
            VersionMeta::committed_at(lower, Arc::new(5u64), object),
        )
    }

    #[test]
    fn speculative_has_no_bounds() {
        let m: VersionMeta<u64> = VersionMeta::speculative();
        assert_eq!(m.lower(), None);
        assert_eq!(m.upper(), None);
        assert!(m.is_unbound());
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
        let (_obj, m) = committed_at(7);
        assert_eq!(m.lower(), Some(7));
        assert_eq!(m.upper(), None);
        let r = m.range();
        assert_eq!(r.lower, 7);
        assert_eq!(r.upper, None);
    }

    #[test]
    fn range_reflects_fixed_upper() {
        let (_obj, m) = committed_at(7);
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

    #[test]
    fn a_committed_node_carries_its_payload_and_its_way_back() {
        let (obj, mut m) = committed_at(7);
        assert_eq!(*m.value::<u64>(), 5);
        let back = m.object().expect("the object is alive");
        assert_eq!(back.id(), obj.id());
        drop(back);
        // The reference is weak: the node does not keep the object.
        assert_eq!(Arc::strong_count(&obj), 1);
        drop(obj);
        assert!(m.object().is_none(), "a dropped object is not found");
        assert_eq!(*m.value::<u64>(), 5, "the payload is the node's own");
        // Reset releases both, and the bounds with them.
        m.reset();
        assert!(m.is_unbound());
        assert_eq!((m.lower(), m.upper()), (None, None));
    }

    #[test]
    fn a_recommitted_node_keeps_its_way_back_and_nothing_else() {
        let obj = TObject::new(1, 0u64, 0, 4);
        let back = Arc::downgrade(&obj) as Weak<dyn AnyObject<u64>>;
        let (old, new) = (Arc::new(5u64), Arc::new(6u64));
        let mut m = VersionMeta::committed_at(7, old.clone(), back);
        m.set_upper(19);
        m.recommit(20, new.clone());
        assert_eq!((m.lower(), m.upper()), (Some(20), None));
        assert_eq!(*m.value_ref::<u64>(), 6);
        assert_eq!(Arc::strong_count(&old), 1, "the old payload is released");
        assert_eq!(Arc::strong_count(&new), 2);
        assert_eq!(m.object().expect("alive").id(), obj.id());
        assert_eq!(Arc::weak_count(&obj), 3, "itself, its head, this node");
    }
}
