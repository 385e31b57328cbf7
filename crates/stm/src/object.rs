//! Multi-version transactional objects with visible writes.
//!
//! Each object holds a bounded chain of *committed* versions (the latest in
//! the object itself, the superseded ones behind it, newest first) plus at
//! most one *speculative* version owned by a registered writer — the
//! paper's `o.writer` mark (§2.3, DSTM-style visible writes). "Setting the
//! transaction's state atomically commits — or discards in case of an abort —
//! all object versions written by the transaction": the speculative version's
//! fate is determined solely by its writer's status word, and it is *folded*
//! into the committed chain (or dropped) lazily by the next thread that
//! touches the object, and proactively by the committer itself.
//!
//! Lock discipline: every object has its own short-critical-section
//! [`RwLock`]; no thread ever holds two object locks, and no lock is held
//! while resolving a write-write conflict, helping a commit, or touching a
//! time base. The one piece of user code that runs under a lock is a
//! `modify` closure, and its contract is to touch no `TVar`. Global
//! coordination happens **only** through the time base — preserving the
//! phenomenon the paper measures. That covers the version store too: a fold
//! draws its version node, its gauges and the pruning watermark from the
//! calling thread's own [`LocalReclaim`], so a commit writes its objects,
//! its descriptor, its snapshot slot and its gauge shard, and of the shared
//! reclamation state only *reads* the epoch word ([`crate::reclaim`]).
//!
//! Opening an object for writing is one critical section,
//! [`TObject::try_write`] (Algorithm 2 lines 9–24): it checks that the
//! caller's snapshot admits `vc`, the latest committed version, runs the
//! caller's derivation on `vc`'s value by reference, and registers the
//! writer with the result installed — `Txn::modify`'s closure, or
//! `Txn::write`'s payload, which ignores `vc`. The fold at commit is the only
//! other acquisition, and it draws the version node: the node of the version
//! the same fold prunes when nobody else holds it, else one from the pool.
//!
//! A first read takes the object's lock **once**: [`TObject::try_read`]
//! selects the version and, in the same critical section, samples what
//! `getPrelimUB` needs to bound it ([`ReadAttempt::Found::upper`]). What it
//! hands out is the version node itself ([`VersionMeta`]: bounds, payload,
//! the way back to this object) — the chain holds nothing else, so the read
//! clones one `Arc` under the lock and leaves the object's own count alone. A
//! version's `upper` is only ever fixed under the write lock (by a fold), so
//! "no upper bound, and the registered writer — if any — is still `Active`"
//! is one atomic observation there, where the lock-free paths
//! ([`AnyObject::current_writer`] from extend, validate and helpers) have to
//! re-check `upper` after sampling the writer.

use crate::reclaim::{LocalReclaim, ReclaimDomain};
use crate::status::TxnStatus;
use crate::txn_shared::TxnShared;
use crate::version::VersionMeta;
use lsa_time::{Timestamp, ValidityRange};
use parking_lot::RwLock;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Weak};

/// Type-erased view of an object used by read sets, validation and helping
/// (no payload type parameter, so descriptors can hold heterogeneous sets).
pub trait AnyObject<Ts: Timestamp>: Send + Sync {
    /// Process-wide object id.
    fn id(&self) -> u64;

    /// The currently registered writer, if any (the paper's `o.writer`),
    /// regardless of its status.
    fn current_writer(&self) -> Option<Arc<TxnShared<Ts>>>;

    /// Fold a *resolved* (committed/aborted) speculative version into the
    /// committed chain / the void. No-op when there is no speculative
    /// version or its writer is still live. `local` is the calling thread's
    /// share of the reclamation domain, `None` outside a handle.
    fn fold_resolved(&self, local: Option<&mut LocalReclaim<Ts>>);
}

/// Outcome of a read attempt (the object-side half of `getVersion`,
/// Algorithm 3 lines 7–18).
pub enum ReadAttempt<Ts: Timestamp> {
    /// A committed version overlapping the requested range.
    Found {
        /// The version (goes into the read set; the payload is its
        /// [`VersionMeta::value`]).
        meta: Arc<VersionMeta<Ts>>,
        /// `⌊v.R⌋` — returned separately so the caller does not re-lock.
        lower: Ts,
        /// `getPrelimUB`'s evidence, sampled with the selection: `Some(u)` is
        /// the version's fixed `⌈v.R⌉`; `None` means that while the lock was
        /// held the version was the latest and no registered writer had
        /// entered `Committing` — so a superseder's commit time exceeds
        /// every timestamp the caller obtained before the call, and the
        /// caller's fallback `t` is a sound bound without re-locking.
        upper: Option<Ts>,
    },
    /// No committed version overlaps the range. The head has no upper bound
    /// (nothing unfolded supersedes it), so it lies wholly above `⌈T.R⌉` and
    /// an extension is always worth trying.
    NoOverlap,
    /// A resolved speculative version must be folded first; call
    /// [`AnyObject::fold_resolved`] and retry.
    NeedFold,
    /// The registered writer is committing; help it finish (Algorithm 3
    /// line 13) and retry.
    NeedHelp(Arc<TxnShared<Ts>>),
}

/// Outcome of a write-registration attempt (Algorithm 2 lines 11–24).
pub enum WriteAttempt<Ts: Timestamp> {
    /// We are now the registered writer, with the derived payload installed.
    Registered {
        /// `T.R ∩ [⌊vc.R⌋, t]` (Algorithm 2 lines 28–29 against `vc`, the
        /// latest committed version): the snapshot's new range. While the
        /// caller holds the write mark `vc` stays the latest, so its upper
        /// bound needs no evidence beyond that.
        range: ValidityRange<Ts>,
    },
    /// `vc` is too recent for the snapshot (Algorithm 2 lines 22–24):
    /// nothing was registered and the derivation did not run. Extend and
    /// retry, or abort.
    TooRecent,
    /// This transaction was already the registered writer; nothing was
    /// installed.
    AlreadyWriter,
    /// Another *active* transaction holds the write mark: the caller's
    /// built-in conflict policy, which kills it (Algorithm 2 lines 16–17).
    Conflict(Arc<TxnShared<Ts>>),
    /// The registered writer is committing; help it and retry.
    NeedHelp(Arc<TxnShared<Ts>>),
}

struct Spec<T, Ts: Timestamp> {
    /// Derived at registration, replaced by re-writes; the fold moves it
    /// into the version node it draws.
    value: Arc<T>,
    writer: Arc<TxnShared<Ts>>,
}

/// "Only superseded versions sit behind the head" — pruning never erases
/// live range information.
const SUPERSEDED: &str = "a version behind the head has a fixed upper bound";

/// `T.R ∩ [⌊v.R⌋, u]` (Algorithm 2 lines 28–29) for a version with lower
/// bound `lower` and `getPrelimUB` evidence `upper`: its fixed upper bound,
/// or `None` for a version that was the latest, with no committing writer,
/// when the caller sampled it after obtaining `observed`. Then `u` is the
/// fallback `t`, the join of the narrowed lower bound and `observed` — a time
/// in the caller's past, so every superseder commits after it.
pub(crate) fn narrow<Ts: Timestamp>(
    range: ValidityRange<Ts>,
    lower: Ts,
    upper: Option<Ts>,
    observed: Ts,
) -> ValidityRange<Ts> {
    let mut nr = range;
    nr.restrict_lower(lower);
    nr.restrict_upper(upper.unwrap_or_else(|| nr.lower.join(observed)));
    nr
}

struct ObjInner<T, Ts: Timestamp> {
    /// The latest committed version, held in the object itself. A read of
    /// it — the common one — goes from the lock word to the node without
    /// passing through a chain buffer, which as a small allocation of its
    /// own shares a cache line with whatever the allocator puts beside it
    /// (payload `Arc`s, whose counts every reader of *another* object
    /// writes).
    head: Arc<VersionMeta<Ts>>,
    /// The superseded versions still retained, newest first. Allocates
    /// when the first of them has to stay.
    older: VecDeque<Arc<VersionMeta<Ts>>>,
    /// The at-most-one speculative version (the visible write mark).
    spec: Option<Spec<T, Ts>>,
}

/// A multi-version transactional object.
pub struct TObject<T, Ts: Timestamp> {
    id: u64,
    max_versions: usize,
    /// The runtime's reclamation domain, when the object participates in
    /// watermark pruning and arena recycling (`None` for free-standing
    /// objects built with [`TObject::new`], e.g. in unit tests). An object
    /// with a domain prunes below its watermark as well as at the
    /// `max_versions` ceiling; one without prunes at the ceiling alone.
    reclaim: Option<Arc<ReclaimDomain<Ts>>>,
    /// This object, for the back-reference of the versions it commits.
    me: Weak<Self>,
    inner: RwLock<ObjInner<T, Ts>>,
}

impl<T, Ts: Timestamp> ObjInner<T, Ts> {
    /// The committed versions, newest first.
    fn versions(&self) -> impl Iterator<Item = &Arc<VersionMeta<Ts>>> {
        std::iter::once(&self.head).chain(&self.older)
    }
}

impl<T: Send + Sync + 'static, Ts: Timestamp> TObject<T, Ts> {
    /// Create an object whose initial version is valid from `lower`
    /// (normally [`Timestamp::origin`], so every snapshot can see it).
    pub fn new(id: u64, initial: T, lower: Ts, max_versions: usize) -> Arc<Self> {
        Self::build(id, initial, lower, max_versions, None)
    }

    fn build(
        id: u64,
        initial: T,
        lower: Ts,
        max_versions: usize,
        reclaim: Option<Arc<ReclaimDomain<Ts>>>,
    ) -> Arc<Self> {
        assert!(max_versions >= 1, "need at least one committed version");
        Arc::new_cyclic(|me: &Weak<Self>| {
            let head = Arc::new(VersionMeta::committed_at(
                lower,
                Arc::new(initial),
                me.clone(),
            ));
            TObject {
                id,
                max_versions,
                reclaim,
                me: me.clone(),
                inner: RwLock::new(ObjInner {
                    head,
                    older: VecDeque::new(),
                    spec: None,
                }),
            }
        })
    }

    /// Like [`TObject::new`], but attached to a reclamation domain: version
    /// metadata is drawn from the domain's arena, retired versions return to
    /// it, and the chain prunes below the domain's minimum-active-snapshot
    /// watermark instead of relying on the `max_versions` ceiling alone.
    pub(crate) fn with_reclaim(
        id: u64,
        initial: T,
        lower: Ts,
        max_versions: usize,
        reclaim: Arc<ReclaimDomain<Ts>>,
    ) -> Arc<Self> {
        reclaim.note_seeded(); // the initial version
        Self::build(id, initial, lower, max_versions, Some(reclaim))
    }

    /// The latest committed value, ignoring transactions (for seeding and
    /// debugging; *not* transactionally consistent with anything else).
    pub fn snapshot_latest(&self) -> Arc<T> {
        self.fold_resolved(None);
        let inner = self.inner.read();
        inner.head.value()
    }

    /// Number of committed versions currently retained.
    pub fn version_count(&self) -> usize {
        1 + self.inner.read().older.len()
    }

    /// Debug view of the committed chain: `(lower, upper)` per version,
    /// newest first, plus the current writer's status if any.
    #[doc(hidden)]
    pub fn debug_chain(&self) -> Vec<(Option<Ts>, Option<Ts>)> {
        self.inner
            .read()
            .versions()
            .map(|v| (v.lower(), v.upper()))
            .collect()
    }

    /// The object-side half of `getVersion` for a read in `range`:
    /// the newest committed version whose validity range (as recorded —
    /// preliminary bounds are the caller's business) overlaps `range`.
    pub fn try_read(&self, range: &ValidityRange<Ts>) -> ReadAttempt<Ts> {
        let inner = self.inner.read();
        if let Some(spec) = &inner.spec {
            match spec.writer.status() {
                TxnStatus::Committed | TxnStatus::Aborted => return ReadAttempt::NeedFold,
                TxnStatus::Committing => return ReadAttempt::NeedHelp(Arc::clone(&spec.writer)),
                TxnStatus::Active => {} // invisible to readers
            }
        }
        for (idx, v) in inner.versions().enumerate() {
            let lower = v.lower().expect("committed version has lower");
            debug_assert!(
                idx == 0 || v.upper().is_some(),
                "non-front version without an upper bound (chain corrupt)"
            );
            let upper = v.upper();
            if (ValidityRange { lower, upper }).overlaps(range) {
                return ReadAttempt::Found {
                    meta: Arc::clone(v),
                    lower,
                    upper,
                };
            }
        }
        ReadAttempt::NoOverlap
    }

    /// The caller's share of this object's reclamation domain, synced to the
    /// domain's epoch: `local` when it is one, else a short-lived share put
    /// into `detached` (callers outside a handle, handles of another
    /// runtime). `None` for free-standing objects.
    fn reclaimer<'a>(
        &self,
        local: Option<&'a mut LocalReclaim<Ts>>,
        detached: &'a mut Option<LocalReclaim<Ts>>,
    ) -> Option<&'a mut LocalReclaim<Ts>> {
        let domain = self.reclaim.as_ref()?;
        let share = match local {
            Some(share) if share.serves(domain) => share,
            _ => detached.insert(LocalReclaim::new(domain)),
        };
        share.sync();
        Some(share)
    }

    /// `Open(T, o, write)` for `me` (Algorithm 2 lines 9–24), in one
    /// critical section: fold a resolved writer; unless a live one holds the
    /// mark, check that the snapshot admits `vc`, the latest committed
    /// version — `snapshot ∩ [⌊vc.R⌋, t]` non-empty, `t` the join of its
    /// lower bound and `observed` ([`narrow`]) — and only then take `derive`,
    /// run it on `vc`'s value by reference and register `me` with the result
    /// installed.
    ///
    /// `derive` runs under this object's write lock, exactly when the call
    /// returns `Registered`; on every other outcome it stays with the caller
    /// for the retry. It must not touch any `TObject`: this one's lock is
    /// held, and no thread may hold two.
    pub fn try_write<F: FnOnce(&T) -> Arc<T>>(
        &self,
        me: &Arc<TxnShared<Ts>>,
        snapshot: ValidityRange<Ts>,
        observed: Ts,
        derive: &mut Option<F>,
        local: Option<&mut LocalReclaim<Ts>>,
    ) -> WriteAttempt<Ts> {
        let mut detached = None;
        let mut reclaim = self.reclaimer(local, &mut detached);
        let mut inner = self.inner.write();
        // The registered writer's status is not protected by this object's
        // lock, so it can resolve at any instant — loop until we observe a
        // stable, unresolved state (we hold the lock, so at most one extra
        // fold happens).
        loop {
            self.fold_locked(&mut inner, reclaim.as_deref_mut());
            match &inner.spec {
                None => break,
                Some(spec) => match spec.writer.status() {
                    TxnStatus::Active | TxnStatus::Committing if spec.writer.id() == me.id() => {
                        return WriteAttempt::AlreadyWriter;
                    }
                    TxnStatus::Active => return WriteAttempt::Conflict(Arc::clone(&spec.writer)),
                    TxnStatus::Committing => {
                        return WriteAttempt::NeedHelp(Arc::clone(&spec.writer))
                    }
                    // Resolved between fold and match: fold again.
                    TxnStatus::Committed | TxnStatus::Aborted => continue,
                },
            }
        }
        let vc = &inner.head;
        let range = narrow(snapshot, vc.lower().expect("committed"), None, observed);
        if !range.is_consistent() {
            return WriteAttempt::TooRecent;
        }
        let derive = derive.take().expect("offered to every registration");
        let value = derive(vc.value_ref());
        inner.spec = Some(Spec {
            value,
            writer: Arc::clone(me),
        });
        WriteAttempt::Registered { range }
    }

    /// Replace the speculative payload (a re-write of an object the
    /// transaction already registered on). Returns `false` if `me` is no
    /// longer the registered writer (it was killed and its speculative
    /// version discarded).
    pub fn set_spec_value(&self, me_id: u64, value: Arc<T>) -> bool {
        self.modify_spec(me_id, |_| value)
    }

    /// Replace the speculative payload with `f` of it, in one critical
    /// section (a `modify` of an object the transaction already registered
    /// on). `f` runs under the write lock, with [`try_write`]'s contract.
    /// Returns `false`, without running `f`, if `me` is no longer the
    /// registered writer.
    ///
    /// [`try_write`]: Self::try_write
    pub fn modify_spec(&self, me_id: u64, f: impl FnOnce(&Arc<T>) -> Arc<T>) -> bool {
        let mut inner = self.inner.write();
        match &mut inner.spec {
            Some(spec) if spec.writer.id() == me_id => {
                spec.value = f(&spec.value);
                true
            }
            _ => false,
        }
    }

    /// Read back the speculative payload (read-own-write). `None` if `me`
    /// is no longer the registered writer.
    pub fn read_spec_value(&self, me_id: u64) -> Option<Arc<T>> {
        let inner = self.inner.read();
        match &inner.spec {
            Some(spec) if spec.writer.id() == me_id => Some(Arc::clone(&spec.value)),
            _ => None,
        }
    }

    /// Whether a fold prunes the tail of a chain that keeps `retained`
    /// superseded versions, the tail included, when the tail's upper bound
    /// is `upper`. Two policies prune:
    ///
    /// * the `max_versions` hard ceiling (always), and
    /// * the minimum-active-snapshot watermark (when installed, `Some`): a
    ///   tail version whose fixed upper bound `u` satisfies `w ≿ u` is
    ///   unreadable by every registered snapshot (each active lower bound
    ///   `s` has `s ≽ w`, so `u ≽ s` would give `u ≽ w` by transitivity,
    ///   contradicting `w ≿ u`).
    fn prunes(&self, retained: usize, upper: Ts, watermark: Option<Ts>) -> bool {
        retained >= self.max_versions || watermark.is_some_and(|w| w.possibly_later(upper))
    }

    /// Fold a resolved speculative version while holding the write lock:
    ///
    /// * committed writer → link a version node as the new head — lower
    ///   bound the writer's commit time `CT`, the payload, the way back to
    ///   this object — fix the previous head's upper bound to `CT.prior()`
    ///   (Algorithm 3 line 29's "valid at least until then" becomes exact
    ///   here), prune the tail;
    /// * aborted writer → discard.
    ///
    /// The node is the one of the version this fold prunes first, when that
    /// one goes and `Arc::get_mut` proves nobody else holds it: rebound in
    /// place ([`VersionMeta::recommit`]), its way back kept. Otherwise it is
    /// drawn from the pool and bound in the one exclusive access it takes.
    ///
    /// Tail pruning retires **eagerly at commit** — the committer folds its
    /// own write (`finalize_cleanup` → `fold_resolved`), so reclamation does
    /// not depend on a future accessor happening to touch this object. The
    /// folding thread's (synced) share of the domain supplies the watermark
    /// and takes the retired nodes ([`prunes`](Self::prunes) says which).
    fn fold_locked(&self, inner: &mut ObjInner<T, Ts>, mut reclaim: Option<&mut LocalReclaim<Ts>>) {
        let resolved = match &inner.spec {
            Some(spec) => spec.writer.status().is_final(),
            None => false,
        };
        if !resolved {
            return;
        }
        let spec = inner.spec.take().expect("checked above");
        match spec.writer.status() {
            TxnStatus::Committed => {}
            TxnStatus::Aborted => return,
            _ => unreachable!("resolved checked above"),
        }
        let ct = spec.writer.ct().expect("committed writer has a CT");
        let payload: Arc<dyn Any + Send + Sync> = spec.value;
        debug_assert!(
            ct.possibly_later(inner.head.lower().expect("committed")),
            "commit-time order inverted within one object's chain: new {:?} after {:?}",
            ct,
            inner.head.lower()
        );
        // `reclaim` is `Some` exactly when the object has a domain, so every
        // runtime object prunes below the watermark; free-standing ones
        // prune at the ceiling alone.
        let watermark = reclaim.as_ref().and_then(|r| r.watermark());
        // The version pruned first is the tail of `older` once the head has
        // joined it — the head itself, superseded at `CT.prior()`, when
        // `older` is empty.
        let head_is_tail = inner.older.is_empty();
        let retained = inner.older.len() + 1;
        let (first, upper) = match inner.older.back_mut() {
            Some(tail) => {
                let upper = tail.upper().expect(SUPERSEDED);
                (tail, upper)
            }
            None => (&mut inner.head, ct.prior()),
        };
        let unshared = if self.prunes(retained, upper, watermark) {
            Arc::get_mut(first)
        } else {
            None
        };
        let node = match unshared {
            Some(node) => {
                node.recommit(ct, payload);
                if let Some(r) = &reclaim {
                    r.note_recycled();
                }
                if head_is_tail {
                    return;
                }
                inner.older.pop_back().expect("the tail was recommitted")
            }
            None => {
                let mut node = match reclaim.as_deref_mut() {
                    Some(r) => r.alloc_meta(),
                    None => Arc::new(VersionMeta::speculative()),
                };
                Arc::get_mut(&mut node)
                    .expect("a node from the pool has one reference")
                    .commit(ct, payload, self.me.clone());
                if let Some(r) = &reclaim {
                    r.note_live();
                }
                node
            }
        };
        let prev = std::mem::replace(&mut inner.head, node);
        prev.set_upper(ct.prior());
        inner.older.push_front(prev);
        // Readers that still hold a pruned node keep its range and value.
        while let Some(tail) = inner.older.back() {
            let upper = tail.upper().expect(SUPERSEDED);
            if !self.prunes(inner.older.len(), upper, watermark) {
                // Some registered snapshot may read the tail (and
                // everything newer): stop.
                break;
            }
            let pruned = inner.older.pop_back().expect("back() was Some");
            if let Some(r) = &mut reclaim {
                r.retire(pruned);
            }
        }
    }
}

impl<T: Send + Sync + 'static, Ts: Timestamp> AnyObject<Ts> for TObject<T, Ts> {
    fn id(&self) -> u64 {
        self.id
    }

    fn current_writer(&self) -> Option<Arc<TxnShared<Ts>>> {
        self.inner
            .read()
            .spec
            .as_ref()
            .map(|s| Arc::clone(&s.writer))
    }

    fn fold_resolved(&self, local: Option<&mut LocalReclaim<Ts>>) {
        // Writers fold their own commits, so outside a handle there is
        // rarely anything to do: look before setting up a detached share.
        let spec_resolved = |spec: &Spec<T, Ts>| spec.writer.status().is_final();
        if local.is_none() && !self.inner.read().spec.as_ref().is_some_and(spec_resolved) {
            return;
        }
        let mut detached = None;
        let reclaim = self.reclaimer(local, &mut detached);
        let mut inner = self.inner.write();
        self.fold_locked(&mut inner, reclaim);
    }
}

impl<T, Ts: Timestamp> std::fmt::Debug for TObject<T, Ts> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TObject").field("id", &self.id).finish()
    }
}

/// A cloneable handle to a [`TObject`] — the user-facing "transactional
/// variable". Reads and writes go through
/// [`crate::lsa::Txn::read`] / [`crate::lsa::Txn::write`].
pub struct TVar<T, Ts: Timestamp> {
    obj: Arc<TObject<T, Ts>>,
}

impl<T, Ts: Timestamp> Clone for TVar<T, Ts> {
    fn clone(&self) -> Self {
        TVar {
            obj: Arc::clone(&self.obj),
        }
    }
}

impl<T: Send + Sync + 'static, Ts: Timestamp> TVar<T, Ts> {
    /// Wrap an object (used by [`crate::stm::Stm::new_tvar`]).
    pub(crate) fn from_object(obj: Arc<TObject<T, Ts>>) -> Self {
        TVar { obj }
    }

    /// The underlying object.
    #[inline]
    pub(crate) fn object(&self) -> &Arc<TObject<T, Ts>> {
        &self.obj
    }

    /// The underlying object, exposed for white-box tests that construct
    /// descriptor states directly (helping / failure injection). Not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn object_for_tests(&self) -> &Arc<TObject<T, Ts>> {
        &self.obj
    }

    /// Object id (stable across clones of the handle).
    pub fn id(&self) -> u64 {
        self.obj.id
    }

    /// Latest committed value, outside any transaction (debug/seeding only).
    pub fn snapshot_latest(&self) -> Arc<T> {
        self.obj.snapshot_latest()
    }

    /// Number of committed versions currently retained (for tests and the
    /// multi- vs single-version experiments).
    pub fn version_count(&self) -> usize {
        self.obj.version_count()
    }
}

impl<T, Ts: Timestamp> std::fmt::Debug for TVar<T, Ts> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TVar").field("id", &self.obj.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::TxnStatus;

    fn obj(max_versions: usize) -> Arc<TObject<i64, u64>> {
        TObject::new(1, 10, 0, max_versions)
    }

    fn txn(id: u64) -> Arc<TxnShared<u64>> {
        Arc::new(TxnShared::new(id))
    }

    /// What `Txn::write` offers a registration: `value`, whatever `vc` is.
    fn payload(value: i64) -> Option<impl FnOnce(&i64) -> Arc<i64>> {
        let value = Arc::new(value);
        Some(move |_: &i64| value)
    }

    /// A snapshot that admits every version.
    fn any_time() -> ValidityRange<u64> {
        ValidityRange::from(0u64)
    }

    /// Register `t` on `o` with `value` as its payload, outside any handle.
    fn write(o: &TObject<i64, u64>, t: &Arc<TxnShared<u64>>, value: i64) -> WriteAttempt<u64> {
        o.try_write(t, any_time(), 0, &mut payload(value), None)
    }

    #[test]
    fn fresh_object_serves_initial_version() {
        let o = obj(4);
        match o.try_read(&ValidityRange::from(5u64)) {
            ReadAttempt::Found { meta, lower, .. } => {
                assert_eq!(*meta.value::<i64>(), 10);
                assert_eq!(lower, 0);
            }
            _ => panic!("expected Found"),
        }
    }

    #[test]
    fn write_commit_fold_produces_new_version() {
        let o = obj(4);
        let t = txn(100);
        match write(&o, &t, 42) {
            WriteAttempt::Registered { range } => {
                assert_eq!((range.lower, range.upper), (0, Some(0)), "T.R ∩ vc's range");
            }
            _ => panic!("expected Registered"),
        }
        t.transition(TxnStatus::Active, TxnStatus::Committing);
        t.set_ct(7);
        t.transition(TxnStatus::Committing, TxnStatus::Committed);
        o.fold_resolved(None);
        assert_eq!(o.debug_chain()[0], (Some(7), None), "valid from CT on");
        assert_eq!(*o.snapshot_latest(), 42);
        assert_eq!(o.version_count(), 2);
        // Old version's upper is CT - 1.
        match o.try_read(&ValidityRange::bounded(0u64, 6)) {
            ReadAttempt::Found { meta, .. } => {
                assert_eq!(*meta.value::<i64>(), 10);
                assert_eq!(meta.upper(), Some(6));
            }
            _ => panic!("old version must still be readable at 6"),
        }
        // New version serves times >= 7.
        match o.try_read(&ValidityRange::from(7u64)) {
            ReadAttempt::Found { meta, .. } => assert_eq!(*meta.value::<i64>(), 42),
            _ => panic!("new version must serve"),
        }
    }

    #[test]
    fn aborted_writer_is_discarded() {
        let o = obj(4);
        let t = txn(100);
        assert!(matches!(
            write(&o, &t, 999),
            WriteAttempt::Registered { .. }
        ));
        t.transition(TxnStatus::Active, TxnStatus::Aborted);
        o.fold_resolved(None);
        assert_eq!(*o.snapshot_latest(), 10, "write discarded");
        assert_eq!(o.version_count(), 1);
        assert!(o.current_writer().is_none());
    }

    #[test]
    fn second_writer_conflicts_with_active_first() {
        let o = obj(4);
        let t1 = txn(1);
        let t2 = txn(2);
        assert!(matches!(write(&o, &t1, 0), WriteAttempt::Registered { .. }));
        match write(&o, &t2, 0) {
            WriteAttempt::Conflict(w) => assert_eq!(w.id(), 1),
            _ => panic!("expected Conflict"),
        }
        assert!(matches!(write(&o, &t1, 0), WriteAttempt::AlreadyWriter));
    }

    #[test]
    fn the_payload_is_taken_exactly_when_the_writer_ends_up_registered() {
        let o = obj(4);
        let (t1, t2) = (txn(1), txn(2));
        let mut first = payload(11);
        assert!(matches!(
            o.try_write(&t1, any_time(), 0, &mut first, None),
            WriteAttempt::Registered { .. }
        ));
        assert!(first.is_none());
        assert_eq!(*o.read_spec_value(t1.id()).unwrap(), 11, "installed");

        // Turned away by an active writer, then by a committing one: the
        // payload stays with the caller for its retry.
        let mut blocked = payload(22);
        assert!(matches!(
            o.try_write(&t2, any_time(), 0, &mut blocked, None),
            WriteAttempt::Conflict(_)
        ));
        t1.transition(TxnStatus::Active, TxnStatus::Committing);
        assert!(matches!(
            o.try_write(&t2, any_time(), 0, &mut blocked, None),
            WriteAttempt::NeedHelp(_)
        ));
        assert!(blocked.is_some());
        assert_eq!(*o.read_spec_value(t1.id()).unwrap(), 11, "untouched");

        t1.set_ct(7);
        t1.transition(TxnStatus::Committing, TxnStatus::Committed);
        assert!(matches!(
            o.try_write(&t2, any_time(), 0, &mut blocked, None),
            WriteAttempt::Registered { .. }
        ));
        assert!(blocked.is_none());
        assert_eq!(*o.snapshot_latest(), 11, "t1's fold, not t2's payload");
        assert_eq!(*o.read_spec_value(t2.id()).unwrap(), 22);
    }

    #[test]
    fn a_payload_less_registration_hands_back_vc_and_owes_the_payload() {
        // The derive path (`Txn::modify`): the registration hands `vc`'s
        // value to the closure by reference, runs it once, and installs what
        // it returns — nothing is owed afterwards.
        let o = obj(4);
        let (t1, t2) = (txn(1), txn(2));
        let runs = std::cell::Cell::new(0);
        let mut derive = Some(|vc: &i64| {
            runs.set(runs.get() + 1);
            Arc::new(vc + 1)
        });
        assert!(matches!(
            o.try_write(&t1, any_time(), 0, &mut derive, None),
            WriteAttempt::Registered { .. }
        ));
        assert!(derive.is_none(), "taken by the registration");
        assert_eq!(runs.get(), 1);
        assert_eq!(*o.read_spec_value(t1.id()).unwrap(), 11, "f(vc) installed");

        // Registered: another writer conflicts without its closure running,
        // readers look past the mark.
        let mut refused = Some(|_: &i64| -> Arc<i64> { panic!("turned away, yet run") });
        assert!(matches!(
            o.try_write(&t2, any_time(), 0, &mut refused, None),
            WriteAttempt::Conflict(_)
        ));
        assert!(refused.is_some());
        match o.try_read(&any_time()) {
            ReadAttempt::Found { meta, .. } => assert_eq!(*meta.value::<i64>(), 10),
            _ => panic!("an active writer is invisible to readers"),
        }
        // Asking again neither re-registers nor runs anything; a re-modify
        // derives from the speculative payload in one section.
        let mut again = Some(|_: &i64| -> Arc<i64> { panic!("already the writer") });
        assert!(matches!(
            o.try_write(&t1, any_time(), 0, &mut again, None),
            WriteAttempt::AlreadyWriter
        ));
        assert!(o.modify_spec(t1.id(), |v| Arc::new(**v * 2)));
        assert!(!o.modify_spec(t2.id(), |_| panic!("not t2's payload")));
        assert_eq!(runs.get(), 1);

        t1.transition(TxnStatus::Active, TxnStatus::Committing);
        t1.set_ct(7);
        t1.transition(TxnStatus::Committing, TxnStatus::Committed);
        o.fold_resolved(None);
        assert_eq!(*o.snapshot_latest(), 22, "the derived value is the version");
        assert_eq!(o.version_count(), 2);
    }

    #[test]
    fn a_registration_the_snapshot_cannot_admit_runs_nothing() {
        let o = obj(4);
        let t1 = txn(1);
        assert!(matches!(
            write(&o, &t1, 11),
            WriteAttempt::Registered { .. }
        ));
        t1.transition(TxnStatus::Active, TxnStatus::Committing);
        t1.set_ct(7);
        t1.transition(TxnStatus::Committing, TxnStatus::Committed);

        // A snapshot that ends at 5 cannot hold `vc`, valid from 7: no
        // registration, no closure run, the caller keeps it for the retry.
        let t2 = txn(2);
        let mut derive = Some(|_: &i64| -> Arc<i64> { panic!("ran on an inadmissible vc") });
        assert!(matches!(
            o.try_write(&t2, ValidityRange::bounded(0u64, 5), 5, &mut derive, None),
            WriteAttempt::TooRecent
        ));
        assert!(derive.is_some());
        assert!(o.current_writer().is_none(), "t1 folded, t2 not registered");

        // Extended past it, the snapshot is narrowed to `[7, 9]`.
        match o.try_write(&t2, ValidityRange::from(0u64), 9, &mut payload(12), None) {
            WriteAttempt::Registered { range } => {
                assert_eq!((range.lower, range.upper), (7, Some(9)));
            }
            _ => panic!("expected Registered"),
        }
    }

    #[test]
    fn committing_writer_asks_for_help() {
        let o = obj(4);
        let t1 = txn(1);
        assert!(matches!(write(&o, &t1, 0), WriteAttempt::Registered { .. }));
        t1.transition(TxnStatus::Active, TxnStatus::Committing);
        let t2 = txn(2);
        assert!(matches!(write(&o, &t2, 0), WriteAttempt::NeedHelp(_)));
        // No commit time is published yet: the read must not come back
        // `Found` with "latest, fallback `t` is sound" evidence — the
        // writer may already hold a commit time below the reader's `t` —
        // but hand over the writer, so the reader joins the helper race.
        assert_eq!(t1.ct(), None);
        match o.try_read(&ValidityRange::from(0u64)) {
            ReadAttempt::NeedHelp(w) => assert_eq!(w.id(), 1),
            _ => panic!("a committing writer must be helped, not read past"),
        }
    }

    #[test]
    fn found_carries_the_upper_bound_evidence() {
        let o = obj(4);
        let t1 = txn(1);
        assert!(matches!(write(&o, &t1, 0), WriteAttempt::Registered { .. }));
        // Latest version beside an Active writer: no bound, the caller's
        // fallback applies.
        match o.try_read(&ValidityRange::from(0u64)) {
            ReadAttempt::Found { upper, .. } => assert_eq!(upper, None),
            _ => panic!("an active writer is invisible to readers"),
        }
        t1.transition(TxnStatus::Active, TxnStatus::Committing);
        t1.set_ct(7);
        t1.transition(TxnStatus::Committing, TxnStatus::Committed);
        // Resolved but unfolded: the sample is refused until the fold fixes
        // the superseded version's bound.
        assert!(matches!(
            o.try_read(&ValidityRange::bounded(0u64, 3)),
            ReadAttempt::NeedFold
        ));
        o.fold_resolved(None);
        match o.try_read(&ValidityRange::bounded(0u64, 3)) {
            ReadAttempt::Found { upper, lower, .. } => {
                assert_eq!((lower, upper), (0, Some(6)), "fixed at CT − 1");
            }
            _ => panic!("the superseded version still serves the past"),
        }
        match o.try_read(&ValidityRange::from(7u64)) {
            ReadAttempt::Found { upper, lower, .. } => assert_eq!((lower, upper), (7, None)),
            _ => panic!("the new version serves"),
        }
    }

    #[test]
    fn reader_ignores_active_writer() {
        let o = obj(4);
        let t1 = txn(1);
        assert!(matches!(
            write(&o, &t1, 77),
            WriteAttempt::Registered { .. }
        ));
        match o.try_read(&ValidityRange::from(0u64)) {
            ReadAttempt::Found { meta, .. } => assert_eq!(*meta.value::<i64>(), 10),
            _ => panic!("reader must see committed version"),
        }
    }

    #[test]
    fn pruning_keeps_at_most_max_versions() {
        let o = obj(2);
        for (i, ct) in [(1u64, 10u64), (2, 20), (3, 30), (4, 40)] {
            let t = txn(i);
            assert!(matches!(
                write(&o, &t, i as i64),
                WriteAttempt::Registered { .. }
            ));
            t.transition(TxnStatus::Active, TxnStatus::Committing);
            t.set_ct(ct);
            t.transition(TxnStatus::Committing, TxnStatus::Committed);
            o.fold_resolved(None);
        }
        assert_eq!(o.version_count(), 2);
        assert_eq!(*o.snapshot_latest(), 4);
        // A range before the retained window finds nothing.
        assert!(
            matches!(
                o.try_read(&ValidityRange::bounded(0u64, 5)),
                ReadAttempt::NoOverlap
            ),
            "pruned history must be unreachable"
        );
        assert_eq!(o.debug_chain()[0].0, Some(40));
    }

    #[test]
    fn single_version_mode_keeps_only_latest() {
        let o = obj(1);
        let t = txn(1);
        assert!(matches!(write(&o, &t, 5), WriteAttempt::Registered { .. }));
        t.transition(TxnStatus::Active, TxnStatus::Committing);
        t.set_ct(100);
        t.transition(TxnStatus::Committing, TxnStatus::Committed);
        o.fold_resolved(None);
        assert_eq!(o.version_count(), 1);
        // Reads in the past fail: TL2-like behaviour (§1.2).
        assert!(matches!(
            o.try_read(&ValidityRange::bounded(0u64, 50)),
            ReadAttempt::NoOverlap
        ));
    }

    #[test]
    fn read_own_write_roundtrip() {
        let o = obj(4);
        let t = txn(9);
        assert!(matches!(
            write(&o, &t, 1234),
            WriteAttempt::Registered { .. }
        ));
        assert_eq!(*o.read_spec_value(t.id()).unwrap(), 1234);
        assert!(
            o.read_spec_value(555).is_none(),
            "only the writer reads its spec"
        );
    }

    fn reclaimed_obj(max_versions: usize) -> (Arc<ReclaimDomain<u64>>, Arc<TObject<i64, u64>>) {
        let dom = Arc::new(ReclaimDomain::new());
        let o = TObject::with_reclaim(1, 10, 0, max_versions, Arc::clone(&dom));
        (dom, o)
    }

    fn commit_write(o: &TObject<i64, u64>, id: u64, val: i64, ct: u64) {
        let t = txn(id);
        assert!(matches!(write(o, &t, val), WriteAttempt::Registered { .. }));
        t.transition(TxnStatus::Active, TxnStatus::Committing);
        t.set_ct(ct);
        t.transition(TxnStatus::Committing, TxnStatus::Committed);
        o.fold_resolved(None);
    }

    #[test]
    fn watermark_prunes_exactly_below_min_active_snapshot() {
        let (dom, o) = reclaimed_obj(usize::MAX);
        let slot = dom.registry().register();
        slot.activate(25); // a long reader pinned at 25
        dom.advance(100); // watermark = 25
        for (i, ct) in [(1u64, 10u64), (2, 20), (3, 30), (4, 40)] {
            commit_write(&o, i, i as i64, ct);
        }
        // Chain: [40,∞) [30,39] [20,29] [10,19]; only [10,19] ends below 25.
        assert_eq!(o.version_count(), 3);
        match o.try_read(&ValidityRange::bounded(25u64, 25)) {
            ReadAttempt::Found { meta, .. } => {
                assert_eq!(*meta.value::<i64>(), 2, "the reader's version must survive")
            }
            _ => panic!("version covering the active snapshot was pruned"),
        }
        // Reader finishes: the watermark passes it and the tail collapses on
        // the next commit.
        slot.clear();
        dom.advance(100);
        commit_write(&o, 5, 5, 50);
        assert_eq!(o.version_count(), 1, "no snapshot demands history");
        assert_eq!(*o.snapshot_latest(), 5);
    }

    #[test]
    fn commit_path_retires_eagerly_into_the_arena() {
        // No watermark is installed: the ceiling alone prunes.
        let (dom, o) = reclaimed_obj(1);
        commit_write(&o, 1, 1, 10);
        commit_write(&o, 2, 2, 20);
        let s = dom.stats();
        assert_eq!(s.versions_retired, 2, "each commit retires its predecessor");
        assert_eq!(s.versions_live, 1);
        assert_eq!(
            s.versions_reclaimed + s.versions_pooled,
            2,
            "every retired node is accounted released-or-pooled"
        );
    }

    #[test]
    fn a_fold_links_the_node_it_prunes_as_the_new_version() {
        // No watermark is installed: the ceiling alone prunes.
        let (dom, o) = reclaimed_obj(2);
        let node_at = |range: ValidityRange<u64>| match o.try_read(&range) {
            ReadAttempt::Found { meta, .. } => meta,
            _ => panic!("a version serves {range:?}"),
        };
        commit_write(&o, 1, 1, 10);
        let tail = Arc::as_ptr(&node_at(ValidityRange::bounded(0, 5)));
        // The ceiling prunes `[0, 9]`, and nobody holds it: its node is the
        // new version, the way back kept, nothing pooled.
        commit_write(&o, 2, 2, 20);
        let head = node_at(ValidityRange::from(20));
        assert!(std::ptr::eq(Arc::as_ptr(&head), tail));
        assert_eq!((head.lower(), *head.value::<i64>()), (Some(20), 2));
        assert_eq!(head.object().expect("alive").id(), o.id());
        drop(head);
        assert_eq!(o.debug_chain(), [(Some(20), None), (Some(10), Some(19))]);
        let s = dom.stats();
        assert_eq!(
            (
                s.versions_retired,
                s.versions_reclaimed,
                s.versions_recycled
            ),
            (1, 1, 1)
        );
        assert_eq!((s.versions_pooled, s.versions_live), (0, 2));

        // A reader holds the version the next fold prunes: it keeps all of
        // it, and the fold takes another node.
        let held = node_at(ValidityRange::bounded(10, 15));
        commit_write(&o, 3, 3, 30);
        assert_eq!(
            (held.range(), *held.value::<i64>()),
            (ValidityRange::bounded(10, 19), 1)
        );
        let s = dom.stats();
        assert_eq!(
            (
                s.versions_retired,
                s.versions_reclaimed,
                s.versions_recycled
            ),
            (2, 2, 1)
        );
        assert_eq!(
            Arc::weak_count(&o),
            4,
            "itself, two chain versions, the held one"
        );
    }

    #[test]
    fn killed_writer_loses_spec_slot() {
        let o = obj(4);
        let t1 = txn(1);
        assert!(matches!(write(&o, &t1, 0), WriteAttempt::Registered { .. }));
        // t1 gets killed by a conflicting writer.
        t1.transition(TxnStatus::Active, TxnStatus::Aborted);
        // Another writer takes over (fold happens inside try_write).
        let t2 = txn(2);
        assert!(matches!(write(&o, &t2, 0), WriteAttempt::Registered { .. }));
        assert!(!o.set_spec_value(t1.id(), Arc::new(0)), "t1 lost the slot");
        assert!(o.read_spec_value(t1.id()).is_none());
    }
}
