//! The shared transaction descriptor.
//!
//! Other threads interact with a transaction through this descriptor: they
//! observe and CAS its status (contention-manager kills, Algorithm 2
//! lines 53–59), read its commit time (`getPrelimUB`, Algorithm 3), race to
//! *set* the commit time and *help* the commit complete (Algorithm 3
//! line 13, §2.3: "another thread can help the transaction to commit or force
//! it to abort").
//!
//! The paper's `C&S(T.CT, 0, t)` — first writer wins, everyone agrees on the
//! result — is the timestamp cell's [`TsCell::set_once`]: one CAS on a `u64`
//! time base, and `get` is the read.

use crate::cm::CmState;
use crate::status::{AtomicStatus, TxnStatus};
use crate::version::VersionMeta;
use lsa_time::{Timestamp, TsCell};
use parking_lot::Mutex;
use std::sync::Arc;

/// One read-set element as published for helpers: the version that was
/// read. The node carries its own way back to the object, which `getPrelimUB`
/// takes only for a version whose upper bound is still unset.
pub struct CtxEntry<Ts: Timestamp> {
    /// The version read.
    pub meta: Arc<VersionMeta<Ts>>,
    /// The transaction holds the write mark on the version's object: it read
    /// this version and then registered there. No other transaction can
    /// supersede such a version before this one resolves, so while its upper
    /// bound is unset, commit-time validation decides it from the entry alone
    /// (Algorithm 3 line 27's self case).
    pub own: bool,
}

/// The read set a committing transaction publishes so that helpers can run
/// the commit-time validation loop (Algorithm 2 lines 43–48) on its behalf.
/// The owner hands over the very vector it built — it does not touch it
/// again until no helper holds the context.
pub struct CommitCtx<Ts: Timestamp> {
    /// `T.O`: the versions the transaction read. Objects it opened by
    /// writing them are not here — what it wrote over is covered by its
    /// write mark (Algorithm 3 line 27's self case) and needs no validation
    /// — so a write-only transaction has nothing to publish and publishes
    /// nothing; a helper finding no context validates vacuously.
    pub entries: Vec<CtxEntry<Ts>>,
}

impl<Ts: Timestamp> Default for CommitCtx<Ts> {
    fn default() -> Self {
        CommitCtx {
            entries: Vec::new(),
        }
    }
}

/// Shared descriptor of one transaction attempt.
pub struct TxnShared<Ts: Timestamp> {
    id: u64,
    status: AtomicStatus,
    ct: Ts::Cell,
    cm: CmState,
    ctx: Mutex<Option<Arc<CommitCtx<Ts>>>>,
    /// Whether this transaction commits under snapshot isolation (helpers
    /// must skip read validation for it, like the owner does).
    si: std::sync::atomic::AtomicBool,
}

impl<Ts: Timestamp> TxnShared<Ts> {
    /// Fresh descriptor in the `Active` state (serializable mode).
    pub fn new(id: u64) -> Self {
        TxnShared {
            id,
            status: AtomicStatus::new(),
            ct: Ts::Cell::default(),
            cm: CmState::new(id),
            ctx: Mutex::new(None),
            si: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Mark this transaction as committing under snapshot isolation. Must be
    /// called before the transaction becomes visible to other threads
    /// (i.e. right after creation).
    pub fn mark_snapshot_isolation(&self) {
        self.si.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether this transaction commits under snapshot isolation.
    pub fn is_snapshot_isolation(&self) -> bool {
        self.si.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Unique id of this transaction attempt (process-wide).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current status.
    #[inline]
    pub fn status(&self) -> TxnStatus {
        self.status.load()
    }

    /// `C&S(T.status, from, to)`.
    #[inline]
    pub fn transition(&self, from: TxnStatus, to: TxnStatus) -> bool {
        self.status.transition(from, to)
    }

    /// The agreed commit time, if already set.
    #[inline]
    pub fn ct(&self) -> Option<Ts> {
        self.ct.get()
    }

    /// `C&S(T.CT, 0, t)`: install `t` as the commit time unless one is
    /// already set; returns the commit time everyone must use.
    #[inline]
    pub fn set_ct(&self, t: Ts) -> Ts {
        self.ct.set_once(t)
    }

    /// Contention-manager bookkeeping attached to this transaction.
    #[inline]
    pub fn cm(&self) -> &CmState {
        &self.cm
    }

    /// Publish the read set helpers need. Must be called *before*
    /// transitioning to `Committing` so that any thread observing the
    /// `Committing` state is guaranteed to find the context; an empty read
    /// set is not published at all.
    pub fn publish_ctx(&self, ctx: Arc<CommitCtx<Ts>>) {
        *self.ctx.lock() = Some(ctx);
    }

    /// Fetch the published context (None if not published or already
    /// cleared after finalization).
    pub fn ctx(&self) -> Option<Arc<CommitCtx<Ts>>> {
        self.ctx.lock().clone()
    }

    /// Drop the context after the commit has reached a final state, breaking
    /// the temporary `TxnShared → TObject → TxnShared` reference cycle.
    /// Must only be called once the status is final.
    pub fn clear_ctx(&self) {
        debug_assert!(self.status().is_final());
        *self.ctx.lock() = None;
    }
}

impl<Ts: Timestamp> std::fmt::Debug for TxnShared<Ts> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnShared")
            .field("id", &self.id)
            .field("status", &self.status())
            .field("ct", &self.ct())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_first_setter_wins() {
        let t: TxnShared<u64> = TxnShared::new(1);
        assert_eq!(t.ct(), None);
        assert_eq!(t.set_ct(42), 42);
        assert_eq!(t.set_ct(99), 42, "second setter adopts the first value");
        assert_eq!(t.ct(), Some(42));
    }

    #[test]
    fn ctx_lifecycle() {
        let t: TxnShared<u64> = TxnShared::new(7);
        assert!(t.ctx().is_none());
        t.publish_ctx(Arc::default());
        assert!(t.ctx().is_some());
        t.transition(TxnStatus::Active, TxnStatus::Committing);
        t.transition(TxnStatus::Committing, TxnStatus::Committed);
        t.clear_ctx();
        assert!(t.ctx().is_none());
    }
}
