//! Contention management (§2.3).
//!
//! When a transaction tries to write an object that already has a registered
//! (visible) writer, "one of the transactions might need to wait or be
//! aborted. This task is typically delegated to a contention manager, a
//! configurable module whose role is to determine which transaction is
//! allowed to progress upon conflict" (§2.3, following DSTM).
//!
//! Policies implemented (the classics from the DSTM/SXM literature the paper
//! builds on):
//!
//! * [`Aggressive`] — always abort the other transaction,
//! * [`Suicide`] — always abort yourself,
//! * [`Polite`] — exponential backoff for a bounded number of attempts, then
//!   abort the other transaction (the default),
//! * [`Karma`] — the transaction that has invested more work (opened more
//!   objects, accumulated over its retries) wins,
//! * [`TimestampCm`] — the older transaction (earlier first-start) wins.
//!
//! Note that [`Karma`] and [`TimestampCm`] need a global birth-order counter
//! — a *shared counter*, exactly what a scalable time base avoids. The
//! default policy deliberately needs no shared state, so contention
//! management does not reintroduce the bottleneck the paper removes
//! ([`ContentionManager::needs_birth`] lets the runtime skip the counter
//! entirely for policies that do not use it).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Per-transaction state readable by contention managers.
///
/// Lives in the shared transaction descriptor so that *both* parties of a
/// conflict can inspect each other.
#[derive(Debug)]
pub struct CmState {
    txn_id: u64,
    /// First-start order of the transaction (0 = unassigned). Survives
    /// retries of the same logical transaction: an aborted transaction keeps
    /// its original birth so it eventually becomes the oldest and wins
    /// (livelock freedom for [`TimestampCm`]).
    birth: AtomicU64,
    /// Work invested: number of objects opened, accumulated across retries
    /// of the same logical transaction ([`Karma`] currency).
    ops: AtomicU64,
    /// Retry count of the logical transaction.
    retries: AtomicU32,
}

impl CmState {
    /// Fresh state for transaction `txn_id`.
    pub fn new(txn_id: u64) -> Self {
        CmState {
            txn_id,
            birth: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            retries: AtomicU32::new(0),
        }
    }

    /// The transaction attempt's unique id.
    pub fn txn_id(&self) -> u64 {
        self.txn_id
    }

    /// Birth order (0 = unassigned).
    pub fn birth(&self) -> u64 {
        self.birth.load(Ordering::Relaxed)
    }

    /// Set the birth order (done once by the runtime when the policy needs it).
    pub fn set_birth(&self, birth: u64) {
        self.birth.store(birth, Ordering::Relaxed);
    }

    /// Accumulated work (opened objects across retries).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Record one unit of work: one object opened. Only the owning
    /// transaction's thread calls this, so a load and a store replace the
    /// locked read-modify-write; the other party of a conflict only reads.
    pub fn add_op(&self) {
        self.ops
            .store(self.ops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Seed accumulated work from a previous attempt of the same logical
    /// transaction.
    pub fn seed(&self, ops: u64, retries: u32) {
        self.ops.store(ops, Ordering::Relaxed);
        self.retries.store(retries, Ordering::Relaxed);
    }

    /// Retry count of the logical transaction.
    pub fn retries(&self) -> u32 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// Verdict of a contention manager for a write-write conflict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Kill the transaction currently registered as writer and take over.
    AbortOther,
    /// Abort the asking transaction (it will retry from scratch).
    AbortSelf,
    /// Back off and re-examine the conflict (the other transaction may have
    /// finished meanwhile).
    Wait,
}

/// A contention-management policy. `resolve` is consulted each time the
/// asking transaction re-encounters the conflict; `attempt` counts these
/// consultations for the *same* open operation (so policies can escalate).
pub trait ContentionManager: Send + Sync + 'static {
    /// Decide a write-write conflict between `me` (asking) and `other`
    /// (registered writer).
    fn resolve(&self, me: &CmState, other: &CmState, attempt: u32) -> Resolution;

    /// Whether the runtime must assign birth timestamps from a global
    /// counter for this policy. Policies returning `false` keep the
    /// contention path free of shared state.
    fn needs_birth(&self) -> bool {
        false
    }

    /// Called when a transaction commits (bookkeeping hook).
    fn on_commit(&self, _me: &CmState) {}

    /// Called when a transaction aborts (bookkeeping hook).
    fn on_abort(&self, _me: &CmState) {}

    /// Short name for experiment output.
    fn name(&self) -> &'static str;
}

/// Spin for an exponentially growing number of iterations (bounded).
pub fn backoff_spin(attempt: u32) {
    let iters = 1u64 << attempt.min(12);
    for _ in 0..iters {
        std::hint::spin_loop();
    }
    if attempt > 6 {
        std::thread::yield_now();
    }
}

/// Always abort the other transaction.
#[derive(Clone, Copy, Debug, Default)]
pub struct Aggressive;

impl ContentionManager for Aggressive {
    fn resolve(&self, _me: &CmState, _other: &CmState, _attempt: u32) -> Resolution {
        Resolution::AbortOther
    }

    fn name(&self) -> &'static str {
        "aggressive"
    }
}

/// Always abort yourself.
#[derive(Clone, Copy, Debug, Default)]
pub struct Suicide;

impl ContentionManager for Suicide {
    fn resolve(&self, _me: &CmState, _other: &CmState, _attempt: u32) -> Resolution {
        Resolution::AbortSelf
    }

    fn name(&self) -> &'static str {
        "suicide"
    }
}

/// Exponential backoff for `max_attempts` consultations, then abort the
/// other transaction. The default policy.
#[derive(Clone, Copy, Debug)]
pub struct Polite {
    /// Backoff rounds before escalating to [`Resolution::AbortOther`].
    pub max_attempts: u32,
}

impl Default for Polite {
    fn default() -> Self {
        Polite { max_attempts: 8 }
    }
}

impl ContentionManager for Polite {
    fn resolve(&self, _me: &CmState, _other: &CmState, attempt: u32) -> Resolution {
        if attempt < self.max_attempts {
            backoff_spin(attempt);
            Resolution::Wait
        } else {
            Resolution::AbortOther
        }
    }

    fn name(&self) -> &'static str {
        "polite"
    }
}

/// The transaction with more accumulated work wins; the loser waits a few
/// rounds proportional to the karma gap before being allowed to kill.
#[derive(Clone, Copy, Debug, Default)]
pub struct Karma;

impl ContentionManager for Karma {
    fn resolve(&self, me: &CmState, other: &CmState, attempt: u32) -> Resolution {
        if me.ops() >= other.ops() {
            Resolution::AbortOther
        } else if (attempt as u64) < other.ops().saturating_sub(me.ops()).min(16) {
            backoff_spin(attempt);
            Resolution::Wait
        } else {
            // Paid off the karma debt by waiting: now allowed to kill.
            Resolution::AbortOther
        }
    }

    fn name(&self) -> &'static str {
        "karma"
    }
}

/// Older transaction (smaller birth) wins; younger waits briefly, then
/// suicides so the older can make progress. Livelock-free because birth
/// order is stable across retries.
#[derive(Clone, Copy, Debug)]
pub struct TimestampCm {
    /// Backoff rounds before the younger transaction gives up.
    pub max_wait: u32,
}

impl Default for TimestampCm {
    fn default() -> Self {
        TimestampCm { max_wait: 4 }
    }
}

impl ContentionManager for TimestampCm {
    fn resolve(&self, me: &CmState, other: &CmState, attempt: u32) -> Resolution {
        let me_b = me.birth();
        let other_b = other.birth();
        // Unassigned birth (0) counts as youngest.
        let me_older = me_b != 0 && (other_b == 0 || me_b < other_b);
        if me_older {
            Resolution::AbortOther
        } else if attempt < self.max_wait {
            backoff_spin(attempt);
            Resolution::Wait
        } else {
            Resolution::AbortSelf
        }
    }

    fn needs_birth(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "timestamp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(id: u64) -> CmState {
        CmState::new(id)
    }

    #[test]
    fn aggressive_always_kills() {
        assert_eq!(
            Aggressive.resolve(&st(1), &st(2), 0),
            Resolution::AbortOther
        );
        assert_eq!(
            Aggressive.resolve(&st(1), &st(2), 99),
            Resolution::AbortOther
        );
    }

    #[test]
    fn suicide_always_dies() {
        assert_eq!(Suicide.resolve(&st(1), &st(2), 0), Resolution::AbortSelf);
    }

    #[test]
    fn polite_waits_then_escalates() {
        let p = Polite { max_attempts: 3 };
        assert_eq!(p.resolve(&st(1), &st(2), 0), Resolution::Wait);
        assert_eq!(p.resolve(&st(1), &st(2), 2), Resolution::Wait);
        assert_eq!(p.resolve(&st(1), &st(2), 3), Resolution::AbortOther);
    }

    #[test]
    fn karma_richer_wins_immediately() {
        let me = st(1);
        let other = st(2);
        for _ in 0..10 {
            me.add_op();
        }
        for _ in 0..3 {
            other.add_op();
        }
        assert_eq!(Karma.resolve(&me, &other, 0), Resolution::AbortOther);
        // Poorer side waits proportionally to the gap, then may kill.
        assert_eq!(Karma.resolve(&other, &me, 0), Resolution::Wait);
        assert_eq!(Karma.resolve(&other, &me, 7), Resolution::AbortOther);
    }

    #[test]
    fn timestamp_older_wins_younger_eventually_suicides() {
        let old = st(1);
        old.set_birth(10);
        let young = st(2);
        young.set_birth(20);
        let cm = TimestampCm { max_wait: 2 };
        assert_eq!(cm.resolve(&old, &young, 0), Resolution::AbortOther);
        assert_eq!(cm.resolve(&young, &old, 0), Resolution::Wait);
        assert_eq!(cm.resolve(&young, &old, 2), Resolution::AbortSelf);
        assert!(cm.needs_birth());
    }

    #[test]
    fn cm_state_accumulates_and_seeds() {
        let s = st(5);
        s.add_op();
        s.add_op();
        assert_eq!(s.ops(), 2);
        let next = st(6);
        next.seed(s.ops(), s.retries() + 1);
        assert_eq!(next.ops(), 2);
        assert_eq!(next.retries(), 1);
    }

    #[test]
    fn default_policies_avoid_global_state() {
        assert!(!Polite::default().needs_birth());
        assert!(!Aggressive.needs_birth());
        assert!(!Karma.needs_birth());
    }
}
