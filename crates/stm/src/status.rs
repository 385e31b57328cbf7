//! Transaction status word.
//!
//! The paper drives the whole commit protocol through compare-and-swap
//! transitions on `T.status` (Algorithm 2): entering the two-phase commit
//! (`active → committing`), finalizing (`committing → committed/aborted`),
//! and a conflicting writer's kill (`active → aborted`). "Setting the
//! transaction's state atomically commits — or discards in case of an abort —
//! all object versions written by the transaction" (§2.3): object versions
//! installed by a writer are interpreted through this one atomic word.

use std::sync::atomic::{AtomicU8, Ordering};

/// Lifecycle states of a transaction (§2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TxnStatus {
    /// Executing its body.
    Active = 0,
    /// In the first phase of the two-phase commit: the commit time is being
    /// acquired and the read set validated. Other threads may *help* a
    /// transaction in this state (Algorithm 3 line 13).
    Committing = 1,
    /// Irrevocably committed: its speculative versions are logically part of
    /// the committed history.
    Committed = 2,
    /// Aborted: its speculative versions are logically discarded.
    Aborted = 3,
}

impl TxnStatus {
    fn from_u8(v: u8) -> TxnStatus {
        match v {
            0 => TxnStatus::Active,
            1 => TxnStatus::Committing,
            2 => TxnStatus::Committed,
            _ => TxnStatus::Aborted,
        }
    }

    /// Whether the transaction has reached a final state.
    pub fn is_final(self) -> bool {
        matches!(self, TxnStatus::Committed | TxnStatus::Aborted)
    }
}

/// An atomic [`TxnStatus`] cell.
///
/// All operations are `SeqCst`: the correctness argument of §2.4 requires the
/// `committing` transition to be globally visible before the commit timestamp
/// is acquired, and the paper explicitly assumes linearizable synchronization
/// instructions (§3.1). The status word is touched a constant number of times
/// per transaction, so the stronger ordering costs nothing measurable.
#[derive(Debug)]
pub struct AtomicStatus(AtomicU8);

impl AtomicStatus {
    /// A new cell in the [`TxnStatus::Active`] state.
    pub fn new() -> Self {
        AtomicStatus(AtomicU8::new(TxnStatus::Active as u8))
    }

    /// Current status.
    #[inline]
    pub fn load(&self) -> TxnStatus {
        TxnStatus::from_u8(self.0.load(Ordering::SeqCst))
    }

    /// The paper's `C&S(T.status, from, to)`: returns `true` on success.
    #[inline]
    pub fn transition(&self, from: TxnStatus, to: TxnStatus) -> bool {
        self.0
            .compare_exchange(from as u8, to as u8, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

impl Default for AtomicStatus {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_active() {
        assert_eq!(AtomicStatus::new().load(), TxnStatus::Active);
    }

    #[test]
    fn transitions_follow_cas_semantics() {
        let s = AtomicStatus::new();
        assert!(s.transition(TxnStatus::Active, TxnStatus::Committing));
        assert_eq!(s.load(), TxnStatus::Committing);
        assert!(
            !s.transition(TxnStatus::Active, TxnStatus::Aborted),
            "stale from"
        );
        assert!(s.transition(TxnStatus::Committing, TxnStatus::Committed));
        assert!(s.load().is_final());
    }

    #[test]
    fn concurrent_finalizers_exactly_one_wins() {
        let s = AtomicStatus::new();
        assert!(s.transition(TxnStatus::Active, TxnStatus::Committing));
        let wins: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let s = &s;
                    scope.spawn(move || {
                        let to = if i % 2 == 0 {
                            TxnStatus::Committed
                        } else {
                            TxnStatus::Aborted
                        };
                        s.transition(TxnStatus::Committing, to) as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1, "exactly one finalizer succeeds");
        assert!(s.load().is_final());
    }

    #[test]
    fn final_states_are_sticky() {
        let s = AtomicStatus::new();
        s.transition(TxnStatus::Active, TxnStatus::Aborted);
        assert!(!s.transition(TxnStatus::Active, TxnStatus::Committing));
        assert!(!s.transition(TxnStatus::Committing, TxnStatus::Committed));
        assert_eq!(s.load(), TxnStatus::Aborted);
    }
}
