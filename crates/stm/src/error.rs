//! Abort signalling.
//!
//! The paper's `Abort(T)` "throws AbortedException in T" to terminate the
//! transaction's execution (Algorithm 2 line 58). In Rust we propagate a
//! [`Abort`] error value through `Result` and the `?` operator instead; the
//! [`crate::stm::ThreadHandle::atomically`] retry loop catches it and re-runs
//! the transaction body.

use lsa_engine::AbortClass;
use std::fmt;

/// Why a transaction aborted. Counted by its [`class`](AbortReason::class)
/// in the handle's `lsa_engine::StatsShard`, and recorded whole with the
/// flight recorder's `Abort` events (§4.3 discusses how synchronization
/// errors change the abort profile).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// No object version overlapped the transaction's validity range
    /// (Algorithm 3 line 11).
    NoVersion,
    /// The validity range became (possibly) empty after an open
    /// (Algorithm 2 lines 30–31).
    Snapshot,
    /// Commit-time validation failed: some read version is not guaranteed
    /// valid at the commit time (Algorithm 2 lines 43–47).
    Validation,
    /// The contention manager decided this transaction loses a write-write
    /// conflict.
    ContentionLoser,
    /// Another transaction (via its contention manager) forcibly aborted us
    /// while we were active.
    Killed,
    /// The user requested an explicit abort/retry.
    Explicit,
}

impl AbortReason {
    /// All reasons, for stats tables.
    pub const ALL: [AbortReason; 6] = [
        AbortReason::NoVersion,
        AbortReason::Snapshot,
        AbortReason::Validation,
        AbortReason::ContentionLoser,
        AbortReason::Killed,
        AbortReason::Explicit,
    ];

    /// Index of this reason in [`AbortReason::ALL`], which lists them in
    /// declaration order — the class byte the flight-recorder tracer
    /// records with `Abort` events.
    pub fn trace_class(self) -> u8 {
        self as u8
    }

    /// The cross-engine class this reason is counted under: consistency
    /// failures (commit-time validation, snapshot collapse) are
    /// `Validation`, the multi-version "no version overlaps the validity
    /// range" case stays its own class (the §4.3 split), and everything the
    /// contention manager decided — or the body asked for — is
    /// `Contention`.
    pub fn class(self) -> AbortClass {
        match self {
            AbortReason::Validation | AbortReason::Snapshot => AbortClass::Validation,
            AbortReason::NoVersion => AbortClass::NoVersion,
            AbortReason::ContentionLoser | AbortReason::Killed | AbortReason::Explicit => {
                AbortClass::Contention
            }
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::NoVersion => "no-version",
            AbortReason::Snapshot => "snapshot",
            AbortReason::Validation => "validation",
            AbortReason::ContentionLoser => "cm-loser",
            AbortReason::Killed => "killed",
            AbortReason::Explicit => "explicit",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The error value that unwinds a transaction body back to the retry loop —
/// the Rust rendering of the paper's `AbortedException`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    /// Why the transaction aborted.
    pub reason: AbortReason,
}

impl Abort {
    /// Construct an abort with the given reason.
    pub fn new(reason: AbortReason) -> Self {
        Abort { reason }
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted ({})", self.reason)
    }
}

impl std::error::Error for Abort {}

/// Result alias used by every transactional operation.
pub type TxResult<T> = Result<T, Abort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_is_a_std_error_with_reason() {
        let a = Abort::new(AbortReason::Validation);
        let msg = a.to_string();
        assert!(msg.contains("validation"));
        let _e: &dyn std::error::Error = &a;
    }

    #[test]
    fn all_reasons_have_distinct_labels() {
        let mut labels: Vec<_> = AbortReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), AbortReason::ALL.len());
    }

    #[test]
    fn reasons_fold_onto_the_engine_classes() {
        let of = |class| {
            AbortReason::ALL
                .iter()
                .filter(|r| r.class() == class)
                .count()
        };
        assert_eq!(of(AbortClass::Validation), 2);
        assert_eq!(of(AbortClass::NoVersion), 1);
        assert_eq!(of(AbortClass::Contention), 3);
        assert_eq!(of(AbortClass::Overload), 0, "sheds are the service's");
        let ix = AbortReason::ALL.iter().map(|r| r.trace_class() as usize);
        assert!(ix.eq(0..AbortReason::ALL.len()), "ALL is declaration order");
    }
}
