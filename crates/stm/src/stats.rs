//! Per-thread transaction statistics.
//!
//! Every [`crate::stm::ThreadHandle`] owns its own statistics, so recording
//! costs a handful of unshared increments (no cache-line ping-pong that could
//! pollute the time-base measurements). The harness merges per-thread stats
//! after a run.

use crate::error::AbortReason;
use std::fmt;

/// Counters accumulated by one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Committed update transactions.
    pub commits: u64,
    /// Committed read-only transactions (no validation needed, Algorithm 2
    /// lines 36–37).
    pub ro_commits: u64,
    /// Aborts by reason, indexed like [`AbortReason::ALL`].
    pub aborts: [u64; AbortReason::ALL.len()],
    /// Objects opened in read mode: counted once per distinct object per
    /// attempt, when the version is selected. A repeated read of the same
    /// object, or a read of the transaction's own pending write, is served
    /// from the transaction's scratch and is not an open.
    pub reads: u64,
    /// Objects opened in write mode: counted once per distinct object per
    /// attempt, at writer registration. (The contention managers' `ops`
    /// currency counts the same opens, `reads + writes`.)
    pub writes: u64,
    /// Validity-range extensions performed (Algorithm 3 lines 1–6).
    pub extensions: u64,
    /// Commits completed on behalf of *other* transactions (Algorithm 3
    /// line 13).
    pub helps: u64,
    /// Write-write conflicts submitted to the contention manager.
    pub conflicts: u64,
    /// Re-executions of transaction bodies after an abort.
    pub retries: u64,
    /// Read-set entries examined by commit-time validation (Algorithm 2
    /// lines 43–48) — the per-entry cost the time base is supposed to keep
    /// off the read path.
    pub validated_entries: u64,
    /// Commit timestamps adopted from a concurrent committer through the
    /// time base's arbitration (GV4 pass-on-failed-CAS, GV5 read-derived
    /// values) instead of being exclusively owned.
    pub shared_cts: u64,
    /// Committed update transactions that touched two or more object shards
    /// and escalated to the cross-shard commit protocol. Always zero unless
    /// the time base is sharded ([`lsa_time::ShardedTimeBase`]).
    pub cross_shard_commits: u64,
    /// Watermark advances this thread performed (the lazy reclamation work
    /// amortized over its commits, see [`crate::reclaim`]).
    pub wm_advances: u64,
}

impl TxnStats {
    /// Record an abort with its reason.
    pub fn record_abort(&mut self, reason: AbortReason) {
        let idx = AbortReason::ALL
            .iter()
            .position(|r| *r == reason)
            .expect("reason in ALL");
        self.aborts[idx] += 1;
    }

    /// Total aborts across all reasons.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Total commits (update + read-only).
    pub fn total_commits(&self) -> u64 {
        self.commits + self.ro_commits
    }

    /// Aborts per commit (∞-safe: returns 0 when nothing committed).
    pub fn abort_ratio(&self) -> f64 {
        let c = self.total_commits();
        if c == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / c as f64
        }
    }

    /// Merge another thread's counters into this one.
    pub fn merge(&mut self, other: &TxnStats) {
        self.commits += other.commits;
        self.ro_commits += other.ro_commits;
        for (a, b) in self.aborts.iter_mut().zip(other.aborts.iter()) {
            *a += b;
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.extensions += other.extensions;
        self.helps += other.helps;
        self.conflicts += other.conflicts;
        self.retries += other.retries;
        self.validated_entries += other.validated_entries;
        self.shared_cts += other.shared_cts;
        self.cross_shard_commits += other.cross_shard_commits;
        self.wm_advances += other.wm_advances;
    }

    /// Aborts recorded for one specific reason.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        let idx = AbortReason::ALL
            .iter()
            .position(|r| *r == reason)
            .expect("reason in ALL");
        self.aborts[idx]
    }
}

impl fmt::Display for TxnStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commits={} (ro={}) aborts={} [",
            self.total_commits(),
            self.ro_commits,
            self.total_aborts()
        )?;
        for (i, reason) in AbortReason::ALL.iter().enumerate() {
            if self.aborts[i] > 0 {
                write!(f, " {}={}", reason.label(), self.aborts[i])?;
            }
        }
        write!(
            f,
            " ] reads={} writes={} ext={} helps={} conflicts={} retries={} \
             val-entries={} shared-cts={} xshard={} wm-adv={}",
            self.reads,
            self.writes,
            self.extensions,
            self.helps,
            self.conflicts,
            self.retries,
            self.validated_entries,
            self.shared_cts,
            self.cross_shard_commits,
            self.wm_advances
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_aborts() {
        let mut s = TxnStats::default();
        s.record_abort(AbortReason::Validation);
        s.record_abort(AbortReason::Validation);
        s.record_abort(AbortReason::Killed);
        assert_eq!(s.aborts_for(AbortReason::Validation), 2);
        assert_eq!(s.aborts_for(AbortReason::Killed), 1);
        assert_eq!(s.total_aborts(), 3);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = TxnStats {
            commits: 2,
            reads: 10,
            ..Default::default()
        };
        a.record_abort(AbortReason::Snapshot);
        let mut b = TxnStats {
            commits: 3,
            ro_commits: 1,
            reads: 5,
            ..Default::default()
        };
        b.record_abort(AbortReason::Snapshot);
        b.record_abort(AbortReason::Killed);
        a.merge(&b);
        assert_eq!(a.commits, 5);
        assert_eq!(a.ro_commits, 1);
        assert_eq!(a.reads, 15);
        assert_eq!(a.aborts_for(AbortReason::Snapshot), 2);
        assert_eq!(a.total_aborts(), 3);
    }

    #[test]
    fn abort_ratio_handles_zero_commits() {
        let mut s = TxnStats::default();
        assert_eq!(s.abort_ratio(), 0.0);
        s.record_abort(AbortReason::Killed);
        assert_eq!(s.abort_ratio(), 0.0);
        s.commits = 2;
        assert_eq!(s.abort_ratio(), 0.5);
    }

    #[test]
    fn display_is_informative() {
        let mut s = TxnStats {
            commits: 1,
            ..Default::default()
        };
        s.record_abort(AbortReason::NoVersion);
        let txt = s.to_string();
        assert!(txt.contains("commits=1"));
        assert!(txt.contains("no-version=1"));
    }
}
