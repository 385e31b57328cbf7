//! Runtime configuration.

/// Tunables of the LSA-RT runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StmConfig {
    /// Committed versions retained per object. `1` gives TL2-like
    /// single-version behaviour (a transaction can only read an object whose
    /// most recent update lies inside its snapshot, §1.2); larger values let
    /// long read-only transactions find consistent versions in the past
    /// (§4.3 multi-version discussion).
    pub max_versions: usize,
    /// Attempt a validity-range extension when a read finds no overlapping
    /// version or would break the snapshot, before giving up. "Extensions
    /// are not required for correctness, but they increase the chance that a
    /// suitable object version is available" (§2.2). LSA-STM enables this;
    /// disabling it approximates TL2's no-extension policy.
    pub extend_on_read: bool,
    /// Commit update transactions under **snapshot isolation** instead of
    /// full serializability: the commit-time read-set validation (Algorithm 2
    /// lines 43–48) is skipped — the snapshot was consistent by construction,
    /// and write-write conflicts are still excluded by the visible-write
    /// registration (first-writer-wins, a strict form of SI's
    /// first-committer-wins). This is the authors' earlier "Snapshot
    /// isolation for software transactional memory" (TRANSACT'06, cited as
    /// \[10\] in §1): cheaper commits, but write-skew anomalies become
    /// possible (see the `snapshot_isolation` integration tests).
    pub snapshot_isolation: bool,
    /// Prune versions below the minimum-active-snapshot watermark
    /// ([`crate::reclaim`]) in addition to the `max_versions` ceiling.
    /// Retention becomes demand-driven: "keep exactly what some active
    /// snapshot can still read". Disabling it restores the pure fixed-depth
    /// policy of earlier revisions.
    pub watermark_pruning: bool,
    /// Recompute the watermark every this many commits per thread (the lazy,
    /// amortized advance — no dedicated reclamation thread). Smaller values
    /// prune sooner at the cost of more registry scans.
    pub wm_advance_interval: u64,
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            max_versions: 8,
            extend_on_read: true,
            snapshot_isolation: false,
            watermark_pruning: true,
            wm_advance_interval: 32,
        }
    }
}

impl StmConfig {
    /// TL2-like operating mode: single version, no read extensions.
    pub fn single_version() -> Self {
        StmConfig {
            max_versions: 1,
            extend_on_read: false,
            ..Default::default()
        }
    }

    /// Multi-version mode with `n` retained versions.
    pub fn multi_version(n: usize) -> Self {
        StmConfig {
            max_versions: n.max(1),
            ..Default::default()
        }
    }

    /// Snapshot-isolation mode (TRANSACT'06 extension): multi-version with
    /// commit-time read validation disabled.
    pub fn snapshot_isolation() -> Self {
        StmConfig {
            snapshot_isolation: true,
            ..Default::default()
        }
    }

    /// Pure watermark retention: no fixed depth ceiling at all — chains keep
    /// every version some active snapshot can still read and nothing more.
    /// The mode long-reader workloads want: `NoVersion` aborts become
    /// impossible for versions still covered by a registered snapshot, while
    /// memory stays bounded by actual demand.
    pub fn watermark_retention() -> Self {
        StmConfig {
            max_versions: usize::MAX,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_multi_version_with_extensions() {
        let c = StmConfig::default();
        assert!(c.max_versions > 1);
        assert!(c.extend_on_read);
    }

    #[test]
    fn single_version_mode_disables_extensions() {
        let c = StmConfig::single_version();
        assert_eq!(c.max_versions, 1);
        assert!(!c.extend_on_read);
    }

    #[test]
    fn multi_version_clamps_to_one() {
        assert_eq!(StmConfig::multi_version(0).max_versions, 1);
        assert_eq!(StmConfig::multi_version(5).max_versions, 5);
    }

    #[test]
    fn watermark_retention_removes_the_depth_ceiling() {
        let c = StmConfig::watermark_retention();
        assert_eq!(c.max_versions, usize::MAX);
        assert!(c.watermark_pruning);
        assert!(c.wm_advance_interval >= 1);
    }

    #[test]
    fn default_enables_watermark_pruning() {
        assert!(StmConfig::default().watermark_pruning);
    }
}
