//! Object placement hints for sharded engines.
//!
//! The sharded runtime routes `new_var` round-robin across shards, so a
//! workload's working set spreads uniformly and most multi-object
//! transactions cross shards (escalating to the cross-shard commit
//! protocol). [`PlacementHint::Partitioned`] asks the workload to pin its
//! natural partitions shard-locally through
//! [`lsa_engine::TxnEngine::new_var_on`] instead — the served bank's
//! account groups (`lsa_wire::Tables::with_placement`) and disjoint
//! per-thread partitions each live on one shard, transactions stay
//! single-shard, and the matrix can contrast `partitioned` vs `spread`
//! routing (the ROADMAP's shard-affine placement item). On unsharded
//! engines the hint is inert: `new_var_on` degenerates to `new_var`.

/// How a workload places its objects across an engine's shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementHint {
    /// Engine-default routing (round-robin on sharded engines): the
    /// uniformly-spread baseline.
    #[default]
    Spread,
    /// Pin each workload partition to one shard via `new_var_on`, and keep
    /// transactions partition-local where the workload's semantics allow.
    Partitioned,
}

impl PlacementHint {
    /// Short name for tables and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            PlacementHint::Spread => "spread",
            PlacementHint::Partitioned => "partitioned",
        }
    }

    /// Parse a CLI argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "spread" => Some(PlacementHint::Spread),
            "partitioned" => Some(PlacementHint::Partitioned),
            _ => None,
        }
    }
}

impl std::fmt::Display for PlacementHint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints() {
        assert_eq!(PlacementHint::parse("spread"), Some(PlacementHint::Spread));
        assert_eq!(
            PlacementHint::parse("partitioned"),
            Some(PlacementHint::Partitioned)
        );
        assert_eq!(PlacementHint::parse("bogus"), None);
        assert_eq!(PlacementHint::default().to_string(), "spread");
    }
}
