#[cfg(test)]
mod tests {
    use crate::open_loop::Kind;
    use crate::registry::tests::{apply_n, run_kind};
    use crate::registry::TablesWorker;
    use crate::runner::BenchWorker;
    use lsa_baseline::{Tl2Stm, ValidationMode, ValidationStm};
    use lsa_stm::{Stm, StmConfig};
    use lsa_time::counter::SharedCounter;
    use lsa_time::external::ExternalClock;
    use lsa_time::sharded::ShardedTimeBase;
    use lsa_wire::{Request, Tables, TablesConfig};
    use lsa_workloads::PlacementHint;

    fn bank(accounts: u32, initial: i64) -> TablesConfig {
        TablesConfig {
            accounts,
            initial,
            ..TablesConfig::default()
        }
    }

    #[test]
    fn invariant_survives_concurrency() {
        let engine = Stm::new(SharedCounter::new());
        run_kind(engine, Kind::Bank, &TablesConfig::default(), 4, 1_000);
    }

    #[test]
    fn invariant_survives_concurrency_on_every_engine() {
        let cfg = bank(16, 500);
        run_kind(Tl2Stm::new(SharedCounter::new()), Kind::Bank, &cfg, 4, 500);
        let engine = ValidationStm::new(ValidationMode::CommitCounter);
        run_kind(engine, Kind::Bank, &cfg, 4, 500);
        let engine = ValidationStm::new(ValidationMode::Always);
        run_kind(engine, Kind::Bank, &cfg, 4, 300);
    }

    #[test]
    fn invariant_survives_clock_uncertainty() {
        // Large injected deviation: validity gaps of 2·dev shrink snapshots
        // (more aborts) but must never break consistency.
        let tb = ExternalClock::new(100_000);
        let engine = Stm::with_config(tb, StmConfig::multi_version(8));
        run_kind(engine, Kind::Bank, &bank(16, 500), 4, 500);
    }

    #[test]
    fn partitioned_placement_keeps_transfers_single_shard() {
        // Audits read every account and cross shards, but a read-only
        // commit is never a cross-shard commit.
        let run = |placement| {
            let engine = Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4));
            let tables = Tables::with_placement(&engine, &bank(32, 100), placement);
            let mut w = TablesWorker::new(&engine, &tables, Kind::Bank, 0);
            for _ in 0..100 {
                w.step();
            }
            tables.assert_quiescent(&engine);
            (tables.groups(), w.worker_stats())
        };
        let (groups, s) = run(PlacementHint::Partitioned);
        assert_eq!(groups, 4);
        assert_eq!(s.total_commits(), 100);
        assert_eq!(
            s.cross_shard_commits, 0,
            "partitioned transfers must stay shard-local"
        );

        // The spread baseline on the same engine does cross shards.
        let (groups, s) = run(PlacementHint::Spread);
        assert_eq!(groups, 1);
        assert!(
            s.cross_shard_commits > 0,
            "round-robin spreading must produce cross-shard transfers"
        );
    }

    #[test]
    fn audit_percent_100_is_read_only() {
        let engine = Stm::new(SharedCounter::new());
        let s = apply_n(engine, &bank(8, 10), Request::BankAudit, 50);
        assert_eq!(s.ro_commits, 50);
        assert_eq!(s.commits, 0);
    }
}
