#[cfg(test)]
mod tests {
    use crate::open_loop::Kind;
    use crate::registry::tests::{apply_n, run_kind};
    use lsa_baseline::{Tl2Stm, ValidationMode, ValidationStm};
    use lsa_stm::{Stm, StmConfig};
    use lsa_time::counter::SharedCounter;
    use lsa_time::external::ExternalClock;
    use lsa_wire::{Request, TablesConfig};

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
    fn audit_percent_100_is_read_only() {
        let engine = Stm::new(SharedCounter::new());
        let s = apply_n(engine, &bank(8, 10), Request::BankAudit, 50);
        assert_eq!(s.ro_commits, 50);
        assert_eq!(s.commits, 0);
    }
}
