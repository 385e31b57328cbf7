#[cfg(test)]
mod tests {
    use crate::open_loop::Kind;
    use crate::registry::tests::{apply_n, run_kind};
    use lsa_baseline::Tl2Stm;
    use lsa_engine::TxnEngine;
    use lsa_stm::{Stm, StmConfig};
    use lsa_time::counter::SharedCounter;
    use lsa_wire::{Request, TablesConfig};

    fn accounts(accounts: u32) -> TablesConfig {
        TablesConfig {
            accounts,
            ..TablesConfig::default()
        }
    }

    #[test]
    fn read_mostly_mix_and_invariant() {
        let engine = Stm::new(SharedCounter::new());
        let s = run_kind(engine, Kind::Snapshot, &accounts(32), 1, 200).stats;
        assert_eq!(s.total_commits(), 200);
        assert!(
            s.ro_commits > s.commits,
            "audit-dominated mix must be read-mostly (ro={} vs rw={})",
            s.ro_commits,
            s.commits
        );
    }

    #[test]
    fn window_clamps_to_table() {
        let engine = Stm::new(SharedCounter::new());
        let s = apply_n(engine, &accounts(8), Request::BankAudit, 1);
        assert_eq!(s.reads, 8, "one audit reads every account");
    }

    fn concurrent_scans_stay_consistent<E: TxnEngine>(engine: E) {
        run_kind(engine, Kind::Snapshot, &TablesConfig::default(), 4, 150);
    }

    #[test]
    fn concurrent_scans_on_multi_version_lsa() {
        concurrent_scans_stay_consistent(Stm::with_config(
            SharedCounter::new(),
            StmConfig::multi_version(8),
        ));
    }

    #[test]
    fn concurrent_scans_on_tl2() {
        concurrent_scans_stay_consistent(Tl2Stm::new(SharedCounter::new()));
    }

    /// The separation claim itself: under the same update pressure, the
    /// multi-version engine finishes audits without aborting them while a
    /// single-version engine pays audit aborts. Smoke-sized so it stays
    /// deterministic enough for CI: we only assert the qualitative gap
    /// (multi-version aborts no more than single-version).
    #[test]
    fn multi_version_scans_abort_less_than_single_version() {
        fn scan_aborts<E: TxnEngine>(engine: E) -> u64 {
            run_kind(engine, Kind::Snapshot, &TablesConfig::default(), 3, 300)
                .stats
                .aborts
        }
        let mv = scan_aborts(Stm::with_config(
            SharedCounter::new(),
            StmConfig::multi_version(16),
        ));
        let sv = scan_aborts(Tl2Stm::new(SharedCounter::new()));
        assert!(
            mv <= sv,
            "multi-version LSA must not abort more than single-version TL2 \
             on analytics audits (mv={mv}, sv={sv})"
        );
    }
}
