#[cfg(test)]
mod tests {
    use crate::open_loop::Kind;
    use crate::registry::tests::{apply_n, run_kind};
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use lsa_wire::{Request, SetOp, TablesConfig};

    #[test]
    fn intset_workload_preserves_invariants_under_concurrency() {
        let cfg = TablesConfig {
            set_key_range: 64,
            ..TablesConfig::default()
        };
        let out = run_kind(Stm::new(SharedCounter::new()), Kind::Intset, &cfg, 4, 300);
        assert!(out.commits() >= 4 * 300);
    }

    #[test]
    fn intset_workload_all_member_mix_is_read_only() {
        let member = Request::Intset {
            op: SetOp::Member,
            key: 3,
        };
        let engine = Stm::new(SharedCounter::new());
        let s = apply_n(engine, &TablesConfig::default(), member, 50);
        assert_eq!(s.ro_commits, 50);
        assert_eq!(s.commits, 0);
    }
}
