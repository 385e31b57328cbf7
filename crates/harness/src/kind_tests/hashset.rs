#[cfg(test)]
mod tests {
    use crate::open_loop::Kind;
    use crate::registry::tests::{apply_n, run_kind};
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use lsa_wire::{Request, SetOp, TablesConfig};

    #[test]
    fn hashset_workload_preserves_placement_under_concurrency() {
        let cfg = TablesConfig {
            set_key_range: 256,
            hash_buckets: 16,
            ..TablesConfig::default()
        };
        let out = run_kind(Stm::new(SharedCounter::new()), Kind::Hashset, &cfg, 4, 300);
        assert!(out.commits() >= 4 * 300);
    }

    #[test]
    fn hashset_workload_all_member_mix_is_read_only() {
        let member = Request::Hashset {
            op: SetOp::Member,
            key: 3,
        };
        let engine = Stm::new(SharedCounter::new());
        let s = apply_n(engine, &TablesConfig::default(), member, 50);
        assert_eq!(s.ro_commits, 50);
        assert_eq!(s.commits, 0);
    }
}
