//! Model-based testing: engines against a reference `HashMap`, with random
//! transaction shapes (property-based).
//!
//! The differential checkers themselves live in [`lsa_engine::conformance`]
//! (engine-generic, so every engine inherits them); this file drives them
//! with proptest-generated inputs across ALL FOUR engine families — LSA-RT,
//! TL2, the validation STM and NOrec — plus LSA-specific properties that
//! need native APIs (explicit aborts, version-chain bounds).

use lsa_rt::baseline::{NorecStm, Tl2Stm, ValidationMode, ValidationStm};
use lsa_rt::engine::conformance::{
    concurrent_adds_match_model, sequential_ops_match_model, ModelOp,
};
use lsa_rt::prelude::*;
use lsa_rt::time::counter::SharedCounter;
use lsa_rt::time::hardware::HardwareClock;
use proptest::prelude::*;
use std::collections::HashMap;

const N_VARS: usize = 6;

fn op_strategy(n_vars: usize) -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (0..n_vars).prop_map(ModelOp::Read),
        ((0..n_vars), any::<u64>()).prop_map(|(i, v)| ModelOp::Write(i, v % 1000)),
        ((0..n_vars), any::<u64>()).prop_map(|(i, v)| ModelOp::Add(i, v % 10)),
    ]
}

/// One generated input, exercised on every engine family: sequentially
/// executed random transactions must leave each engine in exactly the state
/// of the reference model, and every intra-transaction read must observe
/// model semantics (read-own-write included).
fn sequential_on_all_engines(txns: &[Vec<ModelOp>]) {
    sequential_ops_match_model(&Stm::new(SharedCounter::new()), N_VARS, txns);
    sequential_ops_match_model(&Stm::new(HardwareClock::mmtimer_free()), N_VARS, txns);
    // Four shards over six variables: every generated transaction that
    // touches two variables is a cross-shard transaction.
    sequential_ops_match_model(
        &Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4)),
        N_VARS,
        txns,
    );
    sequential_ops_match_model(&Tl2Stm::new(SharedCounter::new()), N_VARS, txns);
    sequential_ops_match_model(&ValidationStm::new(ValidationMode::Always), N_VARS, txns);
    sequential_ops_match_model(
        &ValidationStm::new(ValidationMode::CommitCounter),
        N_VARS,
        txns,
    );
    sequential_ops_match_model(&NorecStm::new(), N_VARS, txns);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential differential model vs the `HashMap` reference, on LSA-RT,
    /// TL2, both validation modes and NOrec.
    #[test]
    fn sequential_txns_match_reference_model_on_every_engine(
        txns in prop::collection::vec(prop::collection::vec(op_strategy(N_VARS), 1..12), 1..24)
    ) {
        sequential_on_all_engines(&txns);
    }

    /// Concurrent differential model: per-thread lists of commutative adds
    /// applied concurrently must produce exactly the model's final state on
    /// every engine (adds commute, so the reference result is
    /// order-independent).
    #[test]
    fn concurrent_adds_match_reference_model_on_every_engine(
        adds in prop::collection::vec(
            prop::collection::vec(((0..4usize), 1u64..5), 1..60),
            2..4,
        )
    ) {
        concurrent_adds_match_model(&Stm::new(SharedCounter::new()), 4, &adds);
        concurrent_adds_match_model(&Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4)), 4, &adds);
        concurrent_adds_match_model(&Tl2Stm::new(SharedCounter::new()), 4, &adds);
        concurrent_adds_match_model(
            &ValidationStm::new(ValidationMode::CommitCounter), 4, &adds,
        );
        concurrent_adds_match_model(&NorecStm::new(), 4, &adds);
    }

    /// Aborted transactions leave no trace: run a body, then abort it
    /// explicitly — state must be unchanged. (LSA-specific: `try_atomically`
    /// and explicit retry aborts are native API.)
    #[test]
    fn aborted_txns_are_invisible(
        body in prop::collection::vec(op_strategy(4), 1..10),
        commit_value in 0u64..1000
    ) {
        let stm = Stm::new(HardwareClock::mmtimer_free());
        let vars: Vec<TVar<u64, u64>> = (0..4).map(|_| stm.new_tvar(7u64)).collect();
        let mut h = stm.register();

        let mut attempts = 0;
        let r: TxResult<()> = h.try_atomically(1, |tx| {
            attempts += 1;
            for op in &body {
                match *op {
                    ModelOp::Read(i) => { tx.read(&vars[i])?; }
                    ModelOp::Write(i, v) => { tx.write(&vars[i], v)?; }
                    ModelOp::Add(i, d) => { tx.modify(&vars[i], |x| x + d)?; }
                }
            }
            Err(tx.abort_retry())
        });
        prop_assert!(r.is_err());
        prop_assert_eq!(attempts, 1);
        for var in &vars {
            prop_assert_eq!(*var.snapshot_latest(), 7u64, "abort leaked a write");
        }

        // And a subsequent committed write works normally.
        h.atomically(|tx| tx.write(&vars[0], commit_value));
        prop_assert_eq!(*vars[0].snapshot_latest(), commit_value);
    }

    /// Version-chain depth never exceeds the configured maximum
    /// (LSA-specific: multi-version configuration is native API).
    #[test]
    fn version_chains_are_bounded(updates in 1usize..40, max_versions in 1usize..6) {
        let stm = Stm::with_config(
            SharedCounter::new(),
            StmConfig::multi_version(max_versions),
        );
        let v = stm.new_tvar(0u64);
        let mut h = stm.register();
        for _ in 0..updates {
            h.atomically(|tx| tx.modify(&v, |x| x + 1));
        }
        prop_assert!(v.version_count() <= max_versions);
        prop_assert_eq!(*v.snapshot_latest(), updates as u64);
    }
}

/// A long random mixed run with a fixed seed, as a deterministic regression
/// anchor next to the proptests — on every engine family, through the
/// generic surface.
fn deterministic_mixed_run_on<E: TxnEngine>(engine: &E) {
    let name = engine.engine_name();
    let a = engine.new_var(0i64);
    let b = engine.new_var(100i64);
    let mut h = engine.register();
    let mut seed = 0xC0FFEEu64;
    let mut model = (0i64, 100i64);
    for _ in 0..5_000 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        match seed % 4 {
            0 => {
                h.atomically(|tx| tx.modify(&a, |v| v + 1));
                model.0 += 1;
            }
            1 => {
                h.atomically(|tx| tx.modify(&b, |v| v - 1));
                model.1 -= 1;
            }
            2 => {
                h.atomically(|tx| {
                    let va = *tx.read(&a)?;
                    tx.write(&b, va)?;
                    Ok(())
                });
                model.1 = model.0;
            }
            _ => {
                let sum = h.atomically(|tx| Ok(*tx.read(&a)? + *tx.read(&b)?));
                assert_eq!(sum, model.0 + model.1, "{name}: read-only sum diverged");
            }
        }
    }
    assert_eq!(*E::peek(&a), model.0, "{name}: final a diverged");
    assert_eq!(*E::peek(&b), model.1, "{name}: final b diverged");
    let s = h.engine_stats();
    assert_eq!(s.total_commits(), 5_000, "{name}: commit count");
    assert_eq!(s.aborts, 0, "{name}: single thread never aborts");
}

#[test]
fn deterministic_mixed_run_every_engine() {
    deterministic_mixed_run_on(&Stm::new(SharedCounter::new()));
    // `a` and `b` land on different shards (round-robin), so the mixed run
    // drives the cross-shard commit path deterministically.
    deterministic_mixed_run_on(&Stm::new(ShardedTimeBase::new(SharedCounter::new(), 2)));
    deterministic_mixed_run_on(&Tl2Stm::new(SharedCounter::new()));
    deterministic_mixed_run_on(&ValidationStm::new(ValidationMode::Always));
    deterministic_mixed_run_on(&ValidationStm::new(ValidationMode::CommitCounter));
    deterministic_mixed_run_on(&NorecStm::new());
}

/// The sequential model is also exercised once with a hand-written worst
/// case: overwrites of the same variable inside one transaction, reads after
/// writes, and adds on top of pending writes — the read-own-write edge cases
/// a random generator hits only occasionally.
#[test]
fn read_own_write_edge_cases_every_engine() {
    let txns: Vec<Vec<ModelOp>> = vec![
        vec![
            ModelOp::Write(0, 5),
            ModelOp::Read(0),
            ModelOp::Write(0, 9),
            ModelOp::Read(0),
            ModelOp::Add(0, 1),
            ModelOp::Read(0),
        ],
        vec![ModelOp::Read(0), ModelOp::Add(0, 7), ModelOp::Read(0)],
        vec![
            ModelOp::Write(1, 3),
            ModelOp::Add(1, 4),
            ModelOp::Write(2, 8),
            ModelOp::Read(1),
            ModelOp::Read(2),
        ],
    ];
    sequential_on_all_engines(&txns);

    // Sanity: the model the checkers compare against is itself correct.
    let mut model: HashMap<usize, u64> = (0..N_VARS).map(|i| (i, 0)).collect();
    for body in &txns {
        for op in body {
            match *op {
                ModelOp::Read(_) => {}
                ModelOp::Write(i, v) => {
                    model.insert(i, v);
                }
                ModelOp::Add(i, d) => *model.get_mut(&i).unwrap() += d,
            }
        }
    }
    assert_eq!(model[&0], 17);
    assert_eq!(model[&1], 7);
    assert_eq!(model[&2], 8);
}
