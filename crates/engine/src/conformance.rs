//! Engine-generic conformance checks: the correctness suite every
//! [`TxnEngine`](crate::TxnEngine) must pass.
//!
//! These checkers used to live inside LSA-only test files (`tests/opacity.rs`
//! hand-wired `lsa_rt::Stm` with three time bases, `tests/stm_model.rs`
//! likewise) — every other engine silently skipped them. Lifted here and
//! parameterized over `E: TxnEngine`, the same suite now runs on LSA-RT,
//! TL2, the validation STM and NOrec, and any future engine inherits it for
//! free through the harness registry.
//!
//! The checks are *history-based*, using only the generic surface:
//!
//! * [`counter_chain_serializable`] — concurrent read-increment-write
//!   transactions per object; afterwards each object's observed read values
//!   must form the gapless chain `0, 1, …, n-1`. A duplicate read is a lost
//!   update, a gap is a phantom update, and a read of a value never written
//!   is a torn/unserializable snapshot — so a gapless chain is a witness
//!   that the committed history equals a sequential history (the commit-time
//!   order check of `tests/opacity.rs`, expressed through values instead of
//!   engine-private timestamps, which the generic surface does not expose).
//! * [`audit_snapshot_consistency`] — concurrent transfers with read-only
//!   auditors: no audit may ever observe a sum off the invariant total
//!   (opacity's "no transaction observes an inconsistent state", §2.1 of the
//!   paper, made executable).
//! * [`sequential_ops_match_model`] — a differential model: arbitrary
//!   transaction bodies of reads/writes/adds applied both to the engine and
//!   to a reference `HashMap`; every intra-transaction read must observe
//!   model semantics (read-own-write included) and the final states must
//!   agree. Drive it from proptest-generated bodies (see `tests/stm_model.rs`)
//!   or from the deterministic generator in [`full_suite`].
//! * [`concurrent_adds_match_model`] — the concurrent differential model:
//!   commutative per-variable additions from many threads; the final state
//!   must equal the reference model's (order-independent) result.
//! * [`write_skew_forbidden`] — crossed reads, disjoint writes: two
//!   transactions each read both flags of a pair and set their own if
//!   neither is set. Every serial order sets exactly one, so two set flags
//!   are write skew — a history with a write set that misses the read set,
//!   which no other checker produces.
//!
//! All checkers panic with the engine's name on violation — they are meant
//! to run under `cargo test` / the registry's conformance hook.

use crate::{EngineHandle, EngineVar, TxnEngine, TxnOps};
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};

/// One operation of a differential-model transaction body.
#[derive(Clone, Copy, Debug)]
pub enum ModelOp {
    /// Read variable `i` and compare against the model.
    Read(usize),
    /// Write `value` to variable `i`.
    Write(usize, u64),
    /// Add `delta` to variable `i` (read-modify-write).
    Add(usize, u64),
}

/// Tiny deterministic generator (splitmix-style) so [`full_suite`] needs no
/// external dependency and behaves identically on every engine.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Concurrent increment chains: `threads` threads each run `increments`
/// transactions, every transaction picking one of `objects` variables,
/// reading it and writing the value + 1. Afterwards, per object, the sorted
/// multiset of read values must be exactly `0..n` and the final value `n` —
/// the value-chain witness of a serializable committed history.
pub fn counter_chain_serializable<E: TxnEngine>(
    engine: &E,
    threads: usize,
    increments: usize,
    objects: usize,
) {
    let name = engine.engine_name();
    let vars: Vec<EngineVar<E, u64>> = (0..objects).map(|_| engine.new_var(0u64)).collect();
    let log: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = engine.clone();
            let vars = vars.clone();
            let log = &log;
            s.spawn(move || {
                let mut h = engine.register();
                let mut rng = Lcg(t as u64 + 1);
                let mut local = Vec::with_capacity(increments);
                for _ in 0..increments {
                    let object = rng.below(vars.len());
                    let var = vars[object].clone();
                    let read = h.atomically(|tx| {
                        let read = *tx.read(&var)?;
                        tx.write(&var, read + 1)?;
                        Ok(read)
                    });
                    local.push((object, read));
                }
                log.lock().unwrap().extend(local);
            });
        }
    });

    let mut log = log.into_inner().unwrap();
    assert_eq!(log.len(), threads * increments, "{name}: lost transactions");
    log.sort_unstable();
    for (object, var) in vars.iter().enumerate() {
        let reads: Vec<u64> = log
            .iter()
            .filter(|&&(o, _)| o == object)
            .map(|&(_, r)| r)
            .collect();
        for (pos, &read) in reads.iter().enumerate() {
            assert_eq!(
                read, pos as u64,
                "{name}: object {object} read-chain has a gap or duplicate at \
                 position {pos} — committed history is not serializable"
            );
        }
        assert_eq!(
            *E::peek(var),
            reads.len() as u64,
            "{name}: object {object} final value diverges from its chain"
        );
    }
}

/// Concurrent transfers plus read-only audits: every audit must observe the
/// invariant total — a consistent snapshot — and the quiescent total must be
/// conserved exactly.
pub fn audit_snapshot_consistency<E: TxnEngine>(
    engine: &E,
    writers: usize,
    auditors: usize,
    steps: usize,
) {
    const ACCOUNTS: usize = 6;
    const INITIAL: i64 = 200;
    let name = engine.engine_name();
    let vars: Vec<EngineVar<E, i64>> = (0..ACCOUNTS).map(|_| engine.new_var(INITIAL)).collect();
    let expected = ACCOUNTS as i64 * INITIAL;

    std::thread::scope(|s| {
        for t in 0..writers {
            let engine = engine.clone();
            let vars = vars.clone();
            s.spawn(move || {
                let mut h = engine.register();
                let mut rng = Lcg(0xBEE5 + t as u64);
                for _ in 0..steps {
                    let from = rng.below(ACCOUNTS);
                    let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                    let amount = (rng.next() % 7) as i64 - 3;
                    let (a, b) = (vars[from].clone(), vars[to].clone());
                    h.atomically(|tx| {
                        let va = *tx.read(&a)?;
                        let vb = *tx.read(&b)?;
                        tx.write(&a, va - amount)?;
                        tx.write(&b, vb + amount)?;
                        Ok(())
                    });
                }
            });
        }
        for _ in 0..auditors {
            let engine = engine.clone();
            let vars = vars.clone();
            s.spawn(move || {
                let mut h = engine.register();
                for _ in 0..steps {
                    let total = h.atomically(|tx| {
                        let mut sum = 0i64;
                        for v in &vars {
                            sum += *tx.read(v)?;
                        }
                        Ok(sum)
                    });
                    assert_eq!(
                        total,
                        expected,
                        "{}: audit observed a torn snapshot",
                        engine.engine_name()
                    );
                }
            });
        }
    });
    let total: i64 = vars.iter().map(|v| *E::peek(v)).sum();
    assert_eq!(total, expected, "{name}: quiescent total not conserved");
}

/// Sequential differential model: apply `txns` (each a transaction body of
/// [`ModelOp`]s over `n_vars` variables) to the engine and to a reference
/// `HashMap` side by side. Every read must observe model semantics
/// (read-own-write included); after each commit and at the end the states
/// must agree.
pub fn sequential_ops_match_model<E: TxnEngine>(engine: &E, n_vars: usize, txns: &[Vec<ModelOp>]) {
    let name = engine.engine_name();
    let vars: Vec<EngineVar<E, u64>> = (0..n_vars).map(|_| engine.new_var(0u64)).collect();
    let mut model: HashMap<usize, u64> = (0..n_vars).map(|i| (i, 0u64)).collect();
    let mut h = engine.register();

    for body in txns {
        let mut scratch = model.clone();
        h.atomically(|tx| {
            scratch = model.clone(); // body may re-run after an abort
            for op in body {
                match *op {
                    ModelOp::Read(i) => {
                        let got = *tx.read(&vars[i])?;
                        assert_eq!(
                            got, scratch[&i],
                            "{name}: read of var {i} diverged from the model"
                        );
                    }
                    ModelOp::Write(i, v) => {
                        tx.write(&vars[i], v)?;
                        scratch.insert(i, v);
                    }
                    ModelOp::Add(i, d) => {
                        tx.modify(&vars[i], |x| x + d)?;
                        *scratch.get_mut(&i).unwrap() += d;
                    }
                }
            }
            Ok(())
        });
        model = scratch;
    }

    for (i, var) in vars.iter().enumerate() {
        assert_eq!(
            *E::peek(var),
            model[&i],
            "{name}: final state of var {i} diverged from the model"
        );
    }
}

/// Concurrent differential model: each thread applies a list of per-variable
/// additions transactionally; additions commute, so the reference model's
/// final state is order-independent and must match the engine's exactly.
pub fn concurrent_adds_match_model<E: TxnEngine>(
    engine: &E,
    n_vars: usize,
    per_thread_adds: &[Vec<(usize, u64)>],
) {
    let name = engine.engine_name();
    let vars: Vec<EngineVar<E, u64>> = (0..n_vars).map(|_| engine.new_var(0u64)).collect();
    let mut model: HashMap<usize, u64> = (0..n_vars).map(|i| (i, 0u64)).collect();
    for adds in per_thread_adds {
        for &(i, d) in adds {
            *model.get_mut(&i).unwrap() += d;
        }
    }

    std::thread::scope(|s| {
        for adds in per_thread_adds {
            let engine = engine.clone();
            let vars = vars.clone();
            s.spawn(move || {
                let mut h = engine.register();
                for &(i, d) in adds {
                    let var = vars[i].clone();
                    h.atomically(|tx| tx.modify(&var, |x| x + d));
                }
            });
        }
    });

    for (i, var) in vars.iter().enumerate() {
        assert_eq!(
            *E::peek(var),
            model[&i],
            "{name}: concurrent adds to var {i} diverged from the model"
        );
    }
}

/// Write skew: in each of `rounds` rounds two threads race one transaction
/// each over a fresh pair of flags, reading both and, if neither is set,
/// setting their own. Every serial order lets exactly the first set its
/// flag, so exactly one must be set after every round. A transaction that
/// sets its flag also increments `padding` variables of its own, created
/// after the flags so an engine that locks its write set in id order takes
/// them after the flag — which widens the window between a commit's
/// validation and its publication.
pub fn write_skew_forbidden<E: TxnEngine>(engine: &E, rounds: usize, padding: usize) {
    let name = engine.engine_name();
    let flags: Vec<[EngineVar<E, u64>; 2]> = (0..rounds)
        .map(|_| [engine.new_var(0u64), engine.new_var(0u64)])
        .collect();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for me in 0..2 {
            let (engine, flags, start) = (engine.clone(), &flags, &start);
            s.spawn(move || {
                let own: Vec<EngineVar<E, u64>> =
                    (0..padding).map(|_| engine.new_var(0u64)).collect();
                let mut h = engine.register();
                for pair in flags {
                    start.wait();
                    h.atomically(|tx| {
                        if *tx.read(&pair[0])? + *tx.read(&pair[1])? == 0 {
                            tx.write(&pair[me], 1)?;
                            for v in &own {
                                tx.modify(v, |x| x + 1)?;
                            }
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    for (round, pair) in flags.iter().enumerate() {
        let set = *E::peek(&pair[0]) + *E::peek(&pair[1]);
        assert_eq!(
            set, 1,
            "{name}: round {round} ended with {set} flags set — crossed reads \
             and disjoint writes must serialize (write skew)"
        );
    }
}

/// The whole conformance suite at test-friendly sizes: the value-chain
/// serializability check, the audit-snapshot check, the sequential
/// differential model over deterministically generated bodies, the
/// concurrent differential model, and the write-skew check. This is what
/// the harness registry exposes per engine entry — one call certifies an
/// engine.
pub fn full_suite<E: TxnEngine>(engine: &E) {
    counter_chain_serializable(engine, 4, 400, 6);
    audit_snapshot_consistency(engine, 2, 2, 400);

    let mut rng = Lcg(0xC0FFEE);
    let txns: Vec<Vec<ModelOp>> = (0..24)
        .map(|_| {
            (0..1 + rng.below(8))
                .map(|_| match rng.next() % 3 {
                    0 => ModelOp::Read(rng.below(6)),
                    1 => ModelOp::Write(rng.below(6), rng.next() % 1000),
                    _ => ModelOp::Add(rng.below(6), rng.next() % 10),
                })
                .collect()
        })
        .collect();
    sequential_ops_match_model(engine, 6, &txns);

    let adds: Vec<Vec<(usize, u64)>> = (0..4)
        .map(|t| {
            let mut rng = Lcg(t as u64 + 11);
            (0..200).map(|_| (rng.below(4), rng.next() % 5)).collect()
        })
        .collect();
    concurrent_adds_match_model(engine, 4, &adds);
    write_skew_forbidden(engine, 1_000, 16);
}
