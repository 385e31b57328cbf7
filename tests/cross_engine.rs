//! Cross-engine consistency through the `TxnEngine` abstraction: ONE generic
//! schedule runs on LSA-RT, TL2, the validation STM and NOrec, and all
//! engines must agree — single-threaded on exact final states, concurrently
//! on the preserved invariants.
//!
//! Before the engine-abstraction refactor this file repeated the same
//! transfer loop once per engine with engine-specific types; now each test is
//! a single generic function plus one line per engine. Engine names are
//! printed as each schedule runs, so `cargo test --test cross_engine --
//! --nocapture` shows exactly which engine a failure belongs to.

use lsa_rt::baseline::{NorecStm, Tl2Stm, ValidationMode, ValidationStm};
use lsa_rt::prelude::*;
use lsa_rt::time::counter::SharedCounter;
use lsa_rt::workloads::FastRng;

const N: usize = 10;

/// The deterministic transfer schedule, engine-generic: same seed, same
/// transfer sequence on every engine. Returns the final balances.
fn run_schedule<E: TxnEngine>(engine: &E, steps: usize) -> Vec<i64> {
    println!("cross-engine schedule: {}", engine.engine_name());
    let vars: Vec<EngineVar<E, i64>> = (0..N).map(|_| engine.new_var(1_000i64)).collect();
    let mut h = engine.register();
    let mut rng = FastRng::new(4242);
    for _ in 0..steps {
        let from = rng.below(N);
        let to = (from + 1 + rng.below(N - 1)) % N;
        let amount = rng.range(1, 50);
        let (a, b) = (vars[from].clone(), vars[to].clone());
        h.atomically(|tx| {
            let va = *tx.read(&a)?;
            let vb = *tx.read(&b)?;
            tx.write(&a, va - amount)?;
            tx.write(&b, vb + amount)?;
            Ok(())
        });
    }
    vars.iter().map(|v| *E::peek(v)).collect()
}

/// A deterministic sequence of transfers applied through any engine must
/// give identical balances (single-threaded: all engines are sequential).
#[test]
fn single_threaded_engines_agree() {
    const STEPS: usize = 2_000;
    let lsa = run_schedule(&Stm::new(SharedCounter::new()), STEPS);
    let lsa_rt_clock = run_schedule(&Stm::new(HardwareClock::mmtimer_free()), STEPS);
    let tl2 = run_schedule(&Tl2Stm::new(SharedCounter::new()), STEPS);
    let val_always = run_schedule(&ValidationStm::new(ValidationMode::Always), STEPS);
    let val_cc = run_schedule(&ValidationStm::new(ValidationMode::CommitCounter), STEPS);
    let norec = run_schedule(&NorecStm::new(), STEPS);

    assert_eq!(lsa, lsa_rt_clock, "LSA-RT diverged across time bases");
    assert_eq!(lsa, tl2, "LSA-RT and TL2 diverged");
    assert_eq!(lsa, val_always, "LSA-RT and validation(always) diverged");
    assert_eq!(
        lsa, val_cc,
        "LSA-RT and validation(commit-counter) diverged"
    );
    assert_eq!(lsa, norec, "LSA-RT and NOrec diverged");
    assert_eq!(lsa.iter().sum::<i64>(), N as i64 * 1_000);
}

/// Concurrent transfers through any engine preserve the bank total.
fn concurrent_invariant<E: TxnEngine>(engine: &E) {
    const ACCOUNTS: usize = 12;
    const THREADS: usize = 4;
    const STEPS: usize = 1_200;

    println!(
        "cross-engine concurrent invariant: {}",
        engine.engine_name()
    );
    let vars: Vec<EngineVar<E, i64>> = (0..ACCOUNTS).map(|_| engine.new_var(100i64)).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = engine.clone();
            let vars = vars.clone();
            s.spawn(move || {
                let mut h = engine.register();
                let mut rng = FastRng::new(t as u64 + 1);
                for _ in 0..STEPS {
                    let from = rng.below(ACCOUNTS);
                    let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                    let (a, b) = (vars[from].clone(), vars[to].clone());
                    h.atomically(|tx| {
                        let va = *tx.read(&a)?;
                        let vb = *tx.read(&b)?;
                        tx.write(&a, va - 1)?;
                        tx.write(&b, vb + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(
        vars.iter().map(|v| *E::peek(v)).sum::<i64>(),
        ACCOUNTS as i64 * 100,
        "total broken on {}",
        engine.engine_name()
    );
}

/// Concurrent invariant parity: each engine preserves the bank total under
/// the same thread/transfer counts.
#[test]
fn concurrent_engines_preserve_invariants() {
    concurrent_invariant(&Stm::new(SharedCounter::new()));
    concurrent_invariant(&Tl2Stm::new(SharedCounter::new()));
    concurrent_invariant(&ValidationStm::new(ValidationMode::CommitCounter));
    concurrent_invariant(&NorecStm::new());
}

/// LSA-RT on every time base agrees with the sequential expectation when
/// each thread works on private data (paper §4.2 workload shape) — the same
/// generic increment loop, driven through the engine surface.
#[test]
fn all_time_bases_agree_on_disjoint_work() {
    use lsa_rt::time::external::ExternalClock;
    use lsa_rt::time::numa::{NumaCounter, NumaModel};

    fn run<E: TxnEngine>(engine: E) -> u64 {
        let vars: Vec<EngineVar<E, u64>> = (0..4).map(|_| engine.new_var(0u64)).collect();
        std::thread::scope(|s| {
            for v in vars.iter() {
                let engine = engine.clone();
                let v = v.clone();
                s.spawn(move || {
                    let mut h = engine.register();
                    for _ in 0..500 {
                        h.atomically(|tx| tx.modify(&v, |x| x + 1));
                    }
                });
            }
        });
        vars.iter().map(|v| *E::peek(v)).sum()
    }

    assert_eq!(run(Stm::new(SharedCounter::new())), 2_000);
    assert_eq!(
        run(Stm::new(lsa_rt::time::counter::BlockCounter::default())),
        2_000
    );
    assert_eq!(run(Stm::new(PerfectClock::new())), 2_000);
    assert_eq!(run(Stm::new(HardwareClock::mmtimer_free())), 2_000);
    assert_eq!(run(Stm::new(NumaCounter::new(NumaModel::free()))), 2_000);
    assert_eq!(run(Stm::new(ExternalClock::new(10_000))), 2_000);
    // The same loop also runs unchanged on the other engine families —
    // including TL2 on the arbitration bases LSA cannot use (the adopting
    // GV4 and the lazy GV5, both non-commit-monotonic).
    assert_eq!(run(Tl2Stm::new(SharedCounter::new())), 2_000);
    assert_eq!(
        run(Tl2Stm::new(lsa_rt::time::counter::Gv4Counter::new())),
        2_000
    );
    assert_eq!(
        run(Tl2Stm::new(lsa_rt::time::counter::Gv5Counter::new())),
        2_000
    );
    assert_eq!(run(ValidationStm::new(ValidationMode::Always)), 2_000);
    assert_eq!(run(NorecStm::new()), 2_000);
}
