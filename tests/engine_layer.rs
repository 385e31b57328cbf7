//! Integration tests of the `TxnEngine` abstraction itself: the
//! multithreaded bank-invariant audit on every engine, and agreement between
//! the engine-generic statistics surface and the harness's `RunOutcome`
//! totals.

use lsa_rt::baseline::{NorecStm, Tl2Stm, ValidationMode, ValidationStm};
use lsa_rt::harness::{run_steps, RunOutcome, Workload};
use lsa_rt::prelude::*;
use lsa_rt::time::counter::SharedCounter;
use lsa_rt::workloads::{BankConfig, BankWorkload, DisjointConfig, DisjointWorkload};

/// Multithreaded bank with concurrent read-only auditors: on every engine,
/// no audit may ever observe a broken total, and the quiescent total must be
/// conserved exactly.
fn bank_audit_invariant<E: TxnEngine>(engine: E) {
    const THREADS: usize = 4;
    const STEPS: u64 = 600;
    let name = engine.engine_name();
    let wl = BankWorkload::new(
        engine,
        BankConfig {
            accounts: 24,
            initial: 250,
            audit_percent: 30,
        },
    );
    let failures: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mut w = wl.worker(t);
                s.spawn(move || {
                    for _ in 0..STEPS {
                        w.step();
                    }
                    w.audit_failures()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(failures, 0, "{name}: an audit observed a broken invariant");
    assert_eq!(
        wl.quiescent_total(),
        wl.expected_total(),
        "{name}: total not conserved"
    );
}

#[test]
fn bank_audit_invariant_lsa_rt() {
    bank_audit_invariant(Stm::new(SharedCounter::new()));
    bank_audit_invariant(Stm::new(HardwareClock::mmtimer_free()));
}

#[test]
fn bank_audit_invariant_tl2() {
    bank_audit_invariant(Tl2Stm::new(SharedCounter::new()));
}

#[test]
fn bank_audit_invariant_validation() {
    bank_audit_invariant(ValidationStm::new(ValidationMode::Always));
    bank_audit_invariant(ValidationStm::new(ValidationMode::CommitCounter));
}

#[test]
fn bank_audit_invariant_norec() {
    bank_audit_invariant(NorecStm::new());
}

/// `EngineStats` (per-worker, engine-generic) must agree with the
/// `RunOutcome` the harness aggregates, and with ground truth: on the
/// disjoint workload every step is exactly one update commit.
fn stats_agree_with_run_outcome<E: TxnEngine>(engine: E) {
    const THREADS: usize = 2;
    const STEPS: u64 = 150;
    const K: usize = 4;
    let name = engine.engine_name();
    let wl = DisjointWorkload::new(
        engine,
        THREADS,
        DisjointConfig {
            objects_per_thread: 16,
            accesses_per_tx: K,
        },
    );
    let out: RunOutcome = run_steps(THREADS, STEPS, |i| wl.worker(i));
    let expected = THREADS as u64 * STEPS;
    assert_eq!(out.steps, expected, "{name}: steps miscounted");
    assert_eq!(
        out.commits(),
        expected,
        "{name}: RunOutcome commits != steps"
    );
    assert_eq!(out.stats.aborts, 0, "{name}: disjoint work aborted");
    assert_eq!(
        wl.total(),
        out.commits() * K as u64,
        "{name}: committed increments don't match RunOutcome commits"
    );

    // Per-worker stats surface agrees with a hand-counted run: a fresh
    // handle starts from zero, whatever the run's handles counted.
    let mut w = wl.worker(0);
    assert_eq!(
        w.stats(),
        EngineStats::default(),
        "{name}: a fresh handle inherited counts"
    );
    for _ in 0..25 {
        w.step();
    }
    let s = w.stats();
    assert_eq!(
        s.commits, 25,
        "{name}: commits miscounted on the stats surface"
    );
    assert_eq!(
        s.ro_commits, 0,
        "{name}: updates misclassified as read-only"
    );
    assert_eq!(s.aborts, 0, "{name}: phantom aborts");
    assert!(s.reads >= 25 * K as u64, "{name}: reads under-counted");
    assert!(s.writes >= 25 * K as u64, "{name}: writes under-counted");
}

#[test]
fn stats_agree_with_run_outcome_all_engines() {
    stats_agree_with_run_outcome(Stm::new(SharedCounter::new()));
    stats_agree_with_run_outcome(Tl2Stm::new(SharedCounter::new()));
    stats_agree_with_run_outcome(ValidationStm::new(ValidationMode::CommitCounter));
    stats_agree_with_run_outcome(NorecStm::new());
}

/// The registry's engine-generic runner reports the same totals the
/// workload's own accounting implies, for every registered engine.
#[test]
fn registry_outcomes_match_workload_accounting() {
    use std::time::Duration;
    let wl = Workload::Disjoint(DisjointConfig {
        objects_per_thread: 8,
        accesses_per_tx: 2,
    });
    for entry in lsa_rt::harness::default_registry() {
        // `EngineEntry::run` calls `lsa_harness::run_workload`, which
        // asserts total == commits * k after the run.
        let out = entry.run(&wl, 2, Duration::from_millis(5));
        assert!(out.commits() > 0, "{} made no progress", entry.label());
    }
}
