//! Offline serializability/opacity checking of committed histories.
//!
//! Two layers:
//!
//! 1. **Engine-generic** (every engine in the harness registry, NOrec
//!    included): the conformance suite of [`lsa_engine::conformance`] —
//!    value-chain serializability, audit-snapshot consistency, the
//!    differential models and the write-skew check — runs per registry
//!    entry through its `run_conformance` hook. Commit timestamps are
//!    engine-private, so the generic check uses the per-object *value
//!    chain* as the witness of commit order instead.
//!
//! 2. **LSA-specific**: every committed update transaction records
//!    `(commit_time, per-object: value-read, value-written)`, and the log is
//!    checked against the commit-time order the time base defines:
//!
//!    * per object, commit times are strictly increasing (no two conflicting
//!      commits share a timestamp — §2.3 allows equal commit times only for
//!      non-conflicting transactions);
//!    * per object, the value each transaction *read* equals the value the
//!      previous committer (in commit-time order) *wrote* — i.e. the
//!      committed history is exactly the sequential history at commit-time
//!      order.

use lsa_rt::prelude::*;
use lsa_rt::time::counter::SharedCounter;
use lsa_rt::time::hardware::HardwareClock;
use lsa_rt::time::perfect::PerfectClock;
use lsa_rt::time::TimeBase;
use std::sync::Mutex;

#[derive(Clone, Copy, Debug)]
struct Record {
    ct: u64,
    object: usize,
    read: u64,
    wrote: u64,
}

fn run_and_check<B: TimeBase<Ts = u64>>(tb: B, threads: usize, increments: usize) {
    const OBJECTS: usize = 8;
    let stm = Stm::new(tb);
    let vars: Vec<TVar<u64, u64>> = (0..OBJECTS).map(|_| stm.new_tvar(0u64)).collect();
    let log: Mutex<Vec<Record>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = stm.clone();
            let vars = vars.clone();
            let log = &log;
            s.spawn(move || {
                let mut h = stm.register();
                let mut local = Vec::with_capacity(increments);
                let mut seed = t as u64 + 1;
                for _ in 0..increments {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let object = (seed >> 33) as usize % OBJECTS;
                    let var = vars[object].clone();
                    let (read, wrote) = h.atomically(|tx| {
                        let read = *tx.read(&var)?;
                        tx.write(&var, read + 1)?;
                        Ok((read, read + 1))
                    });
                    let ct = h.last_commit_time().expect("update txn has a CT");
                    local.push(Record {
                        ct,
                        object,
                        read,
                        wrote,
                    });
                }
                log.lock().unwrap().extend(local);
            });
        }
    });

    let mut log = log.into_inner().unwrap();
    assert_eq!(log.len(), threads * increments);

    // Check per object: strictly increasing commit times, and each read
    // matches the previous write — the committed history equals the
    // sequential history in commit-time order.
    log.sort_by_key(|r| (r.object, r.ct));
    for (object, var) in vars.iter().enumerate() {
        let mut expected = 0u64;
        let mut last_ct = 0u64;
        for r in log.iter().filter(|r| r.object == object) {
            assert!(
                r.ct > last_ct,
                "conflicting commits share or invert commit times: {} then {}",
                last_ct,
                r.ct
            );
            last_ct = r.ct;
            assert_eq!(
                r.read, expected,
                "object {object}: transaction at ct={} read {} but the \
                 commit-time-ordered history says {}",
                r.ct, r.read, expected
            );
            assert_eq!(r.wrote, r.read + 1);
            expected = r.wrote;
        }
        assert_eq!(*var.snapshot_latest(), expected);
    }
}

/// The engine-generic conformance suite over EVERY engine in the registry —
/// not just LSA-RT with hand-picked time bases. A new registry entry is
/// covered automatically; run with `--nocapture` to see per-engine
/// progress.
#[test]
fn conformance_suite_passes_on_every_registry_engine() {
    for entry in lsa_rt::harness::default_registry() {
        println!("conformance: {}", entry.label());
        entry.run_conformance();
    }
}

/// The same check on the block counter, whose commits re-arbitrate
/// reserved values against the published frontier.
#[test]
fn sharded_committed_history_is_serializable_block() {
    use lsa_rt::time::counter::BlockCounter;
    run_and_check(BlockCounter::new(16), 4, 1_000);
}

#[test]
fn committed_history_is_serializable_counter() {
    run_and_check(SharedCounter::new(), 4, 2_000);
}

#[test]
fn committed_history_is_serializable_perfect_clock() {
    run_and_check(PerfectClock::new(), 4, 2_000);
}

#[test]
fn committed_history_is_serializable_mmtimer() {
    run_and_check(HardwareClock::mmtimer_free(), 4, 2_000);
}

/// The same property through the external-clock ensemble: commit times are
/// `ExtTimestamp`s; conflicting commits on one object must be strictly
/// ordered by the *guaranteed* relation (their gaps must exceed the masked
/// uncertainty), and values must chain.
#[test]
fn committed_history_is_serializable_external_clock() {
    use lsa_rt::time::external::{ExtTimestamp, ExternalClock};
    use lsa_rt::time::Timestamp as _;

    const OBJECTS: usize = 4;
    let tb = ExternalClock::new(20_000);
    let stm = Stm::new(tb);
    let vars: Vec<TVar<u64, ExtTimestamp>> = (0..OBJECTS).map(|_| stm.new_tvar(0u64)).collect();
    let log: Mutex<Vec<(ExtTimestamp, usize, u64, u64)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for t in 0..4usize {
            let stm = stm.clone();
            let vars = vars.clone();
            let log = &log;
            s.spawn(move || {
                let mut h = stm.register();
                let mut local = Vec::new();
                let mut seed = t as u64 + 9;
                for _ in 0..800 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let object = (seed >> 33) as usize % OBJECTS;
                    let var = vars[object].clone();
                    let (read, wrote) = h.atomically(|tx| {
                        let read = *tx.read(&var)?;
                        tx.write(&var, read + 1)?;
                        Ok((read, read + 1))
                    });
                    local.push((h.last_commit_time().unwrap(), object, read, wrote));
                }
                log.lock().unwrap().extend(local);
            });
        }
    });

    let mut log = log.into_inner().unwrap();
    // ExtTimestamp has no total order; sort by the per-object value chain
    // instead (read value defines the position), then verify commit times
    // respect the guaranteed order along each chain.
    log.sort_by_key(|&(_, object, read, _)| (object, read));
    for (object, var) in vars.iter().enumerate() {
        let entries: Vec<_> = log.iter().filter(|e| e.1 == object).collect();
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.2, i as u64, "value chain must be gapless");
            assert_eq!(e.3, i as u64 + 1);
        }
        for pair in entries.windows(2) {
            let (ct_a, ct_b) = (pair[0].0, pair[1].0);
            assert!(
                !ct_a.ge(ct_b) || ct_a == ct_b,
                "later chain position must not be guaranteed-earlier: {ct_a:?} vs {ct_b:?}"
            );
        }
        assert_eq!(*var.snapshot_latest(), entries.len() as u64);
    }
}
