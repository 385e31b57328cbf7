//! Early concurrency smoke tests for the LSA-RT core: run them against every
//! time base so algorithm/time-base interactions are exercised before the
//! higher layers build on top.

use lsa_stm::prelude::*;
use lsa_time::counter::{BlockCounter, SharedCounter};
use lsa_time::external::ExternalClock;
use lsa_time::hardware::HardwareClock;
use lsa_time::perfect::PerfectClock;
use lsa_time::TimeBase;

/// N threads transfer random amounts between accounts while auditors verify
/// the total is invariant — the canonical STM consistency check.
fn bank_invariant_holds<B: TimeBase>(tb: B, threads: usize, transfers: usize) {
    const ACCOUNTS: usize = 16;
    const INITIAL: i64 = 1000;
    let stm = Stm::new(tb);
    let accounts: Vec<TVar<i64, B::Ts>> = (0..ACCOUNTS).map(|_| stm.new_tvar(INITIAL)).collect();

    std::thread::scope(|s| {
        // Transfer threads.
        for t in 0..threads {
            let stm = stm.clone();
            let accounts = accounts.clone();
            s.spawn(move || {
                let mut h = stm.register();
                let mut x = t as u64 + 1;
                for _ in 0..transfers {
                    // xorshift for cheap deterministic-ish randomness
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = (x as usize) % ACCOUNTS;
                    let to = ((x >> 16) as usize) % ACCOUNTS;
                    let amount = (x % 100) as i64;
                    if from == to {
                        continue;
                    }
                    let (a, b) = (accounts[from].clone(), accounts[to].clone());
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
        // Auditor threads: read-only scans must always see the invariant sum.
        for _ in 0..2 {
            let stm = stm.clone();
            let accounts = accounts.clone();
            s.spawn(move || {
                let mut h = stm.register();
                for _ in 0..200 {
                    let total = h.atomically(|tx| {
                        let mut sum = 0i64;
                        for acc in &accounts {
                            sum += *tx.read(acc)?;
                        }
                        Ok(sum)
                    });
                    assert_eq!(
                        total,
                        (ACCOUNTS as i64) * INITIAL,
                        "read-only snapshot saw an inconsistent total"
                    );
                }
            });
        }
    });

    // Quiescent total is also invariant.
    let final_total: i64 = accounts.iter().map(|a| *a.snapshot_latest()).sum();
    assert_eq!(final_total, (ACCOUNTS as i64) * INITIAL);
}

#[test]
fn bank_invariant_shared_counter() {
    bank_invariant_holds(SharedCounter::new(), 4, 2_000);
}

// No GV4/GV5 variants here: LSA rejects non-commit-monotonic bases at
// construction (see `lsa_stm::Stm::with_cm`); TL2 covers them instead.

#[test]
fn bank_invariant_block_counter() {
    bank_invariant_holds(BlockCounter::new(16), 4, 2_000);
}

#[test]
fn bank_invariant_perfect_clock() {
    bank_invariant_holds(PerfectClock::new(), 4, 2_000);
}

#[test]
fn bank_invariant_mmtimer() {
    bank_invariant_holds(HardwareClock::mmtimer_free(), 4, 2_000);
}

#[test]
fn bank_invariant_external_clock_with_offsets() {
    // 50 µs deviation with alternating extreme offsets: plenty of genuine
    // cross-thread clock disagreement.
    bank_invariant_holds(ExternalClock::new(50_000), 4, 1_000);
}

#[test]
fn disjoint_counters_all_increments_survive() {
    // The paper's §4.2 workload shape: each thread updates its own objects;
    // no logical conflicts, so every increment must land.
    let stm = Stm::new(SharedCounter::new());
    const PER: usize = 4;
    const THREADS: usize = 4;
    const INCS: usize = 2_000;
    let vars: Vec<Vec<TVar<u64, u64>>> = (0..THREADS)
        .map(|_| (0..PER).map(|_| stm.new_tvar(0u64)).collect())
        .collect();
    std::thread::scope(|s| {
        for mine in &vars {
            let stm = stm.clone();
            let mine = mine.clone();
            s.spawn(move || {
                let mut h = stm.register();
                for i in 0..INCS {
                    let v = mine[i % PER].clone();
                    h.atomically(|tx| tx.modify(&v, |x| x + 1));
                }
                assert_eq!(h.engine_stats().commits, INCS as u64);
            });
        }
    });
    for per_thread in &vars {
        let sum: u64 = per_thread.iter().map(|v| *v.snapshot_latest()).sum();
        assert_eq!(sum, INCS as u64);
    }
}

#[test]
fn write_write_conflicts_never_lose_updates() {
    // All threads increment the SAME counter: contention managers fight, but
    // the final value must equal the number of committed increments.
    let stm = Stm::new(PerfectClock::new());
    let shared = stm.new_tvar(0u64);
    const THREADS: usize = 4;
    const INCS: u64 = 1_000;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let stm = stm.clone();
            let v = shared.clone();
            s.spawn(move || {
                let mut h = stm.register();
                for _ in 0..INCS {
                    h.atomically(|tx| tx.modify(&v, |x| x + 1));
                }
            });
        }
    });
    assert_eq!(*shared.snapshot_latest(), THREADS as u64 * INCS);
}

#[test]
fn aggressive_and_suicide_cms_still_correct() {
    for cm_name in ["aggressive", "suicide", "karma", "timestamp"] {
        let stm = match cm_name {
            "aggressive" => Stm::with_cm(PerfectClock::new(), StmConfig::default(), Aggressive),
            "suicide" => Stm::with_cm(PerfectClock::new(), StmConfig::default(), Suicide),
            "karma" => Stm::with_cm(PerfectClock::new(), StmConfig::default(), Karma),
            _ => Stm::with_cm(
                PerfectClock::new(),
                StmConfig::default(),
                TimestampCm::default(),
            ),
        };
        let v = stm.new_tvar(0u64);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let stm = stm.clone();
                let v = v.clone();
                s.spawn(move || {
                    let mut h = stm.register();
                    for _ in 0..300 {
                        h.atomically(|tx| tx.modify(&v, |x| x + 1));
                    }
                });
            }
        });
        assert_eq!(*v.snapshot_latest(), 900, "cm={cm_name}");
    }
}

#[test]
fn single_version_mode_concurrent_correctness() {
    let stm = Stm::with_config(SharedCounter::new(), StmConfig::single_version());
    let a = stm.new_tvar(500i64);
    let b = stm.new_tvar(500i64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let stm = stm.clone();
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                let mut h = stm.register();
                for i in 0..500 {
                    let amt = (i % 7) as i64;
                    h.atomically(|tx| {
                        let va = *tx.read(&a)?;
                        let vb = *tx.read(&b)?;
                        tx.write(&a, va - amt)?;
                        tx.write(&b, vb + amt)?;
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(*a.snapshot_latest() + *b.snapshot_latest(), 1000);
}
