//! Quickstart: a concurrent bank on LSA-RT.
//!
//! Demonstrates the core API — creating a runtime on a time base, creating
//! transactional variables, running transactions from multiple threads —
//! and shows the consistency guarantee: read-only audits always see the
//! invariant total while transfers run.
//!
//! Run with: `cargo run --release --example quickstart`

use lsa_rt::prelude::*;

fn main() {
    // The paper's scalable time base: a synchronized hardware clock.
    // Swap in `SharedCounter::new()` to get the classical counter-based LSA.
    let stm = Stm::new(HardwareClock::mmtimer_free());

    const ACCOUNTS: usize = 8;
    const INITIAL: i64 = 1_000;
    let accounts: Vec<_> = (0..ACCOUNTS).map(|_| stm.new_tvar(INITIAL)).collect();

    std::thread::scope(|s| {
        // Three transfer threads.
        for t in 0..3u64 {
            let stm = stm.clone();
            let accounts = accounts.clone();
            s.spawn(move || {
                let mut thread = stm.register();
                let mut seed = t + 1;
                for _ in 0..10_000 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (seed >> 33) as usize % ACCOUNTS;
                    let to = (seed >> 13) as usize % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amount = (seed % 50) as i64;
                    let (a, b) = (accounts[from].clone(), accounts[to].clone());
                    thread.atomically(|tx| {
                        let va = *tx.read(&a)?;
                        let vb = *tx.read(&b)?;
                        tx.write(&a, va - amount)?;
                        tx.write(&b, vb + amount)?;
                        Ok(())
                    });
                }
                println!("transfer thread {t}: {}", thread.engine_stats());
            });
        }
        // One auditor thread: consistent snapshots, no validation cost.
        let stm = stm.clone();
        let accounts = accounts.clone();
        s.spawn(move || {
            let mut thread = stm.register();
            for i in 0..2_000 {
                let total = thread.atomically(|tx| {
                    let mut sum = 0;
                    for a in &accounts {
                        sum += *tx.read(a)?;
                    }
                    Ok(sum)
                });
                assert_eq!(
                    total,
                    ACCOUNTS as i64 * INITIAL,
                    "audit {i} saw a torn state!"
                );
            }
            println!(
                "auditor: 2000 consistent snapshots, {}",
                thread.engine_stats()
            );
        });
    });

    let total: i64 = accounts.iter().map(|a| *a.snapshot_latest()).sum();
    println!(
        "final total: {total} (expected {})",
        ACCOUNTS as i64 * INITIAL
    );
    assert_eq!(total, ACCOUNTS as i64 * INITIAL);
}
