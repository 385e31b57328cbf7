//! Multi-version snapshots for hybrid workloads: long analytical scans
//! concurrent with a high-rate update stream.
//!
//! The motivating scenario for multi-version time-based STM (§4.3): a
//! single-version STM forces long read-only transactions to abort whenever
//! any object they read is updated mid-scan; LSA-RT's version chains let the
//! scan *finish in the past* on a consistent snapshot instead.
//!
//! Run with: `cargo run --release --example snapshot_analytics`

use lsa_rt::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

fn run(label: &str, max_versions: usize) {
    let cfg = StmConfig::multi_version(max_versions);
    let stm = Stm::with_config(HardwareClock::mmtimer_free(), cfg);
    const N: usize = 512;
    // "Metrics" table updated continuously; every update bumps two entries
    // by amounts that cancel, so every consistent snapshot sums to zero.
    let metrics: Vec<_> = (0..N).map(|_| stm.new_tvar(0i64)).collect();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Update stream.
        for t in 0..2u64 {
            let stm = stm.clone();
            let metrics = metrics.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut th = stm.register();
                let mut seed = 0x5EED + t;
                while !stop.load(Ordering::Relaxed) {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let i = (seed >> 33) as usize % N;
                    let j = (seed >> 13) as usize % N;
                    if i == j {
                        continue;
                    }
                    let (a, b) = (metrics[i].clone(), metrics[j].clone());
                    th.atomically(|tx| {
                        tx.modify(&a, |v| v + 7)?;
                        tx.modify(&b, |v| v - 7)
                    });
                }
            });
        }
        // Analytical scans.
        let stm2 = stm.clone();
        let metrics2 = metrics.clone();
        let stop = &stop;
        s.spawn(move || {
            let mut th = stm2.register();
            let mut scans = 0u32;
            while scans < 200 {
                let sum = th.atomically(|tx| {
                    let mut sum = 0i64;
                    for m in &metrics2 {
                        sum += *tx.read(m)?;
                    }
                    Ok(sum)
                });
                assert_eq!(sum, 0, "scan saw an inconsistent snapshot");
                scans += 1;
            }
            stop.store(true, Ordering::Relaxed);
            let st = th.engine_stats();
            println!(
                "{label:>18}: 200 scans, {} aborts ({:.2} aborts/scan), {} validations",
                st.aborts,
                st.aborts as f64 / 200.0,
                st.validations,
            );
        });
    });
}

fn main() {
    println!("512-object scans against a continuous update stream:");
    run("single-version", 1);
    run("multi-version(8)", 8);
    println!("multi-version scans abort far less: old snapshots stay completable (S4.3).");
}
