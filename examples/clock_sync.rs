//! End-to-end externally-synchronized-clock workflow (§3.2):
//!
//! 1. simulate a software clock-synchronization protocol to find the
//!    achievable deviation bound `dev`,
//! 2. build an [`ExternalClock`] ensemble advertising that bound (with real
//!    injected per-thread offsets),
//! 3. measure its offsets/errors with the Figure 1 methodology,
//! 4. run transactions on it and show consistency still holds while the
//!    abort profile reflects the `2·dev` validity gaps.
//!
//! Run with: `cargo run --release --example clock_sync`

use lsa_rt::prelude::*;
use lsa_rt::time::sync_measure::{measure, summarize, SyncMeasureConfig};
use lsa_rt::time::sync_sim::{achievable_dev, SyncSimConfig};
use std::time::Duration;

fn main() {
    // 1. What dev can software synchronization achieve?
    let sim = SyncSimConfig {
        nodes: 8,
        max_drift_ppm: 50.0,
        ..Default::default()
    };
    let dev_ns = achievable_dev(&sim);
    println!(
        "software sync simulation says dev = {} us is achievable",
        dev_ns / 1_000
    );

    // 2-3. Build the ensemble and measure it like Figure 1.
    let tb = ExternalClock::new(dev_ns);
    let rounds = measure(
        &tb,
        &SyncMeasureConfig {
            probes: 2,
            rounds: 10,
            round_interval: Duration::from_millis(2),
        },
    );
    let s = summarize(&rounds);
    println!(
        "measured: worst offset {} ns (injected bound 2*dev = {} ns), worst error {} ns",
        s.worst_abs_offset,
        2 * dev_ns,
        s.worst_error
    );

    // 4. Transactions on uncertain clocks.
    let stm = Stm::new(tb);
    let counters: Vec<_> = (0..16).map(|_| stm.new_tvar(0u64)).collect();
    std::thread::scope(|sc| {
        for t in 0..4usize {
            let stm = stm.clone();
            let counters = counters.clone();
            sc.spawn(move || {
                let mut th = stm.register();
                for i in 0..5_000 {
                    let c = counters[(t * 7 + i) % counters.len()].clone();
                    th.atomically(|tx| tx.modify(&c, |v| v + 1));
                }
                println!("thread {t}: {}", th.engine_stats());
            });
        }
    });
    let total: u64 = counters.iter().map(|c| *c.snapshot_latest()).sum();
    println!("total increments: {total} (expected 20000)");
    assert_eq!(total, 20_000);
}
