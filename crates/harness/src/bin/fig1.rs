//! **Figure 1** — "MMTimer synchronization errors and offsets": per-round
//! `max(abs(offset))`, `max(error)` and `max(error + abs(offset))` measured
//! by exchanging timestamps through shared memory (§4.1 methodology).
//!
//! Three runs:
//! 1. the simulated MMTimer (a perfectly synchronized clock — offsets must
//!    stay below the measurement error, as the paper observes),
//! 2. an externally synchronized ensemble with injected bounded offsets
//!    (offsets dominate, demonstrating what the measurement detects),
//! 3. the software clock-synchronization simulator (§3.2): what deviation
//!    bound software sync can achieve — the `dev` an `ExternalClock` would
//!    advertise.
//!
//! The paper's run is 4 hours at one round per 0.1 s; this scales the round
//! count down (`LSA_FIG1_ROUNDS` overrides, default 40).

use lsa_harness::{f2, Table};
use lsa_time::external::ExternalClock;
use lsa_time::hardware::HardwareClock;
use lsa_time::sync_measure::{measure, summarize, SyncMeasureConfig};
use lsa_time::sync_sim::{simulate, SyncSimConfig};
use std::time::Duration;

fn rounds_cfg() -> SyncMeasureConfig {
    let rounds = std::env::var("LSA_FIG1_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    SyncMeasureConfig {
        probes: 3,
        rounds,
        round_interval: Duration::from_millis(10),
    }
}

fn main() {
    let cfg = rounds_cfg();

    // --- Run 1: MMTimer (values in MMTimer ticks, like the paper). ---
    let tb = HardwareClock::mmtimer_free();
    let rounds = measure(&tb, &cfg);
    let mut t = Table::new(
        "Figure 1a: MMTimer synchronization errors and offsets (ticks @ 20 MHz)",
        &[
            "round",
            "max(abs(offset))",
            "max(error)",
            "max(error+abs(offset))",
        ],
    );
    for r in rounds.iter().step_by((rounds.len() / 20).max(1)) {
        t.row(vec![
            r.round.to_string(),
            r.max_abs_offset.to_string(),
            r.max_error.to_string(),
            r.max_err_plus_abs_offset.to_string(),
        ]);
    }
    t.print();
    let s = summarize(&rounds);
    println!(
        "summary: worst offset={} ticks, worst error={} ticks, bound estimate={} ticks",
        s.worst_abs_offset, s.worst_error, s.bound_estimate
    );
    println!(
        "paper's observation to verify: offsets masked by errors -> {}\n",
        if s.worst_abs_offset <= s.worst_error {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );

    // --- Run 2: externally synchronized clocks with injected offsets. ---
    let dev_ns = 50_000; // 50 µs
    let tb = ExternalClock::new(dev_ns);
    let rounds = measure(&tb, &cfg);
    let s = summarize(&rounds);
    let mut t = Table::new(
        format!("Figure 1b: externally synchronized clocks, dev = {dev_ns} ns (values in ns)"),
        &["metric", "value"],
    );
    t.row(vec![
        "worst max(abs(offset))".into(),
        s.worst_abs_offset.to_string(),
    ]);
    t.row(vec!["worst max(error)".into(), s.worst_error.to_string()]);
    t.row(vec!["bound estimate".into(), s.bound_estimate.to_string()]);
    t.row(vec![
        "injected bound (2*dev)".into(),
        (2 * dev_ns).to_string(),
    ]);
    t.print();

    // --- Run 3: software clock synchronization (deterministic simulator). ---
    let sim_cfg = SyncSimConfig::default();
    let out = simulate(&sim_cfg);
    let mut t = Table::new(
        "Figure 1c: software clock sync simulation (Cristian-style, microseconds)",
        &["round", "max(abs(offset))", "max(error)"],
    );
    for r in out.rounds.iter().step_by((out.rounds.len() / 10).max(1)) {
        t.row(vec![
            r.round.to_string(),
            f2(r.max_abs_offset_us),
            f2(r.max_error_us),
        ]);
    }
    t.print();
    println!(
        "achievable dev for ExternalClock: {:.1} us (drift {} ppm, resync every {} s)",
        out.achievable_dev_us, sim_cfg.max_drift_ppm, sim_cfg.sync_interval_s
    );
}
