//! **EXP-ERR** — §4.3: the effect of clock synchronization errors.
//!
//! "Synchronization errors shrink the object versions' validity ranges …
//! creating gaps of size 2·dev between versions, which can reduce the
//! probability that LSA-RT finds an intersection between the validity ranges
//! of object versions." For multi-version STMs both ends of every range
//! shrink; for single-version STMs only the beginnings do.
//!
//! This sweep runs the served bank mix (transfers + long read-only audits
//! of all 64 accounts, 20 % of requests) on externally synchronized clocks, sweeping the deviation bound `dev`, in
//! both multi-version (8) and single-version (1) configurations. Every cell
//! is a parameterized registry entry
//! ([`lsa_harness::registry::lsa_external_entry`]) driven through the same
//! engine-generic runner as the `matrix` binary; the reported columns are
//! the registry's shared statistics surface — including the §4.3
//! snapshot/no-version abort split, read straight from the cross-engine
//! `EngineStats::abort_reasons` taxonomy (validations = snapshot
//! extensions for LSA). No per-engine hand-wiring: any engine mapped onto
//! the taxonomy reports the same columns.

use lsa_harness::registry::{lsa_external_entry, Workload};
use lsa_harness::{f2, f3, measure_window, Kind, Table};

fn main() {
    let window = measure_window(250);
    let threads = 4usize;
    let devs_ns: [u64; 5] = [0, 1_000, 10_000, 100_000, 1_000_000];

    for (label, versions) in [
        ("multi-version (8)", 8usize),
        ("single-version (1)", 1usize),
    ] {
        let mut t = Table::new(
            format!("EXP-ERR: bank workload on external clocks — {label}"),
            &[
                "dev (us)",
                "cell",
                "tx/s",
                "aborts/commit",
                "extensions/commit",
                "validation aborts",
                "no-version aborts",
                "contention aborts",
            ],
        );
        for &dev in &devs_ns {
            // One parameterized registry entry per cell; every audit reply
            // and the quiescent bank total are checked by the generic runner.
            let entry = lsa_external_entry(dev, versions);
            let out = entry.run(&Workload::Tables(Kind::Bank), threads, window);
            t.row(vec![
                f2(dev as f64 / 1_000.0),
                entry.label(),
                format!("{:.0}", out.tx_per_sec()),
                f3(out.stats.abort_ratio()),
                f3(out.stats.validations_per_commit()),
                out.stats.abort_reasons.validation.to_string(),
                out.stats.abort_reasons.no_version.to_string(),
                out.stats.abort_reasons.contention.to_string(),
            ]);
        }
        t.print();
    }
    println!(
        "expected shape (S4.3): abort ratio grows with dev; the multi-version \
         configuration suffers on BOTH range ends (old snapshots die sooner), \
         the single-version one only at version beginnings. the abort columns \
         split by the generic taxonomy: validation (snapshot collapse + \
         commit-time validation) vs no-version (empty validity-range \
         intersection, the multi-version signature) vs contention."
    );
}
