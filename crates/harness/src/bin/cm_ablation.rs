//! **EXP-CM** — §2.3: contention-manager ablation.
//!
//! The paper delegates write-write conflict resolution to a "configurable
//! module" (the DSTM contention-manager design). This ablation quantifies the
//! policy choice on a deliberately conflict-heavy workload: the served bank
//! mix on a bank of five accounts, so nearly every pair of transfers
//! collides and every audit races them.

use lsa_harness::{f3, measure_window, run_for, Kind, Table, TablesWorker};
use lsa_stm::cm::{Aggressive, ContentionManager, Karma, Polite, Suicide, TimestampCm};
use lsa_stm::{Stm, StmConfig};
use lsa_time::perfect::PerfectClock;
use lsa_wire::{Tables, TablesConfig};

const ACCOUNTS: u32 = 5;

fn run_policy(cm: impl ContentionManager, threads: usize) -> (f64, f64) {
    let window = measure_window(250);
    let engine = Stm::with_cm(PerfectClock::new(), StmConfig::default(), cm);
    let cfg = TablesConfig {
        accounts: ACCOUNTS,
        ..TablesConfig::default()
    };
    let tables = Tables::build(&engine, &cfg);
    // Every audit reply is checked by the workers, the total after the run.
    let out = run_for(threads, window, |i| {
        TablesWorker::new(&engine, &tables, Kind::Bank, i)
    });
    tables.assert_quiescent(&engine);
    (out.tx_per_sec(), out.stats.abort_ratio())
}

fn main() {
    let threads = 4usize;
    let mut t = Table::new(
        format!("EXP-CM: high-conflict bank ({ACCOUNTS} accounts, 20% audits, {threads} threads)"),
        &["policy", "tx/s", "aborts/commit"],
    );
    let rows: Vec<(&str, (f64, f64))> = vec![
        ("polite (default)", run_policy(Polite::default(), threads)),
        ("aggressive", run_policy(Aggressive, threads)),
        ("suicide", run_policy(Suicide, threads)),
        ("karma", run_policy(Karma, threads)),
        ("timestamp", run_policy(TimestampCm::default(), threads)),
    ];
    for (name, (tps, ratio)) in rows {
        t.row(vec![name.to_string(), format!("{tps:.0}"), f3(ratio)]);
    }
    t.print();
    println!(
        "note: timestamp requires a global birth counter (needs_birth) — the shared \
         state the default policy deliberately avoids (see lsa_stm::cm docs)."
    );
}
