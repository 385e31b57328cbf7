//! End-to-end verification of every qualitative claim this reproduction
//! makes about the paper — one PASS/FAIL line each. Exit code is non-zero if
//! any claim fails, so this doubles as a CI smoke test for the whole
//! reproduction:
//!
//! ```sh
//! cargo run --release -p lsa-harness --bin paper_check
//! ```

use lsa_harness::altix_sim::{simulate, AltixParams};
use lsa_harness::{measure_window, run_for, run_workload, Kind, Workload};
use lsa_stm::{Stm, StmConfig};
use lsa_time::counter::SharedCounter;
use lsa_time::external::ExternalClock;
use lsa_time::hardware::HardwareClock;
use lsa_time::sync_measure::{measure, summarize, SyncMeasureConfig};
use lsa_wire::TablesConfig;
use lsa_workloads::{DisjointConfig, DisjointWorkload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

struct Checker {
    failures: u32,
}

impl Checker {
    fn check(&mut self, claim: &str, ok: bool, detail: String) {
        let verdict = if ok { "PASS" } else { "FAIL" };
        println!("[{verdict}] {claim} — {detail}");
        if !ok {
            self.failures += 1;
        }
    }
}

fn main() {
    let mut c = Checker { failures: 0 };
    let p = AltixParams::paper_calibrated();

    // --- Figure 2 claims (modeled Altix). ---
    let c1 = simulate(1, 10, AltixParams::paper_counter(), p).mtx_per_sec;
    let m1 = simulate(1, 10, AltixParams::paper_mmtimer(), p).mtx_per_sec;
    c.check(
        "Fig2: single-threaded, MMTimer read cost hurts short transactions",
        c1 > m1,
        format!("counter {c1:.3} vs mmtimer {m1:.3} Mtx/s"),
    );
    let c8 = simulate(8, 10, AltixParams::paper_counter(), p).mtx_per_sec;
    let c16 = simulate(16, 10, AltixParams::paper_counter(), p).mtx_per_sec;
    let m16 = simulate(16, 10, AltixParams::paper_mmtimer(), p).mtx_per_sec;
    c.check(
        "Fig2: counter prevents scaling for short transactions",
        c16 < c8 * 1.25,
        format!("8cpu {c8:.3} -> 16cpu {c16:.3} Mtx/s"),
    );
    c.check(
        "Fig2: MMTimer scales ~linearly to 16 CPUs",
        m16 / m1 > 14.0,
        format!("speedup {:.1}x", m16 / m1),
    );
    let r10 = m16 / c16;
    let r100 = simulate(16, 100, AltixParams::paper_mmtimer(), p).mtx_per_sec
        / simulate(16, 100, AltixParams::paper_counter(), p).mtx_per_sec;
    c.check(
        "Fig2: counter influence decreases for larger transactions",
        r100 < r10,
        format!("mmtimer/counter at 16cpu: {r10:.2}x (10acc) -> {r100:.2}x (100acc)"),
    );

    // --- Figure 1 claim: MMTimer offsets masked by measurement error. ---
    let rounds = measure(
        &HardwareClock::mmtimer_free(),
        &SyncMeasureConfig {
            probes: 2,
            rounds: 10,
            round_interval: Duration::from_millis(2),
        },
    );
    let s = summarize(&rounds);
    c.check(
        "Fig1: synchronized clock's offsets stay below measurement error",
        s.worst_abs_offset <= s.worst_error,
        format!(
            "offset {} <= error {} (ticks)",
            s.worst_abs_offset, s.worst_error
        ),
    );

    // --- Real-threads claim: counter contention is real on this host too. ---
    let window = measure_window(150);
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if host >= 2 {
        let cfg = DisjointConfig {
            objects_per_thread: 64,
            accesses_per_tx: 10,
        };
        let wl = DisjointWorkload::new(Stm::new(SharedCounter::new()), 2, cfg);
        let counter2 = run_for(2, window, |i| wl.worker(i));
        c.check(
            "Real threads: disjoint workload commits without conflicts",
            counter2.stats.aborts == 0 && counter2.commits() > 0,
            format!(
                "{} commits, {} aborts",
                counter2.commits(),
                counter2.stats.aborts
            ),
        );
    }

    // --- §4.3 claim: deviation shrinks snapshots, raises aborts; invariants hold. ---
    // The runner panics on a torn audit or a broken quiescent total; the
    // panic is caught so the claim prints FAIL instead of aborting.
    let run_dev = |dev: u64| {
        let tb = ExternalClock::new(dev);
        let engine = Stm::with_config(tb, StmConfig::multi_version(8));
        let bank = Workload::Tables(Kind::Bank, TablesConfig::default());
        let run = || run_workload(engine, &bank, 2, window, false);
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(out) => (out.stats.abort_ratio(), true),
            Err(_) => (f64::NAN, false),
        }
    };
    let (a0, ok0) = run_dev(0);
    let (a10, ok10) = run_dev(10_000);
    c.check(
        "S4.3: sync errors increase the abort ratio (dev 0 -> 10us)",
        a10 > a0,
        format!("{a0:.3} -> {a10:.3} aborts/commit"),
    );
    c.check(
        "S4.3: consistency never breaks under clock uncertainty",
        ok0 && ok10,
        "every audit and the quiescent bank total held at every dev".into(),
    );

    println!();
    if c.failures == 0 {
        println!("all paper claims reproduced ✔");
    } else {
        println!("{} claim(s) FAILED", c.failures);
        std::process::exit(1);
    }
}
