//! **Figure 2** — "Overhead of time bases for update transactions of
//! different size": throughput (10⁶ tx/s) vs thread count for the shared
//! integer counter vs the MMTimer, panels at 10/50/100 accesses.
//!
//! This is the **modeled Altix**: the discrete-event model of the paper's
//! 16-CPU ccNUMA testbed (see DESIGN.md §3 — the documented substitution
//! for hardware this host does not have), which reproduces the full curves.
//! The real LSA-RT implementation on this host's threads, with the
//! [`lsa_time::numa::NumaCounter`] latency model vs the simulated MMTimer,
//! is a `matrix` sweep — a sanity check limited by the host's core count:
//!
//! ```sh
//! cargo run --release -p lsa-harness --bin matrix -- disjoint --size 10,50,100 --threads 1..4 --timebase numa-altix,mmtimer
//! ```
//!
//! Output: one table per panel with the same series the paper plots.

use lsa_harness::altix_sim::{simulate, AltixParams};
use lsa_harness::{f3, Table};

const THREADS: [usize; 7] = [1, 2, 4, 6, 8, 12, 16];
const PANELS: [usize; 3] = [10, 50, 100];

fn main() {
    println!("FIG2 (modeled Altix 3700, discrete-event; DESIGN.md S3 substitution)\n");
    let params = AltixParams::paper_calibrated();
    for &accesses in &PANELS {
        let mut t = Table::new(
            format!("Figure 2 panel: {accesses} accesses — 10^6 tx/s"),
            &["threads", "shared-counter", "mmtimer", "mmtimer/counter"],
        );
        for &cpus in &THREADS {
            let c = simulate(cpus, accesses, AltixParams::paper_counter(), params);
            let m = simulate(cpus, accesses, AltixParams::paper_mmtimer(), params);
            t.row(vec![
                cpus.to_string(),
                f3(c.mtx_per_sec),
                f3(m.mtx_per_sec),
                f3(m.mtx_per_sec / c.mtx_per_sec),
            ]);
        }
        t.print();
    }
}
