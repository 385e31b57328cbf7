//! **matrix** — the one experiment sweep: one workload over registry
//! cells (engine × time base), swept over sizes and thread counts, from a
//! single engine-generic code path.
//!
//! ```sh
//! cargo run --release -p lsa-harness --bin matrix            # bank workload
//! cargo run --release -p lsa-harness --bin matrix -- disjoint
//! cargo run --release -p lsa-harness --bin matrix -- scan
//! cargo run --release -p lsa-harness --bin matrix -- intset
//! cargo run --release -p lsa-harness --bin matrix -- hashset
//! cargo run --release -p lsa-harness --bin matrix -- snapshot
//! cargo run --release -p lsa-harness --bin matrix -- bank --threads 1..8
//! cargo run --release -p lsa-harness --bin matrix -- bank --timebase gv4,seqlock
//! # EXP-ERR (§4.3): external clocks, multi- (mv8) and single-version (mv1)
//! cargo run --release -p lsa-harness --bin matrix -- bank --dev 0,1,10,100,1000 --threads 4
//! # EXP-VAL (§1): ns per scanned object and entries validated per scan
//! cargo run --release -p lsa-harness --bin matrix -- scan --threads 1 --size 10,50,100,200,400 --timebase shared-counter,always,commit-counter,seqlock
//! # Figure 2 on real threads: the NUMA-priced counter vs the MMTimer
//! cargo run --release -p lsa-harness --bin matrix -- disjoint --size 10,50,100 --threads 1..4 --timebase numa-altix,mmtimer
//! ```
//!
//! Rows: the default registry, or — with `--dev US,...` — LSA-RT on an
//! external clock of each deviation bound in 8- and 1-version
//! configurations (`lsa_external_entry`).
//! `--timebase A,B,...` keeps only rows whose time-base name contains any of
//! the substrings (e.g. `gv` selects the GV4 and GV5 arbitration rows, `mv1`
//! the single-version external cells). `--size N,...` runs scans of N
//! objects or disjoint transactions of N accesses (over `max(4N, 64)`
//! objects per thread); `--accounts N` sizes the served mixes' bank.
//! `--threads A..B` sweeps every cell over the inclusive thread range and
//! prints one row per (cell, size, thread count) — the Figure-2-shaped
//! scaling view.
//! Honours `LSA_MEASURE_MS` (per-point window) and `LSA_CSV=1` like every
//! harness binary. `bank`, `snapshot`, `intset` and `hashset` are the
//! served request mixes (`lsa_harness::Kind`), each step one
//! `lsa_wire::Request` run with `Tables::apply`: every reply is checked (a
//! torn audit total or a typed error panics the run) and the tables are
//! audited after every cell (bank total, intset order, hash-set
//! placement), as are the disjoint and scan invariants, so this doubles as
//! a cross-engine consistency smoke test. `aborts v/nv/ct/ov` is the
//! cross-engine abort-reason taxonomy (validation / no-version /
//! contention / overload); `validations/commit` counts full read-set
//! validations (snapshot extensions on LSA), `validated/commit` the entries
//! they checked, and `ns/read` is thread-time per read. The trailing
//! `live-vers`/`arena-b`/`wm-lag` columns surface the version-store memory
//! gauges sampled after each run.

use lsa_harness::args::MatrixArgs;
use lsa_harness::{f2, f3, measure_window, Table};

fn usage_exit(context: &str) -> ! {
    eprintln!(
        "usage: matrix [bank|disjoint|scan|intset|hashset|snapshot] \
         [--threads N | --threads A..B] \
         [--timebase SUBSTR,...] [--dev US,...] \
         [--size N,...] [--accounts N]   ({context})"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = MatrixArgs::parse(&argv).unwrap_or_else(|e| usage_exit(&e));
    let window = measure_window(200);
    let rows = args.rows();
    if rows.is_empty() {
        eprintln!("no registry rows match --timebase {:?}", args.timebase);
        std::process::exit(2);
    }
    let name = args.workloads[0].name();
    let threads = match args.threads[..] {
        [one] => one.to_string(),
        [lo, .., hi] => format!("{lo}..{hi} (per-cell sweep)"),
        [] => unreachable!("a thread range is never empty"),
    };
    println!(
        "MATRIX: {name} workload, threads {threads}, {} ms/point, {} engine x time-base cells{}\n",
        window.as_millis(),
        rows.len(),
        if args.timebase.is_empty() {
            String::new()
        } else {
            format!(" (timebase filter: {:?})", args.timebase)
        }
    );

    let mut t = Table::new(
        format!("{name} workload — throughput by engine and time base"),
        &[
            "engine",
            "time base",
            "threads",
            "size",
            "tx/s",
            "aborts/commit",
            "aborts v/nv/ct/ov",
            "validations/commit",
            "validated/commit",
            "ns/read",
            "reval failures",
            "shared-ts/commit",
            "live-vers",
            "arena-b",
            "wm-lag",
        ],
    );
    for entry in &rows {
        for workload in &args.workloads {
            for &threads in &args.threads {
                let out = entry.run(workload, threads, window);
                let s = &out.stats;
                let thread_ns = out.elapsed.as_nanos() as f64 * threads as f64;
                t.row(vec![
                    entry.engine.clone(),
                    entry.time_base.clone(),
                    threads.to_string(),
                    workload.size().to_string(),
                    format!("{:.0}", out.tx_per_sec()),
                    f3(s.abort_ratio()),
                    s.abort_reasons.to_string(),
                    f3(s.validations_per_commit()),
                    f2(s.validated_entries as f64 / out.commits().max(1) as f64),
                    f2(thread_ns / s.reads.max(1) as f64),
                    s.revalidation_failures.to_string(),
                    f3(s.shared_ts_per_commit()),
                    s.memory.versions_live.to_string(),
                    s.memory.arena_bytes.to_string(),
                    s.memory.watermark_lag.to_string(),
                ]);
            }
        }
    }
    t.print();
    println!(
        "every cell ran the SAME engine-generic workload code; every served \
         reply was checked and invariants were asserted after each run (a new engine is one TxnEngine impl away). \
         size is the objects per scan, the accesses per disjoint transaction \
         or the served mixes' bank accounts. \
         validated/commit counts read-set entries re-checked per commit (per \
         scan on scan: ~n(n+1)/2 on validation(always), the §1 quadratic) and \
         ns/read is thread-time per read (per scanned object on scan). \
         shared-ts/commit > 0 marks cells whose time base hands out \
         shared-class commit timestamps (GV4/GV5 sharing; block never \
         shares — lost confirmations re-arbitrate). the abort column is the cross-engine taxonomy \
         (validation/no-version/contention/overload). live-vers/arena-b are \
         the post-run version-store gauges (live version nodes and arena \
         bytes backing them; 0 on single-version engines) and wm-lag is the \
         reclamation watermark's distance behind the clock — bounded gauges \
         here are the memory-ceiling witness."
    );
}
