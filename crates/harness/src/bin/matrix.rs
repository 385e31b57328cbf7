//! **matrix** — the cross-engine sweep: one workload over every engine ×
//! time-base combination in the registry, from a single engine-generic code
//! path.
//!
//! ```sh
//! cargo run --release -p lsa-harness --bin matrix            # bank workload
//! cargo run --release -p lsa-harness --bin matrix -- disjoint
//! cargo run --release -p lsa-harness --bin matrix -- scan
//! cargo run --release -p lsa-harness --bin matrix -- intset
//! cargo run --release -p lsa-harness --bin matrix -- hashset
//! cargo run --release -p lsa-harness --bin matrix -- snapshot
//! cargo run --release -p lsa-harness --bin matrix -- bank --placement partitioned
//! cargo run --release -p lsa-harness --bin matrix -- bank --threads 8
//! cargo run --release -p lsa-harness --bin matrix -- bank --threads 1..8
//! cargo run --release -p lsa-harness --bin matrix -- bank --timebase gv4
//! ```
//!
//! `--timebase <substr>` keeps only rows whose time-base name contains the
//! given substring (e.g. `gv` selects the GV4 and GV5 arbitration rows).
//! `--threads A..B` sweeps every cell over the inclusive thread range and
//! prints one row per (cell, thread count) — the Figure-2-shaped scaling
//! view, with per-cell thread columns instead of per-base curves.
//! `--placement partitioned` pins bank account groups (the `bank` and
//! `snapshot` rows) / disjoint thread partitions shard-locally
//! (`TxnEngine::new_var_on`) instead of the default round-robin spreading
//! — contrast the `xshard/commit` column across the two placements on the
//! `lsa-sharded` rows.
//! Honours `LSA_MEASURE_MS` (per-point window) and `LSA_CSV=1` like every
//! harness binary. `bank`, `snapshot`, `intset` and `hashset` are the
//! served request mixes (`lsa_harness::Kind`), each step one
//! `lsa_wire::Request` run with `Tables::apply`: every reply is checked (a
//! torn audit total or a typed error panics the run) and the tables are
//! audited after every cell (bank total, intset order, hash-set
//! placement), as are the disjoint and scan invariants, so this doubles as
//! a cross-engine consistency smoke test. The `xshard/commit` column reports
//! how often transactions spanned object shards and escalated to the
//! sharded engine's cross-shard commit protocol (0 everywhere on unsharded
//! engines); `aborts v/nv/ct/ov` is the cross-engine abort-reason taxonomy
//! (validation / no-version / contention / overload). The trailing
//! `live-vers`/`arena-b`/`wm-lag` columns surface the version-store memory
//! gauges sampled after each run.

use lsa_harness::registry::{default_registry, Workload};
use lsa_harness::{f3, measure_window, Kind, RangeSpec, Table};
use lsa_workloads::{DisjointConfig, PlacementHint, ScanConfig};

struct Args {
    workload: Workload,
    threads: Vec<usize>,
    placement: PlacementHint,
    timebase_filter: Option<String>,
}

fn usage_exit(context: &str) -> ! {
    eprintln!(
        "usage: matrix [bank|disjoint|scan|intset|hashset|snapshot] \
         [--threads N | --threads A..B] \
         [--placement spread|partitioned] [--timebase SUBSTR]   ({context})"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let default_threads = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2)
        .max(1);
    let mut args = Args {
        workload: Workload::Tables(Kind::Bank),
        threads: vec![default_threads],
        placement: PlacementHint::Spread,
        timebase_filter: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "disjoint" => args.workload = Workload::Disjoint(DisjointConfig::default()),
            "scan" => args.workload = Workload::Scan(ScanConfig::default()),
            "--placement" => {
                i += 1;
                args.placement = match argv.get(i).and_then(|v| PlacementHint::parse(v)) {
                    Some(p) => p,
                    None => usage_exit("--placement needs spread or partitioned"),
                };
            }
            "--threads" => {
                i += 1;
                args.threads = match argv.get(i).and_then(|v| RangeSpec::parse(v)) {
                    Some(r) => r.usize_values(),
                    None => usage_exit("--threads needs N or A..B (A >= 1, B >= A)"),
                };
            }
            "--timebase" => {
                i += 1;
                args.timebase_filter = match argv.get(i) {
                    Some(s) => Some(s.clone()),
                    None => usage_exit("--timebase needs a substring"),
                };
            }
            other => match Kind::parse(other) {
                Some(kind) => args.workload = Workload::Tables(kind),
                None => usage_exit(&format!("got {other:?}")),
            },
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let window = measure_window(200);
    let registry: Vec<_> = default_registry()
        .into_iter()
        .filter(|e| match &args.timebase_filter {
            Some(f) => e.time_base.contains(f.as_str()),
            None => true,
        })
        .collect();
    if registry.is_empty() {
        eprintln!(
            "no registry rows match --timebase {:?}",
            args.timebase_filter.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }

    let sweep = args.threads.len() > 1;
    println!(
        "MATRIX: {} workload, threads {}, {} ms/point, {} engine x time-base cells{}\n",
        args.workload.name(),
        if sweep {
            format!(
                "{}..{} (per-cell sweep)",
                args.threads[0],
                args.threads[args.threads.len() - 1]
            )
        } else {
            args.threads[0].to_string()
        },
        window.as_millis(),
        registry.len(),
        match &args.timebase_filter {
            Some(f) => format!(" (timebase filter: {f:?})"),
            None => String::new(),
        }
    );

    let mut t = Table::new(
        format!(
            "{} workload — throughput by engine and time base",
            args.workload.name()
        ),
        &[
            "engine",
            "time base",
            "shards",
            "threads",
            "placement",
            "tx/s",
            "aborts/commit",
            "aborts v/nv/ct/ov",
            "validations/commit",
            "reval failures",
            "shared-ts/commit",
            "xshard/commit",
            "live-vers",
            "arena-b",
            "wm-lag",
        ],
    );
    for entry in &registry {
        for &threads in &args.threads {
            let out = entry.run_placed(&args.workload, args.placement, threads, window);
            t.row(vec![
                entry.engine.clone(),
                entry.time_base.clone(),
                entry.shards.to_string(),
                threads.to_string(),
                args.placement.to_string(),
                format!("{:.0}", out.tx_per_sec()),
                f3(out.stats.abort_ratio()),
                out.stats.abort_reasons.to_string(),
                f3(out.stats.validations_per_commit()),
                out.stats.revalidation_failures.to_string(),
                f3(out.stats.shared_ts_per_commit()),
                f3(out.stats.cross_shard_per_commit()),
                out.stats.memory.versions_live.to_string(),
                out.stats.memory.arena_bytes.to_string(),
                out.stats.memory.watermark_lag.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "every cell ran the SAME engine-generic workload code; every served \
         reply was checked and invariants were asserted after each run (a new engine is one TxnEngine impl away). \
         shared-ts/commit > 0 marks cells whose time base hands out \
         shared-class commit timestamps (GV4/GV5 sharing; block never \
         shares — lost confirmations re-arbitrate). xshard/commit > 0 marks \
         cells whose transactions spanned object shards and escalated to the \
         sharded engine's cross-shard commit protocol; --placement \
         partitioned pins the bank accounts (bank, snapshot) and disjoint \
         partitions shard-locally and drives it to 0. the abort column is the cross-engine taxonomy \
         (validation/no-version/contention/overload). live-vers/arena-b are \
         the post-run version-store gauges (live version nodes and arena \
         bytes backing them; 0 on single-version engines) and wm-lag is the \
         reclamation watermark's distance behind the clock — bounded gauges \
         here are the memory-ceiling witness."
    );
}
