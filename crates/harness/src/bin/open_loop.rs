//! **open_loop** — open-loop request-rate benchmark of the serving path:
//! the serving view of the engine × time-base matrix (throughput, latency
//! percentiles, shed rate and audit checks per cell, instead of the
//! closed-loop capacity numbers `matrix` reports), in process
//! (`--transport service`) and over loopback TCP (`--transport wire`).
//!
//! ```sh
//! cargo run --release -p lsa-harness --bin open_loop
//! cargo run --release -p lsa-harness --bin open_loop -- bank --rate 20000
//! cargo run --release -p lsa-harness --bin open_loop -- bank --transport wire --rate 2000..200000 --points 6
//! cargo run --release -p lsa-harness --bin open_loop -- all --workers 4 --depth 512 --conns 4 --window 64
//! cargo run --release -p lsa-harness --bin open_loop -- snapshot --all-cells --transport service
//! cargo run --release -p lsa-harness --bin open_loop -- bank --engine lsa --json BENCH_open_loop.json
//! cargo run --release -p lsa-harness --bin open_loop -- --mem-ceiling --rounds 8 --json BENCH_mem.json
//! ```
//!
//! Requests arrive on a fixed schedule (`--rate` per second) regardless of
//! completions, so queueing delay lands in the latency columns and overload
//! in the shed column rather than silently slowing the generator. Both
//! transports run the same seeded request sequence; without `--transport`
//! every cell runs on both. `--rate A..B` sweeps `--points` geometrically
//! spaced rates per cell and marks the first saturated point `<-- knee`.
//!
//! By default one representative cell per engine family runs (`lsa-rt`,
//! `lsa-sharded`, `tl2`, `norec`, `validation`); `--all-cells` sweeps the
//! whole registry, `--engine`/`--timebase` filter by substring. Honours
//! `LSA_MEASURE_MS` (per-point submission window) and `LSA_CSV=1`.
//!
//! `--mem-ceiling` is the sustained bounded-memory check: `--rounds`
//! (default 6) windows on the multi-version LSA cell under watermark
//! retention. Every run of two or more rounds samples the version-store
//! gauges after each round and fails the exit code unless they plateau
//! (`plateau OK`). `--json PATH` writes every run as one JSON document.

use lsa_engine::MemoryStats;
use lsa_harness::{
    default_registry, f2, f3, knee_index, measure_window, EngineEntry, Json, Kind, KneePoint,
    Outcome, RangeSpec, Spec, Table, Transport,
};
use lsa_stm::{Stm, StmConfig};
use lsa_time::counter::SharedCounter;
use std::str::FromStr;

struct Args {
    kinds: Vec<Kind>,
    transports: Vec<Transport>,
    spec: Spec,
    rates: RangeSpec,
    points: usize,
    engine_filter: Option<String>,
    timebase_filter: Option<String>,
    all_cells: bool,
    mem_ceiling: bool,
    rounds: Option<u32>,
    json: Option<String>,
}

fn usage_exit(context: &str) -> ! {
    eprintln!(
        "usage: open_loop [bank|snapshot|intset|hashset|all] [--transport service|wire] \
         [--rate R | --rate A..B] [--points N] [--workers N] [--depth D] [--window W] \
         [--conns N] [--engine SUBSTR] [--timebase SUBSTR] [--all-cells] \
         [--mem-ceiling] [--rounds N] [--json PATH]   ({context})"
    );
    std::process::exit(2);
}

/// Parse a flag's value, or exit with usage if it is missing, malformed or
/// below `min`.
fn value<T: FromStr + PartialOrd>(flag: &str, v: Option<String>, min: T) -> T {
    match v.as_deref().map(str::parse::<T>) {
        Some(Ok(n)) if n >= min => n,
        _ => usage_exit(&format!("{flag} needs a number >= its minimum")),
    }
}

fn parse_args() -> Args {
    let default_rate = Spec::default().rate;
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        transports: Transport::ALL.to_vec(),
        spec: Spec::default(),
        rates: RangeSpec {
            lo: default_rate,
            hi: default_rate,
        },
        points: 5,
        engine_filter: None,
        timebase_filter: None,
        all_cells: false,
        mem_ceiling: false,
        rounds: None,
        json: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut text = || {
            argv.next()
                .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "all" => args.kinds = Kind::ALL.to_vec(),
            "--transport" => {
                args.transports = match Transport::parse(&text()) {
                    Some(t) => vec![t],
                    None => usage_exit("--transport needs service or wire"),
                }
            }
            "--rate" => {
                args.rates = RangeSpec::parse(&text())
                    .unwrap_or_else(|| usage_exit("--rate needs a positive R or a sweep A..B"))
            }
            "--points" => args.points = value(&flag, argv.next(), 1),
            "--workers" => args.spec.workers = value(&flag, argv.next(), 1),
            "--depth" => args.spec.queue_depth = value(&flag, argv.next(), 1),
            "--window" => args.spec.window = value(&flag, argv.next(), 1),
            "--conns" => args.spec.conns = value(&flag, argv.next(), 1),
            "--engine" => args.engine_filter = Some(text()),
            "--timebase" => args.timebase_filter = Some(text()),
            "--all-cells" => args.all_cells = true,
            "--mem-ceiling" => args.mem_ceiling = true,
            "--rounds" => args.rounds = Some(value(&flag, argv.next(), 2)),
            "--json" => args.json = Some(text()),
            other => match Kind::parse(other) {
                Some(k) => args.kinds = vec![k],
                None => usage_exit(&format!("got {other:?}")),
            },
        }
    }
    args
}

/// One representative cell per engine family — the default sweep stays
/// seconds-not-minutes while still contrasting every engine class.
const DEFAULT_CELLS: [(&str, &str); 5] = [
    ("lsa-rt", "shared-counter"),
    ("lsa-sharded", "shared-counter"),
    ("tl2", "shared-counter"),
    ("norec", "seqlock"),
    ("validation", "commit-counter"),
];

/// One memory sample as a JSON object.
fn mem_json(m: &MemoryStats) -> Json {
    Json::obj([
        ("versions_live", Json::U64(m.versions_live)),
        ("versions_retired", Json::U64(m.versions_retired)),
        ("versions_reclaimed", Json::U64(m.versions_reclaimed)),
        ("arena_bytes", Json::U64(m.arena_bytes)),
        ("watermark_lag", Json::U64(m.watermark_lag)),
    ])
}

/// One run as a JSON object: the wire's frame counters on `wire`, the
/// per-round samples and the plateau verdict on multi-round runs.
fn point_json(spec: &Spec, engine: &str, tb: &str, out: &Outcome) -> Json {
    let mut fields = vec![
        ("kind", Json::str(spec.kind.name())),
        ("transport", Json::str(spec.transport.name())),
        ("engine", Json::str(engine)),
        ("time_base", Json::str(tb)),
        ("rate", Json::Fixed(spec.rate, 0)),
        ("offered", Json::U64(out.offered)),
        ("completed", Json::U64(out.completed)),
        ("shed", Json::U64(out.shed)),
        ("errors", Json::U64(out.errors)),
        ("audits", Json::U64(out.audits)),
        ("throughput", Json::Fixed(out.throughput(), 0)),
        ("shed_rate", Json::Fixed(out.shed_rate(), 4)),
        ("p50_ns", Json::U64(out.latency.p50())),
        ("p90_ns", Json::U64(out.latency.p90())),
        ("p99_ns", Json::U64(out.latency.p99())),
        ("p999_ns", Json::U64(out.latency.p999())),
        ("max_ns", Json::U64(out.latency.max_ns())),
        ("job_pool_hit", Json::Fixed(out.pool.hit_rate(), 4)),
        (
            "aborts_per_commit",
            Json::Fixed(out.engine.abort_ratio(), 4),
        ),
        ("memory", mem_json(&out.engine.memory)),
    ];
    if let Some(f) = &out.wire {
        fields.extend([
            ("frames_in", Json::U64(f.frames_in)),
            ("frames_out", Json::U64(f.frames_out)),
            ("protocol_errors", Json::U64(f.protocol_errors)),
            ("buf_pool_hit", Json::Fixed(f.buf_pool.hit_rate(), 4)),
        ]);
    }
    if out.samples.len() > 1 {
        fields.extend([
            ("plateaued", Json::Bool(out.plateaued())),
            ("samples", Json::arr(out.samples.iter().map(mem_json))),
        ]);
    }
    Json::obj(fields)
}

/// The cells to run: under `--mem-ceiling` the multi-version LSA cell with
/// watermark retention (no fixed version-depth cap), otherwise the registry
/// rows the flags select.
fn cells(args: &Args) -> Vec<EngineEntry> {
    if args.mem_ceiling {
        return vec![EngineEntry::new("lsa-rt", "shared-counter", || {
            Stm::with_config(SharedCounter::new(), StmConfig::watermark_retention())
        })];
    }
    let matches = |f: &Option<String>, s: &str| f.as_ref().is_none_or(|f| s.contains(f.as_str()));
    let filtered = args.engine_filter.is_some() || args.timebase_filter.is_some();
    default_registry()
        .into_iter()
        .filter(|e| {
            (args.all_cells
                || filtered
                || DEFAULT_CELLS
                    .iter()
                    .any(|(en, tb)| e.engine == *en && e.time_base == *tb))
                && matches(&args.engine_filter, &e.engine)
                && matches(&args.timebase_filter, &e.time_base)
        })
        .collect()
}

fn main() {
    let mut args = parse_args();
    args.spec.duration = measure_window(300);
    args.spec.rounds = args.rounds.unwrap_or(if args.mem_ceiling { 6 } else { 1 });
    if args.mem_ceiling && args.kinds.len() > 1 {
        // Snapshot requests are the version-store stress: whole-table audits
        // hold snapshots open while transfers stack versions.
        args.kinds = vec![Kind::Snapshot];
    }
    let cells = cells(&args);
    if cells.is_empty() {
        eprintln!("no registry rows match the filters");
        std::process::exit(2);
    }
    let rates = args.rates.geometric(args.points);
    println!(
        "OPEN LOOP: {:.0?} req/s over {:?}, {} round(s) x {} ms per point, \
         {} workers x depth {}, wire window {} x {} conns, {} cells\n",
        rates,
        args.transports,
        args.spec.rounds,
        args.spec.duration.as_millis(),
        args.spec.workers,
        args.spec.queue_depth,
        args.spec.window,
        args.spec.conns,
        cells.len(),
    );

    let mut t = Table::new(
        "open-loop serving benchmark — throughput, latency percentiles, shed rate, knee",
        &[
            "request",
            "transport",
            "engine",
            "time base",
            "shards",
            "offered/s",
            "done/s",
            "p50 us",
            "p90 us",
            "p99 us",
            "p99.9 us",
            "max us",
            "shed %",
            "errs",
            "audits",
            "pool hit %",
            "aborts/commit",
            "aborts v/nv/ct/ov",
            "live-vers",
            "arena-b",
            "wm-lag",
            "knee",
        ],
    );
    let (mut pool_hits, mut pool_gets) = (0u64, 0u64);
    let mut json_points = Vec::new();
    let mut plateaus = Vec::new();
    let mut plateaued = true;
    for &kind in &args.kinds {
        for &transport in &args.transports {
            for entry in &cells {
                let sweep: Vec<(Spec, Outcome)> = rates
                    .iter()
                    .map(|&rate| {
                        let spec = Spec {
                            kind,
                            transport,
                            rate,
                            ..args.spec
                        };
                        let out = entry.serve(&spec);
                        json_points.push(point_json(&spec, &entry.engine, &entry.time_base, &out));
                        (spec, out)
                    })
                    .collect();
                let points: Vec<KneePoint> =
                    sweep.iter().map(|(_, out)| out.knee_point()).collect();
                let knee = knee_index(&points);
                for (i, (spec, out)) in sweep.iter().enumerate() {
                    pool_hits += out.pool.hits;
                    pool_gets += out.pool.hits + out.pool.misses;
                    if out.samples.len() > 1 {
                        plateaued &= out.plateaued();
                        plateaus.push(format!(
                            "{} over {} on {} at {:.0} req/s: live-vers per round {:?} | \
                             final {} | plateau {}",
                            kind.name(),
                            transport.name(),
                            entry.label(),
                            spec.rate,
                            out.samples
                                .iter()
                                .map(|m| m.versions_live)
                                .collect::<Vec<_>>(),
                            out.engine.memory,
                            if out.plateaued() { "OK" } else { "FAILED" },
                        ));
                    }
                    let us = |ns: u64| format!("{:.0}", ns as f64 / 1_000.0);
                    let mem = &out.engine.memory;
                    t.row(vec![
                        kind.name().into(),
                        transport.name().into(),
                        entry.engine.clone(),
                        entry.time_base.clone(),
                        entry.shards.to_string(),
                        format!("{:.0}", spec.rate),
                        format!("{:.0}", out.throughput()),
                        us(out.latency.p50()),
                        us(out.latency.p90()),
                        us(out.latency.p99()),
                        us(out.latency.p999()),
                        us(out.latency.max_ns()),
                        f2(out.shed_rate() * 100.0),
                        out.errors.to_string(),
                        out.audits.to_string(),
                        f2(out.pool.hit_rate() * 100.0),
                        f3(out.engine.abort_ratio()),
                        out.engine.abort_reasons.to_string(),
                        mem.versions_live.to_string(),
                        mem.arena_bytes.to_string(),
                        mem.watermark_lag.to_string(),
                        if knee == Some(i) {
                            "<-- knee".into()
                        } else {
                            String::new()
                        },
                    ]);
                }
            }
        }
    }
    t.print();
    for line in &plateaus {
        println!("{line}");
    }
    if let Some(path) = &args.json {
        let doc = Json::obj([("points", Json::Arr(json_points))]);
        doc.write_file(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }
    println!(
        "record pool hit rate: {:.2}% ({pool_hits} hits / {pool_gets} gets); a hit \
         means the arrival reused a recycled request record.",
        pool_hits as f64 / pool_gets.max(1) as f64 * 100.0,
    );
    println!(
        "both transports replay one seeded request stream. latency is the \
         service's submit-to-complete on `service` and client-observed \
         submit-to-reply on `wire`. errs counts transport losses, typed errors \
         and torn audit totals, and must be 0. the knee marks the first point \
         per sweep that sheds > 1% or whose p99 exceeds 4x the first point's. \
         the tables' invariants (bank total, intset order, hash placement) \
         were audited after every drain."
    );
    std::process::exit(if plateaued { 0 } else { 1 });
}
