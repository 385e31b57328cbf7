//! **net_bench** — open-loop saturation benchmark over the `lsa-wire` TCP
//! serving path: a loopback `WireServer` per cell, a pipelined `WireClient`
//! offering requests on a fixed arrival schedule, and (with `--rate A..B`)
//! a geometric rate sweep that locates the saturation knee — the first
//! offered rate where the server starts shedding or p99 latency blows past
//! the uncontended baseline.
//!
//! ```sh
//! cargo run --release -p lsa-harness --bin net_bench
//! cargo run --release -p lsa-harness --bin net_bench -- bank --rate 20000
//! cargo run --release -p lsa-harness --bin net_bench -- intset --rate 2000..64000 --points 6
//! cargo run --release -p lsa-harness --bin net_bench -- all --conns 4 --window 64
//! cargo run --release -p lsa-harness --bin net_bench -- bank --engine lsa --json BENCH_net.json
//! ```
//!
//! Unlike `service_bench` (the in-process serving view), every request here
//! crosses a real socket: framing, the server's per-connection bounded
//! in-flight windows and the client's reply correlation are all on the
//! measured path. Latency is client-observed submit-to-reply. A `knee`
//! marker tags the first saturated row of each (request, cell) sweep.
//! Honours `LSA_MEASURE_MS` (per-point submission window) and `LSA_CSV=1`.

use lsa_harness::net_bench::{knee_index, KneePoint, NetKind, NetOutcome, NetSpec};
use lsa_harness::{f2, measure_window, Json, RangeSpec, Table};

struct Args {
    kinds: Vec<NetKind>,
    spec: NetSpec,
    rates: RangeSpec,
    points: usize,
    engine_filter: Option<String>,
    timebase_filter: Option<String>,
    json: Option<String>,
}

fn usage_exit(context: &str) -> ! {
    eprintln!(
        "usage: net_bench [bank|intset|hashset|all] [--rate R | --rate A..B] \
         [--points N] [--conns N] [--workers N] [--depth D] [--window W] \
         [--engine SUBSTR] [--timebase SUBSTR] [--json PATH]   ({context})"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let default_rate = NetSpec::default().rate;
    let mut args = Args {
        kinds: NetKind::ALL.to_vec(),
        spec: NetSpec::default(),
        rates: RangeSpec {
            lo: default_rate,
            hi: default_rate,
        },
        points: 5,
        engine_filter: None,
        timebase_filter: None,
        json: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "all" => args.kinds = NetKind::ALL.to_vec(),
            "--rate" => {
                i += 1;
                args.rates = match argv.get(i).and_then(|v| RangeSpec::parse(v)) {
                    Some(r) => r,
                    None => usage_exit("--rate needs a positive R or a sweep A..B"),
                };
            }
            "--points" => {
                i += 1;
                args.points = match argv.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage_exit("--points needs N >= 1"),
                };
            }
            "--conns" => {
                i += 1;
                args.spec.conns = match argv.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage_exit("--conns needs N >= 1"),
                };
            }
            "--workers" => {
                i += 1;
                args.spec.workers = match argv.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage_exit("--workers needs N >= 1"),
                };
            }
            "--depth" => {
                i += 1;
                args.spec.queue_depth = match argv.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage_exit("--depth needs N >= 1"),
                };
            }
            "--window" => {
                i += 1;
                args.spec.window = match argv.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage_exit("--window needs N >= 1"),
                };
            }
            "--engine" => {
                i += 1;
                args.engine_filter = match argv.get(i) {
                    Some(s) => Some(s.clone()),
                    None => usage_exit("--engine needs a substring"),
                };
            }
            "--timebase" => {
                i += 1;
                args.timebase_filter = match argv.get(i) {
                    Some(s) => Some(s.clone()),
                    None => usage_exit("--timebase needs a substring"),
                };
            }
            "--json" => {
                i += 1;
                args.json = match argv.get(i) {
                    Some(s) => Some(s.clone()),
                    None => usage_exit("--json needs a path"),
                };
            }
            other => match NetKind::parse(other) {
                Some(k) => args.kinds = vec![k],
                None => usage_exit(&format!("got {other:?}")),
            },
        }
        i += 1;
    }
    args
}

/// One representative cell per engine family that can sit behind the wire —
/// the default run stays seconds-not-minutes while contrasting the LSA
/// runtimes against a baseline.
const DEFAULT_CELLS: [(&str, &str); 3] = [
    ("lsa-rt", "shared-counter"),
    ("lsa-sharded", "shared-counter"),
    ("tl2", "shared-counter"),
];

/// One sweep point as a JSON object (shared `lsa_harness::Json` emitter).
fn point_json(kind: NetKind, engine: &str, tb: &str, rate: f64, out: &NetOutcome) -> Json {
    Json::obj([
        ("kind", Json::str(kind.name())),
        ("engine", Json::str(engine)),
        ("time_base", Json::str(tb)),
        ("rate", Json::Fixed(rate, 0)),
        ("offered", Json::U64(out.offered)),
        ("completed", Json::U64(out.completed)),
        ("shed", Json::U64(out.shed)),
        ("errors", Json::U64(out.errors)),
        ("throughput", Json::Fixed(out.throughput(), 0)),
        ("shed_rate", Json::Fixed(out.shed_rate(), 4)),
        ("p50_ns", Json::U64(out.latency.p50())),
        ("p90_ns", Json::U64(out.latency.p90())),
        ("p99_ns", Json::U64(out.latency.p99())),
        ("p999_ns", Json::U64(out.latency.p999())),
        ("max_ns", Json::U64(out.latency.max_ns())),
        ("frames_in", Json::U64(out.report.frames_in)),
        ("frames_out", Json::U64(out.report.frames_out)),
        ("protocol_errors", Json::U64(out.report.protocol_errors)),
        (
            "job_pool_hit",
            Json::Fixed(out.report.job_pool.hit_rate(), 4),
        ),
        (
            "buf_pool_hit",
            Json::Fixed(out.report.buf_pool.hit_rate(), 4),
        ),
    ])
}

fn main() {
    let mut args = parse_args();
    args.spec.duration = measure_window(300);
    let registry: Vec<_> = lsa_harness::default_registry()
        .into_iter()
        .filter(|e| {
            args.engine_filter.is_some()
                || args.timebase_filter.is_some()
                || DEFAULT_CELLS
                    .iter()
                    .any(|(en, tb)| e.engine == *en && e.time_base == *tb)
        })
        .filter(|e| match &args.engine_filter {
            Some(f) => e.engine.contains(f.as_str()),
            None => true,
        })
        .filter(|e| match &args.timebase_filter {
            Some(f) => e.time_base.contains(f.as_str()),
            None => true,
        })
        .collect();
    if registry.is_empty() {
        eprintln!("no registry rows match the filters");
        std::process::exit(2);
    }

    let rates = args.rates.geometric(args.points);
    println!(
        "NET: open-loop {} over loopback TCP for {} ms/point, {} workers x depth {}, \
         window {}, {} conns, {} cells\n",
        if rates.len() > 1 {
            format!(
                "{:.0}..{:.0} req/s ({} points, geometric)",
                args.rates.lo,
                args.rates.hi,
                rates.len()
            )
        } else {
            format!("{:.0} req/s", rates[0])
        },
        args.spec.duration.as_millis(),
        args.spec.workers,
        args.spec.queue_depth,
        args.spec.window,
        args.spec.conns,
        registry.len(),
    );

    let mut t = Table::new(
        "open-loop wire benchmark — client-observed latency, shed rate, knee",
        &[
            "request",
            "engine",
            "time base",
            "offered/s",
            "done/s",
            "p50 us",
            "p90 us",
            "p99 us",
            "p99.9 us",
            "max us",
            "shed %",
            "errs",
            "pool %",
            "knee",
        ],
    );
    let mut json_points = Vec::new();
    for kind in &args.kinds {
        for entry in &registry {
            let mut sweep: Vec<(f64, NetOutcome)> = Vec::with_capacity(rates.len());
            for &rate in &rates {
                let spec = NetSpec {
                    kind: *kind,
                    rate,
                    ..args.spec
                };
                let out = entry.serve_wire(&spec);
                json_points.push(point_json(
                    *kind,
                    &entry.engine,
                    &entry.time_base,
                    rate,
                    &out,
                ));
                sweep.push((rate, out));
            }
            let points: Vec<KneePoint> = sweep
                .iter()
                .map(|(rate, out)| out.knee_point(*rate))
                .collect();
            let knee = knee_index(&points);
            for (i, (rate, out)) in sweep.iter().enumerate() {
                let us = |ns: u64| format!("{:.0}", ns as f64 / 1_000.0);
                t.row(vec![
                    kind.name().into(),
                    entry.engine.clone(),
                    entry.time_base.clone(),
                    format!("{rate:.0}"),
                    format!("{:.0}", out.throughput()),
                    us(out.latency.p50()),
                    us(out.latency.p90()),
                    us(out.latency.p99()),
                    us(out.latency.p999()),
                    us(out.latency.max_ns()),
                    f2(out.shed_rate() * 100.0),
                    out.errors.to_string(),
                    f2(out.report.job_pool.hit_rate() * 100.0),
                    match knee {
                        Some(k) if k == i => "<-- knee".into(),
                        _ => String::new(),
                    },
                ]);
            }
        }
    }
    t.print();
    if let Some(path) = &args.json {
        let doc = Json::obj([("points", Json::Arr(json_points))]);
        doc.write_file(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }
    println!(
        "every request crossed a real loopback socket: length-prefixed frames, \
         the server's per-connection bounded in-flight windows and the \
         client's reply correlation are all inside the measured latency. \
         overload surfaces as typed Overloaded replies (shed %), never a \
         dropped connection; errs counts transport losses and typed errors \
         and must be 0 in a healthy run. with --rate A..B the knee marker \
         tags the first point per cell that sheds > 1% or whose p99 exceeds \
         4x the lowest-rate baseline — the saturation knee of the serving \
         path. pool % is the server's request-record pool hit rate (100% \
         after warm-up means the serving path allocated nothing per \
         request); one receiver thread waited on the replies in send order \
         and recorded their latency. the server audits its table \
         invariants (bank total, set sortedness, hash placement) at \
         shutdown of every point."
    );
}
