//! One run of one workload: set up, measure in segments, check the
//! outputs, and report either the end-to-end metrics (timed run) or the
//! per-layer metrics (traced run).

use crate::engine_wl::{EngineKind, EngineRig};
use crate::json::Json;
use crate::layers::{self, new_engine, Budget, Engine};
use crate::metrics::{Def, Values, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{Check, RunOut, Segment, SegmentSpec};
use crate::spans::{self, WIRE_SEND};
use crate::wire_wl::{server_config, WireKind, WireRig, LATE};
use crate::{stats, sys};
use lsa_engine::{EngineStats, MemoryStats, TxnEngine};
use lsa_wire::WireReport;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Seconds one run measures unless `--seconds` says otherwise: the
/// `run_seconds` of BENCHMARK.json.
pub const RUN_SECONDS: f64 = 25.0;
/// Segments of the timed run; every end-to-end metric taken per segment
/// is reported as the median of its segment values, which removes the
/// occasional host stall from the result.
pub const SEGMENTS: usize = 5;
/// Times the timed run sets up (the last set-up is the one measured on);
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Share of `--seconds` a run spends at full load before its first
/// reported segment. A fresh engine runs up to a quarter faster for its
/// first 3–9 s (`engine_scan`: 41–45 k txn/s falling to 32–35 k), and
/// without a lead-in the segment median landed on either side of that
/// step from one run to the next.
const LEAD_IN_SHARE: f64 = 0.2;
/// Untraced/traced segment pairs of the traced run, and the share of
/// `--seconds` each of the two lasts.
const TRACE_PAIRS: usize = 5;
const TRACE_SEGMENT_SHARE: f64 = 0.05;
/// Share of `--seconds` the layer replay's full-path stage may take, and
/// the share each micro-timing takes.
const REPLAY_SHARE: f64 = 0.06;
const MICRO_SHARE: f64 = 0.004;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EngineShort,
    EngineScan,
    WirePipelined,
    WireOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EngineShort,
        Workload::EngineScan,
        Workload::WirePipelined,
        Workload::WireOpen,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn kind(self) -> Kind {
        match self {
            Workload::EngineShort => Kind::Engine(EngineKind::Short),
            Workload::EngineScan => Kind::Engine(EngineKind::Scan),
            Workload::WirePipelined => Kind::Wire(WireKind::Pipelined),
            Workload::WireOpen => Kind::Wire(WireKind::Open),
        }
    }

    /// The per-segment figure the workload exists to watch — what the
    /// trace overhead and the segment spread are taken on — and whether
    /// lower is better: the median latency on the open loop, throughput
    /// everywhere else.
    fn primary(self) -> (SegmentValue, bool) {
        match self {
            Workload::WireOpen => (|s| s.lat_p50_us, true),
            _ => (|s| s.ops_per_s, false),
        }
    }
}

/// Which of the two kinds of rig a workload runs on.
#[derive(Clone, Copy)]
enum Kind {
    Engine(EngineKind),
    Wire(WireKind),
}

type SegmentValue = fn(&Segment) -> f64;

pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// What the one-line result has no room for: segment values, spreads,
    /// checks, the budget.
    pub detail: Json,
}

impl Outcome {
    /// The result line of the driver's contract: the end-to-end metrics
    /// of a timed run, the per-layer metrics of a traced one.
    pub fn result_line(&self, trace: bool) -> String {
        let defs: &[Def] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = defs.iter().map(|d| {
            let value = self
                .values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            let fields = [("value", Json::Num(value)), ("unit", Json::str(d.unit))];
            (d.name, Json::obj(fields))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

enum Rig {
    Engine(EngineRig<Engine>),
    Wire(Box<WireRig<Engine>>),
}

/// A torn-down rig's verdicts and the layers' own reports.
struct Finished {
    checks: Vec<Check>,
    engine: EngineStats,
    memory: MemoryStats,
    wire: Option<WireReport>,
}

impl Rig {
    fn setup(workload: Workload, seed: u64) -> std::io::Result<Rig> {
        Ok(match workload.kind() {
            Kind::Engine(kind) => Rig::Engine(EngineRig::setup(kind, new_engine(), seed)),
            Kind::Wire(kind) => Rig::Wire(Box::new(WireRig::setup(kind, new_engine(), seed)?)),
        })
    }

    fn run(&self, plan: &[SegmentSpec], epoch: Instant, probe_mid: bool) -> (RunOut, EngineStats) {
        match self {
            Rig::Engine(rig) => rig.run(plan, epoch),
            // The server's engine statistics arrive with its report.
            Rig::Wire(rig) => (rig.run(plan, epoch, probe_mid), EngineStats::default()),
        }
    }

    fn finish(self, out: &RunOut, stats: EngineStats) -> Finished {
        match self {
            Rig::Engine(rig) => Finished {
                checks: rig.checks(out, &stats),
                engine: stats,
                memory: rig.engine().memory_stats(),
                wire: None,
            },
            Rig::Wire(rig) => {
                let (checks, wire, memory) = rig.finish(out.attempted, out.completed, out.failed);
                Finished {
                    checks,
                    engine: wire.as_ref().map(|r| r.service.engine).unwrap_or_default(),
                    memory,
                    wire,
                }
            }
        }
    }
}

fn plan(settings: &Settings) -> Vec<SegmentSpec> {
    let seg = |share: f64, traced, lead_in| SegmentSpec {
        dur: Duration::from_secs_f64(settings.seconds * share),
        traced,
        keep_samples: settings.trace,
        lead_in,
    };
    let mut plan = vec![seg(LEAD_IN_SHARE, false, true)];
    if settings.trace {
        plan.extend((0..2 * TRACE_PAIRS).map(|i| seg(TRACE_SEGMENT_SHARE, i % 2 == 1, false)));
    } else {
        let share = (1.0 - LEAD_IN_SHARE) / SEGMENTS as f64;
        plan.extend(vec![seg(share, false, false); SEGMENTS]);
    }
    plan
}

fn seg_values(segments: &[Segment], traced: bool, value: SegmentValue) -> Vec<f64> {
    let reported = segments.iter().filter(|s| s.traced == traced && !s.lead_in);
    reported.map(value).collect()
}

fn num_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Run `workload` once under `settings`, printing what a reader wants to
/// see on the way. `Err` only when the stack could not be started at all.
pub fn run(workload: Workload, settings: &Settings) -> std::io::Result<Outcome> {
    let epoch = Instant::now();
    let plan = plan(settings);
    let reps = if settings.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut measured = None;
    for rep in 0..reps {
        let last = rep + 1 == reps;
        let start = Instant::now();
        let rig = Rig::setup(workload, settings.seed)?;
        let (out, stats) = rig.run(if last { &plan } else { &[] }, epoch, settings.trace);
        setup_s.push((out.warm_done - start).as_secs_f64());
        let mut fin = rig.finish(&out, stats);
        attempted += out.attempted;
        failed += out.failed;
        checks.append(&mut fin.checks);
        if last {
            measured = Some((out, fin));
        }
    }
    let (out, fin) = measured.expect("at least one rep");

    println!(
        "== {} seed={} seconds={} trace={} ({} cpus) ==",
        workload.name(),
        settings.seed,
        settings.seconds,
        settings.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (i, s) in out.segments.iter().enumerate() {
        println!(
            "segment {i}{}: {:>12.1} ops/s  p50 {:>9.2} us  within-limit {:.5}{}",
            match (s.lead_in, s.traced) {
                (true, _) => " (lead-in)",
                (false, true) => " (traced)",
                (false, false) => "",
            },
            s.ops_per_s,
            s.lat_p50_us,
            s.within_limit_frac,
            if s.generator_late() {
                format!("  generator_late (late_frac {:.4})", s.late_frac)
            } else {
                String::new()
            },
        );
    }

    let mut values = Values::default();
    let mut detail = vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(settings.seed as f64)),
        ("trace", Json::Bool(settings.trace)),
    ];
    if settings.trace {
        let (budget, more) = layer_metrics(workload, settings, &out, &fin, &mut values)?;
        checks.extend(more);
        detail.push((
            "budget",
            Json::obj([
                ("ops", Json::Num(budget.ops as f64)),
                ("full_ns", Json::Num(budget.full_ns)),
                ("service_ns", Json::Num(budget.service_ns)),
                ("direct_ns", Json::Num(budget.direct_ns)),
                ("time_ns", Json::Num(budget.time_ns)),
            ]),
        ));
    } else {
        let mut per_metric = Vec::new();
        let per_segment: [(&'static str, SegmentValue); 2] = [
            ("ops_per_s", |s| s.ops_per_s),
            ("within_limit_frac", |s| s.within_limit_frac),
        ];
        for (name, value) in per_segment {
            let segs = seg_values(&out.segments, false, value);
            values.set(name, stats::median(&segs));
            per_metric.push((name, segs));
        }
        per_metric.push(("setup_s", setup_s.clone()));
        values.set("setup_s", stats::median(&setup_s));
        values.set("peak_rss_mb", sys::peak_rss_mb());
        detail.push((
            "segments",
            Json::obj(per_metric.iter().map(|(n, v)| (*n, num_arr(v)))),
        ));
        detail.push((
            "spread",
            Json::obj(
                per_metric
                    .iter()
                    .map(|(n, v)| (*n, Json::Num(stats::spread(v)))),
            ),
        ));
        let reported = out.segments.iter().filter(|s| !s.lead_in);
        let late: Vec<Json> = reported.map(|s| Json::Bool(s.generator_late())).collect();
        detail.push(("generator_late", Json::Arr(late)));
    }

    // A failed check is a failed operation: it counts toward `ok_frac`.
    let failed_checks: Vec<&str> = checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| what.as_str())
        .collect();
    for what in &failed_checks {
        println!("CHECK FAILED: {what}");
    }
    let passed = checks.len() - failed_checks.len();
    println!(
        "checks: {passed} passed, {} failed; operations: {attempted} attempted, {failed} failed",
        failed_checks.len()
    );
    let failed = failed + failed_checks.len() as u64;
    if !settings.trace {
        values.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    }
    detail.push(("checks_passed", Json::Num(passed as f64)));
    detail.push((
        "checks_failed",
        Json::Arr(failed_checks.into_iter().map(Json::str).collect()),
    ));
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        values,
        detail: Json::obj(detail),
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Everything the traced run reports: the run's own counts, the layers'
/// reports, the micro-timings, the probe stack and the layer replay.
fn layer_metrics(
    workload: Workload,
    settings: &Settings,
    out: &RunOut,
    fin: &Finished,
    values: &mut Values,
) -> std::io::Result<(Budget, Vec<Check>)> {
    let share = |s: f64| Duration::from_secs_f64(settings.seconds * s);
    let micro = share(MICRO_SHARE);
    let mut checks = Vec::new();

    // The benchmark's own view of the run.
    let (primary, lower_is_better) = workload.primary();
    let untraced = seg_values(&out.segments, false, primary);
    let traced = seg_values(&out.segments, true, primary);
    // Each traced segment against the untraced one just before it, so
    // that the host's slow drift cancels within a pair.
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(u, t)| t / u.max(1e-9))
        .collect();
    let traced_vs_untraced = stats::median(&ratios);
    let overhead = if lower_is_better {
        traced_vs_untraced - 1.0
    } else {
        1.0 - traced_vs_untraced
    };
    let ops: u64 = out.segments.iter().map(|s| s.ops).sum();
    values.extend([
        ("bench.trace_overhead_frac", overhead),
        ("bench.segment_spread", stats::spread(&untraced)),
        ("bench.cpu_us_per_op", out.cpu_s * 1e6 / ops.max(1) as f64),
        ("bench.spans", out.spans.len() as f64),
    ]);
    std::fs::create_dir_all(&settings.out_dir)?;
    let trace_file = settings
        .out_dir
        .join(format!("trace-{}.jsonl", workload.name()));
    spans::write_jsonl(&trace_file, &out.spans)?;
    println!(
        "spans: {} written to {} ({} dropped past the log's capacity)",
        out.spans.len(),
        trace_file.display(),
        out.spans_dropped
    );

    // The client's view: tail percentiles only where the samples carry them.
    let tail = |sorted: &[u32], q| stats::supported_percentile(sorted, q).map_or(0.0, us);
    let late_ns = LATE.as_nanos() as u32;
    let late = out.late_ns.iter().filter(|&&ns| ns > late_ns).count() as u64;
    values.extend([
        ("client.samples", out.lat_ns.len() as f64),
        ("client.lat_p50_us", stats::p50_us(&out.lat_ns)),
        ("client.lat_p99_us", tail(&out.lat_ns, 0.99)),
        ("client.lat_p999_us", tail(&out.lat_ns, 0.999)),
        (
            "client.lat_max_us",
            out.lat_ns.last().copied().map_or(0.0, us),
        ),
        ("client.late_frac", ratio(late, out.late_ns.len() as u64)),
        ("client.late_p99_us", tail(&out.late_ns, 0.99)),
        ("client.offered_per_s", out.offered_per_s),
    ]);
    if let Some((q, v)) = stats::highest_supported(&out.lat_ns) {
        println!(
            "client latency: {} samples, highest supported percentile p{} = {:.1} us",
            out.lat_ns.len(),
            q * 100.0,
            us(v)
        );
    }

    // What the layers report about the run.
    let e = &fin.engine;
    let commits = e.total_commits();
    values.extend([
        ("time.shared_ts_frac", ratio(e.shared_commit_ts, e.commits)),
        ("stm.aborts_per_commit", ratio(e.aborts, commits)),
        ("stm.validations_per_commit", ratio(e.validations, commits)),
        (
            "stm.validated_entries_per_commit",
            ratio(e.validated_entries, commits),
        ),
        ("stm.versions_live", fin.memory.versions_live as f64),
        ("stm.arena_bytes", fin.memory.arena_bytes as f64),
        ("stm.watermark_lag", fin.memory.watermark_lag as f64),
    ]);
    let (queue_depth, in_flight) = out.mid_gauges.unwrap_or((0, 0));
    let w = fin.wire.as_ref();
    let svc = w.map(|r| &r.service);
    let span_stats = spans::self_times(&out.spans);
    let (sends, send_ns, _) = span_stats[WIRE_SEND as usize];
    values.extend([
        (
            "service.lat_p50_us",
            svc.map_or(0.0, |s| s.latency.p50() as f64 / 1e3),
        ),
        (
            "service.lat_p99_us",
            svc.map_or(0.0, |s| s.latency.p99() as f64 / 1e3),
        ),
        (
            "service.shed_frac",
            svc.map_or(0.0, |s| ratio(s.shed, s.submitted + s.shed)),
        ),
        ("service.queue_depth_mid", queue_depth as f64),
        (
            "service.job_pool_hit_frac",
            w.map_or(0.0, |r| r.job_pool.hit_rate()),
        ),
        ("wire.send_ns", ratio(send_ns, sends)),
        ("wire.frames_in", w.map_or(0.0, |r| r.frames_in as f64)),
        ("wire.frames_out", w.map_or(0.0, |r| r.frames_out as f64)),
        (
            "wire.protocol_errors",
            w.map_or(0.0, |r| r.protocol_errors as f64),
        ),
        (
            "wire.buf_pool_hit_frac",
            w.map_or(0.0, |r| r.buf_pool.hit_rate()),
        ),
        ("wire.window_in_flight_mid", in_flight as f64),
    ]);

    // Each layer on its own.
    // The codec and the interpreter run on the workload's own requests;
    // the engine workloads have none, so they borrow the hashset mix.
    let reqs = match workload.kind() {
        Kind::Wire(kind) => kind,
        Kind::Engine(_) => WireKind::Pipelined,
    }
    .requests(settings.seed, &server_config().tables);
    values.extend(layers::time_layer(micro));
    values.extend(layers::stm_layer(micro));
    values.extend(layers::service_layer(micro));
    values.extend(layers::codec_layer(micro, &reqs));
    values.extend(layers::apply_layer(micro, &reqs));
    values.extend(layers::obs_layer(micro));
    let (probe, probe_checks) = layers::probe_stack(micro * 4)?;
    values.extend(probe);
    checks.extend(probe_checks);

    // The budget.
    let cap = share(REPLAY_SHARE);
    let budget = match workload.kind() {
        Kind::Engine(kind) => layers::replay_engine(kind, settings.seed, cap),
        Kind::Wire(kind) => {
            let (budget, replay_checks) = layers::replay_wire(kind, settings.seed, cap)?;
            checks.extend(replay_checks);
            budget
        }
    };
    values.extend(budget.pairs());
    println!(
        "budget over the first {} inputs, ns per operation:",
        budget.ops
    );
    let mut sum = 0.0;
    for (name, ns) in budget.self_ns() {
        sum += ns;
        println!(
            "  {name:<8} self {ns:>10.1}  ({:>5.1}% of the full path)",
            100.0 * ns / budget.full_ns.max(1e-9)
        );
    }
    println!(
        "  sum {sum:.1} against the full path's {:.1}; time.share of the transaction {:.4}",
        budget.full_ns,
        budget.time_share()
    );
    Ok((budget, checks))
}

fn us(ns: u32) -> f64 {
    ns as f64 / 1e3
}
