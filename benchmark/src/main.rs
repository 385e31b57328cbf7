//! Command line of the benchmark. Three modes:
//!
//! * `--seed N` — the one command: every workload, timed then traced,
//!   each in a child process; writes `out/result-N.json`.
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload (what a driver calls); the last line of standard output is
//!   the result as one JSON object.
//! * `--compare A.json B.json` — two result files against the bounds.

use lsa_benchmark::runner::{self, Settings, Workload};
use lsa_benchmark::{compare, suite};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lsa-benchmark --seed <u64> [--seconds <s>] [--out <dir>]
       lsa-benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--out <dir>]
       lsa-benchmark --compare <a.json> <b.json>
workloads: engine_short engine_scan wire_pipelined wire_open";

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: runner::RUN_SECONDS,
        trace: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: 0 or 1")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(worse) => {
                println!("{worse} row(s) worse than the bound");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(seed) = args.seed else {
        eprintln!("--seed is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let result = match args.workload {
        None => suite::run_all(seed, args.seconds, &args.out_dir).map(|(_, correct)| correct),
        Some(workload) => {
            let settings = Settings {
                seed,
                seconds: args.seconds,
                trace: args.trace,
                out_dir: args.out_dir,
            };
            runner::run(workload, &settings).map(|outcome| {
                println!("{}{}", suite::DETAIL_PREFIX, outcome.detail.render());
                println!("{}", outcome.result_line(settings.trace));
                outcome.correct
            })
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            ExitCode::from(2)
        }
    }
}
