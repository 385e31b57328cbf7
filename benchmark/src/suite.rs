//! The one command: every workload, each in a child process of its own
//! (so `peak_rss_mb` is per workload), first timed and then traced; every
//! metric printed by name with its unit; one result file per seed.

use crate::json::Json;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::runner::Workload;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Marks the child's line of details the result line has no room for.
pub const DETAIL_PREFIX: &str = "#detail ";

/// Run one child of this executable to its end, echoing what it prints
/// for a reader, and hand back its detail and result lines.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> std::io::Result<(Json, Json)> {
    let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut child = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (mut detail, mut last) = (None, String::new());
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(json) => detail = Some(Json::parse(json).map_err(bad)?),
            None => {
                if !last.is_empty() {
                    println!("{last}");
                }
                last = line;
            }
        }
    }
    // Wait for the child whatever it printed: no process outlives the run.
    let status = child.wait()?;
    let result = Json::parse(&last).map_err(|e| {
        bad(format!(
            "{} ({status}) printed no result line: {e}",
            workload.name()
        ))
    })?;
    let detail = detail.ok_or_else(|| bad(format!("{} printed no detail", workload.name())))?;
    Ok((detail, result))
}

fn metric_entries(defs: &[Def], result: &Json, spreads: Option<&Json>) -> Json {
    Json::obj(defs.iter().map(|d| {
        let value = result
            .get("metrics")
            .and_then(|m| m.get(d.name))
            .and_then(|m| m.get("value"))
            .cloned()
            .unwrap_or(Json::Null);
        let mut fields = vec![
            ("value", value),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ];
        if let Some(spreads) = spreads {
            let spread = spreads.get(d.name).and_then(Json::as_f64).unwrap_or(0.0);
            fields.push(("bound", Json::Num(d.bound)));
            fields.push(("spread", Json::Num(spread)));
        }
        (d.name, Json::obj(fields))
    }))
}

fn print_metrics(title: &str, entries: &Json) {
    println!("{title}");
    for (name, entry) in entries.fields() {
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<36} {value:>16.4} {unit}");
    }
}

/// Run every workload and write `result-<seed>.json` into `out_dir`.
/// Returns the file and whether every workload's outputs were correct.
pub fn run_all(seed: u64, seconds: f64, out_dir: &Path) -> std::io::Result<(PathBuf, bool)> {
    std::fs::create_dir_all(out_dir)?;
    println!("seed {seed}, {seconds} s per run");
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let (timed_detail, timed) = run_child(workload, seed, seconds, false, out_dir)?;
        let (traced_detail, traced) = run_child(workload, seed, seconds, true, out_dir)?;
        let correct = [&timed, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        let end_to_end = metric_entries(&END_TO_END, &timed, timed_detail.get("spread"));
        let per_layer = metric_entries(&PER_LAYER, &traced, None);
        println!("-- {} --", workload.name());
        print_metrics("end to end (medians of the timed run):", &end_to_end);
        print_metrics("per layer (traced run):", &per_layer);
        let count = |key: &str| timed.get(key).cloned().unwrap_or(Json::Null);
        workloads.push((
            workload.name(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", count("attempted")),
                ("failed", count("failed")),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("timed", timed_detail),
                ("traced", traced_detail),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "cpus",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let file = out_dir.join(format!("result-{seed}.json"));
    std::fs::write(&file, doc.render() + "\n")?;
    println!("results written to {}", file.display());
    Ok((file, all_correct))
}
