//! `--compare A.json B.json`: two result files of the one command, row by
//! row, against the benchmark's own bounds.

use crate::json::Json;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Not worse, but a run's own segments spread wider than the bound,
    /// so "unchanged" is more than the runs can say.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` is `b` worse (negative when it is better)?
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let base = a.abs().max(f64::MIN_POSITIVE);
    if higher_is_better {
        (a - b) / base
    } else {
        (b - a) / base
    }
}

pub fn verdict(worse_by: f64, bound: f64, spread: f64) -> Verdict {
    if worse_by > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print one row per (workload, end-to-end metric) of `a` and return how
/// many rows are `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<usize, String> {
    let (a, b) = (load(a)?, load(b)?);
    let num = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_f64);
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    let mut worse = 0;
    for (workload, wa) in a.get("workloads").map_or(&[][..], Json::fields) {
        let entries_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("end_to_end"));
        for (metric, ea) in wa.get("end_to_end").map_or(&[][..], Json::fields) {
            let eb = entries_b.and_then(|e| e.get(metric));
            let (Some(va), Some(vb), Some(bound)) = (
                num(ea, "value"),
                eb.and_then(|e| num(e, "value")),
                num(ea, "bound"),
            ) else {
                println!("{workload:<16} {metric:<18} missing from one of the files");
                worse += 1;
                continue;
            };
            let higher = ea.get("better").and_then(Json::as_str) == Some("higher");
            let by = worse_by(va, vb, higher);
            let spread = num(ea, "spread")
                .unwrap_or(0.0)
                .max(eb.and_then(|e| num(e, "spread")).unwrap_or(0.0));
            let v = verdict(by, bound, spread);
            worse += (v == Verdict::Worse) as usize;
            println!(
                "{workload:<16} {metric:<18} {va:>14.4} {vb:>14.4} {by:>+9.4} {bound:>7.3} {spread:>7.4}  {}",
                v.as_str()
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Throughput down 12% against a 10% bound: worse.
        let by = worse_by(100.0, 88.0, true);
        assert!((by - 0.12).abs() < 1e-12);
        assert_eq!(verdict(by, 0.10, 0.01), Verdict::Worse);
        // Latency up 5% against 10%: ok; better results are never worse.
        assert_eq!(
            verdict(worse_by(50.0, 52.5, false), 0.10, 0.01),
            Verdict::Ok
        );
        assert_eq!(
            verdict(worse_by(50.0, 20.0, false), 0.10, 0.01),
            Verdict::Ok
        );
        // Within the bound, but the segments spread wider than it.
        assert_eq!(
            verdict(worse_by(100.0, 97.0, true), 0.10, 0.14),
            Verdict::Unresolved
        );
    }
}
