//! The benchmark run end to end at a fifth of a second per segment, and
//! `BENCHMARK.json` held against the lists the code reports by.

use lsa_benchmark::json::Json;
use lsa_benchmark::metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use lsa_benchmark::runner::{run, Settings, Workload, RUN_SECONDS};
use std::path::{Path, PathBuf};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.fields().iter().map(|(k, _)| k.as_str()).collect()
}

fn text<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {obj:?}"))
}

/// A letter or digit, then at most 63 more of letters, digits, `_.-`.
fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_states_the_lists_the_code_reports_by() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );
    let paths: Vec<_> = doc.get("paths").unwrap().as_arr().iter().collect();
    assert_eq!(paths, [&Json::str("benchmark")]);

    let workloads = doc.get("workloads").unwrap().as_arr();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "why"), why);
        assert!(is_name(name), "{name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
    }

    let same = |entry: &Json, def: &Def| {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
        assert!(is_name(def.name), "{}", def.name);
        assert!(is_unit(def.unit), "{}", def.unit);
    };
    let end_to_end = doc.get("end_to_end").unwrap().as_arr();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        same(entry, def);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(def.bound));
        assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));

    let per_layer = doc.get("per_layer").unwrap().as_arr();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (entry, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        same(entry, def);
    }

    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
}

/// The names of a result line's metrics, in order, after checking the
/// line's shape.
fn metric_names(line: &str) -> Vec<String> {
    let doc = Json::parse(line).expect("result line parses");
    assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
    let attempted = doc.get("attempted").and_then(Json::as_f64).unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    let metrics = doc.get("metrics").unwrap();
    for (name, entry) in metrics.fields() {
        assert_eq!(keys(entry), ["value", "unit"], "{name}");
        let value = entry.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite(), "{name} = {value}");
    }
    metrics.fields().iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_prints_every_metric_once_and_passes_its_checks() {
    let doc = benchmark_json();
    let listed = |key: &str| -> Vec<String> {
        let entries = doc.get(key).unwrap().as_arr().iter();
        entries.map(|e| text(e, "name").to_string()).collect()
    };
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let settings = Settings {
                seed: 42,
                seconds: 1.0,
                trace,
                out_dir: out_dir.clone(),
            };
            let outcome = run(workload, &settings).expect("loopback stack starts");
            let what = format!("{} trace={trace}", workload.name());
            assert!(outcome.correct, "{what}: {}", outcome.detail.render());
            let line = outcome.result_line(trace);
            assert!(!line.contains('\n'));
            // Exactly the listed metrics, each once, in the listed order.
            let expected = listed(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(metric_names(&line), expected, "{what}");
            if !trace {
                // A gated metric that reads 0 has no bound to be held to.
                for def in &END_TO_END {
                    assert!(
                        outcome.values.get(def.name).unwrap() > 0.0,
                        "{what}: {}",
                        def.name
                    );
                }
            }
        }
        let trace_file = out_dir.join(format!("trace-{}.jsonl", workload.name()));
        let spans = std::fs::read_to_string(&trace_file).expect("span file written");
        let first = Json::parse(spans.lines().next().expect("at least one span")).unwrap();
        assert_eq!(
            keys(&first),
            ["id", "name", "start_ns", "end_ns", "parent", "req_id"]
        );
    }
}
