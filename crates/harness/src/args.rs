//! Shared CLI argument helpers: the `N` / `A..B` range syntax every sweep
//! flag (`--threads`, `--rate`) speaks, parsed in exactly one place, and
//! the `matrix` command line ([`MatrixArgs`]).

use crate::open_loop::Kind;
use crate::registry::{default_registry, lsa_external_entry, EngineEntry, Workload};
use lsa_wire::TablesConfig;
use lsa_workloads::{DisjointConfig, ScanConfig};

/// A parsed `N` or `A..B` argument. A single value is a degenerate range
/// (`lo == hi`), so callers sweep unconditionally and single-point runs
/// fall out for free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RangeSpec {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl RangeSpec {
    /// Parse `"N"` (single point) or `"A..B"` (inclusive sweep). Bounds
    /// must be positive and ordered (`A <= B`).
    pub fn parse(s: &str) -> Option<RangeSpec> {
        let (lo, hi) = match s.split_once("..") {
            Some((a, b)) => (a.parse::<f64>().ok()?, b.parse::<f64>().ok()?),
            None => {
                let v = s.parse::<f64>().ok()?;
                (v, v)
            }
        };
        (lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo).then_some(RangeSpec { lo, hi })
    }

    /// Whether this is a genuine sweep (`A..B` with `A < B`).
    pub fn is_sweep(&self) -> bool {
        self.lo < self.hi
    }

    /// Every integer in the inclusive range — the `--threads 1..8` shape.
    /// Bounds are rounded to the nearest integer; `lo` clamps to at least 1.
    pub fn usize_values(&self) -> Vec<usize> {
        let lo = (self.lo.round() as usize).max(1);
        let hi = (self.hi.round() as usize).max(lo);
        (lo..=hi).collect()
    }

    /// `points` geometrically spaced values from `lo` to `hi` inclusive —
    /// the `--rate 1000..1000000` saturation-sweep shape, where interesting
    /// behaviour (the knee) lives on a log axis. A degenerate range or
    /// `points <= 1` yields the single value `lo`.
    pub fn geometric(&self, points: usize) -> Vec<f64> {
        if !self.is_sweep() || points <= 1 {
            return vec![self.lo];
        }
        let ratio = (self.hi / self.lo).powf(1.0 / (points - 1) as f64);
        (0..points)
            .map(|i| {
                if i == points - 1 {
                    self.hi // land exactly on the endpoint
                } else {
                    self.lo * ratio.powi(i as i32)
                }
            })
            .collect()
    }
}

/// The `matrix` command line: one workload, swept over rows (registry
/// cells), sizes and thread counts. Every value is checked here, so a bad
/// flag is a usage error before anything runs.
#[derive(Debug)]
pub struct MatrixArgs {
    /// One workload per `--size` value (one workload without `--size`),
    /// with `--accounts` applied to the served mixes.
    pub workloads: Vec<Workload>,
    /// `--threads N | A..B`; defaults to the host's parallelism, at most 4.
    pub threads: Vec<usize>,
    /// `--timebase A,B,…`: keep rows whose time base contains any of these.
    pub timebase: Vec<String>,
    /// `--dev LIST`, given in µs and held in ns: external-clock rows,
    /// multi- and single-version.
    pub dev_ns: Vec<u64>,
}

/// A non-empty comma list, every item parsed by `item`.
fn list<T>(arg: Option<&String>, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    arg?.split(',').map(item).collect()
}

impl MatrixArgs {
    /// Parse `matrix`'s arguments (program name excluded). `Err` names the
    /// offending flag.
    pub fn parse(argv: &[String]) -> Result<MatrixArgs, String> {
        let mut workload = Workload::Tables(Kind::Bank, TablesConfig::default());
        let (mut sizes, mut accounts) = (None, None);
        let mut args = MatrixArgs {
            workloads: Vec::new(),
            threads: vec![std::thread::available_parallelism().map_or(2, |n| n.get().min(4))],
            timebase: Vec::new(),
            dev_ns: Vec::new(),
        };
        let mut argv = argv.iter();
        while let Some(flag) = argv.next() {
            let value = argv.clone().next();
            let bad = |what: &str| format!("{flag} needs {what}");
            match flag.as_str() {
                "disjoint" => workload = Workload::Disjoint(DisjointConfig::default()),
                "scan" => workload = Workload::Scan(ScanConfig::default()),
                "--threads" => {
                    args.threads = value
                        .and_then(|v| RangeSpec::parse(v))
                        .ok_or_else(|| bad("N or A..B (A >= 1, B >= A)"))?
                        .usize_values();
                }
                "--timebase" => {
                    args.timebase = list(value, |s| (!s.is_empty()).then(|| s.to_string()))
                        .ok_or_else(|| bad("a comma list of substrings"))?;
                }
                "--dev" => {
                    args.dev_ns = list(value, |s| s.parse::<u64>().ok()?.checked_mul(1_000))
                        .ok_or_else(|| bad("a comma list of deviations in whole us"))?;
                }
                "--size" => {
                    sizes = Some(
                        list(value, |s| s.parse::<usize>().ok().filter(|&n| n >= 1))
                            .ok_or_else(|| bad("a comma list of object counts >= 1"))?,
                    );
                }
                "--accounts" => {
                    accounts = Some(
                        value
                            .and_then(|v| v.parse::<u32>().ok())
                            .filter(|&n| n >= 2)
                            .ok_or_else(|| bad("an account count >= 2"))?,
                    );
                }
                other => match Kind::parse(other) {
                    Some(kind) => workload = Workload::Tables(kind, TablesConfig::default()),
                    None => return Err(format!("got {other:?}")),
                },
            }
            if flag.starts_with("--") {
                argv.next();
            }
        }
        match (&mut workload, accounts) {
            (Workload::Tables(_, cfg), Some(n)) => cfg.accounts = n,
            (_, Some(_)) => return Err("--accounts applies to the served mixes only".into()),
            _ => {}
        }
        args.workloads = match sizes {
            None => vec![workload],
            Some(sizes) => sizes
                .into_iter()
                .map(|n| workload.sized(n))
                .collect::<Option<_>>()
                .ok_or("--size applies to scan and disjoint only")?,
        };
        Ok(args)
    }

    /// The rows to run: the `--dev` cells when given, else the default
    /// registry; then only those whose time base contains
    /// one of the `--timebase` substrings.
    pub fn rows(&self) -> Vec<EngineEntry> {
        let mut rows: Vec<EngineEntry> = self
            .dev_ns
            .iter()
            .flat_map(|&dev| [8, 1].map(|versions| lsa_external_entry(dev, versions)))
            .collect();
        if rows.is_empty() {
            rows = default_registry();
        }
        rows.retain(|e| {
            self.timebase.is_empty()
                || self
                    .timebase
                    .iter()
                    .any(|f| e.time_base.contains(f.as_str()))
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_and_range() {
        assert_eq!(RangeSpec::parse("8"), Some(RangeSpec { lo: 8.0, hi: 8.0 }));
        assert_eq!(
            RangeSpec::parse("1..8"),
            Some(RangeSpec { lo: 1.0, hi: 8.0 })
        );
        assert_eq!(
            RangeSpec::parse("2500.5..10000"),
            Some(RangeSpec {
                lo: 2500.5,
                hi: 10000.0
            })
        );
        assert!(!RangeSpec::parse("4").unwrap().is_sweep());
        assert!(RangeSpec::parse("4..5").unwrap().is_sweep());
    }

    #[test]
    fn rejects_malformed_and_unordered() {
        for bad in ["", "x", "0", "-3", "8..2", "1..x", "..", "1..", "..5"] {
            assert_eq!(RangeSpec::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn usize_values_are_the_inclusive_integers() {
        assert_eq!(
            RangeSpec::parse("1..4").unwrap().usize_values(),
            [1, 2, 3, 4]
        );
        assert_eq!(RangeSpec::parse("6").unwrap().usize_values(), [6]);
    }

    #[test]
    fn geometric_hits_both_endpoints_and_grows() {
        let pts = RangeSpec::parse("1000..8000").unwrap().geometric(4);
        assert_eq!(pts.len(), 4);
        assert!((pts[0] - 1000.0).abs() < 1e-9);
        assert!((pts[3] - 8000.0).abs() < 1e-9);
        for w in pts.windows(2) {
            assert!(w[1] > w[0], "geometric points must be increasing");
        }
        // Equal ratio between successive points.
        let r0 = pts[1] / pts[0];
        let r1 = pts[2] / pts[1];
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn geometric_degenerates_to_single_point() {
        assert_eq!(RangeSpec::parse("5000").unwrap().geometric(7), vec![5000.0]);
        assert_eq!(
            RangeSpec::parse("1000..2000").unwrap().geometric(1),
            vec![1000.0]
        );
    }

    fn matrix(line: &str) -> Result<MatrixArgs, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        MatrixArgs::parse(&argv)
    }

    fn labels(args: &MatrixArgs) -> Vec<String> {
        args.rows().iter().map(EngineEntry::label).collect()
    }

    #[test]
    fn matrix_defaults_are_the_bank_over_the_registry() {
        let args = matrix("").unwrap();
        assert!(
            matches!(args.workloads[..], [Workload::Tables(Kind::Bank, cfg)] if cfg.accounts == 64)
        );
        assert_eq!(args.threads.len(), 1);
        assert_eq!(args.rows().len(), default_registry().len());
    }

    #[test]
    fn matrix_list_flags_parse() {
        let args = matrix("bank --dev 0,10 --accounts 5 --threads 1..2").unwrap();
        assert_eq!(args.dev_ns, [0, 10_000]);
        assert_eq!(args.threads, [1, 2]);
        assert!(
            matches!(args.workloads[..], [Workload::Tables(Kind::Bank, cfg)] if cfg.accounts == 5)
        );
        assert_eq!(
            labels(&args),
            [
                "lsa-rt(external-0us-mv8)",
                "lsa-rt(external-0us-mv1)",
                "lsa-rt(external-10us-mv8)",
                "lsa-rt(external-10us-mv1)",
            ]
        );
        let mv1 = matrix("--dev 1 --timebase mv1").unwrap();
        assert_eq!(labels(&mv1), ["lsa-rt(external-1us-mv1)"]);

        let scan = matrix("scan --size 10,400").unwrap();
        let objects: Vec<_> = scan.workloads.iter().map(Workload::size).collect();
        assert_eq!(objects, [10, 400]);
        let disjoint = matrix("disjoint --size 10,100").unwrap();
        assert!(matches!(
            disjoint.workloads[..],
            [Workload::Disjoint(a), Workload::Disjoint(b)]
                if (a.accesses_per_tx, a.objects_per_thread) == (10, 64)
                    && (b.accesses_per_tx, b.objects_per_thread) == (100, 400)
        ));
    }

    #[test]
    fn matrix_timebase_union_keeps_rows_matching_any() {
        let args = matrix("--timebase gv4,seqlock").unwrap();
        assert_eq!(args.timebase, ["gv4", "seqlock"]);
        assert_eq!(labels(&args), ["tl2(gv4)", "norec(seqlock)"]);
        assert!(matrix("--timebase no-such-base").unwrap().rows().is_empty());
    }

    #[test]
    fn matrix_bad_values_are_usage_errors() {
        for bad in [
            "--dev x",
            "--dev 1,,2",
            "--size 0",
            "scan --size 0",
            // One conflict policy: there is no `--cm` axis.
            "--cm aggressive",
            "--accounts 1",
            "--accounts",
            "--timebase a,",
            "--threads 0",
            "bank --size 10",
            "scan --accounts 5",
            "banks",
        ] {
            assert!(matrix(bad).is_err(), "{bad:?} must be a usage error");
        }
    }
}
