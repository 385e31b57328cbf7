//! STM primitive-cost comparison across ALL engines, plus LSA-RT-specific
//! ablations (extension and version-depth) — the design-choice ablations
//! DESIGN.md calls out, the LSA-RT read-path rows (DESIGN.md §2.1) and the
//! update-path scaling rows (DESIGN.md §11; `-- update-path` runs only
//! those, within `LSA_BENCH_MS` per row; `-- read-path` only the read-path
//! group).
//!
//! The cross-engine groups use ONE generic criterion body per transaction
//! shape, driven through the [`TxnEngine`] surface: adding an engine to the
//! lists below (or a new shape) is one line, exactly like the harness
//! registry — the first ROADMAP bench item ("engine-generic benches") done.

use criterion::{criterion_group, BenchmarkId, Criterion};
use lsa_baseline::{NorecStm, Tl2Stm, ValidationMode, ValidationStm};
use lsa_engine::{EngineHandle, EngineVar, TxnEngine, TxnOps};
use lsa_stm::{Stm, StmConfig};
use lsa_time::counter::SharedCounter;
use lsa_time::hardware::HardwareClock;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Benchmark a read-only transaction over `n` variables on any engine.
fn bench_read_only<E: TxnEngine>(
    g: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    engine: &E,
    n: usize,
) {
    let vars: Vec<EngineVar<E, u64>> = (0..n).map(|_| engine.new_var(0u64)).collect();
    let mut h = engine.register();
    g.bench_function(label, |b| {
        b.iter(|| {
            h.atomically(|tx| {
                let mut s = 0u64;
                for v in &vars {
                    s += *tx.read(v)?;
                }
                Ok(s)
            })
        })
    });
}

/// Benchmark an update transaction incrementing `n` variables on any engine.
fn bench_update<E: TxnEngine>(
    g: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    engine: &E,
    n: usize,
) {
    let vars: Vec<EngineVar<E, u64>> = (0..n).map(|_| engine.new_var(0u64)).collect();
    let mut h = engine.register();
    g.bench_function(label, |b| {
        b.iter(|| {
            h.atomically(|tx| {
                for v in &vars {
                    tx.modify(v, |x| x + 1)?;
                }
                Ok(())
            })
        })
    });
}

fn read_only_txn(c: &mut Criterion) {
    let mut g = c.benchmark_group("stm-ops/read-only-10");
    bench_read_only(
        &mut g,
        "lsa-rt/counter",
        &Stm::new(SharedCounter::new()),
        10,
    );
    bench_read_only(
        &mut g,
        "lsa-rt/mmtimer-free",
        &Stm::new(HardwareClock::mmtimer_free()),
        10,
    );
    bench_read_only(
        &mut g,
        "tl2/counter",
        &Tl2Stm::new(SharedCounter::new()),
        10,
    );
    bench_read_only(
        &mut g,
        "validation/always",
        &ValidationStm::new(ValidationMode::Always),
        10,
    );
    bench_read_only(
        &mut g,
        "validation/commit-counter",
        &ValidationStm::new(ValidationMode::CommitCounter),
        10,
    );
    bench_read_only(&mut g, "norec/seqlock", &NorecStm::new(), 10);
    g.finish();
}

fn update_txn(c: &mut Criterion) {
    let mut g = c.benchmark_group("stm-ops/update-4");
    bench_update(&mut g, "lsa-rt/counter", &Stm::new(SharedCounter::new()), 4);
    bench_update(
        &mut g,
        "lsa-rt/mmtimer-free",
        &Stm::new(HardwareClock::mmtimer_free()),
        4,
    );
    bench_update(&mut g, "tl2/counter", &Tl2Stm::new(SharedCounter::new()), 4);
    bench_update(
        &mut g,
        "validation/commit-counter",
        &ValidationStm::new(ValidationMode::CommitCounter),
        4,
    );
    bench_update(&mut g, "norec/seqlock", &NorecStm::new(), 4);
    g.finish();
}

fn extension_ablation(c: &mut Criterion) {
    // Extension cost grows with read-set size: measure an update transaction
    // that first reads n objects, forcing one extension at open-for-write.
    // (LSA-RT-specific: extension is a native configuration knob.)
    let mut g = c.benchmark_group("stm-ops/extend");
    for &n in &[4usize, 32] {
        for (label, extend) in [("extend-on", true), ("extend-off", false)] {
            let cfg = StmConfig {
                extend_on_read: extend,
                ..StmConfig::default()
            };
            let stm = Stm::with_config(SharedCounter::new(), cfg);
            let vars: Vec<_> = (0..n).map(|_| stm.new_tvar(0u64)).collect();
            let target = stm.new_tvar(0u64);
            let mut h = stm.register();
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    h.atomically(|tx| {
                        for v in &vars {
                            tx.read(v)?;
                        }
                        tx.modify(&target, |x| x + 1)
                    })
                })
            });
        }
    }
    g.finish();
}

fn version_depth_ablation(c: &mut Criterion) {
    // Multi-version chains cost memory and fold work; measure update cost at
    // different retained-version depths. (LSA-RT-specific.)
    let mut g = c.benchmark_group("stm-ops/version-depth");
    for &depth in &[1usize, 8, 32] {
        let stm = Stm::with_config(SharedCounter::new(), StmConfig::multi_version(depth));
        let v = stm.new_tvar(0u64);
        let mut h = stm.register();
        g.bench_with_input(BenchmarkId::new("update", depth), &depth, |b, _| {
            b.iter(|| h.atomically(|tx| tx.modify(&v, |x| x + 1)))
        });
    }
    g.finish();
}

/// One read-only scan of `vars` on the native LSA-RT handle.
fn scan(h: &mut lsa_stm::ThreadHandle<SharedCounter>, vars: &[lsa_stm::TVar<u64, u64>]) -> u64 {
    h.atomically(|tx| {
        let mut s = 0u64;
        for v in vars {
            s += *tx.read(v)?;
        }
        Ok(s)
    })
}

fn read_path(c: &mut Criterion) {
    // The LSA-RT read path piece by piece, on the serving default cell
    // (shared counter) over one 256-variable table — alone (`1t`), with a
    // second thread scanning the same table (`2t`), which shares every
    // object's lock word and the reference counts of its version with the
    // measured thread, and with the second thread scanning a 256-variable
    // table of its own (`2t-private`), which shares only the host. Read-only
    // throughout, so nothing aborts and the gap between `2t` and
    // `2t-private` is shared-line traffic alone.
    //
    // * `read_first` — a whole transaction of one first read: the fixed cost
    //   of begin + read-only commit plus one open.
    // * `ro_scan_256/lsa-rt` — a whole transaction of 256 first reads; over
    //   `read_first`, 255 marginal opens. `ro_scan_256/tl2/1t` is the same
    //   transaction on TL2, the contrast column: both engines keep their
    //   per-transaction tables in `lsa_engine::IdMap` on the thread handle.
    // * `read_repeat` — one repeated read inside a running transaction.
    // * `extend_256` — one `Extend(T)` over a 256-entry read set.
    //
    // Each `ro_scan_256/lsa-rt` row also prints the scans per second every
    // scanner delivered while it ran (the second thread's counted too). The
    // closing `ro-scan-2t-over-1t` line is the read side's scaling figure,
    // the twin of `private-2t-over-1t`: those scans at `2t` over `1t`'s.
    // `ro-scan-2t-private-over-1t` is the same at `2t-private`, so what
    // keeps it below 2 is the host, and what keeps `2t` below it is the
    // shared lock words and node counts.
    let mut g = c.benchmark_group("stm-ops/read-path");
    let stm = Stm::new(SharedCounter::new());
    let vars: Vec<_> = (0..256).map(|_| stm.new_tvar(0u64)).collect();
    let own: Vec<_> = (0..256).map(|_| stm.new_tvar(0u64)).collect();
    let mut scans_per_s = [0.0f64; 3];
    let companions = [
        ("1t", None),
        ("2t", Some(&vars)),
        ("2t-private", Some(&own)),
    ];
    for (k, (tag, companion)) in companions.into_iter().enumerate() {
        let stop = AtomicBool::new(false);
        let side_scans = AtomicU64::new(0);
        std::thread::scope(|s| {
            if let Some(table) = companion {
                s.spawn(|| {
                    let mut h = stm.register();
                    let mut done = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        black_box(scan(&mut h, table));
                        done += 1;
                        side_scans.store(done, Ordering::Relaxed);
                    }
                });
            }
            let mut h = stm.register();
            g.bench_function(BenchmarkId::new("read_first", tag), |b| {
                b.iter(|| scan(&mut h, &vars[..1]))
            });
            // Over every call the harness makes, warm-up included.
            let (mut spent, mut scans) = (Duration::ZERO, 0u64);
            g.bench_function(BenchmarkId::new("ro_scan_256/lsa-rt", tag), |b| {
                let (begin, side) = (Instant::now(), side_scans.load(Ordering::Relaxed));
                b.iter(|| {
                    scans += 1;
                    scan(&mut h, &vars)
                });
                spent += begin.elapsed();
                scans += side_scans.load(Ordering::Relaxed) - side;
            });
            scans_per_s[k] = scans as f64 / spent.as_secs_f64();
            println!(
                "{:<56} {:>12.0} scans/s, all scanners",
                format!("stm-ops/read-path/ro_scan_256/lsa-rt/{tag}"),
                scans_per_s[k]
            );
            g.bench_function(BenchmarkId::new("read_repeat", tag), |b| {
                h.atomically(|tx| {
                    for v in &vars {
                        tx.read(v)?;
                    }
                    let mut i = 0;
                    b.iter(|| {
                        i = (i + 1) % vars.len();
                        tx.read(&vars[i]).copied()
                    });
                    Ok(())
                })
            });
            g.bench_function(BenchmarkId::new("extend_256", tag), |b| {
                h.atomically(|tx| {
                    for v in &vars {
                        tx.read(v)?;
                    }
                    b.iter(|| tx.extend());
                    Ok(())
                })
            });
            stop.store(true, Ordering::Relaxed);
        });
    }
    let tl2 = Tl2Stm::new(SharedCounter::new());
    bench_read_only(&mut g, "ro_scan_256/tl2/1t", &tl2, 256);
    g.finish();
    for (name, k) in [("2t", 1), ("2t-private", 2)] {
        println!(
            "stm-ops/read-path/ro-scan-{name}-over-1t {:.2} (available_parallelism {})",
            scans_per_s[k] / scans_per_s[0],
            cpus()
        );
    }
}

/// What a scaling ratio has to stand on.
fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How an update transaction opens its two variables.
#[derive(Clone, Copy)]
enum OpenStyle {
    /// `modify`, `modify`: opened by writing, recorded in the write set alone.
    Modify,
    /// read, read, write, write — the bank / wire `Transfer` shape, whose
    /// reads keep their read-set entries and are validated.
    ReadThenWrite,
}

/// Committed two-variable update transactions per second, summed over
/// `threads` threads that run for `window` on the serving default cell
/// (LSA-RT, shared counter): each on a 4096-variable table of its own, or
/// all on one.
fn update_2var_rate(threads: usize, shared_table: bool, style: OpenStyle, window: Duration) -> f64 {
    const VARS: usize = 4096;
    let stm = Stm::new(SharedCounter::new());
    let tables: Vec<Vec<_>> = (0..if shared_table { 1 } else { threads })
        .map(|_| (0..VARS).map(|_| stm.new_tvar(0i64)).collect())
        .collect();
    let start = Barrier::new(threads);
    let rates: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (stm, start, table) = (&stm, &start, &tables[t % tables.len()]);
                s.spawn(move || {
                    let mut h = stm.register();
                    let mut seed = t as u64 + 1;
                    let mut transfer = || {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let a = (seed >> 33) as usize % VARS;
                        let b = (a + 1 + (seed >> 50) as usize % (VARS - 1)) % VARS;
                        let (a, b) = (&table[a], &table[b]);
                        h.atomically(|tx| match style {
                            OpenStyle::Modify => {
                                tx.modify(a, |v| v + 1)?;
                                tx.modify(b, |v| v - 1)
                            }
                            OpenStyle::ReadThenWrite => {
                                let (va, vb) = (*tx.read(a)?, *tx.read(b)?);
                                tx.write(a, va + 1)?;
                                tx.write(b, vb - 1)
                            }
                        })
                    };
                    (0..2_000).for_each(|_| transfer());
                    start.wait();
                    let (begin, mut done) = (Instant::now(), 0u64);
                    while begin.elapsed() < window {
                        (0..256).for_each(|_| transfer());
                        done += 256;
                    }
                    done as f64 / begin.elapsed().as_secs_f64()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    rates.iter().sum()
}

fn update_path() {
    // What two disjoint committers share is the time base and nothing else
    // (DESIGN.md §11), so `private` should scale with the threads until the
    // counter saturates; `shared` adds real conflicts on one table, and
    // `transfer` is the private row's other open style. Each row is the
    // median of three windows.
    let ms = std::env::var("LSA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok());
    let window = Duration::from_millis(ms.unwrap_or(900u64).max(30)) / 3;
    let row = |name: &str, threads: usize, shared_table: bool, style: OpenStyle| {
        let mut rates: Vec<f64> = (0..3)
            .map(|_| update_2var_rate(threads, shared_table, style, window))
            .collect();
        rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        println!(
            "{:<56} {:>12.0} txn/s",
            format!("stm-ops/update-path/{name}/{threads}t"),
            rates[1]
        );
        rates[1]
    };
    let one = row("update_2var_private", 1, false, OpenStyle::Modify);
    let two = row("update_2var_private", 2, false, OpenStyle::Modify);
    row("update_2var_shared", 2, true, OpenStyle::Modify);
    row("transfer_2var_private", 1, false, OpenStyle::ReadThenWrite);
    println!(
        "stm-ops/update-path/private-2t-over-1t {:.2} (available_parallelism {})",
        two / one,
        cpus()
    );
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = read_only_txn, update_txn, extension_ablation, version_depth_ablation, read_path
}
criterion_group! {
    name = read_path_only;
    config = quick();
    targets = read_path
}
fn main() {
    let asked = |group: &str| std::env::args().any(|a| a == group);
    if asked("read-path") {
        return read_path_only();
    }
    if !asked("update-path") {
        benches();
    }
    update_path();
}
