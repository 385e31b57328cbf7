//! The engine registry: every workload × engine × time-base combination the
//! harness can drive, behind one uniform interface.
//!
//! Before the `TxnEngine` refactor each experiment binary hand-wired its own
//! engine setup; adding an engine meant touching every `bin/*.rs`. Now an
//! engine × time-base combination is one [`EngineEntry`] constructed from a
//! factory closure, and every entry can run every [`Workload`] through the
//! same engine-generic runner ([`run_workload`]), serve the open-loop
//! driver, and run the conformance suites. The `matrix` binary prints the
//! full sweep (filterable with `--timebase`) and builds its parameterized
//! rows from [`lsa_external_entry`] and [`lsa_cm_entry`].
//!
//! The time-base axis includes the commit-arbitration variants
//! (`gv4`, `gv5`, `block64` — see `lsa_time::counter`). The adopting GV4
//! and the lazy GV5 appear only under TL2 because LSA requires a
//! commit-monotonic base (its constructor enforces this — see
//! `lsa_stm::Stm::with_cm`); the block counter never adopts, stays
//! commit-monotonic, and runs under both engines.

use crate::open_loop::{completes, run_open_loop, Kind, Outcome, Spec};
use crate::runner::{run_for_pinned, BenchWorker, RunOutcome};
use lsa_baseline::{NorecStm, Tl2Stm, ValidationMode, ValidationStm};
use lsa_engine::{EngineHandle, EngineStats, TxnEngine};
use lsa_stm::cm::{Aggressive, Karma, Polite, Suicide, TimestampCm};
use lsa_stm::{Stm, StmConfig};
use lsa_time::counter::{BlockCounter, Gv4Counter, Gv5Counter, SharedCounter};
use lsa_time::external::ExternalClock;
use lsa_time::hardware::HardwareClock;
use lsa_time::numa::{NumaCounter, NumaModel};
use lsa_time::perfect::PerfectClock;
use lsa_time::sharded::ShardedTimeBase;
use lsa_wire::{Tables, TablesConfig};
use lsa_workloads::{
    DisjointConfig, DisjointWorkload, FastRng, PlacementHint, ScanConfig, ScanWorkload,
};
use std::time::Duration;

/// Shard count of the `lsa-sharded` registry rows. Eight shards on the
/// default round-robin routing gives the bank/intset workloads plenty of
/// cross-shard transactions while keeping per-shard tables non-trivial.
pub const DEFAULT_SHARDS: usize = 8;

/// A workload selection with its parameters.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// One served request mix ([`Kind`]: bank, snapshot, intset or hashset)
    /// over [`Tables`] of the given sizing, run closed-loop by
    /// [`TablesWorker`]s — the requests `open_loop` and the wire server run.
    /// Every reply is checked (a torn audit or a typed error panics the
    /// run), and the runner audits the tables after every run.
    Tables(Kind, TablesConfig),
    /// The §4.2 disjoint-update workload ([`lsa_workloads::disjoint`]).
    Disjoint(DisjointConfig),
    /// Read-only scans ([`lsa_workloads::scan`]) — the §1 validation-cost
    /// shape; every scan asserts the invariant sum.
    Scan(ScanConfig),
}

impl Workload {
    /// Short name for tables and CLI parsing.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Tables(kind, _) => kind.name(),
            Workload::Disjoint(_) => "disjoint",
            Workload::Scan(_) => "scan",
        }
    }

    /// The workload's size: objects per scan, accesses per disjoint
    /// transaction, or the served mixes' bank account count.
    pub fn size(&self) -> usize {
        match self {
            Workload::Tables(_, cfg) => cfg.accounts as usize,
            Workload::Disjoint(cfg) => cfg.accesses_per_tx,
            Workload::Scan(cfg) => cfg.objects,
        }
    }

    /// This workload with `n` objects per transaction: a scan reads `n`
    /// objects, a disjoint transaction makes `n` accesses over
    /// `max(4n, 64)` objects per thread (Figure 2's panel sizing). `None`
    /// for the served mixes, whose requests have fixed shapes.
    pub fn sized(self, n: usize) -> Option<Workload> {
        match self {
            Workload::Tables(..) => None,
            Workload::Disjoint(_) => Some(Workload::Disjoint(DisjointConfig {
                objects_per_thread: (4 * n).max(64),
                accesses_per_tx: n,
            })),
            Workload::Scan(_) => Some(Workload::Scan(ScanConfig { objects: n })),
        }
    }
}

/// A closed-loop worker of one served [`Kind`]: each step draws one
/// request from the kind's mix ([`Kind::draw`]) and runs it with
/// [`Tables::apply`]. A reply that does not complete its request — a torn
/// audit total or a typed error — panics the step.
pub struct TablesWorker<E: TxnEngine> {
    handle: E::Handle,
    tables: Tables<E>,
    kind: Kind,
    rng: FastRng,
}

impl<E: TxnEngine> TablesWorker<E> {
    /// Worker `tid` of `kind` on `tables`, with a fresh handle on `engine`.
    pub fn new(engine: &E, tables: &Tables<E>, kind: Kind, tid: usize) -> Self {
        TablesWorker {
            handle: engine.register(),
            tables: tables.clone(),
            kind,
            rng: FastRng::new(0x7AB1E5 + tid as u64),
        }
    }
}

impl<E: TxnEngine> BenchWorker for TablesWorker<E> {
    fn step(&mut self) {
        let tables = &self.tables;
        let req = self
            .kind
            .draw(&mut self.rng, tables.config(), tables.groups());
        let reply = tables.apply(&mut self.handle, &req);
        assert!(
            completes(&reply, tables.expected_total()),
            "{req:?} answered {reply:?}"
        );
    }

    fn worker_stats(&self) -> EngineStats {
        self.handle.engine_stats()
    }
}

/// Run `workload` on `engine` with `threads` workers for `window`, placing
/// partitions per `placement` (the bank accounts and disjoint partitions
/// are pinned shard-locally under `Partitioned`; scans have no natural
/// partition and ignore it) and, with `pin`, pinning workers to cores
/// (best-effort, see [`crate::runner::run_for_pinned`]).
///
/// This is the single engine-generic entry point every registry entry and
/// experiment shares: one monomorphization per engine type, zero per-engine
/// harness code. After the run, the engine's global memory gauges
/// ([`TxnEngine::memory_stats`]) are sampled once into the outcome — a
/// point-in-time reading, not a per-thread sum.
pub fn run_workload<E: TxnEngine>(
    engine: E,
    workload: &Workload,
    placement: PlacementHint,
    threads: usize,
    window: Duration,
    pin: bool,
) -> RunOutcome {
    let mut out = match workload {
        Workload::Tables(kind, cfg) => {
            let tables = Tables::with_placement(&engine, cfg, placement);
            let out = run_for_pinned(threads, window, pin, |i| {
                TablesWorker::new(&engine, &tables, *kind, i)
            });
            tables.assert_quiescent(&engine);
            out
        }
        Workload::Disjoint(cfg) => {
            let wl = DisjointWorkload::with_placement(engine.clone(), threads, *cfg, placement);
            let out = run_for_pinned(threads, window, pin, |i| wl.worker(i));
            assert_eq!(
                wl.total(),
                out.commits() * cfg.accesses_per_tx as u64,
                "disjoint accounting broken on {}",
                engine.engine_name()
            );
            out
        }
        Workload::Scan(cfg) => {
            // Every scan asserts its invariant sum inside the worker.
            let wl = ScanWorkload::new(engine.clone(), *cfg);
            run_for_pinned(threads, window, pin, |i| wl.worker(i))
        }
    };
    out.stats.memory = engine.memory_stats();
    out
}

/// Type-erased runner stored in an [`EngineEntry`]. The trailing flag is
/// thread pinning (see [`run_workload`]).
type EntryRunner =
    Box<dyn Fn(&Workload, PlacementHint, usize, Duration, bool) -> RunOutcome + Send + Sync>;
type EntryServe = Box<dyn Fn(&Spec) -> Outcome + Send + Sync>;

/// One engine × time-base combination, ready to run any [`Workload`].
pub struct EngineEntry {
    /// Engine family, e.g. `"lsa-rt"`.
    pub engine: String,
    /// Time base (or mode for the validation engine), e.g. `"mmtimer-free"`.
    /// Parameterized entries (external-clock sweeps) carry their parameters
    /// here, e.g. `"external-10us-mv8"`.
    pub time_base: String,
    /// Object-shard count this entry's engine is constructed with
    /// ([`TxnEngine::shards`]; 1 for unsharded engines) — the matrix prints
    /// it as the `shards` column.
    pub shards: usize,
    /// Pin worker threads to cores for this entry's runs (best-effort; set
    /// on the modeled-NUMA cells via [`EngineEntry::pinned`]).
    pub pin: bool,
    run: EntryRunner,
    serve: EntryServe,
    conformance: Box<dyn Fn() + Send + Sync>,
    service_conformance: Box<dyn Fn() + Send + Sync>,
}

impl EngineEntry {
    /// Build an entry from an engine factory. A fresh engine is constructed
    /// per run so successive runs never share state (one throwaway instance
    /// is constructed here to read the static [`TxnEngine::shards`] axis).
    pub fn new<E, F>(engine: impl Into<String>, time_base: impl Into<String>, factory: F) -> Self
    where
        E: TxnEngine,
        F: Fn() -> E + Send + Sync + 'static,
    {
        let factory = std::sync::Arc::new(factory);
        let run_factory = std::sync::Arc::clone(&factory);
        let serve_factory = std::sync::Arc::clone(&factory);
        let service_conf_factory = std::sync::Arc::clone(&factory);
        let shards = factory().shards();
        EngineEntry {
            engine: engine.into(),
            time_base: time_base.into(),
            shards,
            pin: false,
            run: Box::new(move |wl, placement, threads, window, pin| {
                run_workload(run_factory(), wl, placement, threads, window, pin)
            }),
            serve: Box::new(move |spec| run_open_loop(serve_factory(), spec)),
            conformance: Box::new(move || lsa_engine::conformance::full_suite(&factory())),
            service_conformance: Box::new(move || {
                lsa_service::conformance::service_suite(&service_conf_factory())
            }),
        }
    }

    /// Mark this entry's runs as thread-pinned: workers are pinned to cores
    /// before the measurement barrier. Used by the modeled-NUMA
    /// (`numa-altix`) cells, whose per-node time-base state assumes threads
    /// stay put.
    pub fn pinned(mut self) -> Self {
        self.pin = true;
        self
    }

    /// `engine(time_base)` label for output.
    pub fn label(&self) -> String {
        format!("{}({})", self.engine, self.time_base)
    }

    /// Run `workload` on a freshly constructed engine.
    pub fn run(&self, workload: &Workload, threads: usize, window: Duration) -> RunOutcome {
        (self.run)(workload, PlacementHint::Spread, threads, window, self.pin)
    }

    /// [`run`](EngineEntry::run) with an explicit [`PlacementHint`] — the
    /// matrix's `partitioned` vs `spread` contrast.
    pub fn run_placed(
        &self,
        workload: &Workload,
        placement: PlacementHint,
        threads: usize,
        window: Duration,
    ) -> RunOutcome {
        (self.run)(workload, placement, threads, window, self.pin)
    }

    /// Run an open-loop serving benchmark ([`run_open_loop`]) on a freshly
    /// constructed engine, in process or over loopback TCP per
    /// `spec.transport`.
    pub fn serve(&self, spec: &Spec) -> Outcome {
        (self.serve)(spec)
    }

    /// Run the engine-generic conformance suite
    /// ([`lsa_engine::conformance::full_suite`]) on a freshly constructed
    /// engine. Panics on any violation — every entry added to the registry
    /// inherits the full correctness suite through this hook.
    pub fn run_conformance(&self) {
        (self.conformance)()
    }

    /// Run the service-driven conformance suite
    /// ([`lsa_service::conformance::service_suite`]) on a freshly
    /// constructed engine: concurrent request submissions through the
    /// `lsa-service` worker pool must commit a serializable history.
    pub fn run_service_conformance(&self) {
        (self.service_conformance)()
    }
}

/// An LSA-RT entry on an externally synchronized clock with deviation bound
/// `dev_ns` and `versions` retained versions — the parameterized constructor
/// `matrix --dev` (the EXP-ERR sweep) builds its cells from.
pub fn lsa_external_entry(dev_ns: u64, versions: usize) -> EngineEntry {
    EngineEntry::new(
        "lsa-rt",
        format!("external-{}us-mv{}", dev_ns / 1_000, versions),
        move || {
            Stm::with_config(
                ExternalClock::new(dev_ns),
                StmConfig::multi_version(versions),
            )
        },
    )
}

/// A contention-management policy of the LSA runtime (`lsa_stm::cm`), as
/// a registry parameter: [`lsa_cm_entry`] builds one cell per policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmPolicy {
    /// [`Polite`], the runtime's default: back off, then abort the other.
    Polite,
    /// [`Aggressive`]: always abort the other transaction.
    Aggressive,
    /// [`Suicide`]: always abort yourself.
    Suicide,
    /// [`Karma`]: more accumulated work wins.
    Karma,
    /// [`TimestampCm`]: the older transaction wins (needs birth stamps).
    Timestamp,
}

impl CmPolicy {
    /// Every policy, in table order.
    pub const ALL: [CmPolicy; 5] = [
        CmPolicy::Polite,
        CmPolicy::Aggressive,
        CmPolicy::Suicide,
        CmPolicy::Karma,
        CmPolicy::Timestamp,
    ];

    /// The policy's name, as `ContentionManager::name` reports it.
    pub fn name(self) -> &'static str {
        match self {
            CmPolicy::Polite => "polite",
            CmPolicy::Aggressive => "aggressive",
            CmPolicy::Suicide => "suicide",
            CmPolicy::Karma => "karma",
            CmPolicy::Timestamp => "timestamp",
        }
    }

    /// Parse a policy name.
    pub fn parse(s: &str) -> Option<CmPolicy> {
        CmPolicy::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// An LSA-RT entry on the perfect clock with the default configuration and
/// contention manager `policy` — the cells of `matrix --cm` (the §2.3
/// EXP-CM ablation). The time-base label names the policy, e.g.
/// `perfect-cm-karma`.
pub fn lsa_cm_entry(policy: CmPolicy) -> EngineEntry {
    EngineEntry::new(
        "lsa-rt",
        format!("perfect-cm-{}", policy.name()),
        move || {
            let (tb, cfg) = (PerfectClock::new(), StmConfig::default());
            match policy {
                CmPolicy::Polite => Stm::with_cm(tb, cfg, Polite::default()),
                CmPolicy::Aggressive => Stm::with_cm(tb, cfg, Aggressive),
                CmPolicy::Suicide => Stm::with_cm(tb, cfg, Suicide),
                CmPolicy::Karma => Stm::with_cm(tb, cfg, Karma),
                CmPolicy::Timestamp => Stm::with_cm(tb, cfg, TimestampCm::default()),
            }
        },
    )
}

/// The default registry: LSA-RT, TL2, the validation STM and NOrec, each on
/// every time base (or mode) it supports — the cross-engine design-space
/// matrix of the paper's §1.2, commit-arbitration variants included. GV4
/// and GV5 are TL2-only: LSA rejects non-commit-monotonic bases by
/// construction (GV4 adoption commits at previously readable values, GV5
/// commit times run ahead of the readable counter).
pub fn default_registry() -> Vec<EngineEntry> {
    vec![
        EngineEntry::new(
            "lsa-rt",
            "shared-counter",
            || Stm::new(SharedCounter::new()),
        ),
        EngineEntry::new("lsa-rt", "block64", || Stm::new(BlockCounter::new(64))),
        EngineEntry::new("lsa-rt", "perfect", || Stm::new(PerfectClock::new())),
        EngineEntry::new("lsa-rt", "mmtimer-free", || {
            Stm::new(HardwareClock::mmtimer_free())
        }),
        EngineEntry::new("lsa-rt", "mmtimer", || Stm::new(HardwareClock::mmtimer())),
        EngineEntry::new("lsa-rt", "numa-altix", || {
            Stm::new(NumaCounter::new(NumaModel::altix()))
        })
        .pinned(),
        EngineEntry::new("lsa-rt", "external-10us", || {
            Stm::with_config(ExternalClock::new(10_000), StmConfig::multi_version(8))
        }),
        // LSA-RT on the sharded composite base: disjoint object shards,
        // per-shard arbitration, cross-shard two-phase commits (DESIGN.md
        // §9). Only composable bases appear — the composite rejects gv4/gv5
        // (not commit-monotonic) and real-time bases (best-effort blocks).
        EngineEntry::new("lsa-sharded", "shared-counter", || {
            Stm::new(ShardedTimeBase::new(SharedCounter::new(), DEFAULT_SHARDS))
        }),
        EngineEntry::new("lsa-sharded", "block64", || {
            Stm::new(ShardedTimeBase::new(BlockCounter::new(64), DEFAULT_SHARDS))
        }),
        EngineEntry::new("lsa-sharded", "numa-altix", || {
            Stm::new(ShardedTimeBase::new(
                NumaCounter::new(NumaModel::altix()),
                DEFAULT_SHARDS,
            ))
        })
        .pinned(),
        EngineEntry::new(
            "tl2",
            "shared-counter",
            || Tl2Stm::new(SharedCounter::new()),
        ),
        EngineEntry::new("tl2", "gv4", || Tl2Stm::new(Gv4Counter::new())),
        EngineEntry::new("tl2", "gv5", || Tl2Stm::new(Gv5Counter::new())),
        EngineEntry::new("tl2", "block64", || Tl2Stm::new(BlockCounter::new(64))),
        EngineEntry::new("tl2", "perfect", || Tl2Stm::new(PerfectClock::new())),
        EngineEntry::new("tl2", "mmtimer-free", || {
            Tl2Stm::new(HardwareClock::mmtimer_free())
        }),
        EngineEntry::new("validation", "always", || {
            ValidationStm::new(ValidationMode::Always)
        }),
        EngineEntry::new("validation", "commit-counter", || {
            ValidationStm::new(ValidationMode::CommitCounter)
        }),
        EngineEntry::new("norec", "seqlock", NorecStm::new),
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::run_steps;
    use lsa_wire::Request;

    /// Find a registry entry by engine family and time-base name.
    fn find_entry<'r>(
        registry: &'r [EngineEntry],
        engine: &str,
        time_base: &str,
    ) -> Option<&'r EngineEntry> {
        registry
            .iter()
            .find(|e| e.engine == engine && e.time_base == time_base)
    }

    /// `threads` workers of `kind` run `steps` each on tables sized by
    /// `cfg`, then the tables are audited.
    pub(crate) fn run_kind<E: TxnEngine>(
        engine: E,
        kind: Kind,
        cfg: &TablesConfig,
        threads: usize,
        steps: u64,
    ) -> RunOutcome {
        let tables = Tables::build(&engine, cfg);
        let out = run_steps(threads, steps, |i| {
            TablesWorker::new(&engine, &tables, kind, i)
        });
        tables.assert_quiescent(&engine);
        out
    }

    /// `n` copies of `req` on one fresh handle, each reply checked; returns
    /// the handle's stats.
    pub(crate) fn apply_n<E: TxnEngine>(
        engine: E,
        cfg: &TablesConfig,
        req: Request,
        n: usize,
    ) -> EngineStats {
        let tables = Tables::build(&engine, cfg);
        let mut h = engine.register();
        for _ in 0..n {
            let reply = tables.apply(&mut h, &req);
            assert!(completes(&reply, tables.expected_total()), "{reply:?}");
        }
        h.engine_stats()
    }

    #[test]
    fn registry_spans_four_engines_and_multiple_time_bases() {
        let reg = default_registry();
        let engines: std::collections::BTreeSet<_> =
            reg.iter().map(|e| e.engine.as_str()).collect();
        assert!(
            engines.len() >= 4,
            "need >= 4 engine families, got {engines:?}"
        );
        assert!(
            engines.contains("norec"),
            "value-validation engine missing from the registry"
        );
        let lsa_bases = reg.iter().filter(|e| e.engine == "lsa-rt").count();
        let tl2_bases = reg.iter().filter(|e| e.engine == "tl2").count();
        assert!(
            lsa_bases >= 2 && tl2_bases >= 2,
            "need >= 2 time bases per engine"
        );
    }

    #[test]
    fn arbitration_rows_are_registered() {
        let reg = default_registry();
        for (engine, tb) in [
            ("lsa-rt", "block64"),
            ("tl2", "gv4"),
            ("tl2", "gv5"),
            ("tl2", "block64"),
        ] {
            assert!(
                find_entry(&reg, engine, tb).is_some(),
                "missing {engine}({tb}) row"
            );
        }
        // GV4 and GV5 must NOT be paired with LSA: the engine rejects
        // non-commit-monotonic bases (see lsa_stm::Stm::with_cm) — GV4
        // adoption commits at previously readable values, GV5 commit times
        // run ahead of the readable counter.
        assert!(find_entry(&reg, "lsa-rt", "gv4").is_none());
        assert!(find_entry(&reg, "lsa-rt", "gv5").is_none());
    }

    #[test]
    fn every_entry_runs_the_bank_workload() {
        let wl = Workload::Tables(Kind::Bank, TablesConfig::default());
        for entry in default_registry() {
            let out = entry.run(&wl, 2, Duration::from_millis(10));
            assert!(
                out.commits() > 0,
                "{} committed nothing on the bank workload",
                entry.label()
            );
        }
    }

    #[test]
    fn every_entry_runs_the_disjoint_workload() {
        let wl = Workload::Disjoint(DisjointConfig {
            objects_per_thread: 16,
            accesses_per_tx: 4,
        });
        for entry in default_registry() {
            let out = entry.run(&wl, 2, Duration::from_millis(5));
            assert!(out.commits() > 0, "{} committed nothing", entry.label());
            if entry.time_base == "gv5" {
                // GV5's counter lags even a thread's own commits, so every
                // update transaction pays ~1 catch-up abort — the price of
                // the load-only commit path, visible by design.
                continue;
            }
            assert_eq!(
                out.stats.aborts,
                0,
                "{} aborted on disjoint work",
                entry.label()
            );
        }
    }

    #[test]
    fn sharded_rows_are_registered_and_report_cross_shard_commits() {
        let reg = default_registry();
        let sharded: Vec<_> = reg.iter().filter(|e| e.engine == "lsa-sharded").collect();
        assert!(
            sharded.len() >= 3,
            "need >= 3 lsa-sharded cells, got {}",
            sharded.len()
        );
        for tb in ["shared-counter", "block64", "numa-altix"] {
            let entry = find_entry(&reg, "lsa-sharded", tb)
                .unwrap_or_else(|| panic!("missing lsa-sharded({tb}) row"));
            assert_eq!(entry.shards, DEFAULT_SHARDS, "shard axis not surfaced");
        }
        assert_eq!(
            find_entry(&reg, "lsa-rt", "shared-counter").unwrap().shards,
            1,
            "unsharded engines report one shard"
        );
        // The bank workload spreads accounts round-robin across shards, so
        // transfers span shards and the cross-shard protocol must fire.
        let entry = find_entry(&reg, "lsa-sharded", "shared-counter").unwrap();
        let out = entry.run(
            &Workload::Tables(Kind::Bank, TablesConfig::default()),
            2,
            Duration::from_millis(20),
        );
        assert!(out.commits() > 0);
        assert!(
            out.stats.cross_shard_commits > 0,
            "bank transfers on 8 shards must escalate to cross-shard commits"
        );
    }

    #[test]
    fn numa_rows_are_pinned_and_memory_gauges_flow() {
        let reg = default_registry();
        assert!(find_entry(&reg, "lsa-rt", "numa-altix").unwrap().pin);
        assert!(find_entry(&reg, "lsa-sharded", "numa-altix").unwrap().pin);
        assert!(
            !find_entry(&reg, "lsa-rt", "shared-counter").unwrap().pin,
            "only the modeled-NUMA cells pin by default"
        );
        // Any LSA run must surface the version-store gauges in its outcome:
        // the bank's account objects alone hold live versions.
        let entry = find_entry(&reg, "lsa-rt", "shared-counter").unwrap();
        let out = entry.run(
            &Workload::Tables(Kind::Bank, TablesConfig::default()),
            2,
            Duration::from_millis(10),
        );
        assert!(
            out.stats.memory.versions_live >= 8,
            "live-version gauge not sampled: {:?}",
            out.stats.memory
        );
    }

    #[test]
    fn every_entry_runs_the_intset_workload() {
        let wl = Workload::Tables(Kind::Intset, TablesConfig::default());
        for entry in default_registry() {
            let out = entry.run(&wl, 2, Duration::from_millis(5));
            assert!(out.commits() > 0, "{} committed nothing", entry.label());
        }
    }

    #[test]
    fn every_entry_runs_the_hashset_workload() {
        let wl = Workload::Tables(Kind::Hashset, TablesConfig::default());
        for entry in default_registry() {
            let out = entry.run(&wl, 2, Duration::from_millis(5));
            assert!(out.commits() > 0, "{} committed nothing", entry.label());
        }
    }

    #[test]
    fn every_entry_runs_the_scan_workload() {
        let wl = Workload::Scan(ScanConfig { objects: 12 });
        for entry in default_registry() {
            let out = entry.run(&wl, 2, Duration::from_millis(5));
            assert!(out.commits() > 0, "{} scanned nothing", entry.label());
            assert_eq!(
                out.stats.commits,
                0,
                "{} scans must be read-only",
                entry.label()
            );
        }
    }

    #[test]
    fn every_entry_runs_the_snapshot_workload() {
        let wl = Workload::Tables(Kind::Snapshot, TablesConfig::default());
        for entry in default_registry() {
            let out = entry.run(&wl, 2, Duration::from_millis(5));
            assert!(out.commits() > 0, "{} committed nothing", entry.label());
            assert!(
                out.stats.ro_commits > 0,
                "{} ran no analytics scans",
                entry.label()
            );
        }
    }

    #[test]
    fn placement_contrast_on_the_sharded_row() {
        let reg = default_registry();
        let entry = find_entry(&reg, "lsa-sharded", "shared-counter").unwrap();
        let wl = Workload::Tables(Kind::Bank, TablesConfig::default());
        let spread = entry.run_placed(&wl, PlacementHint::Spread, 2, Duration::from_millis(15));
        let part = entry.run_placed(
            &wl,
            PlacementHint::Partitioned,
            2,
            Duration::from_millis(15),
        );
        assert!(
            spread.stats.cross_shard_commits > 0,
            "spread transfers must cross shards"
        );
        assert_eq!(
            part.stats.cross_shard_commits, 0,
            "partitioned transfers must stay shard-local"
        );
    }

    /// The `serve` hook runs a bank mix over `transport` on an LSA row and
    /// a sharded row without losing a request.
    fn entries_serve_bank_over(transport: crate::open_loop::Transport) {
        let reg = default_registry();
        for (engine, tb) in [("lsa-rt", "shared-counter"), ("lsa-sharded", "block64")] {
            let entry = find_entry(&reg, engine, tb).unwrap();
            let out = entry.serve(&Spec {
                transport,
                kind: crate::open_loop::Kind::Bank,
                rate: 1_000.0,
                duration: Duration::from_millis(60),
                rounds: 1,
                workers: 2,
                queue_depth: 64,
                window: 32,
                conns: 2,
            });
            let cell = format!("{engine}({tb}) over {}", transport.name());
            assert!(out.completed > 0, "{cell} served nothing");
            assert_eq!(out.errors, 0, "{cell} lost requests");
            assert_eq!(out.completed + out.shed + out.errors, out.offered);
        }
    }

    #[test]
    fn entries_serve_open_loop_requests() {
        entries_serve_bank_over(crate::open_loop::Transport::Service);
    }

    #[test]
    fn entries_serve_requests_over_the_wire() {
        entries_serve_bank_over(crate::open_loop::Transport::Wire);
    }

    #[test]
    fn service_conformance_hook_runs() {
        let reg = default_registry();
        let entry = find_entry(&reg, "lsa-rt", "shared-counter").unwrap();
        entry.run_service_conformance();
    }

    #[test]
    fn parameterized_external_entries_label_and_run() {
        let entry = lsa_external_entry(10_000, 8);
        assert_eq!(entry.label(), "lsa-rt(external-10us-mv8)");
        let out = entry.run(
            &Workload::Tables(Kind::Bank, TablesConfig::default()),
            2,
            Duration::from_millis(5),
        );
        assert!(out.commits() > 0);
    }

    /// Every contention-manager cell passes the engine-generic conformance
    /// suite (`write_skew_forbidden` included); a failure names its cell.
    #[test]
    fn every_cm_policy_passes_the_conformance_suite() {
        for policy in CmPolicy::ALL {
            let entry = lsa_cm_entry(policy);
            assert_eq!(
                entry.label(),
                format!("lsa-rt(perfect-cm-{})", policy.name())
            );
            let run =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry.run_conformance()));
            if let Err(payload) = run {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                panic!("{} failed the conformance suite: {msg}", entry.label());
            }
        }
    }
}
