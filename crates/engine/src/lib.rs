//! # lsa-engine — the engine abstraction of the workspace
//!
//! The SPAA'07 paper's central claim is that the LSA algorithm is decoupled
//! from its *time base*. This crate decouples the rest of the workspace from
//! its *engine*: the [`TxnEngine`] trait family is implemented by
//! `lsa_stm::Stm` (LSA-RT, sharded or not) and by the one baseline runtime
//! behind `lsa_baseline::Tl2Stm`, `lsa_baseline::ValidationStm` and
//! `lsa_baseline::NorecStm`, so every workload, experiment and test can run
//! on any engine × time-base combination — the design-space matrix the
//! paper's §1.2 surveys (validation-based vs time-based, single- vs
//! multi-version, counter vs real-time clock).
//!
//! ## The trait family
//!
//! * [`TxnEngine`] — an STM runtime: creates transactional variables
//!   ([`TxnEngine::Var`], a generic associated type) and registers threads.
//! * [`EngineHandle`] — a registered thread: runs transaction bodies with
//!   retry-on-abort ([`EngineHandle::atomically`]) and exposes the shared
//!   statistics surface ([`EngineStats`]).
//! * [`TxnOps`] — the operations available *inside* a transaction body:
//!   [`read`](TxnOps::read), [`write`](TxnOps::write),
//!   [`modify`](TxnOps::modify). A read *lends* its value: it returns a
//!   `&T` borrowed from the transaction's own read (or write) set, which
//!   lives until the transaction's next operation — copy or clone it to
//!   keep it (`*tx.read(&v)?`). No engine clones a value for the caller.
//!   Abort values stay engine-specific ([`TxnEngine::Abort`]) and propagate
//!   with `?` exactly like in engine-native code.
//!
//! ## Writing engine-generic code
//!
//! ```
//! use lsa_engine::{EngineHandle, TxnEngine, TxnOps};
//!
//! /// Transfer between two accounts on ANY engine.
//! fn transfer<E: TxnEngine>(e: &E, h: &mut E::Handle, amount: i64) -> i64 {
//!     let a = e.new_var(100i64);
//!     let b = e.new_var(0i64);
//!     h.atomically(|tx| {
//!         // Each read is a borrow until the next operation: copy it out.
//!         let va = *tx.read(&a)?;
//!         let vb = *tx.read(&b)?;
//!         tx.write(&a, va - amount)?;
//!         tx.write(&b, vb + amount)?;
//!         Ok(va - amount)
//!     })
//! }
//! ```
//!
//! A new backend costs one trait impl — or, for one more single-version
//! baseline, one protocol of `lsa-baseline`'s runtime — not a fork of the
//! workloads and the harness. See `DESIGN.md` §5 for the implementation
//! notes per engine.
//!
//! ## Shared engine-layer types
//!
//! [`IdMap`] ([`idmap`]) is the table every engine's transaction path and
//! the wire client key by runtime-allocated ids, with the retention rule
//! their per-handle scratch is recycled under. [`StatsShard`] ([`stats`]) is
//! where every handle counts: [`EngineStats`] is the one statistics struct.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod conformance;
pub mod idmap;
pub mod stats;

pub use idmap::{IdHasher, IdMap};
pub use stats::{Stat, StatsDomain, StatsShard};

use std::fmt;
use std::sync::Arc;

/// Shorthand for an engine's abort type.
pub type EngineAbort<E> = <E as TxnEngine>::Abort;

/// Shorthand for an engine's transactional-variable type.
pub type EngineVar<E, T> = <E as TxnEngine>::Var<T>;

/// Result of one transactional operation (or of a whole body) on engine `E`.
pub type EngineResult<R, E> = Result<R, EngineAbort<E>>;

/// A software-transactional-memory runtime.
///
/// Implementations are cheap to clone (reference-counted internally) and
/// sharable across threads; per-thread access goes through
/// [`register`](TxnEngine::register).
pub trait TxnEngine: Clone + Send + Sync + 'static {
    /// The engine's abort/error value, propagated with `?` through
    /// transaction bodies. Aborts are control flow, not failures: the
    /// [`EngineHandle::atomically`] loop catches them and re-runs the body.
    type Abort: fmt::Debug + Send + 'static;

    /// The engine's transactional variable holding a `T`. Cloning a var is
    /// cloning a reference to the same shared object.
    type Var<T: Send + Sync + 'static>: Clone + Send + Sync + 'static;

    /// The per-thread handle produced by [`register`](TxnEngine::register).
    type Handle: EngineHandle<Engine = Self>;

    /// Create a transactional variable initialized to `value`.
    fn new_var<T: Send + Sync + 'static>(&self, value: T) -> Self::Var<T>;

    /// Create a transactional variable with a *placement hint*: ask the
    /// engine to home the object on shard `shard % shards()`. Unsharded
    /// engines ignore the hint (the default), so workload code can pin its
    /// partitions unconditionally — on `lsa-sharded` the hint routes the
    /// object shard-locally (`Stm::new_tvar_on`), everywhere else it
    /// degenerates to [`new_var`](TxnEngine::new_var).
    fn new_var_on<T: Send + Sync + 'static>(&self, shard: usize, value: T) -> Self::Var<T> {
        let _ = shard;
        self.new_var(value)
    }

    /// Register the calling thread, allocating its clock/stats state.
    fn register(&self) -> Self::Handle;

    /// Human-readable engine identifier for experiment output, including the
    /// time base or mode, e.g. `"lsa-rt(mmtimer)"` or `"validation(always)"`.
    fn engine_name(&self) -> String;

    /// Number of disjoint object shards this engine instance routes objects
    /// across. Unsharded engines report 1 (the default); sharded engines
    /// report the shard count they were constructed with, which is how the
    /// harness surfaces the construction-time shard axis without widening
    /// every constructor signature.
    fn shards(&self) -> usize {
        1
    }

    /// The latest committed value of `var`, read non-transactionally. Only
    /// meaningful while no update transactions are in flight (seeding,
    /// post-run audits).
    fn peek<T: Send + Sync + 'static>(var: &Self::Var<T>) -> Arc<T>;

    /// Point-in-time sample of the engine's **global** version-store memory
    /// gauges (live/retired/reclaimed version counts, arena bytes, watermark
    /// lag). Unlike [`EngineHandle::engine_stats`] these are engine-wide —
    /// dropped handles' counts included — and the harness samples them once
    /// per run and attaches them to the aggregated [`EngineStats`]. Engines
    /// without a managed version store report all zeros (the default).
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats::default()
    }
}

/// A registered thread of a [`TxnEngine`]: the gateway to running
/// transactions.
pub trait EngineHandle: Send + 'static {
    /// The owning engine type.
    type Engine: TxnEngine<Handle = Self>;

    /// The engine's in-flight transaction view, borrowing from the handle
    /// for the duration `'t` of one attempt.
    type Txn<'t>: TxnOps<Engine = Self::Engine>
    where
        Self: 't;

    /// Run `body` as a transaction, retrying on abort until it commits, and
    /// return its result. `body` must route every shared access through the
    /// provided [`TxnOps`] view and propagate aborts with `?`; side effects
    /// outside the STM must be idempotent because the body re-runs after an
    /// abort.
    fn atomically<R, F>(&mut self, body: F) -> R
    where
        F: for<'t> FnMut(&mut Self::Txn<'t>) -> EngineResult<R, Self::Engine>;

    /// The [`StatsShard`] this handle counts into — written by the handle
    /// alone, readable from any thread for as long as the `Arc` is held.
    fn stats_shard(&self) -> &Arc<StatsShard>;

    /// Snapshot of the statistics this handle has counted since it was
    /// registered.
    fn engine_stats(&self) -> EngineStats {
        self.stats_shard().engine_stats()
    }
}

/// Operations available inside a transaction body, shared by every engine.
pub trait TxnOps {
    /// The owning engine type.
    type Engine: TxnEngine;

    /// Transactional read of `var`'s value within this transaction's
    /// snapshot (read-own-write included).
    ///
    /// The value is *lent*, not cloned: the borrow lives until the
    /// transaction's next operation, which the `&mut self` receiver
    /// enforces. Copy or clone it to keep it past that — `*tx.read(v)?` for
    /// a `Copy` payload.
    fn read<'t, T: Send + Sync + 'static>(
        &'t mut self,
        var: &EngineVar<Self::Engine, T>,
    ) -> EngineResult<&'t T, Self::Engine>;

    /// Transactional write of `value` to `var`, visible to this transaction
    /// immediately and to others after commit.
    fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &EngineVar<Self::Engine, T>,
        value: T,
    ) -> EngineResult<(), Self::Engine>;

    /// Read-modify-write convenience: applies `f` to the current value (the
    /// transaction's own pending write if any) and writes the result. Keep
    /// `f` a pure function of its argument: an engine may run it under the
    /// variable's lock (LSA does), where touching any variable deadlocks.
    fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &EngineVar<Self::Engine, T>,
        f: impl FnOnce(&T) -> T,
    ) -> EngineResult<(), Self::Engine>;
}

/// Coarse abort classes shared by every engine — the cross-engine taxonomy
/// the harness and the service front-end report without hand-wiring each
/// engine's native reason enum.
///
/// Each engine maps its internal abort causes onto these classes in its
/// `TxnEngine` glue: LSA-RT folds `Validation`/`Snapshot` aborts into
/// [`Validation`](AbortClass::Validation) and keeps `NoVersion` separate
/// (the §4.3 split); lock-acquisition failures and contention-manager kills
/// land in [`Contention`](AbortClass::Contention);
/// [`Overload`](AbortClass::Overload) is never produced by an engine — it
/// counts admission-control sheds recorded by the `lsa-service` front-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortClass {
    /// A consistency check failed: commit/read-time validation, snapshot
    /// invalidation, value revalidation.
    Validation,
    /// No object version overlapped the transaction's validity range
    /// (multi-version engines only).
    NoVersion,
    /// Lost a conflict: lock busy, contention-manager loser, killed.
    Contention,
    /// Shed by admission control before execution (service front-end only).
    Overload,
}

impl AbortClass {
    /// All classes, in reporting order.
    pub const ALL: [AbortClass; 4] = [
        AbortClass::Validation,
        AbortClass::NoVersion,
        AbortClass::Contention,
        AbortClass::Overload,
    ];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            AbortClass::Validation => "validation",
            AbortClass::NoVersion => "no-version",
            AbortClass::Contention => "contention",
            AbortClass::Overload => "overload",
        }
    }
}

impl fmt::Display for AbortClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Abort counts broken down by [`AbortClass`] — the cross-engine abort-reason
/// taxonomy (ROADMAP: "add an abort-reason taxonomy to `EngineStats` instead
/// of hand-wiring engines").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbortReasons {
    /// Consistency-check failures (validation / snapshot / revalidation).
    pub validation: u64,
    /// Validity-range intersection came up empty (multi-version engines).
    pub no_version: u64,
    /// Lost conflicts (lock busy, CM loser, killed, explicit retry).
    pub contention: u64,
    /// Requests shed by the service front-end's admission control.
    pub overload: u64,
}

impl AbortReasons {
    /// Total classified aborts (overload sheds included).
    pub fn total(&self) -> u64 {
        self.validation + self.no_version + self.contention + self.overload
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &AbortReasons) {
        self.validation += other.validation;
        self.no_version += other.no_version;
        self.contention += other.contention;
        self.overload += other.overload;
    }
}

impl fmt::Display for AbortReasons {
    /// Compact `v/nv/ct/ov` rendering used by the matrix column.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.validation, self.no_version, self.contention, self.overload
        )
    }
}

/// Version-store memory gauges sampled from an engine (ROADMAP:
/// "Bounded-memory MVCC: epoch-based version GC").
///
/// These are **global point-in-time samples**, not per-thread counters: the
/// harness reads them once from [`TxnEngine::memory_stats`] after a run. The
/// counters `versions_retired` / `versions_reclaimed` are monotone over the
/// engine's lifetime; `versions_live`, `arena_bytes` and `watermark_lag` are
/// instantaneous gauges. [`merge`](MemoryStats::merge) therefore keeps the
/// element-wise **maximum** of two samples (the conservative bound when
/// samples from the same engine meet), never the sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Committed versions currently reachable through some object's chain.
    pub versions_live: u64,
    /// Versions unlinked from their chain (superseded and pruned, or evicted
    /// by the `max_versions` ceiling) over the engine's lifetime.
    pub versions_retired: u64,
    /// Retired versions whose storage was actually released or recycled
    /// through the arena. `retired - reclaimed` versions sit in thread-local
    /// arena pools awaiting reuse.
    pub versions_reclaimed: u64,
    /// Retired nodes sitting in per-handle pools right now.
    pub versions_pooled: u64,
    /// Retired nodes the arena handed out again.
    pub versions_recycled: u64,
    /// Approximate bytes of version metadata held by live versions plus
    /// pooled arena nodes (a lower bound: payload bytes are workload-owned).
    pub arena_bytes: u64,
    /// Distance, in the time base's raw units, between the time-base reading
    /// taken at the last watermark advance and the watermark itself — how far
    /// reclamation trails the present. 0 until the first advance.
    pub watermark_lag: u64,
}

impl MemoryStats {
    /// Merge another sample, keeping the element-wise maximum (see the type
    /// docs for why gauges must not be summed).
    pub fn merge(&mut self, other: &MemoryStats) {
        self.versions_live = self.versions_live.max(other.versions_live);
        self.versions_retired = self.versions_retired.max(other.versions_retired);
        self.versions_reclaimed = self.versions_reclaimed.max(other.versions_reclaimed);
        self.versions_pooled = self.versions_pooled.max(other.versions_pooled);
        self.versions_recycled = self.versions_recycled.max(other.versions_recycled);
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.watermark_lag = self.watermark_lag.max(other.watermark_lag);
    }
}

impl fmt::Display for MemoryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "live={} retired={} reclaimed={} pooled={} recycled={} arena-bytes={} wm-lag={}",
            self.versions_live,
            self.versions_retired,
            self.versions_reclaimed,
            self.versions_pooled,
            self.versions_recycled,
            self.arena_bytes,
            self.watermark_lag
        )
    }
}

/// The statistics of every engine: the one struct a handle's
/// [`StatsShard`] reads out as. A counter only one engine has reads 0 on
/// the others (`helps` and `wm_advances` are LSA's, `fastpath_commits`
/// TL2's, `cross_shard_commits` a sharded LSA's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed update transactions.
    pub commits: u64,
    /// Committed read-only transactions.
    pub ro_commits: u64,
    /// Aborted transaction attempts (all causes). Every engine re-runs the
    /// body once per aborted attempt, so this is also the retry count.
    pub aborts: u64,
    /// Aborts broken down by the cross-engine [`AbortClass`] taxonomy. For
    /// engine-produced stats `validation + no_version + contention ==
    /// aborts`; the service front-end additionally records admission sheds
    /// under `overload` (those are rejected requests, not transaction
    /// attempts, so they do not count into `aborts`).
    pub abort_reasons: AbortReasons,
    /// Transactional object reads.
    pub reads: u64,
    /// Transactional object writes.
    pub writes: u64,
    /// Full read-set (re)validations performed. For value-based engines
    /// (NOrec, the validation STM) this is the dominant consistency cost;
    /// for TL2 it counts commit-time read-set checks and for LSA snapshot
    /// extensions (Algorithm 3 lines 1–6). Zero means consistency was
    /// established by timestamps alone.
    pub validations: u64,
    /// Revalidations that failed and doomed the attempt — the conflicts the
    /// validation work actually caught (on LSA: commit-time validations).
    pub revalidation_failures: u64,
    /// Read-set entries examined across all validations — the linear factor
    /// in validation cost ("the validation overhead grows linearly with the
    /// number of objects a transaction has read so far", §1).
    pub validated_entries: u64,
    /// Shared-class commit timestamps from the time base's arbitration
    /// (GV4 pass-on-failed-CAS — winners included, since losers adopt
    /// their values — and GV5 read-derived values) instead of exclusively
    /// owned ones. Zero on bases whose commit times are globally unique
    /// (shared counter, block) and on value-based engines. Counted when the
    /// attempt commits, so it never exceeds `commits`.
    pub shared_commit_ts: u64,
    /// Committed update transactions that touched objects on two or more
    /// shards and therefore escalated to the cross-shard commit protocol
    /// (per-shard commit-timestamp acquisition before the atomic
    /// status-word publish). Always zero on unsharded engines.
    pub cross_shard_commits: u64,
    /// Commits completed on behalf of other transactions (LSA's helping,
    /// Algorithm 3 line 13).
    pub helps: u64,
    /// Write-write conflicts submitted to the contention manager (LSA).
    pub conflicts: u64,
    /// Watermark advances installed by this handle (LSA's lazy
    /// reclamation, amortized over its commits).
    pub wm_advances: u64,
    /// Commits that skipped read-set validation because the arbitration
    /// proved exclusivity (TL2's `wv == rv + 1` fast path).
    pub fastpath_commits: u64,
    /// Version-store memory gauges sampled from the engine after the run
    /// (see [`MemoryStats`]); all zeros for per-thread snapshots and for
    /// engines without a managed version store.
    pub memory: MemoryStats,
}

impl EngineStats {
    /// Total commits (update + read-only).
    pub fn total_commits(&self) -> u64 {
        self.commits + self.ro_commits
    }

    /// Aborts per commit (0 when nothing committed).
    pub fn abort_ratio(&self) -> f64 {
        ratio(self.aborts, self.total_commits())
    }

    /// Full read-set validations per commit (0 when nothing committed) —
    /// the value-validation cost metric the harness reports per engine.
    pub fn validations_per_commit(&self) -> f64 {
        ratio(self.validations, self.total_commits())
    }

    /// Shared (adopted) commit timestamps per update commit — how often the
    /// base's arbitration tricks actually fired (0 when nothing committed).
    pub fn shared_ts_per_commit(&self) -> f64 {
        ratio(self.shared_commit_ts, self.commits)
    }

    /// Cross-shard commits per update commit — how often transactions
    /// actually spanned shards and escalated to the cross-shard protocol
    /// (0 when nothing committed, and on unsharded engines).
    pub fn cross_shard_per_commit(&self) -> f64 {
        ratio(self.cross_shard_commits, self.commits)
    }

    /// Merge another thread's counters into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        self.commits += other.commits;
        self.ro_commits += other.ro_commits;
        self.aborts += other.aborts;
        self.abort_reasons.merge(&other.abort_reasons);
        self.reads += other.reads;
        self.writes += other.writes;
        self.validations += other.validations;
        self.revalidation_failures += other.revalidation_failures;
        self.validated_entries += other.validated_entries;
        self.shared_commit_ts += other.shared_commit_ts;
        self.cross_shard_commits += other.cross_shard_commits;
        self.helps += other.helps;
        self.conflicts += other.conflicts;
        self.wm_advances += other.wm_advances;
        self.fastpath_commits += other.fastpath_commits;
        self.memory.merge(&other.memory);
    }
}

/// `n / d`, or 0 when `d` is.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "commits={} (ro={}) aborts={} [{}] reads={} writes={} \
             validations={} (failed={}, entries={}) shared-ts={} xshard={} \
             helps={} conflicts={} wm-adv={} fastpath={} mem[{}]",
            self.total_commits(),
            self.ro_commits,
            self.aborts,
            self.abort_reasons,
            self.reads,
            self.writes,
            self.validations,
            self.revalidation_failures,
            self.validated_entries,
            self.shared_commit_ts,
            self.cross_shard_commits,
            self.helps,
            self.conflicts,
            self.wm_advances,
            self.fastpath_commits,
            self.memory
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_ratios() {
        let mut a = EngineStats {
            commits: 2,
            aborts: 1,
            ..Default::default()
        };
        let b = EngineStats {
            commits: 2,
            ro_commits: 4,
            aborts: 3,
            abort_reasons: AbortReasons {
                validation: 2,
                contention: 1,
                ..Default::default()
            },
            validations: 6,
            revalidation_failures: 2,
            validated_entries: 18,
            shared_commit_ts: 2,
            cross_shard_commits: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total_commits(), 8);
        assert_eq!(a.aborts, 4);
        assert_eq!(a.abort_reasons.validation, 2);
        assert_eq!(a.abort_reasons.contention, 1);
        assert_eq!(a.abort_reasons.total(), 3);
        assert_eq!(a.abort_ratio(), 0.5);
        assert_eq!(a.validations, 6);
        assert_eq!(a.revalidation_failures, 2);
        assert_eq!(a.validated_entries, 18);
        assert_eq!(a.shared_commit_ts, 2);
        assert_eq!(a.cross_shard_commits, 3);
        assert_eq!(a.validations_per_commit(), 0.75);
        assert_eq!(a.shared_ts_per_commit(), 0.5);
        assert_eq!(a.cross_shard_per_commit(), 0.75);
        assert!(a.to_string().contains("commits=8"));
        assert!(a
            .to_string()
            .contains("validations=6 (failed=2, entries=18) shared-ts=2"));
    }

    #[test]
    fn abort_reasons_record_and_render() {
        let shard = StatsShard::default();
        for class in [AbortClass::Validation, AbortClass::Validation] {
            shard.abort(class);
        }
        shard.abort(AbortClass::NoVersion);
        shard.abort(AbortClass::Overload);
        let r = shard.engine_stats().abort_reasons;
        assert_eq!(
            (r.validation, r.no_version, r.contention, r.overload),
            (2, 1, 0, 1)
        );
        assert_eq!(r.total(), 4);
        assert_eq!(r.to_string(), "2/1/0/1");
        let mut labels: Vec<_> = AbortClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), AbortClass::ALL.len());
    }

    #[test]
    fn memory_stats_merge_keeps_max_not_sum() {
        let mut a = MemoryStats {
            versions_live: 10,
            versions_retired: 5,
            versions_reclaimed: 3,
            arena_bytes: 640,
            watermark_lag: 2,
            ..Default::default()
        };
        let b = MemoryStats {
            versions_live: 4,
            versions_retired: 9,
            versions_reclaimed: 9,
            arena_bytes: 128,
            watermark_lag: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.versions_live, 10, "gauges merge by max, not sum");
        assert_eq!(a.versions_retired, 9);
        assert_eq!(a.versions_reclaimed, 9);
        assert_eq!(a.arena_bytes, 640);
        assert_eq!(a.watermark_lag, 7);
        let shown = a.to_string();
        assert!(shown.contains("live=10"));
        assert!(shown.contains("wm-lag=7"));
    }

    #[test]
    fn engine_stats_render_memory_gauges() {
        let s = EngineStats {
            commits: 1,
            memory: MemoryStats {
                versions_live: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(s.to_string().contains("mem[live=3"));
    }

    #[test]
    fn zero_commit_ratio_is_zero() {
        let s = EngineStats {
            aborts: 7,
            ..Default::default()
        };
        assert_eq!(s.abort_ratio(), 0.0);
        assert_eq!(s.validations_per_commit(), 0.0);
    }
}
