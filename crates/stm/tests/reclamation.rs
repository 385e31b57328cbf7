//! Watermark reclamation: safety and leak witnesses (DESIGN.md §11).
//!
//! Four properties pin the epoch/arena version store down:
//!
//! 1. **Reclamation safety** — no version readable by a registered active
//!    snapshot is ever pruned or recycled out from under it. Witness: a
//!    reader that pins a snapshot and then watches an arbitrary number of
//!    watermark advances still commits its original consistent view, with
//!    zero aborts, on both the single-shard and the sharded engine.
//! 2. **No leaks, exact gauges** — every retired version is eventually
//!    released or recycled: once the handles are dropped — no quiesce call,
//!    a handle accounts its own pool — `versions_retired ==
//!    versions_reclaimed` and no node is left pooled. The gauges are sharded
//!    per handle and merged on read; they stay exact after join and
//!    monotone under a concurrent sampler.
//! 3. **The slot protocol holds under fire** — with begins, finishes and
//!    watermark advances racing on lock-free slots, no transaction ever
//!    sees an installed watermark possibly later than its own snapshot.
//! 4. **Demand-driven retention beats fixed depth** — the acceptance demo:
//!    a long reader that loses its history under `max_versions = 8` keeps it
//!    (and commits abort-free) under watermark retention, while memory stays
//!    bounded by what that one snapshot actually pins.

use lsa_engine::MemoryStats;
use lsa_stm::prelude::*;
use lsa_time::counter::SharedCounter;
use lsa_time::sharded::ShardedTimeBase;
use lsa_time::{TimeBase, Timestamp};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    /// Safety witness, single shard: a pinned snapshot survives any number
    /// of concurrent updates and watermark advances — the slot protocol must
    /// hold the watermark below the reader's lower bound, so the versions it
    /// needs are never pruned and never recycled into garbage values.
    fn pinned_reader_snapshot_survives_reclamation(
        updates in 1usize..48,
        interval in 1u64..6,
    ) {
        pinned_reader_keeps_its_snapshot(SharedCounter::new(), updates, interval)?;
    }

    #[test]
    /// Safety witness, sharded: same property through the cross-shard commit
    /// protocol, with `a` and `b` on different shards — the reader's one
    /// slot must hold back the one watermark for both.
    fn sharded_pinned_reader_snapshot_survives_reclamation(
        updates in 1usize..48,
        interval in 1u64..6,
    ) {
        let tb = ShardedTimeBase::new(SharedCounter::new(), 4);
        pinned_reader_keeps_its_snapshot(tb, updates, interval)?;
    }

    #[test]
    /// Leak witness: once the handle of a randomized single-threaded
    /// workload is dropped — without any quiesce call — every retired
    /// version has been released or recycled, nothing is stranded in its
    /// pool, and the live gauge equals what the chains still hold.
    fn a_dropped_handle_leaves_nothing_pooled(
        commits in 1usize..200,
        vars in 1usize..8,
        interval in 1u64..6,
    ) {
        let cfg = StmConfig {
            wm_advance_interval: interval,
            ..StmConfig::watermark_retention()
        };
        let stm = Stm::with_config(SharedCounter::new(), cfg);
        let tvars: Vec<_> = (0..vars).map(|_| stm.new_tvar(0u64)).collect();
        let mut h = stm.register();
        for i in 0..commits {
            let v = &tvars[i % vars];
            h.atomically(|tx| tx.modify(v, |x| x + 1));
        }
        let s = stm.reclaim_stats();
        prop_assert_eq!(s.versions_retired, s.versions_reclaimed + s.versions_pooled);
        drop(h);
        let s = stm.reclaim_stats();
        prop_assert_eq!(s.versions_retired, s.versions_reclaimed);
        prop_assert_eq!(s.versions_pooled, 0);
        let chain_total: u64 = tvars.iter().map(|v| v.version_count() as u64).sum();
        prop_assert_eq!(s.versions_live, chain_total);
    }
}

/// The pinned-reader witness: the reader opens `a`, `updates` write-both
/// commits land behind its back, and its read of `b` must still see the
/// initial pair, abort-free. `a` and `b` sit on the first and the last shard.
fn pinned_reader_keeps_its_snapshot<B: TimeBase>(
    tb: B,
    updates: usize,
    interval: u64,
) -> Result<(), TestCaseError> {
    let cfg = StmConfig {
        wm_advance_interval: interval,
        ..StmConfig::watermark_retention()
    };
    let stm = Stm::with_config(tb, cfg);
    let a = stm.new_tvar_on(0, 0u64);
    let b = stm.new_tvar_on(stm.shard_count() - 1, 0u64);
    let mut reader = stm.register();
    let mut writer = stm.register();

    let mut first = true;
    let pair = reader.atomically(|tx| {
        let va = *tx.read(&a)?;
        if first {
            first = false;
            // Every commit advances the clock and (at `interval`) the
            // watermark; with retention the reader's slot is the only thing
            // keeping the initial versions alive.
            for _ in 0..updates {
                writer.atomically(|wtx| {
                    wtx.modify(&a, |v| v + 1)?;
                    wtx.modify(&b, |v| v + 1)
                });
            }
        }
        Ok((va, *tx.read(&b)?))
    });
    prop_assert_eq!(pair, (0, 0));
    prop_assert_eq!(reader.engine_stats().aborts, 0);
    // Writers saw no interference either.
    prop_assert_eq!(*a.snapshot_latest(), updates as u64);
    Ok(())
}

/// Concurrent leak + bounded-memory witness: transfer transactions hammer a
/// small variable set from several threads (no long readers), the threads
/// simply exit, and afterwards the arena accounts for every node: retired ==
/// reclaimed, pools empty, and the live population is the chains' actual
/// residue — orders of magnitude below the commit count an unbounded store
/// would have accumulated.
#[test]
fn concurrent_transfers_reclaim_without_leaks() {
    const THREADS: usize = 4;
    const COMMITS: usize = 1_000;
    const PAIRS: usize = 8;

    let cfg = StmConfig {
        wm_advance_interval: 4,
        ..StmConfig::watermark_retention()
    };
    let stm = Stm::with_config(SharedCounter::new(), cfg);
    let vars: Vec<_> = (0..PAIRS * 2).map(|_| stm.new_tvar(0i64)).collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stm = stm.clone();
            let vars = vars.clone();
            s.spawn(move || {
                let mut h = stm.register();
                for i in 0..COMMITS {
                    let p = (t + i) % PAIRS;
                    let (src, dst) = (vars[2 * p].clone(), vars[2 * p + 1].clone());
                    h.atomically(|tx| {
                        tx.modify(&src, |v| v - 1)?;
                        tx.modify(&dst, |v| v + 1)
                    });
                    // Interleave zero-sum audits: a recycled-too-early node
                    // would surface here as a torn balance.
                    if i % 64 == 0 {
                        let sum = h.atomically(|tx| {
                            let mut sum = 0i64;
                            for v in &vars {
                                sum += *tx.read(v)?;
                            }
                            Ok(sum)
                        });
                        assert_eq!(sum, 0, "transfer invariant torn by reclamation");
                    }
                }
            });
        }
    });

    let s = stm.reclaim_stats();
    assert_eq!(
        s.versions_retired, s.versions_reclaimed,
        "retired versions leaked: {s:?}"
    );
    assert_eq!(s.versions_pooled, 0, "no handle is left to hold a pool");
    assert!(
        s.versions_reclaimed > 0,
        "reclamation never fired — the witness tested nothing"
    );
    let total_updates = (THREADS * COMMITS) as u64;
    assert!(
        s.versions_live < total_updates / 4,
        "live population {} is not bounded (of {} update commits)",
        s.versions_live,
        total_updates
    );
}

/// Slot-protocol witness (`reclaim`'s module docs give the argument): short
/// transactions begin and finish on three threads — each also advancing the
/// watermark after every commit — while a fourth does nothing but advance.
/// Whenever a transaction looks, between its start and its end, the
/// installed watermark is not possibly later than its snapshot's lower
/// bound: every scan either saw its slot pending (and installed nothing),
/// saw it active (and stayed at or below its start time), or had passed the
/// slot before the begin (and stayed at or below its own earlier clock
/// reading).
#[test]
fn no_installed_watermark_passes_a_live_snapshot() {
    const WORKERS: usize = 3;
    const TXNS: usize = 60_000;

    let cfg = StmConfig {
        wm_advance_interval: 1,
        ..StmConfig::watermark_retention()
    };
    let stm = Stm::with_config(SharedCounter::new(), cfg);
    let vars: Vec<_> = (0..2 * WORKERS).map(|_| stm.new_tvar(0i64)).collect();
    let done = AtomicBool::new(false);
    let behind_the_watermark = |tx: &Txn<'_, SharedCounter>| {
        let lower = tx.validity_range().lower;
        if let Some(w) = stm.reclaim_watermark() {
            assert!(
                !w.possibly_later(lower),
                "watermark {w} installed over a live snapshot at {lower}"
            );
        }
    };

    let advances = std::thread::scope(|s| {
        let advancer = s.spawn(|| {
            let mut advances = 0u64;
            while !done.load(Ordering::Acquire) {
                stm.reclaim_quiesce();
                advances += 1;
            }
            advances
        });
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| {
                let (stm, vars, check) = (&stm, &vars, &behind_the_watermark);
                s.spawn(move || {
                    let mut h = stm.register();
                    for i in 0..TXNS {
                        // Own pair mostly, a neighbour's now and then.
                        let p = if i % 8 == 0 { (t + 1) % WORKERS } else { t };
                        let (a, b) = (&vars[2 * p], &vars[2 * p + 1]);
                        h.atomically(|tx| {
                            check(tx);
                            tx.modify(a, |v| v + 1)?;
                            check(tx);
                            let seen = *tx.read(b)?;
                            check(tx);
                            tx.write(b, seen - 1)
                        });
                    }
                })
            })
            .collect();
        // Stop the advancer before reporting a worker's failure.
        let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Release);
        for r in results {
            r.expect("worker panicked");
        }
        advancer.join().expect("advancer panicked")
    });
    assert!(advances > 0 && stm.reclaim_watermark().is_some());
    let total: i64 = vars.iter().map(|v| *v.snapshot_latest()).sum();
    assert_eq!(total, 0);
}

/// Gauge witness: `THREADS` × `COMMITS` two-write commits, alternately on a
/// thread's private variables and on shared ones, while a sampler reads the
/// merged gauges. Mid-run no monotone counter goes backwards and `live`
/// stays within what the chains can hold plus one fold in flight per thread;
/// after join the gauges are exact, with the handles alive (their pools
/// counted) and after they are dropped without a quiesce (nothing pooled).
fn gauge_witness<B: TimeBase>(stm: Stm<B>) {
    const THREADS: usize = 4;
    const COMMITS: usize = 3_000;
    const VARS: usize = 4;

    let max_versions = stm.config().max_versions as u64;
    let shared: Vec<_> = (0..VARS).map(|_| stm.new_tvar(0i64)).collect();
    let private: Vec<Vec<_>> = (0..THREADS)
        .map(|_| (0..VARS).map(|_| stm.new_tvar(0i64)).collect())
        .collect();
    let objects = ((THREADS + 1) * VARS) as u64;
    let done = AtomicBool::new(false);

    let (handles, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut prev = stm.reclaim_stats();
            let mut samples = 0u64;
            while !done.load(Ordering::Acquire) {
                let now: MemoryStats = stm.reclaim_stats();
                assert!(now.versions_retired >= prev.versions_retired);
                assert!(now.versions_reclaimed >= prev.versions_reclaimed);
                assert!(now.versions_recycled >= prev.versions_recycled);
                // The shards are summed one after another, not at one
                // instant: a version linked on a shard read late and
                // retired on one read early is counted live. Retirements
                // between the previous sample and the next bound that skew.
                let skew = stm.reclaim_stats().versions_retired - prev.versions_retired;
                assert!(
                    now.versions_live <= objects * max_versions + THREADS as u64 + skew,
                    "live gauge out of range mid-run: {now:?}, skew {skew}"
                );
                prev = now;
                samples += 1;
            }
            samples
        });
        let workers: Vec<_> = private
            .iter()
            .map(|mine| {
                let (stm, shared) = (&stm, &shared);
                s.spawn(move || {
                    let mut h = stm.register();
                    for i in 0..COMMITS {
                        let vars = if i % 2 == 0 { mine } else { shared };
                        let (a, b) = (&vars[i % VARS], &vars[(i + 1) % VARS]);
                        h.atomically(|tx| {
                            tx.modify(a, |v| v + 1)?;
                            tx.modify(b, |v| v - 1)
                        });
                    }
                    h
                })
            })
            .collect();
        let handles: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        done.store(true, Ordering::Release);
        (handles, sampler.join().expect("sampler panicked"))
    });
    assert!(samples > 0);

    let chains: u64 = private
        .iter()
        .flatten()
        .chain(&shared)
        .map(|v| v.version_count() as u64)
        .sum();
    let s = stm.reclaim_stats();
    assert_eq!(s.versions_live, chains, "live == objects + retained");
    assert_eq!(s.versions_retired, s.versions_reclaimed + s.versions_pooled);
    assert!(s.versions_retired >= (THREADS * COMMITS) as u64, "{s:?}");
    assert!(s.versions_pooled > 0 && s.versions_recycled > 0, "{s:?}");

    drop(handles);
    let s = stm.reclaim_stats();
    assert_eq!(s.versions_pooled, 0, "dropped handles hold no pool");
    assert_eq!(s.versions_retired, s.versions_reclaimed);
    assert_eq!(s.versions_live, chains);
}

#[test]
fn gauges_stay_exact_on_stm() {
    gauge_witness(Stm::new(SharedCounter::new()));
}

#[test]
fn gauges_stay_exact_on_sharded_stm() {
    gauge_witness(Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4)));
}

/// Acceptance demo: the workload the watermark exists for. A long reader
/// pins a snapshot, 32 write-both commits land behind its back. With the
/// fixed `max_versions = 8` policy the history it needs is pruned (a
/// `NoVersion` abort, then a retry on fresher state); with watermark
/// retention the exact versions the snapshot can still read are retained —
/// strictly fewer (here: zero) `NoVersion` aborts.
#[test]
fn watermark_retention_beats_fixed_depth_for_long_readers() {
    fn no_version_aborts(cfg: StmConfig) -> u64 {
        let stm = Stm::with_config(SharedCounter::new(), cfg);
        let a = stm.new_tvar(0u64);
        let b = stm.new_tvar(0u64);
        let mut reader = stm.register();
        let mut writer = stm.register();
        let mut first = true;
        let _ = reader.atomically(|tx| {
            let va = *tx.read(&a)?;
            if first {
                first = false;
                for _ in 0..32 {
                    writer.atomically(|wtx| {
                        wtx.modify(&a, |v| v + 1)?;
                        wtx.modify(&b, |v| v + 1)
                    });
                }
            }
            Ok((va, *tx.read(&b)?))
        });
        reader.engine_stats().abort_reasons.no_version
    }

    let fixed = no_version_aborts(StmConfig::multi_version(8));
    let retained = no_version_aborts(StmConfig::watermark_retention());
    assert!(
        fixed >= 1,
        "fixed-depth baseline must lose the reader's history (got {fixed} aborts)"
    );
    assert_eq!(
        retained, 0,
        "watermark retention must keep every version an active snapshot can read"
    );
    assert!(retained < fixed);
}
