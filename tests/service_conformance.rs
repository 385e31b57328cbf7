//! Registry-wide service-driven conformance: every engine × time-base cell
//! must commit a serializable history when driven through the `lsa-service`
//! worker pool instead of dedicated per-thread handles.
//!
//! This is the serving-layer counterpart of `tests/opacity.rs`: requests
//! from many client threads cross bounded queues, multiplex onto few
//! long-lived worker handles, and the
//! value-chain / audit-snapshot witnesses plus the service's own accounting
//! (`completed == submitted`) are asserted end to end. The registry's
//! engine counters, read from the workers' statistics shards, are checked
//! against the shutdown report.

use lsa_harness::registry::default_registry;
use lsa_rt::baseline::Tl2Stm;
use lsa_rt::prelude::*;
use lsa_rt::time::counter::{Gv4Counter, SharedCounter};
use std::sync::Arc;

/// Every registry cell passes the service-driven suite. One test so the
/// engine name prints per cell under `--nocapture` for triage.
#[test]
fn every_registry_cell_passes_service_conformance() {
    for entry in default_registry() {
        println!("service conformance: {}", entry.label());
        entry.run_service_conformance();
    }
}

/// Reads one counter out of an [`EngineStats`].
type Field = fn(&EngineStats) -> u64;

/// Every engine counter a scrape exports, and the report field it mirrors.
const ENGINE_COUNTERS: [(&str, Field); 11] = [
    ("engine.commits", |e| e.commits),
    ("engine.ro_commits", |e| e.ro_commits),
    ("engine.aborts.validation", |e| e.abort_reasons.validation),
    ("engine.aborts.no_version", |e| e.abort_reasons.no_version),
    ("engine.aborts.contention", |e| e.abort_reasons.contention),
    ("engine.retries", |e| e.aborts),
    ("engine.reads", |e| e.reads),
    ("engine.writes", |e| e.writes),
    ("engine.validations", |e| e.validations),
    ("time.commit_ts.shared", |e| e.shared_commit_ts),
    ("time.commit_ts.exclusive", |e| {
        e.commits - e.shared_commit_ts
    }),
];

/// A bank mix through a two-worker service: transfers over six accounts
/// beside whole-bank audits. After shutdown every registry engine counter
/// equals the matching report field — both read the workers' shards.
fn registry_matches_report<E: TxnEngine>(engine: E) {
    let name = engine.engine_name();
    let accounts: Arc<Vec<_>> = Arc::new((0..6).map(|_| engine.new_var(100i64)).collect());
    let cfg = ServiceConfig {
        workers: 2,
        queue_depth: 256,
    };
    let svc = TxnService::start(engine, cfg);
    let done: Vec<_> = (0..400usize)
        .map(|i| {
            let accounts = Arc::clone(&accounts);
            svc.submit(move |h: &mut E::Handle| {
                h.atomically(|tx| {
                    if i % 4 == 0 {
                        let mut total = 0;
                        for a in accounts.iter() {
                            total += *tx.read(a)?;
                        }
                        assert_eq!(total, 600, "audit saw a torn bank");
                        return Ok(());
                    }
                    let (from, to) = (&accounts[i % 3], &accounts[3 + i % 3]);
                    let amount = *tx.read(from)? % 7;
                    tx.modify(from, |v| v - amount)?;
                    tx.modify(to, |v| v + amount)
                })
            })
            .expect("a 256-deep queue admits")
        })
        .collect();
    for c in done {
        c.wait().expect("completes");
    }
    let metrics = svc.metrics().clone();
    let report = svc.shutdown();
    let snap = metrics.snapshot();
    for (metric, field) in ENGINE_COUNTERS {
        assert_eq!(
            snap.counter(metric),
            Some(field(&report.engine)),
            "{name}: {metric}"
        );
    }
    assert_eq!(report.engine.total_commits(), 400, "{name}");
}

#[test]
fn registry_engine_counters_equal_the_report_after_shutdown() {
    registry_matches_report(Stm::new(SharedCounter::new()));
    registry_matches_report(Tl2Stm::new(SharedCounter::new()));
}

/// On tl2×gv4 every commit timestamp is shared-class. An attempt that
/// acquired one and then failed validation must not count it, or the
/// scrape's shared + exclusive overshoots the commits.
#[test]
fn commit_timestamp_classes_sum_to_the_commits() {
    let engine = Tl2Stm::new(Gv4Counter::new());
    let (x, y) = (engine.new_var(0u64), engine.new_var(0u64));
    let cfg = ServiceConfig {
        workers: 1,
        queue_depth: 8,
    };
    let svc = TxnService::start(engine.clone(), cfg);
    svc.submit(move |h| {
        let mut other = engine.register();
        let mut first = true;
        // Read `x`, let `other` commit over it, write `y`: the first
        // attempt acquires its timestamp, then fails validation.
        h.atomically(|tx| {
            let vx = *tx.read(&x)?;
            if std::mem::replace(&mut first, false) {
                other.atomically(|otx| otx.modify(&x, |v| v + 1));
            }
            tx.write(&y, vx)
        })
    })
    .unwrap()
    .wait()
    .unwrap();
    let snap = svc.metrics().snapshot();
    let count = |name| snap.counter(name).expect(name);
    assert_eq!(count("engine.aborts.validation"), 1);
    assert_eq!(count("engine.commits"), 1);
    assert_eq!(
        count("time.commit_ts.shared") + count("time.commit_ts.exclusive"),
        count("engine.commits")
    );
    assert_eq!(svc.shutdown().engine.shared_commit_ts, 1);
}
