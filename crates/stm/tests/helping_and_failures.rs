//! Deterministic helping and failure-injection scenarios.
//!
//! The concurrency smoke tests exercise helping probabilistically; these
//! tests construct the exact descriptor states the paper's Algorithm 3
//! line 13 and §2.3 describe — a writer *stuck* in the `Committing` state —
//! and verify that other transactions complete the commit on its behalf, set
//! its commit time from their own clocks, and observe its result.

use lsa_stm::object::{AnyObject, ReadAttempt, WriteAttempt};
use lsa_stm::prelude::*;
use lsa_stm::status::TxnStatus;
use lsa_stm::txn_shared::{CommitCtx, CtxEntry, TxnShared};
use lsa_time::counter::SharedCounter;
use lsa_time::ValidityRange;
use std::sync::Arc;

/// Build a "stuck" committing writer on a fresh object: registered, value
/// installed, context published, status = Committing, **no commit time** —
/// as if the owner thread was preempted right after the status CAS. It
/// opened the object by writing it, so its read set is empty: what it wrote
/// over is covered by its write mark.
fn stuck_committing_writer(var: &TVar<u64, u64>, value: u64) -> Arc<TxnShared<u64>> {
    let writer: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xDEAD));
    let mut payload = Some(Arc::new(value));
    assert!(matches!(
        var.object_for_tests()
            .try_write(&writer, &mut payload, None),
        WriteAttempt::Registered { base: None, .. }
    ));
    assert!(payload.is_none(), "the registration installed the payload");
    writer.publish_ctx(Arc::default());
    assert!(writer.transition(TxnStatus::Active, TxnStatus::Committing));
    writer
}

#[test]
fn reader_helps_stuck_committer_and_sees_its_write() {
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(1u64);
    let writer = stuck_committing_writer(&var, 42);
    assert_eq!(writer.ct(), None, "owner never set a commit time");

    // A reader arriving now must help the commit finish (Algorithm 3
    // line 13) — an empty read set validates vacuously — and then read the
    // committed value 42.
    let mut h = stm.register();
    let seen = h.atomically(|tx| tx.read(&var).map(|v| *v));
    assert_eq!(seen, 42, "reader must observe the helped commit");
    assert_eq!(writer.status(), TxnStatus::Committed);
    assert!(
        writer.ct().is_some(),
        "a helper set the commit time from its clock"
    );
    assert!(h.engine_stats().helps >= 1, "the help must be accounted");
}

#[test]
fn writer_helps_stuck_committer_before_taking_over() {
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(1u64);
    let writer = stuck_committing_writer(&var, 7);

    let mut h = stm.register();
    h.atomically(|tx| tx.modify(&var, |v| v * 10));
    assert_eq!(
        *var.snapshot_latest(),
        70,
        "helped commit (7) then ours (×10)"
    );
    assert_eq!(writer.status(), TxnStatus::Committed);
}

#[test]
fn raw_reader_gets_need_help_for_committing_writer() {
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(5u64);
    let writer = stuck_committing_writer(&var, 6);
    match var.object_for_tests().try_read(&ValidityRange::from(0u64)) {
        ReadAttempt::NeedHelp(w) => assert_eq!(w.id(), writer.id()),
        _ => panic!("committing writer must request help"),
    }
}

#[test]
fn killed_writer_mid_transaction_retries_cleanly() {
    // Inject a kill exactly between a transaction's open-for-write and its
    // commit; the victim must detect it (AbortReason::Killed), retry, and
    // still produce a correct result.
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(0u64);
    let mut h = stm.register();
    let mut injected = false;
    h.atomically(|tx| {
        tx.modify(&var, |v| v + 1)?;
        if !injected {
            injected = true;
            // Simulate an enemy contention manager: kill the current txn.
            // We reach the shared descriptor through the object's writer.
            let w = var
                .object_for_tests()
                .current_writer()
                .expect("we are the registered writer");
            assert!(w.transition(TxnStatus::Active, TxnStatus::Aborted));
        }
        // The very next operation must notice the kill and abort.
        tx.read(&var).map(|v| *v)
    });
    assert_eq!(
        *var.snapshot_latest(),
        1,
        "retry applied the increment once"
    );
    // The kill is the attempt's one contention-class abort: the victim
    // submitted no conflict (not a contention-manager loss) and the body
    // never asks for a retry (not explicit).
    let es = h.engine_stats();
    assert_eq!((es.abort_reasons.contention, es.aborts), (1, 1));
    assert_eq!(es.conflicts, 0);
    assert_eq!(es.commits, 1);
}

#[test]
fn aborted_stuck_writer_is_discarded_by_next_accessor() {
    // A writer that is killed while Active leaves a speculative version; the
    // next accessor folds it away without help.
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(9u64);
    let writer: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xBEEF));
    assert!(matches!(
        var.object_for_tests()
            .try_write(&writer, &mut Some(Arc::new(666)), None),
        WriteAttempt::Registered { .. }
    ));
    assert!(writer.transition(TxnStatus::Active, TxnStatus::Aborted));

    let mut h = stm.register();
    let seen = h.atomically(|tx| tx.read(&var).map(|v| *v));
    assert_eq!(seen, 9, "the aborted write must never surface");
    assert!(var.object_for_tests().current_writer().is_none());
}

#[test]
fn two_helpers_race_exactly_one_commit() {
    // Many threads help the same stuck committer; the version must be folded
    // exactly once and every reader agree on the value.
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(0u64);
    let writer = stuck_committing_writer(&var, 1234);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let stm = stm.clone();
            let var = var.clone();
            s.spawn(move || {
                let mut h = stm.register();
                let v = h.atomically(|tx| tx.read(&var).map(|v| *v));
                assert_eq!(v, 1234);
            });
        }
    });
    assert_eq!(writer.status(), TxnStatus::Committed);
    assert_eq!(*var.snapshot_latest(), 1234);
    assert_eq!(
        var.version_count(),
        2,
        "initial + exactly one helped commit"
    );
}

/// A committing writer stuck like [`stuck_committing_writer`], whose read set
/// holds the version of `var` it read *before* registering, flagged as
/// covered by its own write mark (`CtxEntry::own`) — what `Txn::read`
/// followed by `Txn::write` publishes. `interloper` runs between that read
/// and the registration.
fn stuck_read_modify_writer(
    var: &TVar<u64, u64>,
    flag_read_entry: bool,
    interloper: impl FnOnce(),
) -> Arc<TxnShared<u64>> {
    let obj = var.object_for_tests();
    let read_meta = match obj.try_read(&ValidityRange::from(0u64)) {
        ReadAttempt::Found { meta, .. } => meta,
        _ => panic!("a fresh object serves its initial version"),
    };
    interloper();
    let writer: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xFEED));
    assert!(matches!(
        obj.try_write(&writer, &mut Some(Arc::new(42)), None),
        WriteAttempt::Registered { .. }
    ));
    writer.publish_ctx(Arc::new(CommitCtx {
        entries: vec![CtxEntry {
            meta: read_meta,
            own: flag_read_entry,
        }],
    }));
    assert!(writer.transition(TxnStatus::Active, TxnStatus::Committing));
    writer
}

#[test]
fn helper_takes_the_self_case_for_the_version_under_the_writers_own_mark() {
    // The writer read `var`, then registered on it: the version it read is
    // still the latest and only the writer itself can supersede it — Alg. 3
    // line 27, decided from the flagged entry alone. The helper must commit
    // it, as the owner would have.
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(1u64);
    let writer = stuck_read_modify_writer(&var, true, || {});
    let mut h = stm.register();
    assert_eq!(h.atomically(|tx| tx.read(&var).map(|v| *v)), 42);
    assert_eq!(writer.status(), TxnStatus::Committed);

    // The same read set unflagged is judged by the registered writer's
    // commit time like anybody else's — the version ends at CT − 1 < CT.
    let var = stm.new_tvar(1u64);
    let writer = stuck_read_modify_writer(&var, false, || {});
    assert_eq!(h.atomically(|tx| tx.read(&var).map(|v| *v)), 1);
    assert_eq!(writer.status(), TxnStatus::Aborted);
}

#[test]
fn helper_validates_a_version_whose_object_was_dropped_by_the_callers_bound() {
    // The writer read `gone` and nothing else of it survives the attempt:
    // the last `TVar` went before the commit. The entry's way back to the
    // object is dead, which also means no writer is or ever will be
    // registered there — the version is the latest for good, `getPrelimUB`
    // takes its fallback (the commit time) and the helper must commit.
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(1u64);
    let gone = stm.new_tvar(5u64);
    let read_meta = match gone.object_for_tests().try_read(&ValidityRange::from(0u64)) {
        ReadAttempt::Found { meta, .. } => meta,
        _ => panic!("a fresh object serves its initial version"),
    };
    drop(gone);
    assert_eq!(*read_meta.value::<u64>(), 5, "the node keeps the payload");

    let writer: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xD0A));
    assert!(matches!(
        var.object_for_tests()
            .try_write(&writer, &mut Some(Arc::new(42)), None),
        WriteAttempt::Registered { .. }
    ));
    writer.publish_ctx(Arc::new(CommitCtx {
        entries: vec![CtxEntry {
            meta: read_meta,
            own: false,
        }],
    }));
    assert!(writer.transition(TxnStatus::Active, TxnStatus::Committing));

    let mut h = stm.register();
    assert_eq!(h.atomically(|tx| tx.read(&var).map(|v| *v)), 42);
    assert_eq!(writer.status(), TxnStatus::Committed);
}

#[test]
fn a_read_lost_to_another_committer_fails_validation_despite_the_own_mark() {
    // Between the writer's read and its registration another transaction
    // committed `var`: the version read has a fixed upper bound, so the
    // self case does not apply and the helper must abort the writer.
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(1u64);
    let mut other = stm.register();
    let writer = stuck_read_modify_writer(&var, true, || {
        other.atomically(|tx| tx.write(&var, 7));
    });
    let mut h = stm.register();
    assert_eq!(h.atomically(|tx| tx.read(&var).map(|v| *v)), 7);
    assert_eq!(writer.status(), TxnStatus::Aborted);
    assert_eq!(var.version_count(), 2, "initial + the interloper's");

    // The same through the public API: the loser's open-for-write finds no
    // snapshot that holds both its read and the version it would overwrite.
    let mut first = true;
    let mut loser = stm.register();
    loser.atomically(|tx| {
        let seen = *tx.read(&var)?;
        if first {
            first = false;
            other.atomically(|otx| otx.write(&var, 8));
        }
        tx.write(&var, seen + 100)
    });
    assert_eq!(*var.snapshot_latest(), 108, "the retry read the winner's 8");
    assert_eq!(loser.engine_stats().aborts, 1);
}

#[test]
fn a_blocked_write_keeps_its_payload_for_the_retry() {
    // The payload rides along with the registration. A registration that is
    // turned away — here first by a committing writer that needs help, then
    // by an active one the contention manager kills — must neither drop it
    // nor install it twice.
    let stm = Stm::with_cm(
        SharedCounter::new(),
        StmConfig::watermark_retention(),
        Aggressive,
    );
    let var = stm.new_tvar(Arc::new(0u64));
    let committing: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xC0));
    let obj = var.object_for_tests();
    assert!(matches!(
        obj.try_write(&committing, &mut Some(Arc::new(Arc::new(1))), None),
        WriteAttempt::Registered { .. }
    ));
    committing.publish_ctx(Arc::default());
    assert!(committing.transition(TxnStatus::Active, TxnStatus::Committing));

    let payload = Arc::new(5u64);
    let mut h = stm.register();
    let mut enemy_registered = false;
    h.atomically(|tx| {
        if !enemy_registered {
            enemy_registered = true;
            // NeedHelp: the write helps `committing` finish, then retries.
            tx.write(&var, Arc::clone(&payload))?;
            return Err(tx.abort_retry());
        }
        tx.write(&var, Arc::clone(&payload))
    });
    assert_eq!(committing.status(), TxnStatus::Committed);

    // Conflict: an active writer holds the mark; Aggressive kills it and the
    // same payload registers on the next turn of the loop.
    let active: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xAC));
    assert!(matches!(
        obj.try_write(&active, &mut Some(Arc::new(Arc::new(2))), None),
        WriteAttempt::Registered { .. }
    ));
    h.atomically(|tx| tx.write(&var, Arc::clone(&payload)));
    assert_eq!(active.status(), TxnStatus::Aborted);
    assert_eq!(h.engine_stats().conflicts, 1);

    assert!(Arc::ptr_eq(&*var.snapshot_latest(), &payload));
    // Ours, plus one per committed version holding it: the helped 1, then
    // the payload twice. An aborted attempt's copy is gone.
    assert_eq!(var.version_count(), 4);
    assert_eq!(Arc::strong_count(&payload), 3);
}

#[test]
fn a_modify_that_dies_between_registration_and_install_leaves_the_object_free() {
    // `modify` on an unopened object registers first and installs after its
    // closure has run. Whatever ends the attempt in between — the closure
    // panicking, a contention manager killing the writer — must leave no
    // payload-less speculative version behind, the object writable by
    // others, and the handle's scratch clean.
    let stm = Stm::new(SharedCounter::new());
    let var = stm.new_tvar(10u64);
    let obj = var.object_for_tests();
    let mut h = stm.register();
    let mut other = stm.register();

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        h.atomically(|tx| {
            tx.modify(&var, |_| {
                let me = obj.current_writer().expect("registered before f runs");
                assert_eq!(me.status(), TxnStatus::Active);
                panic!("closure failed between registration and install")
            })
        })
    }));
    assert!(unwound.is_err());
    assert!(
        obj.current_writer().is_none(),
        "the unwind folded the mark away"
    );
    other.atomically(|tx| tx.modify(&var, |v| v + 1));
    assert_eq!(other.engine_stats().conflicts, 0);
    assert_eq!(*var.snapshot_latest(), 11);

    // Killed inside the closure: the install finds the mark gone, the
    // attempt aborts as `Killed` and the retry goes through.
    let mut injected = false;
    h.atomically(|tx| {
        tx.modify(&var, |v| {
            if !std::mem::replace(&mut injected, true) {
                let me = obj.current_writer().expect("registered before f runs");
                assert!(me.transition(TxnStatus::Active, TxnStatus::Aborted));
                // An enemy takes the object over and commits meanwhile.
                other.atomically(|otx| otx.write(&var, 20));
            }
            v + 1
        })?;
        // Opened once, by writing: the write set's, not `T.O`'s.
        assert_eq!(tx.opened(), 1);
        Ok(())
    });
    // Killed, counted as contention: the victim submitted no conflict and
    // its body asks for no retry.
    let es = h.engine_stats();
    assert_eq!((es.abort_reasons.contention, es.aborts), (1, 1));
    assert_eq!(es.conflicts, 0);
    assert_eq!(
        *var.snapshot_latest(),
        21,
        "the retry derived from the enemy's 20"
    );
    assert!(obj.current_writer().is_none());
    assert_eq!(
        var.version_count(),
        4,
        "10, 11, 20, 21 — nothing half-written"
    );
    assert_eq!(h.engine_stats().validated_entries, 0);
}
