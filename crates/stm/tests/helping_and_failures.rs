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
/// installed, status = Committing, **no commit time** — as if the owner
/// thread was preempted right after the status CAS. It opened the object by
/// writing it, so its read set is empty — what it wrote over is covered by
/// its write mark — and, like its owner would, it published no context.
fn stuck_committing_writer(var: &TVar<u64, u64>, value: u64) -> Arc<TxnShared<u64>> {
    let writer: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xDEAD));
    assert!(matches!(
        register(var, &writer, value),
        WriteAttempt::Registered { .. }
    ));
    assert!(writer.transition(TxnStatus::Active, TxnStatus::Committing));
    writer
}

/// Register `writer` on `var`'s object with `value` installed, as
/// `Txn::write` does, from a snapshot that admits every version.
fn register<T: Send + Sync + 'static>(
    var: &TVar<T, u64>,
    writer: &Arc<TxnShared<u64>>,
    value: T,
) -> WriteAttempt<u64> {
    let value = Arc::new(value);
    let mut payload = Some(move |_: &T| value);
    let attempt =
        var.object_for_tests()
            .try_write(writer, ValidityRange::from(0), 0, &mut payload, None);
    assert_eq!(
        payload.is_none(),
        matches!(attempt, WriteAttempt::Registered { .. }),
        "the payload is taken exactly by a registration"
    );
    attempt
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
    let seen = h.atomically(|tx| tx.read(&var).copied());
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
        tx.read(&var).copied()
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
        register(&var, &writer, 666),
        WriteAttempt::Registered { .. }
    ));
    assert!(writer.transition(TxnStatus::Active, TxnStatus::Aborted));

    let mut h = stm.register();
    let seen = h.atomically(|tx| tx.read(&var).copied());
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
                let v = h.atomically(|tx| tx.read(&var).copied());
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
        register(var, &writer, 42),
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
    assert_eq!(h.atomically(|tx| tx.read(&var).copied()), 42);
    assert_eq!(writer.status(), TxnStatus::Committed);

    // The same read set unflagged is judged by the registered writer's
    // commit time like anybody else's — the version ends at CT − 1 < CT.
    let var = stm.new_tvar(1u64);
    let writer = stuck_read_modify_writer(&var, false, || {});
    assert_eq!(h.atomically(|tx| tx.read(&var).copied()), 1);
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
        register(&var, &writer, 42),
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
    assert_eq!(h.atomically(|tx| tx.read(&var).copied()), 42);
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
    assert_eq!(h.atomically(|tx| tx.read(&var).copied()), 7);
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
    assert!(matches!(
        register(&var, &committing, Arc::new(1)),
        WriteAttempt::Registered { .. }
    ));
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
        register(&var, &active, Arc::new(2)),
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
    // `modify` on an unopened object derives its payload inside the
    // registration, so nothing ends the attempt between the two: a closure
    // that panics does so before anything is registered, and a contention
    // manager can only kill a writer whose payload is in. Either way no
    // writer stays registered, the object is writable by others, and the
    // handle's scratch comes back clean.
    let stm = Stm::with_cm(SharedCounter::new(), StmConfig::default(), Aggressive);
    let var = stm.new_tvar(10u64);
    let obj = var.object_for_tests();
    let mut h = stm.register();
    let mut other = stm.register();

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        h.atomically(|tx| tx.modify(&var, |_| -> u64 { panic!("closure failed") }))
    }));
    assert!(unwound.is_err());
    assert!(obj.current_writer().is_none(), "nothing was registered");
    other.atomically(|tx| tx.modify(&var, |v| v + 1));
    assert_eq!(other.engine_stats().conflicts, 0);
    assert_eq!(*var.snapshot_latest(), 11);
    // The handle's next transaction starts from an empty scratch: a first
    // open, read from the object, nothing to validate.
    let before = h.engine_stats();
    let seen = h.atomically(|tx| {
        let v = *tx.read(&var)?;
        assert_eq!(tx.opened(), 1);
        Ok(v)
    });
    assert_eq!(seen, 11);
    let after = h.engine_stats();
    assert_eq!(after.ro_commits, before.ro_commits + 1);
    assert_eq!(after.aborts, before.aborts);

    // Killed after registration: `other` meets the mark of an active writer
    // and Aggressive aborts it. The victim's commit finds itself `Killed`,
    // and the retry derives from the enemy's 20.
    let mut injected = false;
    h.atomically(|tx| {
        tx.modify(&var, |v| v + 1)?;
        // Opened once, by writing: the write set's, not `T.O`'s.
        assert_eq!(tx.opened(), 1);
        if !std::mem::replace(&mut injected, true) {
            other.atomically(|otx| otx.write(&var, 20));
        }
        Ok(())
    });
    assert_eq!(other.engine_stats().conflicts, 1);
    // Killed, counted as contention: the victim submitted no conflict and
    // its body asks for no retry.
    let es = h.engine_stats();
    assert_eq!(
        es.abort_reasons.contention - after.abort_reasons.contention,
        1
    );
    assert_eq!((es.aborts - after.aborts, es.conflicts), (1, 0));
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
    assert_eq!(es.validated_entries, 0);
}

#[test]
fn modify_never_runs_its_closure_on_a_version_the_snapshot_cannot_admit() {
    // X and Y are always equal: one transaction commits both. A snapshot
    // that read X before that commit cannot hold Y's new version, so a
    // `modify` of Y must abort (`Snapshot`) without its closure seeing that
    // version — the registration admits `vc` before it runs the closure —
    // and the retry's closure sees the Y of the X it read.
    let stm = Stm::new(SharedCounter::new());
    let (x, y) = (stm.new_tvar(0u64), stm.new_tvar(0u64));
    let (mut h, mut other) = (stm.register(), stm.register());
    // Closure runs, per attempt.
    let mut runs = Vec::new();
    h.atomically(|tx| {
        runs.push(0);
        let seen_x = *tx.read(&x)?;
        if runs.len() == 1 {
            other.atomically(|otx| {
                otx.write(&x, 1)?;
                otx.write(&y, 1)
            });
        }
        let count = runs.last_mut().expect("pushed above");
        tx.modify(&y, |vy| {
            *count += 1;
            assert_eq!(*vy, seen_x, "the closure saw Y beside an older X");
            vy + 10
        })
    });
    assert_eq!(runs, [0, 1]);
    let es = h.engine_stats();
    assert_eq!((es.aborts, es.abort_reasons.validation), (1, 1));
    assert_eq!((*x.snapshot_latest(), *y.snapshot_latest()), (1, 11));
}

#[test]
fn modify_runs_its_closure_once_per_registration_across_conflict_and_help_retries() {
    // Two registrations that are turned away first — by a committing writer
    // that needs help, by an active one the contention manager kills — and
    // then succeed: each closure runs exactly once, on the value the
    // registration finally wrote over.
    let stm = Stm::with_cm(SharedCounter::new(), StmConfig::default(), Aggressive);
    let (stuck, held) = (stm.new_tvar(1u64), stm.new_tvar(2u64));
    let committing = stuck_committing_writer(&stuck, 7);
    let active: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xAC));
    assert!(matches!(
        register(&held, &active, 3),
        WriteAttempt::Registered { .. }
    ));

    let mut h = stm.register();
    let (mut on_stuck, mut on_held) = (0, 0);
    h.atomically(|tx| {
        // NeedHelp: the registration helps `committing` finish, then retries.
        tx.modify(&stuck, |v| {
            on_stuck += 1;
            v * 10
        })?;
        // Conflict: Aggressive kills `active`, the registration retries.
        tx.modify(&held, |v| {
            on_held += 1;
            v * 10
        })
    });
    assert_eq!((on_stuck, on_held), (1, 1));
    assert_eq!(
        (committing.status(), active.status()),
        (TxnStatus::Committed, TxnStatus::Aborted)
    );
    assert_eq!(
        (*stuck.snapshot_latest(), *held.snapshot_latest()),
        (70, 20)
    );
    let es = h.engine_stats();
    assert_eq!(
        (es.commits, es.aborts, es.conflicts, es.helps),
        (1, 0, 1, 1)
    );
}

#[test]
fn a_helper_commits_a_write_only_committer_that_published_no_context() {
    // An update that read nothing publishes no context. A helper takes the
    // context only after it has seen `Committing`, and the owner would have
    // published before that transition: none there, with the status still
    // `Committing`, means an empty read set, which validates vacuously.
    let stm = Stm::new(SharedCounter::new());
    let (a, b) = (stm.new_tvar(1u64), stm.new_tvar(2u64));
    let writer: Arc<TxnShared<u64>> = Arc::new(TxnShared::new(0xB0B));
    for (var, value) in [(&a, 10), (&b, 20)] {
        assert!(matches!(
            register(var, &writer, value),
            WriteAttempt::Registered { .. }
        ));
    }
    assert!(writer.transition(TxnStatus::Active, TxnStatus::Committing));
    assert!(writer.ctx().is_none(), "nothing published");

    let mut h = stm.register();
    assert_eq!(h.atomically(|tx| Ok(*tx.read(&a)? + *tx.read(&b)?)), 30);
    assert_eq!(writer.status(), TxnStatus::Committed);
    let ct = writer.ct().expect("the helper set it");
    for var in [&a, &b] {
        assert_eq!(var.object_for_tests().debug_chain()[0], (Some(ct), None));
    }
    assert_eq!(h.engine_stats().helps, 1);
}
