//! Version-chain pruning vs long-running readers.
//!
//! Design claim (DESIGN.md §2, memory management): read sets hold
//! `Arc<VersionMeta>`, so pruning a version out of an object's chain never
//! invalidates a reader — a pruned version always has both range bounds
//! fixed, and `getPrelimUB` answers from the meta alone. These tests pin
//! that behaviour down.

use lsa_stm::prelude::*;
use lsa_time::counter::SharedCounter;

#[test]
fn long_reader_survives_pruning_of_its_version() {
    // Chain capacity 2: after two more commits, the version the reader used
    // is pruned from the chain — the reader must still commit fine (its
    // snapshot stays bounded by the meta's fixed upper bound).
    let stm = Stm::with_config(SharedCounter::new(), StmConfig::multi_version(2));
    let a = stm.new_tvar(1u64);
    let b = stm.new_tvar(100u64);
    let mut reader = stm.register();
    let mut writer = stm.register();

    let mut first = true;
    let (va, vb) = reader.atomically(|tx| {
        let va = *tx.read(&a)?;
        if first {
            first = false;
            // Concurrent commits supersede AND prune the version of `a`
            // the reader just used.
            for _ in 0..4 {
                writer.atomically(|wtx| wtx.modify(&a, |v| v + 1));
            }
            assert_eq!(a.version_count(), 2, "old versions pruned");
        }
        // Multi-version magic: `b` is untouched, so the snapshot
        // [origin-of-b ∩ validity-of-a@1] is still consistent.
        let vb = *tx.read(&b)?;
        Ok((va, vb))
    });
    assert_eq!((va, vb), (1, 100), "consistent snapshot from the past");
    assert_eq!(
        reader.engine_stats().aborts,
        0,
        "no abort needed: the old snapshot stayed completable"
    );
    assert_eq!(*a.snapshot_latest(), 5);
}

#[test]
fn reader_aborts_when_snapshot_needs_pruned_history_of_read_object() {
    // Single-version chains: the reader's first-read version of `a` is
    // superseded AND the transaction then needs a *newer* object whose only
    // version postdates its snapshot — it must abort and retry, never
    // return an inconsistent pair.
    let stm = Stm::with_config(SharedCounter::new(), StmConfig::single_version());
    let a = stm.new_tvar(0u64);
    let b = stm.new_tvar(0u64);
    let mut reader = stm.register();
    let mut writer = stm.register();

    let mut sabotage = true;
    let (va, vb) = reader.atomically(|tx| {
        let va = *tx.read(&a)?;
        if sabotage {
            sabotage = false;
            writer.atomically(|wtx| {
                wtx.modify(&a, |v| v + 1)?;
                wtx.modify(&b, |v| v + 1)
            });
        }
        let vb = *tx.read(&b)?;
        Ok((va, vb))
    });
    // Only consistent combinations may surface: (0,0) pre-update snapshot —
    // impossible in single-version mode once `b`'s old version is gone — or
    // (1,1) after retry.
    assert_eq!(
        (va, vb),
        (1, 1),
        "retry must land on the post-update snapshot"
    );
    assert!(
        reader.engine_stats().aborts >= 1,
        "first attempt had to abort"
    );
}

#[test]
fn deep_chains_serve_readers_across_many_generations() {
    let depth = 16;
    let stm = Stm::with_config(SharedCounter::new(), StmConfig::multi_version(depth));
    let a = stm.new_tvar(0u64);
    let b = stm.new_tvar(0u64);
    let mut reader = stm.register();
    let mut writer = stm.register();

    // Reader pins a snapshot, then `depth - 2` updates land on `a`.
    let mut first = true;
    let (va, vb) = reader.atomically(|tx| {
        let va = *tx.read(&a)?;
        if first {
            first = false;
            for _ in 0..depth - 2 {
                writer.atomically(|wtx| wtx.modify(&a, |v| v + 1));
            }
        }
        Ok((va, *tx.read(&b)?))
    });
    assert_eq!((va, vb), (0, 0));
    assert_eq!(reader.engine_stats().aborts, 0);
    assert!(a.version_count() <= depth);
}

#[test]
fn version_count_is_bounded_under_concurrency() {
    let stm = Stm::with_config(SharedCounter::new(), StmConfig::multi_version(4));
    let v = stm.new_tvar(0u64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let stm = stm.clone();
            let v = v.clone();
            s.spawn(move || {
                let mut h = stm.register();
                for _ in 0..2_000 {
                    h.atomically(|tx| tx.modify(&v, |x| x + 1));
                }
            });
        }
    });
    assert_eq!(*v.snapshot_latest(), 8_000);
    assert!(
        v.version_count() <= 4,
        "pruning must keep the chain bounded"
    );
}

#[test]
fn repeated_read_returns_the_same_arc_after_its_version_was_pruned() {
    // Single-version chains: the committer's fold prunes the version the
    // reader holds. A second read of the object must come from the
    // transaction's own scratch — lent from the very `Arc` the first read
    // lent from — and not go back to the object, which no longer has it.
    let stm = Stm::with_config(SharedCounter::new(), StmConfig::single_version());
    let a = stm.new_tvar(String::from("first"));
    let mut reader = stm.register();
    let mut writer = stm.register();

    let mut attempts = 0;
    reader.atomically(|tx| {
        attempts += 1;
        let v1: *const String = tx.read(&a)?;
        writer.atomically(|wtx| wtx.write(&a, String::from("second")));
        assert_eq!(a.version_count(), 1, "the reader's version is pruned");
        assert_eq!(*a.snapshot_latest(), "second");
        let v2 = tx.read(&a)?;
        assert!(std::ptr::eq(v1, v2), "snapshot stability");
        assert_eq!(*v2, "first");
        Ok(())
    });
    assert_eq!(attempts, 1, "a read-only snapshot of the past commits");
    assert_eq!(
        reader.engine_stats().reads,
        1,
        "the repeated read is not an open"
    );
}

#[test]
fn a_fold_prunes_against_the_newest_installed_watermark() {
    // Retention by watermark alone, and a second handle that does nearly all
    // of the advancing: `busy` commits four times a round (one advance a
    // round at interval 4), `hot` once (one advance every fourth round). A
    // fold takes the watermark from its handle's copy, and the copy follows
    // the domain's epoch — so `x`'s chain is cut back to its newest two
    // versions by every fold, exactly as when each fold read the domain's
    // watermark under its lock. A copy refreshed only by the handle's own
    // advances would let the chain grow to five.
    let cfg = StmConfig {
        wm_advance_interval: 4,
        ..StmConfig::watermark_retention()
    };
    let stm = Stm::with_config(SharedCounter::new(), cfg);
    let (x, y) = (stm.new_tvar(0u64), stm.new_tvar(0u64));
    let mut hot = stm.register();
    let mut busy = stm.register();
    for round in 0..40 {
        for _ in 0..4 {
            busy.atomically(|tx| tx.modify(&y, |v| v + 1));
        }
        hot.atomically(|tx| tx.modify(&x, |v| v + 1));
        assert_eq!(x.version_count(), 2, "round {round}");
    }
    assert_eq!(y.version_count(), 5, "`busy` folds four times per advance");
    assert_eq!(hot.engine_stats().wm_advances, 10);
    assert_eq!(busy.engine_stats().wm_advances, 40);
}
