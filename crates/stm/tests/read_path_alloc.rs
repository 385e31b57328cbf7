//! Allocation witness for the LSA-RT hot path (DESIGN.md §2.1).
//!
//! A handle's transaction scratch — descriptor, read set, write set — is
//! owned by the handle and only ever cleared, so after warm-up a read-only
//! transaction touches the heap not at all, and an
//! update transaction allocates only the values it writes: helpers are
//! handed the read set itself, and version nodes come out of the handle's
//! own pool. A counting `#[global_allocator]` holds that, and a panicking
//! body proves the scratch comes back clean on the unwind path too.
//!
//! The same allocator states what the baseline engines cost per update —
//! the values they write, like LSA-RT — and holds the retention
//! rule: what one huge transaction grew is given back, and the handle is
//! allocation-free again afterwards.
//!
//! Beside the allocation counts stand the reference counts (DESIGN.md §2.1,
//! read-side ledger), sharded and not: a first read moves the version
//! node's count alone, never the payload's or the object's — the value is
//! lent from the read set; a repeated read lends the same value; a
//! read-own-write pins the pending payload until the attempt ends, however
//! it ends; `Extend` takes the object's count once per attempt; a node the
//! arena pools has let go of its payload and of its object; and a
//! steady-state update reuses the node of every version it prunes, moving
//! no object's count. On the baseline engines a first read moves the
//! value's count once, for its read entry.

use lsa_baseline::{NorecStm, Tl2Stm, ValidationMode, ValidationStm};
use lsa_engine::idmap::RETAIN_FLOOR;
use lsa_engine::{EngineHandle, TxnEngine, TxnOps};
use lsa_stm::object::ReadAttempt;
use lsa_stm::prelude::*;
use lsa_time::counter::SharedCounter;
use lsa_time::sharded::ShardedTimeBase;
use lsa_time::{TimeBase, ValidityRange};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per thread, so
    /// the tests of this file can run side by side.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// `Cell` that neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const SCAN: usize = 256;

fn scan(h: &mut ThreadHandle<SharedCounter>, vars: &[TVar<i64, u64>]) -> i64 {
    h.atomically(|tx| {
        let mut sum = 0;
        for v in vars {
            sum += *tx.read(v)?;
        }
        Ok(sum)
    })
}

#[test]
fn steady_state_read_only_transactions_do_not_allocate() {
    let stm = Stm::new(SharedCounter::new());
    let vars: Vec<_> = (0..SCAN).map(|i| stm.new_tvar(i as i64)).collect();
    let expected: i64 = (0..SCAN as i64).sum();
    let mut h = stm.register();
    // Warm-up: the scratch grows to the transaction's size, the tracer and
    // the watermark machinery finish their lazy set-up.
    for _ in 0..100 {
        assert_eq!(scan(&mut h, &vars), expected);
    }
    let n = allocs_during(|| {
        for _ in 0..1_000 {
            assert_eq!(scan(&mut h, &vars), expected);
        }
    });
    assert_eq!(n, 0, "1000 read-only 256-read transactions allocated");
    assert_eq!(h.engine_stats().ro_commits, 1_100);
    assert_eq!(h.engine_stats().reads, 1_100 * SCAN as u64);
}

#[test]
fn update_transactions_allocate_only_the_values_they_write() {
    let stm = Stm::new(SharedCounter::new());
    let (a, b) = (stm.new_tvar(0i64), stm.new_tvar(0i64));
    let mut h = stm.register();
    let transfer = |h: &mut ThreadHandle<SharedCounter>| {
        h.atomically(|tx| {
            tx.modify(&a, |v| v - 1)?;
            tx.modify(&b, |v| v + 1)?;
            // `modify` alone: one open per object, for reading and writing
            // at once.
            assert_eq!(tx.opened(), 2);
            Ok(())
        })
    };
    for _ in 0..200 {
        transfer(&mut h);
    }
    const TXNS: u64 = 1_000;
    let before = h.engine_stats();
    let n = allocs_during(|| {
        for _ in 0..TXNS {
            transfer(&mut h);
        }
    });
    // Opened by writing, the two objects are in the write set alone: each
    // counts as a read and a write, and commit validates nothing — what was
    // written over is covered by the write marks.
    let after = h.engine_stats();
    assert_eq!(after.reads - before.reads, 2 * TXNS);
    assert_eq!(after.writes - before.writes, 2 * TXNS);
    assert_eq!(after.validated_entries, before.validated_entries);
    // Two per transaction, the `Arc`s of the two new values. The helper
    // context, the version nodes and the descriptor are all recycled, and
    // the scratch table neither grows nor rehashes.
    assert_eq!(
        n,
        2 * TXNS,
        "allocations in {TXNS} two-variable update transactions"
    );
    assert_eq!(*a.snapshot_latest() + *b.snapshot_latest(), 0);
}

#[test]
fn steady_state_two_modify_updates_recycle_the_nodes_they_prune() {
    // Default retention prunes at every fold in steady state — by the depth
    // ceiling, or by the watermark after an advance — and the node a fold
    // links is the one it pruned, rebound in place with its way back, or
    // one from the handle's pool. So an update allocates its two values and
    // nothing else, and leaves every object's counts where they were.
    let cfg = StmConfig::default();
    let stm = Stm::with_config(SharedCounter::new(), cfg);
    let vars = [stm.new_tvar(0i64), stm.new_tvar(0i64)];
    let mut h = stm.register();
    let transfer = |h: &mut ThreadHandle<SharedCounter>| {
        h.atomically(|tx| {
            tx.modify(&vars[0], |v| v - 1)?;
            tx.modify(&vars[1], |v| v + 1)
        })
    };
    // Whole advance intervals: both ends of the window sit at the same
    // phase of the watermark's epoch.
    let interval = cfg.wm_advance_interval;
    for _ in 0..8 * interval {
        transfer(&mut h);
    }
    let (counts, before) = (object_counts(&vars), stm.reclaim_stats());
    let txns = 32 * interval;
    let n = allocs_during(|| {
        for _ in 0..txns {
            transfer(&mut h);
        }
    });
    assert_eq!(n, 2 * txns, "the two values written");
    assert_eq!(object_counts(&vars), counts, "strong and weak");
    let after = stm.reclaim_stats();
    assert_eq!(
        after.versions_recycled - before.versions_recycled,
        2 * txns,
        "every fold reused a node"
    );
    assert_eq!(after.versions_pooled, before.versions_pooled);
    assert_eq!(*vars[0].snapshot_latest() + *vars[1].snapshot_latest(), 0);
}

#[test]
fn read_then_write_still_validates_what_it_read() {
    // The bank / wire `Transfer` shape: read, read, write, write. The
    // versions read stay in `T.O` (flagged as under the writer's own mark)
    // and are validated; the writes add nothing to it.
    let stm = Stm::new(SharedCounter::new());
    let (a, b) = (stm.new_tvar(0i64), stm.new_tvar(0i64));
    let mut h = stm.register();
    let transfer = |h: &mut ThreadHandle<SharedCounter>| {
        h.atomically(|tx| {
            let (va, vb) = (*tx.read(&a)?, *tx.read(&b)?);
            tx.write(&a, va - 1)?;
            tx.write(&b, vb + 1)?;
            assert_eq!(tx.opened(), 2);
            Ok(())
        })
    };
    for _ in 0..200 {
        transfer(&mut h);
    }
    const TXNS: u64 = 1_000;
    let before = h.engine_stats();
    let n = allocs_during(|| {
        for _ in 0..TXNS {
            transfer(&mut h);
        }
    });
    assert_eq!(n, 2 * TXNS, "the two values written");
    let after = h.engine_stats();
    assert_eq!(after.validated_entries - before.validated_entries, 2 * TXNS);
    assert_eq!(after.aborts, 0);
    assert_eq!(*a.snapshot_latest() + *b.snapshot_latest(), 0);
}

#[test]
fn every_open_is_one_table_entry_per_distinct_object() {
    let stm = Stm::new(SharedCounter::new());
    let vars: Vec<_> = (0..8).map(|i| stm.new_tvar(i as i64)).collect();
    let mut h = stm.register();
    // Read-only, repeated reads included.
    let opened = h.atomically(|tx| {
        for v in vars.iter().chain(&vars[..3]) {
            tx.read(v)?;
        }
        Ok(tx.opened())
    });
    assert_eq!(opened, 8);
    // Write-only, re-writes included.
    let opened = h.atomically(|tx| {
        for v in vars[..5].iter().chain(&vars[..2]) {
            tx.write(v, 7)?;
        }
        Ok(tx.opened())
    });
    assert_eq!(opened, 5);
    // `modify` only: the first one claims the entry as written, the
    // repeats find it — no second entry.
    let opened = h.atomically(|tx| {
        for v in vars[..4].iter().chain(&vars[..4]) {
            tx.modify(v, |x| x + 1)?;
        }
        Ok(tx.opened())
    });
    assert_eq!(opened, 4);
    assert_eq!(*vars[0].snapshot_latest(), 9);
    // Opens that end in an abort leave nothing behind for the retry.
    let mut first = true;
    let opened = h.atomically(|tx| {
        tx.read(&vars[7])?;
        tx.modify(&vars[6], |x| x + 1)?;
        if std::mem::take(&mut first) {
            return Err(tx.abort_retry());
        }
        Ok(tx.opened())
    });
    assert_eq!(opened, 2);
}

/// Allocations per two-variable `modify` transaction on the baseline
/// engines: the `Arc` of each new value. A read-set or write-set entry holds
/// its object as an `Arc` trait object cloned from the variable, so neither
/// is boxed; the logs, the two id tables and the commit's lock record live
/// on the thread handle.
const BASELINE_ALLOCS_PER_TRANSFER: u64 = 2;

/// Steady-state allocations of two-variable `modify` transactions on a
/// baseline engine: [`BASELINE_ALLOCS_PER_TRANSFER`] each.
fn baseline_update_transactions_allocate_their_values_only<E: TxnEngine>(engine: E) {
    let (a, b) = (engine.new_var(0i64), engine.new_var(0i64));
    let mut h = engine.register();
    let mut transfer = || {
        h.atomically(|tx| {
            tx.modify(&a, |v| v - 1)?;
            tx.modify(&b, |v| v + 1)
        })
    };
    for _ in 0..200 {
        transfer();
    }
    const TXNS: u64 = 1_000;
    let n = allocs_during(|| {
        for _ in 0..TXNS {
            transfer();
        }
    });
    assert_eq!(
        n,
        BASELINE_ALLOCS_PER_TRANSFER * TXNS,
        "{}",
        engine.engine_name()
    );
    assert_eq!(*E::peek(&a) + *E::peek(&b), 0);
}

#[test]
fn tl2_update_transactions_allocate_their_entries_and_values_only() {
    baseline_update_transactions_allocate_their_values_only(Tl2Stm::new(SharedCounter::new()));
}

#[test]
fn norec_update_transactions_allocate_their_entries_and_values_only() {
    baseline_update_transactions_allocate_their_values_only(NorecStm::new());
}

#[test]
fn validation_update_transactions_allocate_their_entries_and_values_only() {
    for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
        baseline_update_transactions_allocate_their_values_only(ValidationStm::new(mode));
    }
}

#[test]
fn one_huge_scan_does_not_tax_the_transactions_after_it() {
    const HUGE: usize = 100_000;
    let stm = Stm::new(SharedCounter::new());
    let vars: Vec<_> = (0..HUGE).map(|_| stm.new_tvar(1i64)).collect();
    let (a, b) = (&vars[0], &vars[1]);
    let mut h = stm.register();
    let transfer = |h: &mut ThreadHandle<SharedCounter>| {
        h.atomically(|tx| {
            tx.modify(a, |v| v - 1)?;
            tx.modify(b, |v| v + 1)
        })
    };

    assert_eq!(scan(&mut h, &vars), HUGE as i64);
    // Kept: the attempt used what it grew, and a second scan of the kind
    // should not have to grow it again.
    assert!(h.scratch_capacity() >= HUGE);
    assert_eq!(
        allocs_during(|| assert_eq!(scan(&mut h, &vars), HUGE as i64)),
        0
    );

    // The first small transaction hands it back; the next ones settle on
    // what they need.
    for _ in 0..200 {
        transfer(&mut h);
    }
    assert!(
        h.scratch_capacity() <= RETAIN_FLOOR,
        "{} entries retained after two-variable transactions",
        h.scratch_capacity()
    );
    const TXNS: u64 = 1_000;
    let n = allocs_during(|| {
        for _ in 0..TXNS {
            transfer(&mut h);
        }
    });
    assert_eq!(n, 2 * TXNS, "steady state: the two values written");
    assert!(h.scratch_capacity() <= RETAIN_FLOOR);
}

#[test]
fn a_panicking_body_hands_back_a_clean_scratch() {
    // Retention is by watermark alone here, so a snapshot slot left pending
    // or active by the unwound transaction would pin every later version.
    let cfg = StmConfig {
        wm_advance_interval: 1,
        ..StmConfig::watermark_retention()
    };
    let stm = Stm::with_config(SharedCounter::new(), cfg);
    let (x, y) = (stm.new_tvar(1i64), stm.new_tvar(2i64));
    let mut h = stm.register();
    let mut other = stm.register();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        h.atomically(|tx| {
            let seen = *tx.read(&x)?; // a read-set entry
            tx.write(&y, seen + 40)?; // a write-set entry and a registered writer
            if seen == 1 {
                panic!("body failed mid-transaction");
            }
            Ok(())
        })
    }));
    assert!(unwound.is_err());
    assert_eq!(*y.snapshot_latest(), 2, "the unwound write was discarded");

    // Others are not blocked by a zombie writer or a stuck snapshot …
    for i in 0..20 {
        other.atomically(|tx| {
            tx.write(&x, 100 + i)?;
            tx.write(&y, 200 + i)
        });
    }
    assert_eq!(other.engine_stats().aborts, 0);
    assert_eq!(other.engine_stats().conflicts, 0);
    assert!(
        x.version_count() <= 2 && y.version_count() <= 2,
        "the unwound transaction still pins the watermark: {} / {} versions",
        x.version_count(),
        y.version_count()
    );

    // … and the handle's next transaction starts from empty sets: `x` is
    // read from the object (not the stale cached 1), `y` is not taken for
    // an own write (which would abort as Killed), and nothing is validated
    // or folded for it.
    let before = h.engine_stats();
    let (sx, sy) = h.atomically(|tx| Ok((*tx.read(&x)?, *tx.read(&y)?)));
    assert_eq!((sx, sy), (119, 219));
    let after = h.engine_stats();
    assert_eq!(after.aborts, before.aborts);
    assert_eq!(after.ro_commits, before.ro_commits + 1);
    assert_eq!(after.reads, before.reads + 2, "both were first opens");
    assert_eq!(after.validated_entries, before.validated_entries);
}

/// `(strong, weak)` of the object behind each variable.
fn object_counts(vars: &[TVar<i64, u64>]) -> Vec<(usize, usize)> {
    let counts = |v: &TVar<i64, u64>| {
        let obj = v.object_for_tests();
        (Arc::strong_count(obj), Arc::weak_count(obj))
    };
    vars.iter().map(counts).collect()
}

fn payload_counts(payloads: &[Arc<i64>]) -> Vec<usize> {
    payloads.iter().map(Arc::strong_count).collect()
}

/// Strong count of the version node the object serves at the head of its
/// chain, without the count this look-up itself holds.
fn node_count(var: &TVar<i64, u64>) -> usize {
    match var.object_for_tests().try_read(&ValidityRange::from(0)) {
        ReadAttempt::Found { meta, .. } => Arc::strong_count(&meta) - 1,
        _ => panic!("a committed object serves its head version"),
    }
}

/// A first read leaves the payload's and the object's counts alone and
/// raises the version node's by the one `Arc` in `T.O`; 256 of them and a
/// commit later every count is back where it was.
fn first_reads_move_the_nodes_count_and_never_the_payloads<B: TimeBase<Ts = u64>>(stm: Stm<B>) {
    let vars: Vec<_> = (0..SCAN).map(|i| stm.new_tvar(i as i64)).collect();
    let payloads: Vec<Arc<i64>> = vars.iter().map(|v| v.snapshot_latest()).collect();
    let (objects_before, payloads_before) = (object_counts(&vars), payload_counts(&payloads));
    let node_before = node_count(&vars[0]);
    let mut h = stm.register();
    h.atomically(|tx| {
        let first: *const i64 = tx.read(&vars[0])?;
        assert_eq!(first, Arc::as_ptr(&payloads[0]), "lent, not copied");
        assert_eq!(object_counts(&vars[..1]), objects_before[..1]);
        assert_eq!(
            Arc::strong_count(&payloads[0]),
            payloads_before[0],
            "the payload is lent from the node"
        );
        assert_eq!(node_count(&vars[0]), node_before + 1, "the T.O entry");
        // Served from the read-set entry: the same payload, no count moves.
        let again = tx.read(&vars[0])?;
        assert!(
            std::ptr::eq(first, again),
            "a repeated read lends the same value"
        );
        assert_eq!(Arc::strong_count(&payloads[0]), payloads_before[0]);
        assert_eq!(node_count(&vars[0]), node_before + 1);
        for v in &vars {
            tx.read(v)?;
        }
        assert_eq!(object_counts(&vars), objects_before, "during the attempt");
        assert_eq!(payload_counts(&payloads), payloads_before);
        Ok(())
    });
    assert_eq!(object_counts(&vars), objects_before, "after the commit");
    assert_eq!(payload_counts(&payloads), payloads_before);
    assert_eq!(node_count(&vars[0]), node_before, "T.O let go");
}

#[test]
fn a_first_read_moves_one_count_on_stm() {
    first_reads_move_the_nodes_count_and_never_the_payloads(Stm::new(SharedCounter::new()));
}

#[test]
fn a_first_read_moves_one_count_on_sharded_stm() {
    let tb = ShardedTimeBase::new(SharedCounter::new(), 2);
    first_reads_move_the_nodes_count_and_never_the_payloads(Stm::new(tb));
}

#[test]
fn a_read_own_write_sees_the_pending_value() {
    let stm = Stm::new(SharedCounter::new());
    let (x, y) = (stm.new_tvar(7i64), stm.new_tvar(1i64));
    let mut h = stm.register();
    h.atomically(|tx| {
        // Opened by `modify`, then re-modified.
        tx.modify(&x, |v| v + 1)?;
        assert_eq!(*tx.read(&x)?, 8);
        tx.modify(&x, |v| v * 2)?;
        assert_eq!(*tx.read(&x)?, 16);
        // Read first, then modified: the read no longer sees the snapshot.
        let seen = *tx.read(&y)?;
        tx.modify(&y, |v| v + 10)?;
        assert_eq!(*tx.read(&y)?, seen + 10);
        Ok(())
    });
    assert_eq!((*x.snapshot_latest(), *y.snapshot_latest()), (16, 11));
}

/// A payload that holds a count of its probe for as long as it lives, so
/// the probe's count says how many such payloads are alive, however many
/// `Arc`s share each.
struct Probed {
    _probe: Arc<()>,
}

fn probed(probe: &Arc<()>) -> Probed {
    Probed {
        _probe: Arc::clone(probe),
    }
}

#[test]
fn pinned_pending_payloads_are_released_at_commit_abort_and_unwind() {
    let stm = Stm::new(SharedCounter::new());
    let mut h = stm.register();
    // A fresh variable, and the probe of the payloads written to it.
    let fresh = || (stm.new_tvar(probed(&Arc::new(()))), Arc::new(()));
    // Every read-own-write below pins the pending payload it lends; a
    // re-`modify` replaces the pending payload while the old one is pinned.
    let write_read_modify_read =
        |tx: &mut Txn<'_, SharedCounter>, var: &TVar<Probed, u64>, probe: &Arc<()>| {
            tx.write(var, probed(probe))?;
            tx.read(var)?;
            tx.modify(var, |_| probed(probe))?;
            tx.read(var)?;
            Ok(())
        };

    // Commit: the committed version's payload is the one live copy.
    let (var, probe) = fresh();
    let base = Arc::strong_count(&var.snapshot_latest());
    h.atomically(|tx| write_read_modify_read(tx, &var, &probe));
    assert_eq!(Arc::strong_count(&probe), 2, "committed, nothing pinned");
    assert_eq!(Arc::strong_count(&var.snapshot_latest()), base);

    // Abort: no copy is left.
    let (var, probe) = fresh();
    let aborted = h.try_atomically(1, |tx| {
        write_read_modify_read(tx, &var, &probe)?;
        Err::<(), _>(tx.abort_retry())
    });
    assert!(aborted.is_err());
    assert_eq!(Arc::strong_count(&probe), 1, "aborted, nothing pinned");

    // A panicking body: the unwind releases them too.
    let (var, probe) = fresh();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        h.atomically(|tx| {
            write_read_modify_read(tx, &var, &probe)?;
            if Arc::strong_count(&probe) > 1 {
                panic!("body failed after a read-own-write");
            }
            Ok(())
        })
    }));
    assert!(unwound.is_err());
    assert_eq!(Arc::strong_count(&probe), 1, "unwound, nothing pinned");
}

/// A first read on a baseline engine clones the value's `Arc` once, into its
/// read entry, and lends from there: one count while the attempt runs, none
/// after it.
fn baseline_first_read_moves_one_value_count<E: TxnEngine>(engine: E) {
    let var = engine.new_var(5i64);
    let base = Arc::strong_count(&E::peek(&var));
    let mut h = engine.register();
    h.atomically(|tx| {
        let first: *const i64 = tx.read(&var)?;
        let during = Arc::strong_count(&E::peek(&var));
        assert_eq!(during, base + 1, "{}: the read entry", engine.engine_name());
        let again = tx.read(&var)?;
        assert!(
            std::ptr::eq(first, again),
            "a repeated read lends the same value"
        );
        assert_eq!(Arc::strong_count(&E::peek(&var)), base + 1);
        Ok(())
    });
    assert_eq!(
        Arc::strong_count(&E::peek(&var)),
        base,
        "{}",
        engine.engine_name()
    );
}

#[test]
fn a_first_baseline_read_moves_one_value_count() {
    baseline_first_read_moves_one_value_count(Tl2Stm::new(SharedCounter::new()));
    baseline_first_read_moves_one_value_count(NorecStm::new());
    for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
        baseline_first_read_moves_one_value_count(ValidationStm::new(mode));
    }
}

/// Single-version chains, a concurrent committer: the version a transaction
/// read is pruned — and its node retired — while the read set still holds
/// it. A repeated read lends the very payload the first one did; once the
/// last reader lets go, the payload dies. Then a fold that prunes three
/// versions nobody holds: the first one's node is linked again as the new
/// version, and what the arena pooled of the other two holds neither a
/// payload nor a way back to the object.
fn a_pruned_version_stays_readable_and_a_pooled_node_is_empty<B: TimeBase>(mk: impl Fn() -> B) {
    let stm = Stm::with_config(mk(), StmConfig::single_version());
    let var = stm.new_tvar(7i64);
    let object = Arc::clone(var.object_for_tests());
    // The object's own reference to itself, and its head version's.
    assert_eq!(Arc::weak_count(&object), 2);
    let (mut reader, mut writer) = (stm.register(), stm.register());
    let witness = Arc::downgrade(&var.snapshot_latest());
    reader.atomically(|tx| {
        let first: *const i64 = tx.read(&var)?;
        writer.atomically(|wtx| wtx.write(&var, 8));
        assert_eq!(var.version_count(), 1, "the version read is off the chain");
        let again = tx.read(&var)?;
        assert!(std::ptr::eq(first, again), "same version, same payload");
        assert_eq!(*again, 7);
        assert!(witness.upgrade().is_some(), "T.O keeps it alive");
        Ok(())
    });
    assert!(
        witness.upgrade().is_none(),
        "retired while the reader held it, so the reader's cleanup was the last"
    );
    assert_eq!(Arc::weak_count(&object), 2);

    // Watermark retention, advancing after every transaction: a reader pins
    // three superseded versions, then lets go, and the next fold prunes all
    // three.
    let cfg = StmConfig {
        wm_advance_interval: 1,
        ..StmConfig::watermark_retention()
    };
    let stm = Stm::with_config(mk(), cfg);
    let var = stm.new_tvar(0i64);
    let object = Arc::clone(var.object_for_tests());
    let (mut reader, mut writer) = (stm.register(), stm.register());
    let superseded = reader.atomically(|tx| {
        tx.read(&var)?;
        let mut payloads = Vec::new();
        for v in 1..=3 {
            payloads.push(Arc::downgrade(&var.snapshot_latest()));
            writer.atomically(|wtx| wtx.write(&var, v));
        }
        Ok(payloads)
    });
    assert_eq!(var.version_count(), 4, "pinned by the reader");
    writer.atomically(|wtx| wtx.write(&var, 4));
    assert_eq!(var.version_count(), 2);
    let s = stm.reclaim_stats();
    assert_eq!(
        (s.versions_recycled, s.versions_pooled),
        (1, 2),
        "the first pruned node is the new version, two went to the pool …"
    );
    assert!(
        superseded.iter().all(|p| p.upgrade().is_none()),
        "… without their payloads …"
    );
    assert_eq!(
        Arc::weak_count(&object),
        3,
        "… and without their way back: the object itself and its two versions"
    );
    assert_eq!(*var.snapshot_latest(), 4);
}

#[test]
fn a_pruned_version_stays_readable_and_pooled_nodes_are_empty_on_stm() {
    a_pruned_version_stays_readable_and_a_pooled_node_is_empty(SharedCounter::new);
}

#[test]
fn a_pruned_version_stays_readable_and_pooled_nodes_are_empty_on_sharded_stm() {
    a_pruned_version_stays_readable_and_a_pooled_node_is_empty(|| {
        ShardedTimeBase::new(SharedCounter::new(), 2)
    });
}

#[test]
fn extend_takes_the_objects_count_once_per_attempt() {
    let stm = Stm::new(SharedCounter::new());
    let (latest, superseded) = (stm.new_tvar(1i64), stm.new_tvar(2i64));
    let mut gone = Some(stm.new_tvar(3i64));
    let strong = |v: &TVar<i64, u64>| Arc::strong_count(v.object_for_tests());
    let (mut h, mut other) = (stm.register(), stm.register());
    h.atomically(|tx| {
        tx.read(&latest)?;
        tx.read(&superseded)?;
        // The last handle goes mid-attempt: the entry's way back is dead.
        let var = gone.take().expect("read-only: one attempt");
        assert_eq!(*tx.read(&var)?, 3);
        drop(var);
        other.atomically(|otx| otx.write(&superseded, 20));
        assert_eq!((strong(&latest), strong(&superseded)), (1, 1), "reads");

        let before = tx.validity_range();
        tx.extend();
        assert_eq!(strong(&latest), 2, "upgraded for o.writer, and kept");
        assert_eq!(strong(&superseded), 1, "its bound is fixed: no object");
        tx.extend();
        tx.extend();
        assert_eq!(strong(&latest), 2, "later extensions reuse the reference");
        // The superseded version caps the range where it ended; the entry
        // of the dropped object fell back to the clock reading.
        let after = tx.validity_range();
        assert!(after.is_consistent() && after.upper >= before.upper);
        Ok(())
    });
    assert_eq!((strong(&latest), strong(&superseded)), (1, 1), "released");

    // An update's commit validates through the node as well: the dropped
    // object has no writer, so the commit time bounds its version.
    let target = stm.new_tvar(0i64);
    let mut gone = Some(stm.new_tvar(4i64));
    h.atomically(|tx| {
        let var = gone.take().expect("nothing to abort for: one attempt");
        let seen = *tx.read(&var)?;
        drop(var);
        tx.modify(&target, |v| v + seen)
    });
    assert_eq!(*target.snapshot_latest(), 4);
    assert_eq!(h.engine_stats().aborts, 0);
    assert_eq!(h.engine_stats().validated_entries, 1);
}
