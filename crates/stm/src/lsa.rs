//! The Real-Time Lazy Snapshot Algorithm (LSA-RT), Algorithms 2–3 of the
//! paper.
//!
//! A [`Txn`] incrementally constructs a *consistent snapshot*: the set of
//! object versions it reads, together with a validity range `T.R` that is the
//! intersection of the versions' validity ranges. Because `T.R` is kept
//! guaranteed-non-empty at every step, transactions always observe consistent
//! data without per-access validation — the defining property of time-based
//! transactional memory (§1.1).
//!
//! Key correspondences with the paper's pseudocode:
//!
//! | Paper | Here |
//! |---|---|
//! | `Start(T)` (Alg. 2 l.1–7) | `Txn::start` (crate-internal, driven by `atomically`) |
//! | `Open(T,o,write)` (l.9–24) | [`Txn::write`] / [`Txn::modify`] |
//! | `Open(T,o,read)` (l.25–33) | [`Txn::read`] |
//! | `Commit(T)` (l.35–52) | `Txn::finish_commit` (driven by `atomically` via `Txn::conclude`) |
//! | `Abort(T)` (l.53–59) | `Txn::do_abort` + `Err(Abort)` propagation |
//! | `Extend(T)` (Alg. 3 l.1–6) | [`Txn::extend`] |
//! | `getVersion` (l.7–18) | [`crate::object::TObject::try_read`] + retry loop |
//! | `getPrelimUB` (l.19–35) | [`ReadAttempt::Found::upper`] at opens, `prelim_raw` elsewhere |
//! | `o.writer` of a version in `T.O` | through the version node ([`VersionMeta`]), see below |
//! | helping (l.13) | `Txn::help_commit` |
//!
//! ### The `t` parameter of `getPrelimUB`
//!
//! The fallback branch of `getPrelimUB` returns the caller-supplied timestamp
//! `t`, which is sound exactly when the caller can guarantee that the version
//! was still the latest at (a real time corresponding to) `t`. We pass:
//! * at **open**: the transaction's own latest observation — the join of
//!   `⌊T.R⌋` (commit times of versions it read) and the last `getTime` it
//!   performed — both in the past, and the version is the latest *now*: the
//!   object samples "latest, no committing writer" in the critical section
//!   that selects the version, after `t` was obtained, so no second lock
//!   acquisition and no re-check are needed;
//! * at **extend**: a fresh `getTime()` (Alg. 3 line 2);
//! * at **commit validation**: `T.CT` (Alg. 2 line 44) — sound because any
//!   later superseder must acquire its commit time after entering the
//!   `Committing` state, i.e. strictly after ours (§2.4). For the versions
//!   of objects the transaction holds the write mark on
//!   ([`CtxEntry::own`]) this is Alg. 3 line 27's self case, and `validate`
//!   answers it from the entry alone.
//!
//! ### `T.O` holds versions, not objects
//!
//! A read-set entry is the version node: bounds, payload, and a weak
//! reference back to the object. A repeated read takes its value from the
//! entry. `getPrelimUB` needs the object only for `o.writer`, and only for
//! a version whose upper bound is still unset; [`Txn::extend`] upgrades the
//! reference the first time it meets such an entry and keeps the result in
//! the scratch (`TxnScratch::objects`) for the attempt's later extensions, so
//! a transaction that never extends never touches an object's reference
//! count, and one that extends often pays for it once. An object whose last
//! `TVar` is gone has no writer: the caller's `t` bounds its head version.
//!
//! ### Written objects are not in `T.O`
//!
//! An object opened by writing it is recorded in the write set only. The
//! version written over, `vc`, is the latest for as long as the write mark
//! is held, so `getPrelimUB` for it is the self case wherever it is asked:
//! at open (the registration intersects `T.R` with `[⌊vc.R⌋, t]` like a
//! read's, and refuses a `vc` the snapshot cannot admit before anything
//! sees it), at commit (a transaction that reaches validation was never
//! killed, so it never lost a mark) and at extend, where the one thing that
//! could have ended it — a kill — is checked once, after the clock read
//! ([`Txn::extend`]). A transaction that read nothing therefore has nothing
//! to validate, and publishes no context for helpers at all.

use crate::config::StmConfig;
use crate::error::{Abort, AbortReason, TxResult};
use crate::object::{narrow, AnyObject, ReadAttempt, TVar, WriteAttempt};
use crate::status::TxnStatus;
use crate::stm::HandleCore;
use crate::txn_shared::{CommitCtx, CtxEntry, TxnShared};
use crate::version::VersionMeta;
use lsa_engine::idmap::{recycle_map, recycle_vec, IdMap};
use lsa_engine::Stat;
use lsa_obs::trace::{self, EventKind};
use lsa_time::{ThreadClock, TimeBase, Timestamp, ValidityRange};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Failed attempts in a row after which each further abort yields the thread
/// (livelock hygiene under heavy oversubscription).
const YIELD_AFTER_RETRIES: u32 = 64;

/// Outcome of one `getPrelimUB` attempt.
enum Prelim<Ts: Timestamp> {
    /// A sound conservative estimate of `⌈v.R⌉`.
    Ready(Ts),
    /// The registered writer is `Committing` but its commit time is not set
    /// yet. Returning the fallback `t` here would be **unsound**: the writer
    /// may already hold a commit time ≤ `t` (drawn from the time base before
    /// our reading of `t`) that is merely not yet published. Resolution is
    /// the paper's helper behaviour (Algorithm 2 lines 41–42): race to set
    /// the writer's commit time from our own clock — "a committing thread
    /// will try to set the timestamp obtained from its local time reference
    /// … if it fails, another thread has set the commit time beforehand".
    /// A helper-set commit time is sound: it is obtained *after* observing
    /// the `Committing` state, satisfying §2.4's visibility requirement.
    NeedCt(Arc<TxnShared<Ts>>),
}

/// `getPrelimUB(T, o, v, t)` — Algorithm 3 lines 19–35: one attempt at a
/// conservative estimate of `⌈v.R⌉`, for callers that did not select `v`
/// under `o`'s lock just now (extend, validation, helpers) and do not hold
/// `o`'s write mark while committing (that self case is `validate`'s).
///
/// `o` is reached through `v`: `object` is where the caller keeps the
/// upgraded back-reference, filled here the first time `v` is found without
/// an upper bound. It stays `None` for an object that has been dropped.
fn prelim_raw<Ts: Timestamp>(
    meta: &VersionMeta<Ts>,
    object: &mut Option<Arc<dyn AnyObject<Ts>>>,
    t: Ts,
) -> Prelim<Ts> {
    // Superseded: the exact upper bound is known.
    if let Some(u) = meta.upper() {
        return Prelim::Ready(u);
    }
    if object.is_none() {
        *object = meta.object();
    }
    // The paper's pseudocode evaluates getPrelimUB atomically; here the
    // reads of `meta.upper` (above) and `o.writer` (below) are separate and
    // the thread can stall between them — during which `v` may be superseded
    // several times and `o.writer` may belong to a much later generation,
    // whose commit time says NOTHING about `v`'s validity. Because `upper`
    // is write-once, re-checking it *after* sampling the writer
    // (`finish(..)` below) restores atomicity: if it is still unset at the
    // re-check, no successor of `v` has folded, so `v` really is the latest
    // version at that instant and the sampled writer (if any) is its first
    // prospective superseder — making the bounds below sound.
    let finish = |claim: Prelim<Ts>| -> Prelim<Ts> {
        match meta.upper() {
            Some(u) => Prelim::Ready(u),
            None => claim,
        }
    };
    // v is (tentatively) the latest version: only the registered writer may
    // bound it before t. (A dropped object has none, and cannot get one.)
    if let Some(w) = object.as_ref().and_then(|o| o.current_writer()) {
        let st = w.status();
        if matches!(st, TxnStatus::Committing | TxnStatus::Committed) {
            return match w.ct() {
                Some(ct) => {
                    // The superseding version becomes valid at ct, so v is
                    // valid at least until ct − 1 (Alg. 3 line 29). Sound
                    // even if w later aborts (the version then stays valid
                    // longer than claimed).
                    finish(Prelim::Ready(ct.prior()))
                }
                // Committed implies a published CT, so only a Committing
                // writer can land here.
                None => finish(Prelim::NeedCt(w)),
            };
        }
    }
    finish(Prelim::Ready(t))
}

/// `getPrelimUB` resolved to a sound value: when the registered writer is
/// committing but has not yet published its commit time, race to install one
/// from `clock` (the paper's nonblocking helper behaviour) and recompute.
fn prelim_resolved<C: ThreadClock>(
    clock: &mut C,
    meta: &VersionMeta<C::Ts>,
    object: &mut Option<Arc<dyn AnyObject<C::Ts>>>,
    t: C::Ts,
) -> C::Ts {
    loop {
        match prelim_raw(meta, object, t) {
            Prelim::Ready(ub) => return ub,
            Prelim::NeedCt(w) => {
                // Arbitrated like any commit time: `t` is in the caller's
                // past, so the result strictly exceeds it (§2.4). Whether
                // the value is shared or exclusive is irrelevant here — the
                // first setter wins either way.
                let fresh = clock.acquire_commit_ts(t).ts();
                w.set_ct(fresh); // first setter wins; everyone agrees after
            }
        }
    }
}

/// Commit-time validation (Algorithm 2 lines 43–48), by the owner or a
/// helper: every version in `T.O` must be (guaranteed) valid at `ct`.
pub(crate) fn validate<C: ThreadClock>(
    clock: &mut C,
    entries: &[CtxEntry<C::Ts>],
    ct: C::Ts,
) -> bool {
    entries.iter().all(|e| {
        let ub = match e.meta.upper() {
            // Own write mark, version still the latest (Alg. 3 line 27): the
            // committing owner keeps the mark until it resolves, so nobody
            // commits a version of the object before CT + 1. An entry whose
            // bound is fixed was superseded before the mark was taken.
            None if e.own => ct,
            // Validation runs once: the object reference is not kept.
            _ => prelim_resolved(clock, &e.meta, &mut None, ct),
        };
        // Paper line 45: abort if T.CT ≿ ub (possibly later than).
        !ct.possibly_later(ub)
    })
}

/// How the running attempt has opened an object so far.
#[derive(Clone, Copy)]
enum Opened {
    /// Read from the snapshot: the version is `read_set[entry]`.
    Read { entry: usize },
    /// Registered as writer: reads go to the speculative version.
    Written,
}

/// A handle's transaction working memory: the descriptor and the read/write
/// sets. It is owned by the handle and *recycled* — at every attempt's end,
/// be it commit, abort or a panic unwinding through the body — so a
/// steady-state attempt allocates nothing but the payloads it writes, and
/// what an idle handle retains is bounded by `lsa_engine::idmap`'s retention
/// rule instead of by the largest transaction it ever ran.
pub(crate) struct TxnScratch<Ts: Timestamp> {
    /// The current (or last) attempt's descriptor. Reused in place for the
    /// next attempt whenever no object or helper still holds a reference.
    shared: Arc<TxnShared<Ts>>,
    /// `T.O` in open order: the versions read. A version the attempt went
    /// on to write over stays, flagged [`CtxEntry::own`]; an object opened
    /// by writing it has no entry here.
    read_set: Vec<CtxEntry<Ts>>,
    /// The shell `read_set` is published to helpers in. Between a commit's
    /// publication and the attempt's `clear` it holds the read set, which
    /// is never empty there — an update that read nothing publishes no
    /// context; at all other times it is empty and this is the only
    /// reference.
    ctx: Arc<CommitCtx<Ts>>,
    /// The objects of read-set entries, by entry index, as far as an
    /// `Extend` needed them for `o.writer`: upgraded once, kept for the
    /// attempt's later extensions. Empty in an attempt that never extends;
    /// never longer than `read_set`.
    objects: Vec<Option<Arc<dyn AnyObject<Ts>>>>,
    /// Every object opened so far, by id. Probed once per open: a first
    /// read claims its entry in the lookup, a write's insert returns what
    /// was there.
    opened: IdMap<Opened>,
    /// Objects this attempt registered on, to fold at its end — the one
    /// place a written object is recorded.
    write_set: Vec<Arc<dyn AnyObject<Ts>>>,
    /// The pending payloads read-own-writes lent out, held until the
    /// attempt ends.
    pinned: Vec<Arc<dyn Any + Send + Sync>>,
}

impl<Ts: Timestamp> TxnScratch<Ts> {
    pub(crate) fn new() -> Self {
        TxnScratch {
            shared: Arc::new(TxnShared::new(0)),
            read_set: Vec::new(),
            ctx: Arc::default(),
            objects: Vec::new(),
            opened: IdMap::default(),
            write_set: Vec::new(),
            pinned: Vec::new(),
        }
    }

    /// Publish the (non-empty) read set for helpers by handing the vector
    /// itself over: from here to `clear`, `T.O` is `ctx.entries` and nobody
    /// mutates it.
    fn publish_read_set(&mut self) {
        debug_assert!(!self.read_set.is_empty(), "nothing to validate");
        match Arc::get_mut(&mut self.ctx) {
            Some(ctx) => std::mem::swap(&mut ctx.entries, &mut self.read_set),
            // A helper still holds the shell. `clear` replaces a shell it
            // cannot take back, so this is a guard, not a path: the helper
            // keeps that one.
            None => {
                self.ctx = Arc::new(CommitCtx {
                    entries: std::mem::take(&mut self.read_set),
                })
            }
        }
        self.shared.publish_ctx(Arc::clone(&self.ctx));
    }

    fn clear(&mut self) {
        if !self.ctx.entries.is_empty() {
            match Arc::get_mut(&mut self.ctx) {
                // Take the published read set back (the descriptor has
                // dropped its reference by now).
                Some(ctx) => std::mem::swap(&mut ctx.entries, &mut self.read_set),
                // A helper is still validating through it: it keeps that
                // one, the next commit publishes a fresh one.
                None => self.ctx = Arc::default(),
            }
        }
        recycle_vec(&mut self.read_set);
        recycle_vec(&mut self.objects);
        recycle_map(&mut self.opened);
        recycle_vec(&mut self.write_set);
        recycle_vec(&mut self.pinned);
    }

    /// Largest capacity, in entries, any of the scratch containers holds.
    pub(crate) fn capacity(&self) -> usize {
        self.read_set
            .capacity()
            .max(self.ctx.entries.capacity())
            .max(self.objects.capacity())
            .max(self.opened.capacity())
            .max(self.write_set.capacity())
            .max(self.pinned.capacity())
    }
}

/// An executing transaction. Created by
/// [`crate::stm::ThreadHandle::atomically`]; user code receives `&mut Txn`
/// inside the transaction body and performs [`Txn::read`] / [`Txn::write`] /
/// [`Txn::modify`] operations, propagating [`Abort`] errors with `?`.
///
/// One `Txn` serves every attempt of a logical transaction: `start` begins
/// an attempt, `conclude` ends it and counts the failed ones.
pub struct Txn<'h, B: TimeBase> {
    cfg: &'h StmConfig,
    /// The handle's clock, statistics, snapshot slot and scratch.
    core: &'h mut HandleCore<B>,
    /// `T.R` — the snapshot's validity range.
    range: ValidityRange<B::Ts>,
    /// Latest time this transaction has itself observed (start / extends);
    /// the sound fallback for `getPrelimUB` at opens.
    observed: B::Ts,
    is_update: bool,
    /// No attempt is live (before the first `start`, after `conclude`).
    finished: bool,
    /// Attempts failed so far (livelock hygiene, `YIELD_AFTER_RETRIES`).
    retries: u32,
}

impl<'h, B: TimeBase> Txn<'h, B> {
    /// A logical transaction on `core`, with no attempt started yet.
    pub(crate) fn new(cfg: &'h StmConfig, core: &'h mut HandleCore<B>) -> Self {
        let origin = <B::Ts as Timestamp>::origin();
        Txn {
            cfg,
            core,
            range: ValidityRange::from(origin),
            observed: origin,
            is_update: false,
            finished: true,
            retries: 0,
        }
    }

    /// `Start(T)` — Algorithm 2 lines 1–7 — for the next attempt.
    pub(crate) fn start(&mut self) {
        debug_assert!(self.finished, "previous attempt still live");
        let core = &mut *self.core;
        let txn_id = core.next_txn_id();
        trace::txn_begin(txn_id);
        // A descriptor no object or helper references any more (every
        // read-only attempt's, and an update's once its writes are folded)
        // is reset in place instead of reallocated.
        match Arc::get_mut(&mut core.scratch.shared) {
            Some(shared) => *shared = TxnShared::new(txn_id),
            None => core.scratch.shared = Arc::new(TxnShared::new(txn_id)),
        }
        // Two-phase slot publication: mark the slot *before* reading the
        // clock so a concurrent watermark advance cannot slip past a start
        // time that has been read but not yet published (see the pending
        // protocol in `crate::reclaim`).
        core.slot.mark_pending();
        let start = core.clock.get_time();
        core.slot.activate(start);
        self.range = ValidityRange::from(start);
        self.observed = start;
        self.is_update = false;
        self.finished = false;
    }

    /// End the attempt `start` began: commit if the body returned `Ok`,
    /// abort otherwise. On failure, counts the retry and yields under heavy
    /// oversubscription (livelock hygiene).
    pub(crate) fn conclude<R>(&mut self, result: TxResult<R>) -> TxResult<R> {
        let txn_id = self.id();
        let outcome = match result {
            Ok(value) => self.finish_commit().map(|ct| {
                trace::txn_event(EventKind::Commit, ct.is_none() as u8, txn_id);
                value
            }),
            Err(abort) => {
                // Usually a no-op: the operation that produced the abort has
                // already ended the attempt.
                self.do_abort(abort.reason);
                Err(abort)
            }
        };
        if let Err(abort) = &outcome {
            trace::txn_event(EventKind::Abort, abort.reason.trace_class(), txn_id);
            // Abort feedback to the time base: GV5-style clocks advance on
            // aborts so the retry observes a fresh enough time to reach the
            // versions that made this attempt fail.
            self.core.clock.note_abort();
            self.retries = self.retries.saturating_add(1);
            if self.retries > YIELD_AFTER_RETRIES {
                std::thread::yield_now();
            }
        }
        outcome
    }

    /// Unique id of this transaction attempt.
    pub fn id(&self) -> u64 {
        self.core.scratch.shared.id()
    }

    /// The snapshot's current validity range `T.R`.
    pub fn validity_range(&self) -> ValidityRange<B::Ts> {
        self.range
    }

    /// Whether the transaction has written anything yet.
    pub fn is_update(&self) -> bool {
        self.is_update
    }

    /// Number of distinct objects this attempt has opened so far, for
    /// reading or writing.
    pub fn opened(&self) -> usize {
        self.core.scratch.opened.len()
    }

    /// Abort deliberately; the `atomically` loop will re-run the body.
    /// Usage: `return Err(tx.abort_retry());`
    pub fn abort_retry(&mut self) -> Abort {
        self.do_abort(AbortReason::Explicit)
    }

    fn check_alive(&mut self) -> TxResult<()> {
        if self.finished {
            return Err(Abort::new(AbortReason::Explicit));
        }
        if self.core.scratch.shared.status() == TxnStatus::Aborted {
            // A conflicting writer killed us (Algorithm 2 lines 16–18).
            return Err(self.do_abort(AbortReason::Killed));
        }
        Ok(())
    }

    /// `Open(T, o, read)` — Algorithm 2 lines 25–33 plus the `getVersion`
    /// retry loop of Algorithm 3.
    ///
    /// The value is lent from `T.O`, until the transaction's next
    /// operation: the read-set entry holds the version node, and the node
    /// holds the payload — a fold recycles a node only once it is unique,
    /// so nothing is cloned for the caller. A read-own-write lends from the
    /// pending payload, pinned in the scratch until the attempt ends.
    pub fn read<T: Send + Sync + 'static>(&mut self, var: &TVar<T, B::Ts>) -> TxResult<&T> {
        self.check_alive()?;
        // One probe: a first open claims its entry here, with the slots the
        // version will take once selected. Nothing reads the table before
        // they are filled, and every failing exit below empties the scratch
        // through `do_abort`.
        let scratch = &mut self.core.scratch;
        let prior = match scratch.opened.entry(var.id()) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(e) => {
                e.insert(Opened::Read {
                    entry: scratch.read_set.len(),
                });
                None
            }
        };
        match prior {
            // Read-own-write: the speculative value is ours.
            Some(Opened::Written) => return self.own_write(var),
            // Repeated read: same version as before (snapshot stability).
            Some(Opened::Read { entry }) => {
                return Ok(self.core.scratch.read_set[entry].meta.value_ref())
            }
            None => {}
        }
        // A first open: the unit of `EngineStats::reads`.
        self.core.reclaim.stats.inc(Stat::Reads);

        let mut extended = false;
        let mut spins = 0u32;
        loop {
            match var.object().try_read(&self.range) {
                ReadAttempt::Found { meta, lower, upper } => {
                    // Tentatively intersect T.R with the version's range
                    // (Alg. 2 lines 28–29); `upper` is getPrelimUB's
                    // evidence, sampled with the selection.
                    let nr = narrow(self.range, lower, upper, self.observed);
                    if !nr.is_consistent() {
                        // Possibly inconsistent (line 30): try one extension,
                        // which may move ⌈T.R⌉ forward far enough (§2.2:
                        // optional but increases the chance of success).
                        if self.cfg.extend_on_read && !extended {
                            extended = true;
                            self.extend();
                            continue; // re-select a version in the new range
                        }
                        return Err(self.do_abort(AbortReason::Snapshot));
                    }
                    self.range = nr;
                    // The node goes to `T.O` as it came out of the chain,
                    // and the payload is lent from there: the node's count
                    // is the read's only one.
                    let read_set = &mut self.core.scratch.read_set;
                    read_set.push(CtxEntry { meta, own: false });
                    return Ok(read_set[read_set.len() - 1].meta.value_ref());
                }
                ReadAttempt::NoOverlap => {
                    if self.cfg.extend_on_read && !extended {
                        extended = true;
                        self.extend();
                        if !self.range.is_consistent() {
                            return Err(self.do_abort(AbortReason::Snapshot));
                        }
                        continue;
                    }
                    // No suitable version (Alg. 3 line 11).
                    return Err(self.do_abort(AbortReason::NoVersion));
                }
                ReadAttempt::NeedFold => var.object().fold_resolved(Some(&mut self.core.reclaim)),
                ReadAttempt::NeedHelp(w) => self.help_commit(&w),
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
                spins = 0;
            }
        }
    }

    /// `Open(T, o, write)` — Algorithm 2 lines 9–24 — with `value` as the
    /// speculative payload, installed by the registration itself.
    pub fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T, B::Ts>,
        value: T,
    ) -> TxResult<()> {
        self.check_alive()?;
        // One probe: the insert claims the object as written and returns how
        // it was opened before. Every failing exit below empties the scratch
        // through `do_abort`.
        let prior = self.core.scratch.opened.insert(var.id(), Opened::Written);
        let payload = Arc::new(value);
        match prior {
            Some(Opened::Written) => self.install(var, payload),
            _ => self.open_write(var, move |_: &T| payload, prior),
        }
    }

    /// Read-modify-write: applies `f` to the current value (the
    /// transaction's own pending write if it has one, the snapshot value
    /// otherwise) and writes the result.
    ///
    /// On an object the attempt has not opened yet this is
    /// `Open(T, o, write)` as the paper has it, one critical section under
    /// the object's write lock: the snapshot is checked to admit `vc`, the
    /// latest committed version, then `f` runs on `vc`'s value and the
    /// writer registers with the result installed. The object is recorded
    /// in the write set alone — `vc` is covered by the write mark, not by
    /// `T.O`. A re-`modify` of an object the attempt already wrote runs `f`
    /// on its own pending value, likewise in one section.
    ///
    /// So `f` may run under the object's lock, and it never sees a version
    /// the attempt would abort on: on an unopened object it runs only once
    /// the registration has admitted `vc`, exactly once per call that
    /// returns `Ok`. It must not touch any `TVar` — this one's
    /// [`snapshot_latest`](TVar::snapshot_latest) included — or it
    /// deadlocks: keep it a pure function of its argument.
    pub fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T, B::Ts>,
        f: impl FnOnce(&T) -> T,
    ) -> TxResult<()> {
        self.check_alive()?;
        let prior = self.core.scratch.opened.insert(var.id(), Opened::Written);
        match prior {
            None => {
                // A first open for reading and for writing at once.
                self.core.reclaim.stats.inc(Stat::Reads);
                self.open_write(var, |vc: &T| Arc::new(f(vc)), None)
            }
            Some(Opened::Read { entry }) => {
                let current = self.core.scratch.read_set[entry].meta.value_ref();
                let payload = Arc::new(f(current));
                self.open_write(var, move |_: &T| payload, prior)
            }
            Some(Opened::Written) => {
                if var.object().modify_spec(self.id(), |own| Arc::new(f(own))) {
                    Ok(())
                } else {
                    // Killed, and the speculative version already discarded.
                    Err(self.do_abort(AbortReason::Killed))
                }
            }
        }
    }

    /// The attempt's own pending write to `var` (read-own-write), lent from
    /// the scratch: the pending payload lives under the object's lock, so
    /// its `Arc` is cloned once and pinned until the attempt ends.
    fn own_write<T: Send + Sync + 'static>(&mut self, var: &TVar<T, B::Ts>) -> TxResult<&T> {
        match var.object().read_spec_value(self.id()) {
            Some(value) => {
                let pinned = &mut self.core.scratch.pinned;
                pinned.push(value);
                Ok(pinned[pinned.len() - 1]
                    .downcast_ref()
                    .expect("object payload type is stable"))
            }
            // Killed, and the speculative version already discarded.
            None => Err(self.do_abort(AbortReason::Killed)),
        }
    }

    /// Install `payload` as the speculative value of an object this attempt
    /// is registered on (a re-`write`).
    fn install<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T, B::Ts>,
        payload: Arc<T>,
    ) -> TxResult<()> {
        if var.object().set_spec_value(self.id(), payload) {
            Ok(())
        } else {
            // Killed, and the speculative version already discarded.
            Err(self.do_abort(AbortReason::Killed))
        }
    }

    /// The registration loop of `Open(T, o, write)` on an object this
    /// attempt is not registered on yet (`prior` says whether it has read
    /// it). `derive` is offered to every registration attempt and run by the
    /// one that succeeds, on `vc`'s value, to make the speculative payload.
    fn open_write<T: Send + Sync + 'static>(
        &mut self,
        var: &TVar<T, B::Ts>,
        derive: impl FnOnce(&T) -> Arc<T>,
        prior: Option<Opened>,
    ) -> TxResult<()> {
        self.core.reclaim.stats.inc(Stat::Writes);

        let mut derive = Some(derive);
        let mut extended = false;
        let mut spins = 0u32;
        loop {
            let core = &mut *self.core;
            // Lines 28–29 against vc are the registration's own: it admits
            // vc under the lock, as the latest version, so everything this
            // attempt has observed bounds it — and it stays the latest while
            // we hold the mark.
            let attempt = var.object().try_write(
                &core.scratch.shared,
                self.range,
                self.observed,
                &mut derive,
                Some(&mut core.reclaim),
            );
            match attempt {
                WriteAttempt::Registered { range } => {
                    self.range = range;
                    self.is_update = true;
                    // The object's one record in this attempt: the write
                    // set, folded at its end.
                    let obj = Arc::clone(var.object()) as Arc<dyn AnyObject<B::Ts>>;
                    self.core.scratch.write_set.push(obj);
                    // We hold the write mark from here on: the version we
                    // read here earlier, if any, is ours to bound at commit.
                    if let Some(Opened::Read { entry }) = prior {
                        self.core.scratch.read_set[entry].own = true;
                    }
                    return Ok(());
                }
                // Alg. 2 lines 22–24: "Is the version too recent?" — extend
                // once so the snapshot can reach it, then give up.
                WriteAttempt::TooRecent if !extended => {
                    extended = true;
                    self.extend();
                }
                WriteAttempt::TooRecent => return Err(self.do_abort(AbortReason::Snapshot)),
                WriteAttempt::AlreadyWriter => {
                    unreachable!("`opened` knows every object this attempt is registered on")
                }
                WriteAttempt::NeedHelp(w) => self.help_commit(&w),
                WriteAttempt::Conflict(other) => {
                    // The one conflict policy (§2.3; DESIGN §2 "Why one
                    // conflict policy"): kill the registered writer
                    // (Alg. 2 l.16–18) and retry the registration; if the
                    // CAS fails the writer moved on — loop.
                    self.core.reclaim.stats.inc(Stat::Conflicts);
                    other.transition(TxnStatus::Active, TxnStatus::Aborted);
                    // Another writer may have killed us meanwhile.
                    self.check_alive()?;
                }
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
                spins = 0;
            }
        }
    }

    /// `Extend(T)` — Algorithm 3 lines 1–6: raise `⌈T.R⌉` to the current
    /// time, then re-minimize over the read set's preliminary upper bounds.
    ///
    /// The versions under this attempt's own write marks are not in the read
    /// set: they stay the latest for as long as the marks are held, and the
    /// marks are lost only by being killed. So an update transaction checks
    /// its own status *after* reading the clock — `o.writer = T` of Alg. 3
    /// line 27, once for all written objects: still `Active` means every
    /// usurper draws its commit time after this reading, and a killed
    /// attempt extends nothing (it is about to abort anyway).
    pub fn extend(&mut self) {
        let core = &mut *self.core;
        let now = core.clock.get_time();
        if self.is_update && core.scratch.shared.status() != TxnStatus::Active {
            return;
        }
        self.observed = self.observed.join(now);
        self.range.set_upper(now);
        let scratch = &mut core.scratch;
        // Entries read since the last extension get their (empty) slot.
        scratch.objects.resize_with(scratch.read_set.len(), || None);
        for (e, object) in scratch.read_set.iter().zip(&mut scratch.objects) {
            let ub = prelim_resolved(&mut core.clock, &e.meta, object, now);
            self.range.restrict_upper(ub);
        }
        core.reclaim.stats.inc(Stat::Validations);
        trace::txn_event(EventKind::Extend, 0, core.scratch.shared.id());
    }

    /// Help a committing transaction complete (Algorithm 3 lines 12–13 and
    /// §2.3): race to set its commit time from *our* clock, re-run its
    /// validation, and finalize its status. Idempotent and lock-free with
    /// respect to object locks.
    pub(crate) fn help_commit(&mut self, w: &Arc<TxnShared<B::Ts>>) {
        if w.status() != TxnStatus::Committing {
            return;
        }
        let clock = &mut self.core.clock;
        // Race to set the commit time from our own clock (lines 41–42): "a
        // committing thread will try to set the timestamp obtained from its
        // local time reference … if it fails, another thread has set the
        // commit time beforehand".
        let ct = match w.ct() {
            Some(ct) => ct,
            None => {
                let t = clock.acquire_commit_ts(self.observed).ts();
                w.set_ct(t)
            }
        };
        // Taken after `Committing` was seen: an owner publishes its read set
        // before that transition, and clears it only after the status is
        // final. So no context behind a status that still reads
        // `Committing` means none was published — the read set is empty,
        // and validates vacuously.
        let ctx = w.ctx();
        if w.status() != TxnStatus::Committing {
            return;
        }
        let valid = match &ctx {
            Some(ctx) => validate(clock, &ctx.entries, ct),
            None => true,
        };
        if valid {
            if w.transition(TxnStatus::Committing, TxnStatus::Committed) {
                self.core.reclaim.stats.inc(Stat::Helps);
            }
        } else {
            w.transition(TxnStatus::Committing, TxnStatus::Aborted);
        }
    }

    /// `Commit(T)` — Algorithm 2 lines 35–52. Called by `conclude` after the
    /// body returned `Ok`. On success returns the commit time of an update
    /// transaction (`None` for read-only commits).
    fn finish_commit(&mut self) -> TxResult<Option<B::Ts>> {
        debug_assert!(!self.finished, "commit called twice");
        let core = &mut *self.core;
        if !self.is_update {
            // Read-only: the snapshot is consistent by construction —
            // validation is unnecessary (lines 36–37).
            let shared = &core.scratch.shared;
            if shared.transition(TxnStatus::Active, TxnStatus::Committed) {
                core.reclaim.stats.inc(Stat::RoCommits);
                self.finalize_cleanup();
                return Ok(None);
            }
            return Err(self.do_abort(AbortReason::Killed));
        }

        // Publish the read set for helpers *before* becoming visible as
        // committing: any thread that observes `Committing` finds the
        // context. An empty one is not published, and `ctx.entries` is then
        // empty too: a helper finding none validates vacuously, as we do.
        if !core.scratch.read_set.is_empty() {
            core.scratch.publish_read_set();
        }
        let (shared, read_set) = (&core.scratch.shared, &core.scratch.ctx.entries);
        if !shared.transition(TxnStatus::Active, TxnStatus::Committing) {
            return Err(self.do_abort(AbortReason::Killed));
        }
        // Tentative commit time through the base's arbitration protocol;
        // the first setter wins (lines 41–42). The acquisition happens
        // strictly after the Committing transition — the visibility
        // requirement of §2.4 — and anchors above everything this
        // transaction has itself observed. A Shared outcome means a
        // concurrent non-conflicting committer holds the same timestamp
        // (GV4/GV5 arbitration), which §2.3 explicitly allows.
        let arbitrated = core.clock.acquire_commit_ts(self.observed);
        trace::txn_event(
            if arbitrated.is_shared() {
                EventKind::CtsShared
            } else {
                EventKind::CtsExclusive
            },
            0,
            shared.id(),
        );
        let ct = shared.set_ct(arbitrated.ts());

        // Algorithm 2 lines 43–48: every update validates its read set.
        core.reclaim
            .stats
            .add(Stat::ValidatedEntries, read_set.len() as u64);
        trace::txn_event(EventKind::Validate, 0, shared.id());
        let valid = validate(&mut core.clock, read_set, ct);
        let to = if valid {
            TxnStatus::Committed
        } else {
            TxnStatus::Aborted
        };
        shared.transition(TxnStatus::Committing, to);
        // Either our transition won or a helper finalized first; the status
        // is now final either way.
        let outcome = match shared.status() {
            TxnStatus::Committed => {
                // The commit timestamp's class is counted with the commit
                // it served, so `shared_commit_ts <= commits` always holds.
                let stats = &core.reclaim.stats;
                stats.inc(Stat::Commits);
                if arbitrated.is_shared() {
                    stats.inc(Stat::SharedCommitTs);
                }
                core.last_commit_time = Some(ct);
                Ok(Some(ct))
            }
            TxnStatus::Aborted => {
                let stats = &core.reclaim.stats;
                stats.abort(AbortReason::Validation.class());
                stats.inc(Stat::RevalidationFailures);
                Err(Abort::new(AbortReason::Validation))
            }
            _ => unreachable!("status must be final after commit"),
        };
        self.finalize_cleanup();
        outcome
    }

    /// `Abort(T)` — Algorithm 2 lines 53–59 (the owner-side path).
    /// Idempotent: only the first call of an attempt ends and accounts it.
    fn do_abort(&mut self, reason: AbortReason) -> Abort {
        if !self.finished {
            let shared = &self.core.scratch.shared;
            shared.transition(TxnStatus::Active, TxnStatus::Aborted);
            // (Committing is never current here: the commit path finalizes
            // itself before returning.)
            debug_assert!(shared.status().is_final());
            self.core.reclaim.stats.abort(reason.class());
            self.finalize_cleanup();
        }
        Abort::new(reason)
    }

    /// End-of-attempt cleanup, on every path out (commit, abort, unwind):
    /// release the snapshot registration, fold/discard our speculative
    /// versions so objects are immediately writable by others, drop the
    /// helper context to break the descriptor↔object reference cycle, and
    /// empty the scratch for the next attempt.
    fn finalize_cleanup(&mut self) {
        let core = &mut *self.core;
        // Release the snapshot registration first: the folds below may prune
        // against the watermark, and a finished transaction must not count
        // as demand — nor may an idle handle hold the watermark back.
        core.slot.clear();
        if !core.scratch.write_set.is_empty() {
            for obj in &core.scratch.write_set {
                obj.fold_resolved(Some(&mut core.reclaim));
            }
            // Published exactly when the shell holds the read set.
            if !core.scratch.ctx.entries.is_empty() {
                core.scratch.shared.clear_ctx();
            }
        }
        core.scratch.clear();
        self.finished = true;
    }
}

impl<B: TimeBase> Drop for Txn<'_, B> {
    fn drop(&mut self) {
        // A panicking body must leave neither a zombie writer registered, nor
        // a snapshot registration that freezes the watermark, nor stale
        // scratch entries for the handle's next transaction.
        if !self.finished {
            let shared = &self.core.scratch.shared;
            shared.transition(TxnStatus::Active, TxnStatus::Aborted);
            if shared.status().is_final() {
                self.finalize_cleanup();
            } else {
                // Unwinding out of the commit protocol itself: the published
                // context stays for helpers to decide the outcome.
                self.core.slot.clear();
                self.core.scratch.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::TObject;

    fn entry(obj: &Arc<TObject<u64, u64>>) -> CtxEntry<u64> {
        match obj.try_read(&ValidityRange::from(0u64)) {
            ReadAttempt::Found { meta, .. } => CtxEntry { meta, own: false },
            _ => panic!("a fresh object serves its initial version"),
        }
    }

    #[test]
    fn the_published_context_is_the_read_set_itself_and_is_recycled() {
        let obj = TObject::new(1, 0u64, 0, 4);
        let mut scratch = TxnScratch::new();
        scratch.read_set.extend([entry(&obj), entry(&obj)]);
        let built = scratch.read_set.as_ptr();

        scratch.publish_read_set();
        let seen = scratch.shared.ctx().expect("published");
        assert!(Arc::ptr_eq(&seen, &scratch.ctx), "one context, shared");
        assert_eq!(seen.entries.as_ptr(), built, "the vector moved, uncopied");
        drop(seen);

        // Commit done: the descriptor lets go, the scratch takes the vector
        // back for the next attempt.
        scratch
            .shared
            .transition(TxnStatus::Active, TxnStatus::Aborted);
        scratch.shared.clear_ctx();
        let shell = Arc::as_ptr(&scratch.ctx);
        scratch.clear();
        assert_eq!(Arc::as_ptr(&scratch.ctx), shell, "same context again");
        assert!(scratch.ctx.entries.is_empty() && scratch.read_set.is_empty());
        assert_eq!(scratch.read_set.as_ptr(), built);
    }

    #[test]
    fn a_helper_still_holding_the_context_forces_a_fresh_one() {
        let obj = TObject::new(1, 0u64, 0, 4);
        let mut scratch = TxnScratch::new();
        scratch.read_set.push(entry(&obj));
        scratch.publish_read_set();
        let helper = scratch.shared.ctx().expect("published");

        scratch
            .shared
            .transition(TxnStatus::Active, TxnStatus::Aborted);
        scratch.shared.clear_ctx();
        scratch.clear();
        // The owner's next attempt builds and publishes its read set while
        // the helper is still validating the old one.
        scratch
            .read_set
            .extend([entry(&obj), entry(&obj), entry(&obj)]);
        scratch.publish_read_set();

        assert_eq!(helper.entries.len(), 1, "the helper's view never moved");
        assert!(!Arc::ptr_eq(&helper, &scratch.ctx));
        assert_eq!(scratch.ctx.entries.len(), 3);
    }

    #[test]
    fn a_helper_still_holding_an_empty_context_forces_a_fresh_one_too() {
        // A write-only commit publishes nothing, so the shell never leaves
        // the scratch empty, and `clear` replaces one it cannot take back.
        // Publication still does not insist on an unshared shell: one held
        // while empty (here by hand) is left to its holder.
        let obj = TObject::new(1, 0u64, 0, 4);
        let mut scratch = TxnScratch::new();
        let shell = Arc::as_ptr(&scratch.ctx);
        scratch
            .shared
            .transition(TxnStatus::Active, TxnStatus::Aborted);
        scratch.clear();
        assert!(scratch.shared.ctx().is_none(), "nothing was published");
        assert_eq!(Arc::as_ptr(&scratch.ctx), shell, "the shell never left");
        let helper = Arc::clone(&scratch.ctx);

        scratch.read_set.extend([entry(&obj), entry(&obj)]);
        scratch.publish_read_set();
        assert!(helper.entries.is_empty(), "the helper's view never moved");
        assert!(!Arc::ptr_eq(&helper, &scratch.ctx));
        let seen = scratch.shared.ctx().expect("published");
        assert!(Arc::ptr_eq(&seen, &scratch.ctx));
        assert_eq!(seen.entries.len(), 2);
    }
}
