//! The one runtime of the three baseline engines.
//!
//! TL2, the validation STM and NOrec differ only in how a transaction proves
//! its reads consistent — the rule Kuznetsov and Ravi characterise such TMs
//! by. Everything else is written here once: the variable ([`Var`]: an id
//! and a shared cell holding the payload and the protocol's per-object
//! metadata), the runtime ([`BaselineStm`]), the thread handle ([`Handle`]:
//! stats shard, scratch and the protocol's thread-local state), the
//! transaction view ([`Txn`], recycled on `Drop`), the retry loop, the
//! [`Abort`] enum, the read loop and the write-set locking — and the
//! `lsa-engine` traits are implemented once, for every [`Protocol`].
//!
//! A protocol supplies three steps: the snapshot an attempt begins at, the
//! check after each first read, and the commit. TL2 and the validation STM
//! keep one versioned-lock word per object ([`VLock`], `version << 1 |
//! locked`) and share its validation rule ([`word_valid`]); NOrec keeps no
//! per-object metadata at all (`()`).

use lsa_engine::idmap::{recycle_map, recycle_vec};
use lsa_engine::{
    AbortClass, EngineHandle, EngineResult, IdMap, Stat, StatsShard, TxnEngine, TxnOps,
};
use parking_lot::RwLock;
use std::any::Any;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Abort error of the baseline engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Abort {
    /// A read observed a version newer than the snapshot (TL2).
    ReadTooNew,
    /// Read-set validation failed.
    Validation,
    /// The commit could not lock its write set.
    LockBusy,
}

impl Abort {
    /// The abort's class in the cross-engine taxonomy: stale snapshots and
    /// failed validations are consistency failures, a busy write lock is
    /// lost contention.
    pub fn class(self) -> AbortClass {
        match self {
            Abort::ReadTooNew | Abort::Validation => AbortClass::Validation,
            Abort::LockBusy => AbortClass::Contention,
        }
    }
}

/// How a baseline engine proves a transaction's reads consistent: the one
/// part of the runtime that differs per engine. The trait lives in a
/// private module, so no type outside this crate can implement or name it.
pub trait Protocol: Send + Sync + Sized + 'static {
    /// Per-object metadata kept beside the payload.
    type Meta: Meta;
    /// Thread-local state a handle owns (TL2's clock).
    type Local: Send + 'static;

    /// The runtime's `engine_name()`.
    fn name(&self) -> String;

    /// The thread-local state of a newly registered handle.
    fn register(&self) -> Self::Local;

    /// The snapshot an attempt begins at; `retry` after an aborted attempt.
    fn begin(&self, local: &mut Self::Local, retry: bool) -> u64;

    /// Check a first read, already logged as the read set's last entry,
    /// whose object carried `word`.
    fn check_read(txn: &mut Txn<'_, Self>, word: u64) -> Result<(), Abort>;

    /// Commit the attempt: make its writes, if any, visible, or fail.
    fn commit(txn: &mut Txn<'_, Self>) -> Result<(), Abort>;
}

/// Per-object metadata a protocol keeps beside the payload.
pub trait Meta: Default + Send + Sync + 'static {
    /// The object's versioned-lock word, `version << 1 | locked`; always 0
    /// without metadata.
    fn word(&self) -> u64;
}

impl Meta for () {
    #[inline]
    fn word(&self) -> u64 {
        0
    }
}

/// A versioned lock: one word, `version << 1 | locked`.
#[derive(Debug, Default)]
pub struct VLock(AtomicU64);

impl Meta for VLock {
    #[inline]
    fn word(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

impl VLock {
    /// Take the lock, retrying up to 64 times while another committer holds
    /// it; the word it replaced, or `None` (deadlock avoidance).
    pub(crate) fn lock(&self) -> Option<u64> {
        for _ in 0..64 {
            let w = self.word();
            if locked(w) {
                std::hint::spin_loop();
            } else if self
                .0
                .compare_exchange(w, w | 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(w);
            }
        }
        None
    }

    /// Release the lock, leaving `word`.
    pub(crate) fn release(&self, word: u64) {
        self.0.store(word, Ordering::Release);
    }
}

#[inline]
fn locked(word: u64) -> bool {
    word & 1 == 1
}

/// The version in a versioned-lock word.
#[inline]
pub(crate) fn version(word: u64) -> u64 {
    word >> 1
}

/// TL2's validation rule, which the validation STM shares: a read-set entry
/// whose object now carries `word` stands while that version is at most
/// `bound` and the lock is free or the transaction's own (`owned`, which
/// only a commit can be).
#[inline]
pub(crate) fn word_valid(word: u64, bound: u64, owned: bool) -> bool {
    version(word) <= bound && (owned || !locked(word))
}

/// Poll `ready` until it answers, spinning between polls and yielding past
/// 64 of them: on an oversubscribed host the committer being waited for may
/// be descheduled.
pub(crate) fn spin_until<T>(mut ready: impl FnMut() -> Option<T>) -> T {
    let mut spins = 0u32;
    loop {
        if let Some(t) = ready() {
            return t;
        }
        spins += 1;
        if spins > 64 {
            std::thread::yield_now();
            spins = 0;
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A type-erased payload.
type AnyValue = Arc<dyn Any + Send + Sync>;

/// The shared cell behind a [`Var`].
pub(crate) struct Cell<T, M> {
    pub(crate) meta: M,
    data: RwLock<Arc<T>>,
}

/// A cell with its payload type erased, as the read and write logs hold it.
pub(crate) trait Object<M>: Send + Sync {
    fn meta(&self) -> &M;

    /// Whether the committed payload is still `value`. Every commit installs
    /// a fresh `Arc`, so identity means unchanged (NOrec's value check).
    fn holds(&self, value: &AnyValue) -> bool;

    /// Install `value` as the committed payload.
    fn install(&self, value: &AnyValue);
}

impl<T: Send + Sync + 'static, M: Meta> Object<M> for Cell<T, M> {
    fn meta(&self) -> &M {
        &self.meta
    }

    fn holds(&self, value: &AnyValue) -> bool {
        std::ptr::addr_eq(Arc::as_ptr(&self.data.read()), Arc::as_ptr(value))
    }

    fn install(&self, value: &AnyValue) {
        let value = Arc::clone(value)
            .downcast::<T>()
            .expect("a variable's payload type is stable");
        *self.data.write() = value;
    }
}

/// A transactional variable of a baseline engine.
pub struct Var<T, M> {
    id: u64,
    pub(crate) cell: Arc<Cell<T, M>>,
}

impl<T, M> Clone for Var<T, M> {
    fn clone(&self) -> Self {
        Var {
            id: self.id,
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<T: Send + Sync + 'static, M> Var<T, M> {
    /// Latest committed value (non-transactional; seeding and audits).
    pub fn snapshot_latest(&self) -> Arc<T> {
        Arc::clone(&self.cell.data.read())
    }

    /// Stable id of this variable.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A read-set entry: the object, the value read and the word it carried.
pub(crate) struct ReadEntry<M> {
    pub(crate) id: u64,
    pub(crate) object: Arc<dyn Object<M>>,
    pub(crate) value: AnyValue,
    pub(crate) word: u64,
}

/// A write-set entry: the object, the pending value and, while the commit
/// holds the object's lock, the word the lock replaced.
pub(crate) struct WriteEntry<M> {
    id: u64,
    pub(crate) object: Arc<dyn Object<M>>,
    pub(crate) value: AnyValue,
    old: u64,
}

/// The thread's read and write logs and the id tables over them. The handle
/// owns one; the transaction view's `Drop` empties it under
/// `lsa_engine::idmap`'s retention rule on every way out of an attempt, so a
/// steady-state transaction allocates only the values it writes.
pub(crate) struct Scratch<M> {
    pub(crate) reads: Vec<ReadEntry<M>>,
    pub(crate) writes: Vec<WriteEntry<M>>,
    /// Variable id → index of its entry in `reads`.
    read_ids: IdMap<usize>,
    /// Variable id → index of its entry in `writes` (a membership set once
    /// a commit has sorted `writes`).
    write_ids: IdMap<usize>,
}

impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            reads: Vec::new(),
            writes: Vec::new(),
            read_ids: IdMap::default(),
            write_ids: IdMap::default(),
        }
    }
}

impl<M> Scratch<M> {
    fn recycle(&mut self) {
        recycle_vec(&mut self.reads);
        recycle_vec(&mut self.writes);
        recycle_map(&mut self.read_ids);
        recycle_map(&mut self.write_ids);
    }

    /// The entry holding what the transaction already knows of variable
    /// `id`: its own pending write, else the value it read before.
    fn known(&self, id: u64) -> Option<Known> {
        match self.write_ids.get(&id) {
            Some(&i) => Some(Known::Write(i)),
            None => self.read_ids.get(&id).map(|&i| Known::Read(i)),
        }
    }

    /// The value `known` found, lent from its entry.
    fn lend<T: Send + Sync + 'static>(&self, known: Known) -> &T {
        let value = match known {
            Known::Write(i) => &self.writes[i].value,
            Known::Read(i) => &self.reads[i].value,
        };
        value
            .downcast_ref()
            .expect("a variable's payload type is stable")
    }
}

/// Where [`Scratch::known`] found a variable: an index into `writes` or
/// into `reads`.
#[derive(Clone, Copy)]
enum Known {
    Write(usize),
    Read(usize),
}

struct Shared<P> {
    protocol: P,
    /// Clones of the runtime hand out ids from one sequence, so
    /// per-transaction tables keyed by id never collide.
    next_var: AtomicU64,
}

/// A baseline runtime: protocol `P` over the one var, handle and retry
/// loop. Cheap to clone; clones share the protocol's state and the
/// variable-id sequence.
pub struct BaselineStm<P> {
    shared: Arc<Shared<P>>,
}

impl<P> Clone for BaselineStm<P> {
    fn clone(&self) -> Self {
        BaselineStm {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<P: Protocol> BaselineStm<P> {
    pub(crate) fn with_protocol(protocol: P) -> Self {
        BaselineStm {
            shared: Arc::new(Shared {
                protocol,
                next_var: AtomicU64::new(1),
            }),
        }
    }

    pub(crate) fn protocol(&self) -> &P {
        &self.shared.protocol
    }
}

/// A registered thread of a baseline runtime.
pub struct Handle<P: Protocol> {
    shared: Arc<Shared<P>>,
    local: P::Local,
    /// The shard this thread counts into (`EngineHandle::stats_shard`).
    stats: Arc<StatsShard>,
    scratch: Scratch<P::Meta>,
}

/// An executing attempt of a baseline engine, borrowing its handle's state.
pub struct Txn<'h, P: Protocol> {
    pub(crate) protocol: &'h P,
    pub(crate) local: &'h mut P::Local,
    pub(crate) stats: &'h StatsShard,
    /// What the reads are consistent with: TL2's read version, the commit
    /// counter the validation STM last validated at, NOrec's even sequence
    /// value.
    pub(crate) snapshot: u64,
    pub(crate) scratch: &'h mut Scratch<P::Meta>,
}

impl<P: Protocol> Drop for Txn<'_, P> {
    fn drop(&mut self) {
        // On every way out of an attempt, a panicking body's unwind too.
        self.scratch.recycle();
    }
}

impl<P: Protocol> Txn<'_, P> {
    /// Whether the write set holds variable `id`.
    pub(crate) fn writes_to(&self, id: u64) -> bool {
        self.scratch.write_ids.contains_key(&id)
    }

    /// One counted read-set validation: `valid` on every entry.
    pub(crate) fn validate(
        &self,
        valid: impl FnMut(&ReadEntry<P::Meta>) -> bool,
    ) -> Result<(), Abort> {
        let reads = &self.scratch.reads;
        self.stats.inc(Stat::Validations);
        self.stats.add(Stat::ValidatedEntries, reads.len() as u64);
        if reads.iter().all(valid) {
            Ok(())
        } else {
            self.stats.inc(Stat::RevalidationFailures);
            Err(Abort::Validation)
        }
    }

    fn commit(&mut self) -> Result<(), Abort> {
        P::commit(self)?;
        self.stats.inc(if self.scratch.writes.is_empty() {
            Stat::RoCommits
        } else {
            Stat::Commits
        });
        Ok(())
    }
}

impl<P: Protocol<Meta = VLock>> Txn<'_, P> {
    /// Lock the write set in id order (deadlock avoidance) and run
    /// `validate` under the locks. If a lock stays busy or `validate` fails,
    /// every lock taken is released with the word it replaced.
    pub(crate) fn lock_writes<R>(
        &mut self,
        validate: impl FnOnce(&mut Self) -> Result<R, Abort>,
    ) -> Result<R, Abort> {
        let writes = &mut self.scratch.writes;
        writes.sort_unstable_by_key(|w| w.id);
        let mut taken = 0;
        while let Some(w) = writes.get_mut(taken) {
            match w.object.meta().lock() {
                Some(old) => w.old = old,
                None => break,
            }
            taken += 1;
        }
        let outcome = if taken < writes.len() {
            Err(Abort::LockBusy)
        } else {
            validate(self)
        };
        if outcome.is_err() {
            for w in &self.scratch.writes[..taken] {
                w.object.meta().release(w.old);
            }
        }
        outcome
    }

    /// Install every pending value, releasing its object's lock at version
    /// `stamp(replaced word)`.
    pub(crate) fn publish(&self, stamp: impl Fn(u64) -> u64) {
        for w in &self.scratch.writes {
            w.object.install(&w.value);
            w.object.meta().release(stamp(w.old) << 1);
        }
    }
}

impl<P: Protocol> TxnEngine for BaselineStm<P> {
    type Abort = Abort;
    type Var<T: Send + Sync + 'static> = Var<T, P::Meta>;
    type Handle = Handle<P>;

    fn new_var<T: Send + Sync + 'static>(&self, value: T) -> Var<T, P::Meta> {
        Var {
            id: self.shared.next_var.fetch_add(1, Ordering::Relaxed),
            cell: Arc::new(Cell {
                meta: P::Meta::default(),
                data: RwLock::new(Arc::new(value)),
            }),
        }
    }

    fn register(&self) -> Handle<P> {
        Handle {
            local: self.shared.protocol.register(),
            shared: Arc::clone(&self.shared),
            stats: Arc::default(),
            scratch: Scratch::default(),
        }
    }

    fn engine_name(&self) -> String {
        self.shared.protocol.name()
    }

    fn peek<T: Send + Sync + 'static>(var: &Var<T, P::Meta>) -> Arc<T> {
        var.snapshot_latest()
    }
}

impl<P: Protocol> EngineHandle for Handle<P> {
    type Engine = BaselineStm<P>;
    type Txn<'t>
        = Txn<'t, P>
    where
        Self: 't;

    fn atomically<R, F>(&mut self, mut body: F) -> R
    where
        F: for<'t> FnMut(&mut Txn<'t, P>) -> EngineResult<R, BaselineStm<P>>,
    {
        let mut backoff = 0u32;
        loop {
            let protocol = &self.shared.protocol;
            let mut txn = Txn {
                snapshot: protocol.begin(&mut self.local, backoff > 0),
                protocol,
                local: &mut self.local,
                stats: &self.stats,
                scratch: &mut self.scratch,
            };
            match body(&mut txn).and_then(|value| txn.commit().map(|()| value)) {
                Ok(value) => return value,
                Err(e) => txn.stats.abort(e.class()),
            }
            drop(txn);
            for _ in 0..(1u64 << backoff.min(10)) {
                std::hint::spin_loop();
            }
            backoff += 1;
            if backoff > 10 {
                std::thread::yield_now();
            }
        }
    }

    fn stats_shard(&self) -> &Arc<StatsShard> {
        &self.stats
    }
}

impl<P: Protocol> TxnOps for Txn<'_, P> {
    type Engine = BaselineStm<P>;

    fn read<'t, T: Send + Sync + 'static>(
        &'t mut self,
        var: &Var<T, P::Meta>,
    ) -> Result<&'t T, Abort> {
        self.stats.inc(Stat::Reads);
        // Read-own-write, or a repeated read.
        if let Some(known) = self.scratch.known(var.id) {
            return Ok(self.scratch.lend(known));
        }
        // Never sample under a committer's lock: its install and its stamp
        // are separate writes, and a read between them would pair the new
        // payload with the old version.
        let cell = &var.cell;
        let (value, word) = spin_until(|| {
            let word = cell.meta.word();
            if locked(word) {
                return None;
            }
            let value = Arc::clone(&cell.data.read()) as AnyValue;
            (cell.meta.word() == word).then_some((value, word))
        });
        // The read entry holds the one clone of the value; the caller
        // borrows it from there.
        let s = &mut *self.scratch;
        let entry = s.reads.len();
        s.read_ids.insert(var.id, entry);
        s.reads.push(ReadEntry {
            id: var.id,
            object: Arc::clone(cell) as _,
            value,
            word,
        });
        P::check_read(self, word)?;
        Ok(self.scratch.lend(Known::Read(entry)))
    }

    fn write<T: Send + Sync + 'static>(
        &mut self,
        var: &Var<T, P::Meta>,
        value: T,
    ) -> Result<(), Abort> {
        self.stats.inc(Stat::Writes);
        let value: AnyValue = Arc::new(value);
        let s = &mut *self.scratch;
        match s.write_ids.entry(var.id) {
            Entry::Occupied(slot) => s.writes[*slot.get()].value = value,
            Entry::Vacant(slot) => {
                slot.insert(s.writes.len());
                s.writes.push(WriteEntry {
                    id: var.id,
                    object: Arc::clone(&var.cell) as _,
                    value,
                    old: 0,
                });
            }
        }
        Ok(())
    }

    fn modify<T: Send + Sync + 'static>(
        &mut self,
        var: &Var<T, P::Meta>,
        f: impl FnOnce(&T) -> T,
    ) -> Result<(), Abort> {
        let value = f(self.read(var)?);
        self.write(var, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NorecStm, Tl2Stm, ValidationMode, ValidationStm};

    /// One generic body exercised through the trait surface only.
    fn generic_transfer<E: TxnEngine>(engine: &E) -> (i64, i64) {
        let a = engine.new_var(100i64);
        let b = engine.new_var(0i64);
        let mut h = engine.register();
        h.atomically(|tx| {
            let va = *tx.read(&a)?;
            tx.write(&a, va - 30)?;
            tx.modify(&b, |x| x + 30)?;
            Ok(())
        });
        (*E::peek(&a), *E::peek(&b))
    }

    #[test]
    fn tl2_is_a_txn_engine() {
        use lsa_time::counter::SharedCounter;
        use lsa_time::hardware::HardwareClock;
        let stm = Tl2Stm::new(SharedCounter::new());
        assert_eq!(generic_transfer(&stm), (70, 30));
        assert_eq!(stm.engine_name(), "tl2(shared-counter)");
        let stm = Tl2Stm::new(HardwareClock::mmtimer_free());
        assert_eq!(generic_transfer(&stm), (70, 30));
    }

    #[test]
    fn norec_is_a_txn_engine() {
        let stm = NorecStm::new();
        assert_eq!(generic_transfer(&stm), (70, 30));
        assert_eq!(stm.engine_name(), "norec(seqlock)");
        // Value-validation cost is visible on the shared stats surface: a
        // fresh read after the writer's commit revalidates `v` and fails.
        let v = stm.new_var(0u64);
        let v2 = stm.new_var(0u64);
        let mut h = TxnEngine::register(&stm);
        let mut w = TxnEngine::register(&stm);
        let mut first = true;
        h.atomically(|tx| {
            tx.read(&v)?;
            if first {
                first = false;
                w.atomically(|tx2| tx2.modify(&v, |x| x + 1));
            }
            tx.read(&v2).copied()
        });
        let s = h.engine_stats();
        assert!(s.validations >= 1, "clock movement must trigger validation");
        assert!(
            s.revalidation_failures >= 1,
            "overwritten read must fail it"
        );
    }

    #[test]
    fn validation_is_a_txn_engine() {
        for mode in [ValidationMode::Always, ValidationMode::CommitCounter] {
            let stm = ValidationStm::new(mode);
            assert_eq!(generic_transfer(&stm), (70, 30));
        }
        assert_eq!(
            ValidationStm::new(ValidationMode::Always).engine_name(),
            "validation(always)"
        );
    }

    #[test]
    fn cloned_runtimes_share_the_var_id_sequence() {
        let a = Tl2Stm::new(lsa_time::counter::SharedCounter::new());
        let b = a.clone();
        let v1 = a.new_var(0u8);
        let v2 = b.new_var(0u8);
        assert_ne!(v1.id(), v2.id(), "clones must not hand out colliding ids");

        let a = ValidationStm::new(ValidationMode::Always);
        let b = a.clone();
        assert_ne!(a.new_var(0u8).id(), b.new_var(0u8).id());
    }

    #[test]
    fn baseline_engine_stats_surface() {
        let stm = Tl2Stm::new(lsa_time::counter::SharedCounter::new());
        let v = stm.new_var(0u64);
        let mut h = TxnEngine::register(&stm);
        for _ in 0..3 {
            h.atomically(|tx| tx.modify(&v, |x| x + 1));
        }
        let s = h.engine_stats();
        assert_eq!(s.commits, 3);
        assert_eq!(s.aborts, 0);
        assert_eq!(
            s,
            h.stats.engine_stats(),
            "the handle's stats are its shard"
        );
        let fresh = TxnEngine::register(&stm);
        assert_eq!(fresh.engine_stats(), lsa_engine::EngineStats::default());
    }
}
