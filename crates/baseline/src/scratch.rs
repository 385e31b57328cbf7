//! The per-thread transaction scratch of the three baseline engines.
//!
//! Each engine logs reads and buffered writes in its own entry types, but
//! the shape is the same: a read log, a write log, an id → write-log-index
//! table and an id → value cache. The thread handle owns one [`Scratch`] and
//! every attempt recycles it under `lsa_engine::idmap`'s retention rule —
//! as `lsa-stm` does with its own — so cross-engine numbers compare engines,
//! not how often each one calls the allocator.

use lsa_engine::idmap::{recycle_map, recycle_vec, IdMap};
use std::any::Any;
use std::sync::Arc;

/// A type-erased payload in the value cache.
type AnyValue = Arc<dyn Any + Send + Sync>;

/// The value-cache key of the transaction's own pending write to `id`,
/// beside `id` itself for the value it read. Ids are sequence numbers far
/// below the top bit.
#[inline]
fn pending_key(id: u64) -> u64 {
    id | (1 << 63)
}

/// Read log `R`, write log `W`, and the two id-keyed tables over them.
pub(crate) struct Scratch<R, W> {
    pub(crate) reads: Vec<R>,
    pub(crate) writes: Vec<W>,
    /// Variable id → index of its entry in `writes` (until a commit sorts
    /// `writes`; a membership set from then on).
    pub(crate) write_ids: IdMap<usize>,
    /// Variable id → value read; [`pending_key`] → value pending.
    read_cache: IdMap<AnyValue>,
}

impl<R, W> Default for Scratch<R, W> {
    fn default() -> Self {
        Scratch {
            reads: Vec::new(),
            writes: Vec::new(),
            write_ids: IdMap::default(),
            read_cache: IdMap::default(),
        }
    }
}

impl<R, W> Scratch<R, W> {
    /// Empty everything for the next attempt.
    pub(crate) fn recycle(&mut self) {
        recycle_vec(&mut self.reads);
        recycle_vec(&mut self.writes);
        recycle_map(&mut self.write_ids);
        recycle_map(&mut self.read_cache);
    }

    /// The cached value under `key`, as a `T`.
    fn cached<T: Send + Sync + 'static>(&self, key: u64) -> Option<Arc<T>> {
        let any = Arc::clone(self.read_cache.get(&key)?);
        Some(
            any.downcast::<T>()
                .expect("a variable's payload type is stable"),
        )
    }

    /// What the transaction already holds for variable `id`: its own
    /// pending write, else the value it read before.
    pub(crate) fn known<T: Send + Sync + 'static>(&self, id: u64) -> Option<Arc<T>> {
        self.cached(pending_key(id)).or_else(|| self.cached(id))
    }

    /// Remember the value a first read of `id` returned.
    pub(crate) fn note_read<T: Send + Sync + 'static>(&mut self, id: u64, value: &Arc<T>) {
        self.read_cache.insert(id, Arc::clone(value) as AnyValue);
    }

    /// Buffer a write of `pending` to `id`, logged as `entry` — in the slot
    /// an earlier write to `id` took, if there was one.
    pub(crate) fn buffer_write<T: Send + Sync + 'static>(
        &mut self,
        id: u64,
        pending: &Arc<T>,
        entry: W,
    ) {
        let pending = Arc::clone(pending) as AnyValue;
        self.read_cache.insert(pending_key(id), pending);
        // One probe: claim the next write-log slot, or find the one taken.
        let idx = *self.write_ids.entry(id).or_insert(self.writes.len());
        match self.writes.get_mut(idx) {
            Some(slot) => *slot = entry,
            None => self.writes.push(entry),
        }
    }
}
