//! Thread-cached block allocation for the runtime's id sequences.
//!
//! The runtime used to draw object ids, handle ids and contention-manager
//! birth numbers from plain `fetch_add(1)` counters — three shared
//! read-modify-write lines that every allocation bounced between cores,
//! exactly the access pattern the time-base work removes from the commit
//! path. [`BlockAlloc`] amortizes them the same way the
//! `lsa_time::counter::BlockCounter` amortizes timestamp reservation: each
//! thread reserves a whole block of ids with one RMW and then hands values
//! out from thread-local cache, so the shared line is touched once per
//! `block` allocations instead of once per allocation.
//!
//! Values stay globally unique (blocks are disjoint `fetch_add` ranges) and
//! strictly increasing *per thread*, but are **not** allocation-order
//! comparable across threads — a thread's cached block may be older than
//! another thread's freshly reserved one. Object and handle ids only need
//! uniqueness, so nothing changes for them; contention-manager *birth*
//! numbers use block allocation too, which coarsens the "older transaction
//! wins" order to block granularity (bounded unfairness of at most one
//! block per thread — the priority signal the timestamp/karma managers
//! consume is heuristic to begin with).

use lsa_engine::IdMap;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide source of allocator identities, so each [`BlockAlloc`] finds
/// its own cache slot in the thread-local map.
static ALLOC_KEYS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread block caches: allocator key → (next unissued, block end).
    /// Entries of dropped allocators linger (a thread cannot clear its
    /// siblings' caches), but each entry is two words and allocator churn
    /// is bounded by runtime instances created, so the map stays tiny.
    static CACHES: RefCell<IdMap<(u64, u64)>> = RefCell::new(IdMap::default());
}

/// A globally unique id sequence handed out in thread-cached blocks.
#[derive(Debug)]
pub(crate) struct BlockAlloc {
    next: AtomicU64,
    block: u64,
    key: u64,
}

impl BlockAlloc {
    /// Sequence starting at `start`, reserving `block` ids per thread refill.
    pub(crate) fn new(start: u64, block: u64) -> Self {
        assert!(block >= 1, "block size must be positive");
        BlockAlloc {
            next: AtomicU64::new(start),
            block,
            key: ALLOC_KEYS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Allocate the next id: from the calling thread's cached block when one
    /// is live, reserving a fresh block (one shared RMW) otherwise.
    pub(crate) fn alloc(&self) -> u64 {
        CACHES.with(|caches| {
            let mut caches = caches.borrow_mut();
            let slot = caches.entry(self.key).or_insert((0, 0));
            if slot.0 >= slot.1 {
                let base = self.next.fetch_add(self.block, Ordering::Relaxed);
                *slot = (base, base + self.block);
            }
            let v = slot.0;
            slot.0 += 1;
            v
        })
    }

    /// Ids handed out so far is bounded by this reservation frontier
    /// (tests / diagnostics).
    #[cfg(test)]
    pub(crate) fn reserved(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocations_are_unique_and_increasing() {
        let a = BlockAlloc::new(1, 8);
        let mut last = 0;
        for _ in 0..100 {
            let v = a.alloc();
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn one_rmw_per_block() {
        let a = BlockAlloc::new(1, 64);
        for _ in 0..64 {
            a.alloc();
        }
        assert_eq!(a.reserved(), 65, "64 allocations must cost one refill");
    }

    #[test]
    fn concurrent_allocations_never_collide() {
        let a = BlockAlloc::new(0, 8);
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let a = &a;
                    s.spawn(move || (0..5_000).map(|_| a.alloc()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(n, all.len(), "block-allocated ids must be unique");
    }

    #[test]
    fn distinct_allocators_have_distinct_caches() {
        let a = BlockAlloc::new(0, 4);
        let b = BlockAlloc::new(0, 4);
        // Interleaved allocations must not leak one allocator's cache into
        // the other's sequence.
        assert_eq!(a.alloc(), 0);
        assert_eq!(b.alloc(), 0);
        assert_eq!(a.alloc(), 1);
        assert_eq!(b.alloc(), 1);
    }
}
