//! A lock-free object pool: the allocation-free request lifecycle's
//! recycling station.
//!
//! The serving hot loop used to pay one heap allocation per request for the
//! boxed request record, one for the completion channel, and one for the
//! reply-encode buffer. A [`Pool`] closes that loop: finished objects are
//! [`put`](Pool::put) back and the next request [`get`](Pool::get)s a
//! recycled one — at steady state (pool warmed past the in-flight high-water
//! mark) the allocator is out of the per-request picture entirely.
//!
//! Misses are not errors: a miss means the caller allocates a fresh object
//! (cold start or an in-flight burst beyond the pool's depth), and an
//! overflowing `put` simply drops the object. Both sides stay lock-free —
//! the pool is a [`BoundedQueue`] ring used in its non-blocking mode — and
//! the hit/miss counters are cache-line padded so the gauge itself does not
//! become the contention point it is meant to expose. The harness's
//! `open_loop` prints the resulting hit rate, which is how the "no per-request heap
//! allocation at steady state" claim is demonstrated rather than asserted.

use crate::queue::BoundedQueue;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Pool traffic counters: how often [`Pool::get`] was served from the pool
/// (`hits`) versus falling back to a fresh allocation (`misses`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls served by a recycled object.
    pub hits: u64,
    /// `get` calls that found the pool empty (caller allocates).
    pub misses: u64,
}

impl PoolStats {
    /// Hits as a fraction of all `get` calls; 1.0 for an untouched pool so
    /// a cold gauge reads "nothing allocated" rather than "everything
    /// missed".
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another pool's traffic into this one (report aggregation).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

struct PoolInner<T> {
    free: BoundedQueue<T>,
    hits: CachePadded<AtomicU64>,
    misses: CachePadded<AtomicU64>,
}

/// A bounded lock-free pool of recycled `T`s. Cloning shares the pool.
pub struct Pool<T> {
    inner: Arc<PoolInner<T>>,
}

impl<T> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Pool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Pool<T> {
    /// An empty pool holding at most `capacity` free objects. Size it past
    /// the expected in-flight high-water mark (e.g. workers × queue depth)
    /// so steady-state traffic never overflows it.
    pub fn new(capacity: usize) -> Self {
        Pool {
            inner: Arc::new(PoolInner {
                free: BoundedQueue::new(capacity.max(1)),
                hits: CachePadded::new(AtomicU64::new(0)),
                misses: CachePadded::new(AtomicU64::new(0)),
            }),
        }
    }

    /// Take a recycled object, or `None` (counted as a miss) when the pool
    /// is empty — the caller allocates fresh. Never blocks.
    pub fn get(&self) -> Option<T> {
        match self.inner.free.try_pop() {
            Some(v) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Return an object for reuse. A full pool drops it (bounded memory
    /// beats a perfect hit rate). Never blocks.
    pub fn put(&self, value: T) {
        let _ = self.inner.free.try_push(value);
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }

    /// Objects currently available for reuse.
    pub fn available(&self) -> usize {
        self.inner.free.len()
    }

    /// A non-owning handle to this pool. Pooled objects that carry a way
    /// back to their home pool should carry one of these: a strong `Pool`
    /// inside a pooled object would form a reference cycle (pool → free
    /// object → pool) and leak the pool at shutdown.
    pub fn downgrade(&self) -> WeakPool<T> {
        WeakPool {
            inner: Arc::downgrade(&self.inner),
        }
    }
}

/// A non-owning [`Pool`] handle; see [`Pool::downgrade`].
pub struct WeakPool<T> {
    inner: Weak<PoolInner<T>>,
}

impl<T> Clone for WeakPool<T> {
    fn clone(&self) -> Self {
        WeakPool {
            inner: Weak::clone(&self.inner),
        }
    }
}

impl<T> Default for WeakPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WeakPool<T> {
    /// A dangling handle that never upgrades — for objects created outside
    /// any pool (they recycle to nowhere and simply drop).
    pub fn new() -> Self {
        WeakPool { inner: Weak::new() }
    }

    /// The pool, if it is still alive.
    pub fn upgrade(&self) -> Option<Pool<T>> {
        self.inner.upgrade().map(|inner| Pool { inner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_recycle_then_hit() {
        let pool: Pool<Vec<u8>> = Pool::new(4);
        assert!(pool.get().is_none(), "cold pool misses");
        pool.put(Vec::with_capacity(64));
        let v = pool.get().expect("recycled object is a hit");
        assert_eq!(v.capacity(), 64, "same object comes back");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overflow_drops_instead_of_growing() {
        let pool: Pool<u32> = Pool::new(2);
        pool.put(1);
        pool.put(2);
        pool.put(3); // full: dropped
        assert_eq!(pool.available(), 2);
        assert!(pool.get().is_some());
        assert!(pool.get().is_some());
        assert!(pool.get().is_none());
    }

    #[test]
    fn cold_gauge_reads_full_hit_rate() {
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
        let mut a = PoolStats { hits: 3, misses: 1 };
        a.merge(&PoolStats { hits: 1, misses: 3 });
        assert_eq!(a, PoolStats { hits: 4, misses: 4 });
    }

    #[test]
    fn shared_across_threads() {
        let pool: Pool<u64> = Pool::new(64);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        let v = pool.get().unwrap_or(t * 10_000 + i);
                        pool.put(v);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 4_000, "every get accounted");
    }
}
