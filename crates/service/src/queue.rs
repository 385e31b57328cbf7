//! Bounded MPSC submission queues with admission control.
//!
//! Each service worker owns one of these. Producers never block: past the
//! configured depth [`BoundedQueue::try_push`] *sheds* the item with a typed
//! [`PushError::Overloaded`] — backpressure surfaces to the client as an
//! explicit admission decision instead of an unbounded queue silently
//! absorbing latency (the open-loop lens: under overload you want a shed
//! rate, not a queue whose wait time grows without bound).
//!
//! The consumer side blocks ([`BoundedQueue::pop`]) until an item arrives or
//! the queue is closed *and* drained — close-then-drain is what lets the
//! service shut down without dropping accepted requests.
//!
//! # Implementation: a lock-free bounded ring
//!
//! The hot paths (`try_push`, the non-empty cases of `pop`/`pop_batch`) are
//! lock-free: an array of slots, each carrying a `stamp` word that encodes
//! which *lap* of the ring the slot is in (Vyukov's bounded MPMC scheme).
//! Stamps are double-spaced — `2·pos` means free for the producer claiming
//! position `pos`, `2·pos + 1` means published for the consumer at `pos` —
//! so the two states can never alias across laps at any capacity (with
//! single-spaced stamps, "published at `pos`" equals "free at `pos + 1`"
//! when the capacity is 1). A producer claims `pos` by CAS-advancing the
//! shared `tail` counter when `stamp == 2·pos`, writes the value, then
//! *publishes* with `stamp = 2·pos + 1`. The consumer takes a published
//! slot (`stamp == 2·head + 1`), reads the value, and frees it for the next
//! lap with `stamp = 2·(head + cap)`. Shedding needs no lock either: a slot
//! whose stamp is a full lap behind means the ring is full — confirmed
//! against `head` so a stale `tail` read cannot shed spuriously.
//!
//! Close is a single `fetch_or` of a high bit into the `tail` word, which
//! makes it linearize against producer claims: any producer that loaded
//! `tail` before the close fails its CAS (the word changed) and observes
//! `Closed` on reload. A successful `try_push` therefore *happened before*
//! the close and its item is guaranteed to be drained — the
//! completed==submitted shutdown invariant holds with no lock.
//!
//! Blocking is confined to the empty queue: the consumer parks on a
//! `Mutex`+`Condvar` pair only after registering itself in a `waiting`
//! counter and re-checking emptiness; a producer, after publishing, checks
//! `waiting` behind a `SeqCst` fence and takes the park lock only when a
//! consumer is actually parked — the empty→non-empty transition is the only
//! time the lock is touched. The full memory-ordering argument is written
//! up in DESIGN.md §13.

// The ring's value slots are `UnsafeCell<MaybeUninit<T>>`: initialization is
// hand-tracked through the stamp protocol, which the crate-wide
// `deny(unsafe_code)` cannot express. This module is the one audited
// exception; everything it exports is a safe interface.
#![allow(unsafe_code)]

use crossbeam_utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Why a push was refused. Both variants hand the item back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — admission control sheds the request.
    Overloaded(T),
    /// The queue was closed (service shutting down).
    Closed(T),
}

/// High bit of the `tail` word: the queue is closed. Keeping the flag in
/// the same word producers CAS on is what makes close linearizable against
/// concurrent pushes (see module docs).
const CLOSED: u64 = 1 << 63;
/// Low bits of the `tail` word: the producer position counter.
const POS_MASK: u64 = CLOSED - 1;

/// Stamp of a slot that is free for the producer claiming `pos`.
fn free(pos: u64) -> u64 {
    pos.wrapping_mul(2)
}

/// Stamp of a slot published for the consumer at `pos`.
fn published(pos: u64) -> u64 {
    pos.wrapping_mul(2).wrapping_add(1)
}

/// One ring slot: the lap stamp plus the (manually initialization-tracked)
/// value cell. `stamp == 2·pos` ⇒ free for the producer claiming `pos`;
/// `stamp == 2·pos + 1` ⇒ published, ready for the consumer at `pos`. The
/// doubling keeps the states distinct across laps at every capacity.
struct Slot<T> {
    stamp: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Inner<T> {
    /// Ring storage; length is the queue capacity.
    buf: Box<[Slot<T>]>,
    /// Capacity as the stamp lap increment.
    cap: u64,
    /// Producer cursor (low bits) + the [`CLOSED`] flag (high bit). Padded:
    /// producers hammer this word while the consumer hammers `head`.
    tail: CachePadded<AtomicU64>,
    /// Consumer cursor.
    head: CachePadded<AtomicU64>,
    /// Number of consumers parked (0 or 1 in MPSC use). Producers read this
    /// after publishing to decide whether the park lock must be touched.
    waiting: CachePadded<AtomicU64>,
    /// Park point for an empty-queue consumer. Never on the push fast path.
    park: Mutex<()>,
    cv: Condvar,
}

// SAFETY: the stamp protocol hands each slot to exactly one thread at a
// time (the claiming producer until publish, then the taking consumer), so
// sharing `Inner` across threads moves `T` values but never aliases them.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Drop any published-but-unconsumed items. `&mut self`: no
        // concurrent access, plain loads suffice.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut() & POS_MASK;
        for pos in head..tail {
            let slot = &self.buf[(pos % self.cap) as usize];
            if slot.stamp.load(Ordering::Relaxed) == published(pos) {
                // SAFETY: the published stamp marks the slot's value for
                // lap `pos` as written and not yet taken — initialized
                // and owned by nobody else.
                unsafe { (*slot.value.get()).assume_init_read() };
            }
        }
    }
}

/// A bounded multi-producer single-consumer (by convention) queue.
pub struct BoundedQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        BoundedQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of one non-blocking take attempt.
enum Take<T> {
    /// Got an item.
    Item(T),
    /// Nothing published and the queue is open.
    Empty,
    /// Closed and fully drained.
    Ended,
}

impl<T> BoundedQueue<T> {
    /// New queue admitting at most `capacity` queued items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue depth must be at least 1");
        let buf: Box<[Slot<T>]> = (0..capacity as u64)
            .map(|i| Slot {
                stamp: AtomicU64::new(free(i)),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        BoundedQueue {
            inner: Arc::new(Inner {
                buf,
                cap: capacity as u64,
                tail: CachePadded::new(AtomicU64::new(0)),
                head: CachePadded::new(AtomicU64::new(0)),
                waiting: CachePadded::new(AtomicU64::new(0)),
                park: Mutex::new(()),
                cv: Condvar::new(),
            }),
        }
    }

    /// Admit `item` if there is room; shed it otherwise. Never blocks and
    /// takes no lock — a full or closed queue is decided purely from the
    /// `tail`/`stamp` words (the wakeup lock is touched only when a
    /// consumer is parked, i.e. on an empty→non-empty transition).
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let inner = &*self.inner;
        loop {
            let tail = inner.tail.load(Ordering::Acquire);
            if tail & CLOSED != 0 {
                return Err(PushError::Closed(item));
            }
            let pos = tail;
            let slot = &inner.buf[(pos % inner.cap) as usize];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == free(pos) {
                // Slot free for this lap: claim the position. A concurrent
                // `close` flips the high bit of `tail`, so this CAS also
                // fails (and the reload observes Closed) — a successful
                // push strictly precedes any close.
                if inner
                    .tail
                    .compare_exchange_weak(tail, pos + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: the CAS made `pos` ours alone; the slot is
                    // free (stamp == free(pos)) until we publish below.
                    unsafe { (*slot.value.get()).write(item) };
                    slot.stamp.store(published(pos), Ordering::Release);
                    // Empty→non-empty wakeup, Dekker-style: publish, fence,
                    // then read `waiting`; the parking side registers in
                    // `waiting`, fences, then re-checks emptiness. One of
                    // the two must see the other's write (both are SeqCst-
                    // fenced), so a parked consumer is never missed.
                    fence(Ordering::SeqCst);
                    if inner.waiting.load(Ordering::Relaxed) > 0 {
                        drop(inner.park.lock().unwrap());
                        inner.cv.notify_one();
                    }
                    return Ok(());
                }
                // Lost the race; reload and retry.
            } else if stamp == published(pos.wrapping_sub(inner.cap)) {
                // The slot still holds last lap's item: ring full — unless
                // our `tail` read was stale. Confirm against `head` (the
                // fence orders the two loads): still a full lap apart ⇒
                // genuinely full ⇒ shed, lock-free.
                fence(Ordering::SeqCst);
                let head = inner.head.load(Ordering::Relaxed);
                if head.wrapping_add(inner.cap) == pos {
                    return Err(PushError::Overloaded(item));
                }
                std::hint::spin_loop();
            } else {
                // Another producer is mid-claim or our reads raced; retry.
                std::hint::spin_loop();
            }
        }
    }

    /// One non-blocking take attempt. Spins through the transient window in
    /// which a producer has claimed a position but not yet published it —
    /// the publish is a handful of instructions away, and waiting for it is
    /// what makes close-then-drain complete (a claimed item *will* appear).
    fn try_take(&self) -> Take<T> {
        let inner = &*self.inner;
        let mut spins = 0u32;
        loop {
            let head = inner.head.load(Ordering::Acquire);
            let slot = &inner.buf[(head % inner.cap) as usize];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == published(head) {
                // Published: claim it. (CAS, not a plain store, so the
                // internal `try_pop` stays safe under concurrent callers
                // even though the service uses one consumer per queue.)
                if inner
                    .head
                    .compare_exchange_weak(head, head + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: the CAS made `head` ours alone and the stamp
                    // says the value is initialized.
                    let value = unsafe { (*slot.value.get()).assume_init_read() };
                    slot.stamp
                        .store(free(head.wrapping_add(inner.cap)), Ordering::Release);
                    return Take::Item(value);
                }
            } else if stamp == free(head) {
                // Nothing published at `head`. Either the queue is empty, or
                // a producer has claimed this position (tail advanced past
                // `head`) and is about to publish.
                fence(Ordering::SeqCst);
                let tail = inner.tail.load(Ordering::Acquire);
                if tail & POS_MASK == head {
                    return if tail & CLOSED != 0 {
                        Take::Ended
                    } else {
                        Take::Empty
                    };
                }
                // Claimed but unpublished: the producer already won its CAS
                // (even against a close), so the item is coming — spin for
                // it rather than reporting empty or ended.
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            } else {
                // Stale `head` (another taker advanced it); retry.
                std::hint::spin_loop();
            }
        }
    }

    /// Park until the queue might have work (or was closed). The `waiting`
    /// registration + re-check under the lock pairs with the producer's
    /// publish + fence + `waiting` read: whichever side's fenced operation
    /// comes second sees the other's write, so the consumer never sleeps
    /// through a publish (see module docs).
    fn park_if_empty(&self) {
        let inner = &*self.inner;
        let guard = inner.park.lock().unwrap();
        inner.waiting.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let head = inner.head.load(Ordering::SeqCst);
        let tail = inner.tail.load(Ordering::SeqCst);
        if tail & POS_MASK == head && tail & CLOSED == 0 {
            // Genuinely empty and open: sleep until a publisher or closer
            // takes the lock and notifies. Spurious wakeups are fine — the
            // caller loops on `try_take`.
            let _guard = inner.cv.wait(guard).unwrap();
        }
        inner.waiting.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocking pop: `Some(item)` in FIFO order, or `None` once the queue is
    /// closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        loop {
            match self.try_take() {
                Take::Item(v) => return Some(v),
                Take::Ended => return None,
                Take::Empty => self.park_if_empty(),
            }
        }
    }

    /// Non-blocking pop: `Some(item)` if one is ready, `None` if the queue
    /// is empty *or* closed-and-drained. The lock-free fast path of
    /// [`pop`](BoundedQueue::pop) without the parking — what an object pool
    /// wants (a miss falls back to allocation, never to sleeping).
    pub fn try_pop(&self) -> Option<T> {
        match self.try_take() {
            Take::Item(v) => Some(v),
            Take::Empty | Take::Ended => None,
        }
    }

    /// Blocking batch pop: waits like [`pop`](BoundedQueue::pop) until work
    /// arrives, then drains up to `max` queued items into `out` in FIFO
    /// order. Returns the number appended; `0` means the queue is closed and
    /// fully drained. Under backlog the consumer takes items back-to-back
    /// with no park/unpark cycle between them.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        assert!(max >= 1, "batch size must be at least 1");
        loop {
            let mut n = 0;
            loop {
                match self.try_take() {
                    Take::Item(v) => {
                        out.push(v);
                        n += 1;
                        if n == max {
                            return n;
                        }
                    }
                    Take::Empty => {
                        if n > 0 {
                            return n;
                        }
                        self.park_if_empty();
                        break; // re-enter the drain loop
                    }
                    Take::Ended => return n,
                }
            }
        }
    }

    /// Close the queue: future pushes fail, consumers drain then observe
    /// `None`. One atomic `fetch_or` into the word producers CAS on — any
    /// push that succeeded happened strictly before the close and will be
    /// drained.
    pub fn close(&self) {
        self.inner.tail.fetch_or(CLOSED, Ordering::SeqCst);
        // Acquire the park lock before notifying so a consumer between its
        // emptiness re-check and `cv.wait` cannot miss the close: the
        // re-check happens under this lock, so it either sees the flag or
        // is already parked when the notification fires.
        drop(self.inner.park.lock().unwrap());
        self.inner.cv.notify_all();
    }

    /// Items currently queued (claimed positions included).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::SeqCst) & POS_MASK;
        let head = self.inner.head.load(Ordering::SeqCst);
        tail.saturating_sub(head) as usize
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn sheds_past_capacity_and_recovers() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        // Admission control: the third push is shed, item handed back.
        assert_eq!(q.try_push(3), Err(PushError::Overloaded(3)));
        assert_eq!(q.len(), 2);
        // Draining one slot re-opens admission.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn pop_batch_drains_bursts_in_fifo_order() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        // Capped at `max`, FIFO prefix first.
        assert_eq!(q.pop_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        // The rest comes in one call when the backlog fits.
        assert_eq!(q.pop_batch(&mut out, 64), 6);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        q.close();
        assert_eq!(q.pop_batch(&mut out, 4), 0, "closed + drained ends");
    }

    #[test]
    fn pop_batch_blocks_until_work_or_close() {
        let q = BoundedQueue::<u8>::new(4);
        let q2 = q.clone();
        let j = std::thread::spawn(move || {
            let mut out = Vec::new();
            let n = q2.pop_batch(&mut out, 8);
            (n, out)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.try_push(7).unwrap();
        let (n, out) = j.join().unwrap();
        assert_eq!((n, out), (1, vec![7]));

        let q2 = q.clone();
        let j = std::thread::spawn(move || q2.pop_batch(&mut Vec::new(), 8));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(j.join().unwrap(), 0, "close releases a blocked batch pop");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.close();
        assert_eq!(q.try_push("b"), Err(PushError::Closed("b")));
        assert_eq!(q.pop(), Some("a"), "accepted items survive close");
        assert_eq!(q.pop(), None, "then the consumer sees the end");
    }

    #[test]
    fn close_releases_blocked_consumer() {
        let q = BoundedQueue::<u8>::new(1);
        let q2 = q.clone();
        let j = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(j.join().unwrap(), None);
    }

    #[test]
    fn producers_race_consumer() {
        let q = BoundedQueue::new(64);
        let total: usize = std::thread::scope(|s| {
            for t in 0..4 {
                let q = q.clone();
                s.spawn(move || {
                    let mut pushed = 0;
                    while pushed < 100 {
                        if q.try_push(t).is_ok() {
                            pushed += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let q = q.clone();
            s.spawn(move || {
                let mut n = 0;
                while n < 400 {
                    if q.pop().is_some() {
                        n += 1;
                    }
                }
                n
            })
            .join()
            .unwrap()
        });
        assert_eq!(total, 400);
    }

    #[test]
    fn try_pop_never_blocks() {
        let q = BoundedQueue::<u8>::new(2);
        assert_eq!(q.try_pop(), None, "empty: miss, no park");
        q.try_push(9).unwrap();
        assert_eq!(q.try_pop(), Some(9));
        q.close();
        assert_eq!(q.try_pop(), None, "closed+drained: miss");
    }

    /// Regression: at capacity 1 a single-spaced stamp scheme aliases
    /// "published at pos" with "free at pos+1", letting a producer overwrite
    /// an unconsumed item and wedging the consumer. The double-spaced stamps
    /// must keep a depth-1 queue shedding and round-tripping correctly.
    #[test]
    fn capacity_one_sheds_and_round_trips() {
        let q = BoundedQueue::new(1);
        for i in 0..100 {
            q.try_push(i).unwrap();
            assert_eq!(
                q.try_push(999),
                Err(PushError::Overloaded(999)),
                "a depth-1 queue holding an item must shed"
            );
            assert_eq!(q.pop(), Some(i));
        }
        q.close();
        assert_eq!(q.pop(), None);
    }

    /// Capacity-1 under racing producers: the tightest ring still loses and
    /// duplicates nothing.
    #[test]
    fn capacity_one_survives_producer_races() {
        const PRODUCERS: u64 = 2;
        const PER: u64 = 1_000;
        let q = BoundedQueue::<u64>::new(1);
        let drained = std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = q.clone();
                s.spawn(move || {
                    for seq in 0..PER {
                        while q.try_push(t * 1_000_000 + seq).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let q = q.clone();
            s.spawn(move || {
                let mut all = Vec::new();
                while (all.len() as u64) < PRODUCERS * PER {
                    if let Some(v) = q.pop() {
                        all.push(v);
                    }
                }
                all
            })
            .join()
            .unwrap()
        });
        let set: std::collections::HashSet<u64> = drained.iter().copied().collect();
        assert_eq!(set.len() as u64, PRODUCERS * PER, "no loss, no duplicates");
    }

    // -- stress witnesses for the lock-free ring ---------------------------

    /// Multi-producer FIFO-per-producer: with interleaved producers the
    /// global order is arbitrary, but each producer's own items must come
    /// out in the order it pushed them.
    #[test]
    fn stress_fifo_per_producer() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 2_000;
        let q = BoundedQueue::<(u64, u64)>::new(32);
        let got = std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = q.clone();
                s.spawn(move || {
                    for seq in 0..PER {
                        loop {
                            match q.try_push((t, seq)) {
                                Ok(()) => break,
                                Err(PushError::Overloaded(_)) => std::thread::yield_now(),
                                Err(PushError::Closed(_)) => panic!("queue closed mid-test"),
                            }
                        }
                    }
                });
            }
            let q = q.clone();
            s.spawn(move || {
                let mut got: Vec<Vec<u64>> = vec![Vec::new(); PRODUCERS as usize];
                for _ in 0..PRODUCERS * PER {
                    let (t, seq) = q.pop().expect("open queue with pending producers");
                    got[t as usize].push(seq);
                }
                got
            })
            .join()
            .unwrap()
        });
        for (t, seqs) in got.iter().enumerate() {
            assert_eq!(seqs.len() as u64, PER, "producer {t} count");
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "producer {t} order violated"
            );
        }
    }

    /// Shed-at-capacity exactness: a full ring sheds every push until a
    /// take frees a slot, and never admits past the configured depth.
    #[test]
    fn stress_shed_at_capacity_is_exact() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        for _ in 0..100 {
            assert!(matches!(q.try_push(99), Err(PushError::Overloaded(99))));
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some(0));
        q.try_push(4).unwrap();
        assert!(matches!(q.try_push(99), Err(PushError::Overloaded(99))));
        for i in 1..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    /// Close-then-drain completeness under concurrent pushers: every push
    /// that returned `Ok` before the close lands at the consumer — no
    /// accepted item is ever lost, no shed item ever appears.
    #[test]
    fn stress_close_then_drain_loses_nothing() {
        for _round in 0..20 {
            let q = BoundedQueue::<u64>::new(16);
            let (accepted, drained) = std::thread::scope(|s| {
                let producers: Vec<_> = (0..4)
                    .map(|t| {
                        let q = q.clone();
                        s.spawn(move || {
                            let mut oks = 0u64;
                            let mut seq = 0u64;
                            loop {
                                match q.try_push(t * 1_000_000 + seq) {
                                    Ok(()) => {
                                        oks += 1;
                                        seq += 1;
                                    }
                                    Err(PushError::Overloaded(_)) => std::thread::yield_now(),
                                    Err(PushError::Closed(_)) => return oks,
                                }
                            }
                        })
                    })
                    .collect();
                let consumer = {
                    let q = q.clone();
                    s.spawn(move || {
                        let mut n = 0u64;
                        while q.pop().is_some() {
                            n += 1;
                        }
                        n
                    })
                };
                std::thread::sleep(std::time::Duration::from_millis(2));
                q.close();
                let accepted: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
                (accepted, consumer.join().unwrap())
            });
            assert_eq!(
                drained, accepted,
                "push-Ok must imply drained, even racing close"
            );
        }
    }

    /// `pop_batch` under concurrent producers never loses or duplicates an
    /// item: the union of all drained batches is exactly the pushed set.
    #[test]
    fn stress_pop_batch_no_loss_no_dup() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 2_000;
        let q = BoundedQueue::<u64>::new(32);
        let drained = std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = q.clone();
                s.spawn(move || {
                    for seq in 0..PER {
                        let id = t * 1_000_000 + seq;
                        while q.try_push(id).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let q = q.clone();
            s.spawn(move || {
                let mut all = Vec::new();
                let mut batch = Vec::new();
                while (all.len() as u64) < PRODUCERS * PER {
                    batch.clear();
                    let n = q.pop_batch(&mut batch, 7);
                    assert!(n > 0, "open queue: pop_batch must return work");
                    all.extend_from_slice(&batch);
                }
                all
            })
            .join()
            .unwrap()
        });
        assert_eq!(drained.len() as u64, PRODUCERS * PER, "no loss");
        let set: std::collections::HashSet<u64> = drained.iter().copied().collect();
        assert_eq!(set.len(), drained.len(), "no duplicates");
    }
}
