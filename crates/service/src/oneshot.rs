//! A hand-rolled oneshot channel: the completion path of the service.
//!
//! One value travels from the worker that executed a request to the client
//! that submitted it. The receiving side blocks ([`Receiver::wait`]) or
//! probes ([`Receiver::try_recv`]); nothing polls it, so there is no waker
//! to store: the slot is a mutex-guarded state word and the consumer parks
//! on a condvar beside it.
//!
//! Channels can be *pooled*: an [`OneshotPool`] recycles the shared
//! allocation behind a channel once both halves are done with it, so a hot
//! request path (the wire client's pending-reply correlation) pays no heap
//! allocation per request at steady state. [`channel`] remains the
//! unpooled constructor.

use crate::pool::{Pool, PoolStats, WeakPool};
use std::sync::{Arc, Condvar, Mutex};

/// Error returned when the sender was dropped without sending — for the
/// service this means the worker pool shut down before running the request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Canceled;

impl std::fmt::Display for Canceled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("oneshot sender dropped without sending")
    }
}

impl std::error::Error for Canceled {}

enum Slot<T> {
    /// Nothing sent yet.
    Empty,
    /// Value delivered, not yet taken.
    Value(T),
    /// Sender dropped without sending.
    Closed,
    /// Value already handed to the consumer.
    Taken,
}

struct Inner<T> {
    slot: Mutex<Slot<T>>,
    cv: Condvar,
    /// Where the shared allocation goes when both halves are done with it.
    /// Dangling (never upgrades) for unpooled channels.
    home: WeakPool<Arc<Inner<T>>>,
}

/// Create a connected, unpooled sender/receiver pair (one allocation per
/// channel). Hot paths should prefer an [`OneshotPool`].
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    pair(Arc::new(Inner {
        slot: Mutex::new(Slot::Empty),
        cv: Condvar::new(),
        home: WeakPool::new(),
    }))
}

fn pair<T>(inner: Arc<Inner<T>>) -> (Sender<T>, Receiver<T>) {
    (
        Sender {
            inner: Some(Arc::clone(&inner)),
        },
        Receiver { inner: Some(inner) },
    )
}

/// A pool of oneshot channels: [`OneshotPool::channel`] hands out recycled
/// channel allocations, and whichever half of a pair is relinquished *last*
/// (sent/waited/dropped) resets the slot and returns the allocation to the
/// pool. At steady state a request/reply hot loop pays zero allocations for
/// its completion plumbing; [`stats`](OneshotPool::stats) exposes the
/// hit/miss gauge that proves it.
pub struct OneshotPool<T> {
    pool: Pool<Arc<Inner<T>>>,
}

impl<T> Clone for OneshotPool<T> {
    fn clone(&self) -> Self {
        OneshotPool {
            pool: self.pool.clone(),
        }
    }
}

impl<T> OneshotPool<T> {
    /// A pool retaining at most `capacity` free channels. Size it past the
    /// expected number of concurrently in-flight requests.
    pub fn new(capacity: usize) -> Self {
        OneshotPool {
            pool: Pool::new(capacity),
        }
    }

    /// A connected pair backed by a recycled allocation when one is
    /// available (pool hit), or a fresh one otherwise (miss).
    pub fn channel(&self) -> (Sender<T>, Receiver<T>) {
        let inner = self.pool.get().unwrap_or_else(|| {
            Arc::new(Inner {
                slot: Mutex::new(Slot::Empty),
                cv: Condvar::new(),
                home: self.pool.downgrade(),
            })
        });
        pair(inner)
    }

    /// Hit/miss traffic of [`channel`](OneshotPool::channel).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

/// Relinquish one half's reference. The last half out (sole owner of the
/// `Arc`) resets the slot and recycles the allocation to its home pool.
/// Both halves hold independent clones, so a concurrent double-drop can at
/// worst *miss* a recycle (both see a count of 2 — the allocation frees
/// normally), never recycle twice or recycle a live channel.
fn release<T>(arc: Arc<Inner<T>>) {
    if Arc::strong_count(&arc) == 1 {
        if let Some(pool) = arc.home.upgrade() {
            *arc.slot.lock().unwrap() = Slot::Empty;
            pool.put(arc);
        }
    }
}

/// The producing half; consumed by [`Sender::send`].
pub struct Sender<T> {
    /// `Some` until the half is relinquished (send or drop).
    inner: Option<Arc<Inner<T>>>,
}

impl<T> Sender<T> {
    /// Deliver `value`, waking the consumer if it is parked. Delivery into a
    /// dropped receiver is not an error — the value is simply discarded
    /// (the service must not panic because a client gave up on a request).
    pub fn send(mut self, value: T) {
        let inner = self.inner.take().expect("send consumes the live sender");
        // The slot is `Empty`: receiver-side states need a value first, and
        // `send` consumes the only sender.
        *inner.slot.lock().unwrap() = Slot::Value(value);
        inner.cv.notify_all();
        release(inner);
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return; // sent: the channel was relinquished there
        };
        // Unsent, so the slot is still `Empty`.
        *inner.slot.lock().unwrap() = Slot::Closed;
        inner.cv.notify_all();
        release(inner);
    }
}

/// The consuming half, resolving to `Result<T, Canceled>`.
pub struct Receiver<T> {
    /// `Some` until the half is relinquished (wait or drop).
    inner: Option<Arc<Inner<T>>>,
}

impl<T> Receiver<T> {
    fn live(&self) -> &Inner<T> {
        self.inner.as_ref().expect("receiver relinquished")
    }

    /// Non-blocking probe: `None` while nothing happened yet.
    pub fn try_recv(&mut self) -> Option<Result<T, Canceled>> {
        let inner = self.live();
        let mut slot = inner.slot.lock().unwrap();
        match std::mem::replace(&mut *slot, Slot::Taken) {
            Slot::Value(v) => Some(Ok(v)),
            Slot::Closed => Some(Err(Canceled)),
            Slot::Empty => {
                *slot = Slot::Empty;
                None
            }
            Slot::Taken => panic!("oneshot value already taken"),
        }
    }

    /// Block the calling thread until the value (or cancellation) arrives.
    pub fn wait(mut self) -> Result<T, Canceled> {
        let inner = self.inner.take().expect("wait consumes the live receiver");
        let result = {
            let mut slot = inner.slot.lock().unwrap();
            loop {
                match std::mem::replace(&mut *slot, Slot::Taken) {
                    Slot::Value(v) => break Ok(v),
                    Slot::Closed => break Err(Canceled),
                    Slot::Empty => {
                        *slot = Slot::Empty;
                        slot = inner.cv.wait(slot).unwrap();
                    }
                    Slot::Taken => panic!("oneshot value already taken"),
                }
            }
        };
        release(inner);
        result
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            release(inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_flows_through() {
        let (tx, rx) = channel();
        tx.send(42u64);
        assert_eq!(rx.wait(), Ok(42));
    }

    #[test]
    fn try_recv_sees_pending_then_value() {
        let (tx, mut rx) = channel();
        assert!(rx.try_recv().is_none());
        tx.send(7i32);
        assert_eq!(rx.try_recv(), Some(Ok(7)));
    }

    #[test]
    fn dropped_sender_cancels() {
        let (tx, rx) = channel::<u8>();
        drop(tx);
        assert_eq!(rx.wait(), Err(Canceled));
    }

    #[test]
    fn blocking_wait_crosses_threads() {
        let (tx, rx) = channel();
        let j = std::thread::spawn(move || rx.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send("done");
        assert_eq!(j.join().unwrap(), Ok("done"));
    }

    /// A send into a dropped receiver must not panic or leak the lock.
    #[test]
    fn send_to_dropped_receiver_is_quiet() {
        let (tx, rx) = channel();
        drop(rx);
        tx.send(9usize);
    }

    /// Pooled channels: the first pair misses (fresh allocation), completes
    /// normally, and its allocation comes back reset for the next pair.
    #[test]
    fn pooled_channel_recycles_after_both_halves() {
        let pool = OneshotPool::new(4);
        let (tx, rx) = pool.channel(); // cold: miss
        tx.send(1u32);
        assert_eq!(rx.wait(), Ok(1));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 1));

        let (tx, rx) = pool.channel(); // recycled: hit
        assert_eq!(pool.stats().hits, 1);
        drop(tx); // cancellation also recycles once both halves are gone
        assert_eq!(rx.wait(), Err(Canceled));

        let (_tx, mut rx) = pool.channel();
        assert_eq!(pool.stats().hits, 2);
        assert!(rx.try_recv().is_none(), "recycled slot comes back empty");
    }

    /// An unconsumed sent value must not leak into the next user of the
    /// recycled allocation.
    #[test]
    fn recycled_slot_never_leaks_a_stale_value() {
        let pool = OneshotPool::new(2);
        let (tx, rx) = pool.channel();
        tx.send(7u8);
        drop(rx); // value never taken; slot reset on recycle
        let (_tx, mut rx) = pool.channel();
        assert_eq!(pool.stats().hits, 1, "allocation was recycled");
        assert!(rx.try_recv().is_none(), "stale value must be gone");
    }

    /// Pooled channels work across threads like unpooled ones.
    #[test]
    fn pooled_channel_crosses_threads() {
        let pool = OneshotPool::new(8);
        for round in 0..8u64 {
            let (tx, rx) = pool.channel();
            let j = std::thread::spawn(move || rx.wait());
            tx.send(round);
            assert_eq!(j.join().unwrap(), Ok(round));
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert!(s.hits >= 6, "steady state must mostly hit, got {s:?}");
    }

    /// Cancel races complete on a pooled channel: a producer thread sends
    /// or drops each sender while this thread waits on or drops the
    /// receiver. `wait` sees the value exactly when it was sent and
    /// `Canceled` exactly when it was not, every pair is one pool get, and
    /// whatever the last half out recycles comes back empty.
    #[test]
    fn pooled_cancel_races_complete_across_threads() {
        const ROUNDS: u64 = 20_000;
        let pool = OneshotPool::new(4);
        let (handoff, senders) = std::sync::mpsc::channel::<(Sender<u64>, bool)>();
        std::thread::scope(|s| {
            s.spawn(move || {
                for (tx, send) in senders {
                    if send {
                        tx.send(7);
                    }
                }
            });
            for round in 0..ROUNDS {
                let (send, wait) = (round & 1 == 0, round & 2 == 0);
                let (tx, mut rx) = pool.channel();
                assert!(rx.try_recv().is_none(), "round {round}: stale slot");
                handoff.send((tx, send)).unwrap();
                if wait {
                    let want = if send { Ok(7) } else { Err(Canceled) };
                    assert_eq!(rx.wait(), want, "round {round}");
                }
            }
            drop(handoff);
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, ROUNDS);
    }
}
