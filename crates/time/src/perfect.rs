//! Perfectly synchronized real-time clocks (§3.1, Algorithm 4).
//!
//! Each thread `p` has access to a local clock `Cp`; the clocks are perfectly
//! synchronized when `Cp(t) = t` for all threads at all real times `t`.
//! Reading such a clock is linearizable and contention-free — this is the
//! ideal time base the paper argues hardware should provide.
//!
//! On Linux, `CLOCK_MONOTONIC` (what [`std::time::Instant`] reads, via vDSO,
//! in ~20–30 ns without any shared-memory traffic) is globally coherent
//! across CPUs, so it *is* a perfectly synchronized clock for our purposes:
//! if thread A's read happens-before thread B's read, B observes a value
//! `≥` A's. [`PerfectClock`] exposes it at full nanosecond resolution.
//!
//! [`SyncClock`] is the crate's one real-time runtime: Algorithm 4's
//! `getTime`/`getNewTS` over a tick, a read latency, an offset from real
//! time and a [`Stamp`] that shapes the timestamp. The three real-time bases
//! only say which clock a thread gets: [`PerfectClock`] a 1 ns tick with free
//! reads, [`crate::hardware::HardwareClock`] the MMTimer's 50 ns tick and
//! 375 ns read (§4.1), and [`crate::external::ExternalClock`] a 1 ns tick
//! offset by `±dev` and stamped `(ts, cid, dev)` (§3.2, Algorithm 5).

use crate::base::{
    monotonic_ns, spin_for_ns, ContentionClass, ThreadClock, TimeBase, TimeBaseInfo, Uniqueness,
};
use crate::timestamp::Timestamp;

/// A perfectly synchronized real-time clock at nanosecond resolution
/// (Algorithm 4 of the paper).
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfectClock;

impl PerfectClock {
    /// Create the clock (stateless; all threads read the same global time).
    pub fn new() -> Self {
        PerfectClock
    }
}

impl TimeBase for PerfectClock {
    type Ts = u64;
    type Clock = SyncClock;

    fn register_thread(&self) -> SyncClock {
        SyncClock::new(1, 0, 0, ())
    }

    fn info(&self) -> TimeBaseInfo {
        TimeBaseInfo {
            name: "perfect-clock",
            // Two threads reading in the same nanosecond draw equal values.
            uniqueness: Uniqueness::BestEffort,
            contention: ContentionClass::LocalRead,
            commit_monotonic: true,
        }
    }
}

/// How a [`SyncClock`] turns a reading into a timestamp: the bare `u64` for
/// the perfect clock and the MMTimer (`()`), the `(ts, cid, dev)` triple for
/// an externally synchronized clock
/// ([`crate::external::Deviation`]).
pub trait Stamp: Clone + Send + 'static {
    /// The timestamp type handed out.
    type Ts: Timestamp;
    /// The timestamp of clock reading `reading`.
    fn stamp(&self, reading: u64) -> Self::Ts;
    /// Whether the timestamp algebra already keeps a commit time apart from
    /// every earlier reading (deviation slack, §3.2), so `getNewTS` need not
    /// wait for the clock to pass its entry reading.
    fn masks_commit(&self) -> bool;
}

impl Stamp for () {
    type Ts = u64;

    #[inline]
    fn stamp(&self, reading: u64) -> u64 {
        reading
    }

    #[inline]
    fn masks_commit(&self) -> bool {
        false
    }
}

/// A thread's synchronized clock `Cp`: the globally coherent monotonic
/// clock shifted by `offset_ns`, quantized to `tick_ns` and paying
/// `read_latency_ns` per read. The perfect clock, the MMTimer and every
/// member of an externally synchronized ensemble are this one handle.
///
/// Carries the thread's high-water mark so that `get_time` is monotonic and
/// `get_new_ts` is strictly increasing even if the underlying clock ticks
/// slower than the read rate (Algorithm 4's busy-waiting loop).
#[derive(Clone, Copy, Debug)]
pub struct SyncClock<S: Stamp = ()> {
    tick_ns: u64,
    read_latency_ns: u64,
    offset_ns: i64,
    last: u64,
    stamp: S,
}

impl<S: Stamp> SyncClock<S> {
    /// A clock ticking every `tick_ns` nanoseconds (at least 1), each read
    /// costing `read_latency_ns`, `offset_ns` away from real time.
    pub(crate) fn new(tick_ns: u64, read_latency_ns: u64, offset_ns: i64, stamp: S) -> Self {
        SyncClock {
            tick_ns,
            read_latency_ns,
            offset_ns,
            last: 0,
            stamp,
        }
    }

    /// The offset of this clock from real time (nanoseconds).
    pub fn offset_ns(&self) -> i64 {
        self.offset_ns
    }

    #[inline]
    fn read(&self) -> u64 {
        // Cp(t) = t + offset: the bounded-deviation model of §3.2 (offset 0
        // is a perfectly synchronized clock). Saturating keeps the reading a
        // valid u64 for extreme negative offsets near the epoch
        // (EPOCH_OFFSET_NS makes this unreachable in practice).
        let t = monotonic_ns().saturating_add_signed(self.offset_ns);
        if self.tick_ns == 1 {
            t
        } else {
            t / self.tick_ns
        }
    }
}

impl<S: Stamp> ThreadClock for SyncClock<S> {
    type Ts = S::Ts;

    #[inline]
    fn get_time(&mut self) -> S::Ts {
        // Algorithm 4: getTime simply reads Cp, after paying the read cost.
        // With latency >= one tick the sample is strictly greater than the
        // previous one, matching the MMTimer's strict monotonicity (§4.1);
        // the max() keeps it monotonic per thread on coarse clocks.
        spin_for_ns(self.read_latency_ns);
        self.last = self.read().max(self.last);
        self.stamp.stamp(self.last)
    }

    #[inline]
    fn get_new_ts(&mut self) -> S::Ts {
        // §3.2: with dev > 0 the uncertainty masking already guarantees that
        // versions are never valid exactly at their commit time, so getNewTS
        // is just getTime.
        if self.stamp.masks_commit() {
            return self.get_time();
        }
        // Algorithm 4 lines 5–11: read the clock at entry, then busy-wait
        // until it has advanced *past the entry reading* (§2.4: getNewTS must
        // return a timestamp strictly larger than the time at which it was
        // invoked — this is what guarantees that a later committer's commit
        // time strictly exceeds any commit time validated earlier). At
        // nanosecond resolution the loop almost never iterates. §4.1: the
        // MMTimer's getNewTS "just returns the value of MMTimer" because a
        // read takes longer than a tick, so its post-latency reading passes
        // the entry at once; the loop only spins for free or sub-tick reads.
        let entry = self.read().max(self.last);
        loop {
            spin_for_ns(self.read_latency_ns);
            let t = self.read();
            if t > entry {
                self.last = t;
                return self.stamp.stamp(t);
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_time_is_monotonic() {
        let tb = PerfectClock::new();
        let mut c = tb.register_thread();
        let mut last = 0;
        for _ in 0..1000 {
            let t = c.get_time();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn get_new_ts_is_strictly_increasing_even_interleaved_with_get_time() {
        let tb = PerfectClock::new();
        let mut c = tb.register_thread();
        let mut last = c.get_time();
        for i in 0..1000 {
            let t = if i % 2 == 0 {
                c.get_new_ts()
            } else {
                c.get_time()
            };
            if i % 2 == 0 {
                assert!(t > last, "getNewTS must be strictly greater");
            } else {
                assert!(t >= last);
            }
            last = last.max(t);
        }
    }

    #[test]
    fn cross_thread_happens_before_is_respected() {
        // Perfect synchronization: a read that happens-after another thread's
        // read observes a greater-or-equal value.
        let tb = PerfectClock::new();
        let mut main = tb.register_thread();
        let t0 = main.get_new_ts();
        let t1 = std::thread::spawn(move || {
            let mut c = tb.register_thread();
            c.get_new_ts()
        })
        .join()
        .unwrap();
        let t2 = main.get_time();
        assert!(t1 > 0);
        assert!(t2 >= t0);
        assert!(t1 >= t0, "spawn edge orders the reads");
        assert!(t2 >= t1, "join edge orders the reads");
    }
}
