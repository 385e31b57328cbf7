//! A simulated *MMTimer*: the synchronized hardware clock of the SGI Altix
//! used in the paper's case study (§4.1).
//!
//! The MMTimer is a real-time clock ticking at 20 MHz whose read always takes
//! 7–8 of its own ticks, so the effective granularity is coarser than the
//! nominal frequency and the returned values are *strictly* monotonic: both
//! `getTime` and `getNewTS` can simply return the current register value
//! (§4.1). It is synchronized across all nodes of the machine by a dedicated
//! clock-distribution network, i.e. it behaves as a linearizable perfectly
//! synchronized clock.
//!
//! [`HardwareClock`] reproduces those properties on a commodity host with the
//! one real-time runtime, [`SyncClock`]: readings are the globally coherent
//! monotonic clock quantized to a configurable tick frequency, and each read
//! optionally *pays* the modeled read latency by spinning (the CPU of the
//! modeled machine is stalled on an uncached register read for that long —
//! see DESIGN.md §3 for the substitution argument).

use crate::base::{ContentionClass, TimeBase, TimeBaseInfo, Uniqueness};
use crate::perfect::SyncClock;

/// Nominal MMTimer frequency on the SGI Altix 3700: 20 MHz.
pub const MMTIMER_FREQ_HZ: u64 = 20_000_000;

/// Modeled MMTimer read latency: 7.5 ticks at 20 MHz = 375 ns (the paper
/// reports "7 to 8 ticks").
pub const MMTIMER_READ_LATENCY_NS: u64 = 375;

/// A simulated synchronized hardware clock (MMTimer-like): each thread gets
/// a [`SyncClock`] with this tick period and read latency.
#[derive(Clone, Copy, Debug)]
pub struct HardwareClock {
    /// Tick period in nanoseconds (`1e9 / frequency`).
    period_ns: u64,
    /// Emulated cost of one read, in nanoseconds (0 = free reads).
    read_latency_ns: u64,
}

impl HardwareClock {
    /// A clock with the given tick frequency and per-read latency.
    ///
    /// # Panics
    /// Panics if `freq_hz` is 0 or above 1 GHz (the underlying source has
    /// nanosecond resolution).
    pub fn new(freq_hz: u64, read_latency_ns: u64) -> Self {
        assert!(freq_hz > 0 && freq_hz <= 1_000_000_000, "freq out of range");
        HardwareClock {
            period_ns: 1_000_000_000 / freq_hz,
            read_latency_ns,
        }
    }

    /// The paper's MMTimer: 20 MHz, reads cost 7.5 ticks (375 ns).
    pub fn mmtimer() -> Self {
        Self::new(MMTIMER_FREQ_HZ, MMTIMER_READ_LATENCY_NS)
    }

    /// An MMTimer-frequency clock with *free* reads, for tests and for
    /// separating quantization effects from latency effects in benchmarks.
    pub fn mmtimer_free() -> Self {
        Self::new(MMTIMER_FREQ_HZ, 0)
    }
}

impl TimeBase for HardwareClock {
    type Ts = u64;
    type Clock = SyncClock;

    fn register_thread(&self) -> SyncClock {
        SyncClock::new(self.period_ns, self.read_latency_ns, 0, ())
    }

    fn info(&self) -> TimeBaseInfo {
        TimeBaseInfo {
            name: "mmtimer",
            // Ticks are coarse (50 ns at 20 MHz): concurrent reads collide.
            uniqueness: Uniqueness::BestEffort,
            block_uniqueness: Uniqueness::BestEffort,
            contention: ContentionClass::LocalRead,
            commit_monotonic: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{spin_for_ns, ThreadClock};
    use std::time::Instant;

    #[test]
    fn quantizes_to_tick_period() {
        let hw = HardwareClock::new(1_000_000, 0); // 1 MHz -> 1 µs ticks
        let mut c = hw.register_thread();
        let t0 = c.get_time();
        spin_for_ns(5_000);
        let t1 = c.get_time();
        // 5 µs elapsed => roughly 5 ticks; definitely between 3 and 1000.
        assert!(t1 > t0);
        assert!(t1 - t0 >= 3, "at least ~5 ticks expected, got {}", t1 - t0);
    }

    #[test]
    fn mmtimer_reads_are_strictly_monotonic() {
        let hw = HardwareClock::mmtimer();
        let mut c = hw.register_thread();
        let mut last = c.get_time();
        for _ in 0..50 {
            let t = c.get_time();
            assert!(t > last, "read latency > tick period implies strictness");
            last = t;
        }
    }

    #[test]
    fn mmtimer_read_costs_modeled_latency() {
        let hw = HardwareClock::mmtimer();
        let mut c = hw.register_thread();
        let start = Instant::now();
        let n = 200;
        for _ in 0..n {
            c.get_time();
        }
        let per_read = start.elapsed().as_nanos() as u64 / n;
        assert!(
            per_read >= MMTIMER_READ_LATENCY_NS,
            "each read must cost at least the modeled {MMTIMER_READ_LATENCY_NS} ns, got {per_read}"
        );
    }

    #[test]
    fn get_new_ts_strictly_increases_even_with_free_reads() {
        let hw = HardwareClock::mmtimer_free();
        let mut c = hw.register_thread();
        let mut last = c.get_new_ts();
        for _ in 0..1000 {
            let t = c.get_new_ts();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn cross_thread_coherence() {
        let hw = HardwareClock::mmtimer_free();
        let mut main = hw.register_thread();
        let t0 = main.get_new_ts();
        let t1 = std::thread::spawn(move || {
            let mut c = hw.register_thread();
            c.get_time()
        })
        .join()
        .unwrap();
        assert!(t1 >= t0, "happens-before implies clock order");
    }
}
