//! A ccNUMA interconnect cost model for the shared-counter time base.
//!
//! The paper's case study runs on a 16-CPU partition of an SGI Altix 3700, a
//! ccNUMA machine on which transferring the counter's cache line between
//! processors costs several hundred nanoseconds. On a small commodity host
//! the *algorithmic* contention is identical but the *cost* of a line
//! transfer is tens of nanoseconds, which hides the bottleneck the paper
//! demonstrates.
//!
//! [`NumaCounter`] makes the cost explicit: it is the shared counter's
//! `fetch_add` rule with a priced marker ([`NumaFetchAdd`]), so the one
//! counter runtime ([`crate::counter::Counter`]) charges every access to
//! the counter's line that misses in the (modeled) local cache with a
//! configurable remote-transfer latency, following an invalidation-based
//! (MESI-like) protocol:
//!
//! * every write (timestamp acquisition) invalidates all remote copies, so a
//!   subsequent access by any *other* thread pays [`NumaModel::remote_ns`];
//! * repeated accesses by the same thread with no intervening remote write
//!   hit the local cache and pay only [`NumaModel::local_ns`].
//!
//! The model intentionally charges the latency by *spinning* — on the modeled
//! machine the CPU is stalled on the uncached access for that long, and a
//! stalled CPU cannot run other transactions, which is exactly the effect
//! that limits throughput in Figure 2. See DESIGN.md §3 for the substitution
//! argument, and `lsa_harness::altix_sim` for the discrete-event model that
//! reproduces the 16-CPU curves exactly; it prices the line from the same
//! [`NumaModel::altix`].

use crate::counter::{Arbitration, Counter, Rule, DEFAULT_TS_BLOCK};

/// Latency parameters of the modeled ccNUMA interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NumaModel {
    /// Cost (ns) of an access that must fetch the counter's cache line from
    /// a remote node (read miss or read-for-ownership).
    pub remote_ns: u64,
    /// Cost (ns) of an access that hits the local cache.
    pub local_ns: u64,
}

impl NumaModel {
    /// The paper's Altix 3700: ~330 ns per remote transfer of the counter
    /// line, ~5 ns per local hit. 330 ns is calibrated from the paper's
    /// plateau of ~1.5 M tx/s for short transactions on 16 CPUs, where each
    /// transaction makes two serialized counter accesses (DESIGN.md §3).
    pub fn altix() -> Self {
        NumaModel {
            remote_ns: 330,
            local_ns: 5,
        }
    }

    /// A free interconnect (turns [`NumaCounter`] into a plain
    /// [`crate::counter::SharedCounter`] with extra bookkeeping) — for tests.
    pub fn free() -> Self {
        NumaModel {
            remote_ns: 0,
            local_ns: 0,
        }
    }
}

/// Marker for [`Rule::FetchAdd`] with every access to the counter line
/// priced by the counter's [`NumaModel`].
#[derive(Clone, Copy, Debug)]
pub struct NumaFetchAdd;

impl Arbitration for NumaFetchAdd {
    const RULE: Rule = Rule::FetchAdd;
    const PRICED: bool = true;
}

/// A shared integer counter behind the [`NumaModel`] cost model.
pub type NumaCounter = Counter<NumaFetchAdd>;

impl NumaCounter {
    /// A counter starting at 1 with the given interconnect model.
    pub fn new(model: NumaModel) -> Self {
        Counter::with(DEFAULT_TS_BLOCK, model)
    }

    /// The interconnect model in use.
    pub fn model(&self) -> NumaModel {
        self.s.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::{ThreadClock, TimeBase};
    use std::time::Instant;

    #[test]
    fn behaves_like_a_counter() {
        let tb = NumaCounter::new(NumaModel::free());
        let mut c = tb.register_thread();
        let t0 = c.get_time();
        let t1 = c.get_new_ts();
        assert!(t1 > t0);
        assert_eq!(c.get_time(), t1);
    }

    #[test]
    fn single_thread_pays_remote_only_once() {
        let model = NumaModel {
            remote_ns: 50_000,
            local_ns: 0,
        };
        let tb = NumaCounter::new(model);
        let mut c = tb.register_thread();
        c.get_new_ts(); // first access: one RFO miss
        let start = Instant::now();
        for _ in 0..100 {
            c.get_new_ts(); // owner stays us: all local
            c.get_time(); // line version cached: all local
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        assert!(
            elapsed < model.remote_ns * 20,
            "200 local accesses must not pay remote latency (took {elapsed} ns)"
        );
        assert_eq!(c.remote_misses(), 1);
    }

    #[test]
    fn alternating_writers_pay_remote_every_time() {
        let model = NumaModel {
            remote_ns: 10_000,
            local_ns: 0,
        };
        let tb = NumaCounter::new(model);
        let mut a = tb.register_thread();
        let mut b = tb.register_thread();
        for _ in 0..10 {
            a.get_new_ts();
            b.get_new_ts();
        }
        assert_eq!(a.remote_misses(), 10);
        assert_eq!(b.remote_misses(), 10);
    }

    #[test]
    fn reader_misses_after_every_remote_write() {
        let model = NumaModel {
            remote_ns: 1_000,
            local_ns: 0,
        };
        let tb = NumaCounter::new(model);
        let mut writer = tb.register_thread();
        let mut reader = tb.register_thread();
        reader.get_time(); // initial miss
        let base = reader.remote_misses();
        for i in 0..5 {
            writer.get_new_ts();
            reader.get_time();
            assert_eq!(reader.remote_misses(), base + i + 1);
            reader.get_time(); // second read hits
            assert_eq!(reader.remote_misses(), base + i + 1);
        }
    }

    #[test]
    fn timestamps_unique_under_concurrency() {
        let tb = NumaCounter::new(NumaModel::free());
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut c = tb.register_thread();
                    s.spawn(move || (0..5_000).map(|_| c.get_new_ts()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * 5_000);
    }
}
