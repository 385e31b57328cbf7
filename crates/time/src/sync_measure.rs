//! Clock-synchronization measurement (the methodology behind Figure 1).
//!
//! The paper measures the MMTimer's synchronization quality by "having
//! threads on different CPUs read from the MMTimer and comparing the clock
//! value obtained at each CPU with a reference value published by a thread on
//! another CPU" (§4.1). Each comparison yields an *offset estimate* (the
//! estimated difference between the local clock and the reference clock) and
//! an *error* (the largest possible deviation between the estimated offset
//! and the true offset, caused by the unknown communication delay through
//! shared memory).
//!
//! [`measure`] reproduces that experiment for any [`TimeBase`]: one reference
//! thread answers timestamp requests through a shared-memory mailbox; every
//! probe thread performs a Cristian-style exchange
//!
//! ```text
//! t0 = local();  ask reference;  (reference reads R)  t1 = local()
//! offset ≈ R − (t0 + t1)/2,   error = (t1 − t0)/2
//! ```
//!
//! per round and the per-round maxima over all probes are reported — exactly
//! the three series plotted in Figure 1: `max(abs(offset))`, `max(error)`,
//! and `max(error + abs(offset))`.

use crate::base::{ThreadClock, TimeBase};
use crate::timestamp::Timestamp;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a synchronization-error measurement run.
#[derive(Clone, Debug)]
pub struct SyncMeasureConfig {
    /// Number of probe threads (the paper uses one per CPU of the partition).
    pub probes: usize,
    /// Number of measurement rounds (the paper: a 4-hour run with a round
    /// every tenth second; we default to a scaled-down run).
    pub rounds: usize,
    /// Pause between rounds.
    pub round_interval: Duration,
}

impl Default for SyncMeasureConfig {
    fn default() -> Self {
        SyncMeasureConfig {
            probes: 3,
            rounds: 40,
            round_interval: Duration::from_millis(10),
        }
    }
}

/// Per-round maxima over all probes, in the raw units of the measured time
/// base (MMTimer ticks in the paper's Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundResult {
    /// Round index (0-based).
    pub round: usize,
    /// `max(abs(offset))`: largest estimated clock offset of any probe
    /// relative to the reference clock.
    pub max_abs_offset: i64,
    /// `max(error)`: largest possible deviation between estimated and true
    /// offset (half the exchange round-trip, in clock units).
    pub max_error: i64,
    /// `max(error + abs(offset))`: a conservative per-probe bound on the true
    /// offset, maximized over probes (the paper's third curve).
    pub max_err_plus_abs_offset: i64,
}

/// One probe's mailbox: a request sequence number and the reference's reply.
#[derive(Default)]
struct Mailbox {
    request: CachePadded<AtomicU64>,
    reply_seq: CachePadded<AtomicU64>,
    reply_value: CachePadded<AtomicI64>,
}

/// Run the Figure 1 measurement against `tb`.
///
/// Returns one [`RoundResult`] per round. The reference thread and all probe
/// threads are joined before returning.
pub fn measure<B: TimeBase>(tb: &B, cfg: &SyncMeasureConfig) -> Vec<RoundResult> {
    assert!(cfg.probes >= 1, "need at least one probe");
    assert!(cfg.rounds >= 1, "need at least one round");

    let mailboxes: Arc<Vec<Mailbox>> =
        Arc::new((0..cfg.probes).map(|_| Mailbox::default()).collect());
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Reference thread: answer every request with a fresh local reading.
        let ref_boxes = Arc::clone(&mailboxes);
        let ref_stop = Arc::clone(&stop);
        let mut ref_clock = tb.register_thread();
        s.spawn(move || {
            while !ref_stop.load(Ordering::Acquire) {
                for mb in ref_boxes.iter() {
                    let req = mb.request.load(Ordering::Acquire);
                    if req > mb.reply_seq.load(Ordering::Relaxed) {
                        let r = ref_clock.get_time().raw_value() as i64;
                        mb.reply_value.store(r, Ordering::Relaxed);
                        mb.reply_seq.store(req, Ordering::Release);
                    }
                }
                std::hint::spin_loop();
            }
        });

        // Probe threads: one exchange per round.
        let handles: Vec<_> = (0..cfg.probes)
            .map(|p| {
                let boxes = Arc::clone(&mailboxes);
                let mut clock = tb.register_thread();
                let rounds = cfg.rounds;
                let interval = cfg.round_interval;
                s.spawn(move || {
                    let mb = &boxes[p];
                    let mut results = Vec::with_capacity(rounds);
                    for _ in 0..rounds {
                        let t0 = clock.get_time().raw_value() as i64;
                        let seq = mb.request.load(Ordering::Relaxed) + 1;
                        mb.request.store(seq, Ordering::Release);
                        while mb.reply_seq.load(Ordering::Acquire) < seq {
                            std::hint::spin_loop();
                        }
                        let r = mb.reply_value.load(Ordering::Relaxed);
                        let t1 = clock.get_time().raw_value() as i64;
                        // The reference read R happened (in real time) between
                        // our t0 and t1 reads. Midpoint estimate + half-RTT
                        // error bound (rounded up).
                        let offset = r - (t0 + t1) / 2;
                        let error = (t1 - t0 + 1) / 2;
                        results.push((offset, error));
                        std::thread::sleep(interval);
                    }
                    results
                })
            })
            .collect();

        let per_probe: Vec<Vec<(i64, i64)>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Release);

        (0..cfg.rounds)
            .map(|round| {
                let mut max_abs_offset = 0i64;
                let mut max_error = 0i64;
                let mut max_sum = 0i64;
                for probe in &per_probe {
                    let (off, err) = probe[round];
                    max_abs_offset = max_abs_offset.max(off.abs());
                    max_error = max_error.max(err);
                    max_sum = max_sum.max(err + off.abs());
                }
                RoundResult {
                    round,
                    max_abs_offset,
                    max_error,
                    max_err_plus_abs_offset: max_sum,
                }
            })
            .collect()
    })
}

/// Summary statistics over a full measurement run (used by the fig1 binary
/// and EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasureSummary {
    /// Maximum of `max_abs_offset` over all rounds.
    pub worst_abs_offset: i64,
    /// Maximum of `max_error` over all rounds.
    pub worst_error: i64,
    /// Maximum of `max_err_plus_abs_offset` over all rounds — the paper's
    /// "90 ticks seems to be a reasonable estimate for its bound".
    pub bound_estimate: i64,
}

/// Aggregate a run into its headline numbers.
pub fn summarize(rounds: &[RoundResult]) -> MeasureSummary {
    MeasureSummary {
        worst_abs_offset: rounds.iter().map(|r| r.max_abs_offset).max().unwrap_or(0),
        worst_error: rounds.iter().map(|r| r.max_error).max().unwrap_or(0),
        bound_estimate: rounds
            .iter()
            .map(|r| r.max_err_plus_abs_offset)
            .max()
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::external::ExternalClock;
    use crate::hardware::HardwareClock;
    use crate::perfect::PerfectClock;

    fn small_cfg() -> SyncMeasureConfig {
        SyncMeasureConfig {
            probes: 2,
            rounds: 5,
            round_interval: Duration::from_millis(1),
        }
    }

    #[test]
    fn perfect_clock_offsets_within_error() {
        // For a truly synchronized clock the estimated offset can never
        // exceed the error bound (the paper observes exactly this for the
        // MMTimer: "errors are always larger than offsets").
        let rounds = measure(&PerfectClock::new(), &small_cfg());
        assert_eq!(rounds.len(), 5);
        for r in &rounds {
            assert!(
                r.max_abs_offset <= r.max_error,
                "offset {} must be masked by error {}",
                r.max_abs_offset,
                r.max_error
            );
        }
    }

    #[test]
    fn hardware_clock_reports_in_ticks() {
        let rounds = measure(&HardwareClock::mmtimer_free(), &small_cfg());
        let s = summarize(&rounds);
        // Over a 1 ms handshake at 20 MHz the error is bounded by a few
        // thousand ticks even on a heavily loaded box; mostly this checks the
        // plumbing produces sane positive values.
        assert!(s.worst_error >= 0);
        assert!(s.bound_estimate >= s.worst_abs_offset);
    }

    #[test]
    fn injected_offsets_show_up_as_measured_offsets() {
        // Alternating ±10 ms offsets: the reference (cid 0) sits at −10 ms,
        // probes at +10/−10 ms, so the worst measured offset is ≈ 20 ms —
        // far above the µs-scale measurement error.
        let dev = 10_000_000; // 10 ms
        let tb = ExternalClock::new(dev);
        let rounds = measure(&tb, &small_cfg());
        let s = summarize(&rounds);
        assert!(
            s.worst_abs_offset > dev as i64 / 2,
            "injected offsets must dominate: got {}",
            s.worst_abs_offset
        );
    }

    #[test]
    fn summarize_takes_maxima() {
        let rounds = vec![
            RoundResult {
                round: 0,
                max_abs_offset: 3,
                max_error: 9,
                max_err_plus_abs_offset: 12,
            },
            RoundResult {
                round: 1,
                max_abs_offset: 7,
                max_error: 2,
                max_err_plus_abs_offset: 8,
            },
        ];
        let s = summarize(&rounds);
        assert_eq!(s.worst_abs_offset, 7);
        assert_eq!(s.worst_error, 9);
        assert_eq!(s.bound_estimate, 12);
    }
}
