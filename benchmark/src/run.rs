//! What every workload's measured run has in common: the segment plan it
//! is given and the per-segment results it hands back.

use crate::spans::Span;
use crate::stats;
use std::time::{Duration, Instant};

/// Generator threads on the engine workloads, and service workers behind
/// the wire server: fixed at 2 so hosts are comparable.
pub const THREADS: usize = 2;
/// Operations run before the first timed one, so caches, pools and lazily
/// opened connections are warm.
pub const WARMUP_OPS: usize = 20_000;
/// The latency limit of `within_limit_frac`: about one and a half times
/// the p99 (1.25–1.45 ms from the due time) of `wire_open`, the slowest
/// workload, on the reference host.
pub const LIMIT: Duration = Duration::from_millis(2);
/// Spans one run keeps (and writes out); later ones are counted as dropped.
pub const SPAN_CAPACITY: usize = 120_000;

/// One output check: what was checked (with the values seen) and
/// whether it passed.
pub type Check = (String, bool);

/// One stretch of the measured run.
#[derive(Clone, Copy, Debug)]
pub struct SegmentSpec {
    pub dur: Duration,
    /// Record spans during this segment.
    pub traced: bool,
    /// Keep the segment's latency samples after its median is taken.
    pub keep_samples: bool,
    /// Run but report nothing from it (see `runner::LEAD_IN_SHARE`).
    pub lead_in: bool,
}

/// What one generator counted during one segment.
#[derive(Debug)]
pub struct SegAcc {
    pub ok: u64,
    pub failed: u64,
    /// Operations whose latency was taken (all of them, or a sample).
    pub judged: u64,
    /// Judged operations that succeeded within [`LIMIT`].
    pub within: u64,
    /// Open loop: bursts the generator paced, and how many of them left
    /// more than 100 µs after they were due.
    pub paced: u64,
    pub late: u64,
    pub lat_ns: Vec<u32>,
    pub elapsed: Duration,
}

impl SegAcc {
    /// An accumulator with room for `samples` latencies, so recording one
    /// inside the timed region does not allocate.
    pub fn with_capacity(samples: usize) -> Self {
        SegAcc {
            ok: 0,
            failed: 0,
            judged: 0,
            within: 0,
            paced: 0,
            late: 0,
            lat_ns: Vec::with_capacity(samples),
            elapsed: Duration::ZERO,
        }
    }

    /// Judge one operation's latency. A failed operation misses the limit
    /// whatever its latency.
    pub fn judge(&mut self, ok: bool, latency: Duration) {
        self.judged += 1;
        if ok && latency <= LIMIT {
            self.within += 1;
        }
        self.lat_ns
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
    }
}

/// One segment's results over all generators.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub traced: bool,
    pub lead_in: bool,
    /// Operations sent in the segment, failed ones included.
    pub ops: u64,
    pub ops_per_s: f64,
    pub lat_p50_us: f64,
    pub within_limit_frac: f64,
    /// Open loop only: share of bursts that left late. Above 0.02 the
    /// segment says more about a stalled generator than about the server.
    pub late_frac: f64,
}

impl Segment {
    pub fn generator_late(&self) -> bool {
        self.late_frac > 0.02
    }
}

/// Fold the generators' accumulators for one segment (one per generator
/// thread) into a [`Segment`]. The latency samples move into `all_lat` on
/// a traced run, which reports the client's percentiles over the whole
/// run, and are dropped on a timed run, whose memory is being measured.
pub fn fold_segment(spec: SegmentSpec, accs: Vec<SegAcc>, all_lat: &mut Vec<u32>) -> Segment {
    let mut lat: Vec<u32> = Vec::new();
    let (mut rate, mut judged, mut within, mut late, mut paced, mut sent) = (0.0, 0, 0, 0, 0, 0);
    for acc in accs {
        rate += acc.ok as f64 / acc.elapsed.as_secs_f64().max(1e-9);
        judged += acc.judged;
        within += acc.within;
        late += acc.late;
        paced += acc.paced;
        sent += acc.ok + acc.failed;
        lat.extend(acc.lat_ns);
    }
    lat.sort_unstable();
    let seg = Segment {
        traced: spec.traced,
        lead_in: spec.lead_in,
        ops: sent,
        ops_per_s: rate,
        lat_p50_us: stats::p50_us(&lat),
        within_limit_frac: within as f64 / judged.max(1) as f64,
        late_frac: late as f64 / paced.max(1) as f64,
    };
    if spec.keep_samples && !spec.lead_in {
        all_lat.extend(lat);
    }
    seg
}

/// What a workload's run hands back.
#[derive(Debug)]
pub struct RunOut {
    /// When warm-up ended, i.e. when set-up was over.
    pub warm_done: Instant,
    pub segments: Vec<Segment>,
    /// Operations sent, warm-up included; how many were answered
    /// correctly; how many failed.
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Every latency sample of the segments, sorted.
    pub lat_ns: Vec<u32>,
    /// Open loop: how late each burst left, sorted.
    pub late_ns: Vec<u32>,
    /// Open loop: requests offered per second of schedule.
    pub offered_per_s: f64,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    /// `(service.queue_depth, wire.window_in_flight)` sampled mid-run.
    pub mid_gauges: Option<(i64, i64)>,
    /// CPU seconds the process used over the segments (the open-loop
    /// sender's own excluded).
    pub cpu_s: f64,
}
