//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repo root states the
//! same lists; `tests/smoke.rs` asserts the two agree, so a metric cannot
//! be added in one place only.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric. `bound` is the share of the baseline median by which
/// an end-to-end metric may worsen before it counts as a regression; it is
/// 0 for per-layer metrics, which are not gated.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "engine_short",
        "in-process, 2 threads on disjoint partitions, 2-var update txns: the time base is the largest fixed share (Fig 2 short case); service and wire are bypassed",
    ),
    (
        "engine_scan",
        "in-process, 2 threads on one table, 90% 256-var read-only scans beside 10% updates: read/validate/extend dominate, the time base vanishes (Fig 2 long case)",
    ),
    (
        "wire_pipelined",
        "closed loop over loopback TCP, 32 outstanding hashset ops: wire and service fixed cost is the whole story, stm and time are bypassed",
    ),
    (
        "wire_open",
        "open loop at 20000 req/s in bursts of 20, bank transfers racing 64-read audits, latency from the due time: a change that buys throughput by delaying replies costs here",
    ),
];

use Better::{Higher, Lower};

/// The gated metrics. Every workload reports every one of them.
pub const END_TO_END: [Def; 5] = [
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("within_limit_frac", "frac", Higher, 0.02),
    e2e("ok_frac", "frac", Higher, 0.001),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The ungated per-layer metrics (layers are the crates), all from the
/// traced run. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Def; 56] = [
    layer("time.get_time_ns", "ns", Lower),
    layer("time.commit_ts_ns", "ns", Lower),
    layer("time.commit_ts_2t_ns", "ns", Lower),
    layer("time.perfect.get_time_ns", "ns", Lower),
    layer("time.perfect.commit_ts_ns", "ns", Lower),
    layer("time.block64.commit_ts_ns", "ns", Lower),
    layer("time.shared_ts_frac", "frac", Lower),
    layer("time.self_ns", "ns", Lower),
    layer("time.share", "frac", Lower),
    layer("stm.txn_ns", "ns", Lower),
    layer("stm.update_txn_ns", "ns", Lower),
    layer("stm.ro_txn_ns", "ns", Lower),
    layer("stm.read_ns", "ns", Lower),
    layer("stm.self_ns", "ns", Lower),
    layer("stm.aborts_per_commit", "ratio", Lower),
    layer("stm.validations_per_commit", "ratio", Lower),
    layer("stm.validated_entries_per_commit", "ratio", Lower),
    layer("stm.versions_live", "count", Lower),
    layer("stm.arena_bytes", "B", Lower),
    layer("stm.watermark_lag", "count", Lower),
    layer("service.pipelined_ns", "ns", Lower),
    layer("service.handoff_ns", "ns", Lower),
    layer("service.submit_ns", "ns", Lower),
    layer("service.queue_push_pop_ns", "ns", Lower),
    layer("service.self_ns", "ns", Lower),
    layer("service.lat_p50_us", "us", Lower),
    layer("service.lat_p99_us", "us", Lower),
    layer("service.shed_frac", "frac", Lower),
    layer("service.queue_depth_mid", "count", Lower),
    layer("service.job_pool_hit_frac", "frac", Higher),
    layer("wire.encode_ns", "ns", Lower),
    layer("wire.decode_ns", "ns", Lower),
    layer("wire.apply_ns", "ns", Lower),
    layer("wire.send_ns", "ns", Lower),
    layer("wire.ping_req_per_s", "1/s", Higher),
    layer("wire.self_ns", "ns", Lower),
    layer("wire.frames_in", "count", Higher),
    layer("wire.frames_out", "count", Higher),
    layer("wire.protocol_errors", "count", Lower),
    layer("wire.buf_pool_hit_frac", "frac", Higher),
    layer("wire.window_in_flight_mid", "count", Lower),
    layer("obs.snapshot_us", "us", Lower),
    layer("obs.scrape_rtt_us", "us", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("client.samples", "count", Higher),
    layer("client.lat_p50_us", "us", Lower),
    layer("client.lat_p99_us", "us", Lower),
    layer("client.lat_p999_us", "us", Lower),
    layer("client.lat_max_us", "us", Lower),
    layer("client.late_frac", "frac", Lower),
    layer("client.late_p99_us", "us", Lower),
    layer("client.offered_per_s", "1/s", Higher),
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.segment_spread", "frac", Lower),
    layer("bench.cpu_us_per_op", "us", Lower),
    layer("bench.spans", "count", Higher),
];

/// Metric values of one run, keyed by a name from one of the lists above.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `name`. Panics on a name in neither list, or on a second
    /// value for the same name: both are bugs in the benchmark itself.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "metric {name} is in neither list"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} was recorded twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Record every `(name, value)` pair.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in pairs {
            self.set(name, value);
        }
    }
}
