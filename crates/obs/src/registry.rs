//! Sharded metrics registry: named counters, gauges, and latency
//! histograms whose hot path is write-local and whose aggregation cost is
//! paid only at scrape time.
//!
//! # Why shards, and why merge at scrape
//!
//! A "global counter" instrumented naively is a contended `fetch_add` on
//! one cache line — exactly the shared-RMW pattern whose cost the paper's
//! time-base analysis (and this repo's serving-path work) is about
//! removing. The registry instead gives every counter and histogram a
//! small array of cache-padded shards; a writer indexes by its *thread*
//! (a process-wide monotone thread index, modulo the shard count), so on
//! the steady-state worker pool each shard has exactly one writer and a
//! `Relaxed` `fetch_add` never bounces a line. Readers pay instead:
//! [`MetricsRegistry::snapshot`] sums shards, locks each histogram shard
//! in turn, and runs the sampled-gauge closures — all costs that scale
//! with scrape *rate*, which is Hz, not with request rate, which is MHz.
//!
//! # Memory ordering
//!
//! All counter traffic is `Relaxed`: a snapshot is a *statistical* view,
//! not a synchronization point. A scrape that races a writer may miss the
//! writer's latest increments (they are observed by the next scrape — no
//! increment is ever lost, shards are append-only accumulators) and may
//! see metric A ahead of metric B even if B was incremented first. That
//! is the documented contract; anything needing cross-metric consistency
//! (e.g. `submitted == completed + shed` exactly) must quiesce first,
//! which is what the service's shutdown path does before its final report.
//!
//! # Gauges
//!
//! Every gauge is sampled ([`MetricsRegistry::gauge_fn`]): nothing is
//! maintained between scrapes, the closure reads live structures (queue
//! depth, pool occupancy, in-flight windows) only when a snapshot runs, so
//! a gauge costs the hot path nothing at all.
//! Closures must therefore capture [`Weak`] references to the structures
//! they sample, both to avoid keeping torn-down services alive and to
//! break the `Arc` cycle registry ↔ owner; a dead sampler reports 0.
//! Sampled counters ([`MetricsRegistry::counter_fn`]) are the same idea for
//! monotone counts kept elsewhere — the engine handles' statistics shards —
//! and appear among the counters.

use crate::histogram::LatencyHistogram;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Process-wide monotone thread index used to pick a shard. Not reused
/// after thread exit — shards are accumulators, a stale shard just stops
/// growing.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_IX: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Shards per instrument: enough that the service's worker pool plus the
/// wire's reader/writer threads rarely collide, capped so a registry full
/// of counters stays small (each shard is one padded cache line).
fn shard_count() -> usize {
    static SHARDS: OnceLock<usize> = OnceLock::new();
    *SHARDS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
            .next_power_of_two()
            .clamp(1, 64)
    })
}

fn my_shard(n: usize) -> usize {
    THREAD_IX.with(|&ix| ix & (n - 1))
}

struct CounterInner {
    name: Arc<str>,
    shards: Box<[CachePadded<AtomicU64>]>,
}

/// Handle to a named monotone counter. Cloning is cheap (`Arc`); `add` is
/// one `Relaxed` `fetch_add` on the calling thread's own shard.
#[derive(Clone)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    fn new(name: &str) -> Self {
        let shards = (0..shard_count())
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        Counter(Arc::new(CounterInner {
            name: name.into(),
            shards,
        }))
    }

    /// Add `n` to the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        let shards = &self.0.shards;
        shards[my_shard(shards.len())].fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Sum of all shards — the scrape-side read.
    pub fn value(&self) -> u64 {
        self.0
            .shards
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum()
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }
}

struct HistInner {
    name: Arc<str>,
    shards: Box<[CachePadded<Mutex<LatencyHistogram>>]>,
}

/// Handle to a named sharded latency histogram: `record_ns` locks only the
/// calling thread's shard (uncontended on a steady worker pool), the full
/// distribution exists only after [`Histogram::merged`] at scrape time.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    fn new(name: &str) -> Self {
        let shards = (0..shard_count())
            .map(|_| CachePadded::new(Mutex::new(LatencyHistogram::new())))
            .collect();
        Histogram(Arc::new(HistInner {
            name: name.into(),
            shards,
        }))
    }

    /// Record one latency in nanoseconds into the thread's shard.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let shards = &self.0.shards;
        shards[my_shard(shards.len())]
            .lock()
            .expect("histogram shard poisoned")
            .record_ns(ns);
    }

    /// Record one latency as a [`Duration`] (saturating at `u64::MAX` ns).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Merge all shards into one histogram — the scrape-side read.
    pub fn merged(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for shard in self.0.shards.iter() {
            out.merge(&shard.lock().expect("histogram shard poisoned"));
        }
        out
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.0.name
    }
}

struct Sampler<V> {
    name: Arc<str>,
    f: Box<dyn Fn() -> V + Send + Sync>,
}

/// Register or replace the sampler `name` in `v`.
fn put_sampler<V>(v: &Mutex<Vec<Sampler<V>>>, name: &str, f: Box<dyn Fn() -> V + Send + Sync>) {
    let mut v = v.lock().expect("registry poisoned");
    let s = Sampler {
        name: name.into(),
        f,
    };
    match v.iter_mut().find(|s| &*s.name == name) {
        Some(slot) => *slot = s,
        None => v.push(s),
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<Vec<Counter>>,
    counter_samplers: Mutex<Vec<Sampler<u64>>>,
    samplers: Mutex<Vec<Sampler<i64>>>,
    hists: Mutex<Vec<Histogram>>,
}

/// A namespace of instruments. Cloning shares the underlying registry;
/// each service/server instance owns one (instruments are per-instance,
/// not process-global, so parallel benches and tests never cross-talk).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`. Idempotent: a second call with
    /// the same name returns a handle to the same counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut v = self.inner.counters.lock().expect("registry poisoned");
        if let Some(c) = v.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        let c = Counter::new(name);
        v.push(c.clone());
        c
    }

    /// Register (or replace) a sampled gauge: `f` runs only when a
    /// snapshot is taken. `f` must capture [`std::sync::Weak`] references
    /// to whatever it samples and report 0 when the owner is gone — a
    /// sampler must never keep a torn-down service alive.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        put_sampler(&self.inner.samplers, name, Box::new(f));
    }

    /// Register (or replace) a sampled counter: `f` reads a monotone count
    /// kept elsewhere, only when a snapshot is taken, and the value is
    /// reported among the counters. Use a name no [`counter`](Self::counter)
    /// has.
    pub fn counter_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        put_sampler(&self.inner.counter_samplers, name, Box::new(f));
    }

    /// Get or create the sharded histogram `name` (idempotent).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut v = self.inner.hists.lock().expect("registry poisoned");
        if let Some(h) = v.iter().find(|h| h.name() == name) {
            return h.clone();
        }
        let h = Histogram::new(name);
        v.push(h.clone());
        h
    }

    /// Merge every instrument into a point-in-time [`Snapshot`]
    /// (statistically consistent only — see the module docs).
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self
            .inner
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|c| (c.name().to_string(), c.value()))
            .collect();
        counters.extend(
            self.inner
                .counter_samplers
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|s| (s.name.to_string(), (s.f)())),
        );
        let mut gauges: Vec<(String, i64)> = self
            .inner
            .samplers
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|s| (s.name.to_string(), (s.f)()))
            .collect();
        let mut histograms: Vec<(String, LatencyHistogram)> = self
            .inner
            .hists
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|h| (h.name().to_string(), h.merged()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Shorthand: snapshot and render as JSON.
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// A merged point-in-time view of every instrument in a registry, sorted
/// by name within each kind.
pub struct Snapshot {
    /// `(name, summed value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every sampled gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, merged histogram)` for every histogram.
    pub histograms: Vec<(String, LatencyHistogram)>,
}

impl Snapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Merged histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render as a self-contained JSON document:
    ///
    /// ```json
    /// {"counters":{"engine.commits":42, ...},
    ///  "gauges":{"service.queue_depth":0, ...},
    ///  "histograms":{"service.latency_ns":{"count":42,"mean_ns":..,
    ///     "max_ns":..,"p50_ns":..,"p90_ns":..,"p99_ns":..,"p999_ns":..,
    ///     "buckets":[[upper_bound_ns,count], ...]}}}
    /// ```
    ///
    /// Histograms ship their full sparse bucket array
    /// ([`LatencyHistogram::buckets`]), so a scraper can recompute any
    /// quantile, not just the point quantiles included for convenience.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", esc(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", esc(name)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean_ns\":{:.1},\"max_ns\":{},\
                 \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\
                 \"buckets\":[",
                esc(name),
                h.count(),
                h.mean_ns(),
                h.max_ns(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
            ));
            for (j, (ub, c)) in h.buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{ub},{c}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Minimal JSON string escaping (instrument names are ASCII identifiers in
/// practice, but the snapshot must stay well-formed for any input).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    #[test]
    fn counters_shard_and_sum() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("test.ops");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
        assert_eq!(reg.snapshot().counter("test.ops"), Some(80_000));
    }

    #[test]
    fn handles_are_idempotent_per_name() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(3);
        reg.counter("a").add(4);
        assert_eq!(reg.counter("a").value(), 7);
        reg.gauge_fn("g", || 8);
        reg.gauge_fn("g", || 9);
        assert_eq!(reg.snapshot().gauge("g"), Some(9));
        reg.histogram("h").record_ns(5);
        reg.histogram("h").record_ns(6);
        assert_eq!(reg.histogram("h").merged().count(), 2);
    }

    #[test]
    fn sampled_gauges_run_at_snapshot_and_survive_owner_death() {
        let reg = MetricsRegistry::new();
        let owner = Arc::new(AtomicI64::new(17));
        let weak = Arc::downgrade(&owner);
        reg.gauge_fn("live.depth", move || {
            weak.upgrade()
                .map(|o| o.load(Ordering::Relaxed))
                .unwrap_or(0)
        });
        assert_eq!(reg.snapshot().gauge("live.depth"), Some(17));
        owner.store(23, Ordering::Relaxed);
        assert_eq!(reg.snapshot().gauge("live.depth"), Some(23));
        drop(owner);
        assert_eq!(reg.snapshot().gauge("live.depth"), Some(0));
    }

    #[test]
    fn sampled_counters_are_counters() {
        let reg = MetricsRegistry::new();
        let kept = Arc::new(AtomicU64::new(5));
        let src = Arc::clone(&kept);
        reg.counter_fn("kept.count", move || src.load(Ordering::Relaxed));
        kept.store(8, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kept.count"), Some(8));
        assert_eq!(snap.gauge("kept.count"), None);
    }

    #[test]
    fn histograms_merge_across_threads() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record_ns((t * 1000 + i) * 100);
                    }
                });
            }
        });
        let m = h.merged();
        assert_eq!(m.count(), 4000);
        assert_eq!(m.max_ns(), 3999 * 100);
    }

    #[test]
    fn snapshot_json_is_well_formed_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").add(2);
        reg.counter("a.count").add(1);
        reg.gauge_fn("z.gauge", || -5);
        reg.histogram("lat").record_ns(100);
        let json = reg.snapshot_json();
        assert!(json.starts_with("{\"counters\":{"));
        // Sorted: a.count before b.count.
        let a = json.find("\"a.count\":1").expect("a.count");
        let b = json.find("\"b.count\":2").expect("b.count");
        assert!(a < b);
        assert!(json.contains("\"z.gauge\":-5"));
        assert!(json.contains("\"lat\":{\"count\":1"));
        assert!(json.contains("\"buckets\":[["));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(esc("plain.name"), "plain.name");
        assert_eq!(esc("q\"uote\\s"), "q\\\"uote\\\\s");
        assert_eq!(esc("tab\there"), "tab\\u0009here");
    }
}
