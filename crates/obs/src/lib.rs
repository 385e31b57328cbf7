//! **lsa-obs** — observability for the TM serving stack, built around the
//! serving-path lesson that measurement contention destroys the hot path:
//! every instrument here is write-local and pays its aggregation cost only
//! when somebody actually looks.
//!
//! Two subsystems:
//!
//! - [`registry`]: a [`MetricsRegistry`] of named counters, gauges, and
//!   latency histograms. Counters and histograms are backed by cache-padded
//!   per-thread shards; writers touch only their own shard (one relaxed
//!   `fetch_add`, or one uncontended mutex for histograms) and shards are
//!   merged only at scrape time ([`MetricsRegistry::snapshot`]). Gauges are
//!   *sampled* ([`MetricsRegistry::gauge_fn`]): the closure runs only when a
//!   snapshot is taken — queue depths and pool occupancy cost nothing
//!   between scrapes.
//! - [`trace`]: a process-wide flight recorder — fixed-size per-thread rings
//!   of compact transaction lifecycle events (begin, extend/validate, abort
//!   with its [`AbortClass`]-style reason, commit, commit-ts arbitration
//!   outcome, enqueue/dequeue/shed) with configurable sampling
//!   (`off` → 1-in-N → `all`, `LSA_TRACE`). Recording a sampled event is
//!   two relaxed atomic stores into the thread's own ring; unsampled
//!   transactions pay one TLS flag check per event site.
//!
//! [`LatencyHistogram`] (HDR-style bucketed, ≲3% relative quantization
//! error) lives here so every layer — service workers, wire lanes, the
//! registry — shares one latency type; `lsa-service` re-exports it for
//! compatibility.
//!
//! [`AbortClass`]: trace::TraceEvent

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod histogram;
pub mod registry;
pub mod trace;

pub use histogram::LatencyHistogram;
pub use registry::{Counter, Histogram, MetricsRegistry, Snapshot};
