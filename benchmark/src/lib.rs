//! # lsa-benchmark — the repo benchmark
//!
//! Four seeded workloads through the stack's public API (`lsa-time` →
//! `lsa-stm` → `lsa-service` → `lsa-wire`, observed through `lsa-obs`),
//! six end-to-end metrics every workload reports, and a per-layer budget
//! timed from outside. `README.md` beside this crate's manifest has the
//! workload table, the metric glossary and the layer → end-to-end map;
//! `BENCHMARK.json` at the repo root is the contract a driver runs it by.

pub mod compare;
pub mod engine_wl;
pub mod gen;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod wire_wl;
