//! # lsa-harness — experiment harness reproducing the SPAA'07 evaluation
//!
//! Six binaries (DESIGN.md §4 experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1` | Figure 1 — clock synchronization errors and offsets |
//! | `fig2` | Figure 2 on the modeled Altix — throughput vs threads, counter vs MMTimer (10/50/100 accesses) |
//! | `timebase_overhead` | §4.2 raw time-base costs (EXP-TB) |
//! | `paper_check` | one PASS/FAIL line per qualitative claim (CI smoke test) |
//! | `matrix` | every registry-cell sweep: workload × engine × time base × size × threads from the [`registry`] ([`args::MatrixArgs`]); `--dev` is §4.3's sync-error sweep (EXP-ERR), `scan --size` §1's validation cost (EXP-VAL) and `disjoint --size` Figure 2 on real threads |
//! | `open_loop` | open-loop request-rate sweep of the serving path, in process (`lsa-service`) and over loopback TCP (`lsa-wire`), with the saturation-knee locator |
//!
//! Shared infrastructure: [`runner`] (thread orchestration and throughput),
//! [`registry`] (the engine × time-base matrix, engine-generic via
//! [`lsa_engine::TxnEngine`], and [`TablesWorker`], which runs the served
//! request mixes closed-loop in process), [`open_loop`] (open-loop load generation of
//! `lsa_wire::Request`s over either transport: arrival-rate scheduling,
//! latency percentiles, shed and audit accounting, the knee locator),
//! [`args`] (the shared `N`/`A..B` sweep-range syntax and the `matrix`
//! command line),
//! [`table`] (text/CSV output), [`json`] (the one JSON emitter behind every
//! `BENCH_*.json` artifact), [`altix_sim`]
//! (the discrete-event model of the paper's 16-CPU ccNUMA testbed — the
//! documented substitution for hardware this reproduction does not have).
//!
//! Every binary honours `LSA_MEASURE_MS` (per-point measurement window) and
//! `LSA_CSV=1` (machine-readable output).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod altix_sim;
pub mod args;
pub mod json;
pub mod open_loop;
pub mod registry;
pub mod runner;
pub mod table;

// Closed-loop tests of the four served kinds, one module per kind.
#[cfg(test)]
#[path = "kind_tests/bank.rs"]
mod bank;
#[cfg(test)]
#[path = "kind_tests/hashset.rs"]
mod hashset;
#[cfg(test)]
#[path = "kind_tests/intset_list.rs"]
mod intset_list;
#[cfg(test)]
#[path = "kind_tests/snapshot.rs"]
mod snapshot;

pub use altix_sim::{simulate, AltixParams, SimPoint, SimTimeBase};
pub use args::RangeSpec;
pub use json::Json;
pub use open_loop::{knee_index, run_open_loop, Kind, KneePoint, Outcome, Spec, Transport};
pub use registry::{default_registry, run_workload, EngineEntry, TablesWorker, Workload};
pub use runner::{measure_window, run_for, run_steps, BenchWorker, RunOutcome};
pub use table::{f2, f3, Table};
