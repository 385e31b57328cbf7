//! # lsa-rt — Time-based Transactional Memory with Scalable Time Bases
//!
//! A from-scratch Rust reproduction of the SPAA'07 paper by Riegel, Fetzer
//! and Felber: the **LSA-RT** software transactional memory — a multi-version
//! STM whose consistency reasoning is decoupled from its *time base*, so the
//! classical global commit counter can be replaced by scalable real-time
//! clocks (perfectly synchronized, or externally synchronized with bounded
//! deviation).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`engine`] ([`lsa_engine`]) — the [`TxnEngine`](lsa_engine::TxnEngine)
//!   trait family: one abstraction over every STM engine here, so workloads
//!   and experiments run on any engine × time-base combination,
//! * [`time`] ([`lsa_time`]) — timestamp algebra (Alg. 1/4/5), the
//!   commit-arbitration protocol (`acquire_commit_ts`, GV4/GV5 timestamp
//!   sharing, batched blocks) and every time base: shared counter, GV4/GV5
//!   counters, block counter, perfect clock, simulated MMTimer, externally
//!   synchronized clocks, ccNUMA-modeled counter, plus the Figure 1
//!   measurement machinery and a software clock-sync simulator,
//! * [`stm`] ([`lsa_stm`]) — the LSA-RT algorithm (Alg. 2/3): multi-version
//!   objects, visible writes, lazy snapshot extension, two-phase commit with
//!   helping, one built-in write-write conflict policy,
//! * [`baseline`] ([`lsa_baseline`]) — TL2-style, validation-based and NOrec
//!   comparator STMs (§1.2): three protocols over one runtime behind the
//!   same `TxnEngine` surface,
//! * [`workloads`] ([`lsa_workloads`]) — the §4.2 disjoint-update and §1
//!   scan workloads, the linked-list and hash-set structures — all
//!   engine-generic,
//! * [`harness`] ([`lsa_harness`]) — figure-regenerating experiment binaries,
//!   the engine registry driving the `matrix` sweep, the `open_loop`
//!   load generator (in process or over the wire), and the Altix
//!   discrete-event model,
//! * [`service`] ([`lsa_service`]) — the async transaction-service
//!   front-end: a worker pool over any engine with bounded submission
//!   queues, futures-based completions, admission-control shedding and
//!   latency histograms — hand-rolled from `std` (offline build, no tokio).
//!
//! ## Quick start
//!
//! ```
//! use lsa_rt::prelude::*;
//!
//! // LSA-RT on the paper's scalable time base (simulated MMTimer).
//! let stm = Stm::new(HardwareClock::mmtimer_free());
//! let x = stm.new_tvar(0i64);
//! let mut thread = stm.register();
//! thread.atomically(|tx| tx.modify(&x, |v| v + 1));
//! assert_eq!(*x.snapshot_latest(), 1);
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and experiment index, and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use lsa_baseline as baseline;
pub use lsa_engine as engine;
pub use lsa_harness as harness;
pub use lsa_service as service;
pub use lsa_stm as stm;
pub use lsa_time as time;
pub use lsa_workloads as workloads;

/// One-stop imports for applications.
///
/// Includes the engine-abstraction traits ([`TxnEngine`](lsa_engine::TxnEngine),
/// [`EngineHandle`](lsa_engine::EngineHandle), [`TxnOps`](lsa_engine::TxnOps))
/// so engine-generic code works out of the box. Engine-native inherent
/// methods keep taking precedence over the identically named trait methods,
/// so engine-specific code is unaffected.
pub mod prelude {
    pub use lsa_engine::{
        AbortClass, AbortReasons, EngineAbort, EngineHandle, EngineResult, EngineStats, EngineVar,
        TxnEngine, TxnOps,
    };
    pub use lsa_service::{ServiceConfig, SubmitError, TxnService};
    pub use lsa_stm::prelude::*;
    pub use lsa_time::prelude::*;
}
