//! # lsa-baseline — comparator STMs from the paper's related work (§1.2)
//!
//! Three baseline engines used by the evaluation harness, written as three
//! protocols over one runtime:
//!
//! * [`tl2`] — a TL2-style single-version object STM with versioned
//!   write-locks and a global version clock. Generic over the time base, so
//!   the benchmarks can run *TL2-on-counter* against *TL2-on-MMTimer* (the
//!   TL2 paper itself suggested hardware clocks as a counter replacement).
//! * [`validation`] — an RSTM-style invisible-read STM that guarantees
//!   consistency by (re)validating the read set, either on every access
//!   (`O(n)` per access — the costly baseline the paper's introduction
//!   motivates against) or gated by a global commit-counter heuristic.
//! * [`norec`] — a NOrec-style STM: one global sequence lock, a redo log,
//!   and full **value-based** revalidation of the read set whenever the
//!   clock moves — no per-object metadata at all.
//!
//! The engines differ only in how a transaction proves its reads
//! consistent, so that is all each module holds: the snapshot an attempt
//! begins at, the check after each read, and the commit. The rest — one
//! [`Var`], one [`Handle`], one [`Txn`], one retry loop, one [`Abort`] and
//! one impl of each `lsa-engine` trait for [`BaselineStm`] — is the shared
//! runtime. [`Tl2Stm`], [`ValidationStm`] and [`NorecStm`] name its three
//! instances.
//!
//! Together with `lsa-stm` these engines span the design space the paper
//! surveys: validation-based (per-object versions or values) vs time-based,
//! single- vs multi-version, counter vs real-time clock.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod engine;
pub mod norec;
pub mod tl2;
pub mod validation;

pub use engine::{Abort, BaselineStm, Handle, Txn, Var};
pub use norec::NorecStm;
pub use tl2::Tl2Stm;
pub use validation::{ValidationMode, ValidationStm};
