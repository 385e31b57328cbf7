//! # lsa-baseline — comparator STMs from the paper's related work (§1.2)
//!
//! Three from-scratch baseline engines used by the evaluation harness:
//!
//! * [`tl2`] — a TL2-style single-version word/object STM with versioned
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
//! Together with `lsa-stm` these engines span the design space the paper
//! surveys: validation-based (per-object versions or values) vs time-based,
//! single- vs multi-version, counter vs real-time clock.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod norec;
mod scratch;
pub mod tl2;
pub mod validation;

pub use norec::{NorecStm, NorecThread, NorecTxn, NorecVar};
pub use tl2::{Tl2Stm, Tl2Thread, Tl2Txn, Tl2Var};
pub use validation::{ValThread, ValTxn, ValVar, ValidationMode, ValidationStm};
