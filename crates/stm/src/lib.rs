//! # lsa-stm — the Real-Time Lazy Snapshot Algorithm (LSA-RT)
//!
//! A multi-version, object-based software transactional memory implementing
//! the SPAA'07 paper ["Time-based Transactional Memory with Scalable Time
//! Bases"][paper] (Riegel, Fetzer, Felber). The STM is *generic over its
//! time base* ([`lsa_time::TimeBase`]): the same algorithm runs on a shared
//! integer counter (classical LSA/TL2), on a perfectly synchronized hardware
//! clock (the paper's MMTimer), or on externally synchronized clocks with
//! bounded deviation — the paper's central contribution.
//!
//! ## Architecture
//!
//! * [`lsa`] — the algorithm itself: snapshot construction, lazy extension,
//!   two-phase commit with helping (Algorithms 2–3),
//! * [`object`] — multi-version objects with visible writes (DSTM-style
//!   writer registration),
//! * [`txn_shared`] — the shared transaction descriptor (status word, commit
//!   time, helper context),
//! * [`version`] — write-once validity-range metadata per version,
//! * [`reclaim`] — minimum-active-snapshot watermarks and the arena-backed
//!   version-node allocator (bounded-memory MVCC, DESIGN.md §11),
//! * [`stm`] — the runtime: [`stm::Stm`], [`stm::ThreadHandle::atomically`],
//! * [`config`], [`error`] — tuning and abort plumbing (statistics are
//!   `lsa_engine::StatsShard`s, read through `lsa_engine::EngineHandle`).
//!
//! ## Quick start
//!
//! ```
//! use lsa_stm::prelude::*;
//! use lsa_time::hardware::HardwareClock;
//!
//! // LSA-RT on a simulated MMTimer (the paper's scalable time base).
//! let stm = Stm::new(HardwareClock::mmtimer_free());
//! let balance = stm.new_tvar(100i64);
//!
//! let mut thread = stm.register();
//! let remaining = thread.atomically(|tx| {
//!     let b = *tx.read(&balance)?;
//!     tx.write(&balance, b - 25)?;
//!     Ok(b - 25)
//! });
//! assert_eq!(remaining, 75);
//! ```
//!
//! [paper]: https://doi.org/10.1145/1248377.1248415

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod alloc;
pub mod config;
pub mod engine;
pub mod error;
pub mod lsa;
pub mod object;
pub mod reclaim;
pub mod status;
pub mod stm;
pub mod txn_shared;
pub mod version;

pub use config::StmConfig;
pub use error::{Abort, AbortReason, TxResult};
pub use lsa::Txn;
pub use object::TVar;
pub use stm::{Stm, ThreadHandle};

/// Convenient re-exports for typical users.
pub mod prelude {
    pub use crate::config::StmConfig;
    pub use crate::error::{Abort, AbortReason, TxResult};
    pub use crate::lsa::Txn;
    pub use crate::object::TVar;
    pub use crate::stm::{Stm, ThreadHandle};
    pub use lsa_engine::EngineHandle;
}
