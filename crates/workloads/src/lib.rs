//! # lsa-workloads — workload generators for the SPAA'07 evaluation
//!
//! The engine-level workloads and the two transactional set structures:
//!
//! * [`disjoint`] — the paper's §4.2 workload: transactions update `k`
//!   distinct private objects; no logical conflicts, so time-base overhead
//!   dominates (Figure 2),
//! * [`scan`] — read-only scans over `n` objects; the §1 validation-cost
//!   shape (EXP-VAL), engine-generic,
//! * [`intset_list`] — sorted linked-list set: long traversals, growing read
//!   sets (the validation-cost experiment, EXP-VAL),
//! * [`hashset`] — bucketed hash set: short transactions, tunable contention,
//! * [`rng`] — cheap deterministic randomness for workload threads.
//!
//! The bank, snapshot, intset and hashset request mixes are not here: they
//! are the served request kinds (`lsa_wire::Tables` over these two sets,
//! drawn by `lsa_harness::Kind`), the one closed-loop vocabulary the
//! harness runs in process and the wire server runs over a socket.
//!
//! Every workload is generic over its engine ([`lsa_engine::TxnEngine`]):
//! the same code runs on LSA-RT, TL2 and the validation STM, which is what
//! lets the harness sweep the full workload × engine × time-base matrix.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod disjoint;
pub mod hashset;
pub mod intset_list;
pub mod rng;
pub mod scan;

pub use disjoint::{DisjointConfig, DisjointWorker, DisjointWorkload};
pub use hashset::HashSetT;
pub use intset_list::IntSetList;
pub use rng::FastRng;
pub use scan::{ScanConfig, ScanWorker, ScanWorkload};
