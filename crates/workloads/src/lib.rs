//! # lsa-workloads — workload generators for the SPAA'07 evaluation
//!
//! * [`disjoint`] — the paper's §4.2 workload: transactions update `k`
//!   distinct private objects; no logical conflicts, so time-base overhead
//!   dominates (Figure 2),
//! * [`bank`] — transfers + read-only audits; the consistency workload used
//!   by the synchronization-error experiment (§4.3 / EXP-ERR),
//! * [`scan`] — read-only scans over `n` objects; the §1 validation-cost
//!   shape (EXP-VAL), engine-generic,
//! * [`intset_list`] — sorted linked-list set: long traversals, growing read
//!   sets (the validation-cost experiment, EXP-VAL) — plus the
//!   [`intset_list::IntsetWorkload`] member/insert/remove benchmark mix,
//!   the data-structure workload that drives cross-shard transactions in
//!   the engine matrix,
//! * [`snapshot`] — snapshot analytics: long read-only range scans racing a
//!   zero-sum update stream — the multi-version vs single-version
//!   separation workload (and the service bench's "analytics" request),
//! * [`hashset`] — bucketed hash set: short transactions, tunable contention,
//! * [`placement`] — the [`PlacementHint`] shard-affinity axis: bank and
//!   disjoint can pin their natural partitions shard-locally
//!   (`TxnEngine::new_var_on`) instead of round-robin spreading,
//! * [`rng`] — cheap deterministic randomness for workload threads.
//!
//! Every workload is generic over its engine ([`lsa_engine::TxnEngine`]):
//! the same code runs on LSA-RT, TL2 and the validation STM, which is what
//! lets the harness sweep the full workload × engine × time-base matrix.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod bank;
pub mod disjoint;
pub mod hashset;
pub mod intset_list;
pub mod placement;
pub mod rng;
pub mod scan;
pub mod snapshot;

pub use bank::{BankConfig, BankWorker, BankWorkload};
pub use disjoint::{DisjointConfig, DisjointWorker, DisjointWorkload};
pub use hashset::{HashSetT, HashsetConfig, HashsetWorker, HashsetWorkload};
pub use intset_list::{IntSetList, IntsetConfig, IntsetWorker, IntsetWorkload};
pub use placement::PlacementHint;
pub use rng::FastRng;
pub use scan::{ScanConfig, ScanWorker, ScanWorkload};
pub use snapshot::{SnapshotConfig, SnapshotWorker, SnapshotWorkload};
