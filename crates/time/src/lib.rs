//! # lsa-time — scalable time bases for time-based transactional memory
//!
//! This crate implements the *time base* abstraction of the SPAA'07 paper
//! ["Time-based Transactional Memory with Scalable Time Bases"][paper]
//! (Riegel, Fetzer, Felber), together with every concrete time base the paper
//! discusses:
//!
//! * [`counter::Counter`] — the one global-counter runtime, read at every
//!   transaction start and arbitrated at commit by one of four rules
//!   ([`counter::Rule`]), each a marker type whose constants are resolved
//!   at compile time:
//!   - [`counter::SharedCounter`] — the classical global shared integer
//!     counter used by LSA and TL2 (one `fetch_add` per committing update
//!     transaction),
//!   - [`counter::Gv4Counter`] — the TL2 GV4 optimization that lets
//!     transactions share a commit timestamp when the timestamp-acquiring
//!     CAS fails,
//!   - [`counter::Gv5Counter`] — TL2's GV5: commit = read + 1, the counter
//!     is never incremented on commit (aborts advance it instead),
//!   - [`counter::BlockCounter`] — batched per-thread timestamp blocks with
//!     a separately published commit frontier,
//! * [`perfect::SyncClock`] — the one synchronized-clock runtime, a
//!   thread's real-time clock (Algorithm 4) with a tick, a read latency, an
//!   offset from real time and a [`perfect::Stamp`]; three bases register
//!   it:
//!   - [`perfect::PerfectClock`] — a perfectly synchronized real-time clock
//!     at nanosecond resolution (Algorithm 4 of the paper),
//!   - [`hardware::HardwareClock`] — a simulated *MMTimer*: a `SyncClock`
//!     with a configurable tick frequency (20 MHz in the paper) and a read
//!     latency larger than one tick,
//!   - [`external::ExternalClock`] — externally synchronized clocks with a
//!     bounded deviation `dev`: `SyncClock`s offset by `±dev` whose
//!     timestamps are `(ts, cid, dev)` triples and compare according to
//!     Algorithm 5 of the paper,
//! * [`numa::NumaCounter`] / [`numa::NumaModel`] — the shared counter with
//!   its line priced: a priced marker makes the counter runtime charge
//!   every access to the counter's cache line by a ccNUMA interconnect cost
//!   model, used to reproduce the paper's SGI-Altix contention behaviour on
//!   a small host. [`numa::NumaModel::altix`] is the one Altix machine
//!   model; the discrete-event simulator prices the line from it too (see
//!   DESIGN.md §3),
//! * [`sharded::ShardedTimeBase`] — the composite base that shards an STM:
//!   per-shard clock instances over one arbitration-comparable domain, a
//!   shard selection the engine makes through [`ThreadClock`]'s hooks,
//!   disjoint per-shard `get_ts_block` domains and a capability check that
//!   rejects inner bases whose guarantees do not survive composition
//!   (see DESIGN.md §9).
//!
//! The abstraction is split in two traits:
//!
//! * [`Timestamp`] captures the *timestamp algebra* of Algorithm 1: the
//!   "guaranteed later than or equal" relation `≼` ([`Timestamp::ge`]), the
//!   derived "possibly later than" relation `≾`
//!   ([`Timestamp::possibly_later`]), and uncertainty-aware
//!   [`Timestamp::join`] (max) and [`Timestamp::meet`] (min).
//! * [`TimeBase`] produces per-thread clock handles ([`ThreadClock`]) whose
//!   [`ThreadClock::get_time`] and [`ThreadClock::get_new_ts`] implement the
//!   paper's `getTime`/`getNewTS` utility functions. On top of those,
//!   [`ThreadClock::acquire_commit_ts`] is the commit-arbitration protocol
//!   (GV4/GV5 timestamp sharing as [`CommitTs`]),
//!   [`ThreadClock::get_ts_block`] batched allocation, and every base
//!   describes its guarantees through a [`TimeBaseInfo`] descriptor whose
//!   claims the [`conformance`] suite asserts.
//!
//! The crate also contains the measurement infrastructure used for the
//! paper's Figure 1 ([`sync_measure`]) and a software clock-synchronization
//! simulator ([`sync_sim`]).
//!
//! [paper]: https://doi.org/10.1145/1248377.1248415

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod base;
pub mod conformance;
pub mod counter;
pub mod external;
pub mod hardware;
pub mod numa;
pub mod perfect;
pub mod range;
pub mod sharded;
pub mod sync_measure;
pub mod sync_sim;
pub mod timestamp;

pub use base::{CommitTs, ContentionClass, ThreadClock, TimeBase, TimeBaseInfo, Uniqueness};
pub use range::ValidityRange;
pub use sharded::{ShardedClock, ShardedTimeBase};
pub use timestamp::{Timestamp, TsCell};

/// Convenient re-exports of every concrete time base.
pub mod prelude {
    pub use crate::base::{CommitTs, ThreadClock, TimeBase, TimeBaseInfo};
    pub use crate::counter::{BlockCounter, Gv4Counter, Gv5Counter, SharedCounter};
    pub use crate::external::{ExtTimestamp, ExternalClock};
    pub use crate::hardware::HardwareClock;
    pub use crate::numa::{NumaCounter, NumaModel};
    pub use crate::perfect::PerfectClock;
    pub use crate::range::ValidityRange;
    pub use crate::sharded::ShardedTimeBase;
    pub use crate::timestamp::Timestamp;
}
