//! The time-base conformance suite ([`lsa_time::conformance`]) over every
//! registered base — the contract-level counterpart of the engine registry's
//! conformance hook. A new time base is certified by adding one line here.
//!
//! Two layers:
//!
//! * [`conformance::full_suite`] per base — deterministic patterns plus the
//!   cross-thread uniqueness checks selected by each base's advertised
//!   [`TimeBaseInfo`] classes;
//! * proptest-driven [`conformance::thread_contract`] — randomized
//!   interleavings of `get_time` / `get_new_ts` / `acquire_commit_ts` per
//!   base.

use lsa_time::conformance::{self, ClockOp};
use lsa_time::counter::{BlockCounter, Gv4Counter, Gv5Counter, SharedCounter};
use lsa_time::external::{ClockId, ExtTimestamp, ExternalClock};
use lsa_time::hardware::HardwareClock;
use lsa_time::numa::{NumaCounter, NumaModel};
use lsa_time::perfect::PerfectClock;
use lsa_time::{TimeBase, Timestamp, TsCell, Uniqueness};
use proptest::prelude::*;

/// Every registered base at conformance-friendly settings. Keep in sync
/// with the harness registry's time-base axis.
macro_rules! for_each_base {
    ($f:ident) => {
        $f(&SharedCounter::new());
        $f(&Gv4Counter::new());
        $f(&Gv5Counter::new());
        $f(&BlockCounter::new(4)); // small blocks: exercise refills
        $f(&BlockCounter::new(64));
        $f(&PerfectClock::new());
        $f(&HardwareClock::mmtimer_free());
        $f(&NumaCounter::new(NumaModel::free()));
        $f(&ExternalClock::new(10_000));
    };
}

#[test]
fn full_suite_passes_on_every_registered_base() {
    fn check<B: TimeBase>(tb: &B) {
        println!("timebase conformance: {}", tb.name());
        conformance::full_suite(tb);
    }
    for_each_base!(check);
}

#[test]
fn advertised_uniqueness_classes_are_as_documented() {
    // The registry and the engines rely on these exact classes; a silent
    // downgrade (e.g. a base starting to share timestamps) must fail loudly.
    assert_eq!(SharedCounter::new().info().uniqueness, Uniqueness::Unique);
    assert_eq!(
        Gv4Counter::new().info().uniqueness,
        Uniqueness::SharedUnderContention
    );
    assert_eq!(
        Gv5Counter::new().info().uniqueness,
        Uniqueness::SharedUnderContention
    );
    // The block counter never adopts: lost confirmations are discarded and
    // re-arbitrated, so commit timestamps are globally unique (which is
    // what lets TL2's exclusivity fast path fire on it).
    assert_eq!(
        BlockCounter::default().info().uniqueness,
        Uniqueness::Unique
    );
    assert_eq!(
        PerfectClock::new().info().uniqueness,
        Uniqueness::BestEffort
    );
}

/// Map proptest-generated bytes onto clock operations.
#[test]
fn timestamp_cells_keep_the_cell_laws() {
    // One generic function, both cell implementations: the one-word cell of
    // `u64` bases and the sequence-locked triple of `ExtTimestamp`.
    let words: Vec<u64> = (0..12)
        .map(|k| k * 1_000 + 7)
        .chain([0, u64::MAX - 1])
        .collect();
    conformance::cell_laws(&words);
    // Every part names the sample, so a triple mixed from two is no sample.
    let triples: Vec<ExtTimestamp> = (1..=12u64)
        .map(|k| ExtTimestamp::new(k << 32 | k, ClockId(k as u32), k * 1_000_003))
        .chain([ExtTimestamp::origin()])
        .collect();
    conformance::cell_laws(&triples);
}

#[test]
#[should_panic(expected = "unset marker")]
fn u64_cell_refuses_to_set_the_unset_marker_once() {
    <u64 as Timestamp>::Cell::default().set_once(u64::MAX);
}

#[test]
#[should_panic(expected = "unset marker")]
fn u64_cell_refuses_to_put_the_unset_marker() {
    <u64 as Timestamp>::Cell::default().put(Some(u64::MAX));
}

fn ops_from_bytes(bytes: &[u8]) -> Vec<ClockOp> {
    bytes
        .iter()
        .map(|&b| match b % 3 {
            0 => ClockOp::Time,
            1 => ClockOp::NewTs,
            _ => ClockOp::Commit,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shared_counter_thread_contract(bytes in prop::collection::vec(any::<u8>(), 1..40)) {
        conformance::thread_contract(&SharedCounter::new(), &ops_from_bytes(&bytes));
    }

    #[test]
    fn gv4_thread_contract(bytes in prop::collection::vec(any::<u8>(), 1..40)) {
        conformance::thread_contract(&Gv4Counter::new(), &ops_from_bytes(&bytes));
    }

    #[test]
    fn gv5_thread_contract(bytes in prop::collection::vec(any::<u8>(), 1..40)) {
        conformance::thread_contract(&Gv5Counter::new(), &ops_from_bytes(&bytes));
    }

    #[test]
    fn block_counter_thread_contract(
        bytes in prop::collection::vec(any::<u8>(), 1..40),
        block in 1u64..16,
    ) {
        conformance::thread_contract(&BlockCounter::new(block), &ops_from_bytes(&bytes));
    }

    #[test]
    fn perfect_clock_thread_contract(bytes in prop::collection::vec(any::<u8>(), 1..30)) {
        conformance::thread_contract(&PerfectClock::new(), &ops_from_bytes(&bytes));
    }

    #[test]
    fn mmtimer_thread_contract(bytes in prop::collection::vec(any::<u8>(), 1..16)) {
        conformance::thread_contract(&HardwareClock::mmtimer_free(), &ops_from_bytes(&bytes));
    }

    #[test]
    fn numa_counter_thread_contract(bytes in prop::collection::vec(any::<u8>(), 1..40)) {
        conformance::thread_contract(
            &NumaCounter::new(NumaModel::free()),
            &ops_from_bytes(&bytes),
        );
    }

    #[test]
    fn external_clock_thread_contract(
        bytes in prop::collection::vec(any::<u8>(), 1..30),
        dev in 0u64..100_000,
    ) {
        conformance::thread_contract(
            &ExternalClock::new(dev),
            &ops_from_bytes(&bytes),
        );
    }
}
