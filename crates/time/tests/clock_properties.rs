//! Cross-cutting clock properties every time base must satisfy (the
//! contracts `lsa-stm` relies on, §2.1/§2.4 of the paper), checked uniformly
//! over all implementations.

use lsa_time::counter::{BlockCounter, Gv4Counter, Gv5Counter, SharedCounter};
use lsa_time::external::ExternalClock;
use lsa_time::hardware::HardwareClock;
use lsa_time::numa::{NumaCounter, NumaModel};
use lsa_time::perfect::PerfectClock;
use lsa_time::{ThreadClock, TimeBase, Timestamp};
use proptest::prelude::*;

/// getTime is monotonic per thread; getNewTS is strictly greater than
/// everything previously returned to the thread, under any interleaving of
/// the two calls.
fn check_thread_contract<B: TimeBase>(tb: &B, pattern: &[bool]) {
    let mut clock = tb.register_thread();
    let mut last: Option<B::Ts> = None;
    for &new_ts in pattern {
        let t = if new_ts {
            clock.get_new_ts()
        } else {
            clock.get_time()
        };
        if let Some(prev) = last {
            assert!(t.ge(prev), "monotonicity violated: {t:?} after {prev:?}");
            if new_ts {
                assert!(
                    t.possibly_later(prev) || !prev.ge(t),
                    "getNewTS must move strictly past {prev:?}, got {t:?}"
                );
            }
        }
        last = Some(t);
    }
}

/// A value read after a cross-thread handshake is `ge` the value published
/// before it (the §2.4 visibility requirement).
fn check_happens_before<B: TimeBase>(tb: &B) {
    let mut main = tb.register_thread();
    let before = main.get_new_ts();
    let observed = std::thread::scope(|s| {
        s.spawn(|| {
            let mut other = tb.register_thread();
            other.get_new_ts()
        })
        .join()
        .unwrap()
    });
    let after = main.get_time();
    assert!(
        observed.ge(before) || !before.ge(observed),
        "cross-thread reading moved backwards: {before:?} then {observed:?}"
    );
    assert!(after.ge(before));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shared_counter_contract(pattern in prop::collection::vec(any::<bool>(), 1..40)) {
        check_thread_contract(&SharedCounter::new(), &pattern);
    }

    #[test]
    fn gv4_counter_contract(pattern in prop::collection::vec(any::<bool>(), 1..40)) {
        check_thread_contract(&Gv4Counter::new(), &pattern);
    }

    // NOTE: Gv5Counter is deliberately absent from this full-chain check:
    // its get_time returns only *published* time, which may lag the
    // thread's own (unpublished) commit timestamps. Its contract — the
    // weaker, correct one — is asserted by lsa_time::conformance in
    // tests/timebase_conformance.rs.

    #[test]
    fn block_counter_contract(
        pattern in prop::collection::vec(any::<bool>(), 1..40),
        block in 1u64..16,
    ) {
        check_thread_contract(&BlockCounter::new(block), &pattern);
    }

    #[test]
    fn perfect_clock_contract(pattern in prop::collection::vec(any::<bool>(), 1..40)) {
        check_thread_contract(&PerfectClock::new(), &pattern);
    }

    #[test]
    fn hardware_clock_contract(pattern in prop::collection::vec(any::<bool>(), 1..20)) {
        check_thread_contract(&HardwareClock::mmtimer_free(), &pattern);
    }

    #[test]
    fn numa_counter_contract(pattern in prop::collection::vec(any::<bool>(), 1..40)) {
        check_thread_contract(&NumaCounter::new(NumaModel::free()), &pattern);
    }

    #[test]
    fn external_clock_contract(
        pattern in prop::collection::vec(any::<bool>(), 1..40),
        dev in 0u64..100_000,
    ) {
        check_thread_contract(
            &ExternalClock::new(dev),
            &pattern,
        );
    }

    #[test]
    fn external_offsets_always_bounded(dev in 0u64..1_000_000, n in 1usize..32) {
        let tb = ExternalClock::new(dev);
        for _ in 0..n {
            let h = tb.register_thread();
            prop_assert!(h.offset_ns().unsigned_abs() <= dev);
        }
    }
}

#[test]
fn happens_before_all_bases() {
    check_happens_before(&SharedCounter::new());
    check_happens_before(&Gv4Counter::new());
    check_happens_before(&BlockCounter::default());
    check_happens_before(&PerfectClock::new());
    check_happens_before(&HardwareClock::mmtimer_free());
    check_happens_before(&NumaCounter::new(NumaModel::free()));
}

/// The §2.4 strictness requirement in its exact form: a getNewTS result is
/// strictly greater than a clock reading taken (by the same thread) before
/// the call — for every time base.
#[test]
fn get_new_ts_exceeds_invocation_time() {
    fn check<B: TimeBase>(tb: &B) {
        let mut a = tb.register_thread();
        let mut b = tb.register_thread();
        for _ in 0..200 {
            let before = a.get_time();
            let fresh = b.get_new_ts();
            // `fresh` was acquired after `before` in real time, so `before`
            // must never be guaranteed-later than `fresh`.
            assert!(
                !before.ge(fresh) || fresh.ge(before),
                "an earlier reading claims to dominate a later getNewTS"
            );
        }
    }
    check(&SharedCounter::new());
    check(&Gv4Counter::new());
    check(&Gv5Counter::new());
    check(&BlockCounter::default());
    check(&NumaCounter::new(NumaModel::free()));
    check(&PerfectClock::new());
    check(&HardwareClock::mmtimer_free());
    check(&ExternalClock::new(50_000));

    // Strong form: strictly greater, on every base whose readings are plain
    // numbers on one axis (the external ensemble at dev = 0 by its `.ts`).
    fn strict<B: TimeBase>(tb: &B, value: fn(B::Ts) -> u64) {
        let mut a = tb.register_thread();
        let mut b = tb.register_thread();
        for _ in 0..200 {
            let before = value(a.get_time());
            let fresh = value(b.get_new_ts());
            assert!(
                fresh > before,
                "{}: getNewTS {fresh} must exceed prior reading {before}",
                tb.name()
            );
        }
    }
    strict(&PerfectClock::new(), |t| t);
    strict(&SharedCounter::new(), |t| t);
    strict(&HardwareClock::mmtimer_free(), |t| t);
    strict(&ExternalClock::new(0), |t| t.ts);
}
