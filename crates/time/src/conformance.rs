//! Time-base conformance checks: the contract suite every [`TimeBase`] must
//! pass, mirroring the engine-level suite in `lsa_engine::conformance`.
//!
//! The `getTime`/`getNewTS` contracts used to be asserted ad hoc per base in
//! `tests/clock_properties.rs`; the commit-arbitration redesign added
//! per-base *classes* of guarantees ([`TimeBaseInfo`]) that deserve uniform
//! checking: what exactly does `get_new_ts` promise across threads? Does
//! `acquire_commit_ts` always clear the caller's observation? This module answers those questions generically
//! so every base — including the GV4/GV5/block arbitration variants — is
//! certified by the same code, and a new base inherits the suite by being
//! added to the `timebase_conformance` integration test.
//!
//! The checkers panic with the base's name on violation; they are meant to
//! run under `cargo test` (see `crates/time/tests/timebase_conformance.rs`,
//! which also drives [`thread_contract`] from proptest-generated patterns).

use crate::base::{ThreadClock, TimeBase, Uniqueness};
use crate::timestamp::{Timestamp, TsCell};
use std::sync::atomic::{AtomicBool, Ordering};

/// One operation of a [`thread_contract`] pattern.
#[derive(Clone, Copy, Debug)]
pub enum ClockOp {
    /// `get_time` — monotonically non-decreasing.
    Time,
    /// `get_new_ts` — strictly increasing.
    NewTs,
    /// `acquire_commit_ts(latest observation)` — strictly increasing.
    Commit,
}

/// Strictly-after check that works for totally ordered timestamps and for
/// same-clock externally synchronized timestamps alike: later `ge` earlier,
/// and not equal.
fn strictly_after<Ts: Timestamp>(later: Ts, earlier: Ts) -> bool {
    later.ge(earlier) && later != earlier
}

/// Per-thread contract under an arbitrary interleaving of all three clock
/// operations:
///
/// * `get_time` never moves backwards *relative to earlier `get_time`
///   calls*. It may legitimately return less than an earlier `get_new_ts`
///   result: lazy bases (GV5, block reservation) hand out commit times that
///   run ahead of the *published* time readers are allowed to observe.
/// * `get_new_ts` and `acquire_commit_ts` are strictly greater than **everything** previously returned to the thread
///   (any operation).
/// * `acquire_commit_ts` strictly clears the observation passed in, and
///   bases advertising [`Uniqueness::Unique`] never report a shared commit
///   timestamp.
pub fn thread_contract<B: TimeBase>(tb: &B, ops: &[ClockOp]) {
    let info = tb.info();
    let name = info.name;
    let mut clock = tb.register_thread();
    // Join of every value returned so far (strict ops must clear it) and
    // the last get_time reading (get_time must not fall below it).
    let mut seen: Option<B::Ts> = None;
    let mut last_time: Option<B::Ts> = None;
    fn fold<Ts: Timestamp>(acc: &mut Option<Ts>, t: Ts) {
        *acc = Some(match *acc {
            Some(prev) => prev.join(t),
            None => t,
        });
    }
    let mut time = |clock: &mut B::Clock, seen: &mut Option<B::Ts>| {
        let t = clock.get_time();
        if let Some(prev) = last_time {
            assert!(
                t.ge(prev),
                "{name}: get_time moved backwards: {t:?} after {prev:?}"
            );
        }
        last_time = Some(t);
        fold(seen, t);
        t
    };
    let strict = |t: B::Ts, seen: &mut Option<B::Ts>| {
        if let Some(prev) = *seen {
            assert!(
                strictly_after(t, prev),
                "{name}: strict op returned {t:?} after seeing {prev:?}"
            );
        }
        fold(seen, t);
    };
    for &op in ops {
        match op {
            ClockOp::Time => {
                time(&mut clock, &mut seen);
            }
            ClockOp::NewTs => {
                let t = clock.get_new_ts();
                strict(t, &mut seen);
            }
            ClockOp::Commit => {
                let observed = time(&mut clock, &mut seen);
                let ct = clock.acquire_commit_ts(observed);
                assert!(
                    strictly_after(ct.ts(), observed),
                    "{name}: commit ts {:?} does not clear observation {observed:?}",
                    ct.ts()
                );
                if info.uniqueness == Uniqueness::Unique {
                    assert!(
                        !ct.is_shared(),
                        "{name}: advertises unique timestamps but shared {:?}",
                        ct.ts()
                    );
                }
                strict(ct.ts(), &mut seen);
            }
        }
    }
}

/// Cross-thread `get_new_ts` uniqueness for bases advertising
/// [`Uniqueness::Unique`]: no two calls, on any thread, return the same
/// value.
pub fn new_ts_cross_thread_unique<B: TimeBase>(tb: &B, threads: usize, per: usize) {
    let name = tb.info().name;
    assert_eq!(
        tb.info().uniqueness,
        Uniqueness::Unique,
        "{name}: uniqueness check only applies to Unique bases"
    );
    let mut all = collect_values(tb, threads, |clock, out| {
        for _ in 0..per {
            out.push(clock.get_new_ts().raw_value());
        }
    });
    let n = all.len();
    assert_eq!(n, threads * per, "{name}: lost timestamps");
    all.sort_unstable();
    all.dedup();
    assert_eq!(n, all.len(), "{name}: get_new_ts returned duplicates");
}

/// Cross-thread exclusivity of commit timestamps: whatever the base's
/// sharing behaviour, a [`crate::base::CommitTs::Exclusive`] value must
/// never collide with **any** other arbitrated commit timestamp —
/// exclusive *or* shared. A winner reported `Exclusive` whose value a
/// concurrent loser adopts as `Shared` is precisely the violation that
/// breaks engines' exclusivity fast paths (TL2's `wv == rv + 1`
/// validation skip), and the one an exclusive-vs-exclusive check alone
/// cannot see. (For [`Uniqueness::BestEffort`] bases exclusivity is not
/// meaningful and the check is skipped by [`full_suite`].)
pub fn exclusive_commit_ts_unique<B: TimeBase>(tb: &B, threads: usize, per: usize) {
    let name = tb.info().name;
    let mut all: Vec<(i128, bool)> = collect_values(tb, threads, |clock, out| {
        for _ in 0..per {
            let observed = clock.get_time();
            let ct = clock.acquire_commit_ts(observed);
            assert!(
                strictly_after(ct.ts(), observed),
                "{name}: commit ts does not clear observation under contention"
            );
            out.push((ct.ts().raw_value(), ct.is_shared()));
        }
    });
    assert_eq!(all.len(), threads * per, "{name}: lost commit timestamps");
    all.sort_unstable();
    for run in all.chunk_by(|a, b| a.0 == b.0) {
        if run.len() > 1 {
            assert!(
                run.iter().all(|&(_, shared)| shared),
                "{name}: exclusive commit timestamp {} was also handed to \
                 another committer",
                run[0].0
            );
        }
    }
}

/// Spawn `threads` clocks, run `body` on each, and collect the values
/// every thread pushed.
fn collect_values<B, T, F>(tb: &B, threads: usize, body: F) -> Vec<T>
where
    B: TimeBase,
    T: Send,
    F: Fn(&mut B::Clock, &mut Vec<T>) + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let mut clock = tb.register_thread();
                let body = &body;
                s.spawn(move || {
                    let mut out = Vec::new();
                    body(&mut clock, &mut out);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// Tiny deterministic generator (same shape as the engine conformance
/// suite's) so [`full_suite`] needs no external dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0 >> 11
    }
}

/// A deterministic mixed-operation pattern for [`thread_contract`].
pub fn mixed_ops(seed: u64, len: usize) -> Vec<ClockOp> {
    let mut rng = Lcg(seed);
    (0..len)
        .map(|_| match rng.next() % 3 {
            0 => ClockOp::Time,
            1 => ClockOp::NewTs,
            _ => ClockOp::Commit,
        })
        .collect()
}

/// The whole conformance suite at test-friendly sizes, selecting checks by
/// the base's advertised [`TimeBaseInfo`] classes. One call certifies a
/// base; `note_abort` is exercised for crash-freedom on every base.
pub fn full_suite<B: TimeBase>(tb: &B) {
    let info = tb.info();
    for seed in [1u64, 0xBEE5, 0xC0FFEE] {
        thread_contract(tb, &mixed_ops(seed, 60));
    }
    // Abort feedback must be callable at any point without disturbing the
    // per-thread contract.
    {
        let mut clock = tb.register_thread();
        let a = clock.get_new_ts();
        clock.note_abort();
        let b = clock.get_new_ts();
        assert!(
            strictly_after(b, a),
            "{}: note_abort broke monotonicity",
            info.name
        );
    }
    if info.uniqueness != Uniqueness::BestEffort {
        exclusive_commit_ts_unique(tb, 4, 1_000);
    }
    if info.uniqueness == Uniqueness::Unique {
        new_ts_cross_thread_unique(tb, 4, 1_000);
    }
}

/// The laws of a timestamp type's [`TsCell`] — the atomic `Option<Ts>` the
/// STM keeps commit times, version bounds and snapshot registrations in —
/// checked through the trait alone, so every cell implementation is held to
/// the same text. `samples` are at least eight pairwise distinct timestamps
/// whose parts identify them (a triple mixed from two samples is not a
/// sample).
pub fn cell_laws<Ts: Timestamp>(samples: &[Ts]) {
    assert!(samples.len() >= 8, "need 8 distinct samples");
    let name = std::any::type_name::<Ts::Cell>();

    // Unset reads `None`; `put` writes through in both directions.
    let cell = Ts::Cell::default();
    assert_eq!(cell.get(), None, "{name}: a fresh cell is unset");
    cell.put(Some(samples[0]));
    assert_eq!(cell.get(), Some(samples[0]), "{name}");
    cell.put(Some(samples[1]));
    assert_eq!(cell.get(), Some(samples[1]), "{name}: put overwrites");
    cell.put(None);
    assert_eq!(cell.get(), None, "{name}: put(None) after put(Some)");

    // `set_once`: the first setter wins, later ones adopt its value.
    assert_eq!(cell.set_once(samples[2]), samples[2], "{name}");
    assert_eq!(cell.set_once(samples[3]), samples[2], "{name}: adopted");
    assert_eq!(cell.get(), Some(samples[2]), "{name}");

    // … also when eight setters race: all leave with the one value that
    // landed. The barrier lines them up on the unset cell.
    for _ in 0..64 {
        let cell = Ts::Cell::default();
        let barrier = std::sync::Barrier::new(8);
        let winners: Vec<Ts> = std::thread::scope(|s| {
            let setters: Vec<_> = samples[..8]
                .iter()
                .map(|&mine| {
                    let (cell, barrier) = (&cell, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        cell.set_once(mine)
                    })
                })
                .collect();
            setters
                .into_iter()
                .map(|h| h.join().expect("setter panicked"))
                .collect()
        });
        let first = winners[0];
        assert!(
            samples[..8].contains(&first),
            "{name}: {first:?} was never set"
        );
        assert!(
            winners.iter().all(|&w| w == first),
            "{name}: racing setters disagree: {winners:?}"
        );
        assert_eq!(cell.get(), Some(first), "{name}");
    }

    // A reader beside the single writer sees unset or a sample, never a mix
    // of two.
    let cell = Ts::Cell::default();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if let Some(t) = cell.get() {
                    assert!(samples.contains(&t), "{name}: read {t:?}, never put whole");
                }
            }
        });
        for round in 0..200_000usize {
            cell.put(match round % 5 {
                0 => None,
                _ => Some(samples[round % samples.len()]),
            });
        }
        done.store(true, Ordering::Release);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::SharedCounter;

    #[test]
    fn mixed_ops_is_deterministic() {
        let a = format!("{:?}", mixed_ops(7, 16));
        let b = format!("{:?}", mixed_ops(7, 16));
        assert_eq!(a, b);
    }

    #[test]
    fn suite_passes_on_the_reference_base() {
        full_suite(&SharedCounter::new());
    }
}
