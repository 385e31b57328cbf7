//! The time base abstraction (§2.1 of the paper) and the commit-arbitration
//! protocol layered on top of it.
//!
//! A *time base* provides every thread with the utility functions of
//! Algorithm 1: `getTime` (a monotonic reading of the global time) and
//! `getNewTS` (a reading strictly greater than anything this thread has seen
//! so far). Threads interact with the time base through a per-thread
//! [`ThreadClock`] handle obtained from [`TimeBase::register_thread`] — this
//! models the paper's "each thread p has access to a local clock Cp" (§3.1)
//! and lets implementations keep per-thread state (last returned value,
//! injected clock offsets, NUMA cache-line ownership) without sharing.
//!
//! ## Commit arbitration
//!
//! `getNewTS` alone cannot express the contention-avoiding tricks that make
//! shared-counter time bases scale (§1.2): TL2's GV4 "pass on failed CAS"
//! hands the *winner's* timestamp to the loser, GV5 derives the commit time
//! from a plain read without ever incrementing the counter, and batched
//! bases reserve whole blocks of timestamps per thread. All of these need a
//! richer answer than one scalar: the base must tell the engine whether the
//! timestamp is exclusively owned or shared with a concurrent committer.
//! [`ThreadClock::acquire_commit_ts`] is that two-phase protocol: the clock
//! forms a *tentative* commit time (phase one), arbitrates it against
//! concurrent committers (phase two — a CAS, a `fetch_max`, or nothing for
//! real-time clocks), and reports the outcome as a [`CommitTs`].
//! [`ThreadClock::note_abort`] closes the feedback loop GV5-style bases need
//! to keep lagging readers live. Per-base guarantees (uniqueness classes,
//! contention behaviour) are described by [`TimeBaseInfo`], which replaces
//! the bare `name()` string, and are asserted by [`crate::conformance`].

use crate::timestamp::Timestamp;
use std::sync::OnceLock;
use std::time::Instant;

/// How a commit timestamp was obtained from the time base — the outcome of
/// the two-phase [`ThreadClock::acquire_commit_ts`] arbitration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitTs<Ts> {
    /// The base arbitrated this timestamp to the caller alone: no other
    /// committer (past or concurrent) holds or will be handed the same
    /// value. Engines may use exclusivity for fast paths — e.g. TL2's
    /// "`wv == rv + 1` ⇒ nothing committed in between ⇒ skip read-set
    /// validation", which is only sound when `wv` is exclusively owned.
    ///
    /// This is a guarantee about *all* committers, not just other winners:
    /// a base whose losers can adopt a winner's value (GV4-style
    /// pass-on-failed-CAS) must report even its winners as [`Shared`] —
    /// exclusivity a concurrent adopter can void is no exclusivity at all.
    /// [`crate::conformance::exclusive_commit_ts_unique`] asserts that
    /// exclusive values never collide with any other arbitrated commit
    /// timestamp.
    Exclusive(Ts),
    /// The timestamp carries no exclusivity guarantee: it was adopted from a
    /// concurrent committer (TL2's GV4 pass-on-failed-CAS, GV5's
    /// read-derived commit times) or drawn from a base that cannot rule out
    /// coincident readings (real-time clocks). Sharing a commit time is
    /// sound for time-based STMs because two transactions may commit at the
    /// same time as long as they do not conflict (§2.3) — conflicting
    /// transactions are serialized by the object-level write protocol, never
    /// by the counter.
    Shared(Ts),
}

impl<Ts: Copy> CommitTs<Ts> {
    /// The arbitrated commit timestamp, regardless of ownership.
    #[inline]
    pub fn ts(self) -> Ts {
        match self {
            CommitTs::Exclusive(t) | CommitTs::Shared(t) => t,
        }
    }

    /// Whether the value was adopted from a concurrent committer.
    #[inline]
    pub fn is_shared(self) -> bool {
        matches!(self, CommitTs::Shared(_))
    }

    /// Arbitration-outcome label, matching the metric names the service
    /// layer exports (`time.commit_ts.shared` / `time.commit_ts.exclusive`)
    /// and the flight-recorder event kinds (`cts-shared` / `cts-exclusive`).
    #[inline]
    pub fn class(self) -> &'static str {
        match self {
            CommitTs::Exclusive(_) => "exclusive",
            CommitTs::Shared(_) => "shared",
        }
    }
}

/// Cross-thread uniqueness class of the timestamps a base hands out — the
/// per-base answer to the `getNewTS` contract question "strictly greater
/// than anything *this thread* has seen, but what about other threads?".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uniqueness {
    /// No two calls — on any thread — ever return the same value (atomic
    /// `fetch_add` counters, disjoint reserved blocks).
    Unique,
    /// Values are unique on the uncontended path but may be *deliberately*
    /// shared between concurrent committers under contention (GV4 adoption,
    /// GV5 read-derived commit times).
    SharedUnderContention,
    /// Distinct threads may coincidentally draw equal readings (real-time
    /// clocks quantized to a tick; externally synchronized clock ensembles).
    /// Uniqueness is never guaranteed and engines must not rely on it.
    BestEffort,
}

/// Expected behaviour of the commit hot path under contention — the
/// "contention class" of §4.2's cost analysis, used to pick a base for a
/// workload and reported by the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentionClass {
    /// Every commit performs a read-modify-write on one shared cache line
    /// (classical shared counter): each increment invalidates the line in
    /// every concurrent reader — the bottleneck the paper removes.
    SharedRmw,
    /// Commits still target one shared line but losers adopt the winner's
    /// value instead of retrying (GV4) or amortize allocation over blocks;
    /// the line is contended yet the retry storm is bounded.
    AdoptingRmw,
    /// Commits only *read* the shared line (GV5): no commit-time
    /// invalidation traffic at all, paid for with lagging readers and
    /// extra aborts.
    LoadOnly,
    /// Commits read a local or hardware clock: no shared-memory traffic
    /// (perfectly/externally synchronized clocks, MMTimer).
    LocalRead,
}

/// Static descriptor of a time base: its name plus the contract details the
/// bare `name()` string used to leave ambiguous. The conformance suite
/// ([`crate::conformance`]) asserts the advertised classes hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeBaseInfo {
    /// Short human-readable name used in experiment output
    /// (e.g. `"shared-counter"`, `"mmtimer"`).
    pub name: &'static str,
    /// Cross-thread uniqueness of `get_new_ts` / `acquire_commit_ts`
    /// results. [`CommitTs::Exclusive`] values are globally unique
    /// regardless of this class — a base that cannot guarantee a value will
    /// never be handed to another committer (e.g. because a concurrent
    /// loser may adopt it) must report that value as [`CommitTs::Shared`];
    /// [`crate::conformance`] asserts this.
    pub uniqueness: Uniqueness,
    /// Commit hot-path behaviour under contention.
    pub contention: ContentionClass,
    /// Whether every commit timestamp strictly exceeds every value any
    /// thread could read from `get_time` before the acquisition — the §2.4
    /// strictness property in its *global* form.
    ///
    /// Multi-version engines whose validity reasoning issues claims like
    /// "this version is valid at least until `t`" (LSA's `getPrelimUB`
    /// fallback) are only sound on bases where this holds: a later commit
    /// at a timestamp `≤ t` would retroactively falsify the claim. GV5
    /// deliberately gives this up (commit times run ahead of the readable
    /// counter), and so does GV4 adoption (a loser commits at a value the
    /// winner already made readable) — which is why LSA refuses
    /// non-monotonic bases while TL2, which re-checks every read against
    /// `rv` instead of issuing forward claims, accepts them.
    pub commit_monotonic: bool,
}

/// A shared time base from which threads obtain their clock handles.
///
/// Implementations are cheap to share (`Arc` internally where needed) and
/// must guarantee that the timestamps handed out through *any* of their
/// [`ThreadClock`]s are mutually comparable with the semantics of
/// [`Timestamp`].
pub trait TimeBase: Send + Sync + 'static {
    /// The timestamp type produced by this base's clocks.
    type Ts: Timestamp;
    /// The per-thread clock handle type.
    type Clock: ThreadClock<Ts = Self::Ts>;

    /// Create a clock handle for the calling thread. Handles are `Send` but
    /// are meant to be used by a single thread at a time (they carry the
    /// thread-local monotonicity state).
    fn register_thread(&self) -> Self::Clock;

    /// Static descriptor of this base: name, uniqueness guarantees and
    /// contention class.
    fn info(&self) -> TimeBaseInfo;

    /// Short human-readable name used in experiment output. Convenience
    /// accessor for [`TimeBaseInfo::name`].
    fn name(&self) -> &'static str {
        self.info().name
    }
}

/// A per-thread clock handle implementing the paper's `getTime`/`getNewTS`
/// plus the commit-arbitration extensions (GV4/GV5 adoption, abort
/// feedback).
pub trait ThreadClock: Send + 'static {
    /// The timestamp type produced by this clock.
    type Ts: Timestamp;

    /// The paper's `getTime()`: returns the current time as observed by this
    /// thread. Successive calls on the same handle return monotonically
    /// non-decreasing timestamps (`t2 ≽ t1`), but not necessarily strictly
    /// increasing ones — clocks that tick rarely (e.g. commit counters) may
    /// return the same value repeatedly.
    fn get_time(&mut self) -> Self::Ts;

    /// The paper's `getNewTS()`: returns a timestamp *strictly greater* than
    /// any timestamp previously returned to this thread by `get_time` or
    /// `get_new_ts`. Update transactions call this once at commit to obtain
    /// their tentative commit time (Algorithm 2 line 41).
    ///
    /// **Cross-thread guarantees are per-base**, not part of this contract:
    /// whether two threads can ever receive the same value is described by
    /// [`TimeBaseInfo::uniqueness`] and asserted by [`crate::conformance`].
    /// What *is* guaranteed globally (§2.4, required for the soundness of
    /// the STM's validity reasoning) is that the result strictly exceeds
    /// every reading whose publication happened-before this call.
    fn get_new_ts(&mut self) -> Self::Ts;

    /// Acquire a commit timestamp through the base's arbitration protocol.
    ///
    /// `observed` is the caller's latest own observation of the time base
    /// (for an STM: the join of its snapshot bounds and its last `get_time`)
    /// — the *tentative* phase anchors the commit time strictly above it.
    /// The *confirmation* phase arbitrates against concurrent committers;
    /// the returned timestamp is strictly greater than both `observed` and
    /// everything previously returned to this thread, and the
    /// [`CommitTs`] wrapper says whether the value is exclusively owned or
    /// adopted from the winner of a lost arbitration (GV4/GV5).
    ///
    /// The default implementation draws `get_new_ts()` and reports it as
    /// [`CommitTs::Shared`] — the conservative answer, because exclusivity
    /// is a *guarantee* engines build fast paths on (TL2 skips read-set
    /// validation for an exclusive `wv == rv + 1`) and the trait cannot know
    /// whether a base's timestamps are globally unique. Bases whose
    /// arbitration actually proves exclusivity (atomic counters, reserved
    /// blocks) override this to return [`CommitTs::Exclusive`].
    fn acquire_commit_ts(&mut self, observed: Self::Ts) -> CommitTs<Self::Ts> {
        let _ = observed;
        CommitTs::Shared(self.get_new_ts())
    }

    /// Out-of-band timestamp feedback: the engine learned `ts` from shared
    /// state (typically a version stamp read from an object) rather than
    /// from this clock.
    ///
    /// Lazy bases whose counter deliberately lags the committed versions
    /// (GV5) fold observed stamps into their freshness state so that one
    /// abort — not one abort per lagging tick — suffices to catch a reader
    /// up to the version that outran it. Other bases ignore it (the
    /// default). Must never make `get_time` exceed real commit times: only
    /// timestamps that already back committed data may be passed.
    fn observe_ts(&mut self, ts: Self::Ts) {
        let _ = ts;
    }

    /// Abort feedback: the engine failed an attempt that used this clock.
    ///
    /// GV5-style bases (commit = read + 1, counter never incremented on
    /// commit) rely on this to advance the shared counter past timestamps
    /// that already back committed versions — without it, readers whose
    /// `get_time` lags those versions would retry forever. Other bases
    /// ignore it (the default).
    ///
    /// Implementations must bound the advance by timestamps known to back
    /// committed (readable) state: a commit time handed out by
    /// [`acquire_commit_ts`](Self::acquire_commit_ts) is *tentative* until
    /// the engine publishes it — engines call `note_abort` precisely when
    /// an attempt (including its validation after acquiring a commit time)
    /// failed, and leaking such a timestamp into readable time would hand
    /// readers a snapshot time at an in-flight committer's commit time.
    fn note_abort(&mut self) {}
}

/// Start of the process-wide monotonic epoch. All real-time-flavoured time
/// bases in this crate derive their readings from one shared [`Instant`], so
/// readings taken by different threads are mutually consistent (Linux
/// `CLOCK_MONOTONIC` is globally coherent across CPUs, which is exactly the
/// "perfectly synchronized clock" hardware assumption of §3.1).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Offset added to all nanosecond readings so that downstream arithmetic
/// (e.g. `ts - dev` for externally synchronized clocks, `prior()`) can never
/// underflow near process start. Roughly 18 minutes.
pub const EPOCH_OFFSET_NS: u64 = 1 << 40;

/// Read the shared monotonic clock, in nanoseconds since an arbitrary (but
/// process-wide) epoch. This is the raw oscillator from which
/// [`crate::perfect::PerfectClock`], [`crate::hardware::HardwareClock`] and
/// [`crate::external::ExternalClock`] synthesize their readings.
#[inline]
pub fn monotonic_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64 + EPOCH_OFFSET_NS
}

/// Busy-wait for approximately `ns` nanoseconds. Used by the latency-emulating
/// time bases ([`crate::hardware::HardwareClock`] read cost,
/// [`crate::numa::NumaCounter`] remote-miss cost). Spinning (rather than
/// sleeping) matches what the modeled hardware does: the CPU is stalled on an
/// uncached load for the duration.
#[inline]
pub fn spin_for_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_monotonic_and_offset() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
        assert!(a >= EPOCH_OFFSET_NS);
    }

    #[test]
    fn monotonic_ns_consistent_across_threads() {
        // A reading taken *after* a handshake must be >= a reading taken
        // before it, even when the two readings come from different threads:
        // this is the global-coherence property the paper's perfectly
        // synchronized clocks provide.
        let before = monotonic_ns();
        let from_thread = std::thread::spawn(monotonic_ns).join().unwrap();
        let after = monotonic_ns();
        assert!(from_thread >= before);
        assert!(after >= from_thread);
    }

    #[test]
    fn spin_for_ns_waits_at_least_that_long() {
        let start = Instant::now();
        spin_for_ns(200_000); // 200 µs
        assert!(start.elapsed().as_nanos() >= 200_000);
    }

    #[test]
    fn spin_for_zero_returns_immediately() {
        spin_for_ns(0);
    }

    #[test]
    fn commit_ts_accessors() {
        assert_eq!(CommitTs::Exclusive(7u64).ts(), 7);
        assert_eq!(CommitTs::Shared(9u64).ts(), 9);
        assert!(!CommitTs::Exclusive(7u64).is_shared());
        assert!(CommitTs::Shared(9u64).is_shared());
        assert_eq!(CommitTs::Exclusive(7u64).class(), "exclusive");
        assert_eq!(CommitTs::Shared(9u64).class(), "shared");
    }

    #[test]
    fn default_arbitration_is_conservative_shared_get_new_ts() {
        // A clock that only implements the mandatory methods inherits a
        // sound (if trick-free) arbitration protocol: fresh timestamps,
        // but no exclusivity claim an engine could build a fast path on.
        struct Seq(u64);
        impl ThreadClock for Seq {
            type Ts = u64;
            fn get_time(&mut self) -> u64 {
                self.0
            }
            fn get_new_ts(&mut self) -> u64 {
                self.0 += 1;
                self.0
            }
        }
        let mut c = Seq(10);
        let ct = c.acquire_commit_ts(10);
        assert_eq!(ct, CommitTs::Shared(11));
        c.note_abort(); // default: no-op
        assert_eq!(c.get_time(), 11);
    }
}
