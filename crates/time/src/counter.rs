//! Shared-integer-counter time bases (§1.2 of the paper): one runtime,
//! four commit-arbitration rules.
//!
//! The classical time base of LSA and TL2: a single global integer counter,
//! read at every transaction start (`getTime`) and incremented by every
//! committing update transaction (`getNewTS`). On small multi-cores the cost
//! is negligible; on larger machines every increment causes cache misses in
//! *all* concurrent transactions, which is precisely the bottleneck the paper
//! sets out to remove (§4.2, Figure 2).
//!
//! Every counter is one [`Counter<A>`] over one set of shared words, handed
//! to threads as one [`CounterClock<A>`]. What varies is how a commit
//! arbitrates for its timestamp — the [`Rule`] the marker `A` names as an
//! associated constant, so each branch on it is resolved at compile time.
//! Four rules are provided, in increasing order of arbitration trickery:
//!
//! * [`SharedCounter`] ([`Rule::FetchAdd`]) — plain `fetch_add` counter;
//!   every commit is an exclusive RMW ([`ContentionClass::SharedRmw`]).
//! * [`Gv4Counter`] ([`Rule::Gv4`]) — TL2's **GV4** optimization: a
//!   transaction whose timestamp-acquiring compare-and-swap fails *adopts*
//!   the timestamp installed by the winner instead of retrying. Because a
//!   loser can be handed exactly the value the winner installed, *every*
//!   GV4 commit timestamp is [`CommitTs::Shared`] — winners included — and
//!   the base is not commit-monotonic (an adopted value was readable before
//!   the loser commits with it). The paper reports GV4 "showed no
//!   advantages on our hardware" (§4.2); the
//!   [`Gv4Counter::shared_acquisitions`] statistic lets the benchmarks
//!   verify both behaviours.
//! * [`Gv5Counter`] ([`Rule::Gv5`]) — TL2's **GV5**: the commit time is a
//!   *plain read* of the counter plus one; the counter is never incremented
//!   on commit, only on abort (via [`ThreadClock::note_abort`]) so lagging
//!   readers catch up. Commits cause no invalidation traffic at all, paid
//!   for with extra aborts ([`ContentionClass::LoadOnly`]).
//! * [`BlockCounter`] ([`Rule::Block`]) — batched allocation: each thread
//!   reserves blocks of `k` timestamps with one RMW on a *reservation*
//!   counter, and publishes the values it actually uses to a separate
//!   *commit frontier* with `fetch_max`. Readers only touch the frontier;
//!   allocation traffic is amortized `k`-fold. A lost `fetch_max` discards
//!   the stale value and re-arbitrates with the next reserved value — never
//!   adopts — so every commit timestamp is exclusively owned, globally
//!   unique, and commit-monotonic. See the module-level soundness
//!   discussion below.
//!
//! A marker may also set [`Arbitration::PRICED`]: every access to the
//! readable word's cache line is then charged by the counter's
//! [`NumaModel`], which is how [`crate::numa::NumaCounter`] models the
//! paper's ccNUMA testbed. Unpriced counters compile the pricing out.
//!
//! ## Why batched timestamps still need a published frontier
//!
//! A naïvely batched counter (hand out `[B, B+k)` and let `getTime` read the
//! allocation frontier) is **unsound** for time-based STMs: a reader that
//! observes the frontier at `B+k` may conclude a version is valid until
//! `B+k`, after which a buffered committer supersedes that version at some
//! `v < B+k` from its stale block — a consistency violation (§2.4 requires
//! commit times to strictly exceed every previously readable clock value).
//! [`BlockCounter`] therefore keeps the *issued* frontier separate: readers
//! see only published commit times, and a committer confirms a block value
//! `v` by `fetch_max(frontier, v)` — if the frontier already moved past `v`,
//! the value is stale, gets discarded, and the committer re-arbitrates with
//! its next fresh block value (re-reserving when the block runs dry).
//! Adopting the frontier value GV4-style would be unsound twice over: the
//! adopter would commit at a previously readable value (forfeiting commit
//! monotonicity), and the winner's supposedly exclusive timestamp would be
//! handed to a second committer (forfeiting the [`CommitTs::Exclusive`]
//! contract engines build validation-skip fast paths on). Only the
//! reservation traffic amortizes; publication remains one RMW per commit —
//! which is exactly the paper's skepticism about counter batching, now
//! stated as an API-level invariant (DESIGN.md §8).

use crate::base::{
    spin_for_ns, CommitTs, ContentionClass, ThreadClock, TimeBase, TimeBaseInfo, Uniqueness,
};
use crate::numa::NumaModel;
use crossbeam_utils::CachePadded;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a counter arbitrates commit timestamps (DESIGN.md §8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Every commit is one `fetch_add` on the counter: globally unique,
    /// exclusively owned timestamps.
    FetchAdd,
    /// TL2's GV4: CAS to increment, adopt the winner's value on failure.
    Gv4,
    /// TL2's GV5: commit at `read + 1`; only aborts advance the counter.
    Gv5,
    /// Per-thread reserved blocks, confirmed on a published frontier.
    Block,
}

/// A counter's arbitration rule as a type: a marker whose constants select
/// the branches of the one [`Counter`] runtime at compile time.
pub trait Arbitration: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// How commits arbitrate for their timestamps.
    const RULE: Rule;
    /// Whether accesses to the readable word are charged by the counter's
    /// [`NumaModel`] (see [`crate::numa`]).
    const PRICED: bool = false;
}

/// Marker for [`Rule::FetchAdd`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FetchAdd;
/// Marker for [`Rule::Gv4`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Gv4;
/// Marker for [`Rule::Gv5`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Gv5;
/// Marker for [`Rule::Block`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Block;

impl Arbitration for FetchAdd {
    const RULE: Rule = Rule::FetchAdd;
}
impl Arbitration for Gv4 {
    const RULE: Rule = Rule::Gv4;
}
impl Arbitration for Gv5 {
    const RULE: Rule = Rule::Gv5;
}
impl Arbitration for Block {
    const RULE: Rule = Rule::Block;
}

/// The classical global shared integer counter time base.
///
/// `getTime` is a single atomic load; `getNewTS` is a `fetch_add(1)` whose
/// result is strictly greater than every previously published timestamp,
/// satisfying the `getNewTS` contract trivially. The counter is cache-padded
/// so that the *only* sharing the benchmarks observe is the true sharing of
/// the counter itself, not false sharing with neighbouring data.
pub type SharedCounter = Counter<FetchAdd>;

/// TL2's **GV4** counter: on a failed timestamp-acquiring CAS the
/// transaction adopts the winner's timestamp instead of retrying (§1.2).
///
/// Sharing a commit timestamp is sound for time-based STMs because two
/// transactions may commit at the same time as long as they do not conflict
/// (§2.3) — and conflicting transactions are serialized by the object-level
/// write protocol, never by the counter. Two consequences for the
/// arbitration contract:
///
/// * **Every commit timestamp is [`CommitTs::Shared`] — winners included.**
///   A CAS winner's value is exactly what a concurrent loser adopts, so the
///   winner can never promise that no other committer holds its timestamp;
///   reporting it [`CommitTs::Exclusive`] would let engines skip read-set
///   validation (TL2's `wv == rv + 1` shortcut) while an adopter that holds
///   locks commits at the very same instant. This is why classic TL2
///   forbids the `rv + 1` shortcut under GV4.
/// * **The base is not commit-monotonic.** An adopted value equals a
///   counter value the winner already installed, so a reader can observe
///   `get_time` at the adopted timestamp before the loser commits with it.
///   Engines that issue forward validity claims (LSA's `getPrelimUB`)
///   must refuse this base, exactly like GV5; TL2, which re-checks every
///   read against `rv`, is the intended consumer.
pub type Gv4Counter = Counter<Gv4>;

/// TL2's **GV5** counter: the commit time is `read + 1` and the counter is
/// *never incremented on commit* — only [`ThreadClock::note_abort`] advances
/// it.
///
/// Commits therefore cause no shared-line invalidation at all
/// ([`ContentionClass::LoadOnly`]): the commit hot path is one load. The
/// price is that the counter lags the committed versions by design, so
/// readers whose snapshots stall behind a committed version abort once and
/// bump the counter on the way out (TL2's companion rule "increment GV on
/// abort") — the [`Gv5Counter::abort_bumps`] statistic counts those.
///
/// Every arbitration returns [`CommitTs::Shared`]: concurrent committers
/// that read the same counter value share `read + 1`, which is sound for
/// non-conflicting transactions (§2.3) and strictly exceeds every counter
/// value readable before the commit (the load happens after the committer
/// becomes visible — §2.4).
pub type Gv5Counter = Counter<Gv5>;

/// Default block size of [`BlockCounter`]: one cache line's worth of
/// timestamps per reservation.
pub const DEFAULT_TS_BLOCK: u64 = 64;

/// Batched-allocation counter: per-thread blocks of `k` timestamps from a
/// *reservation* counter, published to a separate *commit frontier* on use.
///
/// * refill: one `fetch_add(k)` on the reservation counter per `k`
///   commit timestamps — the amortized path.
/// * [`ThreadClock::get_time`]: a load of the commit *frontier* (only
///   published timestamps are readable, which is what makes block
///   reservation sound — see the module docs).
/// * [`ThreadClock::acquire_commit_ts`]: confirm the next block value `v`
///   with `fetch_max(frontier, v)`. Losing the `fetch_max` means another
///   committer published a higher timestamp first; the stale value is
///   discarded and the next fresh block value re-arbitrated (re-reserving
///   when the block runs dry). Commit timestamps are therefore never
///   shared: every confirmed value is [`CommitTs::Exclusive`], drawn from
///   this thread's disjoint reservation ([`Uniqueness::Unique`]), and
///   strictly exceeds everything previously readable (commit-monotonic).
pub type BlockCounter = Counter<Block>;

/// The words every clock of one counter shares.
#[derive(Debug)]
pub(crate) struct Shared {
    /// The readable word: `get_time` loads only this. For [`Rule::Block`]
    /// it is the commit frontier — the largest *published* timestamp, so
    /// unissued block values are never observable.
    word: CachePadded<AtomicU64>,
    /// [`Rule::Block`]'s allocation frontier: every reserved timestamp is
    /// ≤ this.
    reserve: CachePadded<AtomicU64>,
    /// The rule's event count: GV4 adoptions, GV5 abort bumps or block
    /// refills.
    events: CachePadded<AtomicU64>,
    /// [`Rule::Block`]'s reservation size.
    block: u64,
    /// The interconnect a priced counter charges.
    pub(crate) model: NumaModel,
    /// Priced: incremented on every write of the readable word; a thread
    /// whose cached copy of this value is stale has (in the model) had its
    /// cache line invalidated.
    line_version: CachePadded<AtomicU64>,
    /// Priced: registration id of the last writer (the modeled line owner).
    owner: CachePadded<AtomicU64>,
    /// Priced: the next registration id.
    next_id: AtomicU64,
}

/// A global counter time base whose commits arbitrate by `A`'s [`Rule`].
///
/// Every counter of this crate is one of these; the type aliases
/// ([`SharedCounter`], [`Gv4Counter`], [`Gv5Counter`], [`BlockCounter`],
/// [`crate::numa::NumaCounter`]) name the rules.
#[derive(Clone, Debug)]
pub struct Counter<A> {
    pub(crate) s: Arc<Shared>,
    rule: PhantomData<A>,
}

impl<A: Arbitration> Counter<A> {
    /// A counter starting at 1 (0 is never produced, so callers can use 0
    /// as an "unset" sentinel as the paper does with `T.CT ← 0`).
    pub(crate) fn with(block: u64, model: NumaModel) -> Self {
        let padded = |v| CachePadded::new(AtomicU64::new(v));
        let s = Shared {
            word: padded(1),
            reserve: padded(1),
            events: padded(0),
            block,
            model,
            line_version: padded(0),
            owner: padded(u64::MAX),
            next_id: AtomicU64::new(0),
        };
        Counter {
            s: Arc::new(s),
            rule: PhantomData,
        }
    }

    /// Current raw value of the readable word — the commit frontier for
    /// [`BlockCounter`] (for statistics/tests).
    pub fn current(&self) -> u64 {
        self.s.word.load(Ordering::SeqCst)
    }

    fn events(&self) -> u64 {
        self.s.events.load(Ordering::Relaxed)
    }
}

impl<A: Arbitration + Default> Default for Counter<A> {
    fn default() -> Self {
        Self::with(DEFAULT_TS_BLOCK, NumaModel::free())
    }
}

impl SharedCounter {
    /// Create a counter starting at 1.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Gv4Counter {
    /// Create a counter starting at 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many commit-time acquisitions returned a timestamp installed by
    /// another thread (i.e. how often the optimization actually fired).
    pub fn shared_acquisitions(&self) -> u64 {
        self.events()
    }
}

impl Gv5Counter {
    /// Create a counter starting at 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many aborts advanced the counter (the GV5 catch-up rule).
    pub fn abort_bumps(&self) -> u64 {
        self.events()
    }
}

impl BlockCounter {
    /// Create a block counter reserving `block` timestamps per refill.
    ///
    /// # Panics
    /// Panics if `block` is 0.
    pub fn new(block: u64) -> Self {
        assert!(block > 0, "block size must be positive");
        Self::with(block, NumaModel::free())
    }

    /// How many block reservations were performed (allocation RMWs). With
    /// `b` the block size and `c` exclusive commits, `refills ≈ c / b` when
    /// blocks stay fresh — the amortization the batching buys.
    pub fn refills(&self) -> u64 {
        self.events()
    }
}

impl<A: Arbitration> TimeBase for Counter<A> {
    type Ts = u64;
    type Clock = CounterClock<A>;

    fn register_thread(&self) -> CounterClock<A> {
        CounterClock {
            s: Arc::clone(&self.s),
            last_seen: 0,
            published: 0,
            next: 0,
            end: 0,
            id: if A::PRICED {
                self.s.next_id.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            cached_line: u64::MAX, // the first priced access is always a miss
            remote_misses: 0,
            rule: PhantomData,
        }
    }

    fn info(&self) -> TimeBaseInfo {
        use ContentionClass::*;
        use Uniqueness::*;
        let (name, uniqueness, contention, commit_monotonic) = match A::RULE {
            Rule::FetchAdd => ("shared-counter", Unique, SharedRmw, true),
            // An adopted value equals a counter value the winner already
            // installed, so a reader can observe get_time at the adopted
            // timestamp before the loser commits with it — a commit at a
            // value <= a previously readable reading. Engines whose
            // validity reasoning issues forward claims (LSA) reject this
            // base at construction; see DESIGN.md §8.
            Rule::Gv4 => ("gv4", SharedUnderContention, AdoptingRmw, false),
            // Commit times deliberately run ahead of the readable counter:
            // a commit at `read + 1` can be smaller than a version stamp
            // another thread already holds. Engines that issue forward
            // validity claims (LSA) must refuse this base.
            Rule::Gv5 => ("gv5", SharedUnderContention, LoadOnly, false),
            // Commit times come from disjoint per-thread reservations and
            // lost confirmations are discarded, never adopted — no two
            // acquisitions ever return the same value. A commit wins its
            // fetch_max only while the frontier is still below its value,
            // and readers only ever see the frontier — so every confirmed
            // commit time strictly exceeds everything previously readable.
            // This holds precisely because lost arbitrations re-arbitrate
            // instead of adopting.
            Rule::Block => ("block", Unique, AdoptingRmw, true),
        };
        TimeBaseInfo {
            name: if A::PRICED { "numa-counter" } else { name },
            uniqueness,
            contention,
            commit_monotonic,
        }
    }
}

/// Per-thread handle to a [`Counter`]: the rule's freshness state plus,
/// when priced, the modeled local cache state.
#[derive(Clone, Debug)]
pub struct CounterClock<A> {
    s: Arc<Shared>,
    /// Largest timestamp this thread has returned so far — for GV5 including
    /// *tentative* commit times from [`ThreadClock::acquire_commit_ts`]
    /// whose commits may yet fail. Freshness floor for generating new
    /// values (GV4's shared-on-failure path may only return values strictly
    /// greater than this); must never leak into GV5's readable counter (see
    /// `published`).
    last_seen: u64,
    /// GV5: largest timestamp known to back committed, readable state: the
    /// join of this thread's `get_time` readings and `observe_ts` stamps.
    /// [`ThreadClock::note_abort`] may advance the shared counter only to
    /// here + 1 — tentative commit times of attempts that later fail
    /// validation back no committed data and must stay unreadable.
    published: u64,
    /// Block: next unissued value of the current block (0 = no block).
    next: u64,
    /// Block: one past the last value of the current block.
    end: u64,
    /// Priced: this clock's registration id.
    id: u64,
    /// Priced: the line version this thread last observed.
    cached_line: u64,
    /// Priced: modeled remote misses this thread has paid.
    remote_misses: u64,
    rule: PhantomData<A>,
}

impl<A: Arbitration> CounterClock<A> {
    /// Modeled remote misses paid by this thread so far (0 unless priced).
    pub fn remote_misses(&self) -> u64 {
        self.remote_misses
    }

    /// The runtime's one read of the counter line: a load of the readable
    /// word. Priced, it misses when the line was invalidated by a writer on
    /// another node since this thread last read it.
    #[inline]
    fn load(&mut self) -> u64 {
        if A::PRICED {
            let miss = self.s.line_version.load(Ordering::Acquire) != self.cached_line;
            self.charge(miss);
            if miss {
                self.cached_line = self.s.line_version.load(Ordering::Acquire);
            }
        }
        self.s.word.load(Ordering::Acquire)
    }

    /// The runtime's one write of the counter line: `op` on the readable
    /// word. Priced, it is a read-for-ownership: if another thread owns the
    /// line (it wrote last), fetching it exclusively costs a remote
    /// transfer, and the write invalidates every other copy.
    #[inline]
    fn rmw<R>(&mut self, op: impl FnOnce(&AtomicU64) -> R) -> R {
        if !A::PRICED {
            return op(&self.s.word);
        }
        self.charge(self.s.owner.load(Ordering::Acquire) != self.id);
        let r = op(&self.s.word);
        self.s.owner.store(self.id, Ordering::Release);
        // Our own write leaves the line in our cache in modified state.
        self.cached_line = self.s.line_version.fetch_add(1, Ordering::AcqRel) + 1;
        r
    }

    /// Spin for one modeled access: a remote transfer on a miss, a local
    /// hit otherwise.
    fn charge(&mut self, miss: bool) {
        let m = self.s.model;
        spin_for_ns(if miss { m.remote_ns } else { m.local_ns });
        self.remote_misses += u64::from(miss);
    }

    /// The GV4 arbitration loop: CAS to increment; on failure, adopt the
    /// observed winner value when it is fresh for this thread (strictly
    /// above both `floor` and everything previously returned).
    ///
    /// Every outcome — the winner's included — is [`CommitTs::Shared`]: a
    /// concurrent loser adopts exactly the value a winner installs, so no
    /// GV4 timestamp can carry the [`CommitTs::Exclusive`] guarantee that
    /// no other committer holds it.
    #[inline]
    fn gv4(&mut self, floor: u64) -> CommitTs<u64> {
        let floor = floor.max(self.last_seen);
        let mut cur = self.load();
        loop {
            match self
                .rmw(|w| w.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire))
            {
                Ok(_) => {
                    self.last_seen = self.last_seen.max(cur + 1);
                    return CommitTs::Shared(cur + 1);
                }
                Err(observed) => {
                    // GV4: adopt the winner's timestamp — but only if it
                    // satisfies the strict getNewTS contract for this
                    // thread and exceeds the caller's own observations.
                    if observed > floor {
                        self.s.events.fetch_add(1, Ordering::Relaxed);
                        self.last_seen = observed;
                        return CommitTs::Shared(observed);
                    }
                    cur = observed;
                }
            }
        }
    }

    /// Reserve a fresh block `(base, base + block]` from the allocation
    /// frontier.
    fn refill(&mut self) -> u64 {
        self.s.events.fetch_add(1, Ordering::Relaxed);
        self.s.reserve.fetch_add(self.s.block, Ordering::AcqRel)
    }

    /// The block arbitration loop: confirm the next fresh block value on
    /// the published frontier, discarding stale values.
    fn block(&mut self, observed: u64) -> CommitTs<u64> {
        let mut floor = self.load().max(self.last_seen).max(observed);
        loop {
            // Skip block values at or below the floor: they are stale —
            // readers may already have observed the frontier past them.
            if self.next <= floor {
                self.next = floor + 1;
            }
            if self.next >= self.end {
                // Block exhausted (or fully stale): reserve a new one. The
                // reservation frontier is ≥ every reserved — hence every
                // published — timestamp, so the new block starts above
                // `floor` whenever the floor came from published values;
                // the skip-forward above handles the remaining case of a
                // caller-supplied `observed` floor inside the new block.
                let base = self.refill();
                self.next = base + 1;
                self.end = base + self.s.block + 1;
                if self.next <= floor {
                    self.next = floor + 1;
                }
                if self.next >= self.end {
                    continue;
                }
            }
            let v = self.next;
            self.next += 1;
            // Confirm: publish v as the new commit frontier. Winning the
            // fetch_max means no reader could have observed a frontier ≥ v
            // before now — and v comes from this thread's disjoint
            // reservation, so no other committer ever holds it: a sound,
            // exclusively owned, commit-monotonic commit time.
            let prev = self.rmw(|w| w.fetch_max(v, Ordering::AcqRel));
            if prev < v {
                self.last_seen = self.last_seen.max(v);
                return CommitTs::Exclusive(v);
            }
            // Lost: another committer published prev ≥ v first, so v is
            // stale — a reader may already have observed the frontier at
            // prev. Discard it and re-arbitrate with the next fresh block
            // value. Adopting prev GV4-style would be unsound twice over:
            // this commit would land at a previously readable value
            // (forfeiting commit monotonicity), and the winner's exclusive
            // timestamp would be handed to a second committer (forfeiting
            // the Exclusive contract engines build fast paths on).
            self.last_seen = self.last_seen.max(prev);
            floor = prev.max(floor);
        }
    }
}

impl<A: Arbitration> ThreadClock for CounterClock<A> {
    type Ts = u64;

    #[inline]
    fn get_time(&mut self) -> u64 {
        // Acquire: a transaction that observes counter value t must also
        // observe all writes of the transactions that committed at <= t.
        // Under GV5 and block the word holds *published* time only: own
        // commit times, observed stamps and raw block reservations are
        // deliberately not returned — handing unpublished times to readers
        // would let snapshots claim validity at times later commits can
        // still undercut. Successive loads of the monotone word keep
        // `get_time` non-decreasing per thread.
        let t = self.load();
        if !matches!(A::RULE, Rule::FetchAdd) {
            self.last_seen = self.last_seen.max(t);
        }
        if matches!(A::RULE, Rule::Gv5) {
            self.published = self.published.max(t);
        }
        t
    }

    #[inline]
    fn get_new_ts(&mut self) -> u64 {
        match A::RULE {
            // AcqRel: the increment both publishes our commit (Release) and
            // brings us up to date with earlier committers (Acquire).
            Rule::FetchAdd => self.rmw(|w| w.fetch_add(1, Ordering::AcqRel)) + 1,
            _ => self.acquire_commit_ts(self.last_seen).ts(),
        }
    }

    #[inline]
    fn acquire_commit_ts(&mut self, observed: u64) -> CommitTs<u64> {
        match A::RULE {
            // fetch_add results are globally unique, so the arbitration
            // outcome is always exclusive — no tricks, full cache-line
            // contention. `observed` is always exceeded: the counter is >=
            // any reading.
            Rule::FetchAdd => CommitTs::Exclusive(self.get_new_ts()),
            Rule::Gv4 => self.gv4(observed),
            Rule::Gv5 => {
                // Tentative phase: read the counter fresh (after the caller
                // became visible as a committer); confirmed phase: nothing
                // to win — the value is `read + 1`, shared with every
                // committer that read the same counter value. The result
                // goes into `last_seen` only: it is tentative until the
                // engine's validation passes, so it must not raise the
                // `published` floor note_abort feeds the counter from.
                let g = self.load();
                self.published = self.published.max(g);
                let v = g.max(self.last_seen).max(observed) + 1;
                self.last_seen = v;
                CommitTs::Shared(v)
            }
            Rule::Block => self.block(observed),
        }
    }

    #[inline]
    fn observe_ts(&mut self, ts: u64) {
        // GV5: a version stamp the engine read from shared state is a real
        // commit time backing committed data, so folding it into both
        // floors is sound and lets one abort catch this clock up however
        // far the versions ran ahead.
        if matches!(A::RULE, Rule::Gv5) {
            self.last_seen = self.last_seen.max(ts);
            self.published = self.published.max(ts);
        }
    }

    #[inline]
    fn note_abort(&mut self) {
        if !matches!(A::RULE, Rule::Gv5) {
            return;
        }
        // TL2's GV5 companion rule: an abort advances the clock so the
        // retry observes a fresh enough time to reach the versions that
        // made it abort (including any stamp fed in via `observe_ts`). The
        // bump target is the *published* frontier plus one — NOT
        // `last_seen`, which also holds tentative commit times from
        // acquire_commit_ts. TL2 acquires `wv` before validating and calls
        // note_abort when validation fails; bumping past such a `wv` would
        // make get_time exceed timestamps that back no committed data and
        // hand readers an rv at an in-flight committer's commit time.
        let target = self.published + 1;
        // Only an abort that actually moved the counter is a bump.
        if self.rmw(|w| w.fetch_max(target, Ordering::AcqRel)) < target {
            self.s.events.fetch_add(1, Ordering::Relaxed);
        }
        // The counter itself is now readable at >= target.
        self.published = target;
        self.last_seen = self.last_seen.max(target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_above_zero() {
        let tb = SharedCounter::new();
        let mut c = tb.register_thread();
        assert!(c.get_time() >= 1);
    }

    #[test]
    fn get_new_ts_is_strictly_increasing_per_thread() {
        let tb = SharedCounter::new();
        let mut c = tb.register_thread();
        let mut last = c.get_time();
        for _ in 0..100 {
            let t = c.get_new_ts();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn get_time_sees_other_threads_commits() {
        let tb = SharedCounter::new();
        let mut a = tb.register_thread();
        let mut b = tb.register_thread();
        let t1 = a.get_new_ts();
        assert!(b.get_time() >= t1);
    }

    #[test]
    fn concurrent_new_ts_are_unique_for_plain_counter() {
        let tb = SharedCounter::new();
        let threads = 4;
        let per = 10_000;
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let mut clk = tb.register_thread();
                    s.spawn(move || (0..per).map(|_| clk.get_new_ts()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            threads * per,
            "plain counter timestamps are unique"
        );
    }

    #[test]
    fn gv4_counter_monotonic_per_thread_under_contention() {
        let tb = Gv4Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut clk = tb.register_thread();
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let t = clk.get_new_ts();
                        assert!(t > last, "strictly increasing per thread");
                        last = t;
                    }
                });
            }
        });
    }

    #[test]
    fn gv4_counter_may_share_timestamps() {
        let tb = Gv4Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut clk = tb.register_thread();
                s.spawn(move || {
                    for _ in 0..50_000 {
                        clk.get_new_ts();
                    }
                });
            }
        });
        // With 4 threads hammering the counter some CASes fail; we only check
        // that the statistic is wired up (0 is possible on a 1-CPU box, so
        // don't assert > 0 — just that the total adds up).
        let issued = tb.current() - 1;
        let shared = tb.shared_acquisitions();
        assert_eq!(issued + shared, 4 * 50_000);
    }

    #[test]
    fn gv4_arbitration_never_claims_exclusivity() {
        // Even an uncontended CAS winner's value is exactly what a
        // concurrent loser would adopt, so GV4 must not report Exclusive —
        // engines build validation-skip fast paths on that claim.
        let tb = Gv4Counter::new();
        let mut c = tb.register_thread();
        let observed = c.get_time();
        let ct = c.acquire_commit_ts(observed);
        assert!(ct.is_shared(), "GV4 commit times are shared-class");
        assert!(ct.ts() > observed);
    }

    #[test]
    fn gv5_commit_never_advances_the_counter() {
        let tb = Gv5Counter::new();
        let mut c = tb.register_thread();
        let g0 = tb.current();
        let t0 = c.get_time();
        let ct = c.acquire_commit_ts(t0);
        assert!(ct.is_shared(), "GV5 commit times are shared-class");
        assert_eq!(ct.ts(), g0 + 1, "commit = read + 1");
        assert_eq!(tb.current(), g0, "counter unchanged by commit");
        // Successive commits on the same thread stay strictly increasing
        // even while the counter stands still.
        let t1 = c.get_time();
        let ct2 = c.acquire_commit_ts(t1);
        assert!(ct2.ts() > ct.ts());
        assert_eq!(tb.current(), g0);
    }

    #[test]
    fn gv5_note_abort_bumps_the_counter() {
        let tb = Gv5Counter::new();
        let mut w = tb.register_thread();
        let mut r = tb.register_thread();
        let w0 = w.get_time();
        let ct = w.acquire_commit_ts(w0).ts();
        assert!(r.get_time() < ct, "reader lags the committed version");
        // The reader's failed attempt advances the clock...
        r.note_abort();
        assert!(tb.abort_bumps() >= 1);
        // ...and a retry by a third party now observes a fresh enough time
        // after enough bumps (one per lagging unit here).
        let mut r2 = tb.register_thread();
        assert!(r2.get_time() >= ct.saturating_sub(1));
    }

    #[test]
    fn gv5_abort_bumps_count_only_advances() {
        // Two clocks abort from the same reading: the first moves the
        // counter, the second finds it already at its target — one bump.
        let tb = Gv5Counter::new();
        let mut a = tb.register_thread();
        let mut b = tb.register_thread();
        assert_eq!(a.get_time(), b.get_time());
        a.note_abort();
        b.note_abort();
        assert_eq!(tb.current(), 2);
        assert_eq!(tb.abort_bumps(), 1);
    }

    #[test]
    fn gv5_abort_bump_stops_at_the_published_frontier() {
        // Regression: TL2 acquires wv before validating and calls
        // note_abort when validation fails. Such a wv backs no committed
        // data, so the abort bump must not push the readable counter past
        // it — only one past the published frontier (get_time readings and
        // observe_ts stamps).
        let tb = Gv5Counter::new();
        let mut c = tb.register_thread();
        let t0 = c.get_time();
        let mut wv = 0;
        for _ in 0..3 {
            // Three tentative commit times whose commits all "fail":
            // last_seen runs ahead to 4 while nothing was published.
            wv = c.acquire_commit_ts(t0).ts();
        }
        assert_eq!(wv, 4);
        c.note_abort();
        assert_eq!(
            tb.current(),
            2,
            "abort may advance the counter one past the published frontier only"
        );
        // Once a stamp is known to back committed data (observe_ts), one
        // abort reaches past it as before.
        c.observe_ts(wv);
        c.note_abort();
        assert!(tb.current() > wv);
    }

    #[test]
    fn gv5_commit_exceeds_every_prior_reading() {
        let tb = Gv5Counter::new();
        let mut a = tb.register_thread();
        let mut b = tb.register_thread();
        for _ in 0..200 {
            let before = a.get_time();
            let b0 = b.get_time();
            let fresh = b.acquire_commit_ts(b0).ts();
            assert!(fresh > before, "commit time must exceed prior readings");
            b.note_abort(); // keep the counter moving so readings vary
        }
    }

    #[test]
    fn block_counter_commit_ts_are_exclusive_and_unique() {
        // Lost confirmations are discarded, never adopted: every
        // acquisition is Exclusive and no value is ever handed out twice.
        let tb = BlockCounter::new(8);
        let threads = 4;
        let per = 10_000usize;
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let mut clk = tb.register_thread();
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for _ in 0..per {
                            let observed = clk.get_time();
                            let ct = clk.acquire_commit_ts(observed);
                            assert!(!ct.is_shared(), "block commits are never shared");
                            out.push(ct.ts());
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let n = all.len();
        assert_eq!(n, threads * per);
        all.sort_unstable();
        all.dedup();
        assert_eq!(n, all.len(), "commit times must be unique");
    }

    #[test]
    fn block_counter_amortizes_allocation_when_uncontended() {
        let tb = BlockCounter::new(64);
        let mut c = tb.register_thread();
        for _ in 0..640 {
            let observed = c.get_time();
            c.acquire_commit_ts(observed);
        }
        // 640 commits at block size 64: at most a handful of reservations
        // beyond the ideal 10 (staleness skips can cost a few extra).
        assert!(
            tb.refills() <= 20,
            "expected ~10 refills for 640 commits, got {}",
            tb.refills()
        );
    }

    #[test]
    fn block_counter_commit_exceeds_observed_and_history() {
        let tb = BlockCounter::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut clk = tb.register_thread();
                s.spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..5_000 {
                        let observed = clk.get_time();
                        let ct = clk.acquire_commit_ts(observed);
                        assert!(ct.ts() > observed, "commit must exceed observation");
                        assert!(ct.ts() > last, "strictly increasing per thread");
                        last = ct.ts();
                    }
                });
            }
        });
    }

    #[test]
    fn block_counter_readers_only_see_published_frontier() {
        let tb = BlockCounter::new(16);
        let mut w = tb.register_thread();
        let mut r = tb.register_thread();
        // A commit reserves a whole block of 16 but publishes only the
        // value it uses: readers observe that value, never the rest of the
        // reservation.
        let before = r.get_time();
        let w1 = w.get_time();
        let ct = w.acquire_commit_ts(w1).ts();
        assert_eq!(tb.refills(), 1, "the commit reserved one block");
        assert!(ct > before);
        assert_eq!(r.get_time(), ct, "the unused reservation is unobservable");
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_is_rejected() {
        let _ = BlockCounter::new(0);
    }

    #[test]
    fn info_names_match_registry_expectations() {
        assert_eq!(SharedCounter::new().name(), "shared-counter");
        assert_eq!(Gv4Counter::new().name(), "gv4");
        assert_eq!(Gv5Counter::new().name(), "gv5");
        assert_eq!(BlockCounter::default().name(), "block");
        assert_eq!(
            SharedCounter::new().info().contention,
            ContentionClass::SharedRmw
        );
        assert_eq!(
            Gv5Counter::new().info().contention,
            ContentionClass::LoadOnly
        );
        // The whole descriptor of every counter, one row per base.
        use crate::numa::{NumaCounter, NumaModel};
        use ContentionClass::*;
        use Uniqueness::*;
        let numa = NumaCounter::new(NumaModel::free());
        let rows = [
            (
                SharedCounter::new().info(),
                "shared-counter",
                Unique,
                SharedRmw,
                true,
            ),
            (
                Gv4Counter::new().info(),
                "gv4",
                SharedUnderContention,
                AdoptingRmw,
                false,
            ),
            (
                Gv5Counter::new().info(),
                "gv5",
                SharedUnderContention,
                LoadOnly,
                false,
            ),
            (
                BlockCounter::default().info(),
                "block",
                Unique,
                AdoptingRmw,
                true,
            ),
            (numa.info(), "numa-counter", Unique, SharedRmw, true),
        ];
        for (info, name, uniqueness, contention, commit_monotonic) in rows {
            let want = TimeBaseInfo {
                name,
                uniqueness,
                contention,
                commit_monotonic,
            };
            assert_eq!(info, want, "descriptor of {name}");
        }
    }
}
