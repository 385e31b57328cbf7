//! Flight-recorder transaction tracer: fixed-size per-thread rings of
//! compact lifecycle events, sampled, dumpable on demand or on anomaly.
//!
//! # Recording model
//!
//! Every thread that emits events lazily registers one ring of
//! [`RING_SLOTS`] slots; a slot is two `AtomicU64`s (packed
//! kind/class/payload word + nanosecond timestamp). Recording is two
//! `Relaxed` stores into the thread's **own** ring — no shared cache line
//! is ever written by two threads, which is what keeps `all`-sampling
//! usable on the serving path and 1-in-N sampling within noise.
//!
//! # Overwrite semantics
//!
//! The ring never blocks and never grows: slot `head % RING_SLOTS` is
//! overwritten unconditionally, so each ring always holds the *most
//! recent* ~[`RING_SLOTS`] events of its thread — a flight recorder, not a
//! log. [`dump`] reads rings with `Relaxed` loads while writers may still
//! be appending; a dump that races a writer can observe a torn slot (new
//! packed word with the previous timestamp, or vice versa) or miss the
//! in-flight event. That is the documented trade: dumps are a forensic
//! best-effort view, the hot path pays nothing for them.
//!
//! # Sampling
//!
//! Controlled by `LSA_TRACE` (read once, overridable via
//! [`set_sampling`]): `off`/`0` disables, `all`/`1` records every
//! transaction, `N` records one transaction in `N`. The default (unset) is
//! 1-in-[`DEFAULT_ONE_IN`] — tracing is *on* by default; `obs_bench` and
//! the CI overhead smoke exist to prove that is affordable. The
//! per-transaction decision is made once at [`txn_begin`] and cached in
//! TLS, so every later event site in a non-sampled transaction costs one
//! thread-local flag read. Events outside a transaction (queue
//! enqueue/dequeue) sample independently via [`event_sampled`]; rare
//! anomalies (sheds) use [`event`], which records whenever tracing is
//! enabled at all — anomalies are exactly what a flight recorder is for.

use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Slots per thread ring (~64 KiB per thread: 2 words × 4096).
pub const RING_SLOTS: usize = 4096;

/// Default sampling rate when `LSA_TRACE` is unset: one transaction in 64.
pub const DEFAULT_ONE_IN: u32 = 64;

/// Compact transaction / serving-path lifecycle event kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A sampled transaction attempt started (payload: txn id).
    TxnBegin = 1,
    /// A full read-set (re)validation ran (payload: txn id).
    Validate = 2,
    /// A snapshot extension ran (payload: txn id).
    Extend = 3,
    /// The attempt aborted (class: the engine's abort-reason index — for
    /// the lsa engines, `AbortReason::ALL` order: 0 no-version, 1 snapshot,
    /// 2 validation, 3 cm-loser, 4 killed, 5 explicit; payload: txn id).
    /// Admission-control sheds are [`EventKind::Shed`], not aborts.
    Abort = 4,
    /// The attempt committed (class: 1 if read-only; payload: txn id).
    Commit = 5,
    /// The time base arbitrated an exclusively-owned commit timestamp
    /// (payload: the timestamp, low 48 bits).
    CtsExclusive = 6,
    /// The time base arbitrated a shared commit timestamp — GV4 adoption,
    /// GV5 read-derived (payload: the timestamp, low 48 bits).
    CtsShared = 7,
    /// A request was admitted into a service queue (payload: queue index).
    Enqueue = 8,
    /// A worker dequeued a batch (payload: batch length).
    Dequeue = 9,
    /// Admission control shed a request (payload: queue index).
    Shed = 10,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::TxnBegin,
            2 => EventKind::Validate,
            3 => EventKind::Extend,
            4 => EventKind::Abort,
            5 => EventKind::Commit,
            6 => EventKind::CtsExclusive,
            7 => EventKind::CtsShared,
            8 => EventKind::Enqueue,
            9 => EventKind::Dequeue,
            10 => EventKind::Shed,
            _ => return None,
        })
    }
}

/// Tracer sampling mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// Record nothing; event sites cost one relaxed atomic load.
    Off,
    /// Record every transaction.
    All,
    /// Record one transaction in `N` (`N >= 2`).
    OneIn(u32),
}

/// A decoded trace event, as returned by [`dump`].
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch (first traced event).
    pub ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific class byte (abort reason, read-only flag).
    pub class: u8,
    /// Kind-specific payload (txn id, timestamp, queue index), 48 bits.
    pub payload: u64,
    /// Ring (≈ thread) index the event was recorded on.
    pub thread: usize,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>12} ns  t{:<3} {:?} class={} payload={}",
            self.ns, self.thread, self.kind, self.class, self.payload
        )
    }
}

/// Sampling mode encoding in one atomic: `u32::MAX` = uninitialized (read
/// `LSA_TRACE` on first use), 0 = off, 1 = all, n = one-in-n.
static MODE: AtomicU32 = AtomicU32::new(u32::MAX);

fn parse_env() -> u32 {
    match std::env::var("LSA_TRACE") {
        Err(_) => DEFAULT_ONE_IN,
        Ok(v) => match v.trim() {
            "off" | "0" => 0,
            "all" | "1" => 1,
            n => n.parse::<u32>().ok().filter(|&n| n >= 2).unwrap_or(0),
        },
    }
}

#[inline]
fn mode() -> u32 {
    let m = MODE.load(Ordering::Relaxed);
    if m != u32::MAX {
        return m;
    }
    let parsed = parse_env();
    // Racing initializers agree (env is stable); last store wins harmlessly.
    let _ = MODE.compare_exchange(u32::MAX, parsed, Ordering::Relaxed, Ordering::Relaxed);
    MODE.load(Ordering::Relaxed)
}

/// Override the sampling mode process-wide (benches, tests, ops).
pub fn set_sampling(s: Sampling) {
    let m = match s {
        Sampling::Off => 0,
        Sampling::All => 1,
        Sampling::OneIn(n) => n.max(2),
    };
    MODE.store(m, Ordering::Relaxed);
}

/// Whether tracing is enabled at any rate.
#[inline]
pub fn enabled() -> bool {
    mode() != 0
}

struct Slot {
    packed: AtomicU64,
    ns: AtomicU64,
}

struct ThreadRing {
    id: usize,
    slots: Box<[Slot]>,
    /// Total events written; only this ring's owner thread stores it.
    head: AtomicU64,
}

static RING_IDS: AtomicUsize = AtomicUsize::new(0);

fn rings() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static MY_RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
    static TXN_SAMPLED: Cell<bool> = const { Cell::new(false) };
    static TXN_TICK: Cell<u32> = const { Cell::new(0) };
    static EV_TICK: Cell<u32> = const { Cell::new(0) };
}

const PAYLOAD_MASK: u64 = (1 << 48) - 1;

fn emit_raw(kind: EventKind, class: u8, payload: u64) {
    let ns = epoch().elapsed().as_nanos() as u64;
    let packed = ((kind as u64) << 56) | ((class as u64) << 48) | (payload & PAYLOAD_MASK);
    MY_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(ThreadRing {
                id: RING_IDS.fetch_add(1, Ordering::Relaxed),
                slots: (0..RING_SLOTS)
                    .map(|_| Slot {
                        packed: AtomicU64::new(0),
                        ns: AtomicU64::new(0),
                    })
                    .collect(),
                head: AtomicU64::new(0),
            });
            rings()
                .lock()
                .expect("trace rings poisoned")
                .push(Arc::clone(&ring));
            ring
        });
        // Single-writer ring: load+store, no RMW. Dumps may race (torn
        // slots are documented flight-recorder semantics).
        let head = ring.head.load(Ordering::Relaxed);
        let slot = &ring.slots[(head as usize) % RING_SLOTS];
        slot.ns.store(ns, Ordering::Relaxed);
        slot.packed.store(packed, Ordering::Relaxed);
        ring.head.store(head + 1, Ordering::Relaxed);
    });
}

/// Per-transaction sampling decision, made once per attempt. Emits
/// [`EventKind::TxnBegin`] and returns `true` when this attempt is
/// sampled; all later [`txn_event`] calls on this thread are recorded
/// until the next `txn_begin` decides otherwise.
#[inline]
pub fn txn_begin(id: u64) -> bool {
    let m = mode();
    let hit = match m {
        0 => false,
        1 => true,
        n => TXN_TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v % n == 0
        }),
    };
    TXN_SAMPLED.with(|s| s.set(hit));
    if hit {
        emit_raw(EventKind::TxnBegin, 0, id);
    }
    hit
}

/// Record a lifecycle event iff the current transaction attempt was
/// sampled by [`txn_begin`] — one TLS flag read when it was not.
#[inline]
pub fn txn_event(kind: EventKind, class: u8, payload: u64) {
    if TXN_SAMPLED.with(|s| s.get()) {
        emit_raw(kind, class, payload);
    }
}

/// Record a non-transactional event (enqueue/dequeue) with its own
/// independent 1-in-N decision.
#[inline]
pub fn event_sampled(kind: EventKind, class: u8, payload: u64) {
    match mode() {
        0 => {}
        1 => emit_raw(kind, class, payload),
        n => EV_TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            if v % n == 0 {
                emit_raw(kind, class, payload);
            }
        }),
    }
}

/// Record an anomaly-class event (shed) whenever tracing is enabled at
/// all — rare events are recorded at every sampling rate.
#[inline]
pub fn event(kind: EventKind, class: u8, payload: u64) {
    if mode() != 0 {
        emit_raw(kind, class, payload);
    }
}

/// Decode every ring into a single time-sorted event list (best-effort:
/// concurrent writers may tear the slots they are overwriting).
pub fn dump() -> Vec<TraceEvent> {
    let rings = rings().lock().expect("trace rings poisoned");
    let mut out = Vec::new();
    for ring in rings.iter() {
        let head = ring.head.load(Ordering::Relaxed) as usize;
        let (start, len) = if head > RING_SLOTS {
            (head, RING_SLOTS)
        } else {
            (0, head)
        };
        for i in 0..len {
            let slot = &ring.slots[(start + i) % RING_SLOTS];
            let packed = slot.packed.load(Ordering::Relaxed);
            let ns = slot.ns.load(Ordering::Relaxed);
            let Some(kind) = EventKind::from_u8((packed >> 56) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                ns,
                kind,
                class: ((packed >> 48) & 0xff) as u8,
                payload: packed & PAYLOAD_MASK,
                thread: ring.id,
            });
        }
    }
    out.sort_by_key(|e| e.ns);
    out
}

/// Zero every registered ring (benches and tests; racy against concurrent
/// writers, like everything else on the dump side).
pub fn clear() {
    let rings = rings().lock().expect("trace rings poisoned");
    for ring in rings.iter() {
        for slot in ring.slots.iter() {
            slot.packed.store(0, Ordering::Relaxed);
            slot.ns.store(0, Ordering::Relaxed);
        }
        ring.head.store(0, Ordering::Relaxed);
    }
}

/// Anomaly hook: when tracing is enabled *and* `LSA_TRACE_DUMP` is set in
/// the environment, dump the most recent `max` events to stderr tagged
/// with `reason`. Callers invoke this on shutdown-with-sheds or tail-
/// latency blow-ups; with `LSA_TRACE_DUMP` unset it is a no-op beyond the
/// enabled check, so production runs decide explicitly to be noisy.
pub fn anomaly(reason: &str, max: usize) {
    if !enabled() || std::env::var_os("LSA_TRACE_DUMP").is_none() {
        return;
    }
    let events = dump();
    let skip = events.len().saturating_sub(max);
    eprintln!(
        "[lsa-obs] anomaly ({reason}): dumping last {} of {} trace events",
        events.len() - skip,
        events.len()
    );
    for e in &events[skip..] {
        eprintln!("[lsa-obs]   {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; tests that flip sampling serialize.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn all_sampling_records_the_lifecycle() {
        let _g = lock();
        set_sampling(Sampling::All);
        let marker = 0x00C0FFEE;
        assert!(txn_begin(marker));
        txn_event(EventKind::Extend, 0, marker);
        txn_event(EventKind::Commit, 1, marker);
        let ours: Vec<_> = dump().into_iter().filter(|e| e.payload == marker).collect();
        assert!(ours.iter().any(|e| e.kind == EventKind::TxnBegin));
        assert!(ours.iter().any(|e| e.kind == EventKind::Extend));
        assert!(ours
            .iter()
            .any(|e| e.kind == EventKind::Commit && e.class == 1));
        // Time-sorted within the dump.
        assert!(ours.windows(2).all(|w| w[0].ns <= w[1].ns));
        set_sampling(Sampling::Off);
    }

    #[test]
    fn off_records_nothing_and_one_in_n_downsamples() {
        let _g = lock();
        set_sampling(Sampling::Off);
        let marker = 0x00BEEF00;
        assert!(!txn_begin(marker));
        txn_event(EventKind::Commit, 0, marker);
        event_sampled(EventKind::Enqueue, 0, marker);
        assert!(dump().iter().all(|e| e.payload != marker));

        set_sampling(Sampling::OneIn(8));
        let mut sampled = 0u32;
        for _ in 0..800 {
            if txn_begin(marker + 1) {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 100, "1-in-8 is deterministic per thread");
        set_sampling(Sampling::Off);
    }

    #[test]
    fn ring_overwrites_keep_the_most_recent_events() {
        let _g = lock();
        set_sampling(Sampling::All);
        // The payload namespace marks our events; overfill the ring.
        let base = 0x0A000000u64;
        for i in 0..(RING_SLOTS as u64 + 500) {
            assert!(txn_begin(base + i));
        }
        let ours: Vec<_> = dump()
            .into_iter()
            .filter(|e| e.payload >= base && e.payload < base + RING_SLOTS as u64 + 500)
            .collect();
        assert!(ours.len() <= RING_SLOTS);
        // The newest event survived; the oldest were overwritten.
        assert!(ours
            .iter()
            .any(|e| e.payload == base + RING_SLOTS as u64 + 499));
        assert!(ours.iter().all(|e| e.payload >= base + 500));
        set_sampling(Sampling::Off);
    }

    #[test]
    fn anomaly_events_record_at_any_enabled_rate() {
        let _g = lock();
        set_sampling(Sampling::OneIn(1_000_000));
        let marker = 0x0051ED00;
        event(EventKind::Shed, 0, marker);
        assert!(dump()
            .iter()
            .any(|e| e.kind == EventKind::Shed && e.payload == marker));
        set_sampling(Sampling::Off);
    }
}
