//! The transaction service: a worker pool over any [`TxnEngine`].
//!
//! Clients on any thread [`submit`](TxnService::submit) transactional work;
//! the service routes it through bounded per-worker submission queues to a
//! pool of threads, each holding one long-lived registered
//! [`EngineHandle`] — the paper's "many concurrent clients, few STM
//! threads" serving shape. Every queued job is one boxed [`RunRequest`]:
//! a closure submission rides in a private adapter that carries its
//! oneshot sender, so clients block on [`Completion::wait`] or probe with
//! [`Completion::try_take`]; pooled records deliver their own results.
//!
//! Admission control is explicit: a full queue sheds the request with a
//! typed [`SubmitError::Overloaded`] instead of queueing unboundedly —
//! under open-loop load you want a shed rate and bounded queueing delay,
//! not a latency curve that grows with the backlog. Sheds are accounted as
//! [`lsa_engine::AbortClass::Overload`] in the service's merged statistics.
//!
//! Requests are routed round-robin, or *shard-affinely* when the engine is
//! sharded ([`TxnEngine::shards`] > 1) and the client passes a shard hint:
//! all requests for one shard land on one worker, so single-shard
//! transactions from different clients stop colliding across the pool.

use crate::oneshot;
use crate::queue::{BoundedQueue, PushError};
use crossbeam_utils::CachePadded;
use lsa_engine::{EngineHandle, EngineStats, StatsDomain, TxnEngine};
use lsa_obs::registry::{Counter, MetricsRegistry};
use lsa_obs::trace::{self, EventKind};
use lsa_obs::LatencyHistogram;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Jobs a worker claims from its queue per wakeup (see the batched run loop
/// in [`TxnService::start`]).
const WORKER_BATCH: usize = 32;

/// Service construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads (each registers one engine handle).
    pub workers: usize,
    /// Bounded depth of each worker's submission queue; pushes past it shed
    /// with [`SubmitError::Overloaded`].
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            queue_depth: 1024,
        }
    }
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control shed the request: the target worker's queue is at
    /// capacity. Counted in [`ServiceReport::shed`] and as
    /// [`lsa_engine::AbortClass::Overload`].
    Overloaded,
    /// The service is shutting down; no new work is accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => f.write_str("request shed: submission queue full"),
            SubmitError::Closed => f.write_str("service closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A completed request: the body's return value plus the end-to-end
/// latency (submission to completion, queueing included).
#[derive(Clone, Copy, Debug)]
pub struct Response<R> {
    /// What the request body returned.
    pub value: R,
    /// Submission-to-completion latency as the worker measured it.
    pub latency: Duration,
}

/// The client's handle on an in-flight request, resolving to
/// `Result<Response<R>, Canceled>` (canceled only if the service shuts
/// down before running the request).
pub struct Completion<R> {
    rx: oneshot::Receiver<Response<R>>,
}

impl<R> Completion<R> {
    /// Block the calling thread until the response arrives.
    pub fn wait(self) -> Result<Response<R>, oneshot::Canceled> {
        self.rx.wait()
    }

    /// Non-blocking probe.
    pub fn try_take(&mut self) -> Option<Result<Response<R>, oneshot::Canceled>> {
        self.rx.try_recv()
    }
}

/// The one kind of work a service queue holds.
///
/// A record is submitted with [`TxnService::submit_record`], executed once
/// on a worker's engine handle, and then handed back to wherever it came
/// from via [`recycle`](RunRequest::recycle) — a pooled type pushes itself
/// into a [`Pool`](crate::Pool) it carries a handle to, so at steady state
/// the serving path performs no per-request heap allocation. The record's
/// `run` body delivers its own result (the wire server's records encode
/// the reply and push it onto the connection's out queue; a closure
/// submission's adapter sends it down the [`Completion`]'s oneshot).
pub trait RunRequest<E: TxnEngine>: Send {
    /// Execute the request on a worker's registered engine handle. Called
    /// exactly once per submission.
    fn run(&mut self, handle: &mut E::Handle);

    /// Return the record to its home pool (or just drop it). Called after
    /// `run` returns normally. (Records caught in a panic teardown are
    /// dropped, not recycled — the pool refills from fresh allocations.)
    fn recycle(self: Box<Self>);
}

/// A closure submission as a [`RunRequest`]: the body and the completion
/// sender travel together (one `Box` per request) and leave the `Option`
/// on the one `run`; `recycle` just drops what is left.
struct ClosureRequest<F, R> {
    job: Option<(F, oneshot::Sender<Response<R>>)>,
    submitted: Instant,
}

impl<E, F, R> RunRequest<E> for ClosureRequest<F, R>
where
    E: TxnEngine,
    R: Send + 'static,
    F: FnOnce(&mut E::Handle) -> R + Send + 'static,
{
    fn run(&mut self, handle: &mut E::Handle) {
        let (body, tx) = self.job.take().expect("a request runs once");
        let value = body(handle);
        tx.send(Response {
            value,
            latency: self.submitted.elapsed(),
        });
    }

    fn recycle(self: Box<Self>) {}
}

/// One queued unit of work: the submission timestamp (for the worker-side
/// latency capture) plus the request to run.
struct Job<E: TxnEngine> {
    submitted: Instant,
    run: Box<dyn RunRequest<E>>,
}

/// Reads one counter out of an [`EngineStats`].
type Field = fn(&EngineStats) -> u64;

/// The engine counters a scrape reads from the workers' statistics shards.
/// Every update commit acquired one commit timestamp and the engines count
/// the shared-class ones, so exclusive = commits − shared.
const ENGINE_COUNTERS: [(&str, Field); 12] = [
    ("engine.commits", |e| e.commits),
    ("engine.ro_commits", |e| e.ro_commits),
    ("engine.aborts.validation", |e| e.abort_reasons.validation),
    ("engine.aborts.no_version", |e| e.abort_reasons.no_version),
    ("engine.aborts.contention", |e| e.abort_reasons.contention),
    // Every engine re-runs the body once per aborted attempt.
    ("engine.retries", |e| e.aborts),
    ("engine.reads", |e| e.reads),
    ("engine.writes", |e| e.writes),
    ("engine.validations", |e| e.validations),
    ("engine.cross_shard_commits", |e| e.cross_shard_commits),
    ("time.commit_ts.shared", |e| e.shared_commit_ts),
    ("time.commit_ts.exclusive", |e| {
        e.commits.saturating_sub(e.shared_commit_ts)
    }),
];

struct Shared<E: TxnEngine> {
    queues: Vec<BoundedQueue<Job<E>>>,
    // The round-robin cursor on its own cache line: it is hammered by
    // every submitting thread, and without padding it false-shares with
    // the queue vector's metadata across sockets. The admission counters
    // that used to sit beside it are now registry counters — sharded
    // per-thread, so they never bounce a line at all.
    rr: CachePadded<AtomicUsize>,
    submitted: Counter,
    shed: Counter,
    metrics: MetricsRegistry,
    /// Shard-affine routing enabled (engine reports > 1 shard).
    shard_affine: bool,
}

impl<E: TxnEngine> Shared<E> {
    /// Worker a request is routed to: shard-affine when the engine is
    /// sharded and the client hinted a shard, round-robin otherwise.
    fn route(&self, shard: Option<usize>) -> usize {
        let n = self.queues.len();
        match shard {
            Some(s) if self.shard_affine => s % n,
            _ => self.rr.fetch_add(1, Ordering::Relaxed) % n,
        }
    }

    fn submit_to<R, F>(&self, shard: Option<usize>, body: F) -> Result<Completion<R>, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce(&mut E::Handle) -> R + Send + 'static,
    {
        let (tx, rx) = oneshot::channel();
        let request = ClosureRequest {
            job: Some((body, tx)),
            submitted: Instant::now(),
        };
        // A refused adapter drops here, and its sender with it.
        self.submit_record(shard, Box::new(request))
            .map(|()| Completion { rx })
            .map_err(|(e, _)| e)
    }

    /// Submit a record (see [`RunRequest`]). On refusal the record comes
    /// back with the typed error so the caller can recycle it — a shed must
    /// not cost the allocation the pool exists to avoid.
    fn submit_record(
        &self,
        shard: Option<usize>,
        record: Box<dyn RunRequest<E>>,
    ) -> Result<(), (SubmitError, Box<dyn RunRequest<E>>)> {
        let job = Job {
            submitted: Instant::now(),
            run: record,
        };
        let qix = self.route(shard);
        match self.queues[qix].try_push(job) {
            Ok(()) => {
                self.submitted.inc();
                trace::event_sampled(EventKind::Enqueue, 0, qix as u64);
                Ok(())
            }
            Err(PushError::Overloaded(job)) => {
                self.shed.inc();
                trace::event(EventKind::Shed, 0, qix as u64);
                Err((SubmitError::Overloaded, job.run))
            }
            Err(PushError::Closed(job)) => Err((SubmitError::Closed, job.run)),
        }
    }
}

/// A cloneable submission surface onto a running [`TxnService`] — what
/// external front-ends (the `lsa-wire` TCP server's per-connection reader
/// threads) hold instead of the service itself. Handles share the service's
/// queues, routing and shed accounting; they do not keep the workers alive
/// and every submission fails with [`SubmitError::Closed`] once the owning
/// service shuts down.
pub struct ServiceHandle<E: TxnEngine> {
    shared: Arc<Shared<E>>,
}

impl<E: TxnEngine> Clone for ServiceHandle<E> {
    fn clone(&self) -> Self {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<E: TxnEngine> ServiceHandle<E> {
    /// [`TxnService::submit`] through the handle.
    pub fn submit<R, F>(&self, body: F) -> Result<Completion<R>, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce(&mut E::Handle) -> R + Send + 'static,
    {
        self.shared.submit_to(None, body)
    }

    /// [`TxnService::submit_to`] through the handle.
    pub fn submit_to<R, F>(
        &self,
        shard: Option<usize>,
        body: F,
    ) -> Result<Completion<R>, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce(&mut E::Handle) -> R + Send + 'static,
    {
        self.shared.submit_to(shard, body)
    }

    /// [`TxnService::submit_record`] through the handle.
    pub fn submit_record(
        &self,
        shard: Option<usize>,
        record: Box<dyn RunRequest<E>>,
    ) -> Result<(), (SubmitError, Box<dyn RunRequest<E>>)> {
        self.shared.submit_record(shard, record)
    }

    /// [`TxnService::metrics`] through the handle — front-ends scrape (and
    /// extend) the same registry the service instruments into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }
}

/// Aggregated outcome of a service's lifetime, produced by
/// [`TxnService::shutdown`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Requests admitted into a queue (every one of them was executed).
    pub submitted: u64,
    /// Requests executed to completion (equals `submitted`: accepted work
    /// is always drained, even during shutdown).
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Submission-to-completion latency over all completed requests.
    pub latency: LatencyHistogram,
    /// Engine statistics summed over the workers' shards; sheds appear as
    /// `abort_reasons.overload` (they are rejected requests, not
    /// transaction attempts, so `aborts` does not include them).
    pub engine: EngineStats,
}

/// A transaction-service front-end over any [`TxnEngine`].
pub struct TxnService<E: TxnEngine> {
    shared: Arc<Shared<E>>,
    /// Each worker thread returns the number of requests it completed.
    /// (Latency lives in the registry's sharded `service.latency_ns`
    /// histogram.)
    workers: Vec<JoinHandle<u64>>,
    /// The workers' statistics shards, handed over once at start.
    engine_shards: Arc<StatsDomain>,
}

impl<E: TxnEngine> TxnService<E> {
    /// Start the worker pool on `engine`, instrumenting into a fresh
    /// [`MetricsRegistry`] (see [`metrics`](TxnService::metrics)); an
    /// embedding front-end registers its own instruments on a clone of it.
    pub fn start(engine: E, cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        let metrics = MetricsRegistry::new();
        let shard_affine = engine.shards() > 1;
        let queues: Vec<BoundedQueue<Job<E>>> = (0..cfg.workers)
            .map(|_| BoundedQueue::new(cfg.queue_depth))
            .collect();
        let shared = Arc::new(Shared {
            queues,
            rr: CachePadded::new(AtomicUsize::new(0)),
            submitted: metrics.counter("service.submitted"),
            shed: metrics.counter("service.shed"),
            metrics: metrics.clone(),
            shard_affine,
        });
        // Queue depth is a sampled gauge: nothing is maintained between
        // scrapes, and the Weak capture means a torn-down service costs
        // (and reports) nothing.
        let depth_src = Arc::downgrade(&shared);
        metrics.gauge_fn("service.queue_depth", move || {
            depth_src
                .upgrade()
                .map(|s| s.queues.iter().map(|q| q.len()).sum::<usize>() as i64)
                .unwrap_or(0)
        });
        // Engine counters are read from the workers' own statistics shards
        // at scrape time: nothing on the transaction path writes a shared
        // line for them. The shards outlive the workers, so the registry
        // still reports them after shutdown.
        let engine_shards = Arc::new(StatsDomain::default());
        for (name, read) in ENGINE_COUNTERS {
            let shards = Arc::clone(&engine_shards);
            metrics.counter_fn(name, move || read(&shards.totals().engine_stats()));
        }
        let workers = (0..cfg.workers)
            .map(|w| {
                let queue = shared.queues[w].clone();
                let engine = engine.clone();
                let latency = metrics.histogram("service.latency_ns");
                let engine_shards = Arc::clone(&engine_shards);
                std::thread::spawn(move || {
                    // One long-lived registered handle per worker: requests
                    // from many clients multiplex onto few STM threads.
                    let mut handle = engine.register();
                    engine_shards.adopt(Arc::clone(handle.stats_shard()));
                    let mut completed = 0u64;
                    // Batched run loop: drain a burst per wakeup instead of
                    // one job per park/unpark cycle — under backlog the
                    // queue lock and condvar are touched once per
                    // `WORKER_BATCH` jobs.
                    let mut batch = Vec::with_capacity(WORKER_BATCH);
                    loop {
                        let n = queue.pop_batch(&mut batch, WORKER_BATCH);
                        if n == 0 {
                            break;
                        }
                        trace::event_sampled(EventKind::Dequeue, 0, n as u64);
                        for job in batch.drain(..) {
                            let Job { submitted, mut run } = job;
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run.run(&mut handle);
                                    run.recycle();
                                }));
                            if let Err(payload) = outcome {
                                // A request body panicked (e.g. an invariant
                                // assert fired). Fail loudly, not silently:
                                // close and drain the queue so every pending
                                // completion cancels (dropped senders,
                                // including the rest of this batch when it
                                // unwinds) instead of leaving clients
                                // blocked forever, then surface the original
                                // panic through join().
                                queue.close();
                                while queue.pop().is_some() {}
                                std::panic::resume_unwind(payload);
                            }
                            latency.record(submitted.elapsed());
                            completed += 1;
                        }
                    }
                    completed
                })
            })
            .collect();
        TxnService {
            shared,
            workers,
            engine_shards,
        }
    }

    /// Submit `body` for execution on some worker's engine handle.
    ///
    /// Returns immediately: `Ok` carries the [`Completion`], `Err` the
    /// typed admission decision. The body runs exactly once (its
    /// `atomically` loop retries internally as usual).
    pub fn submit<R, F>(&self, body: F) -> Result<Completion<R>, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce(&mut E::Handle) -> R + Send + 'static,
    {
        self.shared.submit_to(None, body)
    }

    /// [`submit`](TxnService::submit) with a shard-affinity hint: on sharded
    /// engines all requests hinting the same shard execute on the same
    /// worker. Unsharded engines ignore the hint.
    pub fn submit_to<R, F>(
        &self,
        shard: Option<usize>,
        body: F,
    ) -> Result<Completion<R>, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce(&mut E::Handle) -> R + Send + 'static,
    {
        self.shared.submit_to(shard, body)
    }

    /// Submit a request record (see [`RunRequest`]); [`submit`] wraps its
    /// closure in one. No [`Completion`]: the record delivers its own
    /// result from `run`, and the worker still captures
    /// submission-to-completion latency in the service report. On refusal
    /// the record is handed back with the typed error for recycling.
    ///
    /// [`submit`]: TxnService::submit
    pub fn submit_record(
        &self,
        shard: Option<usize>,
        record: Box<dyn RunRequest<E>>,
    ) -> Result<(), (SubmitError, Box<dyn RunRequest<E>>)> {
        self.shared.submit_record(shard, record)
    }

    /// A cloneable [`ServiceHandle`] sharing this service's queues — the
    /// submission surface handed to external front-ends (one per wire-server
    /// connection thread) so the service itself can stay solely owned for
    /// [`shutdown`](TxnService::shutdown).
    pub fn handle(&self) -> ServiceHandle<E> {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Requests shed so far by admission control.
    pub fn shed_count(&self) -> u64 {
        self.shared.shed.value()
    }

    /// The service's metrics registry: admission counters, live queue
    /// depth, the sharded latency histogram, and the engine/time-base
    /// counters read from the workers' statistics shards. Scrape it any
    /// time with [`MetricsRegistry::snapshot`] — mid-run scrapes are the
    /// point.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Close admission, drain every queue, join the workers and return the
    /// aggregated [`ServiceReport`].
    pub fn shutdown(mut self) -> ServiceReport {
        for q in &self.shared.queues {
            q.close();
        }
        let completed = self
            .workers
            .drain(..)
            .map(|w| w.join().expect("service worker panicked"))
            .sum();
        let shed = self.shared.shed.value();
        // The workers have quiesced: their shards and the registry
        // histogram now hold exactly the completed requests.
        let mut engine = self.engine_shards.totals().engine_stats();
        // Shed accounting on the shared taxonomy: admission-control drops
        // are overload "aborts" of the serving layer.
        engine.abort_reasons.overload += shed;
        if shed > 0 {
            // A run that shed is exactly what the flight recorder is for.
            trace::anomaly("service shutdown with sheds", 256);
        }
        ServiceReport {
            submitted: self.shared.submitted.value(),
            completed,
            shed,
            latency: self.shared.metrics.histogram("service.latency_ns").merged(),
            engine,
        }
    }
}

impl<E: TxnEngine> Drop for TxnService<E> {
    fn drop(&mut self) {
        for q in &self.shared.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsa_stm::Stm;
    use lsa_time::counter::SharedCounter;
    use lsa_time::sharded::ShardedTimeBase;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Condvar, Mutex};

    fn small_cfg(workers: usize, depth: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            queue_depth: depth,
        }
    }

    #[test]
    fn submits_complete_with_latency() {
        let engine = Stm::new(SharedCounter::new());
        let var = engine.new_var(0u64);
        let svc = TxnService::start(engine, small_cfg(2, 64));
        let mut completions = Vec::new();
        for _ in 0..32 {
            let var = var.clone();
            completions.push(
                svc.submit(move |h| h.atomically(|tx| tx.modify(&var, |v| v + 1)))
                    .unwrap(),
            );
        }
        for c in completions {
            let resp = c.wait().unwrap();
            assert!(resp.latency > Duration::ZERO);
        }
        let report = svc.shutdown();
        assert_eq!(report.submitted, 32);
        assert_eq!(report.completed, 32);
        assert_eq!(report.shed, 0);
        assert_eq!(report.engine.commits, 32);
        assert_eq!(report.latency.count(), 32);
        assert_eq!(*<Stm<SharedCounter> as TxnEngine>::peek(&var), 32);
    }

    #[test]
    fn completions_carry_typed_values() {
        let engine = Stm::new(SharedCounter::new());
        let var = engine.new_var(5i64);
        let svc = TxnService::start(engine, small_cfg(1, 8));
        let v2 = var.clone();
        let c = svc
            .submit(move |h| h.atomically(|tx| tx.read(&v2).map(|v| *v * 2)))
            .unwrap();
        assert_eq!(c.wait().unwrap().value, 10);
        drop(svc);
    }

    /// Admission control: with one worker wedged on a gate, a depth-2 queue
    /// admits exactly two more requests and sheds the rest with the typed
    /// error; accepted work still completes after the gate opens, and the
    /// report counts the sheds as overload.
    #[test]
    fn bounded_queue_sheds_with_typed_error() {
        let engine = Stm::new(SharedCounter::new());
        let svc = TxnService::start(engine, small_cfg(1, 2));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));

        let g = Arc::clone(&gate);
        let blocker = svc
            .submit(move |_h| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        // Wait until the worker has dequeued the blocker (queue empty).
        while !svc.shared.queues[0].is_empty() {
            std::thread::yield_now();
        }
        let a = svc.submit(|_h| 1).unwrap();
        let b = svc.submit(|_h| 2).unwrap();
        // Queue full (depth 2): admission control must shed.
        match svc.submit(|_h| 3) {
            Err(SubmitError::Overloaded) => {}
            Err(e) => panic!("expected Overloaded, got {e:?}"),
            Ok(_) => panic!("expected the submission to be shed"),
        }
        assert_eq!(svc.shed_count(), 1);
        // Open the gate; everything accepted completes.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        blocker.wait().unwrap();
        assert_eq!(a.wait().unwrap().value, 1);
        assert_eq!(b.wait().unwrap().value, 2);
        let report = svc.shutdown();
        assert_eq!(report.submitted, 3);
        assert_eq!(report.completed, 3);
        assert_eq!(report.shed, 1);
        assert_eq!(report.engine.abort_reasons.overload, 1);
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let engine = Stm::new(SharedCounter::new());
        let var = engine.new_var(0u64);
        let svc = TxnService::start(engine, small_cfg(2, 256));
        for _ in 0..100 {
            let var = var.clone();
            svc.submit(move |h| h.atomically(|tx| tx.modify(&var, |v| v + 1)))
                .unwrap();
        }
        // Shut down immediately: accepted requests must still run.
        let report = svc.shutdown();
        assert_eq!(report.completed, 100);
        assert_eq!(*<Stm<SharedCounter> as TxnEngine>::peek(&var), 100);
    }

    #[test]
    fn dropped_completion_does_not_wedge_the_worker() {
        let engine = Stm::new(SharedCounter::new());
        let var = engine.new_var(0u64);
        let svc = TxnService::start(engine, small_cfg(1, 16));
        let v = var.clone();
        let c = svc
            .submit(move |h| h.atomically(|tx| tx.modify(&v, |x| x + 1)))
            .unwrap();
        drop(c); // client gave up; worker must still run and move on
        let v = var.clone();
        let c2 = svc
            .submit(move |h| h.atomically(|tx| tx.modify(&v, |x| x + 1)))
            .unwrap();
        c2.wait().unwrap();
        assert_eq!(*<Stm<SharedCounter> as TxnEngine>::peek(&var), 2);
        drop(svc);
    }

    /// A panicking request body must not leave clients hanging: the worker
    /// cancels everything still queued (senders drop → `Canceled`) and the
    /// panic resurfaces when the service is joined.
    #[test]
    fn worker_panic_cancels_pending_completions() {
        let engine = Stm::new(SharedCounter::new());
        let svc = TxnService::start(engine, small_cfg(1, 16));
        let bomb = svc
            .submit(|_h: &mut _| panic!("request body invariant fired"))
            .unwrap();
        let pending = svc.submit(|_h| 42u8).unwrap();
        assert!(matches!(bomb.wait(), Err(oneshot::Canceled)));
        assert!(
            matches!(pending.wait(), Err(oneshot::Canceled)),
            "queued work behind a panicking request must cancel, not hang"
        );
        // Joining the worker resurfaces the original panic.
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.shutdown()));
        assert!(joined.is_err(), "shutdown must propagate the worker panic");
    }

    #[test]
    fn shard_hints_pin_to_workers_on_sharded_engines() {
        let engine = Stm::new(ShardedTimeBase::new(SharedCounter::new(), 4));
        let svc = TxnService::start(engine, small_cfg(3, 64));
        // Same hint → same worker, always.
        for shard in 0..4usize {
            let first = svc.shared.route(Some(shard));
            for _ in 0..10 {
                assert_eq!(svc.shared.route(Some(shard)), first);
            }
        }
        // Distinct hints spread over workers modulo the pool size.
        assert_ne!(svc.shared.route(Some(0)), svc.shared.route(Some(1)));
        drop(svc);

        // Unsharded engines round-robin even with hints.
        let engine = Stm::new(SharedCounter::new());
        let svc = TxnService::start(engine, small_cfg(2, 8));
        let a = svc.shared.route(Some(3));
        let b = svc.shared.route(Some(3));
        assert_ne!(a, b, "round-robin must rotate");
        drop(svc);
    }

    /// The cloneable handle is a full submission surface: it routes through
    /// the same queues and accounting, and turns into typed `Closed` errors
    /// once the owning service has shut down.
    #[test]
    fn service_handle_submits_and_closes_with_the_service() {
        let engine = Stm::new(SharedCounter::new());
        let var = engine.new_var(0u64);
        let svc = TxnService::start(engine, small_cfg(2, 64));
        let h1 = svc.handle();
        let h2 = h1.clone();
        let v = var.clone();
        let a = h1
            .submit(move |h| h.atomically(|tx| tx.modify(&v, |x| x + 1)))
            .unwrap();
        let v = var.clone();
        let b = h2
            .submit_to(Some(0), move |h| {
                h.atomically(|tx| tx.modify(&v, |x| x + 1))
            })
            .unwrap();
        a.wait().unwrap();
        b.wait().unwrap();
        let report = svc.shutdown();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.completed, 2);
        assert_eq!(*<Stm<SharedCounter> as TxnEngine>::peek(&var), 2);
        // The service is gone; handles must refuse with the typed error.
        match h1.submit(|_h| ()) {
            Err(SubmitError::Closed) => {}
            Err(e) => panic!("expected Closed after shutdown, got {e:?}"),
            Ok(_) => panic!("expected Closed after shutdown, got an admission"),
        }
    }

    /// A record that counts its runs and recycles; `recycle` before `run`
    /// is counted as a fault.
    struct Probe {
        ran: bool,
        runs: Arc<AtomicU64>,
        recycles: Arc<AtomicU64>,
        faults: Arc<AtomicU64>,
    }

    impl Probe {
        fn new(counts: &[Arc<AtomicU64>; 3]) -> Box<Self> {
            Box::new(Probe {
                ran: false,
                runs: Arc::clone(&counts[0]),
                recycles: Arc::clone(&counts[1]),
                faults: Arc::clone(&counts[2]),
            })
        }
    }

    impl<E: TxnEngine> RunRequest<E> for Probe {
        fn run(&mut self, _handle: &mut E::Handle) {
            if self.ran {
                self.faults.fetch_add(1, Ordering::SeqCst);
            }
            self.ran = true;
            self.runs.fetch_add(1, Ordering::SeqCst);
        }

        fn recycle(self: Box<Self>) {
            if !self.ran {
                self.faults.fetch_add(1, Ordering::SeqCst);
            }
            self.recycles.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counts() -> [Arc<AtomicU64>; 3] {
        std::array::from_fn(|_| Arc::new(AtomicU64::new(0)))
    }

    fn load(c: &Arc<AtomicU64>) -> u64 {
        c.load(Ordering::SeqCst)
    }

    /// Closures and records are one job type: they share the admission
    /// counter, the completion count and the `service.latency_ns`
    /// histogram, and every admitted record is recycled exactly once,
    /// after its one run.
    #[test]
    fn records_and_closures_share_one_path() {
        let engine = Stm::new(SharedCounter::new());
        let svc = TxnService::start(engine, small_cfg(2, 64));
        let c = counts();
        let mut closures = Vec::new();
        for i in 0..10u64 {
            closures.push(svc.submit(move |_h| i).unwrap());
            if svc.submit_record(None, Probe::new(&c)).is_err() {
                panic!("a 64-deep queue admits record {i}");
            }
        }
        for (i, done) in closures.into_iter().enumerate() {
            assert_eq!(done.wait().unwrap().value, i as u64);
        }
        let submitted = svc.metrics().snapshot().counter("service.submitted");
        let report = svc.shutdown();
        assert_eq!(submitted, Some(20), "one admission counter for both");
        assert_eq!(report.submitted, 20);
        assert_eq!(report.completed, 20);
        assert_eq!(report.latency.count(), 20, "one latency histogram");
        assert_eq!((load(&c[0]), load(&c[1])), (10, 10), "run and recycle once");
        assert_eq!(load(&c[2]), 0, "recycle always follows run");
    }

    /// A refused record comes back whole with the typed error, unrun and
    /// unrecycled: shed at a wedged depth-1 worker, closed after shutdown.
    #[test]
    fn refused_records_come_back_with_the_typed_error() {
        let engine = Stm::new(SharedCounter::new());
        let svc = TxnService::start(engine, small_cfg(1, 1));
        let handle = svc.handle();
        let c = counts();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let blocker = svc
            .submit(move |_h| {
                let (lock, cv) = &*g;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
            .unwrap();
        while !svc.shared.queues[0].is_empty() {
            std::thread::yield_now();
        }
        if svc.submit_record(None, Probe::new(&c)).is_err() {
            panic!("the depth-1 queue has room for one record");
        }
        match svc.submit_record(None, Probe::new(&c)) {
            Err((SubmitError::Overloaded, _record)) => {}
            Err((e, _)) => panic!("expected Overloaded, got {e:?}"),
            Ok(()) => panic!("a full depth-1 queue must shed"),
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        blocker.wait().unwrap();
        let report = svc.shutdown();
        assert_eq!((report.submitted, report.shed), (2, 1));
        match handle.submit_record(None, Probe::new(&c)) {
            Err((SubmitError::Closed, _record)) => {}
            Err((e, _)) => panic!("expected Closed, got {e:?}"),
            Ok(()) => panic!("a shut-down service must refuse"),
        }
        // Only the admitted record ran; neither refused one was touched.
        assert_eq!((load(&c[0]), load(&c[1]), load(&c[2])), (1, 1, 0));
    }
}
