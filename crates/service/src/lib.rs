//! # lsa-service — a transaction-service front-end over any engine
//!
//! The paper's scalable time bases exist to make commit-time arbitration
//! cheap enough that an STM can serve *many concurrent clients*. This crate
//! supplies the serving layer: requests submitted from any thread are
//! scheduled onto a pool of workers — each holding one long-lived registered
//! [`EngineHandle`](lsa_engine::EngineHandle) of any
//! [`TxnEngine`](lsa_engine::TxnEngine) — and completions come back through
//! blocking oneshot channels, so the request topology (thousands of clients,
//! few STM threads) is decoupled from the engine's thread registration
//! model. It keeps one of each: one job type ([`RunRequest`]), one queue
//! ([`BoundedQueue`]), one way to wait ([`Completion::wait`]).
//!
//! * [`service`] — [`TxnService`]: worker pool, bounded per-worker
//!   submission queues with admission control (typed
//!   [`SubmitError::Overloaded`] sheds past the depth limit), round-robin
//!   routing, per-request latency capture, and a merged
//!   [`ServiceReport`] whose shed accounting lands in the cross-engine
//!   [`AbortClass::Overload`](lsa_engine::AbortClass) taxonomy,
//! * [`oneshot`] — the completion channel: a blocking receiver, poolable
//!   through [`oneshot::OneshotPool`] so hot request paths reuse the
//!   channel allocation,
//! * [`queue`] — the lock-free bounded MPSC submission ring (memory
//!   ordering argument in DESIGN.md §13),
//! * [`pool`] — the lock-free object [`Pool`] behind the allocation-free
//!   request lifecycle (request records, oneshots, reply buffers), with
//!   the hit/miss gauge `open_loop` prints,
//! * [`conformance`] — the engine-generic correctness suite re-expressed as
//!   concurrent request submissions *through* the service.
//!
//! Latency lands in [`LatencyHistogram`] (re-exported from `lsa-obs`). Why
//! open-loop latency is the right lens for the paper's claims, and the
//! backpressure policy, are written up in `DESIGN.md` §10; the harness's
//! `open_loop` binary (`--transport service`) drives this crate across the
//! engine registry.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod conformance;
pub mod oneshot;
pub mod pool;
pub mod queue;
pub mod service;

pub use lsa_obs::LatencyHistogram;
pub use pool::{Pool, PoolStats};
pub use queue::{BoundedQueue, PushError};
pub use service::{
    Completion, Response, RunRequest, ServiceConfig, ServiceHandle, ServiceReport, SubmitError,
    TxnService,
};
