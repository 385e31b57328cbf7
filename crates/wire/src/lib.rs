//! # lsa-wire — the TCP serving path over `lsa-service`
//!
//! The paper's scalable time bases make commit arbitration cheap enough to
//! serve many concurrent clients; `lsa-service` turned that into an
//! in-process request/completion front-end. This crate takes the last step
//! and puts a socket in front of it: a compact length-prefixed binary
//! protocol, a threaded TCP server multiplexing framed requests onto the
//! service's worker pool, and a pipelining client — so the system can be
//! driven (and benchmarked) across a real network boundary, with
//! backpressure that reaches all the way to the peer's socket.
//!
//! * [`frame`] — the versioned frame format and its zero-copy-leaning
//!   streaming codec; every malformed input is a typed [`FrameError`],
//!   never a panic,
//! * [`tables`] — the request/reply vocabulary ([`Request`], [`Reply`]) and
//!   the server-hosted transactional [`Tables`] they execute against (bank,
//!   sorted-list set, hash set; the harness's `open_loop` load generator
//!   submits the same requests in process, so the two are comparable),
//! * [`conn`] — per-connection plumbing: the outbound frame queue and the
//!   bounded in-flight [`Window`](conn::Window) that propagates
//!   backpressure to TCP,
//! * [`server`] — [`WireServer`]: listener + per-connection reader/writer
//!   threads over a [`TxnService`](lsa_service::TxnService) pool, its wire
//!   counters registered on the service's registry; service sheds surface
//!   as typed [`Reply::Overloaded`] responses,
//! * [`client`] — [`WireClient`]: pipelined requests over N lanes with
//!   request-id correlation and lazy reconnect; each reply is a blocking
//!   [`PendingReply`].
//!
//! The frame layout, threading model and backpressure policy are written up
//! in `DESIGN.md` §12; the harness's `open_loop` binary
//! (`--transport wire`) drives this crate across the engine registry and
//! locates each configuration's saturation knee.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod conn;
pub mod frame;
pub mod server;
pub mod tables;

pub use client::{shard_hint, PendingReply, WireClient, WireError};
pub use frame::{
    decode_frame, encode_frame, ErrorCode, Frame, FrameError, FrameHeader, Opcode, ReadBuf,
    MAX_FRAME_BODY, WIRE_VERSION,
};
pub use server::{ServerConfig, WireReport, WireServer};
pub use tables::{Reply, Request, SetOp, Tables, TablesConfig};
