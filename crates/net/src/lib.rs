//! # embsr-net
//!
//! Networked serving for the micro-behavior scoring path: a
//! dependency-free TCP protocol carrying the `embsr-serve`
//! [`ScoreBatch`](embsr_serve::ScoreBatch)/[`TopK`](embsr_serve::TopK) API
//! across process boundaries, behind replica sharding, admission control
//! and deadline propagation.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed binary framing (magic, version, kind,
//!   request id, payload length). Every malformed byte sequence maps to a
//!   typed [`FrameError`], never a panic; split/coalesced/truncated reads
//!   are part of the tested contract.
//! * [`wire`] — payload codecs, one little-endian binary format for every
//!   frame kind. Scores cross the wire **bitwise** (their `f32` bits, −0.0
//!   and NaN payloads included), session and trace ids at their full 64
//!   bits, and snapshots as raw bytes. Requests carry the serving
//!   [`SubmitOptions`](embsr_serve::SubmitOptions) (deadline budget + shed
//!   flag) and the caller's [`TraceCtx`](embsr_obs::TraceCtx), so both
//!   admission control and request traces span client → server → engine.
//! * [`shard`] — rendezvous (highest-random-weight) hashing of session
//!   keys over the alive replica set: deterministic, balanced, and
//!   minimal-movement under replica death.
//! * [`Server`] — accept loop → multiplexed per-connection handlers
//!   (reader + request-worker pool; out-of-order completion by request id)
//!   → session shard → each replica's [`serve`](embsr_serve::serve)
//!   engine queue, one frozen replica each; the engine's queue is the only
//!   one, so its admission cap and deadline shedding are the server's.
//!   Ships the control plane (zero-downtime snapshot staging/activation +
//!   status), fault injection ([`Server::kill_replica`],
//!   [`Server::set_replica_delay_us`]) and exact request accounting
//!   ([`Server::stats`]).
//! * [`NetClient`] — pipelined client: [`NetClient::submit_score`]
//!   returns a [`Pending`] immediately and a reader thread demultiplexes
//!   responses, so one connection carries many requests in flight;
//!   blocking wrappers ([`NetClient::score`], [`NetClient::top_k`],
//!   [`NetClient::score_with_retry`] with exponential overload backoff)
//!   keep the old call shape. One protocol version, opened by a `Hello`
//!   handshake that a later version can negotiate through.
//!
//! The crate's correctness story is its test battery: protocol property
//! tests (`tests/protocol.rs`), fault injection (`tests/faults.rs`),
//! admission accounting (`tests/admission.rs`), multiplexing and the
//! handshake (`tests/multiplex.rs`), hot-swap under load
//! (`tests/hotswap.rs`), and the workspace-level
//! `tests/net_equivalence.rs`, which pins networked scores to the
//! in-process engine at `f32::to_bits` equality across multiple replicas.

pub mod frame;
pub mod shard;
pub mod wire;

mod client;
mod server;

pub use client::{NetClient, Pending, RetryPolicy};
pub use frame::{Frame, FrameError, FrameKind, VERSION};
pub use server::{
    Server, ServerConfig, ServerStats, METRIC_NET_CONTROL, METRIC_NET_LATENCY_US,
    METRIC_NET_REJECTED, METRIC_NET_REQUESTS, METRIC_NET_REROUTED,
};
pub use wire::{ControlReply, ControlRequest, NetError, Request, Response, ServerStatus};
