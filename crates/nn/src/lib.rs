//! # embsr-nn
//!
//! Neural network layers on top of [`embsr_tensor`], covering every equation
//! of the EMBSR paper (ICDE 2022) and of the baselines it compares against:
//!
//! | Layer | Paper equation |
//! |---|---|
//! | [`Embedding`] | item / operation / position / dyadic-relation matrices |
//! | [`Gru`] | eq. 3 — micro-operation sequence encoding |
//! | [`GgnnCell`] | eq. 8 — gated graph update |
//! | [`StarGate`], [`StarAttention`] | eq. 9–10 — star node propagation |
//! | [`Highway`] | eq. 11 |
//! | [`OpAwareSelfAttention`] | eq. 12–16 — dyadic-relation attention |
//! | [`Ffn`] | eq. 17 |
//! | [`FusionGate`] | eq. 18 |
//!
//! The prediction layer (eq. 19, NISER-style scaled cosine scoring) is the
//! logits head every session model shares, `embsr_train::Head`.
//!
//! Layers process one session at a time (shapes `[n, d]`), which matches the
//! variable-size graphs the model builds per session.
//!
//! Single-input layers implement the [`Forward`] trait (one tensor in, one
//! tensor out, under a [`ModuleCtx`] carrying mode and RNG); multi-input
//! blocks expose domain-named methods (`attend`, `blend`, `fuse`,
//! `propagate`) instead. `xtask lint` rejects new ad-hoc `pub fn forward`
//! definitions in this crate.

mod attention;
mod dropout;
mod embedding;
mod ffn;
mod fusion;
mod ggnn;
mod gru;
mod highway;
mod linear;
mod module;
mod star;

pub use attention::OpAwareSelfAttention;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use ffn::Ffn;
pub use fusion::{FusionGate, FusionMode};
pub use ggnn::GgnnCell;
pub use gru::Gru;
pub use highway::Highway;
pub use linear::Linear;
pub use module::{collect_params, Forward, Module, ModuleCtx};
pub use star::{StarAttention, StarGate};
