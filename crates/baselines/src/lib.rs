//! # embsr-baselines
//!
//! All twelve baselines of the paper's Table III, grouped as in Sec. V-A-2.
//!
//! **Macro-behavior models** (item sequence only):
//! * [`SPop`] — session popularity with global fallback,
//! * [`Sknn`] — session-based k-nearest-neighbors,
//! * [`Stan`] — sequence-and-time-aware neighborhood (related work \[20\]),
//! * [`MarkovChain`] / [`Fpmc`] — first-order transitions, raw and
//!   factorized (related work \[4\], \[18\]),
//! * [`ItemKnn`] — order-blind item-item cosine (related work \[17\]),
//! * [`Gru4Rec`] — GRU over item embeddings,
//! * [`Narm`] — encoder/decoder GRU with attention,
//! * [`Stamp`] — short-term attention/memory priority,
//! * [`SrGnn`] — gated GNN over the session graph,
//! * [`GcSan`] — SR-GNN encoding + self-attention stack,
//! * [`Bert4Rec`] — bidirectional self-attention with a mask token,
//! * [`SgnnHn`] — star graph neural network with highway networks,
//!
//! **Micro-behavior models** (items + operations):
//! * [`Rib`] — GRU over `item ⊕ operation` embeddings with attention,
//! * [`Hup`] — hierarchical GRU (operations within items, items within the
//!   session),
//! * [`MkmSr`] — GGNN for items in parallel with a GRU for operations
//!   (without the knowledge-graph auxiliary task, exactly as in the paper's
//!   comparison).
//!
//! Neural models implement [`embsr_train::SessionModel`] and train through
//! the shared [`embsr_train::Trainer`]; non-neural models implement
//! [`embsr_train::Recommender`] directly.

mod bert4rec;
mod common;
mod factory;
mod fpmc;
mod gcsan;
mod gru4rec;
mod hup;
mod itemknn;
mod markov;
mod mkmsr;
mod narm;
mod rib;
mod sgnnhn;
mod sknn;
mod spop;
mod srgnn;
mod stamp;
mod stan;

pub use bert4rec::Bert4Rec;
pub use common::{AttentionReadout, DotScorer, GnnEncoder, SessionDigraph};
pub use factory::{build_baseline, BaselineKind};
pub use fpmc::Fpmc;
pub use gcsan::GcSan;
pub use gru4rec::Gru4Rec;
pub use hup::Hup;
pub use itemknn::ItemKnn;
pub use markov::MarkovChain;
pub use mkmsr::MkmSr;
pub use narm::Narm;
pub use rib::Rib;
pub use sgnnhn::SgnnHn;
pub use sknn::Sknn;
pub use spop::SPop;
pub use srgnn::SrGnn;
pub use stamp::Stamp;
pub use stan::Stan;
