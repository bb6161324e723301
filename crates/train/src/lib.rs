//! # embsr-train
//!
//! Model-agnostic training machinery shared by EMBSR and every neural
//! baseline:
//!
//! * [`Recommender`] — the uniform interface the evaluation harness scores
//!   (non-neural methods like S-POP/SKNN implement it directly);
//! * [`SessionModel`] — a neural next-item model: parameters + per-session
//!   logits, optionally factored into an encoder and a logits [`Head`];
//! * [`Trainer`] / [`TrainConfig`] — mini-batch Adam training with gradient
//!   clipping, session truncation and validation-based early stopping,
//!   following the paper's protocol (Adam, batch training, ≤ 50 epochs,
//!   lr/dropout grid);
//! * [`ParallelTrainer`] — the data-parallel variant: per-batch gradient
//!   shards computed on thread-local model replicas and combined with a
//!   fixed-order tree reduction, bitwise invariant to the thread count.

mod checkpoint;
mod config;
mod head;
mod parallel;
mod recommender;
mod trainer;

pub use checkpoint::{
    decode_tensors, encode_tensors, load_model, load_tensors, load_train_state, param_shapes,
    save_model, save_tensors, save_train_state, DecodeError, LayoutMismatch,
};
pub use config::TrainConfig;
pub use head::{Head, PreparedHead, Scorer};
pub use parallel::{ParallelTrainer, TrainState};
pub use recommender::{NeuralRecommender, Recommender, SessionModel};
pub use trainer::{truncate_session, EpochStats, TrainReport, Trainer};
