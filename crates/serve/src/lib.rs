//! # embsr-serve
//!
//! The serving layer: batched, tape-free inference behind a batch-first
//! prediction API.
//!
//! * [`FrozenModel`] — a [`SessionModel`](embsr_train::SessionModel) frozen
//!   for inference: weights captured as a flat snapshot (`export_params`),
//!   every forward wrapped in `embsr_tensor::inference_mode` so no autograd
//!   tape is recorded and activations recycle through the buffer pool.
//! * [`ScoreBatch`] / [`TopK`] — the request/response pairs: full-vocabulary
//!   score rows for the eval harness, top-`k` recommendations for an
//!   endpoint.
//! * [`serve`] — a micro-batching engine on `embsr-pool` workers: requests
//!   from concurrent callers coalesce into batches of up to
//!   [`EngineConfig::max_batch`] sessions, held open at most
//!   [`EngineConfig::flush_deadline_us`]; latency, batch-occupancy and
//!   queue-depth land in `embsr_obs` histograms, and when request tracing
//!   is on ([`embsr_obs::trace`](mod@embsr_obs::trace)) every request
//!   emits a reconstructable span tree (`score_request` → `queue_wait` /
//!   `batch_assembly` / `scoring`, plus `top_k` selection).
//!
//! Serving defaults to the **vectorized kernel tier** with optional
//! f16/bf16 frozen snapshots ([`snapshot`]). The equivalence contract is
//! tiered (`tests/serving_equivalence.rs`): batched-vs-single stays
//! **bitwise** within any tier (GEMM rows are independent reductions, so
//! batching changes throughput, never scores); the packed tier stays
//! bitwise with the taped training path; the vectorized tier and reduced
//! precisions are epsilon-gated with **exact Hit@20/MRR@20 identity**.

mod api;
mod cache;
mod engine;
mod frozen;
pub mod snapshot;

pub use api::{top_k_of_row, ScoreBatch, ScoreResponse, ScoredItem, TopK, TopKResponse};
pub use cache::{
    CacheStats, ReprCache, METRIC_CACHE_BYTES, METRIC_CACHE_EVICTIONS, METRIC_CACHE_HITS,
    METRIC_CACHE_MISSES,
};
pub use engine::{
    serve, Client, EngineConfig, EngineStatus, ServeError, SubmitOptions, SwapError, Ticket,
    METRIC_BATCH_SESSIONS, METRIC_DEADLINE_EXPIRED, METRIC_QUEUE_DEPTH, METRIC_REJECTED,
    METRIC_REQUEST_LATENCY_US, METRIC_SESSIONS_SCORED, METRIC_SNAPSHOT_SWAPS,
};
pub use frozen::FrozenModel;
pub use snapshot::Precision;
// downstream crates (embsr-net) pick tiers without a direct tensor edge
pub use embsr_tensor::kernels::KernelTier;

#[cfg(test)]
pub(crate) mod testing {
    use embsr_sessions::{MicroBehavior, Session};
    use embsr_tensor::{uniform_init, Rng, Tensor};
    use embsr_train::{Head, Scorer, SessionModel};

    /// Minimal deterministic model: the representation is the mean of the
    /// weight rows of the session's items, and the head dot-scores it
    /// against the same weight matrix as the item table. Scores depend on
    /// the whole (truncated) session and on the weights — enough to catch
    /// snapshot or batching mix-ups — and every weight swap moves the head
    /// too, so the engine tests exercise rebuilding it.
    pub struct ToyModel {
        weight: Tensor,
        num_items: usize,
    }

    impl ToyModel {
        pub fn new(num_items: usize, seed: u64) -> Self {
            let mut rng = Rng::seed_from_u64(seed);
            ToyModel {
                weight: uniform_init(&[num_items, num_items], &mut rng),
                num_items,
            }
        }
    }

    impl SessionModel for ToyModel {
        fn name(&self) -> &str {
            "Toy"
        }
        fn num_items(&self) -> usize {
            self.num_items
        }
        fn parameters(&self) -> Vec<Tensor> {
            vec![self.weight.clone()]
        }
        fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
            let idx: Vec<usize> = session.events.iter().map(|e| e.item as usize).collect();
            assert!(!idx.is_empty(), "empty session");
            self.weight.gather_rows(&idx).mean_rows()
        }
        fn head(&self) -> Head {
            Head {
                scorer: Scorer::Dot,
                items: self.weight.clone(),
            }
        }
    }

    pub fn sess(items: &[u32]) -> Session {
        Session {
            id: 0,
            events: items.iter().map(|&i| MicroBehavior::new(i, 0)).collect(),
        }
    }
}
