//! Extending the library: plugging a custom model into the shared training
//! and evaluation machinery.
//!
//! Implements a miniature "last-item bilinear" recommender as a
//! [`SessionModel`] — the trait EMBSR itself implements — and runs it
//! through the same `Trainer`/`evaluate` pipeline as the paper's models.
//!
//! A model states two scoring methods, like every model in the workspace:
//! `repr` encodes a session into a `[d]` representation, and `head` names
//! the scorer and the `[|V|, d]` item table that representation is compared
//! against. Training logits, batched evaluation, the serving repr cache and
//! the prepared serving head are all built from those two.
//!
//! ```bash
//! cargo run --release -p embsr-bench --example custom_model
//! ```

use embsr_datasets::{build_dataset, DatasetPreset, SyntheticConfig};
use embsr_eval::evaluate;
use embsr_nn::{Embedding, Forward, Linear, Module};
use embsr_sessions::Session;
use embsr_tensor::{Rng, Tensor};
use embsr_train::{Head, NeuralRecommender, Recommender, Scorer, SessionModel, TrainConfig};

/// `score(v | session) = (W · e_last) · e_v` — a learned bigram model.
struct LastItemBilinear {
    items: Embedding,
    w: Linear,
    num_items: usize,
}

impl LastItemBilinear {
    fn new(num_items: usize, dim: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        LastItemBilinear {
            items: Embedding::new(num_items, dim, &mut rng),
            w: Linear::new_no_bias(dim, dim, &mut rng),
            num_items,
        }
    }
}

impl SessionModel for LastItemBilinear {
    fn name(&self) -> &str {
        "LastItemBilinear"
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.items.parameters();
        p.extend(self.w.parameters());
        p
    }

    /// The encoder: `W · e_last` (`[d]`). `training` and `rng` would drive
    /// dropout; this model has none.
    fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        let last = session.events.last().expect("non-empty session").item as usize;
        self.w.apply(&self.items.lookup_one(last))
    }

    /// The head: plain dot products against the item embeddings.
    /// `Scorer::Cosine { w_k }` would score scaled cosines instead, as EMBSR
    /// does (eq. 19).
    fn head(&self) -> Head {
        Head {
            scorer: Scorer::Dot,
            items: self.items.weight.clone(),
        }
    }
}

fn main() {
    let data = build_dataset(&SyntheticConfig::tiny(DatasetPreset::JdAppliances));
    let mut rec = NeuralRecommender::new(
        LastItemBilinear::new(data.num_items, 16, 11),
        TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        },
    );
    println!("training the custom model on {} examples…", data.train.len());
    rec.fit(&data.train, &data.val);
    let report = rec.report.as_ref().expect("trained");
    println!(
        "final train loss {:.3} (best epoch {})",
        report.final_train_loss(),
        report.best_epoch
    );

    let eval = evaluate(&rec, &data.test, &[5, 10, 20]);
    println!(
        "custom model: H@5 {:.2}  H@10 {:.2}  H@20 {:.2}  M@20 {:.2}",
        eval.hit_at(5),
        eval.hit_at(10),
        eval.hit_at(20),
        eval.mrr_at(20)
    );
    assert!(eval.hit_at(20) > 0.0, "the bigram signal should be learnable");
}
