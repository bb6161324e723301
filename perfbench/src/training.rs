//! The `train-jd` workload: EMBSR at d=48 trained on the JD-Appliances
//! preset with the data-parallel trainer (2 threads, fixed epochs, no early
//! stopping), then evaluated on the test split in fixed chunks. Its
//! `throughput_sps` is the median epoch's training rate and its `p50_ms`
//! the median chunk's evaluation time.

use std::time::Instant;

use embsr_core::{Embsr, EmbsrConfig};
use embsr_datasets::{build_dataset, Dataset, DatasetPreset, SyntheticConfig};
use embsr_eval::evaluate;
use embsr_serve::FrozenModel;
use embsr_train::{NeuralRecommender, ParallelTrainer, TrainConfig, TrainReport};

use crate::gen::{Rand, DIM, MAX_LEN, TOP_K};
use crate::serving::print_phase;
use crate::stats::{median, Counts, Outcome};

/// Training epochs; fixed so the trained weights, and `mrr20`, repeat
/// bitwise for a seed. `throughput_sps` is the median epoch's rate.
pub const EPOCHS: usize = 3;
/// Training examples per epoch: a fixed prefix of the train split, sized
/// so the fixed epochs take about 20 s on 2 cores.
pub const TRAIN_EXAMPLES: usize = 2800;
/// Set-ups per run; `setup_s` is their median. One set-up takes ~30 ms.
const SETUP_REPS: usize = 15;
/// Every `SAMPLE_EVERY`-th test prefix is served alone and checked
/// against batched scoring.
const SAMPLE_EVERY: usize = 8;
/// MRR@20 (percent) below which training is considered broken.
const MRR_FLOOR: f64 = 5.0;
/// The test split is evaluated in this many equal chunks.
const EVAL_CHUNKS: usize = 8;

pub fn dataset_config(seed: u64) -> SyntheticConfig {
    let mut cfg = SyntheticConfig::preset(DatasetPreset::JdAppliances);
    cfg.seed = Rand::new(seed).next_u64();
    cfg
}

pub fn model_cfg(ds: &Dataset) -> EmbsrConfig {
    let mut cfg = EmbsrConfig::full(ds.num_items, ds.num_ops, DIM);
    cfg.seed = 17;
    cfg
}

pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 64,
        lr: 8e-3,
        seed: 42,
        patience: None,
        max_session_len: MAX_LEN,
        train_threads: 2,
        ..TrainConfig::default()
    }
}

/// A built dataset and a freshly initialised model.
pub struct Setup {
    pub ds: Dataset,
    pub model: Embsr,
    pub build_s: f64,
}

pub fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let ds = build_dataset(&dataset_config(seed));
    let build_s = t.elapsed().as_secs_f64();
    let model = Embsr::new(model_cfg(&ds));
    Setup { ds, model, build_s }
}

/// What training and evaluation produced.
pub struct Trained {
    pub frozen: FrozenModel<Embsr>,
    pub report: TrainReport,
    pub fit_s: f64,
    pub evaluate_s: f64,
    /// Wall time of each chunk of the evaluation.
    pub eval_chunk_s: Vec<f64>,
    pub mrr20: f64,
}

pub fn train(ds: &Dataset, model: Embsr, epochs: usize, train_len: usize) -> Trained {
    let mcfg = model_cfg(ds);
    let tcfg = train_config(epochs);
    let train = &ds.train[..train_len.min(ds.train.len())];
    let t = Instant::now();
    let report =
        ParallelTrainer::new(tcfg.clone()).fit(&model, || Embsr::new(mcfg.clone()), train, &ds.val);
    let fit_s = t.elapsed().as_secs_f64();
    let rec = NeuralRecommender::new(model, tcfg);
    let mut eval_chunk_s = Vec::with_capacity(EVAL_CHUNKS);
    let mut rr = Vec::with_capacity(ds.test.len());
    for chunk in ds.test.chunks(ds.test.len().div_ceil(EVAL_CHUNKS).max(1)) {
        let t = Instant::now();
        let eval = evaluate(&rec, chunk, &[TOP_K]);
        eval_chunk_s.push(t.elapsed().as_secs_f64());
        rr.extend(eval.reciprocal_ranks_at(TOP_K));
    }
    Trained {
        frozen: FrozenModel::freeze(rec.model, MAX_LEN),
        report,
        fit_s,
        evaluate_s: eval_chunk_s.iter().sum(),
        eval_chunk_s,
        // As `evaluate` sums it over the whole split: same ranks, same order.
        mrr20: 100.0 * rr.iter().sum::<f64>() / rr.len().max(1) as f64,
    }
}

/// Serves every `SAMPLE_EVERY`-th test prefix of the trained model alone
/// and checks it bitwise against batched scoring. Returns the number served
/// and the mismatches.
pub fn check_serving(frozen: &FrozenModel<Embsr>, ds: &Dataset) -> (u64, Vec<String>) {
    let sampled: Vec<_> = ds
        .test
        .iter()
        .filter(|ex| !ex.session.is_empty())
        .step_by(SAMPLE_EVERY)
        .map(|ex| ex.session.clone())
        .collect();
    let batched = sampled
        .chunks(32)
        .flat_map(|chunk| frozen.top_k(chunk, TOP_K));
    let mut errors = Vec::new();
    for (k, (want, s)) in batched.zip(&sampled).enumerate() {
        let alone = frozen.top_k(std::slice::from_ref(s), TOP_K);
        if !crate::serving::same_lists(&[want], &alone) {
            errors.push(format!(
                "test session {} served differently alone and batched",
                k * SAMPLE_EVERY
            ));
        }
    }
    (sampled.len() as u64, errors)
}

pub fn check_training(t: &Trained, epochs: usize, out: &mut Outcome) {
    let loss = t.report.final_train_loss();
    if t.report.epochs.len() != epochs || !loss.is_finite() {
        out.error(format!("training did not finish cleanly (loss {loss})"));
    }
    if t.mrr20 < MRR_FLOOR {
        out.error(format!(
            "MRR@20 {:.3}% is below the {MRR_FLOOR}% floor",
            t.mrr20
        ));
    }
}

pub fn run(seed: u64, out: &mut Outcome) {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    let Setup { ds, model, .. } = last.expect("at least one set-up");
    let train_len = TRAIN_EXAMPLES.min(ds.train.len());
    println!(
        "dataset: {} items, {} train / {} val / {} test examples; training on the first {train_len}",
        ds.num_items,
        ds.train.len(),
        ds.val.len(),
        ds.test.len()
    );
    let trained = train(&ds, model, EPOCHS, train_len);
    check_training(&trained, EPOCHS, out);
    let (served, mismatches) = check_serving(&trained.frozen, &ds);
    let examples = (train_len * EPOCHS) as u64;
    let train_counts = Counts {
        attempted: examples,
        succeeded: examples,
        ..Counts::default()
    };
    let serve_counts = Counts {
        attempted: served,
        succeeded: served - mismatches.len() as u64,
        rejected: 0,
        failed: mismatches.len() as u64,
    };
    for e in mismatches {
        out.error(e);
    }
    let epoch_s: Vec<f64> = trained.report.epochs.iter().map(|e| e.duration_s).collect();
    print_phase("train", &train_counts);
    println!(
        "train: {EPOCHS} epoch(s) of {train_len} examples in {:.3} s, epochs {epoch_s:.3?} s, final loss {:.6}",
        trained.fit_s,
        trained.report.final_train_loss()
    );
    println!(
        "evaluate: {} test examples in {EVAL_CHUNKS} chunks, {:.3} s, MRR@20 {:.6}%",
        ds.test.len(),
        trained.evaluate_s,
        trained.mrr20
    );
    print_phase("serve", &serve_counts);
    out.counts.add(train_counts);
    out.counts.add(serve_counts);
    let median_epoch_s = median(&epoch_s);
    out.metric(
        "throughput_sps",
        "sessions/s",
        train_len as f64 / median_epoch_s,
    );
    out.metric("p50_ms", "ms", median(&trained.eval_chunk_s) * 1e3);
    out.metric("setup_s", "s", median(&setup_s));
    out.metric("mrr20", "%", trained.mrr20);
    out.series.push(("setup_s", setup_s));
}
