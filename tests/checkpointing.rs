//! Checkpoint integration: a trained EMBSR model saved to disk and loaded
//! into a freshly constructed model must reproduce identical scores, and a
//! load that fails must leave the model exactly as it was.

use embsr_core::{Embsr, EmbsrConfig};
use embsr_datasets::{build_dataset, DatasetPreset, SyntheticConfig};
use embsr_sessions::Session;
use embsr_tensor::Tensor;
use embsr_train::{
    load_model, save_model, save_tensors, NeuralRecommender, Recommender, SessionModel, TrainConfig,
};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("embsr_it_ckpt_{name}_{}", std::process::id()));
    p
}

#[test]
fn trained_model_roundtrips_through_checkpoint() {
    let mut cfg = SyntheticConfig::tiny(DatasetPreset::JdAppliances);
    cfg.num_sessions = 200;
    let data = build_dataset(&cfg);

    let model_cfg = EmbsrConfig::full(data.num_items, data.num_ops, 12);
    let mut rec = NeuralRecommender::new(
        Embsr::new(model_cfg.clone()),
        TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    );
    rec.fit(&data.train, &data.val);

    let probe = Session::from_pairs(1, &[(1, 0), (2, 1), (3, 2)]);
    let before = rec.scores(&probe);

    let path = tmp("roundtrip");
    save_model(&rec.model, &path).expect("save");

    // a fresh model with different seed => different weights…
    let mut fresh_cfg = model_cfg;
    fresh_cfg.seed = 12345;
    let fresh = NeuralRecommender::new(Embsr::new(fresh_cfg), TrainConfig::default());
    assert_ne!(fresh.scores(&probe), before, "fresh model should differ");

    // …until the checkpoint is loaded.
    load_model(&fresh.model, &path).expect("load");
    assert_eq!(fresh.scores(&probe), before, "checkpoint must restore scores");
    std::fs::remove_file(path).ok();
}

#[test]
fn checkpoint_rejects_differently_sized_model() {
    let model = Embsr::new(EmbsrConfig::full(10, 4, 8));
    let path = tmp("sizecheck");
    save_model(&model, &path).expect("save");

    let other = Embsr::new(EmbsrConfig::full(11, 4, 8)); // different vocab
    assert!(load_model(&other, &path).is_err());
    std::fs::remove_file(path).ok();
}

/// Every parameter's bits, in list order.
fn param_bits(model: &Embsr) -> Vec<Vec<u32>> {
    model
        .parameters()
        .iter()
        .map(|p| p.to_vec().iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn failed_loads_leave_every_parameter_untouched() {
    let saved = Embsr::new(EmbsrConfig::full(10, 4, 8));
    let mut cfg = EmbsrConfig::full(10, 4, 8);
    cfg.seed = 99;
    let target = Embsr::new(cfg);
    let before = param_bits(&target);
    assert_ne!(param_bits(&saved), before, "seeds must differ");

    // a checkpoint cut 4 bytes short of its last tensor's data
    let truncated = tmp("truncated");
    save_model(&saved, &truncated).expect("save");
    let bytes = std::fs::read(&truncated).expect("read");
    std::fs::write(&truncated, &bytes[..bytes.len() - 4]).expect("truncate");
    // a checkpoint whose last tensor has another shape
    let mut params = saved.parameters();
    let last = params.pop().expect("EMBSR has parameters");
    params.push(Tensor::zeros(&[last.len() + 1]));
    let misshapen = tmp("misshapen");
    save_tensors(&params, &misshapen).expect("save");
    let last_shape = format!(
        "tensor {}: weights have shape [{}], model has shape {:?}",
        params.len() - 1,
        last.len() + 1,
        last.shape().dims()
    );

    for (path, want) in [
        (truncated, "truncated".to_string()),
        (misshapen, last_shape),
    ] {
        let err = load_model(&target, &path).expect_err("a bad checkpoint is refused");
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains(&want), "{err}");
        assert_eq!(
            param_bits(&target),
            before,
            "{want}: no parameter may change"
        );
    }
}
