//! Micro-bench: full-model inference (one session → full-vocabulary
//! logits) for EMBSR and its main variants — quantifies the cost of each
//! architectural component — and the EMBSR encoder on the serving shape,
//! one session per call (`repr/b{B}`) against the whole batch in one call
//! (`repr_batch/b{B}`). Each encoder iteration encodes one batch of `B`
//! sessions, so its time divided by `B` is the cost of a session.

use embsr_core::{Embsr, EmbsrConfig};
use embsr_datasets::{generate_sessions, DatasetPreset, SyntheticConfig};
use embsr_obs::bench::{black_box, Bench};
use embsr_sessions::Session;
use embsr_tensor::kernels::{with_tier, KernelTier};
use embsr_tensor::{inference_mode, Rng};
use embsr_train::{truncate_session, SessionModel};

/// The serving shape: `|V|`, `|O|`, `d` and the truncation horizon of the
/// end-to-end serving benchmark.
const SERVE_ITEMS: usize = 8192;
const SERVE_OPS: usize = 10;
const SERVE_DIM: usize = 48;
const SERVE_MAX_LEN: usize = 40;

/// `n` non-empty JD-Appliances-shaped sessions over the serving vocabulary,
/// truncated to the serving horizon.
fn serving_sessions(n: usize) -> Vec<Session> {
    let mut cfg = SyntheticConfig::preset(DatasetPreset::JdAppliances);
    cfg.num_items = SERVE_ITEMS;
    cfg.num_sessions = 2 * n;
    cfg.seed = 5;
    generate_sessions(&cfg)
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| truncate_session(s, SERVE_MAX_LEN))
        .take(n)
        .collect()
}

fn make_session(len: usize, num_items: u32, num_ops: u16) -> Session {
    let mut rng = Rng::seed_from_u64(3);
    let pairs: Vec<(u32, u16)> = (0..len)
        .map(|_| {
            (
                rng.below(num_items as usize) as u32,
                rng.below(num_ops as usize) as u16,
            )
        })
        .collect();
    Session::from_pairs(0, &pairs)
}

fn main() {
    let (v, o, d) = (500usize, 10usize, 32usize);
    let session = make_session(20, v as u32, o as u16);
    let variants: Vec<(&str, EmbsrConfig)> = vec![
        ("EMBSR", EmbsrConfig::full(v, o, d)),
        ("EMBSR-NS", EmbsrConfig::ablation_ns(v, o, d)),
        ("EMBSR-NG", EmbsrConfig::ablation_ng(v, o, d)),
        ("SGNN-Self", EmbsrConfig::sgnn_self(v, o, d)),
        ("RNN-Self", EmbsrConfig::rnn_self(v, o, d)),
    ];
    let mut bench = Bench::from_env();
    {
        let mut group = bench.group("model_forward");
        for (name, cfg) in variants {
            let model = Embsr::new(cfg);
            group.bench_function(format!("logits/{name}"), |b| {
                let mut rng = Rng::seed_from_u64(0);
                b.iter(|| black_box(model.logits(black_box(&session), false, &mut rng)))
            });
        }

        // The serving encoder: inference mode on the vectorized tier, as a
        // frozen replica runs it, cycling through 256 distinct sessions.
        let model = Embsr::new(EmbsrConfig::full(SERVE_ITEMS, SERVE_OPS, SERVE_DIM));
        let sessions = serving_sessions(256);
        let serve = |f: &mut dyn FnMut()| with_tier(KernelTier::Simd, || inference_mode(f));
        for batch in [1usize, 8, 32] {
            let chunks: Vec<Vec<&Session>> =
                sessions.chunks(batch).map(|c| c.iter().collect()).collect();
            group.bench_function(format!("repr/b{batch}"), |b| {
                let mut next = chunks.iter().cycle();
                let mut rng = Rng::seed_from_u64(0);
                b.iter(|| {
                    let chunk = next.next().expect("cycle");
                    serve(&mut || {
                        for s in chunk {
                            black_box(model.repr(s, false, &mut rng));
                        }
                    })
                })
            });
            group.bench_function(format!("repr_batch/b{batch}"), |b| {
                let mut next = chunks.iter().cycle();
                b.iter(|| {
                    let chunk = next.next().expect("cycle");
                    serve(&mut || {
                        black_box(model.repr_batch(chunk));
                    })
                })
            });
        }
    }
    bench.finish();
}
