//! Micro-bench: operation-aware self-attention forward pass.
//!
//! The ablation behind the dyadic-relation design choice: the extended
//! attention (eq. 14–16) versus standard self-attention, across sequence
//! lengths. `dyadic/{t}` and `standard/{t}` time the all-queries
//! reference (`attend`, `t²` keys on the dyadic path); `dyadic_last/{t}`
//! and `standard_last/{t}` time the star-query form EMBSR runs
//! (`attend_last`, `t` keys).

use embsr_nn::OpAwareSelfAttention;
use embsr_obs::bench::{black_box, Bench};
use embsr_tensor::{Rng, Tensor};

fn main() {
    let dim = 32;
    let num_ops = 10;
    let mut bench = Bench::from_env();
    {
        let mut group = bench.group("attention_forward");
        for &t in &[8usize, 24, 48] {
            let mut rng = Rng::seed_from_u64(1);
            let xs = Tensor::from_vec(
                (0..t * dim).map(|_| rng.uniform_range(-0.5, 0.5)).collect(),
                &[t, dim],
            );
            let ops: Vec<usize> = (0..t).map(|i| i % num_ops).collect();

            let dyadic = OpAwareSelfAttention::new(dim, num_ops, 64, true, &mut rng);
            group.bench_function(format!("dyadic/{t}"), |b| {
                b.iter(|| black_box(dyadic.attend(black_box(&xs), black_box(&ops))))
            });
            group.bench_function(format!("dyadic_last/{t}"), |b| {
                b.iter(|| black_box(dyadic.attend_last(black_box(&xs), black_box(&ops))))
            });

            let standard = OpAwareSelfAttention::new(dim, num_ops, 64, false, &mut rng);
            group.bench_function(format!("standard/{t}"), |b| {
                b.iter(|| black_box(standard.attend(black_box(&xs), black_box(&ops))))
            });
            group.bench_function(format!("standard_last/{t}"), |b| {
                b.iter(|| black_box(standard.attend_last(black_box(&xs), black_box(&ops))))
            });
        }
    }
    bench.finish();
}
