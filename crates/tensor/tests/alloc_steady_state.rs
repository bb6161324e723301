//! Steady-state allocation discipline: after a warmup batch has populated
//! the thread-local buffer pool, further identical training iterations must
//! perform **zero** fresh kernel-buffer allocations — every forward
//! activation, backward gradient, and optimizer access is served from
//! recycled buffers.

use embsr_tensor::{
    clip_grad_norm, pool_stats, reset_pool_stats, Adam, AdamConfig, Optimizer, Rng, Tensor,
};

fn param(rng: &mut Rng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.uniform_range(-0.3, 0.3)).collect();
    Tensor::from_vec(data, dims).requires_grad()
}

#[test]
fn steady_state_training_performs_zero_fresh_kernel_allocations() {
    let mut rng = Rng::seed_from_u64(7);
    let vocab = 40;
    let d = 16;
    let batch = 8;

    let emb = param(&mut rng, &[vocab, d]);
    let w1 = param(&mut rng, &[d, d]);
    let w2 = param(&mut rng, &[d, vocab]);
    let params = [emb.clone(), w1.clone(), w2.clone()];
    let mut opt = Adam::new(params.to_vec(), AdamConfig::default());

    let idx: Vec<usize> = (0..batch).map(|i| (i * 5) % vocab).collect();
    let targets: Vec<usize> = (0..batch).map(|i| (i * 7) % vocab).collect();
    // Message-passing owners: repeated, skipped and out-of-order segments.
    let owners = [1usize, 0, 3, 3, 5, 0, 7, 6];

    // A representative op mix: embedding gather, per-node segment sums,
    // GEMMs, normalization, batched attention-style products, loss,
    // clipping, Adam.
    let run_iteration = |opt: &mut Adam| {
        opt.zero_grad();
        let x = emb.gather_rows(&idx).segment_sum(&owners, batch); // [8, d]
        let h = x.matmul(&w1).layer_norm_rows(1e-5).sigmoid(); // [8, d]
        let q = h.reshape(&[2, 4, d]);
        let scores = q.bmm_nt(&q).reshape(&[batch, 4]); // [8, 4]
        let mixed = scores
            .softmax_rows()
            .reshape(&[2, 4, 4])
            .bmm(&q)
            .reshape(&[batch, d]); // [8, d]
        let logits = mixed.add(&h).matmul(&w2); // [8, vocab]
        let loss = logits.cross_entropy(&targets);
        loss.backward();
        clip_grad_norm(&params, 5.0);
        opt.step();
        loss.item()
    };

    // Warmup: populates the pool (and Adam's moment buffers) with the
    // iteration's full buffer multiset.
    for _ in 0..3 {
        let _ = run_iteration(&mut opt);
    }

    reset_pool_stats();
    let mut losses = Vec::new();
    for _ in 0..6 {
        losses.push(run_iteration(&mut opt));
    }
    let stats = pool_stats();

    assert_eq!(
        stats.misses, 0,
        "steady-state batches must be served entirely from the pool: {stats:?}"
    );
    assert_eq!(
        stats.alloc_count, 0,
        "steady-state batches must not allocate fresh kernel buffers: {stats:?}"
    );
    assert!(
        stats.hits > 0 && stats.bytes_reused > 0,
        "the pool must actually be exercised: {stats:?}"
    );
    // Sanity: training is really happening (loss strictly decreases).
    assert!(
        losses.last() < losses.first(),
        "loss should decrease over iterations: {losses:?}"
    );
}
