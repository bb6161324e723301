//! Serving-path equivalence, tiered by kernel dispatch and snapshot
//! precision (DESIGN.md §11):
//!
//! * **Within any tier**, batched scoring must be **bitwise identical**
//!   (`f32::to_bits`) to per-session scoring at the same tier: GEMM rows
//!   are independent reductions and the fused softmax/normalize kernels
//!   process rows independently, so batching changes throughput, never
//!   scores. The batch sizes exercised are ragged on purpose: 1, 3, 4, 5
//!   and 32 straddle both GEMM tiles (packed NR=8, vectorized NR=32), so
//!   partial- and full-tile code paths are held to equality.
//! * The **packed tier** (`KernelTier::Packed`) stays bitwise identical to
//!   the per-session taped `Recommender::scores` path — the historical
//!   contract, still available by `set_tier` for audit runs.
//! * The **vectorized tier** (`KernelTier::Simd`, the serving default) and
//!   the **reduced-precision snapshots** (f16/bf16) relax to an
//!   epsilon-gated score equivalence plus **exact Hit@20 / MRR@20 metric
//!   identity** against the f32 scalar-reference taped path running the
//!   deployed weights: lane-split reductions may move a logit by a few
//!   ULPs, but recommendations must not move at all. Quantization rounds
//!   the weights exactly once, at freeze — so the deployed weights for a
//!   reduced-precision snapshot *are* the quantized values, the taped
//!   reference runs those same values (`import_params` from the snapshot),
//!   and the quantization loss itself is gated separately with a
//!   precision-scaled epsilon against the pre-quantization f32 weights
//!   (rank identity against pre-quantization weights is not a meaningful
//!   contract: adjacent logits of any model can sit closer than a bf16
//!   step, so some rank flip is unavoidable and the right gate for the
//!   rounding is magnitude, not order).

use embsr_baselines::{
    Bert4Rec, Fpmc, GcSan, Gru4Rec, Hup, MkmSr, Narm, Rib, SgnnHn, SrGnn, Stamp,
};
use embsr_core::{Embsr, EmbsrConfig};
use embsr_eval::{hit_at_k, rank_of_target, reciprocal_rank_at_k};
use embsr_serve::{top_k_of_row, FrozenModel, KernelTier, Precision, ReprCache};
use embsr_sessions::{MicroBehavior, Session};
use embsr_tensor::{import_params, inference_mode, kernels};
use embsr_train::{truncate_session, NeuralRecommender, Recommender, SessionModel, TrainConfig};

const SEEDS: [u64; 3] = [11, 42, 1337];
const RAGGED_BATCHES: [usize; 5] = [1, 3, 4, 5, 32];

const NUM_ITEMS: usize = 40;
const NUM_OPS: usize = 6;
const DIM: usize = 16;

/// Variable-length sessions covering the ragged batch sizes with room to
/// spare; lengths vary so batches mix short and long prefixes.
fn test_sessions(seed: u64) -> Vec<Session> {
    (0..64u64)
        .map(|i| {
            let len = 1 + ((i * 7 + seed) % 9) as usize;
            Session {
                id: i,
                events: (0..len)
                    .map(|j| {
                        let item = ((i * 13 + j as u64 * 5 + seed) % NUM_ITEMS as u64) as u32;
                        let op = ((i + j as u64) % NUM_OPS as u64) as u16;
                        MicroBehavior::new(item, op)
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Asserts the packed-tier frozen batched path reproduces the per-session
/// taped path bit for bit, across every ragged batch size.
fn assert_packed_bitwise<M: SessionModel>(model: M, reference: M, seed: u64) {
    let max_len = TrainConfig::fast().max_session_len;
    let mut frozen = FrozenModel::freeze(model, max_len);
    frozen.set_tier(KernelTier::Packed);
    let rec = NeuralRecommender::new(reference, TrainConfig::fast());
    let sessions = test_sessions(seed);
    for &batch in &RAGGED_BATCHES {
        for chunk in sessions.chunks(batch) {
            let batched = frozen.score_batch(chunk);
            assert_eq!(batched.len(), chunk.len());
            for (session, row) in chunk.iter().zip(&batched) {
                let single = rec.scores(session);
                assert_eq!(row.len(), single.len());
                for (i, (a, b)) in row.iter().zip(&single).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "model {} seed {seed} batch {batch} session {} item {i}: \
                         batched {a} != per-session {b}",
                        frozen.name(),
                        session.id,
                    );
                }
            }
        }
    }
}

/// Asserts batched == single **bitwise at the frozen model's own tier**
/// (the serving default, vectorized), across every ragged batch size.
fn assert_batch_matches_single<M: SessionModel>(frozen: &FrozenModel<M>, seed: u64) {
    let sessions = test_sessions(seed);
    for &batch in &RAGGED_BATCHES {
        for chunk in sessions.chunks(batch) {
            let batched = frozen.score_batch(chunk);
            for (session, row) in chunk.iter().zip(&batched) {
                let single = frozen.score(session);
                assert_eq!(row.len(), single.len());
                for (i, (a, b)) in row.iter().zip(&single).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "model {} tier {:?} seed {seed} batch {batch} session {} item {i}: \
                         batched {a} != single {b}",
                        frozen.name(),
                        frozen.tier(),
                        session.id,
                    );
                }
            }
        }
    }
}

/// The relaxed serving contract: the taped scalar-reference path is loaded
/// with the frozen model's **deployed** weights (for full-precision freezes
/// that import is a no-op), then every served score must sit within `tol`
/// of the reference and the session-level Hit@20 / MRR@20 contributions
/// (target = the session's last item, pessimistic tie handling) must be
/// **exactly** equal — the serving stack may not move a recommendation.
fn assert_epsilon_and_metric_identity<M: SessionModel>(
    frozen: &FrozenModel<M>,
    reference: M,
    seed: u64,
    tol: f32,
    label: &str,
) {
    embsr_tensor::import_params(&reference.parameters(), frozen.snapshot());
    let rec = NeuralRecommender::new(reference, TrainConfig::fast());
    let sessions = test_sessions(seed);
    let mut hits = (0.0f64, 0.0f64);
    let mut mrrs = (0.0f64, 0.0f64);
    for chunk in sessions.chunks(8) {
        let batched = frozen.score_batch(chunk);
        for (session, row) in chunk.iter().zip(&batched) {
            let single = rec.scores(session);
            assert_eq!(row.len(), single.len());
            for (i, (a, b)) in row.iter().zip(&single).enumerate() {
                let bound = tol * b.abs().max(1.0);
                assert!(
                    (a - b).abs() <= bound,
                    "{label} model {} seed {seed} session {} item {i}: \
                     |{a} - {b}| > {bound}",
                    frozen.name(),
                    session.id,
                );
            }
            let target = session.events.last().map(|e| e.item as usize).unwrap_or(0);
            let (ra, rb) = (rank_of_target(row, target), rank_of_target(&single, target));
            assert_eq!(
                hit_at_k(ra, 20),
                hit_at_k(rb, 20),
                "{label} model {} seed {seed} session {}: Hit@20 moved (rank {ra} vs {rb})",
                frozen.name(),
                session.id,
            );
            assert_eq!(
                reciprocal_rank_at_k(ra, 20),
                reciprocal_rank_at_k(rb, 20),
                "{label} model {} seed {seed} session {}: MRR@20 moved (rank {ra} vs {rb})",
                frozen.name(),
                session.id,
            );
            hits.0 += hit_at_k(ra, 20);
            hits.1 += hit_at_k(rb, 20);
            mrrs.0 += reciprocal_rank_at_k(ra, 20);
            mrrs.1 += reciprocal_rank_at_k(rb, 20);
        }
    }
    // aggregate identity follows from per-session identity, but assert it
    // anyway — it is the number a paper table would print
    assert_eq!(hits.0.to_bits(), hits.1.to_bits(), "{label}: aggregate Hit@20");
    assert_eq!(mrrs.0.to_bits(), mrrs.1.to_bits(), "{label}: aggregate MRR@20");
}

/// EMBSR in the configuration `variant` builds, initialized from `seed`.
fn embsr(variant: fn(usize, usize, usize) -> EmbsrConfig, seed: u64) -> Embsr {
    let mut cfg = variant(NUM_ITEMS, NUM_OPS, DIM);
    cfg.seed = seed;
    Embsr::new(cfg)
}

fn embsr_pair(seed: u64) -> (Embsr, Embsr) {
    (
        embsr(EmbsrConfig::full, seed),
        embsr(EmbsrConfig::full, seed),
    )
}

// ---------------------------------------------------------------------------
// Reduced-precision snapshots: the serving stack keeps epsilon + exact
// metric identity on the deployed (quantized) weights, and the quantization
// loss itself stays within a precision-scaled epsilon of the original f32
// weights
// ---------------------------------------------------------------------------

/// Precision grids and their quantization-loss tolerances vs the original
/// f32 weights. bf16 keeps 8 significand bits (relative step 2⁻⁸), f16
/// keeps 11 (2⁻¹¹); the tolerances leave headroom for error accumulating
/// over the `d`-deep reductions and nonlinearities.
const PRECISION_GATES: [(Precision, f32); 2] = [(Precision::F16, 2e-2), (Precision::Bf16, 2e-1)];

/// Gates the quantization loss: frozen (quantized) scores must stay within
/// `tol` of the taped reference running the **original f32** weights.
fn assert_quantization_epsilon<M: SessionModel>(
    frozen: &FrozenModel<M>,
    original: M,
    seed: u64,
    tol: f32,
    label: &str,
) {
    let rec = NeuralRecommender::new(original, TrainConfig::fast());
    for chunk in test_sessions(seed).chunks(8) {
        let batched = frozen.score_batch(chunk);
        for (session, row) in chunk.iter().zip(&batched) {
            let single = rec.scores(session);
            for (i, (a, b)) in row.iter().zip(&single).enumerate() {
                let bound = tol * b.abs().max(1.0);
                assert!(
                    (a - b).abs() <= bound,
                    "{label} model {} seed {seed} session {} item {i}: \
                     quantization moved score |{a} - {b}| > {bound}",
                    frozen.name(),
                    session.id,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Session-repr cache: cached scoring is bitwise-identical to uncached, cold
// and warm
// ---------------------------------------------------------------------------

/// The cache contract at the frozen-model layer: `score_batch_cached` must
/// reproduce `score_batch` at `f32::to_bits` equality on a cold cache (all
/// misses → encoder runs, reprs inserted) AND on a warm one (hits skip the
/// encoder and replay stored reprs into the same logits GEMM) — and the
/// warm pass must actually hit, or the test is vacuous.
fn assert_cached_bitwise<M: SessionModel>(frozen: &FrozenModel<M>, seed: u64) {
    let cache = ReprCache::new(256);
    let sessions = test_sessions(seed);
    for pass in ["cold", "warm"] {
        for &batch in &RAGGED_BATCHES {
            for chunk in sessions.chunks(batch) {
                let uncached = frozen.score_batch(chunk);
                let cached = frozen.score_batch_cached(chunk, &cache, 1);
                assert_eq!(uncached.len(), cached.len());
                for (session, (u, c)) in chunk.iter().zip(uncached.iter().zip(&cached)) {
                    assert_eq!(u.len(), c.len());
                    for (i, (a, b)) in u.iter().zip(c).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "model {} seed {seed} {pass} batch {batch} session {} item {i}: \
                             uncached {a} != cached {b}",
                            frozen.name(),
                            session.id,
                        );
                    }
                }
            }
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "warm pass must hit: {stats:?}");
    assert!(stats.insertions > 0, "cold pass must insert: {stats:?}");
    assert!(stats.entries > 0 && stats.bytes > 0, "cache holds state: {stats:?}");
}

// ---------------------------------------------------------------------------
// Prepared head: the frozen model's rows are the model's own rows, through
// every event that rebuilds the head
// ---------------------------------------------------------------------------

/// Asserts that `frozen` serves exactly the rows the model computes for
/// itself at the frozen tier: `reference` (loaded with the frozen weights)
/// scores each chunk on the fly, both batched (`logits_batch`) and per
/// session (`logits_infer`, whose head normalizes and packs the item table
/// on every call). `score_batch`, the cached path and `top_k` must all agree
/// with those rows bitwise.
fn assert_prepared_head_matches_model<M: SessionModel>(
    frozen: &FrozenModel<M>,
    reference: &M,
    seed: u64,
    label: &str,
) {
    import_params(&reference.parameters(), frozen.snapshot());
    let on_tier =
        |f: &dyn Fn() -> Vec<f32>| kernels::with_tier(frozen.tier(), || inference_mode(f));
    let cache = ReprCache::new(256);
    let v = frozen.num_items();
    for chunk in test_sessions(seed).chunks(5) {
        let truncated: Vec<Session> = chunk
            .iter()
            .map(|s| truncate_session(s, frozen.max_session_len()))
            .collect();
        let refs: Vec<&Session> = truncated.iter().collect();
        let batched = on_tier(&|| reference.logits_batch(&refs).to_vec());
        let served = frozen.score_batch(chunk);
        let cached = frozen.score_batch_cached(chunk, &cache, 1);
        let top = frozen.top_k(chunk, 20);
        for (i, session) in truncated.iter().enumerate() {
            let single = on_tier(&|| reference.logits_infer(session).to_vec());
            let want: Vec<u32> = batched[i * v..(i + 1) * v]
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let ctx = format!(
                "{label} model {} tier {:?} seed {seed} session {}",
                frozen.name(),
                frozen.tier(),
                session.id
            );
            for (name, row) in [
                ("per-session", &single),
                ("served", &served[i]),
                ("cached", &cached[i]),
            ] {
                let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{ctx}: {name} row != logits_batch row");
            }
            let want_top: Vec<(u32, u32)> = top_k_of_row(&served[i], 20)
                .iter()
                .map(|s| (s.item, s.score.to_bits()))
                .collect();
            let got_top: Vec<(u32, u32)> =
                top[i].iter().map(|s| (s.item, s.score.to_bits())).collect();
            assert_eq!(got_top, want_top, "{ctx}: top_k");
        }
    }
}

/// Drives one model family through every event that rebuilds a frozen
/// replica's prepared head: a fresh replica from a snapshot, a swap to
/// another version, tier changes both ways, and reduced-precision freezes
/// and swaps.
fn prepared_head_survives_rebuilds<M: SessionModel>(make: impl Fn(u64) -> M, label: &str) {
    let max_len = TrainConfig::fast().max_session_len;
    for seed in SEEDS {
        let reference = make(0);
        let master = FrozenModel::freeze(make(seed), max_len);
        let mut replica = FrozenModel::from_snapshot(make(seed + 1), master.snapshot(), max_len);
        assert_prepared_head_matches_model(
            &replica,
            &reference,
            seed,
            &format!("{label} from_snapshot"),
        );

        let next = FrozenModel::freeze(make(seed + 2), max_len);
        replica
            .swap_snapshot(next.snapshot(), max_len, Precision::F32)
            .expect("same layout");
        assert_prepared_head_matches_model(&replica, &reference, seed, &format!("{label} swapped"));

        for tier in [KernelTier::Packed, KernelTier::Simd] {
            replica.set_tier(tier);
            assert_prepared_head_matches_model(
                &replica,
                &reference,
                seed,
                &format!("{label} set_tier"),
            );
        }

        for (precision, _) in PRECISION_GATES {
            let quantized = FrozenModel::freeze_with_precision(make(seed + 3), max_len, precision);
            assert_prepared_head_matches_model(&quantized, &reference, seed, precision.name());
            replica
                .swap_snapshot(quantized.snapshot(), max_len, precision)
                .expect("same layout");
            assert_prepared_head_matches_model(
                &replica,
                &reference,
                seed,
                &format!("{label} swapped to {}", precision.name()),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Every serving contract, for every neural model and every EMBSR variant
// ---------------------------------------------------------------------------

/// The packed tier is bitwise with the taped path, for every seed.
fn packed_contract<M: SessionModel>(make: impl Fn(u64) -> M) {
    for seed in SEEDS {
        assert_packed_bitwise(make(seed), make(seed), seed);
    }
}

/// The serving default tier is the vectorized one, and its batches match
/// its single scores bitwise, for every seed.
fn batch_contract<M: SessionModel>(make: impl Fn(u64) -> M) {
    let max_len = TrainConfig::fast().max_session_len;
    for seed in SEEDS {
        let frozen = FrozenModel::freeze(make(seed), max_len);
        assert_eq!(frozen.tier(), KernelTier::Simd, "serving default tier");
        assert_batch_matches_single(&frozen, seed);
    }
}

/// The vectorized tier keeps the epsilon and exact Hit@20/MRR@20 identity
/// against the taped path, for every seed.
fn simd_contract<M: SessionModel>(make: impl Fn(u64) -> M) {
    let max_len = TrainConfig::fast().max_session_len;
    for seed in SEEDS {
        let frozen = FrozenModel::freeze(make(seed), max_len);
        assert_epsilon_and_metric_identity(&frozen, make(seed), seed, 1e-4, "simd/f32");
    }
}

/// The f16/bf16 snapshots keep the epsilon and exact metric identity on
/// the deployed weights, plus the quantization epsilon against the
/// pre-quantization weights, for every seed.
fn reduced_precision_contract<M: SessionModel>(make: impl Fn(u64) -> M) {
    let max_len = TrainConfig::fast().max_session_len;
    for seed in SEEDS {
        for (precision, tol) in PRECISION_GATES {
            let frozen = FrozenModel::freeze_with_precision(make(seed), max_len, precision);
            assert_epsilon_and_metric_identity(&frozen, make(seed), seed, 1e-4, precision.name());
            assert_quantization_epsilon(&frozen, make(seed), seed, tol, precision.name());
        }
    }
}

/// Cached scores equal uncached ones cold and warm, for every seed.
fn cache_contract<M: SessionModel>(make: impl Fn(u64) -> M) {
    let max_len = TrainConfig::fast().max_session_len;
    for seed in SEEDS {
        assert_cached_bitwise(&FrozenModel::freeze(make(seed), max_len), seed);
    }
}

/// Runs every serving contract above against the model family `make`
/// builds from a seed.
fn serving_contracts<M: SessionModel>(make: impl Fn(u64) -> M, label: &str) {
    packed_contract(&make);
    batch_contract(&make);
    simd_contract(&make);
    reduced_precision_contract(&make);
    cache_contract(&make);
    prepared_head_survives_rebuilds(make, label);
}

fn gru4rec(seed: u64) -> Gru4Rec {
    Gru4Rec::new(NUM_ITEMS, DIM, seed)
}

fn narm(seed: u64) -> Narm {
    Narm::new(NUM_ITEMS, DIM, 0.25, seed)
}

#[test]
fn embsr_packed_tier_is_bitwise_equal_to_taped() {
    packed_contract(|seed| embsr(EmbsrConfig::full, seed));
}

#[test]
fn gru4rec_packed_tier_is_bitwise_equal_to_taped() {
    packed_contract(gru4rec);
}

#[test]
fn narm_packed_tier_is_bitwise_equal_to_taped() {
    packed_contract(narm);
}

#[test]
fn simd_tier_batches_match_single_scores_bitwise() {
    batch_contract(|seed| embsr(EmbsrConfig::full, seed));
    batch_contract(gru4rec);
    batch_contract(narm);
}

#[test]
fn embsr_simd_tier_keeps_epsilon_and_metrics() {
    simd_contract(|seed| embsr(EmbsrConfig::full, seed));
}

#[test]
fn gru4rec_simd_tier_keeps_epsilon_and_metrics() {
    simd_contract(gru4rec);
}

#[test]
fn narm_simd_tier_keeps_epsilon_and_metrics() {
    simd_contract(narm);
}

#[test]
fn embsr_reduced_precision_keeps_epsilon_and_metrics() {
    reduced_precision_contract(|seed| embsr(EmbsrConfig::full, seed));
}

#[test]
fn gru4rec_reduced_precision_keeps_epsilon_and_metrics() {
    reduced_precision_contract(gru4rec);
}

#[test]
fn narm_reduced_precision_keeps_epsilon_and_metrics() {
    reduced_precision_contract(narm);
}

#[test]
fn embsr_repr_cache_is_bitwise_equal_cold_and_warm() {
    cache_contract(|seed| embsr(EmbsrConfig::full, seed));
}

#[test]
fn gru4rec_repr_cache_is_bitwise_equal_cold_and_warm() {
    cache_contract(gru4rec);
}

#[test]
fn narm_repr_cache_is_bitwise_equal_cold_and_warm() {
    cache_contract(narm);
}

#[test]
fn embsr_prepared_head_rows_equal_model_rows_bitwise() {
    prepared_head_survives_rebuilds(|seed| embsr(EmbsrConfig::full, seed), "EMBSR");
}

#[test]
fn gru4rec_prepared_head_rows_equal_model_rows_bitwise() {
    prepared_head_survives_rebuilds(gru4rec, "GRU4Rec");
}

#[test]
fn narm_prepared_head_rows_equal_model_rows_bitwise() {
    prepared_head_survives_rebuilds(narm, "NARM");
}

#[test]
fn embsr_variants_meet_every_serving_contract() {
    let variants: [fn(usize, usize, usize) -> EmbsrConfig; 10] = [
        EmbsrConfig::ablation_ns,
        EmbsrConfig::ablation_ng,
        EmbsrConfig::ablation_nf,
        EmbsrConfig::sgnn_self,
        EmbsrConfig::sgnn_seq_self,
        EmbsrConfig::rnn_self,
        EmbsrConfig::sgnn_abs_self,
        EmbsrConfig::sgnn_dyadic,
        EmbsrConfig::full_op_weighted,
        |v, o, d| EmbsrConfig::fixed_beta(v, o, d, 0.4),
    ];
    for variant in variants {
        let label = variant(NUM_ITEMS, NUM_OPS, DIM).name;
        serving_contracts(|seed| embsr(variant, seed), &label);
    }
}

#[test]
fn fpmc_meets_every_serving_contract() {
    serving_contracts(|seed| Fpmc::new(NUM_ITEMS, DIM, seed), "FPMC");
}

#[test]
fn stamp_meets_every_serving_contract() {
    serving_contracts(|seed| Stamp::new(NUM_ITEMS, DIM, seed), "STAMP");
}

#[test]
fn srgnn_meets_every_serving_contract() {
    serving_contracts(|seed| SrGnn::new(NUM_ITEMS, DIM, seed), "SR-GNN");
}

#[test]
fn gcsan_meets_every_serving_contract() {
    serving_contracts(|seed| GcSan::new(NUM_ITEMS, DIM, seed), "GC-SAN");
}

#[test]
fn bert4rec_meets_every_serving_contract() {
    serving_contracts(|seed| Bert4Rec::new(NUM_ITEMS, DIM, seed), "BERT4Rec");
}

#[test]
fn sgnnhn_meets_every_serving_contract() {
    serving_contracts(|seed| SgnnHn::new(NUM_ITEMS, DIM, seed), "SGNN-HN");
}

#[test]
fn rib_meets_every_serving_contract() {
    serving_contracts(|seed| Rib::new(NUM_ITEMS, NUM_OPS, DIM, seed), "RIB");
}

#[test]
fn hup_meets_every_serving_contract() {
    serving_contracts(|seed| Hup::new(NUM_ITEMS, NUM_OPS, DIM, seed), "HUP");
}

#[test]
fn mkmsr_meets_every_serving_contract() {
    serving_contracts(|seed| MkmSr::new(NUM_ITEMS, NUM_OPS, DIM, seed), "MKM-SR");
}

// ---------------------------------------------------------------------------
// Cache versioning, snapshot replication and pooling invariants
// ---------------------------------------------------------------------------

#[test]
fn repr_cache_isolates_versions_and_packed_tier_stays_bitwise() {
    // Same sessions, two snapshot versions in one cache: neither pollutes
    // the other (the key includes the version), and the cached path holds
    // its bitwise contract on the audit (packed) tier too.
    let max_len = TrainConfig::fast().max_session_len;
    let (model_a, _) = embsr_pair(11);
    let (model_b, _) = embsr_pair(42);
    let mut frozen_a = FrozenModel::freeze(model_a, max_len);
    let mut frozen_b = FrozenModel::freeze(model_b, max_len);
    frozen_a.set_tier(KernelTier::Packed);
    frozen_b.set_tier(KernelTier::Packed);
    let cache = ReprCache::new(256);
    let sessions = &test_sessions(7)[..16];
    for _ in 0..2 {
        for (frozen, version) in [(&frozen_a, 1u64), (&frozen_b, 2u64)] {
            let uncached = frozen.score_batch(sessions);
            let cached = frozen.score_batch_cached(sessions, &cache, version);
            for (u, c) in uncached.iter().zip(&cached) {
                for (a, b) in u.iter().zip(c) {
                    assert_eq!(a.to_bits(), b.to_bits(), "version {version}");
                }
            }
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "both versions warm: {stats:?}");
}

#[test]
fn snapshot_replicas_score_identically() {
    // The engine's worker replicas are built this way: fresh model +
    // imported snapshot. They must score exactly like the original.
    let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
    cfg.seed = 42;
    let frozen = FrozenModel::freeze(Embsr::new(cfg.clone()), 40);
    cfg.seed = 7; // different init: the snapshot must overwrite it
    let replica = FrozenModel::from_snapshot(Embsr::new(cfg), frozen.snapshot(), 40);
    let sessions = test_sessions(42);
    let a = frozen.score_batch(&sessions[..8]);
    let b = replica.score_batch(&sessions[..8]);
    for (ra, rb) in a.iter().zip(&b) {
        for (x, y) in ra.iter().zip(rb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn reduced_precision_replicas_score_identically() {
    // Quantization happens once, at freeze: a replica rebuilt from the
    // serialized reduced-precision snapshot scores bitwise like the master.
    for (precision, _) in PRECISION_GATES {
        let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
        cfg.seed = 42;
        let frozen = FrozenModel::freeze_with_precision(Embsr::new(cfg.clone()), 40, precision);
        cfg.seed = 7;
        let bytes = frozen.snapshot_bytes();
        let replica = FrozenModel::from_snapshot_bytes(Embsr::new(cfg), &bytes)
            .expect("snapshot bytes decode");
        assert_eq!(replica.precision(), precision);
        let sessions = test_sessions(42);
        let a = frozen.score_batch(&sessions[..8]);
        let b = replica.score_batch(&sessions[..8]);
        for (ra, rb) in a.iter().zip(&b) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits(), "{precision:?}");
            }
        }
    }
}

#[test]
fn reduced_precision_snapshots_are_half_the_size() {
    let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
    cfg.seed = 11;
    let full = FrozenModel::freeze(Embsr::new(cfg.clone()), 40).snapshot_bytes().len();
    for (precision, _) in PRECISION_GATES {
        let reduced = FrozenModel::freeze_with_precision(Embsr::new(cfg.clone()), 40, precision)
            .snapshot_bytes()
            .len();
        let ratio = full as f64 / reduced as f64;
        assert!(
            ratio > 1.9 && ratio < 2.1,
            "{precision:?}: {full} vs {reduced} bytes ({ratio:.2}×)"
        );
    }
}

#[test]
fn steady_state_batches_allocate_nothing() {
    // Inference-mode scoring recycles activations through the tensor buffer
    // pool: after a warm-up batch has populated the pool's free lists, a
    // same-shape batch must be served entirely from recycled buffers — on
    // the vectorized serving tier included.
    let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
    cfg.seed = 11;
    let frozen = FrozenModel::freeze(Embsr::new(cfg), 40);
    let sessions = &test_sessions(11)[..8];
    let _ = frozen.score_batch(sessions); // warm-up populates the pool
    embsr_tensor::reset_pool_stats();
    let _ = frozen.score_batch(sessions);
    let stats = embsr_tensor::pool_stats();
    assert_eq!(
        stats.misses, 0,
        "steady-state batch fell through to fresh allocations: {stats:?}"
    );
    assert!(stats.hits > 0, "scoring should exercise the pool");
}
