//! Serving-path equivalence, tiered by kernel dispatch (DESIGN.md §11):
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
//! * The **vectorized tier** (`KernelTier::Simd`, the serving default)
//!   relaxes to an epsilon-gated score equivalence plus **exact Hit@20 /
//!   MRR@20 metric identity** against the scalar-reference taped path
//!   running the same weights: lane-split reductions may move a logit by a
//!   few ULPs, but recommendations must not move at all.
//! * Every contract runs on two session pools: one macro step per event,
//!   and ragged micro-operation sub-sequences of length 1–4.
//! * A snapshot whose tensor list does not fit the serving model is
//!   refused by shape by every reader, even at the same weight count, and
//!   serving stays on the active weights bitwise.

use embsr_baselines::{
    Bert4Rec, Fpmc, GcSan, Gru4Rec, Hup, MkmSr, Narm, Rib, SgnnHn, SrGnn, Stamp,
};
use embsr_core::{Embsr, EmbsrConfig};
use embsr_eval::{hit_at_k, rank_of_target, reciprocal_rank_at_k};
use embsr_net::{NetClient, NetError, Server, ServerConfig};
use embsr_serve::{
    serve, top_k_of_row, EngineConfig, FrozenModel, KernelTier, ReprCache, ScoreBatch,
    SubmitOptions, SwapError,
};
use embsr_sessions::{MicroBehavior, Session};
use embsr_tensor::{import_params, inference_mode, kernels, Rng, Tensor};
use embsr_train::{
    param_shapes, truncate_session, Head, LayoutMismatch, NeuralRecommender, Recommender,
    SessionModel, TrainConfig,
};

const SEEDS: [u64; 3] = [11, 42, 1337];
const RAGGED_BATCHES: [usize; 5] = [1, 3, 4, 5, 32];

const NUM_ITEMS: usize = 40;
const NUM_OPS: usize = 6;
const DIM: usize = 16;

/// Variable-length sessions covering the ragged batch sizes with room to
/// spare; lengths vary so batches mix short and long prefixes.
/// Consecutive events never share an item, so every macro step carries one
/// micro-operation.
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

/// The pool every serving contract runs on: [`test_sessions`] followed by
/// [`micro_sessions`], so each contract also holds on ragged op
/// sub-sequences.
fn contract_sessions(seed: u64) -> Vec<Session> {
    let mut sessions = test_sessions(seed);
    sessions.extend(micro_sessions(seed));
    sessions
}

/// Asserts the packed-tier frozen batched path reproduces the per-session
/// taped path bit for bit, across every ragged batch size.
fn assert_packed_bitwise<M: SessionModel>(model: M, reference: M, seed: u64) {
    let max_len = TrainConfig::fast().max_session_len;
    let mut frozen = FrozenModel::freeze(model, max_len);
    frozen.set_tier(KernelTier::Packed);
    let rec = NeuralRecommender::new(reference, TrainConfig::fast());
    let sessions = contract_sessions(seed);
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
    let sessions = contract_sessions(seed);
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
/// with the frozen model's weights, then every served score must sit within `tol`
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
    let sessions = contract_sessions(seed);
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
    let sessions = contract_sessions(seed);
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
    for chunk in contract_sessions(seed).chunks(5) {
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
/// another version, and tier changes both ways.
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
            .swap_snapshot(next.snapshot(), max_len)
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
// The batched EMBSR encoder: `repr_batch` rows, and every frozen row built
// from them, are the per-session `repr` rows bit for bit
// ---------------------------------------------------------------------------

/// The EMBSR configurations the batched encoder must reproduce row for row:
/// every variant the ablation switchboard builds, two stacked GNN layers,
/// and an odd width that straddles every kernel tile.
fn repr_batch_configs() -> Vec<EmbsrConfig> {
    let variants: [fn(usize, usize, usize) -> EmbsrConfig; 11] = [
        EmbsrConfig::full,
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
    let mut cfgs: Vec<EmbsrConfig> = variants
        .iter()
        .map(|v| v(NUM_ITEMS, NUM_OPS, DIM))
        .collect();
    let mut two_layers = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
    two_layers.gnn_layers = 2;
    two_layers.name = "EMBSR gnn_layers=2".into();
    cfgs.push(two_layers);
    let mut narrow = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, 13);
    narrow.name = "EMBSR d=13".into();
    cfgs.push(narrow);
    cfgs
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// Sessions whose macro steps carry one to four micro-operations each, so
/// the op-GRU's sub-sequences are ragged within and across sessions (the
/// sessions of `test_sessions` never repeat an item back to back, so all
/// of theirs have length one), and items recur across steps.
fn micro_sessions(seed: u64) -> Vec<Session> {
    (0..64u64)
        .map(|i| {
            let steps = 1 + (i * 5 + seed) % 7;
            let mut events = Vec::new();
            for k in 0..steps {
                let item = ((i * 11 + k * 7 + seed) % NUM_ITEMS as u64) as u32;
                for o in 0..1 + (i + k * 3 + seed) % 4 {
                    events.push(MicroBehavior::new(
                        item,
                        ((i + k + o) % NUM_OPS as u64) as u16,
                    ));
                }
            }
            Session { id: 64 + i, events }
        })
        .collect()
}

/// For one configuration, seed and tier: every ragged chunk's `repr_batch`
/// rows equal the per-session `repr` rows, and the frozen `score_batch`,
/// cached and `top_k` rows equal the head's rows over those per-session
/// reprs. On the packed tier the per-session rows must also equal the
/// taped `repr`, which runs the GRU one sequence at a time.
fn assert_repr_batch_rows_are_repr_rows(cfg: &EmbsrConfig, seed: u64, tier: KernelTier) {
    let mut cfg = cfg.clone();
    cfg.seed = seed;
    let model = Embsr::new(cfg.clone());
    let max_len = TrainConfig::fast().max_session_len;
    let mut frozen = FrozenModel::freeze(Embsr::new(cfg.clone()), max_len);
    frozen.set_tier(tier);
    let sessions: Vec<Session> = contract_sessions(seed)
        .iter()
        .map(|s| truncate_session(s, max_len))
        .collect();
    let on_tier =
        |f: &dyn Fn() -> embsr_tensor::Tensor| kernels::with_tier(tier, || inference_mode(f));
    let singles: Vec<embsr_tensor::Tensor> = sessions
        .iter()
        .map(|s| on_tier(&|| model.repr_infer(s).expect("EMBSR encodes sessions")))
        .collect();
    if tier == KernelTier::Packed {
        let mut rng = embsr_tensor::Rng::seed_from_u64(0);
        for (s, single) in sessions.iter().zip(&singles) {
            let taped = kernels::with_tier(tier, || model.repr(s, false, &mut rng));
            assert_eq!(
                bits(&single.to_vec()),
                bits(&taped.to_vec()),
                "{} seed {seed} session {}: inference repr != taped repr",
                cfg.name,
                s.id
            );
        }
    }
    let v = frozen.num_items();
    let want = on_tier(&|| {
        model
            .logits_of_reprs(&embsr_tensor::Tensor::stack_rows(&singles))
            .expect("EMBSR scores reprs")
    })
    .to_vec();
    let cache = ReprCache::new(256);
    for &batch in &RAGGED_BATCHES {
        for (c, chunk) in sessions.chunks(batch).enumerate() {
            let refs: Vec<&Session> = chunk.iter().collect();
            let rows = on_tier(&|| model.repr_batch(&refs));
            assert_eq!(rows.shape().dims(), &[chunk.len(), cfg.dim]);
            let rows = rows.to_vec();
            let served = frozen.score_batch(chunk);
            let cached = frozen.score_batch_cached(chunk, &cache, 1);
            let top = frozen.top_k(chunk, 10);
            for (i, session) in chunk.iter().enumerate() {
                let k = c * batch + i;
                let ctx = format!(
                    "{} {tier:?} seed {seed} batch {batch} session {}",
                    cfg.name, session.id
                );
                let d = cfg.dim;
                assert_eq!(
                    bits(&rows[i * d..(i + 1) * d]),
                    bits(&singles[k].to_vec()),
                    "{ctx}: repr_batch row != repr"
                );
                let want_row = &want[k * v..(k + 1) * v];
                assert_eq!(bits(&served[i]), bits(want_row), "{ctx}: score_batch row");
                assert_eq!(bits(&cached[i]), bits(want_row), "{ctx}: cached row");
                let want_top: Vec<(u32, u32)> = top_k_of_row(want_row, 10)
                    .iter()
                    .map(|s| (s.item, s.score.to_bits()))
                    .collect();
                let got_top: Vec<(u32, u32)> =
                    top[i].iter().map(|s| (s.item, s.score.to_bits())).collect();
                assert_eq!(got_top, want_top, "{ctx}: top_k");
            }
        }
    }
    assert!(
        cache.stats().hits > 0,
        "{}: later chunkings hit the cache",
        cfg.name
    );
}

#[test]
fn embsr_repr_batch_rows_equal_repr_rows_on_the_packed_tier() {
    for cfg in repr_batch_configs() {
        for seed in SEEDS {
            assert_repr_batch_rows_are_repr_rows(&cfg, seed, KernelTier::Packed);
        }
    }
}

#[test]
fn embsr_repr_batch_rows_equal_repr_rows_on_the_simd_tier() {
    for cfg in repr_batch_configs() {
        for seed in SEEDS {
            assert_repr_batch_rows_are_repr_rows(&cfg, seed, KernelTier::Simd);
        }
    }
}

#[test]
fn embsr_repr_batch_encodes_a_repeated_session_once_with_its_own_rows() {
    let max_len = TrainConfig::fast().max_session_len;
    for tier in [KernelTier::Packed, KernelTier::Simd] {
        for seed in SEEDS {
            let mut frozen = FrozenModel::freeze(embsr(EmbsrConfig::full, seed), max_len);
            frozen.set_tier(tier);
            let model = embsr(EmbsrConfig::full, seed);
            let pool = test_sessions(seed);
            // s0 three times and s1 twice among distinct s2, s3.
            let batch: Vec<Session> = [0usize, 1, 0, 2, 1, 0, 3]
                .iter()
                .map(|&i| pool[i].clone())
                .collect();
            let refs: Vec<&Session> = batch.iter().collect();
            let rows = kernels::with_tier(tier, || inference_mode(|| model.repr_batch(&refs)));
            for (i, s) in batch.iter().enumerate() {
                let single = kernels::with_tier(tier, || inference_mode(|| model.repr_infer(s)))
                    .expect("EMBSR encodes sessions");
                assert_eq!(
                    bits(&rows.row(i).to_vec()),
                    bits(&single.to_vec()),
                    "{tier:?} seed {seed} row {i}"
                );
            }

            let served = frozen.score_batch(&batch);
            // s1 is resident before the batch: one hit, three distinct
            // misses encoded once each, and every repeat replayed from the
            // cache — with rows identical to the uncached ones.
            let cache = ReprCache::new(64);
            let _ = frozen.score_batch_cached(&batch[1..2], &cache, 1);
            let before = cache.stats();
            let cached = frozen.score_batch_cached(&batch, &cache, 1);
            let after = cache.stats();
            assert_eq!(
                after.insertions - before.insertions,
                3,
                "{tier:?} seed {seed}"
            );
            assert_eq!(after.misses - before.misses, 3, "{tier:?} seed {seed}");
            assert_eq!(after.hits - before.hits, 4, "{tier:?} seed {seed}");
            for (i, s) in batch.iter().enumerate() {
                let single = frozen.score(s);
                assert_eq!(
                    bits(&served[i]),
                    bits(&single),
                    "{tier:?} seed {seed} row {i}"
                );
                assert_eq!(
                    bits(&cached[i]),
                    bits(&single),
                    "{tier:?} seed {seed} cached row {i}"
                );
            }
        }
    }
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
    // imported snapshot. So are replicas rebuilt from the snapshot's bytes,
    // in memory and through disk. They must score exactly like the original.
    let mut cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
    cfg.seed = 42;
    let frozen = FrozenModel::freeze(Embsr::new(cfg.clone()), 40);
    cfg.seed = 7; // different init: the snapshot must overwrite it
    let path = std::env::temp_dir().join(format!("embsr_replica_{}.snp", std::process::id()));
    frozen.save(&path).expect("save");
    let replicas = [
        FrozenModel::from_snapshot(Embsr::new(cfg.clone()), frozen.snapshot(), 40),
        FrozenModel::from_snapshot_bytes(Embsr::new(cfg.clone()), &frozen.snapshot_bytes())
            .expect("snapshot bytes decode"),
        FrozenModel::load(Embsr::new(cfg), &path).expect("snapshot file loads"),
    ];
    std::fs::remove_file(&path).ok();
    let sessions = test_sessions(42);
    let a = frozen.score_batch(&sessions[..8]);
    for (k, replica) in replicas.iter().enumerate() {
        assert_eq!(replica.max_session_len(), 40);
        let b = replica.score_batch(&sessions[..8]);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(bits(ra), bits(rb), "replica {k}");
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots are checked by shape: a tensor list that does not fit the
// serving model is refused by every reader, even at the same weight count
// ---------------------------------------------------------------------------

/// The first tensor whose shape differs between a snapshot's parameter
/// list and the receiver's, as the refusal must name it.
fn first_shape_difference(snapshot: &[Tensor], receiver: &[Tensor]) -> LayoutMismatch {
    assert_eq!(snapshot.len(), receiver.len(), "same tensor count");
    let (got, expected) = (param_shapes(snapshot), param_shapes(receiver));
    let index = (0..expected.len())
        .find(|&i| got[i] != expected[i])
        .expect("the layouts differ");
    LayoutMismatch::Shape {
        index,
        expected: expected[index].clone(),
        got: got[index].iter().map(|&d| d as u64).collect(),
    }
}

/// Asserts that snapshot `bytes`, which carry as many weights as `frozen`
/// but another layout, are refused with `mismatch` by
/// `FrozenModel::from_snapshot_bytes`, by `FrozenModel::load`, by the
/// engine's `Client::stage_snapshot` and over the wire, and that the engine
/// and the server keep serving `frozen`'s weights bitwise after each
/// refusal. `case` names the temporary snapshot file.
fn assert_refused_by_shape_everywhere<M, F>(
    case: &str,
    frozen: &FrozenModel<M>,
    factory: F,
    bytes: &[u8],
    mismatch: &LayoutMismatch,
) where
    M: SessionModel,
    F: Fn() -> M + Send + Sync + 'static,
{
    let want = mismatch.to_string();
    let err = FrozenModel::from_snapshot_bytes(factory(), bytes)
        .err()
        .expect("from_snapshot_bytes refuses the snapshot");
    assert_eq!(err.to_string(), want, "from_snapshot_bytes");

    let path = std::env::temp_dir().join(format!("embsr_{case}_{}.snp", std::process::id()));
    std::fs::write(&path, bytes).expect("write snapshot");
    let err = FrozenModel::load(factory(), &path)
        .err()
        .expect("load refuses the snapshot");
    std::fs::remove_file(&path).ok();
    assert_eq!(err.to_string(), want, "FrozenModel::load");

    let sessions = test_sessions(5)[..8].to_vec();
    let expected = frozen.score_batch(&sessions);
    let assert_active = |scores: &[Vec<f32>], version: u64, what: &str| {
        assert_eq!(version, 1, "{what}: still on the boot version");
        for (e, g) in expected.iter().zip(scores) {
            assert_eq!(bits(e), bits(g), "{what}: served rows");
        }
    };
    serve(frozen, &factory, EngineConfig::default(), |client| {
        assert_eq!(
            client.stage_snapshot(2, bytes),
            Err(SwapError::WrongLayout(mismatch.clone())),
            "Client::stage_snapshot"
        );
        assert_eq!(client.status().staged, vec![1], "nothing staged");
        let resp = client.score(ScoreBatch {
            sessions: sessions.clone(),
        });
        assert_active(&resp.scores, resp.model_version, "engine");
    });

    let server = Server::start(
        frozen,
        factory,
        ServerConfig {
            replicas: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let client = NetClient::connect(server.addr()).expect("connect");
    match client.load_snapshot(2, bytes) {
        Err(NetError::BadRequest(msg)) => assert!(msg.contains(&want), "wire: {msg}"),
        other => panic!("wire: a wrong layout must be a typed refusal, got {other:?}"),
    }
    let resp = client
        .score(
            &ScoreBatch {
                sessions: sessions.clone(),
            },
            SubmitOptions::default(),
        )
        .expect("serving is unaffected");
    assert_active(&resp.scores, resp.model_version, "wire");
    server.shutdown();
}

#[test]
fn snapshot_of_same_count_other_vocabularies_is_refused_by_shape() {
    // At d = 48, |V| 8192 with 10 operations and |V| 8214 with 9 hold the
    // same number of weights: the item table grows by 22 rows while the
    // operation embeddings, the |O|² dyadic relation table and the
    // operation weights shrink.
    let source = Embsr::new(EmbsrConfig::full(8192, 10, 48));
    let serving = EmbsrConfig::full(8214, 9, 48);
    let receiver = Embsr::new(serving.clone());
    assert_eq!(
        embsr_tensor::flat_len(&source.parameters()),
        embsr_tensor::flat_len(&receiver.parameters()),
        "the two vocabularies must hold the same number of weights"
    );
    let mismatch = first_shape_difference(&source.parameters(), &receiver.parameters());
    let bytes = FrozenModel::freeze(source, 40).snapshot_bytes();
    let frozen = FrozenModel::freeze(receiver, 40);
    assert_refused_by_shape_everywhere(
        "same_count",
        &frozen,
        move || Embsr::new(serving.clone()),
        &bytes,
        &mismatch,
    );
}

/// EMBSR with two of its parameters listed in each other's place, as a
/// refactor that reorders `parameters()` would list them.
struct Swapped {
    model: Embsr,
    pair: (usize, usize),
}

impl SessionModel for Swapped {
    fn name(&self) -> &str {
        self.model.name()
    }
    fn num_items(&self) -> usize {
        self.model.num_items()
    }
    fn parameters(&self) -> Vec<Tensor> {
        let mut params = self.model.parameters();
        params.swap(self.pair.0, self.pair.1);
        params
    }
    fn repr(&self, session: &Session, training: bool, rng: &mut Rng) -> Tensor {
        self.model.repr(session, training, rng)
    }
    fn head(&self) -> Head {
        self.model.head()
    }
}

#[test]
fn snapshot_with_two_tensors_swapped_is_refused_by_shape() {
    let cfg = EmbsrConfig::full(NUM_ITEMS, NUM_OPS, DIM);
    let serving = Embsr::new(cfg.clone());
    let shapes = param_shapes(&serving.parameters());
    let other = (1..shapes.len())
        .find(|&j| shapes[j] != shapes[0])
        .expect("EMBSR has differently shaped parameters");
    let swapped = Swapped {
        model: embsr(EmbsrConfig::full, 42),
        pair: (0, other),
    };
    let mismatch = first_shape_difference(&swapped.parameters(), &serving.parameters());
    assert_eq!(
        embsr_tensor::flat_len(&swapped.parameters()),
        embsr_tensor::flat_len(&serving.parameters()),
        "a permutation keeps the weight count"
    );
    let bytes = FrozenModel::freeze(swapped, 40).snapshot_bytes();
    let frozen = FrozenModel::freeze(serving, 40);
    assert_refused_by_shape_everywhere(
        "swapped",
        &frozen,
        move || Embsr::new(cfg.clone()),
        &bytes,
        &mismatch,
    );
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
