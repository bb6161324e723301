//! Frozen model snapshots for inference.

use std::cell::OnceCell;
use std::io;
use std::path::Path;

use embsr_sessions::Session;
use embsr_tensor::kernels::{self, KernelTier};
use embsr_tensor::{export_params, import_params, inference_mode, Rng, Tensor};
use embsr_train::{truncate_session, PreparedHead, SessionModel};

use crate::api::{top_k_of_row, ScoredItem};
use crate::cache::ReprCache;
use crate::snapshot::{self, Precision};

/// A [`SessionModel`] frozen for serving: the weights are captured as a flat
/// `f32` snapshot (via `export_params`) and every forward runs tape-free
/// inside [`inference_mode`], so scoring records no autograd graph and
/// recycles activations through the tensor buffer pool.
///
/// Serving runs on the vectorized kernel tier by default
/// ([`KernelTier::Simd`]): scores are epsilon-close to the scalar-reference
/// training numerics and deterministic for a given build, but not bitwise
/// equal to the taped path. Call [`FrozenModel::set_tier`] with
/// [`KernelTier::Packed`] to recover the bitwise contract (the packed tier is
/// pinned to the scalar reference).
///
/// Freezing can also quantize weights to f16/bf16
/// ([`FrozenModel::freeze_with_precision`]): the rounding happens **once**,
/// at freeze — the frozen model serves the quantized values, so replicas
/// rebuilt from the snapshot anywhere are bitwise-identical to the master.
///
/// The snapshot is plain `Send + Sync` data; worker threads replicate the
/// model by constructing a fresh instance and calling
/// [`FrozenModel::from_snapshot`] (tensors are `Rc`-backed and cannot cross
/// threads themselves).
///
/// Every scoring call takes one path: encode each session with
/// [`SessionModel::repr`] (or replay its cached repr), stack, and score the
/// stack with the model's [`SessionModel::head`], prepared once. The
/// prepared head — the item table normalized and packed for this replica's
/// tier, `|V|·d·4` bytes — is built by the replica's first scoring call and
/// dropped by every weight import ([`FrozenModel::swap_snapshot`]) and tier
/// change ([`FrozenModel::set_tier`]), so a freeze that never scores never
/// pays for it. Its rows are bitwise-equal to the model's own batched
/// forward at the same tier.
pub struct FrozenModel<M: SessionModel> {
    model: M,
    snapshot: Vec<f32>,
    max_session_len: usize,
    tier: KernelTier,
    precision: Precision,
    /// The model's logits head prepared for `tier`; empty until the first
    /// scoring call.
    head: OnceCell<PreparedHead>,
}

impl<M: SessionModel> FrozenModel<M> {
    /// Freezes `model` as-is, capturing its current weights at full `f32`
    /// precision. Sessions longer than `max_session_len` micro-behaviors are
    /// truncated to their suffix before scoring, matching the training-time
    /// protocol.
    pub fn freeze(model: M, max_session_len: usize) -> Self {
        Self::freeze_with_precision(model, max_session_len, Precision::F32)
    }

    /// Freezes `model`, rounding every weight to the `precision` grid. For
    /// [`Precision::F16`] / [`Precision::Bf16`] the snapshot serializes at
    /// half the size ([`FrozenModel::snapshot_bytes`]) and the model's
    /// working weights **are** the quantized values — the precision loss
    /// happens here, exactly once, never again per snapshot hop.
    pub fn freeze_with_precision(model: M, max_session_len: usize, precision: Precision) -> Self {
        let _span = embsr_obs::span("embsr_serve", "freeze");
        let snapshot = snapshot::quantize_weights(&export_params(&model.parameters()), precision);
        if precision != Precision::F32 {
            import_params(&model.parameters(), &snapshot);
        }
        FrozenModel {
            model,
            snapshot,
            max_session_len,
            tier: KernelTier::Simd,
            precision,
            head: OnceCell::new(),
        }
    }

    /// Rebuilds a frozen replica from a weight snapshot taken by
    /// [`FrozenModel::freeze`] on an architecturally identical model
    /// (same constructor arguments — the flat layout must match).
    pub fn from_snapshot(model: M, snapshot: &[f32], max_session_len: usize) -> Self {
        let _span = embsr_obs::span("embsr_serve", "from_snapshot");
        import_params(&model.parameters(), snapshot);
        FrozenModel {
            model,
            snapshot: snapshot.to_vec(),
            max_session_len,
            tier: KernelTier::Simd,
            precision: Precision::F32,
            head: OnceCell::new(),
        }
    }

    /// Replaces the weights (and horizon) of a live replica in place — the
    /// zero-downtime hot-swap primitive. The model instance, kernel tier
    /// and any caller-held state survive; only the parameters change. The
    /// new snapshot must match the model's flat parameter layout.
    ///
    /// # Errors
    /// Fails (leaving the replica untouched) when the weight count differs
    /// from the model's layout.
    pub fn swap_snapshot(
        &mut self,
        snapshot: &[f32],
        max_session_len: usize,
        precision: Precision,
    ) -> io::Result<()> {
        let _span = embsr_obs::span("embsr_serve", "swap_snapshot");
        let expected: usize = self.model.parameters().iter().map(|p| p.len()).sum();
        if snapshot.len() != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot has {} weights, model expects {expected}",
                    snapshot.len()
                ),
            ));
        }
        import_params(&self.model.parameters(), snapshot);
        self.head.take();
        self.snapshot = snapshot.to_vec();
        self.max_session_len = max_session_len;
        self.precision = precision;
        Ok(())
    }

    /// Rebuilds a frozen replica from serialized `EMBSRSNP` bytes
    /// ([`FrozenModel::snapshot_bytes`]), restoring the stored horizon and
    /// precision. This is the wire format: reduced-precision snapshots ship
    /// at half the bytes and decode to the exact quantized weights the
    /// master serves.
    ///
    /// # Errors
    /// Fails on malformed bytes or a weight count that does not match the
    /// model's parameter layout.
    pub fn from_snapshot_bytes(model: M, bytes: &[u8]) -> io::Result<Self> {
        let _span = embsr_obs::span("embsr_serve", "from_snapshot_bytes");
        let dec = snapshot::decode_snapshot(bytes)?;
        let expected: usize = model.parameters().iter().map(|p| p.len()).sum();
        if dec.weights.len() != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot has {} weights, model expects {expected}",
                    dec.weights.len()
                ),
            ));
        }
        let mut frozen = Self::from_snapshot(model, &dec.weights, dec.max_session_len);
        frozen.precision = dec.precision;
        Ok(frozen)
    }

    /// Serializes the frozen model to `EMBSRSNP` bytes at its freeze
    /// precision (reduced precisions re-narrow losslessly — the working
    /// weights already sit on the grid).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let _span = embsr_obs::span("embsr_serve", "snapshot_bytes");
        snapshot::encode_snapshot(&self.snapshot, self.max_session_len, self.precision)
    }

    /// Writes the serialized snapshot to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let _span = embsr_obs::span("embsr_serve", "save");
        snapshot::save_snapshot(path, &self.snapshot, self.max_session_len, self.precision)
    }

    /// Loads a snapshot saved by [`FrozenModel::save`] into a fresh,
    /// architecturally identical model.
    ///
    /// # Errors
    /// Fails on I/O errors, malformed bytes, or a layout mismatch.
    pub fn load(model: M, path: &Path) -> io::Result<Self> {
        let _span = embsr_obs::span("embsr_serve", "load");
        let dec = snapshot::load_snapshot(path)?;
        Self::from_snapshot_bytes(
            model,
            &snapshot::encode_snapshot(&dec.weights, dec.max_session_len, dec.precision),
        )
    }

    /// The flat weight snapshot (feed to [`FrozenModel::from_snapshot`]).
    /// For reduced-precision freezes these are the quantized values widened
    /// to `f32`.
    pub fn snapshot(&self) -> &[f32] {
        &self.snapshot
    }

    /// The session-truncation horizon.
    pub fn max_session_len(&self) -> usize {
        self.max_session_len
    }

    /// The kernel tier scoring runs under ([`KernelTier::Simd`] by default).
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Selects the kernel tier for scoring. [`KernelTier::Packed`] restores
    /// bitwise equality with the taped training forward; [`KernelTier::Simd`]
    /// (the default) trades that for vectorized throughput while staying
    /// epsilon-equivalent and rank-preserving.
    pub fn set_tier(&mut self, tier: KernelTier) {
        self.tier = tier;
        self.head.take();
    }

    /// The precision the weights were frozen at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Model name.
    pub fn name(&self) -> &str {
        self.model.name()
    }

    /// Item vocabulary size `|V|`.
    pub fn num_items(&self) -> usize {
        self.model.num_items()
    }

    /// Scores the full vocabulary for one session, tape-free.
    ///
    /// An empty session carries no evidence to condition on; it yields an
    /// empty row (mirroring the eval harness, which skips empty prefixes)
    /// rather than tripping a model assert on a serving thread.
    pub fn score(&self, session: &Session) -> Vec<f32> {
        let _span =
            embsr_obs::span("embsr_serve", "score").with_close_level(embsr_obs::Level::Trace);
        let mut rows = self.map_rows(std::slice::from_ref(session), None, <[f32]>::to_vec);
        rows.pop().unwrap_or_default()
    }

    /// Scores the full vocabulary for a batch of sessions, tape-free and
    /// batched: one `num_items`-length row per session, in input order.
    ///
    /// Row `i` is bitwise-equal to `self.score(&sessions[i])` **at the same
    /// tier** — the batch shares the item-table pass but computes each row
    /// with the same per-row reduction order as a batch of one. Empty
    /// sessions get an empty row, like [`FrozenModel::score`].
    pub fn score_batch(&self, sessions: &[Session]) -> Vec<Vec<f32>> {
        let _span = embsr_obs::span("embsr_serve", "score_batch")
            .with_close_level(embsr_obs::Level::Trace);
        self.map_rows(sessions, None, <[f32]>::to_vec)
    }

    /// [`FrozenModel::score_batch`] through the session-repr cache: each
    /// non-empty session's representation is either a cache hit (the
    /// encoder is skipped entirely) or computed via [`SessionModel::repr`]
    /// and inserted; the batch then runs the same prepared head as the
    /// uncached path.
    ///
    /// **Bitwise contract:** every row equals the `score_batch` row at the
    /// same tier. Hits replay the exact `f32` values the encoder produced
    /// (keys verify the exact event sequence, so a hash collision is a
    /// miss, never a wrong answer), and the head consumes identical inputs
    /// either way.
    pub fn score_batch_cached(
        &self,
        sessions: &[Session],
        cache: &ReprCache,
        version: u64,
    ) -> Vec<Vec<f32>> {
        let _span = embsr_obs::span("embsr_serve", "score_batch_cached")
            .with_close_level(embsr_obs::Level::Trace);
        self.map_rows(sessions, Some((cache, version)), <[f32]>::to_vec)
    }

    /// The `k` best items per session, best-first (ties broken by ascending
    /// item id), selected straight from the scored batch.
    pub fn top_k(&self, sessions: &[Session], k: usize) -> Vec<Vec<ScoredItem>> {
        let _span =
            embsr_obs::span("embsr_serve", "top_k").with_close_level(embsr_obs::Level::Trace);
        self.map_rows(sessions, None, |row| top_k_of_row(row, k))
    }

    /// Scores the non-empty `sessions` (truncated to the horizon) in one
    /// batch and maps each full-vocabulary row through `f`, in input order;
    /// empty sessions map to `T::default()` without reaching the model.
    fn map_rows<T: Default>(
        &self,
        sessions: &[Session],
        cache: Option<(&ReprCache, u64)>,
        f: impl Fn(&[f32]) -> T,
    ) -> Vec<T> {
        let truncated: Vec<Session> = sessions
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| truncate_session(s, self.max_session_len))
            .collect();
        if truncated.is_empty() {
            return sessions.iter().map(|_| T::default()).collect();
        }
        let logits = kernels::with_tier(self.tier, || {
            inference_mode(|| self.logits(&truncated, cache))
        });
        let v = self.model.num_items();
        assert_eq!(logits.rows(), truncated.len(), "one logit row per session");
        assert_eq!(logits.cols(), v, "full-vocabulary rows");
        let data = logits.data();
        // One chunk per non-empty session, guaranteed by the row assert above.
        let mut rows = data.chunks(v).map(f);
        sessions
            .iter()
            .map(|s| {
                if s.is_empty() {
                    T::default()
                } else {
                    rows.next().unwrap_or_default()
                }
            })
            .collect()
    }

    /// Logits `[B, |V|]` for non-empty, truncated sessions: each session is
    /// encoded (or its cached repr replayed), the reprs are stacked, and the
    /// prepared head scores the stack.
    fn logits(&self, sessions: &[Session], cache: Option<(&ReprCache, u64)>) -> Tensor {
        let mut rng = Rng::seed_from_u64(0); // never drawn from: dropout is off
        let reprs: Vec<Tensor> = sessions
            .iter()
            .map(|s| match cache {
                Some((cache, version)) => match cache.lookup(version, &s.events) {
                    Some(v) => {
                        let d = v.len();
                        Tensor::from_vec(v, &[d])
                    }
                    None => {
                        let r = self.model.repr(s, false, &mut rng);
                        cache.insert(version, &s.events, r.to_vec());
                        r
                    }
                },
                None => self.model.repr(s, false, &mut rng),
            })
            .collect();
        self.prepared_head().logits(&Tensor::stack_rows(&reprs))
    }

    /// The model's head prepared for this replica's tier, built on first use.
    fn prepared_head(&self) -> &PreparedHead {
        self.head.get_or_init(|| {
            let _span = embsr_obs::span("embsr_serve", "prepare_head");
            self.model.head().prepare(self.tier)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{sess, ToyModel};

    #[test]
    fn snapshot_round_trips_weights() {
        let frozen = FrozenModel::freeze(ToyModel::new(6, 7), 32);
        let replica = FrozenModel::from_snapshot(ToyModel::new(6, 99), frozen.snapshot(), 32);
        let s = sess(&[1, 3]);
        assert_eq!(frozen.score(&s), replica.score(&s));
        assert_eq!(frozen.num_items(), 6);
        assert_eq!(frozen.tier(), KernelTier::Simd);
        assert_eq!(frozen.precision(), Precision::F32);
    }

    #[test]
    fn batched_rows_match_single_scores() {
        let frozen = FrozenModel::freeze(ToyModel::new(8, 3), 32);
        let sessions = vec![sess(&[1]), sess(&[2, 5]), sess(&[7, 0, 4])];
        let rows = frozen.score_batch(&sessions);
        assert_eq!(rows.len(), 3);
        for (s, row) in sessions.iter().zip(&rows) {
            assert_eq!(row, &frozen.score(s));
        }
        assert!(frozen.score_batch(&[]).is_empty());
    }

    #[test]
    fn empty_sessions_score_as_empty_rows() {
        let frozen = FrozenModel::freeze(ToyModel::new(5, 6), 32);
        assert!(frozen.score(&sess(&[])).is_empty());
        let rows = frozen.score_batch(&[sess(&[]), sess(&[1, 2]), sess(&[])]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].is_empty());
        assert_eq!(rows[1], frozen.score(&sess(&[1, 2])));
        assert!(rows[2].is_empty());
        // all-empty batches skip the forward entirely
        assert_eq!(frozen.score_batch(&[sess(&[])]), vec![Vec::<f32>::new()]);
    }

    #[test]
    fn top_k_orders_by_score() {
        let frozen = FrozenModel::freeze(ToyModel::new(5, 1), 32);
        let recs = frozen.top_k(&[sess(&[2])], 3);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].len(), 3);
        assert!(recs[0][0].score >= recs[0][1].score);
    }

    #[test]
    fn long_sessions_are_truncated_to_the_horizon() {
        let frozen = FrozenModel::freeze(ToyModel::new(4, 2), 2);
        // with max_session_len = 2 only the last two events matter
        let long = sess(&[3, 3, 3, 1, 2]);
        let short = sess(&[1, 2]);
        assert_eq!(frozen.score(&long), frozen.score(&short));
    }

    #[test]
    fn tier_override_changes_dispatch_not_ranking() {
        let mut packed = FrozenModel::freeze(ToyModel::new(16, 9), 32);
        packed.set_tier(KernelTier::Packed);
        let simd = FrozenModel::freeze(ToyModel::new(16, 9), 32);
        let s = sess(&[3, 1, 4, 1, 5]);
        let a = packed.score(&s);
        let b = simd.score(&s);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn reduced_precision_freeze_serves_quantized_weights() {
        for p in [Precision::F16, Precision::Bf16] {
            let frozen = FrozenModel::freeze_with_precision(ToyModel::new(6, 7), 32, p);
            assert_eq!(frozen.precision(), p);
            // working weights == snapshot (the quantized grid), so a replica
            // rebuilt from the f32 snapshot scores bitwise-identically
            let replica = FrozenModel::from_snapshot(ToyModel::new(6, 99), frozen.snapshot(), 32);
            let s = sess(&[1, 3, 2]);
            assert_eq!(frozen.score(&s), replica.score(&s));
        }
    }

    #[test]
    fn snapshot_bytes_round_trip_preserves_scores_and_size() {
        // big enough that the 29-byte header doesn't mask the 2× payload
        let full = FrozenModel::freeze(ToyModel::new(64, 7), 16);
        let half = FrozenModel::freeze_with_precision(ToyModel::new(64, 7), 16, Precision::F16);
        let full_bytes = full.snapshot_bytes();
        let half_bytes = half.snapshot_bytes();
        assert!(
            (full_bytes.len() as f64 / half_bytes.len() as f64) > 1.9,
            "{} vs {}",
            full_bytes.len(),
            half_bytes.len()
        );
        let replica = FrozenModel::from_snapshot_bytes(ToyModel::new(64, 99), &half_bytes).unwrap();
        assert_eq!(replica.precision(), Precision::F16);
        assert_eq!(replica.max_session_len(), 16);
        let s = sess(&[4, 2]);
        assert_eq!(half.score(&s), replica.score(&s));
        // layout mismatch is rejected, not mis-imported
        assert!(FrozenModel::from_snapshot_bytes(ToyModel::new(7, 0), &half_bytes).is_err());
    }

    #[test]
    fn swap_snapshot_replaces_weights_in_place() {
        let next = FrozenModel::freeze(ToyModel::new(6, 8), 16);
        let mut live = FrozenModel::freeze(ToyModel::new(6, 7), 32);
        let s = sess(&[1, 3]);
        let before = live.score(&s);
        live.swap_snapshot(next.snapshot(), next.max_session_len(), next.precision())
            .unwrap();
        assert_eq!(live.score(&s), next.score(&s));
        assert_ne!(live.score(&s), before);
        assert_eq!(live.max_session_len(), 16);
        // a wrong-layout snapshot is rejected and the replica is untouched
        let wrong = FrozenModel::freeze(ToyModel::new(9, 0), 16);
        assert!(live
            .swap_snapshot(wrong.snapshot(), 16, Precision::F32)
            .is_err());
        assert_eq!(live.score(&s), next.score(&s));
    }

    #[test]
    fn cached_scores_are_bitwise_equal_cold_and_warm() {
        let frozen = FrozenModel::freeze(ToyModel::new(8, 3), 32);
        let cache = crate::cache::ReprCache::new(64);
        let sessions = vec![sess(&[1]), sess(&[2, 5]), sess(&[]), sess(&[7, 0, 4])];
        let plain = frozen.score_batch(&sessions);
        let cold = frozen.score_batch_cached(&sessions, &cache, 1);
        let warm = frozen.score_batch_cached(&sessions, &cache, 1);
        for (p, (c, w)) in plain.iter().zip(cold.iter().zip(&warm)) {
            let pb: Vec<u32> = p.iter().map(|x| x.to_bits()).collect();
            assert_eq!(pb, c.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            assert_eq!(pb, w.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
        let stats = cache.stats();
        assert!(stats.hits >= 3, "warm pass should hit: {stats:?}");
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn head_is_prepared_by_the_first_score_and_dropped_by_swaps_and_tier_changes() {
        let next = FrozenModel::freeze(ToyModel::new(6, 8), 16);
        let mut live = FrozenModel::freeze(ToyModel::new(6, 7), 16);
        let s = [sess(&[1, 3])];
        assert!(live.head.get().is_none(), "freezing alone prepares nothing");
        let before = live.score_batch(&s);
        assert_eq!(live.head.get().map(|h| h.tier()), Some(KernelTier::Simd));

        // a weight import drops the head; the next score rebuilds it from
        // the new weights
        live.swap_snapshot(next.snapshot(), 16, Precision::F32).unwrap();
        assert!(live.head.get().is_none());
        assert_eq!(live.top_k(&s, 3), next.top_k(&s, 3));
        assert_eq!(live.score_batch(&s), next.score_batch(&s));
        assert_ne!(live.score_batch(&s), before);

        // so does a tier change, and the rebuilt head is on the new tier
        live.set_tier(KernelTier::Packed);
        assert!(live.head.get().is_none());
        let packed = live.score(&s[0]);
        assert_eq!(live.head.get().map(|h| h.tier()), Some(KernelTier::Packed));
        let reference = ToyModel::new(6, 0);
        import_params(&reference.parameters(), next.snapshot());
        let taped = reference.logits_infer(&s[0]).to_vec();
        assert_eq!(
            packed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            taped.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "packed-tier head is bitwise with the taped forward"
        );
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let frozen =
            FrozenModel::freeze_with_precision(ToyModel::new(5, 11), 8, Precision::Bf16);
        let path = std::env::temp_dir().join(format!("embsr_frozen_{}.snp", std::process::id()));
        frozen.save(&path).unwrap();
        let loaded = FrozenModel::load(ToyModel::new(5, 0), &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.precision(), Precision::Bf16);
        assert_eq!(loaded.max_session_len(), 8);
        let s = sess(&[1, 4]);
        assert_eq!(frozen.score(&s), loaded.score(&s));
    }
}
