//! Frozen model snapshots for inference.

use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::path::Path;

use embsr_sessions::{MicroBehavior, Session};
use embsr_tensor::kernels::{self, KernelTier};
use embsr_tensor::{export_params, import_params, inference_mode, Tensor};
use embsr_train::{param_shapes, truncate_session, PreparedHead, SessionModel};

use crate::api::{top_k_of_row, ScoredItem};
use crate::cache::ReprCache;
use crate::snapshot;

/// A [`SessionModel`] frozen for serving: the weights stay in the model's
/// tensors, and every forward runs tape-free inside [`inference_mode`], so
/// scoring records no autograd graph and recycles activations through the
/// tensor buffer pool.
///
/// Serving runs on the vectorized kernel tier by default
/// ([`KernelTier::Simd`]): scores are epsilon-close to the scalar-reference
/// training numerics and deterministic for a given build, but not bitwise
/// equal to the taped path. Call [`FrozenModel::set_tier`] with
/// [`KernelTier::Packed`] to recover the bitwise contract (the packed tier is
/// pinned to the scalar reference).
///
/// The weights serialize as one `EMBSRSNP` snapshot
/// ([`FrozenModel::snapshot_bytes`]): the training checkpoint's tensor list
/// plus the serving horizon, checked by shape when it is read back.
///
/// The flat `f32` snapshot ([`FrozenModel::snapshot`], via
/// `export_params`) is plain `Send + Sync` data; worker threads replicate
/// the model by constructing a fresh instance and calling
/// [`FrozenModel::from_snapshot`] (tensors are `Rc`-backed and cannot cross
/// threads themselves). It is exported on the first `snapshot` call and
/// dropped by every weight import, so a replica that is never asked for
/// it holds its weights once.
///
/// Every scoring call takes one path: encode the batch's distinct sessions
/// that miss the repr cache in one [`SessionModel::repr_batch`] call, replay
/// the cached reprs of the rest, stack, and score the stack with the model's
/// [`SessionModel::head`], prepared once. A session repeated within a batch
/// is encoded once; every row is still the session's own `repr` bits. The
/// prepared head — the item table normalized and packed for this replica's
/// tier, `|V|·d·4` bytes — is built by the replica's first scoring call and
/// dropped by every weight import ([`FrozenModel::swap_snapshot`]) and tier
/// change ([`FrozenModel::set_tier`]), so a freeze that never scores never
/// pays for it. Its rows are bitwise-equal to the model's own batched
/// forward at the same tier.
pub struct FrozenModel<M: SessionModel> {
    model: M,
    /// The flat weights, exported by the first [`FrozenModel::snapshot`]
    /// call.
    snapshot: OnceCell<Vec<f32>>,
    max_session_len: usize,
    tier: KernelTier,
    /// The model's logits head prepared for `tier`; empty until the first
    /// scoring call.
    head: OnceCell<PreparedHead>,
}

impl<M: SessionModel> FrozenModel<M> {
    /// Freezes `model` as-is, capturing its current weights. Sessions
    /// longer than `max_session_len` micro-behaviors are truncated to their
    /// suffix before scoring, matching the training-time protocol.
    pub fn freeze(model: M, max_session_len: usize) -> Self {
        let _span = embsr_obs::span("embsr_serve", "freeze");
        FrozenModel {
            model,
            snapshot: OnceCell::new(),
            max_session_len,
            tier: KernelTier::Simd,
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
            snapshot: OnceCell::new(),
            max_session_len,
            tier: KernelTier::Simd,
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
    /// from the model's layout. A flat buffer carries no shapes; snapshot
    /// bytes ([`FrozenModel::from_snapshot_bytes`]) are checked by shape.
    pub fn swap_snapshot(&mut self, snapshot: &[f32], max_session_len: usize) -> io::Result<()> {
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
        self.snapshot.take();
        self.max_session_len = max_session_len;
        Ok(())
    }

    /// Rebuilds a frozen replica from serialized `EMBSRSNP` bytes
    /// ([`FrozenModel::snapshot_bytes`]), restoring the stored horizon.
    ///
    /// # Errors
    /// Fails on malformed bytes, or when the snapshot's tensor list does
    /// not fit `model`'s parameters: the message names the tensor count or
    /// the first tensor whose shape differs, with both shapes. Two tensors
    /// of the same shape cannot be told apart.
    pub fn from_snapshot_bytes(model: M, bytes: &[u8]) -> io::Result<Self> {
        let _span = embsr_obs::span("embsr_serve", "from_snapshot_bytes");
        let (weights, max_session_len) =
            snapshot::decode(bytes, &param_shapes(&model.parameters()))?;
        Ok(Self::from_snapshot(model, &weights, max_session_len))
    }

    /// Serializes the frozen model to `EMBSRSNP` bytes: its tensor list and
    /// serving horizon.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let _span = embsr_obs::span("embsr_serve", "snapshot_bytes");
        snapshot::encode(&self.model.parameters(), self.max_session_len)
    }

    /// Writes the serialized snapshot to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let _span = embsr_obs::span("embsr_serve", "save");
        std::fs::write(path, self.snapshot_bytes())
    }

    /// Loads a snapshot saved by [`FrozenModel::save`] into a fresh,
    /// architecturally identical model.
    ///
    /// # Errors
    /// Fails on I/O errors and wherever [`FrozenModel::from_snapshot_bytes`]
    /// fails.
    pub fn load(model: M, path: &Path) -> io::Result<Self> {
        let _span = embsr_obs::span("embsr_serve", "load");
        Self::from_snapshot_bytes(model, &std::fs::read(path)?)
    }

    /// The parameter shapes a snapshot for this model must carry.
    pub(crate) fn param_shapes(&self) -> Vec<Vec<usize>> {
        param_shapes(&self.model.parameters())
    }

    /// The flat weight snapshot (feed to [`FrozenModel::from_snapshot`]),
    /// exported from the model's tensors on the first call and kept until
    /// the next weight import.
    pub fn snapshot(&self) -> &[f32] {
        self.snapshot
            .get_or_init(|| export_params(&self.model.parameters()))
    }

    /// The flat weights, exported without keeping a copy here: for callers
    /// that hand them to other threads.
    pub(crate) fn export_snapshot(&self) -> Vec<f32> {
        export_params(&self.model.parameters())
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
    /// tier** — the batch shares the encoder's passes and the item-table
    /// pass but computes each row with the same per-row reduction order as
    /// a batch of one. Empty sessions get an empty row, like
    /// [`FrozenModel::score`].
    pub fn score_batch(&self, sessions: &[Session]) -> Vec<Vec<f32>> {
        let _span = embsr_obs::span("embsr_serve", "score_batch")
            .with_close_level(embsr_obs::Level::Trace);
        self.map_rows(sessions, None, <[f32]>::to_vec)
    }

    /// [`FrozenModel::score_batch`] through the session-repr cache: each
    /// distinct non-empty session's representation is either a cache hit
    /// (the encoder is skipped entirely) or encoded with the batch's other
    /// misses in one [`SessionModel::repr_batch`] call and inserted; the
    /// batch then runs the same prepared head as the uncached path.
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

    /// Logits `[B, |V|]` for non-empty, truncated sessions. Each distinct
    /// session either replays its cached repr or joins the batch's misses,
    /// which one [`SessionModel::repr_batch`] call encodes (and the cache
    /// stores); a repeat of an earlier session reuses that session's row.
    /// The prepared head scores the stacked rows.
    fn logits(&self, sessions: &[Session], cache: Option<(&ReprCache, u64)>) -> Tensor {
        /// Where a session's repr row comes from.
        #[derive(Clone, Copy)]
        enum Row {
            Encoded(usize),
            Cached(usize),
        }
        let mut first: HashMap<&[MicroBehavior], Row> = HashMap::with_capacity(sessions.len());
        let mut misses: Vec<&Session> = Vec::new();
        let mut hits: Vec<Vec<f32>> = Vec::new();
        let mut repeats: Vec<usize> = Vec::new();
        let mut rows: Vec<Row> = Vec::with_capacity(sessions.len());
        for (i, s) in sessions.iter().enumerate() {
            let row = match first.entry(&s.events) {
                Entry::Occupied(seen) => {
                    repeats.push(i);
                    *seen.get()
                }
                Entry::Vacant(slot) => *slot.insert(
                    match cache.and_then(|(cache, version)| cache.lookup(version, &s.events)) {
                        Some(repr) => {
                            hits.push(repr);
                            Row::Cached(hits.len() - 1)
                        }
                        None => {
                            misses.push(s);
                            Row::Encoded(misses.len() - 1)
                        }
                    },
                ),
            };
            rows.push(row);
        }
        let encoded = (!misses.is_empty()).then(|| self.model.repr_batch(&misses));
        if let Some((cache, version)) = cache {
            if let Some(enc) = &encoded {
                let d = enc.cols();
                for (s, repr) in misses.iter().zip(enc.data().chunks(d)) {
                    cache.insert(version, &s.events, repr.to_vec());
                }
            }
            // A repeat replays its first occurrence's repr through the cache,
            // as a repeat in a later batch would, so hit counts keep counting
            // every session the cache serves.
            for &i in &repeats {
                if let Some(repr) = cache.lookup(version, &sessions[i].events) {
                    hits.push(repr);
                    rows[i] = Row::Cached(hits.len() - 1);
                }
            }
        }
        let reprs = match encoded {
            // Every session is its own miss: the encoder's rows, as they are.
            Some(enc) if misses.len() == sessions.len() => enc,
            encoded => {
                let mut parts: Vec<Tensor> = encoded.into_iter().collect();
                let d = hits.first().map_or(0, Vec::len);
                if !hits.is_empty() {
                    let n = hits.len();
                    parts.push(Tensor::from_vec(hits.concat(), &[n, d]));
                }
                let idx: Vec<usize> = rows
                    .iter()
                    .map(|&row| match row {
                        Row::Encoded(j) => j,
                        Row::Cached(h) => misses.len() + h,
                    })
                    .collect();
                Tensor::concat_rows(&parts).gather_rows(&idx)
            }
        };
        self.prepared_head().logits(&reprs)
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
    }

    #[test]
    fn replica_snapshot_is_its_sources_bitwise_before_and_after_a_swap() {
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let source = FrozenModel::freeze(ToyModel::new(6, 7), 32);
        let mut replica = FrozenModel::from_snapshot(ToyModel::new(6, 99), source.snapshot(), 32);
        assert!(replica.snapshot.get().is_none(), "a replica exports on demand");
        assert_eq!(bits(replica.snapshot()), bits(source.snapshot()));
        // the swap drops the exported copy, and the next call exports the
        // new weights
        let next = FrozenModel::freeze(ToyModel::new(6, 8), 16);
        replica.swap_snapshot(next.snapshot(), 16).unwrap();
        assert!(replica.snapshot.get().is_none(), "a swap drops the export");
        assert_eq!(bits(replica.snapshot()), bits(next.snapshot()));
        assert_ne!(bits(replica.snapshot()), bits(source.snapshot()));
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
    fn snapshot_bytes_round_trip_preserves_scores_and_size() {
        let frozen = FrozenModel::freeze(ToyModel::new(64, 7), 16);
        let bytes = frozen.snapshot_bytes();
        // header (magic, version, horizon), count, rank, two dims, weights
        assert_eq!(bytes.len(), 20 + 4 + 4 + 16 + 64 * 64 * 4);
        let replica = FrozenModel::from_snapshot_bytes(ToyModel::new(64, 99), &bytes).unwrap();
        assert_eq!(replica.max_session_len(), 16);
        assert_eq!(replica.snapshot(), frozen.snapshot());
        let s = sess(&[4, 2]);
        assert_eq!(frozen.score(&s), replica.score(&s));
        // layout mismatch is rejected by shape, not mis-imported
        let err = FrozenModel::from_snapshot_bytes(ToyModel::new(7, 0), &bytes)
            .err()
            .expect("wrong layout");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "tensor 0: weights have shape [64, 64], model has shape [7, 7]"
        );
    }

    #[test]
    fn swap_snapshot_replaces_weights_in_place() {
        let next = FrozenModel::freeze(ToyModel::new(6, 8), 16);
        let mut live = FrozenModel::freeze(ToyModel::new(6, 7), 32);
        let s = sess(&[1, 3]);
        let before = live.score(&s);
        live.swap_snapshot(next.snapshot(), next.max_session_len())
            .unwrap();
        assert_eq!(live.score(&s), next.score(&s));
        assert_ne!(live.score(&s), before);
        assert_eq!(live.max_session_len(), 16);
        // a wrong-layout snapshot is rejected and the replica is untouched
        let wrong = FrozenModel::freeze(ToyModel::new(9, 0), 16);
        assert!(live.swap_snapshot(wrong.snapshot(), 16).is_err());
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
        live.swap_snapshot(next.snapshot(), 16).unwrap();
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
        let frozen = FrozenModel::freeze(ToyModel::new(5, 11), 8);
        let path = std::env::temp_dir().join(format!("embsr_frozen_{}.snp", std::process::id()));
        frozen.save(&path).unwrap();
        let loaded = FrozenModel::load(ToyModel::new(5, 0), &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.max_session_len(), 8);
        let s = sess(&[1, 4]);
        assert_eq!(frozen.score(&s), loaded.score(&s));
    }
}
