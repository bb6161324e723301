//! The batch-first prediction API: request/response pairs.
//!
//! Serving traffic is expressed as *batches of session prefixes*, not single
//! sessions — the shape both the micro-batching engine and the batched
//! kernels want. A [`ScoreBatch`] asks for full-vocabulary score vectors
//! (what the eval harness consumes); a [`TopK`] asks only for the `k`
//! best-scored items per session (what a recommendation endpoint returns).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use embsr_sessions::{ItemId, Session};

/// Request: score the full item vocabulary for each session prefix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreBatch {
    /// Session prefixes to score, in reply order.
    pub sessions: Vec<Session>,
}

/// Response to a [`ScoreBatch`]: one `num_items`-length score vector per
/// requested session, in request order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScoreResponse {
    /// `scores[i][v]` is the model's score of item `v` after `sessions[i]`.
    pub scores: Vec<Vec<f32>>,
    /// Snapshot version that produced the scores. During a hot-swap a
    /// batch may mix replicas on the old and new versions; the tag is the
    /// newest contributing version (0 when the server predates tagging).
    pub model_version: u64,
}

/// Request: the `k` highest-scored items for each session prefix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopK {
    /// Session prefixes to score, in reply order.
    pub sessions: Vec<Session>,
    /// Number of recommendations per session.
    pub k: usize,
}

/// Response to a [`TopK`]: per session, the best `k` items best-first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopKResponse {
    /// `items[i]` are the recommendations for `sessions[i]`, descending by
    /// score (ties broken by ascending item id, so responses are
    /// deterministic).
    pub items: Vec<Vec<ScoredItem>>,
    /// Snapshot version that produced the recommendations (see
    /// [`ScoreResponse::model_version`]).
    pub model_version: u64,
}

/// One recommended item with its score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// The recommended item.
    pub item: ItemId,
    /// The model's score for it.
    pub score: f32,
}

/// Selects the `k` best items of one score row, descending by score with
/// ascending-id tie-break. `k` is clamped to the vocabulary size.
///
/// A bounded k-best selection: one pass over the row keeps the `k` best
/// seen so far in a max-heap rooted at the worst of them, so a score that
/// cannot enter the top `k` costs one comparison with the root. That is
/// `O(n + m·log k)` for `m` root replacements — `O(n)` on a typical row,
/// where `m` grows only like `k·ln(n/k)` — and `O(n·log k)` at worst, instead
/// of the `O(n·log n)` full sort. The order is strict and total (scores by
/// [`f32::total_cmp`], then item id), so the selection is unique: the
/// output is exactly the first `k` entries of the fully sorted row, ±0,
/// NaNs and infinities included.
pub fn top_k_of_row(scores: &[f32], k: usize) -> Vec<ScoredItem> {
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut kept: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k);
    for (item, &score) in (0u32..).zip(scores) {
        let candidate = Ranked(ScoredItem { item, score });
        if kept.len() < k {
            kept.push(candidate);
        } else if let Some(mut worst) = kept.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }
    kept.into_sorted_vec().into_iter().map(|r| r.0).collect()
}

/// A [`ScoredItem`] ordered by rank: `a < b` when `a` is recommended before
/// `b` (higher score by [`f32::total_cmp`], then lower item id). The max of
/// a heap of these is the worst-ranked item it holds.
struct Ranked(ScoredItem);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then(self.0.item.cmp(&other.0.item))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_sorts_descending_with_id_tiebreak() {
        let got = top_k_of_row(&[0.5, 2.0, 0.5, -1.0], 3);
        let items: Vec<u32> = got.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![1, 0, 2]);
        assert_eq!(got[0].score, 2.0);
    }

    #[test]
    fn top_k_clamps_to_vocabulary() {
        assert_eq!(top_k_of_row(&[1.0, 0.0], 10).len(), 2);
        assert!(top_k_of_row(&[], 3).is_empty());
    }

    /// The selection `top_k_of_row` replaced, kept as its oracle: sort every
    /// item id by the same strict order, then take the first `k`.
    fn top_k_by_full_sort(scores: &[f32], k: usize) -> Vec<ScoredItem> {
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        order
            .into_iter()
            .take(k)
            .map(|i| ScoredItem {
                item: i,
                score: scores[i as usize],
            })
            .collect()
    }

    fn bits(items: &[ScoredItem]) -> Vec<(u32, u32)> {
        items.iter().map(|s| (s.item, s.score.to_bits())).collect()
    }

    /// A row drawn from a small value set so ties are everywhere, seeded
    /// with signed zeros, NaNs of both signs (and a non-canonical payload)
    /// and infinities.
    fn adversarial_row(rng: &mut embsr_tensor::Rng, n: usize) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
            -1.5,
        ];
        (0..n)
            .map(|_| match rng.below(10) {
                0..=2 => SPECIAL[rng.below(SPECIAL.len())],
                3 => f32::from_bits(0x7fc0_0001 | ((rng.below(2) as u32) << 31)),
                4..=6 => (rng.below(5) as f32 - 2.0) * 0.25,
                _ => rng.uniform_range(-3.0, 3.0),
            })
            .collect()
    }

    #[test]
    fn bounded_selection_matches_the_full_sort_bitwise() {
        let mut rng = embsr_tensor::Rng::seed_from_u64(2024);
        for n in [1usize, 2, 7, 20, 21, 64, 257, 1000] {
            for _ in 0..8 {
                let mut row = adversarial_row(&mut rng, n);
                for k in [0, 1, 20, n - 1, n, n + 5] {
                    assert_eq!(
                        bits(&top_k_of_row(&row, k)),
                        bits(&top_k_by_full_sort(&row, k)),
                        "n={n} k={k} row={row:?}"
                    );
                }
                // Ascending scores force a root replacement at every item.
                row.sort_by(f32::total_cmp);
                for k in [1, 20, n] {
                    assert_eq!(
                        bits(&top_k_of_row(&row, k)),
                        bits(&top_k_by_full_sort(&row, k)),
                        "sorted n={n} k={k}"
                    );
                }
            }
        }
    }
}
