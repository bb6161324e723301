//! Test-set evaluation of a fitted recommender.

use embsr_sessions::{Example, Session};
use embsr_train::Recommender;

use crate::metrics::{hit_at_k, rank_of_target, reciprocal_rank_at_k};

/// The outcome of evaluating one model on one test set.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Model name.
    pub model: String,
    /// The cutoffs evaluated.
    pub ks: Vec<usize>,
    /// H@K per cutoff, in percent (as the paper reports).
    pub hit: Vec<f64>,
    /// M@K (MRR@K) per cutoff, in percent.
    pub mrr: Vec<f64>,
    /// Per-session target ranks (for significance testing and case studies).
    pub ranks: Vec<usize>,
}

impl Evaluation {
    /// H@K for a specific cutoff.
    ///
    /// # Panics
    /// Panics when `k` was not evaluated.
    pub fn hit_at(&self, k: usize) -> f64 {
        let i = self.ks.iter().position(|&x| x == k).expect("k evaluated");
        self.hit[i]
    }

    /// M@K for a specific cutoff.
    pub fn mrr_at(&self, k: usize) -> f64 {
        let i = self.ks.iter().position(|&x| x == k).expect("k evaluated");
        self.mrr[i]
    }

    /// Per-session reciprocal ranks at cutoff `k` (for Wilcoxon pairing).
    pub fn reciprocal_ranks_at(&self, k: usize) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|&r| reciprocal_rank_at_k(r, k))
            .collect()
    }
}

/// Sessions scored per [`Recommender::scores_batch`] call during evaluation.
///
/// Small enough that a batch's activations stay cache-resident, large enough
/// to amortize the per-batch item-table normalization of the batched scorers.
pub const EVAL_BATCH: usize = 32;

/// Evaluates `rec` on `test` at the given cutoffs.
///
/// Sessions whose prefix is empty are skipped (they carry no evidence).
/// Scoring goes through [`Recommender::scores_batch`] in chunks of
/// `EVAL_BATCH` (32); batched overrides are held to bitwise equality with the
/// per-session path, so the reported metrics are identical either way.
pub fn evaluate(rec: &dyn Recommender, test: &[Example], ks: &[usize]) -> Evaluation {
    assert!(!ks.is_empty(), "no cutoffs requested");
    let span = embsr_obs::span("embsr_eval", "evaluate");
    let scorable: Vec<&Example> = test.iter().filter(|ex| !ex.session.is_empty()).collect();
    let mut ranks = Vec::with_capacity(scorable.len());
    for chunk in scorable.chunks(EVAL_BATCH) {
        let _score_span =
            embsr_obs::span("embsr_eval", "score_batch").with_close_level(embsr_obs::Level::Trace);
        let sessions: Vec<&Session> = chunk.iter().map(|ex| &ex.session).collect();
        let scores = rec.scores_batch(&sessions);
        debug_assert_eq!(scores.len(), chunk.len());
        for (ex, row) in chunk.iter().zip(&scores) {
            debug_assert_eq!(row.len(), rec.num_items());
            ranks.push(rank_of_target(row, ex.target as usize));
        }
    }
    let n = ranks.len().max(1) as f64;
    let hit: Vec<f64> = ks
        .iter()
        .map(|&k| 100.0 * ranks.iter().map(|&r| hit_at_k(r, k)).sum::<f64>() / n)
        .collect();
    let mrr: Vec<f64> = ks
        .iter()
        .map(|&k| 100.0 * ranks.iter().map(|&r| reciprocal_rank_at_k(r, k)).sum::<f64>() / n)
        .collect();
    if embsr_obs::metrics::enabled() {
        for (i, &k) in ks.iter().enumerate() {
            embsr_obs::metrics::gauge_owned(format!("eval.hit_at_{k}")).set(hit[i]);
            embsr_obs::metrics::gauge_owned(format!("eval.mrr_at_{k}")).set(mrr[i]);
        }
        embsr_obs::metrics::counter("eval.sessions_scored").add(ranks.len() as u64);
    }
    embsr_obs::debug!(
        target: "embsr_eval",
        "evaluated {}: {} sessions in {:.3}s",
        rec.name(),
        ranks.len(),
        span.elapsed().as_secs_f64()
    );
    Evaluation {
        model: rec.name().to_string(),
        ks: ks.to_vec(),
        hit,
        mrr,
        ranks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsr_sessions::{MicroBehavior, Session};

    /// Oracle that always puts the target first if its id is even.
    struct EvenOracle {
        n: usize,
    }

    impl Recommender for EvenOracle {
        fn name(&self) -> &str {
            "EvenOracle"
        }
        fn num_items(&self) -> usize {
            self.n
        }
        fn fit(&mut self, _t: &[Example], _v: &[Example]) {}
        fn scores(&self, session: &Session) -> Vec<f32> {
            // score even items by id descending, odd items zero
            let last = session.events.last().map(|e| e.item).unwrap_or(0);
            (0..self.n)
                .map(|i| {
                    if i % 2 == 0 {
                        10.0 + (i as f32 + last as f32 * 0.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        }
    }

    fn ex(items: &[u32], target: u32) -> Example {
        Example {
            session: Session {
                id: 0,
                events: items.iter().map(|&i| MicroBehavior::new(i, 0)).collect(),
            },
            target,
        }
    }

    #[test]
    fn perfect_and_failed_predictions_average() {
        let rec = EvenOracle { n: 10 };
        // target 8 = top even item (rank 1); target 1 = odd (rank > 5)
        let test = vec![ex(&[0], 8), ex(&[0], 1)];
        let e = evaluate(&rec, &test, &[1, 5]);
        assert!((e.hit_at(1) - 50.0).abs() < 1e-9);
        assert_eq!(e.ranks.len(), 2);
        assert_eq!(e.ranks[0], 1);
    }

    #[test]
    fn mrr_leq_hit() {
        let rec = EvenOracle { n: 10 };
        let test: Vec<Example> = (0..10).map(|t| ex(&[0], t)).collect();
        let e = evaluate(&rec, &test, &[5, 10]);
        for i in 0..e.ks.len() {
            assert!(e.mrr[i] <= e.hit[i] + 1e-9);
        }
    }

    #[test]
    fn reciprocal_ranks_match_ranks() {
        let rec = EvenOracle { n: 4 };
        let e = evaluate(&rec, &[ex(&[0], 2)], &[4]);
        let rr = e.reciprocal_ranks_at(4);
        assert!((rr[0] - 1.0 / e.ranks[0] as f64).abs() < 1e-12);
    }

    #[test]
    fn empty_sessions_are_skipped() {
        let rec = EvenOracle { n: 4 };
        let e = evaluate(&rec, &[ex(&[], 2), ex(&[1], 2)], &[2]);
        assert_eq!(e.ranks.len(), 1);
    }

    /// Recommender whose batched override would be caught diverging: scores
    /// depend on the session, and the test set straddles several batches.
    struct LastItemOracle {
        n: usize,
    }

    impl Recommender for LastItemOracle {
        fn name(&self) -> &str {
            "LastItemOracle"
        }
        fn num_items(&self) -> usize {
            self.n
        }
        fn fit(&mut self, _t: &[Example], _v: &[Example]) {}
        fn scores(&self, session: &Session) -> Vec<f32> {
            let last = session.events.last().map(|e| e.item).unwrap_or(0) as usize;
            (0..self.n)
                .map(|i| if i == (last + 1) % self.n { 1.0 } else { 0.0 })
                .collect()
        }
    }

    #[test]
    fn batched_evaluation_matches_per_session_evaluation() {
        let rec = LastItemOracle { n: 16 };
        // more examples than EVAL_BATCH, with a ragged final chunk
        let test: Vec<Example> = (0..(EVAL_BATCH as u32 * 2 + 7))
            .map(|i| ex(&[i % 16], (i + 1) % 16))
            .collect();
        let batched = evaluate(&rec, &test, &[1, 5, 10]);
        // ground truth: score sessions one at a time through the default path
        let mut expect = Vec::new();
        for e in &test {
            expect.push(rank_of_target(&rec.scores(&e.session), e.target as usize));
        }
        assert_eq!(batched.ranks, expect, "batching must not change ranks");
        assert!((batched.hit_at(1) - 100.0).abs() < 1e-9);
    }
}
