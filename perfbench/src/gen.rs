//! Seeded request streams. Everything a workload sends is generated here,
//! up front, from `--seed`; the program under test only ever sees the
//! generated sessions.

use std::collections::HashSet;

use embsr_datasets::{generate_sessions, DatasetPreset, SyntheticConfig};
use embsr_sessions::{MicroBehavior, Session};

/// Serving vocabulary `|V|` (the ladder config of the roadmap).
pub const NUM_ITEMS: usize = 8192;
/// Embedding width `d` for serving and training.
pub const DIM: usize = 48;
/// Session truncation horizon; requests are sent already truncated, so
/// the session the cache keys on is exactly the session on the wire.
pub const MAX_LEN: usize = 40;
/// Recommendations per session on the top-k workloads.
pub const TOP_K: usize = 20;

/// SplitMix64: a tiny seeded generator local to the benchmark, so the
/// request stream never depends on the program's own RNG.
pub struct Rand(u64);

impl Rand {
    pub fn new(seed: u64) -> Rand {
        Rand(seed ^ 0x5DEE_CE66_D1CE_B00C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` pairwise-distinct JD-Appliances-shaped sessions over `|V| = 8192`,
/// truncated to [`MAX_LEN`], with ids `0..n`. Distinctness is on the event
/// sequence, which is what the repr cache keys on.
pub fn distinct_sessions(seed: u64, n: usize) -> Vec<Session> {
    let mut seen: HashSet<Vec<MicroBehavior>> = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut chunk = 0u64;
    while out.len() < n {
        let mut cfg = SyntheticConfig::preset(DatasetPreset::JdAppliances);
        cfg.num_items = NUM_ITEMS;
        cfg.num_sessions = 4096;
        cfg.seed = Rand::new(seed ^ chunk.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
        chunk += 1;
        for s in generate_sessions(&cfg) {
            let events = embsr_train::truncate_session(&s, MAX_LEN).events;
            if out.len() < n && seen.insert(events.clone()) {
                out.push(Session {
                    id: out.len() as u64,
                    events,
                });
            }
        }
    }
    out
}

/// `n` indices into a pool of `pool` items, Zipf-distributed over rank
/// with exponent 1 (index 0 is the most popular).
pub fn zipf_draws(seed: u64, pool: usize, n: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(pool);
    let mut total = 0.0f64;
    for rank in 1..=pool {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let mut rng = Rand::new(seed ^ 0x21F0_AAAD);
    (0..n)
        .map(|_| {
            let u = rng.unit() * total;
            cdf.partition_point(|&c| c <= u).min(pool - 1)
        })
        .collect()
}

/// What a workload sends, in send order. Each request is a list of
/// sessions (one for the top-k workloads, eight for score rows).
pub struct Plan {
    /// Untimed requests sent during set-up.
    pub warmup: Vec<Vec<Session>>,
    /// The closed-loop phase walks these until its time is up.
    pub closed: Vec<Vec<Session>>,
    /// Exactly the open-loop phase's requests.
    pub open: Vec<Vec<Session>>,
    /// Open-loop request indices at which a hot-swap fires, ascending.
    pub swaps: Vec<usize>,
}

/// How a workload draws its sessions.
#[derive(Clone, Copy, Debug)]
pub enum Draw {
    /// Every session of the run is distinct.
    Fresh,
    /// Sessions are drawn Zipf-skewed from a pool of this many distinct
    /// sessions.
    Pool(usize),
}

/// Sizes of one workload's plan.
#[derive(Clone, Copy, Debug)]
pub struct PlanShape {
    pub draw: Draw,
    pub per_request: usize,
    pub warmup: usize,
    pub closed: usize,
    pub open: usize,
    pub swaps: usize,
}

impl Plan {
    pub fn generate(seed: u64, shape: PlanShape) -> Plan {
        let total = shape.warmup + shape.closed + shape.open;
        let sessions = match shape.draw {
            Draw::Fresh => distinct_sessions(seed, total * shape.per_request),
            Draw::Pool(pool) => {
                let pool = distinct_sessions(seed, pool);
                zipf_draws(seed, pool.len(), total * shape.per_request)
                    .into_iter()
                    .map(|i| pool[i].clone())
                    .collect()
            }
        };
        let mut requests = sessions
            .chunks(shape.per_request)
            .map(<[Session]>::to_vec)
            .collect::<Vec<_>>()
            .into_iter();
        let mut take = |n: usize| requests.by_ref().take(n).collect::<Vec<_>>();
        let warmup = take(shape.warmup);
        let closed = take(shape.closed);
        let open = take(shape.open);
        Plan {
            warmup,
            closed,
            open,
            swaps: swap_indices(shape.open, shape.swaps),
        }
    }
}

/// `count` swap points spread evenly through the last fifth of `n`
/// requests. Each swap empties the repr cache, and Zipf draws from the pool
/// take hundreds of requests to refill it: spread through the whole phase,
/// the refills made about half of its requests misses, and its median
/// latency fell on the boundary between cache hits and misses.
pub fn swap_indices(n: usize, count: usize) -> Vec<usize> {
    let tail = n / 5;
    (0..count).map(|k| n - tail + k * tail / count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(draw: Draw) -> PlanShape {
        PlanShape {
            draw,
            per_request: 2,
            warmup: 20,
            closed: 300,
            open: 200,
            swaps: 4,
        }
    }

    /// The stream as bytes: request boundaries, ids, items and ops.
    fn stream_bytes(plan: &Plan) -> Vec<u8> {
        let mut out = Vec::new();
        for req in plan.warmup.iter().chain(&plan.closed).chain(&plan.open) {
            out.extend_from_slice(&(req.len() as u32).to_le_bytes());
            for s in req {
                out.extend_from_slice(&s.id.to_le_bytes());
                for e in &s.events {
                    out.extend_from_slice(&e.item.to_le_bytes());
                    out.extend_from_slice(&e.op.to_le_bytes());
                }
                out.push(0xFF);
            }
        }
        for &i in &plan.swaps {
            out.extend_from_slice(&(i as u64).to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_stream_and_other_seed_differs() {
        for draw in [Draw::Fresh, Draw::Pool(100)] {
            let a = stream_bytes(&Plan::generate(7, shape(draw)));
            let b = stream_bytes(&Plan::generate(7, shape(draw)));
            let c = stream_bytes(&Plan::generate(8, shape(draw)));
            assert_eq!(a, b, "{draw:?}: same seed, same bytes");
            assert_ne!(a, c, "{draw:?}: another seed, another stream");
        }
    }

    #[test]
    fn fresh_stream_never_repeats_a_session() {
        let plan = Plan::generate(3, shape(Draw::Fresh));
        let all: Vec<&Session> = plan
            .warmup
            .iter()
            .chain(&plan.closed)
            .chain(&plan.open)
            .flatten()
            .collect();
        assert_eq!(all.len(), 2 * 520);
        let distinct: HashSet<&[MicroBehavior]> = all.iter().map(|s| &s.events[..]).collect();
        assert_eq!(distinct.len(), all.len());
        assert!(all.iter().all(|s| !s.is_empty() && s.len() <= MAX_LEN));
        assert!(all
            .iter()
            .flat_map(|s| &s.events)
            .all(|e| (e.item as usize) < NUM_ITEMS));
    }

    #[test]
    fn pool_stream_repeats_with_a_popular_head() {
        let plan = Plan::generate(3, shape(Draw::Pool(100)));
        let open: Vec<&Session> = plan.open.iter().flatten().collect();
        let distinct: HashSet<&[MicroBehavior]> = open.iter().map(|s| &s.events[..]).collect();
        assert!(distinct.len() <= 100);
        assert!(distinct.len() < open.len() / 2, "Zipf draws must repeat");
    }

    #[test]
    fn swap_points_are_fixed_by_count_and_length() {
        assert_eq!(swap_indices(1000, 4), vec![800, 850, 900, 950]);
        assert!(swap_indices(1000, 0).is_empty());
        for seed in [1, 2, 99] {
            assert_eq!(
                Plan::generate(seed, shape(Draw::Pool(50))).swaps,
                vec![160, 170, 180, 190]
            );
        }
    }
}
