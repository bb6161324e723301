//! Shared scaffolding for the networked-serving test suites: a minimal
//! deterministic model, session builders, and a thread-count probe for the
//! no-leak assertions.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard};

use embsr_sessions::{MicroBehavior, Session};
use embsr_tensor::{uniform_init, Rng, Tensor};
use embsr_train::{Head, Scorer, SessionModel};

/// Serializes tests that mutate process-global observability state (the
/// trace switch, sinks, the metrics registry).
pub fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Minimal deterministic model with the head seam: the representation is
/// the mean of the weight rows of the session's items, and the head
/// dot-scores it against the same weight matrix as the item table. Every
/// snapshot swap therefore moves the head too, so the hot-swap suites
/// exercise rebuilding the prepared head, and the engine-level repr cache
/// engages in networked tests.
pub struct ToyModel {
    weight: Tensor,
    num_items: usize,
}

impl ToyModel {
    pub fn new(num_items: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        ToyModel {
            weight: uniform_init(&[num_items, num_items], &mut rng),
            num_items,
        }
    }

    fn mean_row(&self, session: &Session) -> Tensor {
        let idx: Vec<usize> = session.events.iter().map(|e| e.item as usize).collect();
        self.weight.gather_rows(&idx).mean_rows()
    }
}

impl SessionModel for ToyModel {
    fn name(&self) -> &str {
        "Toy"
    }
    fn num_items(&self) -> usize {
        self.num_items
    }
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone()]
    }
    fn logits(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        let n = self.num_items;
        let repr = self.mean_row(session).reshape(&[1, n]);
        repr.matmul_nt(&self.weight).reshape(&[n])
    }
    fn repr_infer(&self, session: &Session) -> Option<Tensor> {
        Some(self.mean_row(session))
    }
    fn head(&self) -> Option<Head> {
        Some(Head {
            scorer: Scorer::Dot,
            items: self.weight.clone(),
        })
    }
}

pub fn sess(id: u64, items: &[u32]) -> Session {
    Session {
        id,
        events: items.iter().map(|&i| MicroBehavior::new(i, 0)).collect(),
    }
}

/// Deterministic pool of short sessions over `num_items` items; ids spread
/// widely so they shard across replicas.
pub fn session_pool(n: usize, num_items: u32, seed: u64) -> Vec<Session> {
    (0..n as u64)
        .map(|i| {
            let id = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            let len = 1 + (i % 4) as usize;
            let items: Vec<u32> = (0..len)
                .map(|j| ((i * 13 + j as u64 * 7 + seed) % num_items as u64) as u32)
                .collect();
            sess(id, &items)
        })
        .collect()
}

/// Live threads of this process, from `/proc/self/status`. Falls back to 1
/// (harmlessly weakening the leak assertion) off procfs.
pub fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(1)
}
