//! Shared scaffolding for the networked-serving test suites: a minimal
//! deterministic model, session builders, and a server-thread probe for the
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

/// Minimal deterministic model: the representation is the mean of the
/// weight rows of the session's items, and the head dot-scores it against
/// the same weight matrix as the item table. Every snapshot swap therefore
/// moves the head too, so the hot-swap suites exercise rebuilding the
/// prepared head, and the engine-level repr cache engages in networked
/// tests.
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
    fn repr(&self, session: &Session, _training: bool, _rng: &mut Rng) -> Tensor {
        let idx: Vec<usize> = session.events.iter().map(|e| e.item as usize).collect();
        self.weight.gather_rows(&idx).mean_rows()
    }
    fn head(&self) -> Head {
        Head {
            scorer: Scorer::Dot,
            items: self.weight.clone(),
        }
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

/// Threads of this process named `embsr-net…`, from
/// `/proc/self/task/*/comm`: the server's and client's named threads plus
/// the unnamed engine and connection workers they spawn, which inherit
/// their spawner's name. Other tests' and the harness's threads are not
/// counted. Empty off procfs (harmlessly weakening the leak assertion).
fn server_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| name.starts_with("embsr-net"))
        .collect()
}

/// The `embsr-net…` threads still alive once every exiting one is gone.
///
/// A joined thread can stay listed for a moment: `std::thread::scope`
/// returns once its threads' closures finish, before the OS threads exit,
/// and a join returns before the kernel drops the exited task from
/// `/proc`. About one shutdown in eighty left one `embsr-net-conn` entry
/// that was gone a millisecond later. Polls for up to five seconds; a
/// leaked thread, which never exits, is still reported.
pub fn lingering_server_threads() -> Vec<String> {
    for _ in 0..5_000 {
        let left = server_threads();
        if left.is_empty() {
            return left;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    server_threads()
}
