//! The session-representation cache: an LRU keyed by (session-content
//! hash, model version) that lets repeat scorers skip the per-session
//! encoder and go straight to the logits GEMM.
//!
//! The cache stores the model's *representation* `[d]` (the output of
//! `SessionModel::repr`, the input of the head's GEMM), not the
//! `|V|`-length score row — at `d = 32` and `|V| = 2048` that is 64× less
//! memory per entry. Every neural model shares that encoder/head boundary,
//! and a cached repr feeds exactly the GEMM an uncached one does, so cached
//! and uncached scores are **bitwise identical** (the serving equivalence
//! suite pins this for every model).
//!
//! Correctness does not rest on the hash: every entry also stores the
//! exact truncated event sequence it was computed from, and a lookup whose
//! hash matches but whose events differ is a miss. A hash collision can
//! therefore cost a recompute, never a wrong answer. Keys include the
//! model version, so entries from a hot-swapped-out snapshot can never
//! satisfy a lookup against the new one — stale entries simply age out of
//! the LRU.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use embsr_sessions::MicroBehavior;

/// Cache hits (served straight to the GEMM).
pub const METRIC_CACHE_HITS: &str = "serve.repr_cache.hits";
/// Cache misses (full encoder ran).
pub const METRIC_CACHE_MISSES: &str = "serve.repr_cache.misses";
/// Bytes currently held by cached representations + keys.
pub const METRIC_CACHE_BYTES: &str = "serve.repr_cache.bytes";
/// Entries evicted to make room.
pub const METRIC_CACHE_EVICTIONS: &str = "serve.repr_cache.evictions";

/// Point-in-time counters of one [`ReprCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Approximate bytes held (event keys + representation payloads).
    pub bytes: u64,
}

/// FNV-1a over the (item, op) pairs plus the length; 64-bit. Collisions
/// are tolerated (exact events are re-checked on every hit), the hash only
/// has to spread the map.
fn hash_events(events: &[MicroBehavior]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for e in events {
        for b in e.item.to_le_bytes() {
            mix(b);
        }
        for b in e.op.to_le_bytes() {
            mix(b);
        }
    }
    for b in (events.len() as u64).to_le_bytes() {
        mix(b);
    }
    h
}

const NIL: usize = usize::MAX;

struct Entry {
    version: u64,
    hash: u64,
    events: Vec<MicroBehavior>,
    repr: Vec<f32>,
    prev: usize,
    next: usize,
}

impl Entry {
    fn bytes(&self) -> u64 {
        (self.events.len() * std::mem::size_of::<MicroBehavior>()
            + self.repr.len() * std::mem::size_of::<f32>()) as u64
    }
}

/// Intrusive doubly-linked LRU over a slab of entries, with a
/// (version, hash) index. All state behind one mutex; lookups and inserts
/// are O(1) plus the exact-events comparison.
struct Lru {
    slab: Vec<Entry>,
    free: Vec<usize>,
    index: HashMap<(u64, u64), usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    bytes: u64,
}

impl Lru {
    fn unlink(&mut self, at: usize) {
        let (prev, next) = (self.slab[at].prev, self.slab[at].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn push_front(&mut self, at: usize) {
        self.slab[at].prev = NIL;
        self.slab[at].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = at;
        }
        self.head = at;
        if self.tail == NIL {
            self.tail = at;
        }
    }

    fn touch(&mut self, at: usize) {
        if self.head != at {
            self.unlink(at);
            self.push_front(at);
        }
    }
}

/// The concurrent session-repr LRU. Shared by every engine worker of a
/// replica; see the module docs for the soundness argument.
pub struct ReprCache {
    capacity: usize,
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ReprCache {
    /// A cache holding at most `capacity` entries (`capacity` ≥ 1; the
    /// engine simply constructs no cache when the configured size is 0).
    pub fn new(capacity: usize) -> ReprCache {
        let capacity = capacity.max(1);
        embsr_obs::metrics::counter(METRIC_CACHE_HITS); // register eagerly
        ReprCache {
            capacity,
            inner: Mutex::new(Lru {
                slab: Vec::new(),
                free: Vec::new(),
                index: HashMap::new(),
                head: NIL,
                tail: NIL,
                bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Entry capacity this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        // A poisoned cache mutex means a panic mid-update; the structure is
        // only ever mutated to a consistent state before unlocking, so
        // continuing with the inner value is safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// The cached representation for `events` under `version`, or `None`.
    /// A hash match with different events is a miss (collision), so a hit
    /// is always the exact representation of exactly these events.
    pub fn lookup(&self, version: u64, events: &[MicroBehavior]) -> Option<Vec<f32>> {
        let hash = hash_events(events);
        let mut lru = self.lock();
        let found = lru.index.get(&(version, hash)).copied();
        if let Some(at) = found {
            if lru.slab[at].events == events {
                lru.touch(at);
                let repr = lru.slab[at].repr.clone();
                drop(lru);
                // ordering: Relaxed — independent event count, no memory is
                // published through it.
                self.hits.fetch_add(1, Ordering::Relaxed);
                embsr_obs::metrics::counter(METRIC_CACHE_HITS).inc();
                return Some(repr);
            }
        }
        drop(lru);
        // ordering: Relaxed — independent event count.
        self.misses.fetch_add(1, Ordering::Relaxed);
        embsr_obs::metrics::counter(METRIC_CACHE_MISSES).inc();
        None
    }

    /// Stores the representation of `events` under `version`, evicting the
    /// least recently used entry when full. A same-key entry (hash
    /// collision or racing insert) is replaced in place.
    pub fn insert(&self, version: u64, events: &[MicroBehavior], repr: Vec<f32>) {
        let hash = hash_events(events);
        let mut lru = self.lock();
        if let Some(&at) = lru.index.get(&(version, hash)) {
            // Replace: either a collision (rare) or a concurrent worker
            // computed the same miss; both store the same truth for equal
            // events, and the newer events win on collision.
            let old_bytes = lru.slab[at].bytes();
            lru.slab[at].events = events.to_vec();
            lru.slab[at].repr = repr;
            let new_bytes = lru.slab[at].bytes();
            lru.bytes = lru.bytes - old_bytes + new_bytes;
            lru.touch(at);
        } else {
            if lru.index.len() >= self.capacity {
                let victim = lru.tail;
                lru.unlink(victim);
                let key = (lru.slab[victim].version, lru.slab[victim].hash);
                lru.index.remove(&key);
                lru.bytes -= lru.slab[victim].bytes();
                lru.slab[victim].events = Vec::new();
                lru.slab[victim].repr = Vec::new();
                lru.free.push(victim);
                // ordering: Relaxed — independent event count.
                self.evictions.fetch_add(1, Ordering::Relaxed);
                embsr_obs::metrics::counter(METRIC_CACHE_EVICTIONS).inc();
            }
            let entry = Entry {
                version,
                hash,
                events: events.to_vec(),
                repr,
                prev: NIL,
                next: NIL,
            };
            lru.bytes += entry.bytes();
            let at = match lru.free.pop() {
                Some(at) => {
                    lru.slab[at] = entry;
                    at
                }
                None => {
                    lru.slab.push(entry);
                    lru.slab.len() - 1
                }
            };
            lru.push_front(at);
            lru.index.insert((version, hash), at);
        }
        let bytes = lru.bytes;
        drop(lru);
        // ordering: Relaxed — independent event count.
        self.insertions.fetch_add(1, Ordering::Relaxed);
        embsr_obs::metrics::gauge(METRIC_CACHE_BYTES).set(bytes as f64);
    }

    /// Point-in-time counters (monotonic except `entries`/`bytes`).
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        let (entries, bytes) = (lru.index.len() as u64, lru.bytes);
        drop(lru);
        CacheStats {
            // ordering: Relaxed — snapshot reads of independent counters.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(items: &[u32]) -> Vec<MicroBehavior> {
        items.iter().map(|&i| MicroBehavior::new(i, 0)).collect()
    }

    #[test]
    fn lookup_returns_exact_inserted_repr() {
        let cache = ReprCache::new(4);
        let ev = events(&[1, 2, 3]);
        assert_eq!(cache.lookup(1, &ev), None);
        cache.insert(1, &ev, vec![0.5, -1.25]);
        assert_eq!(cache.lookup(1, &ev), Some(vec![0.5, -1.25]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn versions_do_not_cross_contaminate() {
        let cache = ReprCache::new(4);
        let ev = events(&[7, 8]);
        cache.insert(1, &ev, vec![1.0]);
        assert_eq!(cache.lookup(2, &ev), None);
        assert_eq!(cache.lookup(1, &ev), Some(vec![1.0]));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ReprCache::new(2);
        let (a, b, c) = (events(&[1]), events(&[2]), events(&[3]));
        cache.insert(1, &a, vec![1.0]);
        cache.insert(1, &b, vec![2.0]);
        assert_eq!(cache.lookup(1, &a), Some(vec![1.0])); // a is now MRU
        cache.insert(1, &c, vec![3.0]); // evicts b
        assert_eq!(cache.lookup(1, &b), None);
        assert_eq!(cache.lookup(1, &a), Some(vec![1.0]));
        assert_eq!(cache.lookup(1, &c), Some(vec![3.0]));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn ops_distinguish_sessions_with_equal_items() {
        let cache = ReprCache::new(4);
        let clicks = vec![MicroBehavior::new(5, 0)];
        let buys = vec![MicroBehavior::new(5, 1)];
        cache.insert(1, &clicks, vec![1.0]);
        assert_eq!(cache.lookup(1, &buys), None);
    }

    #[test]
    fn hash_collision_is_a_miss_not_a_wrong_answer() {
        // Force a collision by inserting under the same (version, hash)
        // slot: replace-in-place keeps the newer events, and the displaced
        // events miss instead of returning the newer repr.
        let cache = ReprCache::new(4);
        let ev = events(&[1, 2]);
        cache.insert(1, &ev, vec![1.0]);
        // Same events replaced with a recomputed (identical) repr is fine.
        cache.insert(1, &ev, vec![1.0]);
        assert_eq!(cache.lookup(1, &ev), Some(vec![1.0]));
        assert_eq!(cache.stats().entries, 1);
    }
}
