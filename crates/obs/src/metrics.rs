//! Global metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! Handles are `&'static` (registered values are leaked once) so hot paths
//! can cache them in a `OnceLock` and pay only a relaxed atomic op per
//! update. All update methods are additionally gated on the global
//! [`enabled`] switch *at the call site* of the instrumented crates, so an
//! un-instrumented run costs a single atomic load per probe.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Global switch
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns hot-path metric collection on or off (off by default).
pub fn set_enabled(on: bool) {
    // ordering: Release so metrics registered before the flip are visible
    // to probes that observe it; readers that lag only miss some samples.
    ENABLED.store(on, Ordering::Release);
}

/// Whether instrumented hot paths should record (one relaxed load).
#[inline(always)]
pub fn enabled() -> bool {
    // ordering: Relaxed — the flag gates best-effort sampling only; a
    // stale read just delays when a probe notices the switch.
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Metric types
// ---------------------------------------------------------------------------

/// Monotonically increasing event count.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        // ordering: Relaxed — independent event counts; the RMW is atomic
        // and no other memory is published through the counter.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        // ordering: Relaxed — a snapshot read; counts may lag in-flight adds.
        self.value.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        // ordering: Relaxed — test/bench-only zeroing, no synchronization.
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-written floating-point value.
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        // ordering: Relaxed — last-writer-wins value, no ordering contract.
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        // ordering: Relaxed — a snapshot read of a standalone value.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub fn reset(&self) {
        self.set(0.0);
    }
}

const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS; // 16 sub-buckets per power-of-two octave
/// Values below `SUBS` index themselves; each octave `SUB_BITS..=63` then
/// takes the next `SUBS` indices, so indices 0..=975 are all reachable.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// Log-bucketed histogram over `u64` samples (durations in µs, sizes in
/// bytes, …). Each power-of-two octave is split into 16 sub-buckets, so
/// quantile answers are exact to within 1/32 (~3.1%) relative error while
/// the whole histogram is 976 fixed atomics — no allocation, no locking.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = ((v >> (octave - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (octave - SUB_BITS + 1) as usize * SUBS + sub
}

/// A bucket's value range as `(lowest, highest)`, both inclusive.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < SUBS {
        return (idx as u64, idx as u64);
    }
    let octave = (idx / SUBS) as u32 + SUB_BITS - 1;
    let sub = (idx % SUBS) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    let lower = (1u64 << octave) + sub * width;
    (lower, lower + (width - 1))
}

/// Midpoint of a bucket's value range (its representative for quantiles).
fn bucket_mid(idx: usize) -> f64 {
    let (lo, hi) = bucket_range(idx);
    if idx < SUBS {
        return lo as f64;
    }
    lo as f64 + (hi - lo + 1) as f64 / 2.0
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        // ordering: Relaxed throughout — each field is an independent
        // statistic; readers tolerate tearing between them by design.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        // ordering: Relaxed — snapshot read, may lag concurrent records.
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        // ordering: Relaxed — sum and count may tear vs. each other; the
        // mean is a best-effort statistic, not an invariant.
        self.sum.load(Ordering::Relaxed) as f64 / n as f64
    }

    pub fn min(&self) -> Option<u64> {
        // ordering: Relaxed — snapshot read of an independent statistic.
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    pub fn max(&self) -> Option<u64> {
        // ordering: Relaxed — snapshot read of an independent statistic.
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.5` = p50) as a bucket-midpoint estimate, exact
    /// to within half a sub-bucket (≤1/32, ~3.1% relative) and clamped to
    /// the recorded [min, max]. `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        // ordering: Relaxed — bucket reads may interleave with writers;
        // quantiles are estimates with a documented error bound anyway.
        let idx = self
            .buckets
            .iter()
            .position(|b| {
                cum += b.load(Ordering::Relaxed);
                cum >= rank
            })
            .unwrap_or(BUCKETS - 1);
        // A midpoint can fall outside the samples (five 32s land in the
        // [32, 34) bucket, midpoint 33); the exact extremes bound every
        // quantile. A record racing this read may not have published its
        // min/max yet, so clamp only to a consistent range.
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) if lo <= hi => bucket_mid(idx).clamp(lo as f64, hi as f64),
            _ => bucket_mid(idx),
        }
    }

    /// Bounds `(lower, upper)` on the fraction of recorded samples above
    /// `threshold` (`(0.0, 0.0)` when empty), exact from the bucket counts:
    /// buckets wholly above the threshold give the lower bound, and adding
    /// the buckets that straddle it gives the upper. The true fraction
    /// always lies inside. This is the violation rate the SLO error-budget
    /// accounting consumes.
    pub fn fraction_above_bounds(&self, threshold: u64) -> (f64, f64) {
        let (mut total, mut above, mut straddling) = (0u64, 0u64, 0u64);
        // ordering: Relaxed — same best-effort bucket snapshot as quantile.
        for (idx, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            total += c;
            let (lo, hi) = bucket_range(idx);
            if lo > threshold {
                above += c;
            } else if hi > threshold {
                straddling += c;
            }
        }
        if total == 0 {
            return (0.0, 0.0);
        }
        let n = total as f64;
        (above as f64 / n, (above + straddling) as f64 / n)
    }

    pub fn reset(&self) {
        // ordering: Relaxed — test/bench-only zeroing, no synchronization.
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum MetricRef {
    C(&'static Counter),
    G(&'static Gauge),
    H(&'static Histogram),
}

fn registry() -> &'static Mutex<HashMap<String, MetricRef>> {
    static R: OnceLock<Mutex<HashMap<String, MetricRef>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Looks up or registers the counter `name`.
///
/// # Panics
/// Panics when `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| MetricRef::C(Box::leak(Box::default())))
    {
        MetricRef::C(c) => c,
        _ => panic!("metric '{name}' is not a counter"),
    }
}

/// Looks up or registers the gauge `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    gauge_owned(name.to_string())
}

/// [`gauge`] taking an owned name (avoids a copy for dynamic names).
pub fn gauge_owned(name: String) -> &'static Gauge {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name)
        .or_insert_with(|| MetricRef::G(Box::leak(Box::default())))
    {
        MetricRef::G(g) => g,
        _ => panic!("gauge name already used by another metric kind"),
    }
}

/// Looks up or registers the histogram `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    histogram_owned(name.to_string())
}

/// [`histogram`] taking an owned name (avoids a copy for dynamic names).
pub fn histogram_owned(name: String) -> &'static Histogram {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name)
        .or_insert_with(|| MetricRef::H(Box::leak(Box::default())))
    {
        MetricRef::H(h) => h,
        _ => panic!("histogram name already used by another metric kind"),
    }
}

/// Point-in-time view of one registered metric.
pub struct MetricSnapshot {
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Counter count, gauge value, or histogram sample count.
    pub value: f64,
    /// Histograms only: `(mean, p50, p95, p99, max)` in recorded units.
    pub quantiles: Option<(f64, f64, f64, f64, f64)>,
}

/// Snapshots every registered metric, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let reg = registry().lock().unwrap();
    let mut out: Vec<MetricSnapshot> = reg
        .iter()
        .map(|(name, m)| match m {
            MetricRef::C(c) => MetricSnapshot {
                name: name.clone(),
                kind: "counter",
                value: c.get() as f64,
                quantiles: None,
            },
            MetricRef::G(g) => MetricSnapshot {
                name: name.clone(),
                kind: "gauge",
                value: g.get(),
                quantiles: None,
            },
            MetricRef::H(h) => MetricSnapshot {
                name: name.clone(),
                kind: "histogram",
                value: h.count() as f64,
                quantiles: Some((
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.max().unwrap_or(0) as f64,
                )),
            },
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Zeroes every registered metric (benches and tests).
pub fn reset_all() {
    let reg = registry().lock().unwrap();
    for m in reg.values() {
        match m {
            MetricRef::C(c) => c.reset(),
            MetricRef::G(g) => g.reset(),
            MetricRef::H(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            assert!(idx < BUCKETS);
            prev = idx;
        }
        // representative stays within 1/32 of any value in the bucket
        for v in [1u64, 9, 16, 57, 1000, 123_456, 999_999_937] {
            let mid = bucket_mid(bucket_index(v));
            let rel = (mid - v as f64).abs() / v as f64;
            assert!(rel <= 1.0 / 32.0 + 1e-9, "value {v}: mid {mid} rel {rel}");
        }
    }

    #[test]
    fn quantiles_of_uniform_range_are_accurate() {
        let h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(
                rel <= 1.0 / 32.0,
                "q{q}: got {got}, want ~{expect} (rel {rel})"
            );
        }
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10_000));
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn quantile_edge_cases() {
        let h = Histogram::default();
        assert!(h.quantile(0.5).is_nan());
        h.record(42);
        // a single sample answers every quantile with its own bucket
        let rel = (h.quantile(0.0) - 42.0).abs() / 42.0;
        assert!(rel <= 1.0 / 32.0);
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
        // identical samples sit below their bucket's midpoint (33 for the
        // [32, 34) bucket); quantiles stay inside the observed range
        let h = Histogram::default();
        for _ in 0..5 {
            h.record(32);
        }
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 32.0, "q{q}");
        }
        let h = Histogram::default();
        for v in [100u64, 103] {
            h.record(v);
        }
        for q in [0.0, 0.5, 1.0] {
            let got = h.quantile(q);
            assert!((100.0..=103.0).contains(&got), "q{q} = {got} outside [100, 103]");
        }
    }

    #[test]
    fn fraction_above_tracks_the_tail() {
        let h = Histogram::default();
        assert_eq!(h.fraction_above_bounds(0), (0.0, 0.0));
        for v in 1..=1_000u64 {
            h.record(v);
        }
        // Exactly 10% of the uniform range exceeds 900; the interval
        // brackets it.
        let (lo, hi) = h.fraction_above_bounds(900);
        assert!(lo <= 0.10 && 0.10 <= hi, "[{lo}, {hi}]");
        assert!(hi - lo < 0.05, "[{lo}, {hi}] is wider than one bucket");
        assert_eq!(h.fraction_above_bounds(u64::MAX), (0.0, 0.0));
        // Every sample is at least 1, and 0 has a bucket of its own.
        assert_eq!(h.fraction_above_bounds(0), (1.0, 1.0));
    }

    #[test]
    fn a_straddling_bucket_spans_the_whole_interval() {
        // 100 and 103 share the [100, 103] bucket; 101 splits it.
        let h = Histogram::default();
        for v in [100u64, 103] {
            h.record(v);
        }
        assert_eq!(h.fraction_above_bounds(101), (0.0, 1.0));
    }

    #[test]
    fn samples_wholly_above_give_a_point_interval() {
        let h = Histogram::default();
        for v in [100u64, 103, 5_000, 1 << 40] {
            h.record(v);
        }
        assert_eq!(h.fraction_above_bounds(99), (1.0, 1.0));
        assert_eq!(h.fraction_above_bounds(u64::MAX), (0.0, 0.0));
    }

    #[test]
    fn bucket_ranges_tile_the_u64_line() {
        // Every index holds values: the buckets, in index order, cover
        // 0..=u64::MAX with no gap and no overlap.
        let mut next = 0u64;
        for idx in 0..BUCKETS {
            let (lo, hi) = bucket_range(idx);
            assert_eq!(lo, next, "bucket {idx} starts where the previous one ended");
            assert!(lo <= hi);
            assert_eq!((bucket_index(lo), bucket_index(hi)), (idx, idx));
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
        assert_eq!(
            bucket_index(SUBS as u64),
            SUBS,
            "the first octave follows the exact values"
        );
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn zero_and_small_values_are_exact() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.01), 0.0);
        assert_eq!(h.quantile(1.0), 3.0);
    }

    #[test]
    fn registry_hands_out_stable_handles() {
        let c1 = counter("test.registry.c");
        let c2 = counter("test.registry.c");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3);
        assert!(std::ptr::eq(c1, c2));

        let g = gauge("test.registry.g");
        g.set(2.5);
        assert_eq!(gauge("test.registry.g").get(), 2.5);
    }

    #[test]
    fn snapshot_contains_registered_metrics() {
        counter("test.snap.c").add(7);
        gauge("test.snap.g").set(1.5);
        histogram("test.snap.h").record(10);
        let snap = snapshot();
        let find = |n: &str| snap.iter().find(|m| m.name == n).unwrap();
        assert_eq!(find("test.snap.c").kind, "counter");
        assert!(find("test.snap.c").value >= 7.0);
        assert_eq!(find("test.snap.g").value, 1.5);
        let h = find("test.snap.h");
        assert_eq!(h.kind, "histogram");
        assert!(h.quantiles.is_some());
        // sorted by name
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn enabled_flag_toggles() {
        assert!(!enabled() || enabled()); // no crash; default off unless another test enabled it
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
    }
}
