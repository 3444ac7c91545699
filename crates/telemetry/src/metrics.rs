//! Named counters and fixed-bucket latency histograms.
//!
//! A [`MetricsRegistry`] is an instantiable bag of named instruments —
//! deliberately *not* a process-global: the engine owns one for cell/phase
//! metrics, each `CacheStore` owns one for its hit/miss/evict counters, and
//! the serve daemon owns one for request accounting. Instruments are created
//! on first use and shared via `Arc`, so hot paths hold the `Arc` and never
//! touch the registry lock again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in milliseconds. Spans two orders
/// around the workloads the engine actually sees: sub-millisecond cache hits
/// up to minute-scale huge-grid cells. An implicit overflow bucket catches
/// everything above the last bound.
pub const LATENCY_BUCKETS_MS: &[f64] = &[
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 15000.0, 60000.0,
];

/// A fixed-bucket histogram over non-negative `f64` samples (milliseconds by
/// convention). Records are lock-free; percentiles are estimated by linear
/// interpolation inside the bucket containing the rank, clamped to the
/// observed min/max so tiny samples don't report a bucket edge they never saw.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, ascending.
    bounds: Vec<f64>,
    /// One slot per finite bucket plus a trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Bit-cast f64 accumulators maintained with CAS loops.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the default latency buckets.
    pub fn new() -> Self {
        Self::with_bounds(LATENCY_BUCKETS_MS)
    }

    /// A histogram with custom ascending upper bounds.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: f64) {
        let idx = self.bounds.partition_point(|&bound| bound < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        fetch_update_f64(&self.sum_bits, |sum| sum + value);
        fetch_update_f64(&self.min_bits, |min| min.min(value));
        fetch_update_f64(&self.max_bits, |max| max.max(value));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `p`-th percentile (`0.0..=100.0`); 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        // Rank of the target sample, 1-based, clamped into [1, count].
        let rank = ((p / 100.0) * count as f64).ceil().clamp(1.0, count as f64);
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if (cumulative + in_bucket) as f64 >= rank {
                let lower = if idx == 0 { 0.0 } else { self.bounds[idx - 1] };
                let upper = if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    // Overflow bucket: everything here is <= observed max.
                    max
                };
                let fraction = (rank - cumulative as f64) / in_bucket as f64;
                let estimate = lower + (upper - lower) * fraction.clamp(0.0, 1.0);
                return estimate.clamp(min, max);
            }
            cumulative += in_bucket;
        }
        max
    }

    /// A point-in-time summary of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }

    /// Per-bucket counts (finite buckets then the overflow bucket), for tests.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// CAS-loop update of an `f64` stored as bits in an `AtomicU64`.
fn fetch_update_f64(cell: &AtomicU64, update: impl Fn(f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = update(f64::from_bits(current)).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// Exported summary of one histogram (all zero when nothing was recorded).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// A named bag of instruments; see the module docs for the ownership model.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap();
        Arc::clone(counters.entry(name.to_string()).or_default())
    }

    /// The histogram named `name` (default latency buckets), created on first
    /// use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().unwrap();
        Arc::clone(histograms.entry(name.to_string()).or_default())
    }

    /// Current value of the counter named `name` (0 if never created).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.lock().unwrap().get(name).map_or(0, |c| c.get())
    }

    /// A point-in-time snapshot of every instrument, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time export of a [`MetricsRegistry`], name-sorted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let registry = MetricsRegistry::new();
        let hits = registry.counter("cache.hits");
        hits.inc();
        hits.add(4);
        assert_eq!(registry.counter("cache.hits").get(), 5);
        assert_eq!(registry.counter_value("cache.hits"), 5);
        assert_eq!(registry.counter_value("cache.misses"), 0);
    }

    #[test]
    fn histogram_buckets_samples_at_upper_bound_inclusive() {
        let h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        h.record(0.5); // bucket 0: (0, 1]
        h.record(1.0); // bucket 0: upper bound is inclusive
        h.record(5.0); // bucket 1: (1, 10]
        h.record(100.0); // bucket 2
        h.record(1000.0); // overflow bucket
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106.5);
    }

    #[test]
    fn histogram_percentiles_interpolate_within_buckets() {
        let h = Histogram::with_bounds(&[10.0, 20.0, 30.0]);
        // 100 samples of 5ms -> every percentile sits in bucket (0, 10].
        for _ in 0..100 {
            h.record(5.0);
        }
        // All mass in one bucket: interpolation stays within [min, max] = [5, 5].
        assert_eq!(h.percentile(50.0), 5.0);
        assert_eq!(h.percentile(99.0), 5.0);
    }

    #[test]
    fn histogram_percentiles_split_across_buckets() {
        let h = Histogram::with_bounds(&[10.0, 20.0]);
        for _ in 0..90 {
            h.record(8.0); // bucket (0, 10]
        }
        for _ in 0..10 {
            h.record(18.0); // bucket (10, 20]
        }
        // p50 lands mid-first-bucket; estimate is in (0, 10], clamped to >= min 8.
        let p50 = h.percentile(50.0);
        assert!((8.0..=10.0).contains(&p50), "p50 = {p50}");
        // p95 lands in the second bucket; estimate is in (10, 18].
        let p95 = h.percentile(95.0);
        assert!((10.0..=18.0).contains(&p95), "p95 = {p95}");
        // p100 == max sample.
        assert_eq!(h.percentile(100.0), 18.0);
    }

    #[test]
    fn histogram_overflow_bucket_reports_observed_max() {
        let h = Histogram::with_bounds(&[1.0]);
        h.record(250.0);
        h.record(500.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, 500.0);
        assert_eq!(h.percentile(99.0), 500.0);
        assert!(snap.p50 <= 500.0 && snap.p50 >= 250.0);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let snap = Histogram::new().snapshot();
        assert_eq!(
            snap,
            HistogramSnapshot {
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            }
        );
    }

    #[test]
    fn snapshot_is_name_sorted_and_complete() {
        let registry = MetricsRegistry::new();
        registry.counter("b").inc();
        registry.counter("a").add(2);
        registry.histogram("lat").record(3.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "lat");
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn default_buckets_cover_the_latency_range() {
        let h = Histogram::new();
        h.record(0.1);
        h.record(90_000.0);
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), LATENCY_BUCKETS_MS.len() + 1);
        assert_eq!(counts[0], 1);
        assert_eq!(*counts.last().unwrap(), 1);
    }
}
