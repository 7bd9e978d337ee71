//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Metrics are plain shared atomics handed out by name, so the hot path
//! is an `Arc` deref plus one atomic op — no locks, no formatting. They
//! stay live even when span recording is disabled: public accessors
//! (retry counts, malformed-chunk counts, queue depths) are built on
//! them and must always report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, occupancy).
#[derive(Debug, Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) and return the new value.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        self.value.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of each bucket; values above the last bound
    /// land in the implicit overflow bucket.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets (the last is the overflow bucket).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram over `u64` samples (typically microseconds
/// or bytes). Bucket bounds are fixed at registration.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of per-bucket counts (last entry is the overflow bucket).
    pub fn buckets(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The registered bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }
}

/// Point-in-time copy of one histogram, as exported in snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Inclusive bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (overflow last).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// A registry of named metrics. Handles returned for the same name share
/// the same underlying atomic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter handle for `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Counter {
                value: Arc::new(AtomicU64::new(0)),
            })
            .clone()
    }

    /// Gauge handle for `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Gauge {
                value: Arc::new(AtomicI64::new(0)),
            })
            .clone()
    }

    /// Histogram handle for `name`, registering it with `bounds` on first
    /// use. Later calls return the existing histogram regardless of the
    /// `bounds` they pass — bucket layout is fixed at registration.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.histograms
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| {
                let mut sorted: Vec<u64> = bounds.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
                Histogram {
                    inner: Arc::new(HistogramInner {
                        bounds: sorted,
                        buckets,
                        count: AtomicU64::new(0),
                        sum: AtomicU64::new(0),
                    }),
                }
            })
            .clone()
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(n, h)| HistogramSnapshot {
                    name: n.clone(),
                    bounds: h.bounds().to_vec(),
                    buckets: h.buckets(),
                    count: h.count(),
                    sum: h.sum(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_by_name() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.counter("a").add(4);
        r.counter("b").inc();
        assert_eq!(r.counter("a").get(), 5);
        assert_eq!(r.counter("b").get(), 1);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        g.set(10);
        assert_eq!(g.add(-3), 7);
        assert_eq!(r.gauge("depth").get(), 7);
    }

    #[test]
    fn histogram_buckets_samples() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat_us", &[10, 100, 1000]);
        for v in [1, 9, 10, 11, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.buckets(), vec![3, 2, 0, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 9 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn histogram_bounds_fixed_at_registration() {
        let r = MetricsRegistry::new();
        r.histogram("h", &[5, 1, 5]);
        let h = r.histogram("h", &[999]);
        assert_eq!(h.bounds(), &[1, 5], "sorted, deduped, first wins");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = MetricsRegistry::new();
        r.counter("z").inc();
        r.counter("a").add(2);
        r.gauge("g").set(-4);
        r.histogram("h", &[10]).record(3);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a".into(), 2), ("z".into(), 1)]);
        assert_eq!(s.counter("z"), Some(1));
        assert_eq!(s.gauge("g"), Some(-4));
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].buckets, vec![1, 0]);
    }
}
