//! The metrics registry: counters, gauges and log-bucketed histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clones of
//! shared atomics, so the *hot path* — incrementing a counter from the
//! engine dispatcher or a server handler — is a single lock-free atomic
//! op. The registry itself only takes a lock at registration time (once
//! per metric name) and when snapshotting.
//!
//! Histograms are log₂-bucketed: bucket 0 holds the value `0`, bucket
//! `i ≥ 1` holds values in `[2^(i-1), 2^i)`, and the top bucket (index
//! [`Histogram::BUCKETS`]` - 1` = 64) holds `[2^63, u64::MAX]`. Every
//! `u64` — including `0` and `u64::MAX` — lands in exactly one bucket.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero (unregistered; see [`Registry::counter`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (occupancy, bytes, queue depth).
/// Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero (unregistered; see [`Registry::gauge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (saturating at zero under races is *not* guaranteed;
    /// callers pair `add`/`sub` so the value stays non-negative).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; Histogram::BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed latency/size histogram. Clones share the same cells;
/// recording is lock-free.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Number of buckets: one for `0`, one per power of two up to and
    /// including `2^63..=u64::MAX`.
    pub const BUCKETS: usize = 65;

    /// A fresh histogram (unregistered; see [`Registry::histogram`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: `0` → 0, otherwise `⌊log₂ v⌋ + 1`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.cells;
        c.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.cells;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| c.buckets[i].load(Ordering::Relaxed)),
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram::bucket_index`]).
    pub buckets: [u64; Histogram::BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`); 0 when empty. Bucketed, so an approximation
    /// with ≤ 2× relative error.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i (== lower bound of i+1).
                return if i + 1 < Histogram::BUCKETS {
                    Histogram::bucket_lower_bound(i + 1).saturating_sub(1)
                } else {
                    u64::MAX
                };
            }
        }
        self.max
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A frozen, name-sorted view of every metric in a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Snapshot of a histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Plain-text exposition, one metric per line, deterministically
    /// ordered by kind then name:
    ///
    /// ```text
    /// counter engine.cache_hits 42
    /// gauge engine.cache_bytes 1024
    /// histogram engine.batch_size count=3 sum=12 mean=4.00 p50<=3 p99<=7 max=6
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name} count={} sum={} mean={:.2} p50<={} p99<={} max={}",
                h.count,
                h.sum,
                h.mean(),
                h.quantile_bound(0.5),
                h.quantile_bound(0.99),
                h.max,
            );
        }
        out
    }
}

/// A named collection of metrics. Cloning shares the registry; handles
/// obtained from it keep working (and being visible in snapshots) for the
/// registry's whole lifetime.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Registers an externally created counter under `name`, so values
    /// recorded through existing handles appear in snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn register_counter(&self, name: &str, counter: Counter) {
        let mut m = self.metrics.lock().expect("registry poisoned");
        let prev = m.insert(name.to_owned(), Metric::Counter(counter));
        assert!(prev.is_none(), "metric {name:?} registered twice");
    }

    /// Registers an externally created gauge under `name`, so values
    /// recorded through existing handles appear in snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn register_gauge(&self, name: &str, gauge: Gauge) {
        let mut m = self.metrics.lock().expect("registry poisoned");
        let prev = m.insert(name.to_owned(), Metric::Gauge(gauge));
        assert!(prev.is_none(), "metric {name:?} registered twice");
    }

    /// Registers an externally created histogram under `name`, so values
    /// recorded through existing handles appear in snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn register_histogram(&self, name: &str, histogram: Histogram) {
        let mut m = self.metrics.lock().expect("registry poisoned");
        let prev = m.insert(name.to_owned(), Metric::Histogram(histogram));
        assert!(prev.is_none(), "metric {name:?} registered twice");
    }

    /// A frozen view of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock().expect("registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_and_get() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 43, "clones share the cell");
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn histogram_bucket_edges() {
        // 0 is its own bucket.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        // The top bucket holds everything from 2^63 up to u64::MAX.
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);
        assert!(Histogram::bucket_index(u64::MAX) < Histogram::BUCKETS);
        // Bounds are consistent with indices.
        for i in 0..Histogram::BUCKETS {
            let lo = Histogram::bucket_lower_bound(i);
            assert_eq!(Histogram::bucket_index(lo), i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_records_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.max, u64::MAX);
        // Sum wraps: 0 + u64::MAX.
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 110);
        assert!((s.mean() - 22.0).abs() < 1e-12);
        // p50 (3rd of 5 observations) lands in bucket [2,4): bound 3.
        assert_eq!(s.quantile_bound(0.5), 3);
        // p99 → the 100 observation, bucket [64,128): bound 127.
        assert_eq!(s.quantile_bound(0.99), 127);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile_bound(0.5), 0);
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.snapshot().counter("a"), Some(5));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn register_counter_adopts_existing_cell() {
        let r = Registry::new();
        let c = Counter::new();
        c.add(7);
        r.register_counter("pre", c.clone());
        c.inc();
        assert_eq!(r.snapshot().counter("pre"), Some(8));
    }

    #[test]
    fn exposition_is_deterministic_and_ordered() {
        let r = Registry::new();
        r.counter("z.count").inc();
        r.counter("a.count").add(3);
        r.gauge("m.bytes").set(64);
        r.histogram("b.sizes").record(4);
        let text = r.snapshot().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "counter a.count 3");
        assert_eq!(lines[1], "counter z.count 1");
        assert_eq!(lines[2], "gauge m.bytes 64");
        assert!(lines[3].starts_with("histogram b.sizes count=1 sum=4 mean=4.00"));
        assert_eq!(text, r.snapshot().render_text(), "stable across snapshots");
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.snapshot().count, 8000);
    }
}
