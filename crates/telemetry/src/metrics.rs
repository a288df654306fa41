//! The metrics half of the telemetry plane: a process-wide (or
//! per-[`Session`]) registry of named counters, gauges, and log-bucketed
//! histograms, all updatable from any thread without taking a lock on
//! the hot path.
//!
//! The registry's only lock guards the name → handle maps; it is taken
//! once per metric *registration*, never per update. Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones whose
//! mutation methods are single atomic operations.
//!
//! [`Session`]: https://docs.rs/cheetah-serve

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-buckets per power of two in a [`Histogram`]. Eight sub-buckets
/// bound the relative quantile error at `2^(1/8) − 1 ≈ 9.05%`.
pub const HIST_SUB_BUCKETS: usize = 8;

/// Smallest representable histogram value: one nanosecond (values are
/// typically seconds, but the scale is unit-agnostic). Everything at or
/// below this lands in bucket 0.
pub const HIST_MIN: f64 = 1e-9;

/// Octaves covered above [`HIST_MIN`]: `2^39 ns ≈ 550 s`, generous for
/// any latency this system can produce. Larger values saturate into the
/// final (overflow) bucket.
const HIST_OCTAVES: usize = 39;

/// Total bucket count (`+ 1` for the overflow bucket).
const HIST_BUCKETS: usize = HIST_OCTAVES * HIST_SUB_BUCKETS + 1;

/// A monotonically increasing `u64` counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that goes up *and* down (queue depth, DRR
/// deficit, in-flight count).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared histogram state: log-bucketed occupancy counts plus an
/// *exact* running sum and count.
///
/// The bucketing only affects quantile estimates; `sum`/`count` (and
/// therefore the mean) are exact, which lets exact-mean consumers read
/// from the histogram without any behavioral drift versus private
/// bookkeeping.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Exact sum of observed values, stored as `f64` bits and updated
    /// with a CAS loop.
    sum_bits: AtomicU64,
    /// Smallest observed value, as `f64` bits (`f64::INFINITY` when empty).
    min_bits: AtomicU64,
    /// Largest observed value, as `f64` bits (`f64::NEG_INFINITY` when empty).
    max_bits: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(HIST_BUCKETS);
        buckets.resize_with(HIST_BUCKETS, || AtomicU64::new(0));
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Bucket index for a value. Non-finite and tiny values clamp to
    /// bucket 0; huge values clamp to the overflow bucket.
    fn bucket_of(v: f64) -> usize {
        if !v.is_finite() || v <= HIST_MIN {
            return 0;
        }
        let pos = (v / HIST_MIN).log2() * HIST_SUB_BUCKETS as f64;
        // `ceil` puts a bucket-edge value in the bucket whose *upper*
        // edge it is, so `bucket_upper_edge` stays an upper bound; the
        // epsilon keeps float noise in `log2` of an exact edge from
        // spilling it one bucket up.
        let idx = (pos - 1e-9).ceil().max(0.0) as usize;
        idx.min(HIST_BUCKETS - 1)
    }

    /// Upper edge of bucket `i` (its quantile representative — quantile
    /// estimates are upper bounds, never optimistic).
    fn bucket_upper_edge(i: usize) -> f64 {
        HIST_MIN * 2f64.powf(i as f64 / HIST_SUB_BUCKETS as f64)
    }

    fn observe(&self, v: f64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        fetch_f64(&self.sum_bits, |s| s + v);
        fetch_f64(&self.min_bits, |m| m.min(v));
        fetch_f64(&self.max_bits, |m| m.max(v));
    }

    fn merge_from(&self, other: &HistogramCore) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let osum = f64::from_bits(other.sum_bits.load(Ordering::Relaxed));
        let omin = f64::from_bits(other.min_bits.load(Ordering::Relaxed));
        let omax = f64::from_bits(other.max_bits.load(Ordering::Relaxed));
        fetch_f64(&self.sum_bits, |s| s + osum);
        fetch_f64(&self.min_bits, |m| m.min(omin));
        fetch_f64(&self.max_bits, |m| m.max(omax));
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        let occupancy: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            // Nearest-rank over the cumulative bucket occupancy.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            let mut edge = Self::bucket_upper_edge(HIST_BUCKETS - 1);
            for (i, occ) in occupancy.iter().enumerate() {
                seen += occ;
                if seen >= rank {
                    edge = Self::bucket_upper_edge(i);
                    break;
                }
            }
            // A bucket's upper edge can lie above the largest sample (and
            // the clamp buckets' edges on either side of the range); the
            // exact extremes bound every sample, so they bound every
            // quantile. `min > max` only while a first observation is
            // mid-flight or when every sample was NaN.
            if min <= max {
                edge.max(min).min(max)
            } else {
                edge
            }
        };
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// Atomically apply `f` to an `AtomicU64` holding `f64` bits.
fn fetch_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// A log-bucketed latency/size histogram with exact `count`/`sum`.
///
/// Recording is three relaxed atomic ops plus two short CAS loops — no
/// locks, safe from any thread. Quantiles come from the bucket walk and
/// carry at most `2^(1/8) − 1 ≈ 9%` relative error; the mean
/// (`sum / count`) is exact.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram not tied to any [`Registry`].
    pub fn new() -> Self {
        Histogram(Arc::new(HistogramCore::new()))
    }

    /// Record one observation (seconds, bytes, rows — unit-agnostic).
    pub fn observe(&self, v: f64) {
        self.0.observe(v);
    }

    /// Fold every observation of `other` into `self` (bucket-wise sums;
    /// commutative and associative up to float rounding of `sum`).
    pub fn merge_from(&self, other: &Histogram) {
        self.0.merge_from(&other.0);
    }

    /// A point-in-time view: exact count/sum/min/max, bucketed quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }

    /// Exact number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Exact sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() / n as f64)
    }
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Exact observation count.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: f64,
    /// Exact smallest observation (0 when empty).
    pub min: f64,
    /// Exact largest observation (0 when empty).
    pub max: f64,
    /// Median estimate (≤ 9% high, never low, never outside `[min, max]`).
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Exact mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A named collection of metrics. Cloning shares the underlying store;
/// each [`Session`] owns one, and anything holding a clone (or a metric
/// handle) can record into it.
///
/// [`Session`]: https://docs.rs/cheetah-serve
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`. Keep the returned handle
    /// if you update it on a hot path — the lookup takes the map lock.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(name.to_string()).or_insert_with(|| Counter(Arc::new(AtomicU64::new(0)))).clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(name.to_string()).or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0)))).clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(HistogramCore::new())))
            .clone()
    }

    /// A deterministic (name-ordered) point-in-time view of every
    /// metric in the registry.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .inner
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A deterministic snapshot of a whole [`Registry`]: `BTreeMap`s keep
/// iteration (and rendering) in name order regardless of registration
/// or update interleaving.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// One `name value` line per metric, name-ordered — stable across
    /// runs for diffing and for tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge   {k} = {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist    {k} = count {} mean {:.6} p50 {:.6} p90 {:.6} p99 {:.6} max {:.6}",
                h.count,
                h.mean(),
                h.p50,
                h.p90,
                h.p99,
                h.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("serve.queries");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("serve.queries").get(), 5);
        let g = reg.gauge("serve.queue_depth");
        g.set(7);
        g.add(-3);
        assert_eq!(reg.gauge("serve.queue_depth").get(), 4);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zeros() {
        let reg = Registry::new();
        let snap = reg.histogram("latency").snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.sum, 0.0);
        assert_eq!(snap.min, 0.0);
        assert_eq!(snap.max, 0.0);
        assert_eq!(snap.p50, 0.0);
        assert_eq!(snap.p99, 0.0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn single_sample_pins_every_quantile_to_the_sample() {
        let reg = Registry::new();
        let h = reg.histogram("latency");
        h.observe(0.125);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 0.125);
        assert_eq!(snap.min, 0.125);
        assert_eq!(snap.max, 0.125);
        // Every quantile falls in the one occupied bucket, whose upper
        // edge the exact extremes clamp back onto the sample.
        assert_eq!([snap.p50, snap.p90, snap.p99], [0.125; 3]);
        assert_eq!(snap.mean(), 0.125);
    }

    #[test]
    fn bucket_boundary_values_stay_upper_bounded() {
        // Exact powers of two times HIST_MIN sit exactly on bucket
        // edges; the quantile estimate must never undershoot them.
        for exp in [0usize, 1, 7, 8, 9, 16, 31] {
            let reg = Registry::new();
            let h = reg.histogram("edge");
            let v = HIST_MIN * 2f64.powf(exp as f64 / HIST_SUB_BUCKETS as f64);
            h.observe(v);
            let snap = h.snapshot();
            assert!(snap.p50 >= v * (1.0 - 1e-9), "p50 {} undershoots edge value {v}", snap.p50);
            assert!(snap.p50 <= v * 1.0001, "edge value must land in its own bucket");
        }
        // Below-range and absurd values clamp instead of panicking.
        let reg = Registry::new();
        let h = reg.histogram("clamp");
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(1e12);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 4);
        assert!(h.snapshot().p99 <= 1e12);
        let nan_only = reg.histogram("nan");
        nan_only.observe(f64::NAN);
        let _ = nan_only.snapshot(); // no exact extremes to clamp to; must not panic

        // Mid-bucket samples: the bucket's upper edge sits above them, so
        // an unclamped quantile would exceed the histogram's own max
        // (a p50 of 2.097 ms over an exact max of 1.950 ms).
        let one = reg.histogram("one");
        one.observe(1.95e-3);
        let snap = one.snapshot();
        assert_eq!([snap.p50, snap.p90, snap.p99], [1.95e-3; 3]);
        let two = reg.histogram("two");
        two.observe(1.2e-3);
        two.observe(1.95e-3);
        let snap = two.snapshot();
        for q in [snap.p50, snap.p90, snap.p99] {
            assert!(snap.min <= q && q <= snap.max, "{q} outside [{}, {}]", snap.min, snap.max);
        }
        assert!(snap.p50 < snap.max, "the median of two stays in the lower sample's bucket");
        assert_eq!(snap.p99, 1.95e-3);
        // Past the overflow bucket the edge undershoots instead: clamp up.
        let huge = reg.histogram("huge");
        huge.observe(1e12);
        assert_eq!(huge.snapshot().p50, 1e12);
    }

    #[test]
    fn quantiles_are_upper_bounds_within_one_sub_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("latency");
        for i in 1..=1000 {
            h.observe(i as f64 * 1e-4); // 0.1ms .. 100ms
        }
        let snap = h.snapshot();
        let ratio = 2f64.powf(1.0 / HIST_SUB_BUCKETS as f64);
        for (q, exact) in [(snap.p50, 0.0500), (snap.p90, 0.0900), (snap.p99, 0.0990)] {
            assert!(q >= exact * (1.0 - 1e-9), "quantile {q} below exact {exact}");
            assert!(q <= exact * ratio * 1.0001, "quantile {q} beyond one bucket of {exact}");
        }
        assert!((snap.mean() - 0.050_05).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_both_sides() {
        let reg = Registry::new();
        let a = reg.histogram("a");
        let b = reg.histogram("b");
        for i in 1..=10 {
            a.observe(i as f64);
        }
        b.observe(100.0);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count, 11);
        assert_eq!(snap.sum, 155.0);
        assert_eq!(snap.max, 100.0);
        assert_eq!(snap.min, 1.0);
    }

    #[test]
    fn snapshot_ordering_is_deterministic() {
        let reg = Registry::new();
        reg.counter("z.last").inc();
        reg.counter("a.first").inc();
        reg.gauge("m.middle").set(2);
        reg.histogram("b.hist").observe(1.0);
        let rendered = reg.snapshot().render();
        let a = rendered.find("a.first").unwrap();
        let z = rendered.find("z.last").unwrap();
        assert!(a < z, "counters must render in name order");
    }
}
