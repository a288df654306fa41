//! Sample-driven shard planning: the estimators behind the adaptive
//! shard planner.
//!
//! Cheetah's pruning win is bounded by the *slowest* shard: a fixed range
//! partitioner degenerates under key skew (one hot shard serializes the
//! whole run), and a fixed shard count either wastes workers on small
//! inputs or starves large ones. Cuttlefish-style lightweight runtime
//! sampling is enough to pick the physical strategy adaptively — this
//! module holds the sampling/estimation machinery, deliberately free of
//! any cost model (the ingest-model cost query lives in `cheetah-net`,
//! and the planner that combines both lives in `cheetah-db::planner`,
//! because this crate sits below the link models):
//!
//! * [`Reservoir`] — seeded Algorithm-R reservoir sampling over a routing
//!   key stream (uniform without knowing the stream length up front);
//! * [`DistinctSketch`] — a KMV (k-minimum-values) distinct-count sketch
//!   over the *whole* stream, not just the sample;
//! * [`KeySampler`] / [`KeyStats`] — one pass over the routing keys
//!   producing the sampled quantiles, the distinct estimate, and the
//!   top-key mass (the skew signal). Long streams are read through a
//!   bounded stride ([`KeySampler::offer_strided`]);
//! * [`fit_boundaries`] — fitted range cut points from the sampled
//!   quantiles, consumed by [`Sharder::fitted_range`];
//! * [`max_load_fraction`] — evaluate a candidate sharder's worst shard
//!   load on the sample (the balance signal the hash-vs-range choice and
//!   the planner contract's 2× bound are stated over);
//! * [`ShardPlan`] / [`PlanReport`] / [`PlanDecision`] — the concrete
//!   plan a planner emits, with an explicit record of *why*.
//!
//! Everything is deterministic in the seed: the same keys and the same
//! seed always produce the same sample, the same estimates, and therefore
//! the same plan — the determinism the planner regression tests pin down.

use crate::shard::{ShardPartitioner, Sharder};
use cheetah_switch::hash::mix64;
use std::collections::BTreeSet;

/// Seeded Algorithm-R reservoir sampler over a `u64` key stream.
///
/// Every offered key is kept with probability `capacity / seen` without
/// knowing the stream length in advance; the replacement choices come from
/// a seeded `mix64` chain, so the sample is a pure function of
/// `(capacity, seed, key order)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservoir {
    capacity: usize,
    seen: u64,
    state: u64,
    sample: Vec<u64>,
}

impl Reservoir {
    /// A reservoir holding at most `capacity` keys.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "need a non-empty reservoir");
        Self { capacity, seen: 0, state: seed ^ RESERVOIR_SALT, sample: Vec::new() }
    }

    /// Offer one key from the stream.
    pub fn offer(&mut self, key: u64) {
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(key);
            return;
        }
        self.state = mix64(self.state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let j = (self.state % self.seen) as usize;
        if j < self.capacity {
            self.sample[j] = key;
        }
    }

    /// Keys offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The current sample (insertion order, unsorted).
    pub fn sample(&self) -> &[u64] {
        &self.sample
    }
}

const RESERVOIR_SALT: u64 = 0x5EED_0F00;

/// KMV (k-minimum-values) distinct-count sketch.
///
/// Keeps the `k` smallest `mix64` hashes of the keys it sees; duplicates
/// hash identically, so the set's density estimates the distinct count:
/// with the `k`-th smallest hash at fraction `u` of the hash space, the
/// stream carried about `(k - 1) / u` distinct keys. Exact below `k`
/// distinct keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    k: usize,
    mins: BTreeSet<u64>,
}

impl DistinctSketch {
    /// A sketch keeping the `k` minimum hash values.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "KMV needs k >= 2");
        Self { k, mins: BTreeSet::new() }
    }

    /// Observe one key.
    pub fn offer(&mut self, key: u64) {
        let h = mix64(key ^ 0xD15_71C7);
        if self.mins.len() < self.k {
            self.mins.insert(h);
            return;
        }
        // Full: a hash at or above the k-th minimum cannot enter the
        // sketch, so the tree is not touched for it.
        let kth = *self.mins.last().expect("k >= 2 entries");
        if h < kth && self.mins.insert(h) {
            self.mins.remove(&kth);
        }
    }

    /// Estimated distinct count (exact while fewer than `k` distinct keys
    /// have been seen).
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            return self.mins.len() as f64;
        }
        let kth = *self.mins.iter().next_back().expect("k >= 2 entries");
        let u = (kth as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / u
    }
}

/// One-pass sampler over a routing-key stream: reservoir + distinct
/// sketch + exact row count, finished into [`KeyStats`].
#[derive(Debug, Clone)]
pub struct KeySampler {
    reservoir: Reservoir,
    sketch: DistinctSketch,
    /// Keys the sampled streams carried — every one of them, read or not.
    rows: u64,
}

/// Default distinct-sketch size — enough for a ±10 % estimate, tiny next
/// to any real table.
pub const DEFAULT_SKETCH_K: usize = 256;

/// Keys one [`KeySampler::offer_strided`] pass reads per reservoir slot,
/// at most. A 1 024-key reservoir is as well filled from 16 384 evenly
/// spaced keys as from 900 000, and the pass costs a tree probe and a
/// `mix64` per key read.
pub const STRIDE_READS_PER_SLOT: usize = 16;

impl KeySampler {
    /// A sampler with a `sample_size` reservoir and the default sketch.
    pub fn new(sample_size: usize, seed: u64) -> Self {
        Self {
            reservoir: Reservoir::new(sample_size, seed),
            sketch: DistinctSketch::new(DEFAULT_SKETCH_K),
            rows: 0,
        }
    }

    /// Observe one routing key.
    pub fn offer(&mut self, key: u64) {
        self.rows += 1;
        self.read(key);
    }

    fn read(&mut self, key: u64) {
        self.reservoir.offer(key);
        self.sketch.offer(key);
    }

    /// Observe key streams of `lens` keys through a bounded strided
    /// sample: the streams are read as one concatenation, every
    /// `stride`-th key of it, with the stride the smallest that keeps the
    /// keys read within [`STRIDE_READS_PER_SLOT`] × the reservoir's
    /// capacity — so a pass at or under that bound reads every key, in
    /// order, exactly like [`offer`](Self::offer) per key. `key_at(stream,
    /// row)` is asked only for the keys read, with `row` ascending within
    /// each stream; the row count stays exact (the sum of `lens`).
    pub fn offer_strided(&mut self, lens: &[usize], mut key_at: impl FnMut(usize, usize) -> u64) {
        let total: usize = lens.iter().sum();
        let bound = self.reservoir.capacity.saturating_mul(STRIDE_READS_PER_SLOT);
        let stride = total.div_ceil(bound).max(1);
        // `at`: position of the next key to read, relative to the start
        // of the current stream.
        let mut at = 0;
        for (stream, &len) in lens.iter().enumerate() {
            while at < len {
                self.read(key_at(stream, at));
                at += stride;
            }
            at -= len;
        }
        self.rows += total as u64;
    }

    /// Finish the pass: sorted sample + estimates.
    pub fn finish(self) -> KeyStats {
        let mut sample = self.reservoir.sample;
        sample.sort_unstable();
        let top_key_mass = longest_equal_run(&sample) as f64 / sample.len().max(1) as f64;
        KeyStats {
            rows: self.rows,
            distinct_estimate: self.sketch.estimate().min(self.rows as f64),
            top_key_mass,
            sample,
        }
    }
}

/// What one sampling pass learned about the routing keys.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyStats {
    /// Rows (keys) the stream carried, exactly.
    pub rows: u64,
    /// Estimated distinct routing keys among the keys *read* (KMV; exact
    /// for small domains): the stream's own distinct count when every key
    /// was read, a lower bound on it after a strided pass.
    pub distinct_estimate: f64,
    /// Fraction of the sample occupied by its most frequent key — the
    /// skew signal. `1.0` means every sampled key is equal.
    pub top_key_mass: f64,
    /// The sorted reservoir sample.
    pub sample: Vec<u64>,
}

impl KeyStats {
    /// Do all sampled keys collapse to one value? (No partitioner can
    /// split a single key: key-aligned routing pins it to one shard.)
    pub fn all_keys_equal(&self) -> bool {
        !self.sample.is_empty() && self.sample.first() == self.sample.last()
    }
}

fn longest_equal_run(sorted: &[u64]) -> usize {
    let mut best = 0;
    let mut run = 0;
    let mut prev = None;
    for &k in sorted {
        if Some(k) == prev {
            run += 1;
        } else {
            run = 1;
            prev = Some(k);
        }
        best = best.max(run);
    }
    best
}

/// Fit `shards - 1` range cut points to the sampled quantiles: boundary
/// `i` is the sample's `(i + 1) / shards` quantile, so each span holds
/// roughly the same *sampled mass* (unlike equal key-space spans, which
/// degenerate whenever the keys cluster). Feed the result to
/// [`Sharder::fitted_range`]. The cut points are non-decreasing; a hot
/// key wider than a span repeats its value, leaving some spans empty —
/// which the load evaluation then sees and the planner penalizes.
pub fn fit_boundaries(sorted_sample: &[u64], shards: usize) -> Vec<u64> {
    assert!(shards > 0, "need at least one shard");
    if sorted_sample.is_empty() || shards == 1 {
        return Vec::new();
    }
    let m = sorted_sample.len();
    (1..shards).map(|i| sorted_sample[(i * m / shards).min(m - 1)]).collect()
}

/// The worst shard's share of `keys` under `sharder` — `1.0 / shards` is
/// perfectly balanced, `1.0` is fully serialized. Empty input is balanced
/// by convention.
pub fn max_load_fraction(keys: &[u64], sharder: &Sharder) -> f64 {
    if keys.is_empty() {
        return 1.0 / sharder.shards() as f64;
    }
    let mut counts = vec![0u64; sharder.shards()];
    for &k in keys {
        counts[sharder.shard_of(k)] += 1;
    }
    counts.iter().copied().max().unwrap_or(0) as f64 / keys.len() as f64
}

/// How a run's sharding layout was decided — recorded in
/// `ExecBreakdown` so every measurement says whether a planner or a
/// hand-picked spec chose it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDecision {
    /// A hand-picked `ShardSpec` (or the unsharded path's implicit one).
    Fixed(ShardPartitioner),
    /// Chosen by a sample-driven shard planner.
    Planned(ShardPartitioner),
}

impl PlanDecision {
    /// The routing family the decision landed on.
    pub fn partitioner(&self) -> ShardPartitioner {
        match self {
            PlanDecision::Fixed(p) | PlanDecision::Planned(p) => *p,
        }
    }

    /// Was this layout planner-chosen?
    pub fn is_planned(&self) -> bool {
        matches!(self, PlanDecision::Planned(_))
    }
}

/// One candidate shard count's modelled cost, kept in the report so the
/// chosen point is auditable against its neighbours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardCostPoint {
    /// Candidate worker count.
    pub shards: usize,
    /// Modelled worker (serialize) seconds: the hottest shard's share of
    /// the rows at the CWorker send rate.
    pub worker_seconds: f64,
    /// Modelled master-side seconds: survivor-stream fan-in ingest plus
    /// per-shard merge overhead.
    pub merge_seconds: f64,
}

impl ShardCostPoint {
    /// Modelled completion at this candidate point.
    pub fn total(&self) -> f64 {
        self.worker_seconds + self.merge_seconds
    }
}

/// Why a plan looks the way it does — every number the decision rules
/// read, so tests (and humans) can audit the choice instead of trusting
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Rows of the sampled streams (both streams of a binary query),
    /// exactly — read by the sampler or not.
    pub rows: u64,
    /// Reservoir sample size actually held.
    pub sample_len: usize,
    /// KMV distinct-key estimate over the keys the sampler read
    /// ([`KeyStats::distinct_estimate`]).
    pub distinct_estimate: f64,
    /// Hottest sampled key's share of the sample.
    pub top_key_mass: f64,
    /// Chosen worker count.
    pub shards: usize,
    /// Chosen routing family.
    pub partitioner: ShardPartitioner,
    /// Max shard load fraction of a *hash* sharder on the sample at the
    /// chosen shard count.
    pub hash_sample_load: f64,
    /// Max shard load fraction of the *fitted range* sharder on the same
    /// sample at the chosen shard count.
    pub range_sample_load: f64,
    /// The modelled cost curve over every candidate shard count.
    pub curve: Vec<ShardCostPoint>,
    /// Human-readable explanation of the choice.
    pub reason: String,
}

/// A concrete, executable shard plan: the routing function plus the
/// report explaining it. Emitted by `cheetah_db::planner::ShardPlanner`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The planned `key → shard` routing (hash, or quantile-fitted range).
    pub sharder: Sharder,
    /// Why: every estimate and modelled cost the decision read.
    pub report: PlanReport,
}

impl ShardPlan {
    /// Planned worker count.
    pub fn shards(&self) -> usize {
        self.sharder.shards()
    }

    /// Planned routing family.
    pub fn partitioner(&self) -> ShardPartitioner {
        self.report.partitioner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_below_capacity() {
        let mut r = Reservoir::new(64, 9);
        for k in 0..40u64 {
            r.offer(k);
        }
        assert_eq!(r.seen(), 40);
        assert_eq!(r.sample().len(), 40);
        let mut s = r.sample().to_vec();
        s.sort_unstable();
        assert_eq!(s, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_is_deterministic_and_capped() {
        let run = |seed| {
            let mut r = Reservoir::new(32, seed);
            for k in 0..10_000u64 {
                r.offer(k);
            }
            r.sample().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "seed must matter");
        assert_eq!(run(7).len(), 32);
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        // Offer 0..10_000 into a 500-slot reservoir many times; the mean
        // of the sampled keys should approach the stream mean.
        let mut total = 0f64;
        let mut n = 0f64;
        for seed in 0..20u64 {
            let mut r = Reservoir::new(500, seed);
            for k in 0..10_000u64 {
                r.offer(k);
            }
            total += r.sample().iter().map(|&k| k as f64).sum::<f64>();
            n += r.sample().len() as f64;
        }
        let mean = total / n;
        assert!((mean - 5_000.0).abs() < 400.0, "sample mean {mean}");
    }

    #[test]
    fn kmv_is_exact_for_small_domains() {
        let mut s = DistinctSketch::new(64);
        for k in 0..50u64 {
            s.offer(k % 10);
        }
        assert_eq!(s.estimate(), 10.0);
    }

    #[test]
    fn kmv_estimates_large_domains_within_tolerance() {
        let mut s = DistinctSketch::new(256);
        for k in 0..100_000u64 {
            s.offer(k);
        }
        let est = s.estimate();
        assert!((est - 100_000.0).abs() / 100_000.0 < 0.25, "estimate {est}");
    }

    #[test]
    fn sampler_reads_skew_and_distincts() {
        let mut s = KeySampler::new(512, 3);
        // 60% one hot key, 40% spread over 1000 keys.
        for i in 0..10_000u64 {
            s.offer(if i % 5 < 3 { 42 } else { mix64(i) });
        }
        let stats = s.finish();
        assert_eq!(stats.rows, 10_000);
        assert!(stats.top_key_mass > 0.45 && stats.top_key_mass < 0.75, "{}", stats.top_key_mass);
        assert!(stats.distinct_estimate > 1_000.0, "{}", stats.distinct_estimate);
        assert!(!stats.all_keys_equal());
    }

    #[test]
    fn sampler_and_sketch_answer_exactly_as_before_the_fast_reject() {
        // 100 000 keys over a 50 000-key domain: the values the sketch
        // (insert-then-evict per key) and the sampler (cloned reservoir)
        // produced before `offer` learnt to reject without touching the
        // tree and `finish` to take the reservoir — bit for bit.
        let keys = || (0..100_000u64).map(|i| mix64(i) % 50_000);
        let mut sketch = DistinctSketch::new(DEFAULT_SKETCH_K);
        let mut sampler = KeySampler::new(1024, 7);
        for k in keys() {
            sketch.offer(k);
            sampler.offer(k);
        }
        assert_eq!(sketch.estimate().to_bits(), 0x40e4_8563_9a88_aa14, "{}", sketch.estimate());
        let stats = sampler.finish();
        assert_eq!(stats.rows, 100_000);
        assert_eq!(stats.distinct_estimate.to_bits(), 0x40e4_8563_9a88_aa14);
        assert_eq!(stats.top_key_mass.to_bits(), 0x3f60_0000_0000_0000);
        assert_eq!(stats.sample.len(), 1024);
        assert_eq!((stats.sample[0], stats.sample[512], stats.sample[1023]), (51, 25_565, 49_991));
        let checksum = stats.sample.iter().fold(0u64, |acc, &k| mix64(acc ^ k));
        assert_eq!(checksum, 0x2718_b1a2_dcdf_ac67);
    }

    #[test]
    fn a_strided_pass_at_or_under_the_bound_is_the_per_key_pass() {
        let streams: [Vec<u64>; 2] =
            [(0..5_000u64).map(mix64).collect(), (0..3_192u64).map(|i| i % 97).collect()];
        let lens = [streams[0].len(), streams[1].len()];
        let mut per_key = KeySampler::new(512, 9);
        streams.iter().flatten().for_each(|&k| per_key.offer(k));
        let mut strided = KeySampler::new(512, 9);
        strided.offer_strided(&lens, |s, r| streams[s][r]);
        assert_eq!(lens.iter().sum::<usize>(), 512 * STRIDE_READS_PER_SLOT, "exactly at the bound");
        assert_eq!(strided.finish(), per_key.finish());
    }

    #[test]
    fn a_strided_pass_over_the_bound_reads_evenly_and_counts_every_row() {
        // 100 000 + 60 001 keys into a 64-slot reservoir: bound 1 024,
        // stride 157, read as one concatenation.
        let lens = [100_000usize, 60_001];
        let mut read: Vec<(usize, usize)> = Vec::new();
        let mut s = KeySampler::new(64, 3);
        s.offer_strided(&lens, |stream, row| {
            read.push((stream, row));
            (stream * lens[0] + row) as u64
        });
        let stride = 160_001usize.div_ceil(64 * STRIDE_READS_PER_SLOT);
        assert_eq!(read.len(), 160_001usize.div_ceil(stride));
        assert!(read.len() <= 64 * STRIDE_READS_PER_SLOT);
        let positions: Vec<usize> = read.iter().map(|&(s, r)| s * lens[0] + r).collect();
        assert!(positions.iter().enumerate().all(|(i, &p)| p == i * stride), "evenly spaced");
        assert!(read.iter().any(|&(s, _)| s == 1), "the second stream is sampled too");
        let stats = s.finish();
        assert_eq!(stats.rows, 160_001, "rows are the streams', not the keys read");
        assert_eq!(stats.sample.len(), 64);
        // Every key read was distinct, and only those are counted.
        assert!((stats.distinct_estimate - read.len() as f64).abs() / (read.len() as f64) < 0.25);
        // No streams, or empty ones, read nothing.
        let mut none = KeySampler::new(64, 3);
        none.offer_strided(&[0, 0], |_, _| unreachable!("nothing to read"));
        assert_eq!(none.finish().rows, 0);
    }

    #[test]
    fn all_equal_keys_are_detected() {
        let mut s = KeySampler::new(64, 1);
        for _ in 0..500 {
            s.offer(77);
        }
        let stats = s.finish();
        assert!(stats.all_keys_equal());
        assert_eq!(stats.top_key_mass, 1.0);
        assert_eq!(stats.distinct_estimate, 1.0);
    }

    #[test]
    fn fitted_boundaries_balance_a_clustered_sample() {
        // Keys clustered in [1000, 1100): equal key-space spans would
        // serialize them; quantile cuts split them evenly.
        let sample: Vec<u64> = (0..400u64).map(|i| 1_000 + i % 100).collect();
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let bounds = fit_boundaries(&sorted, 4);
        assert_eq!(bounds.len(), 3);
        let sharder = Sharder::fitted_range(bounds).unwrap();
        let load = max_load_fraction(&sample, &sharder);
        assert!(load < 0.35, "fitted load {load}");
        // The naive equal-span sharder over the full space piles
        // everything onto one shard.
        let naive = Sharder::new(ShardPartitioner::Range, 4, 0);
        assert_eq!(max_load_fraction(&sample, &naive), 1.0);
    }

    #[test]
    fn fitted_boundaries_degenerate_cases() {
        assert!(fit_boundaries(&[], 4).is_empty());
        assert!(fit_boundaries(&[1, 2, 3], 1).is_empty());
        // All-equal sample: every cut lands on the same value.
        let bounds = fit_boundaries(&[5, 5, 5, 5], 3);
        assert_eq!(bounds, vec![5, 5]);
    }

    #[test]
    fn max_load_fraction_reads_the_worst_shard() {
        let sharder = Sharder::new(ShardPartitioner::Hash, 4, 9);
        let one_key = vec![123u64; 100];
        assert_eq!(max_load_fraction(&one_key, &sharder), 1.0);
        let spread: Vec<u64> = (0..10_000).collect();
        let load = max_load_fraction(&spread, &sharder);
        assert!(load < 0.30, "hash load {load}");
        assert_eq!(max_load_fraction(&[], &sharder), 0.25);
    }

    #[test]
    fn plan_decision_accessors() {
        let d = PlanDecision::Planned(ShardPartitioner::Range);
        assert!(d.is_planned());
        assert_eq!(d.partitioner(), ShardPartitioner::Range);
        assert!(!PlanDecision::Fixed(ShardPartitioner::Hash).is_planned());
    }

    #[test]
    fn cost_point_totals() {
        let p = ShardCostPoint { shards: 4, worker_seconds: 1.0, merge_seconds: 0.5 };
        assert_eq!(p.total(), 1.5);
    }
}
