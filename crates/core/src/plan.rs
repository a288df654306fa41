//! Sample-driven shard planning: the sampler behind the adaptive shard
//! planner.
//!
//! Cheetah's pruning win is bounded by the *slowest* shard: a shard that
//! holds more of the keys than the others serializes the whole run, and a
//! fixed shard count either wastes workers on small inputs or starves
//! large ones. Cuttlefish-style lightweight runtime sampling is enough to
//! pick the shard count adaptively — this module holds the sampling
//! machinery, deliberately free of any cost model (the planner that
//! prices a shard count lives in `cheetah-db::planner`):
//!
//! * [`Reservoir`] — seeded Algorithm-R reservoir sampling over a routing
//!   key stream (uniform without knowing the stream length up front);
//! * [`KeySampler`] / [`KeyStats`] — one pass over the routing keys
//!   producing the exact row count and the sorted sample. Long streams
//!   are read through a bounded stride ([`KeySampler::offer_strided`]);
//! * [`fit_boundaries`] — range cut points at the sampled quantiles,
//!   consumed by [`Sharder::fitted_range`]: the one range construction,
//!   for fitted plans and hand-picked range specs alike;
//! * [`max_load_fraction`] — a sharder's worst shard load on the sample
//!   (the hottest shard's share the planner's shard-count walk prices);
//! * [`ShardPlan`] / [`PlanReport`] — the concrete plan a planner emits,
//!   with an explicit record of *why*.
//!
//! Everything is deterministic in the seed: the same keys and the same
//! seed always produce the same sample, and therefore the same plan — the
//! determinism the planner regression tests pin down.

use crate::shard::{ShardPartitioner, Sharder};
use cheetah_switch::hash::mix64;

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

/// One-pass sampler over a routing-key stream: reservoir + exact row
/// count, finished into [`KeyStats`].
#[derive(Debug, Clone)]
pub struct KeySampler {
    reservoir: Reservoir,
    /// Keys the sampled streams carried — every one of them, read or not.
    rows: u64,
}

/// Keys one [`KeySampler::offer_strided`] pass reads per reservoir slot,
/// at most. A 1 024-key reservoir is as well filled from 16 384 evenly
/// spaced keys as from 900 000, and the pass costs a key extraction and a
/// reservoir offer per key read.
pub const STRIDE_READS_PER_SLOT: usize = 16;

impl KeySampler {
    /// A sampler with a `sample_size` reservoir.
    pub fn new(sample_size: usize, seed: u64) -> Self {
        Self { reservoir: Reservoir::new(sample_size, seed), rows: 0 }
    }

    /// Observe one routing key.
    pub fn offer(&mut self, key: u64) {
        self.rows += 1;
        self.reservoir.offer(key);
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
                self.reservoir.offer(key_at(stream, at));
                at += stride;
            }
            at -= len;
        }
        self.rows += total as u64;
    }

    /// Finish the pass: the row count and the sorted sample.
    pub fn finish(self) -> KeyStats {
        let mut sample = self.reservoir.sample;
        sample.sort_unstable();
        KeyStats { rows: self.rows, sample }
    }
}

/// What one sampling pass learned about the routing keys.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyStats {
    /// Rows (keys) the stream carried, exactly.
    pub rows: u64,
    /// The sorted reservoir sample.
    pub sample: Vec<u64>,
}

/// Fit `shards - 1` range cut points to the sampled quantiles: boundary
/// `i` is the sample's `(i + 1) / shards` quantile, so each span holds
/// roughly the same *sampled mass* whatever the key domain. Feed the
/// result to [`Sharder::fitted_range`]. The cut points are
/// non-decreasing; a hot key wider than a span repeats its value, leaving
/// some spans empty. An empty sample gets `shards - 1` equal cuts.
///
/// Of `m` sampled keys with at most `c` copies of one, a span holds at
/// most `⌈m/n⌉ + c − 1` (its share of the indices, plus the earlier
/// copies of its lower cut's key), while a hash sharder's busiest shard
/// holds at least `⌈m/n⌉` (pigeonhole) and at least `c` (a key's copies
/// land together). So the cuts never load the busiest shard twice as
/// much as hash on the same sample: a fitted plan is always cut points.
pub fn fit_boundaries(sorted_sample: &[u64], shards: usize) -> Vec<u64> {
    assert!(shards > 0, "need at least one shard");
    let m = sorted_sample.len();
    (1..shards).map(|i| sorted_sample.get(i * m / shards).copied().unwrap_or(0)).collect()
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

/// One candidate shard count's modelled cost, kept in the report so the
/// chosen point is auditable against its neighbours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardCostPoint {
    /// Candidate worker count.
    pub shards: usize,
    /// Modelled worker (serialize) seconds: the hottest shard's share of
    /// the rows at the CWorker send rate.
    pub worker_seconds: f64,
    /// Modelled master-side seconds: a fixed overhead per shard (planning
    /// one switch program, merging one more output).
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
    /// Chosen worker count.
    pub shards: usize,
    /// Max shard load fraction of the plan's cut points on the sample.
    pub sample_load: f64,
    /// The modelled cost curve over every candidate shard count.
    pub curve: Vec<ShardCostPoint>,
    /// Human-readable explanation of the choice.
    pub reason: String,
}

/// A concrete, executable shard plan: the routing function plus the
/// report explaining it. Emitted by `cheetah_db::planner::ShardPlanner`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The planned `key → shard` routing: cut points at the sampled
    /// quantiles.
    pub sharder: Sharder,
    /// Why: the sampled load and every modelled cost the decision read.
    pub report: PlanReport,
}

impl ShardPlan {
    /// Planned worker count.
    pub fn shards(&self) -> usize {
        self.sharder.shards()
    }

    /// Planned routing family.
    pub fn partitioner(&self) -> ShardPartitioner {
        self.sharder.kind()
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
    fn sampler_counts_every_row_and_samples_the_skew() {
        let mut s = KeySampler::new(512, 3);
        // 60% one hot key, 40% spread over 1000 keys.
        for i in 0..10_000u64 {
            s.offer(if i % 5 < 3 { 42 } else { mix64(i) });
        }
        let stats = s.finish();
        assert_eq!(stats.rows, 10_000);
        let hot = stats.sample.iter().filter(|&&k| k == 42).count() as f64 / 512.0;
        assert!(hot > 0.45 && hot < 0.75, "{hot}");
    }

    #[test]
    fn the_sample_is_pinned_bit_for_bit() {
        // 100 000 keys over a 50 000-key domain: a change to the sampler
        // that moves one sampled key can move a plan, so the sample is
        // pinned bit for bit.
        let mut sampler = KeySampler::new(1024, 7);
        for i in 0..100_000u64 {
            sampler.offer(mix64(i) % 50_000);
        }
        let stats = sampler.finish();
        assert_eq!(stats.rows, 100_000);
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
        // No streams, or empty ones, read nothing.
        let mut none = KeySampler::new(64, 3);
        none.offer_strided(&[0, 0], |_, _| unreachable!("nothing to read"));
        assert_eq!(none.finish().rows, 0);
    }

    #[test]
    fn fitted_boundaries_balance_a_clustered_sample() {
        // Keys clustered in [1000, 1100): quantile cuts split them evenly.
        let sample: Vec<u64> = (0..400u64).map(|i| 1_000 + i % 100).collect();
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let bounds = fit_boundaries(&sorted, 4);
        assert_eq!(bounds.len(), 3);
        let sharder = Sharder::fitted_range(bounds).unwrap();
        let load = max_load_fraction(&sample, &sharder);
        assert!(load < 0.35, "fitted load {load}");
    }

    #[test]
    fn fitted_boundaries_degenerate_cases() {
        assert_eq!(fit_boundaries(&[], 4), vec![0, 0, 0], "equal cuts keep the count");
        assert!(fit_boundaries(&[1, 2, 3], 1).is_empty());
        // All-equal sample: every cut lands on the same value.
        let bounds = fit_boundaries(&[5, 5, 5, 5], 3);
        assert_eq!(bounds, vec![5, 5]);
    }

    #[test]
    fn quantile_cuts_load_the_busiest_shard_less_than_twice_hash() {
        // Duplicate-heavy samples of `m` keys: the first `hot` tenths
        // share one key, the rest come from `cold` distinct keys.
        for m in [1usize, 5, 64, 333, 1024] {
            for hot in [0, 1, 3, 5, 9, 10] {
                for cold in [1u64, 3, 50, 10_000] {
                    let mut sample: Vec<u64> = (0..m)
                        .map(|i| if i * 10 < m * hot { 7 } else { mix64(i as u64) % cold })
                        .collect();
                    sample.sort_unstable();
                    let c = sample.chunk_by(|a, b| a == b).map(<[u64]>::len).max().unwrap();
                    let busiest =
                        |s: &Sharder| (max_load_fraction(&sample, s) * m as f64).round() as usize;
                    for n in 1..=16 {
                        let cuts = Sharder::fitted_range(fit_boundaries(&sample, n)).unwrap();
                        assert_eq!(cuts.shards(), n);
                        let (range, hash) = (busiest(&cuts), busiest(&Sharder::hash(n, 0xC43E7A)));
                        let label = format!("m={m} hot={hot}/10 cold={cold} n={n} c={c}");
                        assert!(
                            range < m.div_ceil(n) + c,
                            "{label}: range {range} > ⌈m/n⌉ + c − 1"
                        );
                        assert!(range < 2 * hash, "{label}: range {range} vs hash {hash}");
                    }
                }
            }
        }
    }

    #[test]
    fn max_load_fraction_reads_the_worst_shard() {
        let sharder = Sharder::hash(4, 9);
        let one_key = vec![123u64; 100];
        assert_eq!(max_load_fraction(&one_key, &sharder), 1.0);
        let spread: Vec<u64> = (0..10_000).collect();
        let load = max_load_fraction(&spread, &sharder);
        assert!(load < 0.30, "hash load {load}");
        assert_eq!(max_load_fraction(&[], &sharder), 0.25);
    }

    #[test]
    fn cost_point_totals() {
        let p = ShardCostPoint { shards: 4, worker_seconds: 1.0, merge_seconds: 0.5 };
        assert_eq!(p.total(), 1.5);
    }
}
