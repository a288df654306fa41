//! Shard partitioners: deterministic `key → shard` routing.
//!
//! Cheetah's deployment model is sharded (§2): data is partitioned across
//! workers, each worker prunes locally at its switch, and the master
//! completes the query from the pruned union. The *routing function* that
//! assigns a row to a shard is what decides which merge semantics are
//! available at the master:
//!
//! * any deterministic routing preserves the pruning contract for
//!   re-prunable queries (TOP N, SKYLINE, DISTINCT, filtering) — the
//!   master simply re-prunes the union of shard results;
//! * key-aligned routing (every occurrence of a key lands on one shard)
//!   additionally makes keyed aggregates (GROUP BY, HAVING) and
//!   co-partitioned JOINs mergeable by key-union / pair-count sum.
//!
//! Both [`Sharder`] kinds are key-aligned: the same 64-bit routing key
//! always maps to the same shard. What differs is the *shape* of the
//! assignment — [`ShardPartitioner::Hash`] scatters keys uniformly (good
//! load balance, no locality) while [`ShardPartitioner::Range`] splits the
//! key space into contiguous spans (locality and range-friendliness, but
//! skewed inputs produce skewed shards — which is exactly what the zipf
//! workload generators exercise).

use cheetah_switch::hash::mix64;

/// The shard routing family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Uniform scatter: `shard = mix64(key ⊕ seed) mod n`.
    Hash,
    /// Contiguous equal spans of the key domain `[lo, hi]` (the full
    /// `u64` space by default; fit the observed bounds with
    /// [`Sharder::range_over`] — routing keys rarely fill the space, e.g.
    /// string fingerprints occupy only the lower 2⁶³).
    Range,
}

impl ShardPartitioner {
    /// Short name for reports and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            ShardPartitioner::Hash => "hash",
            ShardPartitioner::Range => "range",
        }
    }
}

/// A concrete `key → shard` function: partitioner kind + shard count +
/// hash seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sharder {
    kind: ShardPartitioner,
    shards: usize,
    seed: u64,
    /// Range mode only: the key domain the spans divide.
    lo: u64,
    hi: u64,
    /// Fitted range mode only: ascending cut points — `boundaries[i]` is
    /// the first key owned by shard `i + 1`. Empty means equal spans of
    /// `[lo, hi]`.
    boundaries: Vec<u64>,
}

impl Sharder {
    /// Build a sharder over `shards` shards. Range mode divides the full
    /// `u64` key space; prefer [`Sharder::range_over`] when the routing
    /// keys' bounds are known.
    pub fn new(kind: ShardPartitioner, shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self { kind, shards, seed, lo: 0, hi: u64::MAX, boundaries: Vec::new() }
    }

    /// A range sharder whose `shards` equal spans divide `[lo, hi]`
    /// instead of the whole `u64` space — so observed-key domains (a
    /// table's order column, string-fingerprint space) split into
    /// *populated* spans rather than leaving most shards empty. Keys
    /// outside the domain clamp to its edge shards.
    pub fn range_over(lo: u64, hi: u64, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(lo <= hi, "empty key domain");
        Self { kind: ShardPartitioner::Range, shards, seed: 0, lo, hi, boundaries: Vec::new() }
    }

    /// A range sharder with *fitted* (data-driven) cut points instead of
    /// equal spans: `boundaries[i]` is the first key owned by shard
    /// `i + 1`, so `boundaries.len() + 1` shards cover the whole key
    /// space. The planner fits these to the sampled quantiles
    /// ([`fit_boundaries`](crate::plan::fit_boundaries)) so each span
    /// holds roughly equal *observed mass* — the adaptive answer to
    /// clustered or skewed key domains. Cut points must be
    /// non-decreasing; duplicates simply leave spans empty.
    ///
    /// Non-monotonic cut points (a buggy re-fit) are rejected with a
    /// typed [`Error::UnsortedShardBoundaries`](crate::Error) — the
    /// routing lookup assumes sorted boundaries and would otherwise
    /// silently send keys to the wrong span.
    pub fn fitted_range(boundaries: Vec<u64>) -> crate::Result<Self> {
        if let Some(i) = boundaries.windows(2).position(|w| w[0] > w[1]) {
            return Err(crate::Error::UnsortedShardBoundaries { index: i + 1 });
        }
        Ok(Self {
            kind: ShardPartitioner::Range,
            shards: boundaries.len() + 1,
            seed: 0,
            lo: 0,
            hi: u64::MAX,
            boundaries,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The partitioner family.
    pub fn kind(&self) -> ShardPartitioner {
        self.kind
    }

    /// The shard owning `key`. Total and deterministic: every `u64` maps
    /// to exactly one shard in `0..shards`.
    pub fn shard_of(&self, key: u64) -> usize {
        match self.kind {
            ShardPartitioner::Hash => (mix64(key ^ self.seed) % self.shards as u64) as usize,
            ShardPartitioner::Range if !self.boundaries.is_empty() => {
                // Fitted cut points: the shard owning `key` is the number
                // of boundaries at or below it.
                self.boundaries.partition_point(|&b| b <= key)
            }
            ShardPartitioner::Range => {
                let key = key.clamp(self.lo, self.hi);
                // 128-bit arithmetic: the span can be the full 2⁶⁴ and the
                // numerator overflows u64 for large keys.
                let span = (self.hi - self.lo) as u128 + 1;
                ((key - self.lo) as u128 * self.shards as u128 / span) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_lands_in_range() {
        for kind in [ShardPartitioner::Hash, ShardPartitioner::Range] {
            for shards in [1usize, 2, 3, 7, 16] {
                let s = Sharder::new(kind, shards, 0xC0FFEE);
                for key in [0u64, 1, 42, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                    assert!(s.shard_of(key) < shards, "{kind:?} n={shards} key={key}");
                }
            }
        }
    }

    #[test]
    fn routing_is_deterministic_and_key_aligned() {
        let s = Sharder::new(ShardPartitioner::Hash, 7, 9);
        for key in 0..1_000u64 {
            assert_eq!(s.shard_of(key), s.shard_of(key));
        }
    }

    #[test]
    fn hash_balances_uniform_keys() {
        let n = 8usize;
        let s = Sharder::new(ShardPartitioner::Hash, n, 0xAB);
        let mut counts = vec![0u64; n];
        for key in 0..80_000u64 {
            counts[s.shard_of(key)] += 1;
        }
        for &c in &counts {
            let f = c as f64 / 80_000.0;
            assert!((f - 1.0 / n as f64).abs() < 0.02, "shard share {f}");
        }
    }

    #[test]
    fn range_spans_are_contiguous_and_ordered() {
        let s = Sharder::new(ShardPartitioner::Range, 4, 0);
        assert_eq!(s.shard_of(0), 0);
        assert_eq!(s.shard_of(u64::MAX), 3);
        let mut last = 0usize;
        for i in 0..64 {
            let key = (u64::MAX / 64) * i;
            let shard = s.shard_of(key);
            assert!(shard >= last, "range shards must be monotone in the key");
            last = shard;
        }
    }

    #[test]
    fn range_over_balances_a_narrow_key_domain() {
        // The whole point of fitted bounds: keys in [1000, 1999] split
        // evenly over 4 shards instead of all landing in span 0.
        let s = Sharder::range_over(1_000, 1_999, 4);
        let mut counts = vec![0usize; 4];
        for key in 1_000u64..2_000 {
            counts[s.shard_of(key)] += 1;
        }
        assert_eq!(counts, vec![250, 250, 250, 250]);
        // Out-of-domain keys clamp to the edge shards.
        assert_eq!(s.shard_of(0), 0);
        assert_eq!(s.shard_of(u64::MAX), 3);
    }

    #[test]
    fn range_over_degenerate_single_key_domain() {
        let s = Sharder::range_over(42, 42, 5);
        assert_eq!(s.shard_of(42), 0);
        assert_eq!(s.shard_of(41), 0);
        assert_eq!(s.shard_of(u64::MAX), 0);
    }

    #[test]
    fn fitted_range_routes_by_cut_points() {
        // Cut points 10, 20, 20, 30 → 5 shards; the duplicated boundary
        // leaves shard 2 empty (no key satisfies 20 <= k < 20).
        let s = Sharder::fitted_range(vec![10, 20, 20, 30]).unwrap();
        assert_eq!(s.shards(), 5);
        assert_eq!(s.kind(), ShardPartitioner::Range);
        assert_eq!(s.shard_of(0), 0);
        assert_eq!(s.shard_of(9), 0);
        assert_eq!(s.shard_of(10), 1);
        assert_eq!(s.shard_of(19), 1);
        assert_eq!(s.shard_of(20), 3);
        assert_eq!(s.shard_of(29), 3);
        assert_eq!(s.shard_of(30), 4);
        assert_eq!(s.shard_of(u64::MAX), 4);
        // Monotone in the key, like every range sharder.
        let mut last = 0;
        for k in 0..64u64 {
            let sh = s.shard_of(k);
            assert!(sh >= last);
            last = sh;
        }
    }

    #[test]
    fn fitted_range_with_no_boundaries_is_one_shard() {
        let s = Sharder::fitted_range(Vec::new()).unwrap();
        assert_eq!(s.shards(), 1);
        assert_eq!(s.shard_of(u64::MAX), 0);
    }

    #[test]
    fn fitted_range_rejects_descending_boundaries_with_a_typed_error() {
        // A buggy re-fit must surface as an error, never degrade routing.
        let err = Sharder::fitted_range(vec![10, 5]).unwrap_err();
        assert_eq!(err, crate::Error::UnsortedShardBoundaries { index: 1 });
        let err = Sharder::fitted_range(vec![1, 2, 9, 3, 4]).unwrap_err();
        assert_eq!(err, crate::Error::UnsortedShardBoundaries { index: 3 });
        // Duplicates are fine (they only leave spans empty).
        assert!(Sharder::fitted_range(vec![5, 5, 7]).is_ok());
    }

    #[test]
    fn different_seeds_scatter_differently() {
        let a = Sharder::new(ShardPartitioner::Hash, 16, 1);
        let b = Sharder::new(ShardPartitioner::Hash, 16, 2);
        let diverged = (0..256u64).filter(|&k| a.shard_of(k) != b.shard_of(k)).count();
        assert!(diverged > 64, "seeds must matter: {diverged}/256 diverged");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Sharder::new(ShardPartitioner::Hash, 0, 0);
    }
}
