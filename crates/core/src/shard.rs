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
//! A [`Sharder`] is one of two routing functions, both key-aligned: the
//! same 64-bit routing key always maps to the same shard. A seeded hash
//! ([`Sharder::hash`]) scatters keys uniformly (no locality); ascending
//! cut points ([`Sharder::fitted_range`]) keep contiguous key spans, cut
//! at the quantiles of the keys they were fitted to
//! ([`fit_boundaries`](crate::plan::fit_boundaries)), so each span holds
//! about the same mass whatever the key domain.

use cheetah_switch::hash::mix64;

/// The shard routing family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Uniform scatter: `shard = mix64(key ⊕ seed) mod n`.
    Hash,
    /// Contiguous key spans cut at the quantiles of the observed routing
    /// keys ([`Sharder::fitted_range`]): each span holds about the same
    /// number of keys, and a key's copies stay on one shard.
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

/// A concrete `key → shard` function: a seeded hash over a shard count,
/// or ascending cut points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sharder(Routing);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Routing {
    /// `mix64(key ⊕ seed) mod shards`.
    Hash { shards: usize, seed: u64 },
    /// `cuts[i]` is the first key owned by shard `i + 1`.
    Cuts(Vec<u64>),
}

impl Sharder {
    /// A hash sharder scattering keys over `shards` shards by `seed`.
    pub fn hash(shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self(Routing::Hash { shards, seed })
    }

    /// A range sharder with *fitted* (data-driven) cut points:
    /// `boundaries[i]` is the first key owned by shard `i + 1`, so
    /// `boundaries.len() + 1` shards cover the whole key space. Fit them
    /// to the keys' quantiles with
    /// [`fit_boundaries`](crate::plan::fit_boundaries), so each span holds
    /// roughly equal *observed mass*. Cut points must be non-decreasing;
    /// duplicates simply leave spans empty.
    ///
    /// Non-monotonic cut points (a buggy re-fit) are rejected with a
    /// typed [`Error::UnsortedShardBoundaries`](crate::Error) — the
    /// routing lookup assumes sorted boundaries and would otherwise
    /// silently send keys to the wrong span.
    pub fn fitted_range(boundaries: Vec<u64>) -> crate::Result<Self> {
        if let Some(i) = boundaries.windows(2).position(|w| w[0] > w[1]) {
            return Err(crate::Error::UnsortedShardBoundaries { index: i + 1 });
        }
        Ok(Self(Routing::Cuts(boundaries)))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        match &self.0 {
            Routing::Hash { shards, .. } => *shards,
            Routing::Cuts(cuts) => cuts.len() + 1,
        }
    }

    /// The partitioner family.
    pub fn kind(&self) -> ShardPartitioner {
        match self.0 {
            Routing::Hash { .. } => ShardPartitioner::Hash,
            Routing::Cuts(_) => ShardPartitioner::Range,
        }
    }

    /// The shard owning `key`. Total and deterministic: every `u64` maps
    /// to exactly one shard in `0..shards`.
    pub fn shard_of(&self, key: u64) -> usize {
        match &self.0 {
            Routing::Hash { shards, seed } => (mix64(key ^ seed) % *shards as u64) as usize,
            // The number of cut points at or below the key.
            Routing::Cuts(cuts) => cuts.partition_point(|&b| b <= key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_lands_in_range() {
        for shards in [1usize, 2, 3, 7, 16] {
            let cuts = (1..shards as u64).map(|i| i * (u64::MAX / shards as u64)).collect();
            for s in [Sharder::hash(shards, 0xC0FFEE), Sharder::fitted_range(cuts).unwrap()] {
                assert_eq!(s.shards(), shards);
                for key in [0u64, 1, 42, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                    assert!(s.shard_of(key) < shards, "{s:?} key={key}");
                }
            }
        }
    }

    #[test]
    fn routing_is_deterministic_and_key_aligned() {
        let s = Sharder::hash(7, 9);
        assert_eq!(s.kind(), ShardPartitioner::Hash);
        for key in 0..1_000u64 {
            assert_eq!(s.shard_of(key), s.shard_of(key));
        }
    }

    #[test]
    fn hash_balances_uniform_keys() {
        let n = 8usize;
        let s = Sharder::hash(n, 0xAB);
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
        let a = Sharder::hash(16, 1);
        let b = Sharder::hash(16, 2);
        let diverged = (0..256u64).filter(|&k| a.shard_of(k) != b.shard_of(k)).count();
        assert!(diverged > 64, "seeds must matter: {diverged}/256 diverged");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Sharder::hash(0, 0);
    }
}
