//! Shard routing: the one deterministic `key → shard` function.
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
//! A [`Sharder`] is a seeded hash over a shard count ([`Sharder::hash`]):
//! key-aligned, since the same 64-bit routing key always maps to the same
//! shard, and fitted to nothing, so a layout is its shard count and no
//! key is read before routing starts.

use cheetah_switch::hash::mix64;

/// The shard routing family, kept only for the frozen ledger, which names
/// `ShardPartitioner::Hash`: the seeded hash is the one routing function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Uniform scatter: `shard = mix64(key ⊕ seed) mod n`.
    Hash,
}

/// The `key → shard` function: `mix64(key ⊕ seed) mod shards`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sharder {
    shards: usize,
    seed: u64,
}

impl Sharder {
    /// A hash sharder scattering keys over `shards` shards by `seed`.
    pub fn hash(shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self { shards, seed }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`. Total and deterministic: every `u64` maps
    /// to exactly one shard in `0..shards`.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(key ^ self.seed) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_lands_in_range() {
        for shards in [1usize, 2, 3, 7, 16] {
            let s = Sharder::hash(shards, 0xC0FFEE);
            assert_eq!(s.shards(), shards);
            for key in [0u64, 1, 42, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                assert!(s.shard_of(key) < shards, "{s:?} key={key}");
            }
        }
    }

    #[test]
    fn routing_is_deterministic_and_key_aligned() {
        let s = Sharder::hash(7, 9);
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
