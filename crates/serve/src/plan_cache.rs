//! The session's plan memo: repeat query shapes skip the planner.
//!
//! A serving workload is repetitive — the same few query shapes arrive
//! thousands of times over tables whose statistics drift slowly. Running
//! [`ShardPlanner`](cheetah_db::ShardPlanner)'s sample/estimate/cost
//! sweep per request would dominate small queries, so the session caches
//! plans keyed on *(query shape, table-stats fingerprint)*:
//!
//! * **shape** — the query's structural identity (variant plus its
//!   parameters plus the table names), so `Distinct{col: 0}` over
//!   `products` never collides with the same query over `ratings`;
//! * **stats fingerprint** — row counts quantized into logarithmic
//!   buckets of width `ln(1 + tolerance)`. Two inputs land in one
//!   bucket only if their row counts agree within the tolerance
//!   factor, which makes "never reuse a plan after the stats moved
//!   beyond tolerance" a property of the key itself rather than a
//!   check that can be forgotten.
//!
//! Reusing a plan is *correctness-free*: a [`ShardPlan`] is only a
//! routing function, and every total routing preserves the merge
//! semantics (`Q(merge(shards(D))) = Q(D)`). Staleness costs balance,
//! not answers — which is why a row-count tolerance is an acceptable
//! invalidation signal.

use cheetah_core::plan::ShardPlan;
use cheetah_db::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// The table statistics a cached plan was fitted against. Tables are
/// immutable, so "stats change" means the caller swapped in a rebuilt
/// table; row counts are the signal the planner's cost model actually
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsFingerprint {
    /// Left-stream row count.
    pub left_rows: u64,
    /// Right-stream row count (0 for unary queries).
    pub right_rows: u64,
}

impl StatsFingerprint {
    /// Fingerprint the inputs of a request.
    pub fn of(left: &Table, right: Option<&Table>) -> Self {
        Self { left_rows: left.rows() as u64, right_rows: right.map_or(0, |r| r.rows() as u64) }
    }
}

/// A cache hit: the plan plus the generation stamp layout caches use to
/// notice that the plan under a shape has since been replaced.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The memoized plan (shared, never copied per request).
    pub plan: Arc<ShardPlan>,
    /// Monotone insertion stamp of this entry.
    pub generation: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    shape: String,
    bucket: (i64, i64),
}

#[derive(Debug)]
struct Entry {
    plan: Arc<ShardPlan>,
    stats: StatsFingerprint,
    generation: u64,
}

/// A bounded LRU of fitted shard plans, keyed on
/// *(query shape, quantized stats fingerprint)*.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    tolerance: f64,
    map: HashMap<CacheKey, Entry>,
    /// LRU order: front is coldest, back is hottest.
    order: Vec<CacheKey>,
    hits: u64,
    misses: u64,
    generation: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans, invalidating on
    /// row-count drift beyond `tolerance` (e.g. `0.35` = reuse while
    /// counts agree within 35%).
    pub fn new(capacity: usize, tolerance: f64) -> Self {
        Self {
            capacity: capacity.max(1),
            tolerance: tolerance.max(1e-6),
            map: HashMap::new(),
            order: Vec::new(),
            hits: 0,
            misses: 0,
            generation: 0,
        }
    }

    fn key(&self, shape: &str, stats: StatsFingerprint) -> CacheKey {
        // Log-quantized row counts: one bucket spans at most a factor of
        // (1 + tolerance), so counts differing beyond the tolerance are
        // *guaranteed* to key differently.
        let w = (1.0 + self.tolerance).ln();
        let q = |rows: u64| ((rows as f64 + 1.0).ln() / w).floor() as i64;
        CacheKey { shape: shape.to_string(), bucket: (q(stats.left_rows), q(stats.right_rows)) }
    }

    /// Look up the plan for `shape` over inputs fingerprinted as
    /// `stats`. Counts the hit or miss and refreshes LRU order.
    pub fn lookup(&mut self, shape: &str, stats: StatsFingerprint) -> Option<CachedPlan> {
        let key = self.key(shape, stats);
        match self.map.get(&key) {
            Some(entry) => {
                self.hits += 1;
                let hit =
                    CachedPlan { plan: Arc::clone(&entry.plan), generation: entry.generation };
                self.touch(&key);
                Some(hit)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memoize a freshly fitted plan; evicts the coldest entry at
    /// capacity. Returns the entry's generation stamp.
    pub fn insert(&mut self, shape: &str, stats: StatsFingerprint, plan: Arc<ShardPlan>) -> u64 {
        let key = self.key(shape, stats);
        self.generation += 1;
        let generation = self.generation;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            let coldest = self.order.remove(0);
            self.map.remove(&coldest);
        }
        self.map.insert(key.clone(), Entry { plan, stats, generation });
        self.order.retain(|k| k != &key);
        self.order.push(key);
        generation
    }

    fn touch(&mut self, key: &CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }

    /// Exact stats the cached plan for `(shape, stats)`'s bucket was
    /// fitted against, if present — for observability and tests.
    pub fn fitted_stats(&self, shape: &str, stats: StatsFingerprint) -> Option<StatsFingerprint> {
        self.map.get(&self.key(shape, stats)).map(|e| e.stats)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction over all lookups (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Plans currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::plan::{PlanReport, ShardCostPoint};
    use cheetah_core::{ShardPartitioner, Sharder};

    fn plan(shards: usize) -> Arc<ShardPlan> {
        Arc::new(ShardPlan {
            sharder: Sharder::new(ShardPartitioner::Hash, shards, 7),
            report: PlanReport {
                rows: 1_000,
                sample_len: 64,
                distinct_estimate: 100.0,
                top_key_mass: 0.01,
                shards,
                partitioner: ShardPartitioner::Hash,
                hash_sample_load: 1.0 / shards as f64,
                range_sample_load: 1.0 / shards as f64,
                curve: vec![ShardCostPoint { shards, worker_seconds: 1.0, merge_seconds: 0.1 }],
                reason: "test".into(),
            },
        })
    }

    fn fp(left: u64, right: u64) -> StatsFingerprint {
        StatsFingerprint { left_rows: left, right_rows: right }
    }

    #[test]
    fn same_shape_same_stats_hits() {
        let mut c = PlanCache::new(8, 0.35);
        assert!(c.lookup("distinct|t", fp(6_000, 0)).is_none());
        c.insert("distinct|t", fp(6_000, 0), plan(4));
        let hit = c.lookup("distinct|t", fp(6_000, 0)).expect("hit");
        assert_eq!(hit.plan.shards(), 4);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_shape_different_stats_fingerprint_misses() {
        // Same query shape, but the table was rebuilt 10x larger: the
        // planner's cost curve no longer applies, so this must re-plan.
        let mut c = PlanCache::new(8, 0.35);
        c.insert("distinct|t", fp(6_000, 0), plan(4));
        assert!(c.lookup("distinct|t", fp(60_000, 0)).is_none());
        // And a different shape over the same stats misses too.
        assert!(c.lookup("topn|t", fp(6_000, 0)).is_none());
    }

    #[test]
    fn drift_within_tolerance_still_hits() {
        let mut c = PlanCache::new(8, 0.35);
        c.insert("distinct|t", fp(6_000, 0), plan(4));
        // ~2% drift — well inside a 35% tolerance. (Bucket edges may
        // split closer pairs, which costs a re-plan, never correctness.)
        let drifted = c.lookup("distinct|t", fp(6_100, 0));
        let exact = c.lookup("distinct|t", fp(6_000, 0));
        assert!(exact.is_some());
        // The drifted lookup may hit or land on a bucket edge; what it
        // must never do is return a *different* plan.
        if let Some(hit) = drifted {
            assert_eq!(hit.plan.shards(), 4);
        }
    }

    #[test]
    fn a_plan_is_never_reused_after_stats_move_beyond_tolerance() {
        // The quantized key guarantees it: for every cached count, any
        // count differing by more than the tolerance factor lands in a
        // different bucket.
        let tol = 0.35;
        let mut c = PlanCache::new(64, tol);
        for rows in [100u64, 999, 6_000, 123_456, 10_000_000] {
            let shape = format!("distinct|t{rows}");
            c.insert(&shape, fp(rows, 0), plan(4));
            let grown = (rows as f64 * (1.0 + tol) * 1.001).ceil() as u64;
            let shrunk = (rows as f64 / (1.0 + tol) / 1.001).floor() as u64;
            assert!(
                c.lookup(&shape, fp(grown, 0)).is_none(),
                "{rows} -> {grown} rows must not reuse the plan"
            );
            assert!(
                c.lookup(&shape, fp(shrunk, 0)).is_none(),
                "{rows} -> {shrunk} rows must not reuse the plan"
            );
        }
    }

    #[test]
    fn eviction_at_capacity_drops_the_coldest() {
        let mut c = PlanCache::new(2, 0.35);
        c.insert("a", fp(1_000, 0), plan(2));
        c.insert("b", fp(1_000, 0), plan(3));
        // Touch "a" so "b" becomes the coldest.
        assert!(c.lookup("a", fp(1_000, 0)).is_some());
        c.insert("c", fp(1_000, 0), plan(4));
        assert_eq!(c.len(), 2);
        assert!(c.lookup("b", fp(1_000, 0)).is_none(), "coldest entry evicted");
        assert!(c.lookup("a", fp(1_000, 0)).is_some());
        assert!(c.lookup("c", fp(1_000, 0)).is_some());
    }

    #[test]
    fn reinserting_a_shape_bumps_the_generation() {
        let mut c = PlanCache::new(8, 0.35);
        let g1 = c.insert("a", fp(1_000, 0), plan(2));
        let g2 = c.insert("a", fp(1_000, 0), plan(8));
        assert!(g2 > g1);
        let hit = c.lookup("a", fp(1_000, 0)).unwrap();
        assert_eq!(hit.generation, g2);
        assert_eq!(hit.plan.shards(), 8);
        assert_eq!(c.len(), 1, "re-insert replaces, never duplicates");
    }

    #[test]
    fn binary_queries_fingerprint_both_streams() {
        let mut c = PlanCache::new(8, 0.35);
        c.insert("join|l|r", fp(6_000, 3_000), plan(4));
        assert!(c.lookup("join|l|r", fp(6_000, 3_000)).is_some());
        assert!(
            c.lookup("join|l|r", fp(6_000, 30_000)).is_none(),
            "right-stream growth alone must invalidate"
        );
    }
}
