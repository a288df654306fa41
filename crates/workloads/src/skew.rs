//! Skewed (zipf) partition generators: unbalanced worker loads.
//!
//! Real sharded deployments never see balanced shards — hot keys, hot
//! tenants, and time-of-day effects concentrate rows on a few workers.
//! The sharded-execution experiments need inputs that reproduce that:
//! the slowest shard bounds the worker phase, so skew is precisely what
//! separates `max(shard)` from `total/N` scaling (Tailwind's argument
//! that accelerator frameworks must be evaluated under partitioned,
//! multi-worker load).
//!
//! Three generators, all deterministic in the seed:
//!
//! * [`skewed_partition_sizes`] — split a row budget over `parts`
//!   partitions with Zipf(s)-distributed sizes;
//! * [`SkewedTableConfig`] — a complete table whose *partition sizes* are
//!   zipf-skewed and whose key column is itself zipf-distributed, so both
//!   shard-load skew and key skew are exercised at once;
//! * [`PlannerAdversary`] — the named key-distribution family
//!   (uniform / zipf(1.0) / zipf(1.5) / single-hot-key) the routing
//!   contract suites sweep.

use crate::zipf::Zipf;
use cheetah_db::{DataType, Table, TableBuilder, Value};
use cheetah_switch::hash::mix64;

/// Split `total_rows` over `parts` partitions with Zipf(`s`)-skewed
/// sizes: partition 0 is the hottest. `s = 0` degenerates to a roughly
/// balanced split; sizes always sum to `total_rows` and every partition
/// exists (possibly empty under extreme skew).
pub fn skewed_partition_sizes(total_rows: usize, parts: usize, s: f64, seed: u64) -> Vec<usize> {
    assert!(parts > 0, "need at least one partition");
    if total_rows == 0 {
        return vec![0; parts];
    }
    let mut z = Zipf::new(parts, s, seed);
    let mut sizes = vec![0usize; parts];
    for _ in 0..total_rows {
        sizes[z.sample()] += 1;
    }
    sizes
}

/// Configuration of a zipf-skewed table.
#[derive(Debug, Clone)]
pub struct SkewedTableConfig {
    /// Total rows across all partitions.
    pub rows: usize,
    /// Worker partitions.
    pub partitions: usize,
    /// Zipf exponent of the partition sizes (0 = balanced).
    pub partition_skew: f64,
    /// Distinct keys in the key column.
    pub keys: usize,
    /// Zipf exponent of the key column (0 = uniform keys).
    pub key_skew: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for SkewedTableConfig {
    fn default() -> Self {
        Self {
            rows: 10_000,
            partitions: 8,
            partition_skew: 1.0,
            keys: 100,
            key_skew: 1.1,
            seed: 0x5E11,
        }
    }
}

impl SkewedTableConfig {
    /// Generate the table: schema `key: Str, value: Int, weight: Int`,
    /// partition sizes from [`skewed_partition_sizes`], zipf-distributed
    /// keys, and seeded uniform int columns.
    pub fn build(&self) -> Table {
        let sizes =
            skewed_partition_sizes(self.rows, self.partitions, self.partition_skew, self.seed);
        let mut keys = Zipf::new(self.keys.max(1), self.key_skew, self.seed ^ 0x4E4);
        let mut b = TableBuilder::new(
            "skewed",
            vec![
                ("key".into(), DataType::Str),
                ("value".into(), DataType::Int),
                ("weight".into(), DataType::Int),
            ],
            // Cuts are driven manually per skewed size; make the builder's
            // automatic cadence unreachable.
            self.rows.max(1) + 1,
        );
        // Each key's string is formatted once; a row clones it.
        let names: Vec<String> = (0..keys.universe()).map(|k| format!("key-{k}")).collect();
        let mut x = self.seed | 1;
        for (pi, &size) in sizes.iter().enumerate() {
            for _ in 0..size {
                let key = names[keys.sample()].clone();
                x = mix64(x);
                let value = (x % 100_000) as i64;
                x = mix64(x);
                let weight = (x % 1_000) as i64;
                b.push_row([Value::Str(key), Value::Int(value), Value::Int(weight)]);
            }
            // Close every partition except the last; build() closes that
            // one (and guarantees at least one partition overall).
            if pi + 1 < sizes.len() {
                b.cut_partition();
            }
        }
        b.build()
    }
}

/// The routing-adversarial workload family: key distributions chosen to
/// stress key-aligned hash routing and the merges it feeds. All
/// four share the [`SkewedTableConfig`] schema (`key: Str, value: Int,
/// weight: Int`) so any query of the contract suites runs over any of
/// them.
///
/// * [`Uniform`](PlannerAdversary::Uniform) — flat keys: the hash
///   should balance;
/// * [`Zipf`](PlannerAdversary::Zipf) — tunable head mass: `1.0` is the
///   classic web skew, `1.5` concentrates hard enough that a key's
///   copies, which key-aligned routing keeps together, load one shard;
/// * [`SingleHotKey`](PlannerAdversary::SingleHotKey) — one key holds
///   every row: key-aligned routing cannot spread it, so a keyed query's
///   rows all land on one shard whatever the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannerAdversary {
    /// Uniform keys (zipf exponent 0).
    Uniform,
    /// Zipf-distributed keys with the given exponent.
    Zipf(f64),
    /// Every row carries the same key.
    SingleHotKey,
}

impl PlannerAdversary {
    /// The four-member family the routing contract suites sweep.
    pub fn all() -> [PlannerAdversary; 4] {
        [
            PlannerAdversary::Uniform,
            PlannerAdversary::Zipf(1.0),
            PlannerAdversary::Zipf(1.5),
            PlannerAdversary::SingleHotKey,
        ]
    }

    /// Short name for reports and assertion messages.
    pub fn name(&self) -> String {
        match self {
            PlannerAdversary::Uniform => "uniform".into(),
            PlannerAdversary::Zipf(s) => format!("zipf({s})"),
            PlannerAdversary::SingleHotKey => "single-hot-key".into(),
        }
    }

    /// Build the adversarial table: `rows` rows over `partitions`
    /// mildly-skewed worker partitions, keys per the family.
    pub fn table(&self, rows: usize, partitions: usize, seed: u64) -> Table {
        let (keys, key_skew) = match self {
            PlannerAdversary::Uniform => (200.max(rows / 20).min(2_000), 0.0),
            PlannerAdversary::Zipf(s) => (200.max(rows / 20).min(2_000), *s),
            PlannerAdversary::SingleHotKey => (1, 0.0),
        };
        SkewedTableConfig { rows, partitions, partition_skew: 0.5, keys, key_skew, seed }.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_sum_and_skew_toward_the_head() {
        let sizes = skewed_partition_sizes(50_000, 8, 1.2, 3);
        assert_eq!(sizes.iter().sum::<usize>(), 50_000);
        assert_eq!(sizes.len(), 8);
        assert!(sizes[0] > 3 * sizes[7].max(1), "head partition must dominate the tail: {sizes:?}");
    }

    #[test]
    fn zero_skew_is_roughly_balanced() {
        let sizes = skewed_partition_sizes(80_000, 8, 0.0, 7);
        for &s in &sizes {
            let f = s as f64 / 80_000.0;
            assert!((f - 0.125).abs() < 0.02, "partition share {f}");
        }
    }

    #[test]
    fn zero_rows_gives_empty_partitions() {
        assert_eq!(skewed_partition_sizes(0, 3, 1.0, 1), vec![0, 0, 0]);
    }

    #[test]
    fn table_honours_the_skewed_sizes() {
        let cfg = SkewedTableConfig { rows: 5_000, partitions: 6, ..Default::default() };
        let t = cfg.build();
        assert_eq!(t.rows(), 5_000);
        assert_eq!(t.partitions().len(), 6);
        let sizes: Vec<usize> = t.partitions().iter().map(|p| p.rows()).collect();
        let want = skewed_partition_sizes(5_000, 6, cfg.partition_skew, cfg.seed);
        assert_eq!(sizes, want);
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let cfg = SkewedTableConfig { rows: 1_000, ..Default::default() };
        assert_eq!(cfg.build(), cfg.build());
    }

    #[test]
    fn adversary_family_covers_the_planner_grid() {
        let fam = PlannerAdversary::all();
        assert_eq!(fam.len(), 4);
        assert_eq!(fam[1].name(), "zipf(1)");
        for adv in fam {
            let t = adv.table(1_200, 3, 9);
            assert_eq!(t.rows(), 1_200, "{}", adv.name());
            assert_eq!(t.partitions().len(), 3);
            // Same build is the same table — the determinism the routing
            // goldens lean on.
            assert_eq!(t, adv.table(1_200, 3, 9));
        }
    }

    #[test]
    fn single_hot_key_really_is_single() {
        let t = PlannerAdversary::SingleHotKey.table(500, 2, 3);
        let mut keys = std::collections::HashSet::new();
        for p in t.partitions() {
            for s in p.column(0).as_str().unwrap() {
                keys.insert(s.clone());
            }
        }
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn zipf_adversary_concentrates_harder_at_higher_exponent() {
        let mass = |adv: PlannerAdversary| {
            let t = adv.table(20_000, 4, 5);
            let mut counts = std::collections::HashMap::new();
            for p in t.partitions() {
                for s in p.column(0).as_str().unwrap() {
                    *counts.entry(s.clone()).or_insert(0u64) += 1;
                }
            }
            *counts.values().max().unwrap() as f64 / 20_000.0
        };
        let uniform = mass(PlannerAdversary::Uniform);
        let z10 = mass(PlannerAdversary::Zipf(1.0));
        let z15 = mass(PlannerAdversary::Zipf(1.5));
        assert!(uniform < z10 && z10 < z15, "{uniform} < {z10} < {z15} expected");
        assert!(z15 > 0.2, "zipf(1.5) hot-key mass {z15}");
    }

    #[test]
    fn key_column_is_zipf_skewed() {
        let cfg = SkewedTableConfig { rows: 20_000, keys: 200, ..Default::default() };
        let t = cfg.build();
        let mut counts = std::collections::HashMap::new();
        for p in t.partitions() {
            for s in p.column(0).as_str().unwrap() {
                *counts.entry(s.clone()).or_insert(0u64) += 1;
            }
        }
        let hottest = counts.values().max().copied().unwrap_or(0);
        assert!(hottest as f64 / 20_000.0 > 0.05, "hot key share {hottest}");
    }
}
