//! The benchmark's four workloads as data: which tables, generated from
//! which configs and seeds, and which queries each sends over them.
//!
//! These are the keys `BENCHMARK.json`'s workloads send — a (query,
//! tables) pair each — stated here so that a program other than the
//! benchmark (the `census` experiment) can run exactly them:
//!
//! * `prune_heavy` — FILTER, DISTINCT, SKYLINE and GROUP BY over the Big
//!   Data tables, where the switch prunes most entries;
//! * `survivor_heavy` — TOP N, JOIN and HAVING over the same tables,
//!   where a third to all of the entries survive;
//! * `adhoc_cold` — six families over a pair of skewed tables;
//! * `tenants_small` — four families over each of eight tenants' small
//!   skewed tables.

use crate::{BigDataConfig, SkewedTableConfig};
use cheetah_db::{DbPredicate, DbQuery, IntCmp, Table};
use cheetah_switch::hash::mix64;
use std::sync::Arc;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["prune_heavy", "survivor_heavy", "adhoc_cold", "tenants_small"];

/// Full-scale row counts; [`keys`] divides them by its `shrink`.
const USERVISITS_ROWS: usize = 600_000;
const ADHOC_ROWS: usize = 200_000;
const ADHOC_KEYS: usize = 5_000;
const TENANTS: usize = 8;
const TENANT_ROWS: usize = 6_000;
const TENANT_KEYS: usize = 100;

/// One (query, tables) key a workload sends, and the tenant it is sent
/// for.
#[derive(Debug, Clone)]
pub struct BenchKey {
    /// The query family, as the benchmark names its shapes.
    pub shape: &'static str,
    /// The tenant the benchmark accounts the key's requests to.
    pub tenant: String,
    /// The query.
    pub query: DbQuery,
    /// Left (or only) input.
    pub left: Arc<Table>,
    /// Right input of a join.
    pub right: Option<Arc<Table>>,
}

impl BenchKey {
    fn new(shape: &'static str, query: DbQuery, left: &Arc<Table>, tenant: &str) -> Self {
        Self { shape, tenant: tenant.to_string(), query, left: Arc::clone(left), right: None }
    }

    fn with_right(mut self, right: &Arc<Table>) -> Self {
        self.right = Some(Arc::clone(right));
        self
    }
}

/// The keys of `workload`, with every table generated from `seed`;
/// `shrink` divides every row count (1 is the benchmark's scale). `None`
/// for a name not in [`WORKLOADS`].
pub fn keys(workload: &str, seed: u64, shrink: usize) -> Option<Vec<BenchKey>> {
    let shrink = shrink.max(1);
    let keys = match workload {
        "prune_heavy" | "survivor_heavy" => {
            let rows = USERVISITS_ROWS / shrink;
            let bd = BigDataConfig {
                uservisits_rows: rows,
                rankings_rows: rows / 2,
                // A quarter of the visits hit a ranked page, so the join
                // has something to prune.
                url_universe: Some(rows * 2),
                seed: mix64(seed ^ 0xB16_DA7A),
                ..BigDataConfig::default()
            };
            let rankings = Arc::new(bd.rankings());
            let uservisits = Arc::new(bd.uservisits());
            let wanted: &[&str] = if workload == "prune_heavy" {
                &["filter-count", "distinct", "skyline", "groupby-max"]
            } else {
                &["topn", "join", "having-sum"]
            };
            let families = bigdata_families(&uservisits, &rankings);
            families.into_iter().filter(|k| wanted.contains(&k.shape)).collect()
        }
        "adhoc_cold" => {
            let rows = ADHOC_ROWS / shrink;
            let keys = (ADHOC_KEYS / shrink).max(8);
            let left = Arc::new(skewed(rows, keys, mix64(seed ^ 0xAD0C)));
            let right = Arc::new(skewed(rows / 2, keys, mix64(seed ^ 0xAD0C_0002)));
            let families = skewed_families(&left, &right, keys, "adhoc");
            families.into_iter().filter(|k| k.shape != "skyline").collect()
        }
        "tenants_small" => {
            let rows = (TENANT_ROWS / shrink).max(64);
            let shapes = ["filter-count", "distinct", "topn", "groupby-max"];
            (0..TENANTS)
                .flat_map(|t| {
                    let seed = mix64(seed ^ 0x7E4A ^ ((t as u64) << 32));
                    let table = Arc::new(skewed(rows, TENANT_KEYS, seed));
                    skewed_families(&table, &table, TENANT_KEYS, &format!("t{t}"))
                        .into_iter()
                        .filter(|k| shapes.contains(&k.shape))
                })
                .collect()
        }
        _ => return None,
    };
    Some(keys)
}

fn skewed(rows: usize, keys: usize, seed: u64) -> Table {
    SkewedTableConfig { rows, keys, seed, ..SkewedTableConfig::default() }.build()
}

/// The seven benchmark queries of the paper's Appendix B over the Big
/// Data tables.
fn bigdata_families(uservisits: &Arc<Table>, rankings: &Arc<Table>) -> Vec<BenchKey> {
    type B = BigDataConfig;
    let t = "bigdata";
    vec![
        BenchKey::new(
            "filter-count",
            DbQuery::FilterCount {
                pred: DbPredicate::CmpInt {
                    col: B::RANKINGS_AVG_DURATION,
                    op: IntCmp::Lt,
                    lit: 10,
                },
            },
            rankings,
            t,
        ),
        BenchKey::new("distinct", DbQuery::Distinct { col: B::UV_USER_AGENT }, uservisits, t),
        BenchKey::new(
            "skyline",
            DbQuery::Skyline { cols: vec![B::RANKINGS_PAGE_RANK, B::RANKINGS_AVG_DURATION] },
            rankings,
            t,
        ),
        BenchKey::new("topn", DbQuery::TopN { order_col: B::UV_AD_REVENUE, n: 250 }, uservisits, t),
        BenchKey::new(
            "groupby-max",
            DbQuery::GroupByMax { key_col: B::UV_USER_AGENT, val_col: B::UV_AD_REVENUE },
            uservisits,
            t,
        ),
        BenchKey::new(
            "join",
            DbQuery::Join { left_key: B::UV_DEST_URL, right_key: B::RANKINGS_PAGE_URL },
            uservisits,
            t,
        )
        .with_right(rankings),
        BenchKey::new(
            "having-sum",
            DbQuery::HavingSum {
                key_col: B::UV_LANGUAGE,
                val_col: B::UV_AD_REVENUE,
                threshold: uservisits.rows() as i64 * 400,
            },
            uservisits,
            t,
        ),
    ]
}

/// The same seven families over the narrow `key, value, weight` schema.
fn skewed_families(
    left: &Arc<Table>,
    right: &Arc<Table>,
    keys: usize,
    tenant: &str,
) -> Vec<BenchKey> {
    // HAVING threshold: four times the mean per-key weight sum (weights
    // are uniform below 1000), so only the zipf head passes.
    let threshold = left.rows() as i64 * 500 / keys.max(1) as i64 * 4;
    vec![
        BenchKey::new(
            "filter-count",
            DbQuery::FilterCount {
                pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Lt, lit: 10_000 },
            },
            left,
            tenant,
        ),
        BenchKey::new("distinct", DbQuery::Distinct { col: 0 }, left, tenant),
        BenchKey::new("skyline", DbQuery::Skyline { cols: vec![1, 2] }, left, tenant),
        BenchKey::new("topn", DbQuery::TopN { order_col: 1, n: 100 }, left, tenant),
        BenchKey::new("groupby-max", DbQuery::GroupByMax { key_col: 0, val_col: 1 }, left, tenant),
        BenchKey::new("join", DbQuery::Join { left_key: 0, right_key: 0 }, left, tenant)
            .with_right(right),
        BenchKey::new(
            "having-sum",
            DbQuery::HavingSum { key_col: 0, val_col: 2, threshold },
            left,
            tenant,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_documented_shapes() {
        let count = |name: &str| {
            let keys = keys(name, 1, 50).expect("a benchmark workload");
            let mut shapes: Vec<&str> = keys.iter().map(|k| k.shape).collect();
            shapes.sort_unstable();
            shapes.dedup();
            (keys.len(), shapes.len())
        };
        assert_eq!(WORKLOADS.map(count), [(4, 4), (3, 3), (6, 6), (32, 4)]);
        assert!(keys("nope", 1, 50).is_none());
    }

    #[test]
    fn one_seed_gives_the_same_tables_and_another_seed_others() {
        for name in WORKLOADS {
            let (a, b, c) = (keys(name, 7, 50), keys(name, 7, 50), keys(name, 8, 50));
            let (a, b, c) = (a.unwrap(), b.unwrap(), c.unwrap());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((&x.query, &x.tenant), (&y.query, &y.tenant), "{name}");
                assert_eq!(*x.left, *y.left, "{name}: tables differ at one seed");
            }
            assert_ne!(*a[0].left, *c[0].left, "{name}: the seed must move the tables");
        }
    }
}
