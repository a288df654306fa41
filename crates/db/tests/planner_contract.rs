//! The planner contract gate, the third named CI tier after the pruning
//! and shard gates. Four properties, each load-bearing:
//!
//! 1. **Correctness** — a planner-chosen run is bit-identical to the
//!    baseline for **all seven** [`DbQuery`] variants across the
//!    planner-adversarial workload family
//!    ({uniform, zipf(1.0), zipf(1.5), single-hot-key}), on every path and
//!    backend — the fitted × compiled and fitted × direct points warm
//!    traffic runs included: the planner may change *where* rows go, never
//!    *what* the query answers. This is a walk of the shared execution
//!    grid (`for_each_exec_case`), whose fitted layout is fitted by the
//!    planner under test; here over random tables and sample sizes (the
//!    default planner on the fixed adversarial tables is the compiled
//!    gate's walk of the same grid).
//! 2. **Determinism** — same seed + same tables ⇒ the identical
//!    [`ShardPlan`] (reservoir sampling must not smuggle in
//!    nondeterminism), including the degenerate edges: empty table,
//!    table smaller than the sample, all-equal keys ⇒ 1 shard, which is
//!    the table itself.
//! 3. **Routing keys** — the keys every layout is sampled and split by
//!    are a golden: the switch encoding of the query's key column, or a
//!    row-id hash. A key that moves re-routes rows; that is a finding,
//!    not a golden to refresh.
//! 4. **Chosen plans** — the default planner's shard count over the Big
//!    Data tables, the adversarial family and one tenant-sized table is a
//!    golden too, the one-versus-two-shard tie on the tenant table
//!    included (it goes to one shard, which the serving plane runs on the
//!    calling thread). Every fitted plan is cut at the sampled quantiles,
//!    so the count is the whole plan.

mod common;

use common::{fitted, for_each_exec_case, run_barrier};

use cheetah_db::value::encode_ordered_i64;
use cheetah_db::{
    routing_keys, Cluster, DataType, DbPredicate, DbQuery, IntCmp, PlannerConfig, ShardPlan,
    ShardPlanner, Table, TableBuilder, Value,
};
use cheetah_runtime::{ExecPlan, ExecRun};
use cheetah_switch::{hash::mix64, HashFn};
use cheetah_workloads::{BigDataConfig, PlannerAdversary, SkewedTableConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// One barrier run under the planner's chosen layout.
fn planned(
    cluster: &Cluster,
    q: &DbQuery,
    left: &Arc<Table>,
    right: Option<&Arc<Table>>,
    planner: &ShardPlanner,
) -> ExecRun {
    run_barrier(cluster, q, left, right, fitted(cluster, planner, q, left, right))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Property 1: a walk of the execution grid under a planner of random
    /// sample size, whose fitted layout of every variant is run on every
    /// path and backend and held to the planner's facts (plan recorded,
    /// its shard count).
    #[test]
    fn planned_runs_match_baseline_on_random_workloads(
        seed in any::<u64>(),
        rows in 100usize..700,
        adv_idx in 0usize..4,
        sample_size in 64usize..512,
    ) {
        let adv = PlannerAdversary::all()[adv_idx];
        let planner = ShardPlanner::new(PlannerConfig { sample_size });
        let left = Arc::new(adv.table(rows, 3, seed));
        let right = Arc::new(adv.table(rows / 2 + 1, 2, seed ^ 0xFF));
        for_each_exec_case(&left, &right, rows as i64 * 20, &planner, &adv.name(), |_, _| {});
    }
}

// ---------------------------------------------------------------------
// Determinism and edge cases
// ---------------------------------------------------------------------

#[test]
fn same_seed_and_tables_give_the_identical_plan() {
    let planner = ShardPlanner::default();
    for adv in PlannerAdversary::all() {
        let t = adv.table(2_000, 4, 0xA11CE);
        for q in [
            DbQuery::Distinct { col: 0 },
            DbQuery::TopN { order_col: 1, n: 8 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        ] {
            let a = planner.plan(&q, &t, None, 0xC43E7A);
            let b = planner.plan(&q, &t, None, 0xC43E7A);
            assert_eq!(a, b, "{}: nondeterministic plan for {}", adv.name(), q.kind());
            // Rebuilding the same table from the same config must not
            // perturb the plan either.
            let rebuilt = adv.table(2_000, 4, 0xA11CE);
            let c = planner.plan(&q, &rebuilt, None, 0xC43E7A);
            assert_eq!(a, c, "{}: plan depends on more than (seed, data)", adv.name());
        }
    }
}

#[test]
fn planned_execution_is_deterministic_end_to_end() {
    let cluster = Cluster::default();
    let planner = ShardPlanner::default();
    let t = Arc::new(PlannerAdversary::Zipf(1.2).table(1_500, 3, 77));
    let q = DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 10_000 };
    let fit = || fitted(&cluster, &planner, &q, &t, None);
    let (plan_a, plan_b) = (fit(), fit());
    assert_eq!(plan_a, plan_b);
    let a = run_barrier(&cluster, &q, &t, None, plan_a);
    let b = run_barrier(&cluster, &q, &t, None, plan_b);
    assert_eq!(a.output, b.output);
    let rows_a: Vec<u64> = a.per_shard.iter().map(|s| s.rows).collect();
    let rows_b: Vec<u64> = b.per_shard.iter().map(|s| s.rows).collect();
    assert_eq!(rows_a, rows_b, "shard assignment must be deterministic");
}

#[test]
fn empty_table_plans_one_shard_and_runs() {
    let cluster = Cluster::default();
    let planner = ShardPlanner::default();
    let t = Arc::new(
        TableBuilder::new(
            "empty",
            vec![
                ("key".into(), DataType::Str),
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Int),
            ],
            8,
        )
        .build(),
    );
    let q = DbQuery::Distinct { col: 0 };
    let plan = planner.plan(&q, &t, None, 1);
    assert_eq!(plan.shards(), 1);
    assert_eq!(plan.report.rows, 0);
    assert_routes_nothing(&cluster, &q, &t, plan);
    let run = planned(&cluster, &q, &t, None, &planner);
    assert_eq!(run.output, cheetah_db::QueryOutput::Values(vec![]));
    assert_eq!(run.breakdown.shards, 1);
}

#[test]
fn table_smaller_than_the_sample_size_is_planned_exactly() {
    let planner = ShardPlanner::new(PlannerConfig { sample_size: 4_096 });
    let t = Arc::new(PlannerAdversary::Uniform.table(60, 2, 5));
    let plan = planner.plan(&DbQuery::Distinct { col: 0 }, &t, None, 5);
    assert_eq!(plan.report.rows, 60);
    assert_eq!(plan.report.sample_len, 60, "small tables are sampled in full");
    let cluster = Cluster::default();
    let run = planned(&cluster, &DbQuery::Distinct { col: 0 }, &t, None, &planner);
    assert_eq!(run.output, cluster.run_baseline(&DbQuery::Distinct { col: 0 }, &t, None).output);
}

#[test]
fn all_equal_keys_collapse_to_one_shard() {
    let mut b = TableBuilder::new(
        "hot",
        vec![
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
        ],
        50,
    );
    for i in 0..400i64 {
        b.push_row(vec![Value::Str("same".into()), Value::Int(i % 9), Value::Int(3)]);
    }
    let t = Arc::new(b.build());
    let planner = ShardPlanner::default();
    let cluster = Cluster::default();
    for q in [
        DbQuery::Distinct { col: 0 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 100 },
    ] {
        let plan = planner.plan(&q, &t, None, cluster.tuning.seed);
        assert_eq!(plan.shards(), 1, "{}: single key must not fan out", q.kind());
        assert_routes_nothing(&cluster, &q, &t, plan);
        let run = planned(&cluster, &q, &t, None, &planner);
        assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
    }
    // The single-hot-key adversary reaches the same count through the
    // workload family.
    let adv = Arc::new(PlannerAdversary::SingleHotKey.table(300, 2, 11));
    let q = DbQuery::Distinct { col: 0 };
    let plan = planner.plan(&q, &adv, None, 1);
    assert_eq!(plan.shards(), 1);
    assert_routes_nothing(&cluster, &q, &adv, plan);
}

/// A one-shard plan lays out the table whole: one unit holding every row
/// (the runtime's one-shard test asserts that unit is the caller's
/// `Arc<Table>` itself).
fn assert_routes_nothing(cluster: &Cluster, q: &DbQuery, t: &Arc<Table>, plan: ShardPlan) {
    let layout = ExecPlan::new(cluster, q, t, None, Arc::new(plan)).expect("routes");
    assert_eq!(layout.dispatched(), [t.rows() as u64], "{}", q.kind());
}

// ---------------------------------------------------------------------
// Chosen plans
// ---------------------------------------------------------------------

/// The shard count of every query the default planner plans at seed
/// `0xC43E7A`, as `(label, shards)`.
fn chosen_plans() -> Vec<(String, usize)> {
    let planner = ShardPlanner::default();
    let seed = 0xC43E7A;
    let mut plans = Vec::new();
    let mut pin = |label: String, q: &DbQuery, left: &Table, right: Option<&Table>| {
        plans.push((label, planner.plan(q, left, right, seed).shards()));
    };

    // The seven Big Data queries, at a tenth of the ledger's tables.
    let bd = BigDataConfig {
        uservisits_rows: 60_000,
        rankings_rows: 30_000,
        url_universe: Some(120_000),
        seed: mix64(1 ^ 0xB16_DA7A),
        ..BigDataConfig::default()
    };
    let (rankings, uservisits) = (bd.rankings(), bd.uservisits());
    for (q, left, right) in bd.queries(&rankings, &uservisits) {
        pin(format!("bigdata {}", q.kind()), &q, left, right);
    }

    // The planner-adversarial family.
    for adv in PlannerAdversary::all() {
        let t = adv.table(20_000, 4, 0xA11CE);
        for q in [
            DbQuery::Distinct { col: 0 },
            DbQuery::TopN { order_col: 1, n: 100 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        ] {
            pin(format!("{} {}", adv.name(), q.kind()), &q, &t, None);
        }
    }

    // One tenant-sized table: FILTER and TOP N tie at one versus two
    // shards, and the tie goes to the fewer.
    let tenant =
        SkewedTableConfig { rows: 6_000, keys: 100, ..SkewedTableConfig::default() }.build();
    for q in [
        DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Lt, lit: 10_000 } },
        DbQuery::TopN { order_col: 1, n: 100 },
    ] {
        pin(format!("tenant {}", q.kind()), &q, &tenant, None);
    }
    plans
}

/// A plan that moves re-routes rows; like the routing keys below, that is
/// a finding, not a golden to refresh.
#[test]
fn the_default_planner_chooses_the_pinned_plans() {
    let want: &[(&str, usize)] = &[
        ("bigdata filter-count", 3),
        ("bigdata distinct", 3),
        ("bigdata skyline", 3),
        ("bigdata topn", 4),
        ("bigdata groupby-max", 3),
        ("bigdata join", 5),
        ("bigdata having-sum", 4),
        ("uniform distinct", 3),
        ("uniform topn", 3),
        ("uniform groupby-max", 3),
        ("zipf(1) distinct", 3),
        ("zipf(1) topn", 3),
        ("zipf(1) groupby-max", 3),
        ("zipf(1.5) distinct", 2),
        ("zipf(1.5) topn", 3),
        ("zipf(1.5) groupby-max", 2),
        ("single-hot-key distinct", 1),
        ("single-hot-key topn", 3),
        ("single-hot-key groupby-max", 1),
        ("tenant filter-count", 1),
        ("tenant topn", 1),
    ];
    let got = chosen_plans();
    let got: Vec<(&str, usize)> = got.iter().map(|(l, n)| (l.as_str(), *n)).collect();
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------
// Routing keys
// ---------------------------------------------------------------------

#[test]
fn routing_keys_are_the_switch_encoding_of_the_key_column_or_a_row_id_hash() {
    // Three rows cut 2 + 1, so the row-id hash must count across
    // partitions.
    let fields = vec![("name".into(), DataType::Str), ("n".into(), DataType::Int)];
    let mut b = TableBuilder::new("t", fields, 2);
    for (name, n) in [("pizza", 7), ("jello", -3), ("fries", i64::MIN)] {
        b.push_row(vec![Value::Str(name.into()), Value::Int(n)]);
    }
    let t = b.build();
    assert_eq!(t.partitions().len(), 2);

    let seed = 0xC43E7A;
    let fingerprint = |s: &str| HashFn::from_seed(seed).hash_bytes(s.as_bytes()) >> 1;
    let names = vec![fingerprint("pizza"), fingerprint("jello"), fingerprint("fries")];
    let ints = vec![encode_ordered_i64(7), encode_ordered_i64(-3), encode_ordered_i64(i64::MIN)];
    assert_eq!(ints[2], 0, "the order-preserving encoding starts at i64::MIN");

    assert_eq!(routing_keys(&DbQuery::TopN { order_col: 1, n: 2 }, 0, &t, seed), ints);
    assert_eq!(routing_keys(&DbQuery::Distinct { col: 0 }, 0, &t, seed), names);
    let join = DbQuery::Join { left_key: 0, right_key: 1 };
    assert_eq!(routing_keys(&join, 0, &t, seed), names);
    assert_eq!(routing_keys(&join, 1, &t, seed), ints);
    let pred = DbPredicate::CmpInt { col: 1, op: IntCmp::Lt, lit: 0 };
    assert_eq!(
        routing_keys(&DbQuery::FilterCount { pred }, 0, &t, seed),
        vec![mix64(seed), mix64(1 ^ seed), mix64(2 ^ seed)]
    );
}
