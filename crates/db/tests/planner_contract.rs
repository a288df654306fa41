//! The planner contract gate, the third named CI tier after the pruning
//! and shard gates. Three properties, each load-bearing:
//!
//! 1. **Correctness** — a planner-chosen run is bit-identical to the
//!    baseline for **all seven** [`DbQuery`] variants across the
//!    planner-adversarial workload family
//!    ({uniform, zipf(1.0), zipf(1.5), single-hot-key}), on both
//!    transports: the planner may change *where* rows go, never *what*
//!    the query answers.
//! 2. **Balance bound** — whenever the planner keeps the fitted range
//!    partitioner, its max shard load on the sample stays within the
//!    configured factor (default 2×) of hash on the same sample;
//!    otherwise it must have fallen back to hash.
//! 3. **Determinism** — same seed + same tables ⇒ the identical
//!    [`ShardPlan`] (reservoir sampling must not smuggle in
//!    nondeterminism), including the degenerate edges: empty table,
//!    table smaller than the sample, all-equal keys ⇒ 1 shard.
//! 4. **Routing keys** — the keys every layout is sampled and split by
//!    are a golden: the switch encoding of the query's key column, or a
//!    row-id hash. A key that moves re-routes rows; that is a finding,
//!    not a golden to refresh.

mod common;

use common::{all_seven, assert_merge_discipline, fitted, run_barrier};

use cheetah_db::value::encode_ordered_i64;
use cheetah_db::{
    routing_keys, Cluster, DataType, DbPredicate, DbQuery, ExecPath, IntCmp, PlannerConfig,
    ShardPartitioner, ShardPlanner, Table, TableBuilder, Value,
};
use cheetah_runtime::{execute, ExecPlan, ExecRun};
use cheetah_switch::{hash::mix64, HashFn};
use cheetah_workloads::PlannerAdversary;
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
    run_barrier(cluster, q, left, right, &fitted(cluster, planner, q, left, right))
}

/// Assert properties 1 and 2 over the full variant grid for one
/// workload pair.
fn assert_planner_contract(
    cluster: &Cluster,
    planner: &ShardPlanner,
    left: &Arc<Table>,
    right: &Arc<Table>,
    threshold: i64,
    label: &str,
) {
    for q in all_seven(threshold) {
        let right_of = q.is_binary().then_some(right);
        let base = cluster.run_baseline(&q, left, right_of.map(|r| &**r));
        let spec = fitted(cluster, planner, &q, left, right_of);
        let routed = ExecPlan::new(cluster, &q, left, right_of, &spec).expect("routes");
        let streamed = execute(cluster, &routed).expect("plan fits");
        let planned = execute(cluster, &routed.for_path(ExecPath::BarrierPooled)).expect("fits");
        for (run, path) in
            [(&streamed, ExecPath::StreamedResident), (&planned, ExecPath::BarrierPooled)]
        {
            let label = format!("{} × planned × {} on {label}", q.kind(), path.label());
            assert_eq!(base.output, run.output, "{label}: diverged under the planned layout");
            assert_merge_discipline(path, run, &label);
        }
        let plan = planned.plan.as_ref().expect("planned run records its plan");
        let report = &plan.report;
        assert_eq!(planned.breakdown.shards as usize, plan.shards(), "{label}");
        assert!(
            planned.breakdown.plan.expect("decision recorded").is_planned(),
            "{}: breakdown must say the layout was planned",
            q.kind()
        );
        // The balance bound: a kept range plan is within the factor of
        // hash on the same sample, or the planner chose hash.
        if report.range_sample_load > planner.cfg.range_load_factor * report.hash_sample_load {
            assert_eq!(
                report.partitioner,
                ShardPartitioner::Hash,
                "{} on {label}: range load {:.3} exceeds {}x hash load {:.3} but range was kept",
                q.kind(),
                report.range_sample_load,
                planner.cfg.range_load_factor,
                report.hash_sample_load
            );
        }
        // Routing must not lose rows, whatever the plan.
        let routed: u64 = planned.per_shard.iter().map(|s| s.rows).sum();
        let total = left.rows() as u64 + right_of.map_or(0, |r| r.rows() as u64);
        assert_eq!(routed, total, "{} on {label}: rows lost in routing", q.kind());
    }
}

#[test]
fn planned_runs_match_baseline_across_the_adversarial_family() {
    let cluster = Cluster::default();
    let planner = ShardPlanner::default();
    for adv in PlannerAdversary::all() {
        let left = Arc::new(adv.table(900, 3, 0x5EED));
        let right = Arc::new(adv.table(450, 2, 0x5EED ^ 0xFACE));
        assert_planner_contract(&cluster, &planner, &left, &right, 9_000, &adv.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn planned_runs_match_baseline_on_random_workloads(
        seed in any::<u64>(),
        rows in 100usize..700,
        adv_idx in 0usize..4,
        sample_size in 64usize..512,
    ) {
        let adv = PlannerAdversary::all()[adv_idx];
        let cluster = Cluster::default();
        let planner = ShardPlanner::new(PlannerConfig {
            sample_size,
            ..PlannerConfig::default()
        });
        let left = Arc::new(adv.table(rows, 3, seed));
        let right = Arc::new(adv.table(rows / 2 + 1, 2, seed ^ 0xFF));
        assert_planner_contract(&cluster, &planner, &left, &right, rows as i64 * 20, &adv.name());
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
    let a = planned(&cluster, &q, &t, None, &planner);
    let b = planned(&cluster, &q, &t, None, &planner);
    assert_eq!(a.output, b.output);
    assert_eq!(a.plan, b.plan);
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
    let run = planned(&cluster, &q, &t, None, &planner);
    assert_eq!(run.output, cheetah_db::QueryOutput::Values(vec![]));
    assert_eq!(run.breakdown.shards, 1);
}

#[test]
fn table_smaller_than_the_sample_size_is_planned_exactly() {
    let planner =
        ShardPlanner::new(PlannerConfig { sample_size: 4_096, ..PlannerConfig::default() });
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
        assert!(plan.report.reason.contains("equal"), "{}", plan.report.reason);
        let run = planned(&cluster, &q, &t, None, &planner);
        assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
    }
    // The single-hot-key adversary hits the same rule through the
    // workload family.
    let adv = PlannerAdversary::SingleHotKey.table(300, 2, 11);
    let plan = planner.plan(&DbQuery::Distinct { col: 0 }, &adv, None, 1);
    assert_eq!(plan.shards(), 1);
}

#[test]
fn skew_flips_the_partitioner_choice() {
    // Uniform keys: fitted range is balanced on the sample, so it is
    // kept. A hard-skewed column can push range past the load bound,
    // where hash must win — either way, the decision rule is the bound.
    let planner = ShardPlanner::default();
    let uniform = PlannerAdversary::Uniform.table(8_000, 4, 21);
    let plan = planner.plan(&DbQuery::TopN { order_col: 1, n: 16 }, &uniform, None, 21);
    assert_eq!(
        plan.report.partitioner,
        ShardPartitioner::Range,
        "spread order values should keep the fitted range: {}",
        plan.report.reason
    );
    for adv in PlannerAdversary::all() {
        let t = adv.table(6_000, 4, 33);
        let p = planner.plan(&DbQuery::GroupByMax { key_col: 0, val_col: 1 }, &t, None, 33);
        let r = &p.report;
        assert!(
            r.range_sample_load <= planner.cfg.range_load_factor * r.hash_sample_load
                || r.partitioner == ShardPartitioner::Hash,
            "{}: unbalanced range kept ({:.3} vs hash {:.3})",
            adv.name(),
            r.range_sample_load,
            r.hash_sample_load
        );
    }
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
