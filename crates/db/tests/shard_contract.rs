//! The shard equivalence gate: `Q(merge(shards(D))) = Q(D)` for **all
//! seven** [`DbQuery`] variants, across the grid's layouts — the one-shard
//! layout, hash and range at 2 and 7 shards, and the planner's fitted
//! layout — including empty-shard, single-row and all-rows-one-shard edge
//! cases.
//!
//! This is the sharded layer's analogue of the pruning contract: sharding
//! must be invisible in the output, only visible in the breakdown. CI runs
//! this file as an explicitly named step
//! (`cargo test -q -p cheetah-db --test shard_contract`), so a broken
//! router, merge rule, or partitioner fails loudly even if nothing else
//! notices.

mod common;

use common::{for_each_exec_case, gen_table, run_barrier};

use cheetah_db::{
    Cluster, DataType, DbQuery, ShardPartitioner, ShardPlanner, ShardSpec, Table, TableBuilder,
    Value,
};
use cheetah_runtime::{execute, ExecPlan};
use cheetah_workloads::PlannerAdversary;
use proptest::prelude::*;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];
const PARTITIONERS: [ShardPartitioner; 2] = [ShardPartitioner::Hash, ShardPartitioner::Range];

/// Assert the full grid — every query, every layout, both transports,
/// both backends, and the direct arm — against the baseline.
fn assert_shard_contract(left: &Arc<Table>, right: &Arc<Table>, threshold: i64) {
    let planner = ShardPlanner::default();
    for_each_exec_case(left, right, threshold, &planner, "shard grid", |_, _| {});
}

/// One barrier run under a hand-picked spec.
fn sharded(q: &DbQuery, t: &Arc<Table>, spec: ShardSpec) -> cheetah_runtime::ExecRun {
    run_barrier(&Cluster::default(), q, t, None, spec)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn merge_of_shards_equals_the_unsharded_query(
        seed in any::<u64>(),
        rows in 120usize..1_200,
        keys in 1u64..200,
        partitions in 1usize..6,
    ) {
        let left = Arc::new(gen_table(rows, keys, partitions, seed));
        let right =
            Arc::new(gen_table(rows / 2 + 1, keys.saturating_mul(2).max(1), 2, seed ^ 0xFF));
        let threshold = (rows as i64) * 20;
        assert_shard_contract(&left, &right, threshold);
    }
}

#[test]
fn empty_table_every_variant_every_grid_point() {
    // All shards empty: the degenerate end of the empty-shard case.
    let left = Arc::new(gen_table(0, 1, 1, 7));
    let right = Arc::new(gen_table(0, 1, 1, 8));
    assert_shard_contract(&left, &right, 10);
}

#[test]
fn single_row_tables_every_variant_every_grid_point() {
    let left = Arc::new(gen_table(1, 1, 1, 9));
    let right = Arc::new(gen_table(1, 1, 1, 11));
    assert_shard_contract(&left, &right, 0);
}

#[test]
fn fewer_rows_than_shards_leaves_empty_shards() {
    // 3 rows over 7 shards: at least four shards receive nothing and
    // must still merge cleanly.
    let left = Arc::new(gen_table(3, 5, 1, 21));
    let right = Arc::new(gen_table(2, 5, 1, 22));
    assert_shard_contract(&left, &right, 0);
    let q = DbQuery::Distinct { col: 0 };
    let run = sharded(&q, &left, ShardSpec::new(7, ShardPartitioner::Hash));
    assert!(run.per_shard.iter().filter(|s| s.rows == 0).count() >= 4);
}

#[test]
fn constant_table_routes_all_rows_to_one_shard() {
    // Key-aligned routing over a table whose every column is constant:
    // everything lands on one shard, the rest stay empty — the
    // all-rows-one-shard edge, with TOP N tied everywhere and SKYLINE over
    // identical points stressing the dedup paths.
    let mut b = TableBuilder::new(
        "t",
        vec![
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
        ],
        10,
    );
    for _ in 0..500 {
        b.push_row(vec![Value::Str("same".into()), Value::Int(5), Value::Int(5)]);
    }
    let table = Arc::new(b.build());
    assert_shard_contract(&table, &table, 100);
    for q in [
        DbQuery::Distinct { col: 0 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 100 },
    ] {
        let run = sharded(&q, &table, ShardSpec::new(5, ShardPartitioner::Hash));
        let nonempty: Vec<u64> = run.per_shard.iter().map(|s| s.rows).filter(|&r| r > 0).collect();
        assert_eq!(nonempty, vec![500], "{}: keyed routing must co-locate the key", q.kind());
    }
}

#[test]
fn range_routing_keeps_topn_value_locality() {
    // TOP N routes by the order column; under range sharding the global
    // top values all sit on the highest-keyed shard, yet the merged
    // output still matches.
    let cluster = Cluster::default();
    let left = Arc::new(gen_table(800, 40, 3, 77));
    let q = DbQuery::TopN { order_col: 1, n: 10 };
    let single = cluster.run_cheetah(&q, &left, None).unwrap();
    let run = sharded(&q, &left, ShardSpec::new(2, ShardPartitioner::Range));
    assert_eq!(single.output, run.output);
}

#[test]
fn having_sum_spanning_threshold_only_globally_is_not_lost() {
    // The sharp edge of HAVING under sharding: a key whose *global* sum
    // exceeds the threshold while every equal split would not. Key-aligned
    // routing must put all of its rows on one shard, so the local decision
    // is the global one.
    let mut b = TableBuilder::new(
        "t",
        vec![
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
        ],
        7,
    );
    // key "hot": 40 rows of 30 → sum 1200 (> 1000; any half would be 600).
    // key "cold-i": one row of 1 each.
    for _ in 0..40 {
        b.push_row(vec![Value::Str("hot".into()), Value::Int(30), Value::Int(1)]);
    }
    for i in 0..30 {
        b.push_row(vec![Value::Str(format!("cold-{i}")), Value::Int(1), Value::Int(1)]);
    }
    let table = Arc::new(b.build());
    let cluster = Cluster::default();
    let q = DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 1_000 };
    let base = cluster.run_baseline(&q, &table, None);
    for partitioner in PARTITIONERS {
        for shards in SHARD_COUNTS {
            let run = sharded(&q, &table, ShardSpec::new(shards, partitioner));
            assert_eq!(
                base.output,
                run.output,
                "threshold-spanning key lost at {shards} shards ({})",
                partitioner.name()
            );
        }
    }
}

#[test]
fn streamed_execution_is_deterministic_end_to_end() {
    let cluster = Cluster::default();
    let t = Arc::new(PlannerAdversary::Zipf(1.2).table(1_500, 3, 77));
    for q in [
        DbQuery::Distinct { col: 0 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 10_000 },
    ] {
        let spec = ShardSpec::new(4, ShardPartitioner::Hash);
        let streamed = || {
            let plan = ExecPlan::new(&cluster, &q, &t, None, spec).expect("routes");
            execute(&cluster, &plan).expect("plan fits")
        };
        let (a, b) = (streamed(), streamed());
        assert_eq!(a.output, b.output, "{}", q.kind());
        let rows_a: Vec<u64> = a.per_shard.iter().map(|s| s.rows).collect();
        let rows_b: Vec<u64> = b.per_shard.iter().map(|s| s.rows).collect();
        assert_eq!(rows_a, rows_b, "{}: shard assignment must be deterministic", q.kind());
        assert_eq!(a.breakdown.entries_to_master, b.breakdown.entries_to_master);
    }
}
