//! The shard equivalence gate: `Q(merge(shards(D))) = Q(D)` for **all
//! seven** [`DbQuery`] variants, across the grid's layouts — the one-shard
//! layout, 2 and 7 shards, and the layout the serving plane would hold
//! (the one shard-count rule's count), every one hash-routed — on the
//! barrier (both backends) and the direct arm.
//!
//! The cases are generated (`common::for_each_case`): the grid's 84
//! points first, then random draws, each over tables drawn from its seed —
//! 0, 1 and fewer rows than shards included, one key, constant ints, and
//! ints over the whole `i64` range. Every case is held to `common::check`
//! (the baseline's answer, the layout honoured, no row lost in routing,
//! the merge discipline, the one key co-located, pass-through accounting
//! on the direct arm). CI runs this
//! file as an explicitly named step
//! (`cargo test -q -p cheetah-db --test shard_contract`), so a broken
//! router or merge rule fails loudly even if nothing else notices.

mod common;

use common::{for_each_case, run_barrier, Gate, EDGE_TABLES};

use cheetah_db::{Cluster, DataType, DbQuery, ExecBackend, Table, TableBuilder, Value};
use cheetah_workloads::PlannerAdversary;
use std::sync::Arc;

#[test]
fn merge_of_shards_equals_the_unsharded_query() {
    for_each_case("shard_contract", Gate::Exec, &EDGE_TABLES, 100, |_, _| {});
}

/// One barrier run at a hand-picked shard count.
fn sharded(q: &DbQuery, t: &Arc<Table>, shards: usize) -> cheetah_runtime::ExecRun {
    run_barrier(&Cluster::default(), ExecBackend::Interpreted, q, t, None, shards)
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
    for shards in [1, 2, 7] {
        let run = sharded(&q, &table, shards);
        assert_eq!(base.output, run.output, "threshold-spanning key lost at {shards} shards");
    }
}

#[test]
fn sharded_execution_is_deterministic_end_to_end() {
    let t = Arc::new(PlannerAdversary::Zipf(1.2).table(1_500, 3, 77));
    for q in [
        DbQuery::Distinct { col: 0 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 10_000 },
    ] {
        let (a, b) = (sharded(&q, &t, 4), sharded(&q, &t, 4));
        assert_eq!(a.output, b.output, "{}", q.kind());
        let rows_a: Vec<u64> = a.per_shard.iter().map(|s| s.rows).collect();
        let rows_b: Vec<u64> = b.per_shard.iter().map(|s| s.rows).collect();
        assert_eq!(rows_a, rows_b, "{}: shard assignment must be deterministic", q.kind());
        assert_eq!(a.breakdown.entries_to_master, b.breakdown.entries_to_master);
    }
}
