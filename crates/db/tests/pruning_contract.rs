//! The contract gate of the operator pipeline: for every query `Q` and
//! dataset `D`, running `Q` on the pruned data equals running it on the
//! original — `Q(A_Q(D)) = Q(D)` (§3). **All seven** [`DbQuery`] variants
//! are driven through the generic executor by the shared execution grid
//! (`for_each_exec_case`, walked by the shard, compiled and planner
//! gates), whose one-shard layout runs `Cluster::run_cheetah` on the
//! tables themselves. This file keeps what the grid does not reach: the
//! empty table (an empty unit never reaches the executor), both JOIN pass
//! structures, invariance under repartitioning, and a JOIN across key
//! types (Int ≠ Str).
//!
//! CI runs this file as an explicitly named step
//! (`cargo test -q -p cheetah-db --test pruning_contract`), so a broken
//! operator or executor change fails loudly even if nothing else notices.

mod common;

use common::{all_seven, gen_table};

use cheetah_db::{Cluster, DataType, DbQuery, QueryOutput, TableBuilder, Value};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn join_contract_holds_in_both_pass_structures(
        seed in any::<u64>(),
        rows_l in 80usize..500,
        rows_r in 200usize..900,
        keys in 1u64..250,
    ) {
        let left = gen_table(rows_l, keys, 2, seed);
        let right = gen_table(rows_r, keys.saturating_mul(2).max(1), 3, seed ^ 0xBEEF);
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let mut cluster = Cluster::default();
        let base = cluster.run_baseline(&q, &left, Some(&right));

        let two_pass = cluster.run_cheetah(&q, &left, Some(&right)).expect("plan fits");
        prop_assert_eq!(two_pass.breakdown.passes, 2);
        prop_assert_eq!(&base.output, &two_pass.output);

        cluster.tuning.join_mode = cheetah_core::JoinMode::SmallTableFirst;
        let small_first = cluster.run_cheetah(&q, &left, Some(&right)).expect("plan fits");
        prop_assert_eq!(small_first.breakdown.passes, 1, "each table streams once");
        prop_assert_eq!(&base.output, &small_first.output);
    }

    #[test]
    fn repartitioning_is_invisible(
        seed in any::<u64>(),
        rows in 100usize..600,
        parts_a in 1usize..5,
        parts_b in 5usize..9,
    ) {
        // Figure 6 varies workers; outputs must be invariant on both paths.
        let cluster = Cluster::default();
        let table = gen_table(rows, 40, parts_a, seed);
        let re = table.repartition(parts_b);
        for q in [DbQuery::Distinct { col: 0 }, DbQuery::TopN { order_col: 1, n: 9 }] {
            let a = cluster.run_cheetah(&q, &table, None).expect("plan").output;
            let b = cluster.run_cheetah(&q, &re, None).expect("plan").output;
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn empty_table_every_variant() {
    // The grid's one-shard point skips an empty unit, so the executor's
    // empty input is run here, directly.
    let cluster = Cluster::default();
    let (table, right) = (gen_table(0, 1, 1, 7), gen_table(0, 1, 1, 8));
    for q in all_seven(10) {
        let right_of = q.is_binary().then_some(&right);
        let chee = cluster.run_cheetah(&q, &table, right_of).expect("plan fits");
        assert_eq!(cluster.run_baseline(&q, &table, right_of).output, chee.output, "{}", q.kind());
    }
}

#[test]
fn join_keys_of_different_types_never_match() {
    // Int 7 and Str "7" are different keys, to the baseline's owned
    // `Value`s and to the executor's borrowed-key join alike. 200 keys
    // saturate a 64-bit Bloom filter, so every row of both sides survives
    // the switch and the master's exact join has to tell them apart.
    let numbers = |ty: DataType| {
        let mut b = TableBuilder::new("numbers", vec![("k".into(), ty)], 150);
        for i in 0..400i64 {
            b.push_row(vec![match ty {
                DataType::Int => Value::Int(i % 200),
                DataType::Str => Value::Str((i % 200).to_string()),
            }]);
        }
        b.build()
    };
    let (ints, strs) = (numbers(DataType::Int), numbers(DataType::Str));
    let mut cluster = Cluster::default();
    cluster.tuning.join_m_bits = 64;
    let q = DbQuery::Join { left_key: 0, right_key: 0 };

    let mixed = cluster.run_cheetah(&q, &ints, Some(&strs)).expect("plan fits");
    assert_eq!(mixed.breakdown.entries_to_master, 800, "nothing pruned");
    assert_eq!(mixed.output, QueryOutput::JoinPairs(0));
    assert_eq!(mixed.output, cluster.run_baseline(&q, &ints, Some(&strs)).output);
    // The same rows under one type do join: 2 × 2 per key.
    let same = cluster.run_cheetah(&q, &strs, Some(&strs)).expect("plan fits");
    assert_eq!(same.output, QueryOutput::JoinPairs(800));
    assert_eq!(same.output, cluster.run_baseline(&q, &strs, Some(&strs)).output);
}
