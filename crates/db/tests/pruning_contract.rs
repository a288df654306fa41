//! The contract gate of the operator pipeline: for every query `Q` and
//! dataset `D`, running `Q` on the pruned data equals running it on the
//! original — `Q(A_Q(D)) = Q(D)` (§3) — with **all seven** [`DbQuery`]
//! variants driven through the generic executor, including both JOIN pass
//! structures, degenerate tables, invariance under repartitioning, and a
//! JOIN across key types (Int ≠ Str).
//!
//! CI runs this file as an explicitly named step
//! (`cargo test -q -p cheetah-db --test pruning_contract`), so a broken
//! operator or executor change fails loudly even if nothing else notices.

mod common;

use common::{all_seven, gen_table};

use cheetah_db::{Cluster, DataType, DbQuery, QueryOutput, Table, TableBuilder, Value};
use proptest::prelude::*;

/// Run a query on both paths and assert output equality.
fn assert_contract(cluster: &Cluster, q: &DbQuery, left: &Table, right: Option<&Table>) {
    let base = cluster.run_baseline(q, left, right);
    let chee = cluster.run_cheetah(q, left, right).expect("plan fits");
    assert_eq!(base.output, chee.output, "{} diverged", q.kind());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_variant_through_the_generic_executor(
        seed in any::<u64>(),
        rows in 150usize..1_200,
        keys in 1u64..200,
        partitions in 1usize..6,
    ) {
        let cluster = Cluster::default();
        let table = gen_table(rows, keys, partitions, seed);
        let right = gen_table(rows / 2 + 1, keys.saturating_mul(2).max(1), 2, seed ^ 0xFF);
        let threshold = (rows as i64) * 20;
        let queries = all_seven(threshold);
        prop_assert_eq!(queries.len(), 7, "one query per DbQuery variant");
        for q in queries {
            let right_of = q.is_binary().then_some(&right);
            let base = cluster.run_baseline(&q, &table, right_of);
            let chee = cluster.run_cheetah(&q, &table, right_of).expect("plan fits");
            if q.is_binary() {
                // Default tuning drives JOIN's two-pass Bloom structure.
                prop_assert_eq!(chee.breakdown.passes, 2, "two-pass join path");
            }
            prop_assert_eq!(
                base.output,
                chee.output,
                "query {} diverged (seed {}, rows {}, keys {})",
                q.kind(),
                seed,
                rows,
                keys
            );
        }
    }

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
    let cluster = Cluster::default();
    let table = gen_table(0, 1, 1, 7);
    let right = gen_table(0, 1, 1, 8);
    for q in all_seven(10) {
        assert_contract(&cluster, &q, &table, q.is_binary().then_some(&right));
    }
}

#[test]
fn single_row_table_every_variant() {
    let cluster = Cluster::default();
    let table = gen_table(1, 1, 1, 9);
    let right = gen_table(1, 1, 1, 11);
    for q in all_seven(0) {
        assert_contract(&cluster, &q, &table, q.is_binary().then_some(&right));
    }
}

#[test]
fn constant_table_every_variant() {
    // Degenerate distributions stress the dedup paths.
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
    let table = b.build();
    let cluster = Cluster::default();
    for q in all_seven(100) {
        assert_contract(&cluster, &q, &table, q.is_binary().then_some(&table));
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
