//! The contract gate of the operator pipeline: for every query `Q` and
//! dataset `D`, running `Q` on the pruned data equals running it on the
//! original — `Q(A_Q(D)) = Q(D)` (§3) — whatever form the data is stored
//! in. Every generated case (`common::for_each_case`: the grid over keys
//! that repeat, so the load rule codes them, then over the empty table —
//! all seven [`DbQuery`] variants, both JOIN pass structures, 1–5
//! partitions, JOINs across key types) is
//! held to `common::check`, and then to this gate's own property: **coded
//! and plain copies of a table give the same answer** — the table as
//! loaded, its repeating strings coded, against the same rows held plain
//! in one partition, on the same layout and arm. The one JOIN that a
//! Bloom filter too small to prune anything hands whole to the master's
//! exact join stays a scenario.
//!
//! CI runs this file as an explicitly named step
//! (`cargo test -q -p cheetah-db --test pruning_contract`), so a broken
//! operator or executor change fails loudly even if nothing else notices.

mod common;

use common::{check, for_each_case, Case, Gate, EMPTY, REPEATING};

use cheetah_db::{Cluster, DataType, DbQuery, ExecBackend, QueryOutput, TableBuilder, Value};

#[test]
fn coded_and_plain_storage_answer_alike() {
    for_each_case("pruning_contract", Gate::Exec, &[REPEATING, EMPTY], 0, |case, ran| {
        let twin = check(&Case { coded: case.coded.map(|c| !c), ..case.clone() });
        let output = |exec: &Option<(_, cheetah_runtime::ExecRun)>| {
            exec.as_ref().map(|(_, run)| run.output.clone())
        };
        assert_eq!(output(&ran.exec), output(&twin.exec), "coded against plain");
    });
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

    const INTERP: ExecBackend = ExecBackend::Interpreted;
    let mixed = cluster.run_cheetah(&q, &ints, Some(&strs), INTERP).expect("plan fits");
    assert_eq!(mixed.breakdown.entries_to_master, 800, "nothing pruned");
    assert_eq!(mixed.output, QueryOutput::JoinPairs(0));
    assert_eq!(mixed.output, cluster.run_baseline(&q, &ints, Some(&strs)).output);
    // The same rows under one type do join: 2 × 2 per key.
    let same = cluster.run_cheetah(&q, &strs, Some(&strs), INTERP).expect("plan fits");
    assert_eq!(same.output, QueryOutput::JoinPairs(800));
    assert_eq!(same.output, cluster.run_baseline(&q, &strs, Some(&strs)).output);
}
