//! The planner contract gate, the third named CI tier after the pruning
//! and shard gates: the one shard-count rule (`cheetah_db::planner::units`)
//! and the routing keys every layout is split by. Four properties, each
//! load-bearing:
//!
//! 1. **Correctness** — every generated case (`common::for_each_case`:
//!    the grid walked over each routing adversary {uniform, zipf(1.0),
//!    zipf(1.5), single-hot-key}, then random draws) answers like the
//!    baseline on every path and backend, the grid's served point — the
//!    layout the serving plane would hold — included: a layout may change
//!    *where* rows go, never *what* the query answers. `common::check`
//!    holds a served case to the rule's count.
//! 2. **Determinism** — the same layout over the tables rebuilt from the
//!    same draw routes every row to the same shard.
//! 3. **Routing keys** — the keys every layout is split by are a golden:
//!    the switch encoding of the query's key column, or a row-id hash. A
//!    key that moves re-routes rows; that is a finding, not a golden to
//!    refresh.
//! 4. **Chosen counts** — the rule's shard count over the Big Data tables
//!    at a tenth of the benchmark's rows, the adversarial family and one
//!    tenant-sized table is a golden too: all one unit but the JOIN, whose
//!    plain URL keys take the floor of two.

mod common;

use common::{for_each_case, Gate, ADVERSARIES};

use cheetah_db::value::encode_ordered_i64;
use cheetah_db::{
    routing_keys, units, DataType, DbPredicate, DbQuery, IntCmp, Table, TableBuilder, Value,
};
use cheetah_runtime::ExecPlan;
use cheetah_switch::{hash::mix64, HashFn};
use cheetah_workloads::{BigDataConfig, PlannerAdversary, SkewedTableConfig};

/// Properties 1 and 2: every case held to `common::check`; its layout
/// routed again over the tables rebuilt from the case routes every row
/// where the first routing did.
#[test]
fn routed_runs_match_baseline_and_layouts_are_deterministic() {
    for_each_case("planner_contract", Gate::Exec, &ADVERSARIES, 30, |case, ran| {
        let Some((plan, _)) = &ran.exec else { return };
        let (left, right) = case.tables();
        let right = ran.q.is_binary().then_some(&right);
        let shards = case.shards(&ran.q, &left, right.map(|r| &**r));
        let routed = ExecPlan::new(&ran.cluster, &ran.q, &left, right, shards).expect("routes");
        assert_eq!(routed.dispatched(), plan.dispatched(), "the shard assignment is deterministic");
    });
}

// ---------------------------------------------------------------------
// Chosen counts
// ---------------------------------------------------------------------

/// The pool width the golden is read at: the benchmark's 2-core box.
const WORKERS: usize = 2;

/// The rule's shard count for every query below, as `(label, shards)`.
fn chosen_counts() -> Vec<(String, usize)> {
    let mut counts = Vec::new();
    let mut pin = |label: String, q: &DbQuery, left: &Table, right: Option<&Table>| {
        counts.push((label, units(q, left, right, WORKERS)));
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

    // The routing-adversarial family.
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

    // One tenant-sized table.
    let tenant =
        SkewedTableConfig { rows: 6_000, keys: 100, ..SkewedTableConfig::default() }.build();
    for q in [
        DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Lt, lit: 10_000 } },
        DbQuery::TopN { order_col: 1, n: 100 },
    ] {
        pin(format!("tenant {}", q.kind()), &q, &tenant, None);
    }
    counts
}

/// A count that moves re-lays rows out; like the routing keys below, that
/// is a finding, not a golden to refresh.
#[test]
fn the_shard_count_rule_chooses_the_pinned_counts() {
    let want: &[(&str, usize)] = &[
        ("bigdata filter-count", 1),
        ("bigdata distinct", 1),
        ("bigdata skyline", 1),
        ("bigdata topn", 1),
        ("bigdata groupby-max", 1),
        ("bigdata join", 2),
        ("bigdata having-sum", 1),
        ("uniform distinct", 1),
        ("uniform topn", 1),
        ("uniform groupby-max", 1),
        ("zipf(1) distinct", 1),
        ("zipf(1) topn", 1),
        ("zipf(1) groupby-max", 1),
        ("zipf(1.5) distinct", 1),
        ("zipf(1.5) topn", 1),
        ("zipf(1.5) groupby-max", 1),
        ("single-hot-key distinct", 1),
        ("single-hot-key topn", 1),
        ("single-hot-key groupby-max", 1),
        ("tenant filter-count", 1),
        ("tenant topn", 1),
    ];
    let got = chosen_counts();
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
