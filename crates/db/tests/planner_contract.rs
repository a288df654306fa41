//! The planner contract gate, the third named CI tier after the pruning
//! and shard gates. Four properties, each load-bearing:
//!
//! 1. **Correctness** — every generated case (`common::for_each_case`:
//!    the grid, whose fitted points are fitted by a planner of random
//!    sample size, then random draws over generated tables and the
//!    planner-adversarial family {uniform, zipf(1.0), zipf(1.5),
//!    single-hot-key}) answers like the baseline on every path and
//!    backend: the planner may change *where* rows go, never *what* the
//!    query answers. `common::check` holds a fitted layout to the
//!    planner's facts: its plan recorded, its shard count the plan's, the
//!    sample the whole table when the table is smaller than it, and an
//!    empty table or one key planned to one shard, which is the table
//!    itself.
//! 2. **Determinism** — same seed + same tables ⇒ the identical
//!    [`ShardPlan`] and the identical shard assignment, the tables rebuilt
//!    from the same draw included (reservoir sampling must not smuggle in
//!    nondeterminism).
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

use common::{fitted, for_each_case, Gate, Layout, ADVERSARIES};

use cheetah_db::value::encode_ordered_i64;
use cheetah_db::{
    routing_keys, DataType, DbPredicate, DbQuery, IntCmp, PlannerConfig, ShardPlanner, Table,
    TableBuilder, Value,
};
use cheetah_runtime::ExecPlan;
use cheetah_switch::{hash::mix64, HashFn};
use cheetah_workloads::{BigDataConfig, PlannerAdversary, SkewedTableConfig};

/// Properties 1 and 2: every case held to `common::check`; a fitted one
/// fitted again, over the tables rebuilt from the case, gives the plan
/// its layout recorded, and routes every row where that layout did.
#[test]
fn planned_runs_match_baseline_and_plans_are_deterministic() {
    for_each_case("planner_contract", Gate::Exec, &ADVERSARIES, 30, |case, ran| {
        let (Layout::Fitted { sample_size }, Some((plan, _))) = (case.layout, &ran.exec) else {
            return;
        };
        let (left, right) = case.tables();
        let right = ran.q.is_binary().then_some(&right);
        let planner = ShardPlanner::new(PlannerConfig { sample_size });
        let again = fitted(&ran.cluster, &planner, &ran.q, &left, right);
        assert_eq!(Some(&again), plan.shard_plan(), "the plan depends on (seed, data) alone");
        let routed = ExecPlan::new(&ran.cluster, &ran.q, &left, right, again).expect("routes");
        assert_eq!(routed.dispatched(), plan.dispatched(), "the shard assignment is deterministic");
    });
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
