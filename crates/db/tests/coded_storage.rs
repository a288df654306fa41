//! Coded storage answers like plain storage: a table whose repeating
//! string columns were coded at load (`TableBuilder::build`) must give
//! every query family the answer `run_baseline` gives, bit for bit, on the
//! direct arm and the pruned arm, at first sight (the tables whole, one
//! shard) and warm (a routed layout) — and so must the same rows held
//! plain.
//!
//! The inputs are generated from seeds and cover, beside coded tables and
//! the same rows left plain: a JOIN whose two dictionaries share only
//! part of their strings; a JOIN whose one side is coded and whose other
//! is near-unique, so left plain by the load rule; a column holding one
//! string; and empty partitions.

use cheetah_db::{
    Cluster, Column, DataType, DbPredicate, DbQuery, ExecPath, IntCmp, LikePattern, Partition,
    QueryOutput, Table, TableBuilder, Value,
};
use cheetah_serve::{QueryRequest, Session, SessionConfig};
use cheetah_switch::hash::mix64;
use std::sync::Arc;

/// `key: Str, a: Int, b: Int` over the partition sizes given (a zero is an
/// empty partition), the key drawn by `key(draw)`.
fn table(sizes: &[usize], seed: u64, key: impl Fn(u64, usize) -> String) -> Table {
    let fields = vec![
        ("key".into(), DataType::Str),
        ("a".into(), DataType::Int),
        ("b".into(), DataType::Int),
    ];
    let mut b = TableBuilder::new("t", fields, usize::MAX);
    let mut x = seed | 1;
    let mut row = 0;
    for (i, &size) in sizes.iter().enumerate() {
        for _ in 0..size {
            x = mix64(x);
            let k = key(x, row);
            x = mix64(x);
            let (a, bb) = ((x % 10_000) as i64, (x >> 32) as i64 % 500);
            b.push_row(vec![Value::Str(k), Value::Int(a), Value::Int(bb)]);
            row += 1;
        }
        if i + 1 < sizes.len() {
            b.cut_partition();
        }
    }
    b.build()
}

/// `t`'s rows as one partition, nothing coded: the same cells as the
/// table held before the load rule.
fn plain(t: &Table) -> Table {
    let column = |c: usize| {
        let cols = t.partitions().iter().map(move |p| p.column(c));
        match t.fields()[c].1 {
            DataType::Int => {
                Column::Int(cols.flat_map(|col| col.as_int().unwrap()).copied().collect())
            }
            DataType::Str => {
                Column::Str(cols.flat_map(|col| col.as_str().unwrap()).cloned().collect())
            }
        }
    };
    let cols = (0..t.fields().len()).map(column).collect();
    Table::from_partition(t.name(), t.fields().to_vec(), Partition::new(cols))
}

/// All seven families over the schema; the filter's LIKE reads the key.
fn queries(threshold: i64) -> Vec<DbQuery> {
    vec![
        DbQuery::FilterCount {
            pred: DbPredicate::Or(vec![
                DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 9_500 },
                DbPredicate::Like { col: 0, pattern: LikePattern::parse("both-1%") },
            ]),
        },
        DbQuery::Distinct { col: 0 },
        DbQuery::TopN { order_col: 1, n: 9 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::Skyline { cols: vec![1, 2] },
        DbQuery::HavingSum { key_col: 0, val_col: 2, threshold },
        DbQuery::Join { left_key: 0, right_key: 0 },
    ]
}

/// Named (left, right) pairs generated from `seed`.
fn inputs(seed: u64) -> Vec<(&'static str, Arc<Table>, Arc<Table>)> {
    // Strings both sides hold, and strings only one side holds.
    let shared = |side: &'static str| {
        move |x: u64, _| {
            if x.is_multiple_of(3) {
                format!("{side}-{}", x % 23)
            } else {
                format!("both-{}", x % 41)
            }
        }
    };
    let left = table(&[900, 0, 700, 1, 400], seed, shared("left"));
    let right = table(&[0, 500, 300], seed ^ 0xB0B, shared("right"));
    let unique = table(&[600, 600], seed ^ 0x0E1, |x, row| format!("both-{}-{row}", x % 41));
    let one = table(&[0, 300, 0, 250], seed ^ 0x1, |_, _| "both-1".to_string());
    for (name, t, coded) in [
        ("left", &left, true),
        ("right", &right, true),
        ("unique", &unique, false),
        ("one", &one, true),
    ] {
        assert_eq!(t.is_coded(0), coded, "{name}: the load rule");
        assert!(!t.is_coded(1) && !t.is_coded(2), "{name}: int columns are never coded");
    }
    let arc = |t: &Table| Arc::new(t.clone());
    vec![
        ("coded, dictionaries sharing part", arc(&left), arc(&right)),
        ("the same rows plain", arc(&plain(&left)), arc(&plain(&right))),
        ("coded against plain", arc(&left), arc(&plain(&right))),
        ("coded against near-unique", arc(&left), arc(&unique)),
        ("one string against coded", arc(&one), arc(&left)),
        ("one string, self-join", arc(&one), arc(&one)),
    ]
}

/// Every family over every input, through the front door: unpinned (first
/// sight direct and whole, second sight pruned on a fitted layout, then the
/// verdict's arm warm), and pinned to each arm at first sight and warm on
/// the one-shard layout and on a three-shard routed one.
#[test]
fn coded_storage_answers_bit_identically_to_the_baseline() {
    let cluster = Cluster::default();
    for seed in [3, 0x5EED, 0xC0DE] {
        for (name, left, right) in inputs(seed) {
            let threshold = left.rows() as i64 * 250 / 41;
            for q in queries(threshold) {
                let want = cluster.run_baseline(&q, &left, Some(&right)).output;
                let request = || {
                    let req = QueryRequest::new(q.clone(), Arc::clone(&left));
                    if q.is_binary() {
                        req.with_right(Arc::clone(&right))
                    } else {
                        req
                    }
                };
                let at = |how: &str| format!("{name} (seed {seed:#x}): {} {how}", q.kind());
                let check = |session: &Session, req: QueryRequest, how: &str| {
                    let resp = session.run_blocking(req);
                    let got: QueryOutput =
                        resp.unwrap_or_else(|e| panic!("{}: {e}", at(how))).output;
                    assert_eq!(got, want, "{}", at(how));
                };
                let session = Session::new(cluster.clone(), SessionConfig::default());
                for sight in ["first sight", "second sight", "warm"] {
                    check(&session, request(), sight);
                }
                for path in [ExecPath::Direct, ExecPath::BarrierPooled] {
                    for shards in [1, 3] {
                        let session = Session::new(cluster.clone(), SessionConfig::default());
                        for sight in ["first sight", "warm"] {
                            let how = format!("{} @{shards}, {sight}", path.label());
                            check(&session, request().path(path).shards(shards), &how);
                        }
                    }
                }
            }
        }
    }
}
