//! Shared fixtures for the engine/executor/operator test modules.

use crate::executor::Tables;
use crate::expr::{DbPredicate, IntCmp};
use crate::operators::Survivors;
use crate::query::DbQuery;
use crate::table::{Table, TableBuilder};
use crate::value::{DataType, Value};

/// A small deterministic table: key strings, two int columns.
pub(crate) fn test_table(rows: usize, partitions: usize) -> Table {
    let mut b = TableBuilder::new(
        "t",
        vec![
            ("agent".into(), DataType::Str),
            ("revenue".into(), DataType::Int),
            ("duration".into(), DataType::Int),
        ],
        rows.div_ceil(partitions),
    );
    let mut x: u64 = 42;
    for _ in 0..rows {
        x = cheetah_switch::hash::mix64(x);
        let agent = format!("agent-{}", x % 50);
        x = cheetah_switch::hash::mix64(x);
        let revenue = (x % 10_000) as i64;
        x = cheetah_switch::hash::mix64(x);
        let duration = (x % 100) as i64;
        b.push_row(vec![Value::Str(agent), Value::Int(revenue), Value::Int(duration)]);
    }
    b.build()
}

/// The identity selection spelled out as row ids — every row of every
/// partition of the first `streams` streams of `src`, kept the way a
/// pruning pass keeps what the switch forwards — so a completion can be
/// run over both selection kinds of the same rows.
pub(crate) fn every_row(src: &Tables<'_>, streams: usize) -> Survivors {
    let mut kept = Survivors::none(src, streams).expect("the source carries every stream");
    for s in 0..streams {
        for (p, part) in src.stream(s).expect("checked above").partitions().iter().enumerate() {
            kept.keep(s, p, &(0..part.rows() as u32).collect::<Vec<_>>());
        }
    }
    kept
}

/// Every unary query shape over [`test_table`]'s schema.
pub(crate) fn all_queries() -> Vec<DbQuery> {
    vec![
        DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 2, op: IntCmp::Lt, lit: 10 } },
        DbQuery::Distinct { col: 0 },
        DbQuery::TopN { order_col: 1, n: 25 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::Skyline { cols: vec![1, 2] },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 50_000 },
    ]
}
