//! Query specifications and normalized outputs.
//!
//! The seven query shapes mirror the paper's benchmark queries (Appendix
//! B). Outputs are *normalized* (sorted / keyed) so the baseline path and
//! the Cheetah path can be compared with `==` — the pruning correctness
//! contract `Q(A_Q(D)) = Q(D)` is checked exactly this way throughout the
//! test-suite.

use crate::expr::DbPredicate;
use crate::table::Table;
use crate::value::{DataType, Value};
use cheetah_core::FilterPruner;
use cheetah_net::MAX_ENTRY_SLOTS;
use std::collections::BTreeMap;

/// A query over one table (or two, for JOIN).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DbQuery {
    /// `SELECT COUNT(*) FROM t WHERE <pred>` — benchmark query 1
    /// (BigData A).
    FilterCount {
        /// The WHERE predicate.
        pred: DbPredicate,
    },
    /// `SELECT DISTINCT <col> FROM t` — benchmark query 2.
    Distinct {
        /// The projected column.
        col: usize,
    },
    /// `SELECT * FROM t SKYLINE OF <cols>` (maximizing) — benchmark
    /// query 3.
    Skyline {
        /// The skyline dimensions (int columns).
        cols: Vec<usize>,
    },
    /// `SELECT TOP <n> * FROM t ORDER BY <order_col> DESC` — benchmark
    /// query 4. Output is normalized to the sorted multiset of order
    /// values (tie-breaking among equal values is unspecified in SQL).
    TopN {
        /// The ORDER BY column (int).
        order_col: usize,
        /// How many rows to return.
        n: usize,
    },
    /// `SELECT <key>, MAX(<val>) FROM t GROUP BY <key>` — benchmark
    /// query 5.
    GroupByMax {
        /// Grouping column.
        key_col: usize,
        /// Aggregated int column.
        val_col: usize,
    },
    /// `SELECT * FROM left JOIN right ON left.<lk> = right.<rk>` —
    /// benchmark query 6. Output is normalized to the join-pair count.
    Join {
        /// Key column in the left table.
        left_key: usize,
        /// Key column in the right table.
        right_key: usize,
    },
    /// `SELECT <key> FROM t GROUP BY <key> HAVING SUM(<val>) > <c>` —
    /// benchmark query 7 (BigData B's offloadable form).
    HavingSum {
        /// Grouping column.
        key_col: usize,
        /// Summed int column.
        val_col: usize,
        /// The threshold `c`.
        threshold: i64,
    },
}

impl DbQuery {
    /// Short name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            DbQuery::FilterCount { .. } => "filter-count",
            DbQuery::Distinct { .. } => "distinct",
            DbQuery::Skyline { .. } => "skyline",
            DbQuery::TopN { .. } => "topn",
            DbQuery::GroupByMax { .. } => "groupby-max",
            DbQuery::Join { .. } => "join",
            DbQuery::HavingSum { .. } => "having-sum",
        }
    }

    /// Does the query read two tables?
    pub fn is_binary(&self) -> bool {
        matches!(self, DbQuery::Join { .. })
    }

    /// The columns of stream `stream` the query reads — to encode, to
    /// route by, or to complete from — ascending and deduplicated. Every
    /// other column of the table is dead weight to a shard that runs only
    /// this query.
    pub fn columns(&self, stream: usize) -> Vec<usize> {
        let mut cols = match self {
            DbQuery::FilterCount { pred } => return pred.columns(),
            DbQuery::Distinct { col } => vec![*col],
            DbQuery::Skyline { cols } => cols.clone(),
            DbQuery::TopN { order_col, .. } => vec![*order_col],
            DbQuery::GroupByMax { key_col, val_col }
            | DbQuery::HavingSum { key_col, val_col, .. } => vec![*key_col, *val_col],
            DbQuery::Join { left_key, .. } if stream == 0 => vec![*left_key],
            DbQuery::Join { right_key, .. } => vec![*right_key],
        };
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Can the query read these tables? Every stream it reads must be
    /// there ([`MissingStream`](cheetah_core::Error::MissingStream)), and
    /// every column it names must be inside that stream's schema and of a
    /// type the family can read there — `Int` where it orders, aggregates,
    /// sums, dominates or compares, `Str` under `LIKE`; keys of either
    /// type — or the request is a typed
    /// [`BadColumn`](cheetah_core::Error::BadColumn). Requests come from
    /// outside the program; the operators index columns unchecked.
    ///
    /// Before the tables are looked at, the query itself must give its
    /// family's switch program something to evaluate per entry and no more
    /// than it holds: SKYLINE one dimension per entry slot; a filter one to
    /// [`MAX_ATOMS`](cheetah_core::FilterPruner::MAX_ATOMS) atoms anywhere
    /// in its predicate tree — else a typed
    /// [`BadArity`](cheetah_core::Error::BadArity), where the program
    /// builders assert — over at most an entry's slots of distinct `Int`
    /// columns ([`ValueSlotOverflow`](cheetah_core::Error::ValueSlotOverflow),
    /// as the encode loop reports it); and a HAVING threshold the unsigned
    /// sketch can decide, `c ≥ 0` (else the typed
    /// [`UnsupportedOp`](cheetah_switch::SwitchError::UnsupportedOp) its
    /// program refuses with). The direct arm never builds that
    /// program, so this is where both arms learn that a request is not
    /// one — identically, before either runs.
    pub fn check(&self, left: &Table, right: Option<&Table>) -> cheetah_core::Result<()> {
        self.check_arity()?;
        if matches!(self, DbQuery::HavingSum { threshold, .. } if *threshold < 0) {
            return Err(crate::operators::negative_threshold());
        }
        // (stream, column, the type it is read as — `None`: either).
        let key = |stream, col: &usize| (stream, *col, None);
        let int = |col: &usize| (0, *col, Some(DataType::Int));
        let reads: Vec<(usize, usize, Option<DataType>)> = match self {
            DbQuery::FilterCount { pred } => {
                pred.typed_columns().into_iter().map(|(col, t)| (0, col, Some(t))).collect()
            }
            DbQuery::Distinct { col } => vec![key(0, col)],
            DbQuery::Skyline { cols } => cols.iter().map(int).collect(),
            DbQuery::TopN { order_col, .. } => vec![int(order_col)],
            DbQuery::GroupByMax { key_col, val_col }
            | DbQuery::HavingSum { key_col, val_col, .. } => vec![key(0, key_col), int(val_col)],
            DbQuery::Join { left_key, right_key } => vec![key(0, left_key), key(1, right_key)],
        };
        for (stream, col, want) in reads {
            let table = match stream {
                0 => left,
                _ => right.ok_or(cheetah_core::Error::MissingStream { stream })?,
            };
            match table.fields().get(col) {
                Some((_, have)) if want.is_none_or(|want| want == *have) => {}
                _ => return Err(cheetah_core::Error::BadColumn { stream, col }),
            }
        }
        Ok(())
    }

    /// Does the query name between one and as many terms as its family's
    /// switch program evaluates per entry? (The other five families take
    /// a fixed number of columns.)
    fn check_arity(&self) -> cheetah_core::Result<()> {
        let (got, max) = match self {
            DbQuery::Skyline { cols } => (cols.len(), MAX_ENTRY_SLOTS),
            DbQuery::FilterCount { pred } => {
                let slots = pred.int_columns().len();
                if slots > MAX_ENTRY_SLOTS {
                    let (got, max) = (slots, MAX_ENTRY_SLOTS);
                    return Err(cheetah_core::Error::ValueSlotOverflow { got, max });
                }
                (pred.typed_columns().len(), FilterPruner::MAX_ATOMS)
            }
            _ => return Ok(()),
        };
        if (1..=max).contains(&got) {
            Ok(())
        } else {
            Err(cheetah_core::Error::BadArity { family: self.kind(), got, max })
        }
    }

    /// The same query over tables that carry only [`columns`](Self::columns)
    /// of each stream, in that order: every column index becomes its
    /// position there. Parameter *order* is kept (SKYLINE's dimensions
    /// stay in the order asked), so the remapped query answers over the
    /// projection exactly what this one answers over the full tables.
    pub fn remapped(&self) -> DbQuery {
        let left = self.columns(0);
        let at = |col: &usize| left.binary_search(col).expect("a column the query reads");
        match self {
            DbQuery::FilterCount { pred } => DbQuery::FilterCount { pred: pred.remapped(&left) },
            DbQuery::Distinct { col } => DbQuery::Distinct { col: at(col) },
            DbQuery::Skyline { cols } => DbQuery::Skyline { cols: cols.iter().map(at).collect() },
            DbQuery::TopN { order_col, n } => DbQuery::TopN { order_col: at(order_col), n: *n },
            DbQuery::GroupByMax { key_col, val_col } => {
                DbQuery::GroupByMax { key_col: at(key_col), val_col: at(val_col) }
            }
            // Each side of a join projects to its key alone.
            DbQuery::Join { .. } => DbQuery::Join { left_key: 0, right_key: 0 },
            DbQuery::HavingSum { key_col, val_col, threshold } => DbQuery::HavingSum {
                key_col: at(key_col),
                val_col: at(val_col),
                threshold: *threshold,
            },
        }
    }
}

/// Normalized query output, comparable with `==` across execution paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutput {
    /// A row count.
    Count(u64),
    /// A sorted set of values (DISTINCT).
    Values(Vec<Value>),
    /// Sorted-descending multiset of the order column's top values.
    TopValues(Vec<i64>),
    /// Key → aggregate (GROUP BY MAX, HAVING sums).
    KeyedInts(BTreeMap<Value, i64>),
    /// Join-pair count.
    JoinPairs(u64),
    /// Sorted set of skyline points.
    Points(Vec<Vec<i64>>),
}

impl QueryOutput {
    /// Construct a normalized [`QueryOutput::Values`].
    pub fn values(mut vals: Vec<Value>) -> Self {
        vals.sort();
        vals.dedup();
        QueryOutput::Values(vals)
    }

    /// Construct a normalized [`QueryOutput::TopValues`].
    pub fn top_values(mut vals: Vec<i64>) -> Self {
        vals.sort_unstable_by(|a, b| b.cmp(a));
        QueryOutput::TopValues(vals)
    }

    /// Construct a normalized [`QueryOutput::Points`].
    pub fn points(mut pts: Vec<Vec<i64>>) -> Self {
        pts.sort();
        pts.dedup();
        QueryOutput::Points(pts)
    }

    /// Rows of the result this output normalizes — what a worker that
    /// computed it as a partial stands to ship: a `COUNT(*)` is one row;
    /// a join's result is its pairs (this repo compares joins by their
    /// pair count, so that is what the variant holds); every other variant
    /// holds its rows. The direct arm accounts a shard's partial by it, so
    /// what it reports to the master depends on the data, not only on the
    /// shard count.
    pub fn result_rows(&self) -> u64 {
        match self {
            QueryOutput::JoinPairs(pairs) => *pairs,
            other => other.cardinality(),
        }
    }

    /// Rough output cardinality (rows/keys/points), for reports.
    pub fn cardinality(&self) -> u64 {
        match self {
            QueryOutput::Count(_) | QueryOutput::JoinPairs(_) => 1,
            QueryOutput::Values(v) => v.len() as u64,
            QueryOutput::TopValues(v) => v.len() as u64,
            QueryOutput::KeyedInts(m) => m.len() as u64,
            QueryOutput::Points(p) => p.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{IntCmp, LikePattern};
    use crate::sharded::{route_columns, RouteStream};
    use crate::table::TableBuilder;
    use crate::{Cluster, ExecBackend, Sharder};
    use cheetah_switch::hash::mix64;
    use proptest::prelude::*;

    /// Five columns, so a projection has something to drop and — with the
    /// value column left of the key — something to reorder.
    fn wide_table(rows: usize, keys: u64, partitions: usize, seed: u64) -> Table {
        let fields = vec![
            ("pad".into(), DataType::Int),
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("tag".into(), DataType::Str),
            ("b".into(), DataType::Int),
        ];
        let mut b = TableBuilder::new("wide", fields, rows.div_ceil(partitions).max(1));
        let mut x = seed | 1;
        let mut next = |modulo: u64| {
            x = mix64(x);
            x % modulo
        };
        for _ in 0..rows {
            b.push_row(vec![
                Value::Int(next(1 << 40) as i64),
                Value::Str(format!("key-{}", next(keys))),
                Value::Int(next(10_000) as i64),
                Value::Str(format!("tag-{}", next(keys.div_ceil(3)))),
                Value::Int(next(500) as i64),
            ]);
        }
        b.build()
    }

    /// Columns `cols` of `t`, as one partition — what a routed unit holds.
    fn project(t: &Table, cols: &[usize]) -> Table {
        let (one, keys) = (Sharder::hash(1, 0), vec![0; t.rows()]);
        let stream = RouteStream { table: t, cols, keyed: None, keys: &keys, rows: 0..t.rows() };
        route_columns(&[stream], &one).remove(0).remove(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn the_remapped_query_over_the_projection_answers_like_the_query_over_the_tables(
            seed in any::<u64>(),
            rows in 1usize..400,
            keys in 1u64..40,
            partitions in 1usize..5,
        ) {
            let left = wide_table(rows, keys, partitions, seed);
            let right = wide_table(rows / 2 + 1, keys * 2, 2, seed ^ 0xFACE);
            let queries = [
                // A predicate tree that names column 4 twice.
                DbQuery::FilterCount {
                    pred: DbPredicate::Or(vec![
                        DbPredicate::CmpInt { col: 4, op: IntCmp::Lt, lit: 50 },
                        DbPredicate::And(vec![
                            DbPredicate::CmpInt { col: 4, op: IntCmp::Gt, lit: 300 },
                            DbPredicate::Like { col: 1, pattern: LikePattern::parse("key-1%") },
                            DbPredicate::CmpInt { col: 2, op: IntCmp::Ge, lit: 2_000 },
                        ]),
                    ]),
                },
                DbQuery::Distinct { col: 3 },
                // Dimensions out of schema order: the points keep it.
                DbQuery::Skyline { cols: vec![4, 2] },
                DbQuery::TopN { order_col: 2, n: 7 },
                // The value column sits left of the key.
                DbQuery::GroupByMax { key_col: 3, val_col: 2 },
                DbQuery::Join { left_key: 1, right_key: 3 },
                DbQuery::HavingSum { key_col: 1, val_col: 4, threshold: rows as i64 * 4 },
            ];
            let cluster = Cluster::default();
            for q in queries {
                let cols = q.columns(0);
                prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "{}: {:?}", q.kind(), cols);
                let right_of = q.is_binary().then_some(&right);
                let want = cluster.run_baseline(&q, &left, right_of).output;
                let narrow_right = right_of.map(|r| project(r, &q.columns(1)));
                let narrow = project(&left, &cols);
                prop_assert_eq!(narrow.fields().len(), cols.len());
                let got = cluster.run_baseline(&q.remapped(), &narrow, narrow_right.as_ref());
                prop_assert_eq!(&want, &got.output, "{} (seed {})", q.kind(), seed);
                // The switch path too: same slots, same survivors' values.
                let pruned = cluster.run_cheetah(&q.remapped(), &narrow, narrow_right.as_ref(), ExecBackend::Interpreted);
                prop_assert_eq!(&want, &pruned.expect("plan fits").output, "{}", q.kind());
            }
        }
    }

    #[test]
    fn columns_are_per_stream_ascending_and_deduplicated() {
        let join = DbQuery::Join { left_key: 4, right_key: 1 };
        assert_eq!((join.columns(0), join.columns(1)), (vec![4], vec![1]));
        assert_eq!(join.remapped(), DbQuery::Join { left_key: 0, right_key: 0 });
        let q = DbQuery::Skyline { cols: vec![5, 2, 5] };
        assert_eq!(q.columns(0), vec![2, 5]);
        assert_eq!(q.remapped(), DbQuery::Skyline { cols: vec![1, 0, 1] });
        let q = DbQuery::GroupByMax { key_col: 3, val_col: 3 };
        assert_eq!(q.columns(0), vec![3]);
        assert_eq!(q.remapped(), DbQuery::GroupByMax { key_col: 0, val_col: 0 });
    }

    #[test]
    fn check_refuses_columns_outside_the_schema_or_of_the_wrong_type() {
        use cheetah_core::Error::{BadColumn, MissingStream};
        let t = wide_table(4, 2, 1, 7); // (Int, Str, Int, Str, Int)
        let cmp = |col| DbPredicate::CmpInt { col, op: IntCmp::Gt, lit: 0 };
        let like = |col| DbPredicate::Like { col, pattern: LikePattern::parse("k%") };
        let filter = |pred| DbQuery::FilterCount { pred };
        for (q, bad) in [
            (DbQuery::Distinct { col: 9 }, 9),
            (DbQuery::TopN { order_col: 1, n: 3 }, 1),
            (DbQuery::GroupByMax { key_col: 1, val_col: 3 }, 3),
            (DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 0 }, 1),
            (DbQuery::Skyline { cols: vec![0, 1] }, 1),
            (filter(DbPredicate::And(vec![cmp(0), cmp(3)])), 3),
            (filter(DbPredicate::Or(vec![like(1), like(2)])), 2),
            (DbQuery::Join { left_key: 5, right_key: 0 }, 5),
        ] {
            assert_eq!(q.check(&t, Some(&t)), Err(BadColumn { stream: 0, col: bad }), "{q:?}");
        }
        let join = DbQuery::Join { left_key: 1, right_key: 5 };
        assert_eq!(join.check(&t, Some(&t)), Err(BadColumn { stream: 1, col: 5 }));
        assert_eq!(join.check(&t, None), Err(MissingStream { stream: 1 }));
        // Keys of either type; a right table a unary query ignores is not read.
        for q in [
            DbQuery::Distinct { col: 0 },
            DbQuery::GroupByMax { key_col: 2, val_col: 4 },
            DbQuery::Join { left_key: 1, right_key: 0 },
            filter(DbPredicate::And(vec![cmp(4), like(3)])),
        ] {
            assert_eq!(q.check(&t, Some(&t)), Ok(()), "{q:?}");
        }
        let narrow = project(&t, &[0]);
        assert_eq!(DbQuery::Distinct { col: 3 }.check(&t, Some(&narrow)), Ok(()));
    }

    #[test]
    fn check_refuses_a_negative_having_threshold_before_the_tables() {
        let t = wide_table(4, 2, 1, 7); // (Int, Str, Int, Str, Int)
        let having = |threshold| DbQuery::HavingSum { key_col: 1, val_col: 9, threshold };
        assert_eq!(having(-1).check(&t, None), Err(crate::operators::negative_threshold()));
        let bad = cheetah_core::Error::BadColumn { stream: 0, col: 9 };
        assert_eq!(having(0).check(&t, None), Err(bad), "c = 0 is decidable");
    }

    #[test]
    fn values_normalization() {
        let a = QueryOutput::values(vec![Value::Int(2), Value::Int(1), Value::Int(2)]);
        let b = QueryOutput::values(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn top_values_sorted_desc_with_duplicates() {
        let t = QueryOutput::top_values(vec![3, 9, 9, 1]);
        assert_eq!(t, QueryOutput::TopValues(vec![9, 9, 3, 1]));
    }

    #[test]
    fn points_normalization() {
        let a = QueryOutput::points(vec![vec![1, 2], vec![0, 0], vec![1, 2]]);
        assert_eq!(a, QueryOutput::Points(vec![vec![0, 0], vec![1, 2]]));
    }

    #[test]
    fn kinds() {
        assert_eq!(DbQuery::Distinct { col: 0 }.kind(), "distinct");
        assert!(DbQuery::Join { left_key: 0, right_key: 0 }.is_binary());
        assert!(!DbQuery::Distinct { col: 0 }.is_binary());
    }

    #[test]
    fn cardinality() {
        assert_eq!(QueryOutput::Count(5).result_rows(), 1);
        assert_eq!(QueryOutput::JoinPairs(5).result_rows(), 5);
        assert_eq!(QueryOutput::TopValues(vec![3, 1]).result_rows(), 2);
        assert_eq!(QueryOutput::JoinPairs(5).cardinality(), 1);
        assert_eq!(QueryOutput::Count(5).cardinality(), 1);
        assert_eq!(QueryOutput::values(vec![Value::Int(1), Value::Int(2)]).cardinality(), 2);
    }
}
