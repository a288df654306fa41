//! Query specifications and normalized outputs.
//!
//! The seven query shapes mirror the paper's benchmark queries (Appendix
//! B). Outputs are *normalized* (sorted / keyed) so the baseline path and
//! the Cheetah path can be compared with `==` — the pruning correctness
//! contract `Q(A_Q(D)) = Q(D)` is checked exactly this way throughout the
//! test-suite.

use crate::expr::DbPredicate;
use crate::value::Value;
use std::collections::BTreeMap;

/// A query over one table (or two, for JOIN).
#[derive(Debug, Clone, PartialEq)]
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

    /// Does the family's switch program have a compiled kernel
    /// ([`cheetah_core::CompiledProgram`])? Kernels exist for the
    /// single-pass families only; JOIN and HAVING run the interpreter on
    /// either backend, and their breakdowns say so.
    pub fn has_kernel(&self) -> bool {
        !matches!(self, DbQuery::Join { .. } | DbQuery::HavingSum { .. })
    }

    /// Is the master merge correct under *any* deterministic assignment
    /// of rows to shard runs — including assignments that change mid-run?
    ///
    /// Re-prune merges (TOP N, SKYLINE, DISTINCT), count sums, and
    /// GROUP BY MAX (max of maxes over any cover of the rows) are; HAVING
    /// needs every row of a key inside one shard run for its local sum +
    /// threshold to be global, and JOIN needs both streams co-partitioned
    /// into the same runs. The streamed runtime reads this to decide
    /// whether input rounds and mid-run re-planning are available, or the
    /// whole shard input must reach one executor run.
    pub fn merge_routing_agnostic(&self) -> bool {
        match self {
            DbQuery::FilterCount { .. }
            | DbQuery::Distinct { .. }
            | DbQuery::TopN { .. }
            | DbQuery::Skyline { .. }
            | DbQuery::GroupByMax { .. } => true,
            DbQuery::HavingSum { .. } | DbQuery::Join { .. } => false,
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
    fn routing_agnosticism_splits_the_families_as_documented() {
        assert!(DbQuery::Distinct { col: 0 }.merge_routing_agnostic());
        assert!(DbQuery::TopN { order_col: 0, n: 3 }.merge_routing_agnostic());
        assert!(DbQuery::GroupByMax { key_col: 0, val_col: 1 }.merge_routing_agnostic());
        assert!(
            !DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 0 }.merge_routing_agnostic()
        );
        assert!(!DbQuery::Join { left_key: 0, right_key: 0 }.merge_routing_agnostic());
    }

    #[test]
    fn cardinality() {
        assert_eq!(QueryOutput::Count(5).cardinality(), 1);
        assert_eq!(QueryOutput::values(vec![Value::Int(1), Value::Int(2)]).cardinality(), 2);
    }
}
