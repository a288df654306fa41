//! The baseline ("Spark") operators: per-partition partials and master-side
//! merges.
//!
//! Each function here does real work on real data — the Figure 5/6/8
//! experiments time these functions, so they are written the way a vanilla
//! engine would: tight loops over columnar data, partial aggregation at the
//! workers, merge at the master.
//!
//! They read a partition's cells as loaded ([`Partition::column`]): string
//! keys as plain strings, by design. A loaded table also codes its
//! repeating string columns ([`Partition::coded`]), and the operators fold,
//! count and probe by those codes; the baseline does not use that storage
//! advantage, so a ratio of the two measures it too. Report raw latency
//! beside every such ratio.

use crate::expr::DbPredicate;
use crate::table::Partition;
use crate::value::Value;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Row-wise predicate evaluation against a partition.
pub fn eval_predicate(pred: &DbPredicate, part: &Partition, row: usize) -> bool {
    match pred {
        DbPredicate::CmpInt { col, op, lit } => {
            let v = part.column(*col).as_int().expect("CmpInt on int column")[row];
            op.eval(v, *lit)
        }
        DbPredicate::Like { col, pattern } => {
            pattern.matches(part.column(*col).str_at(row).expect("Like on string column"))
        }
        DbPredicate::And(xs) => xs.iter().all(|p| eval_predicate(p, part, row)),
        DbPredicate::Or(xs) => xs.iter().any(|p| eval_predicate(p, part, row)),
    }
}

/// Worker partial: count of rows satisfying the predicate.
pub fn partial_filter_count(pred: &DbPredicate, part: &Partition) -> u64 {
    let mut n = 0;
    for row in 0..part.rows() {
        if eval_predicate(pred, part, row) {
            n += 1;
        }
    }
    n
}

/// Worker partial: distinct values of a column.
pub fn partial_distinct(col: usize, part: &Partition) -> HashSet<Value> {
    let mut set = HashSet::new();
    match part.column(col) {
        crate::table::Column::Int(v) => {
            for &x in v {
                set.insert(Value::Int(x));
            }
        }
        crate::table::Column::Str(v) => {
            for s in v {
                set.insert(Value::Str(s.clone()));
            }
        }
        crate::table::Column::Dict { codes, dict } => {
            for &c in codes {
                set.insert(Value::Str(dict[c as usize].clone()));
            }
        }
    }
    set
}

/// Worker partial: the `n` largest values of an int column, descending.
pub fn partial_topn(col: usize, n: usize, part: &Partition) -> Vec<i64> {
    let vals = part.column(col).as_int().expect("TopN on int column");
    // Bounded by the rows as well as by `n`: a TOP N larger than the
    // partition keeps every row, and reserves no more.
    let mut heap: BinaryHeap<std::cmp::Reverse<i64>> =
        BinaryHeap::with_capacity(n.min(vals.len()) + 1);
    for &v in vals {
        if heap.len() < n {
            heap.push(std::cmp::Reverse(v));
        } else if let Some(&std::cmp::Reverse(min)) = heap.peek() {
            if v > min {
                heap.pop();
                heap.push(std::cmp::Reverse(v));
            }
        }
    }
    let mut out: Vec<i64> = heap.into_iter().map(|r| r.0).collect();
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

/// Master merge for TOP N partials.
pub fn merge_topn(partials: Vec<Vec<i64>>, n: usize) -> Vec<i64> {
    let mut all: Vec<i64> = partials.into_iter().flatten().collect();
    all.sort_unstable_by(|a, b| b.cmp(a));
    all.truncate(n);
    all
}

/// Worker partial: per-key maximum of an int column.
pub fn partial_groupby_max(
    key_col: usize,
    val_col: usize,
    part: &Partition,
) -> HashMap<Value, i64> {
    let vals = part.column(val_col).as_int().expect("aggregate on int column");
    let mut out: HashMap<Value, i64> = HashMap::new();
    for (row, &v) in vals.iter().enumerate() {
        let k = part.column(key_col).get(row);
        out.entry(k).and_modify(|m| *m = (*m).max(v)).or_insert(v);
    }
    out
}

/// Master merge for GROUP BY MAX partials.
pub fn merge_groupby_max(partials: Vec<HashMap<Value, i64>>) -> HashMap<Value, i64> {
    let mut out: HashMap<Value, i64> = HashMap::new();
    for p in partials {
        for (k, v) in p {
            out.entry(k).and_modify(|m| *m = (*m).max(v)).or_insert(v);
        }
    }
    out
}

/// Worker partial: per-key sum of an int column, in `i128`, so no sum of
/// `i64` cells overflows.
pub fn partial_sum_by_key(
    key_col: usize,
    val_col: usize,
    part: &Partition,
) -> HashMap<Value, i128> {
    let vals = part.column(val_col).as_int().expect("aggregate on int column");
    let mut out: HashMap<Value, i128> = HashMap::new();
    for (row, &v) in vals.iter().enumerate() {
        let k = part.column(key_col).get(row);
        *out.entry(k).or_insert(0) += i128::from(v);
    }
    out
}

/// Master merge for per-key sums.
pub fn merge_sums(partials: Vec<HashMap<Value, i128>>) -> HashMap<Value, i128> {
    let mut out: HashMap<Value, i128> = HashMap::new();
    for p in partials {
        for (k, v) in p {
            *out.entry(k).or_insert(0) += v;
        }
    }
    out
}

/// An exact `i128` sum as the `i64` a result reports: clamped to range.
pub fn clamp_sum(s: i128) -> i64 {
    s.clamp(i64::MIN.into(), i64::MAX.into()) as i64
}

/// `x` dominated by `y` under maximization (all coordinates ≤).
pub fn dominated(x: &[i64], y: &[i64]) -> bool {
    x.iter().zip(y).all(|(a, b)| a <= b)
}

/// Exact skyline (Pareto set) of a point set: points not strictly
/// dominated by any other; duplicates collapse to one representative.
pub fn skyline_of(points: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = Vec::new();
    for p in points {
        if out.iter().any(|q| dominated(p, q)) {
            continue; // dominated (or duplicate of) an accepted point
        }
        out.retain(|q| !dominated(q, p));
        out.push(p.clone());
    }
    out.sort();
    out.dedup();
    out
}

/// Worker partial: local skyline of a partition's dimension columns.
pub fn partial_skyline(cols: &[usize], part: &Partition) -> Vec<Vec<i64>> {
    let dims: Vec<&[i64]> =
        cols.iter().map(|&c| part.column(c).as_int().expect("skyline on int columns")).collect();
    let points: Vec<Vec<i64>> =
        (0..part.rows()).map(|r| dims.iter().map(|d| d[r]).collect()).collect();
    skyline_of(&points)
}

/// Worker partial for join: the key column as values.
pub fn extract_keys(col: usize, part: &Partition) -> Vec<Value> {
    (0..part.rows()).map(|r| part.column(col).get(r)).collect()
}

/// Master: hash-join pair count between two key multisets.
pub fn hash_join_pairs(left: &[Value], right: &[Value]) -> u64 {
    let mut build: HashMap<&Value, u64> = HashMap::new();
    for k in left {
        *build.entry(k).or_insert(0) += 1;
    }
    let mut pairs = 0u64;
    for k in right {
        if let Some(&c) = build.get(k) {
            pairs += c;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{IntCmp, LikePattern};
    use crate::table::{Column, Partition};

    fn ratings() -> Partition {
        // The paper's Table 1(b): name, taste, texture.
        Partition::new(vec![
            Column::Str(vec![
                "Pizza".into(),
                "Cheetos".into(),
                "Jello".into(),
                "Burger".into(),
                "Fries".into(),
            ]),
            Column::Int(vec![7, 8, 9, 5, 3]),
            Column::Int(vec![5, 6, 4, 7, 3]),
        ])
    }

    #[test]
    fn filter_count_matches_paper_example() {
        // (taste > 5) OR (texture > 4 AND name LIKE 'e%s'): Pizza (7>5),
        // Cheetos (8>5), Jello (9>5) — Burger has texture 7 but name
        // doesn't match e%s; Fries fails everything.
        let pred = DbPredicate::Or(vec![
            DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 5 },
            DbPredicate::And(vec![
                DbPredicate::CmpInt { col: 2, op: IntCmp::Gt, lit: 4 },
                DbPredicate::Like { col: 0, pattern: LikePattern::parse("e%s") },
            ]),
        ]);
        assert_eq!(partial_filter_count(&pred, &ratings()), 3);
    }

    #[test]
    fn distinct_collects_unique() {
        let p = Partition::new(vec![Column::Str(vec![
            "McCheetah".into(),
            "Papizza".into(),
            "McCheetah".into(),
            "JellyFish".into(),
        ])]);
        let d = partial_distinct(0, &p);
        assert_eq!(d.len(), 3);
        assert!(d.contains(&Value::Str("Papizza".into())));
    }

    #[test]
    fn topn_and_merge() {
        let p = ratings();
        assert_eq!(partial_topn(1, 3, &p), vec![9, 8, 7]);
        let merged = merge_topn(vec![vec![9, 8, 7], vec![10, 2]], 3);
        assert_eq!(merged, vec![10, 9, 8]);
    }

    #[test]
    fn topn_with_fewer_rows_than_n() {
        assert_eq!(partial_topn(1, 100, &ratings()).len(), 5);
    }

    #[test]
    fn groupby_max_merge() {
        let a = HashMap::from([(Value::Int(1), 5i64), (Value::Int(2), 3)]);
        let b = HashMap::from([(Value::Int(1), 9i64), (Value::Int(3), 1)]);
        let m = merge_groupby_max(vec![a, b]);
        assert_eq!(m[&Value::Int(1)], 9);
        assert_eq!(m[&Value::Int(2)], 3);
        assert_eq!(m[&Value::Int(3)], 1);
    }

    #[test]
    fn sums_merge() {
        let a = HashMap::from([(Value::Int(1), 5i128)]);
        let b = HashMap::from([(Value::Int(1), 9i128), (Value::Int(3), 1)]);
        let m = merge_sums(vec![a, b]);
        assert_eq!(m[&Value::Int(1)], 14);
        // Past `i64` and back: exact in `i128`, reported clamped.
        let max = i128::from(i64::MAX);
        let m = merge_sums(vec![HashMap::from([(Value::Int(1), max)]); 2]);
        assert_eq!((m[&Value::Int(1)], clamp_sum(m[&Value::Int(1)])), (2 * max, i64::MAX));
        assert_eq!(clamp_sum(-2 * max), i64::MIN);
    }

    #[test]
    fn skyline_paper_example() {
        // Ratings (taste, texture): skyline = Cheetos (8,6), Jello (9,4),
        // Burger (5,7).
        let sky = partial_skyline(&[1, 2], &ratings());
        let want = {
            let mut w = vec![vec![8, 6], vec![9, 4], vec![5, 7]];
            w.sort();
            w
        };
        assert_eq!(sky, want);
    }

    #[test]
    fn skyline_handles_duplicates_and_dominance_chains() {
        let pts = vec![vec![1, 1], vec![2, 2], vec![2, 2], vec![3, 3]];
        assert_eq!(skyline_of(&pts), vec![vec![3, 3]]);
    }

    #[test]
    fn join_pair_count_multiplicities() {
        let left = vec![Value::Int(1), Value::Int(1), Value::Int(2)];
        let right = vec![Value::Int(1), Value::Int(2), Value::Int(2), Value::Int(3)];
        // key 1: 2·1, key 2: 1·2 → 4 pairs.
        assert_eq!(hash_join_pairs(&left, &right), 4);
    }

    #[test]
    fn predicate_eval_on_strings() {
        let p = ratings();
        let pred = DbPredicate::Like { col: 0, pattern: LikePattern::parse("%urger") };
        let hits: Vec<usize> = (0..p.rows()).filter(|&r| eval_predicate(&pred, &p, r)).collect();
        assert_eq!(hits, vec![3]);
    }
}
