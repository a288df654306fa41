//! `SELECT TOP <n> … ORDER BY` — the randomized matrix of §5 Example #7.
//!
//! The switch's sampled threshold matrix forwards entries that may still
//! be in the top N; the master keeps the N largest of the survivors' true
//! order values — the exact answer — in a bounded heap, so a survivor
//! under the running cut costs one compare and no survivor is sorted
//! that the answer does not hold.

use super::{encode_i64_32, PruningOperator, Survivors};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{QuerySpec, TopNRandConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The randomized TOP-N operator.
pub struct TopNOp {
    col: usize,
    n: usize,
    cfg: TopNRandConfig,
}

impl TopNOp {
    /// TOP `n` by int column `col` with the cluster's matrix tuning.
    pub fn new(col: usize, n: usize, tuning: &CheetahTuning) -> Self {
        Self { col, n, cfg: tuning.topn }
    }
}

impl PruningOperator for TopNOp {
    fn kind(&self) -> &'static str {
        "topn"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::TopNRand(self.cfg))
    }

    fn encode_part(&self, _stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        for &v in part.column(self.col).as_int().expect("int order col") {
            sink(&[encode_i64_32(v)]);
        }
    }

    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        // A min-heap of the `n` largest values so far; its root is the cut.
        let held = self.n.min(survivors.count() as usize);
        let mut top: BinaryHeap<Reverse<i64>> = BinaryHeap::with_capacity(held);
        for (part, sel) in survivors.parts(src, 0) {
            let col = part.column(self.col).as_int().expect("int order col");
            for &r in sel {
                let v = col[r as usize];
                if top.len() < self.n {
                    top.push(Reverse(v));
                } else if let Some(mut cut) = top.peek_mut().filter(|cut| v > cut.0) {
                    *cut = Reverse(v);
                }
            }
        }
        QueryOutput::top_values(top.into_iter().map(|Reverse(v)| v).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::value::{DataType, Value};

    /// One int column holding `vals`, three rows to a partition.
    fn column(vals: &[i64]) -> crate::table::Table {
        let mut b = TableBuilder::new("t", vec![("v".into(), DataType::Int)], 3);
        for &v in vals {
            b.push_row(vec![Value::Int(v)]);
        }
        b.build()
    }

    /// The answer by definition: sort everything selected, keep `n`.
    fn full_sort(mut vals: Vec<i64>, n: usize) -> QueryOutput {
        vals.sort_unstable_by(|a, b| b.cmp(a));
        vals.truncate(n);
        QueryOutput::TopValues(vals)
    }

    #[test]
    fn the_bounded_heap_answers_like_a_full_sort() {
        let tuning = CheetahTuning::default();
        // Duplicates straddling every cut, negatives, both extremes.
        let vals = [5, -3, 9, 9, 0, -3, 7, 9, i64::MIN, 2, i64::MAX, -3, 7, 7, 1];
        let t = column(&vals);
        let src = Tables::unary(&t);
        let all = Survivors::all(&src, 1).unwrap();
        // n = 0, cuts inside each run of duplicates, n = rows, n > rows.
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 9, 13, vals.len(), vals.len() + 1, 1_000, usize::MAX] {
            let got = TopNOp::new(0, n, &tuning).complete(&src, &all);
            assert_eq!(got, full_sort(vals.to_vec(), n), "n = {n}");
        }
        // A proper selection: every other row, partition by partition.
        let mut some = Survivors::none(&src, 1).unwrap();
        let mut kept = Vec::new();
        for (p, part) in t.partitions().iter().enumerate() {
            let rows: Vec<u32> = (0..part.rows() as u32).step_by(2).collect();
            kept.extend(rows.iter().map(|&r| vals[p * 3 + r as usize]));
            some.keep(0, p, &rows);
        }
        for n in [0, 2, 4, kept.len(), kept.len() + 5] {
            let got = TopNOp::new(0, n, &tuning).complete(&src, &some);
            assert_eq!(got, full_sort(kept.clone(), n), "n = {n} of {kept:?}");
        }
        // Nothing selected.
        let none = Survivors::none(&src, 1).unwrap();
        assert_eq!(
            TopNOp::new(0, 3, &tuning).complete(&src, &none),
            QueryOutput::TopValues(vec![])
        );
    }
}
