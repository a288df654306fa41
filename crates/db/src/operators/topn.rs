//! `SELECT TOP <n> … ORDER BY` — the randomized matrix of §5 Example #7.
//!
//! The switch's sampled threshold matrix forwards entries that may still
//! be in the top N; the master merges the survivors' true order values
//! into the exact answer.

use super::encode_i64_32;
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::ops;
use crate::query::QueryOutput;
use cheetah_core::{PruningOperator, QuerySpec, TopNRandConfig};
use cheetah_net::Encoded;

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

impl<'a> PruningOperator<Tables<'a>, Encoded> for TopNOp {
    type Output = QueryOutput;

    fn kind(&self) -> &'static str {
        "topn"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::TopNRand(self.cfg))
    }

    fn encode_part(
        &self,
        src: &Tables<'a>,
        stream: usize,
        part: usize,
        rows: usize,
        sink: &mut dyn FnMut(&[u64]),
    ) {
        let p = super::stream_part(src, stream, part);
        let vals = p.column(self.col).as_int().expect("int order col");
        for &v in &vals[..rows] {
            sink(&[encode_i64_32(v)]);
        }
    }

    fn complete(&self, src: &Tables<'a>, survivors: &[Vec<Encoded>]) -> QueryOutput {
        let vals: Vec<i64> = survivors[0]
            .iter()
            .map(|e| {
                let (pi, r) = e.id();
                src.left.partitions()[pi].column(self.col).as_int().expect("int order col")[r]
            })
            .collect();
        QueryOutput::top_values(ops::merge_topn(vec![vals], self.n))
    }
}
