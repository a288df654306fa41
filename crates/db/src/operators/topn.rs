//! `SELECT TOP <n> … ORDER BY` — the randomized matrix of §5 Example #7.
//!
//! The switch's sampled threshold matrix forwards entries that may still
//! be in the top N; the master merges the survivors' true order values
//! into the exact answer.

use super::{encode_i64_32, PruningOperator, Survivors};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::ops;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{QuerySpec, TopNRandConfig};

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
        let mut vals: Vec<i64> = Vec::with_capacity(survivors.count() as usize);
        for (part, sel) in survivors.parts(src, 0) {
            let col = part.column(self.col).as_int().expect("int order col");
            vals.extend(sel.iter().map(|&r| col[r as usize]));
        }
        QueryOutput::top_values(ops::merge_topn(vec![vals], self.n))
    }
}
