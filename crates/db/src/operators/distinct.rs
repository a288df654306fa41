//! `SELECT DISTINCT <col>` — §4.2 Example #2.
//!
//! The switch's eviction matrix forwards the first sighting of each key;
//! the master re-fetches the true column values of the survivors and
//! normalizes (duplicates from matrix evictions collapse there).

use super::for_each_key;
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::value::Value;
use cheetah_core::{DistinctConfig, PruningOperator, QuerySpec};
use cheetah_net::Encoded;

/// The DISTINCT operator.
pub struct DistinctOp {
    col: usize,
    cfg: DistinctConfig,
    seed: u64,
}

impl DistinctOp {
    /// DISTINCT over column `col` with the cluster's matrix tuning.
    pub fn new(col: usize, tuning: &CheetahTuning) -> Self {
        Self { col, cfg: tuning.distinct, seed: tuning.seed }
    }
}

impl<'a> PruningOperator<Tables<'a>, Encoded> for DistinctOp {
    type Output = QueryOutput;

    fn kind(&self) -> &'static str {
        "distinct"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::Distinct(self.cfg))
    }

    fn encode_part(
        &self,
        src: &Tables<'a>,
        stream: usize,
        part: usize,
        rows: usize,
        sink: &mut dyn FnMut(&[u64]),
    ) {
        let col = super::stream_part(src, stream, part).column(self.col);
        for_each_key(self.seed, col, rows, |_, k| sink(&[k]));
    }

    fn complete(&self, src: &Tables<'a>, survivors: &[Vec<Encoded>]) -> QueryOutput {
        let vals: Vec<Value> = survivors[0]
            .iter()
            .map(|e| {
                let (pi, r) = e.id();
                src.left.partitions()[pi].column(self.col).get(r)
            })
            .collect();
        QueryOutput::values(vals)
    }
}
