//! `SELECT DISTINCT <col>` — §4.2 Example #2.
//!
//! The switch's eviction matrix forwards the first sighting of each key;
//! the master re-fetches the true column values of the survivors and
//! normalizes (duplicates from matrix evictions collapse there).

use super::{for_each_key, for_each_selected_key, KeyRef, PruningOperator, Survivors};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{DistinctConfig, QuerySpec};
use std::collections::HashSet;

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

impl PruningOperator for DistinctOp {
    fn kind(&self) -> &'static str {
        "distinct"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::Distinct(self.cfg))
    }

    fn encode_part(&self, _stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        for_each_key(self.seed, part.column(self.col), |_, k| sink(&[k]));
    }

    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        // Matrix evictions let a key through more than once: dedup on the
        // borrowed cells, own one `Value` per distinct key.
        let mut seen: HashSet<KeyRef<'_>> = HashSet::new();
        for (part, sel) in survivors.parts(src, 0) {
            for_each_selected_key(part.column(self.col), sel, |_, k| {
                seen.insert(k);
            });
        }
        QueryOutput::values(seen.into_iter().map(KeyRef::to_value).collect())
    }
}
