//! `SELECT DISTINCT <col>` — §4.2 Example #2.
//!
//! The switch's eviction matrix forwards the first sighting of each key;
//! the master re-fetches the true column values of the survivors and
//! normalizes (duplicates from matrix evictions collapse there).

use super::{for_each_group, for_each_key, PruningOperator, Survivors};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{DistinctConfig, QuerySpec};

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
        for_each_key(self.seed, part.coded(self.col), |_, k| sink(&[k]));
    }

    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        // Matrix evictions let a key through more than once: each distinct
        // key reaches the walk once (a coded key by a hit flag per code,
        // in order), and owns one `Value`.
        let mut keys = Vec::new();
        let (unit, nothing) = (|_| |_| (), |(), ()| ());
        for_each_group(src, survivors, 0, self.col, unit, nothing, |k, ()| keys.push(k.to_value()));
        QueryOutput::values(keys)
    }
}
