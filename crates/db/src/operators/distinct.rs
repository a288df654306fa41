//! `SELECT DISTINCT <col>` — §4.2 Example #2.
//!
//! The switch's eviction matrix forwards the first sighting of each key;
//! the master re-fetches the true column values of the survivors and
//! normalizes (duplicates from matrix evictions collapse there).

use super::{finish_keys, fold_keys, for_each_key, mismatch, Partial, PruningOperator, Survivors};
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

    fn fold(&self, src: &Tables<'_>, survivors: &Survivors) -> Partial {
        // Matrix evictions let a key through more than once: a coded key
        // is one hit flag per code.
        Partial::Hits(fold_keys(src, survivors, 0, self.col, |_| |_| (), |(), ()| ()))
    }

    fn finish(&self, partials: Vec<Partial>) -> QueryOutput {
        // Each distinct key once, in order, owning one `Value`.
        let hits = partials.into_iter().map(|p| match p {
            Partial::Hits(hits) => hits,
            p => mismatch(self.kind(), &p),
        });
        let keys = finish_keys(hits, |(), ()| (), |()| true);
        QueryOutput::Values(keys.into_iter().map(|(k, ())| k).collect())
    }
}
