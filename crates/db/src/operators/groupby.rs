//! `SELECT <key>, MAX(<val>) … GROUP BY` — §8 / Figure 10d.
//!
//! The switch's per-key running-max matrix forwards entries that improve
//! their group's maximum; the master re-aggregates the survivors exactly
//! by true key value (fingerprint collisions only reduce pruning).

use super::{
    encode_i64_32, finish_keys, fold_keys, for_each_key, mismatch, Partial, PruningOperator,
    Survivors,
};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{AggKind, GroupByConfig, QuerySpec};

/// The GROUP BY (MAX) operator.
pub struct GroupByMaxOp {
    key_col: usize,
    val_col: usize,
    rows: usize,
    cols: usize,
    seed: u64,
}

impl GroupByMaxOp {
    /// MAX of `val_col` grouped by `key_col` with the cluster's matrix
    /// tuning.
    pub fn new(key_col: usize, val_col: usize, tuning: &CheetahTuning) -> Self {
        Self {
            key_col,
            val_col,
            rows: tuning.groupby_rows,
            cols: tuning.groupby_cols,
            seed: tuning.seed,
        }
    }
}

impl PruningOperator for GroupByMaxOp {
    fn kind(&self) -> &'static str {
        "groupby-max"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::GroupBy(GroupByConfig {
            rows: self.rows,
            cols: self.cols,
            agg: AggKind::Max,
            key_bits: 31,
            seed: self.seed,
        }))
    }

    fn encode_part(&self, _stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        let vals = part.column(self.val_col).as_int().expect("int agg col");
        for_each_key(self.seed, part.coded(self.key_col), |r, k| {
            sink(&[k, encode_i64_32(vals[r])])
        });
    }

    fn fold<'t>(&self, src: &Tables<'t>, survivors: &Survivors) -> Partial {
        // Aggregate by *borrowed* key (a coded key by code): an owned
        // `Value` key per group, not per survivor.
        let vals = |part: &'t Partition| {
            let vals = part.column(self.val_col).as_int().expect("int agg col");
            move |r| vals[r]
        };
        Partial::Max(fold_keys(src, survivors, 0, self.key_col, vals, i64::max))
    }

    fn finish(&self, partials: Vec<Partial>) -> QueryOutput {
        let maxes = partials.into_iter().map(|p| match p {
            Partial::Max(maxes) => maxes,
            p => mismatch(self.kind(), &p),
        });
        QueryOutput::KeyedInts(finish_keys(maxes, i64::max, |_| true).into_iter().collect())
    }
}
