//! `SELECT <key>, MAX(<val>) … GROUP BY` — §8 / Figure 10d.
//!
//! The switch's per-key running-max matrix forwards entries that improve
//! their group's maximum; the master re-aggregates the survivors exactly
//! by true key value (fingerprint collisions only reduce pruning).

use super::{
    encode_i64_32, for_each_key, for_each_selected_key, KeyRef, PruningOperator, Survivors,
};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{AggKind, GroupByConfig, QuerySpec};
use std::collections::HashMap;

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
        for_each_key(self.seed, part.column(self.key_col), |r, k| {
            sink(&[k, encode_i64_32(vals[r])])
        });
    }

    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        // Aggregate by *borrowed* key: the owned `Value` keys — one per
        // group, not per survivor — only materialize in the final map.
        let mut best: HashMap<KeyRef<'_>, i64> = HashMap::new();
        for (part, sel) in survivors.parts(src, 0) {
            let vals = part.column(self.val_col).as_int().expect("int agg col");
            for_each_selected_key(part.column(self.key_col), sel, |r, k| {
                best.entry(k).and_modify(|m| *m = (*m).max(vals[r])).or_insert(vals[r]);
            });
        }
        QueryOutput::KeyedInts(best.into_iter().map(|(k, v)| (k.to_value(), v)).collect())
    }
}
