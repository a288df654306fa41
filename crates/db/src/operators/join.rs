//! `SELECT * FROM left JOIN right ON …` — Bloom-filter pruning, §4.3
//! Example #4.
//!
//! Two streams (one per table), two pass structures:
//!
//! * [`JoinMode::TwoPass`]: both sides stream once to build the two Bloom
//!   filters, then stream again and are pruned against the *other* side's
//!   filter — [`PassPlan::BuildThenPrune`].
//! * [`JoinMode::SmallTableFirst`]: the small (left) side streams once,
//!   unpruned, building its filter on the way through; only the large
//!   side is pruned — [`PassPlan::FirstBuildsThenPruneSecond`], one less
//!   pass and a lower false-positive rate.
//!
//! The master runs an exact hash join on the survivors' true key values —
//! Bloom false positives contribute no pairs.

use super::{for_each_key, for_each_selected_key, KeyRef, PruningOperator, Survivors};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{BloomKind, JoinConfig, JoinMode, PassPlan, QuerySpec};
use std::collections::HashMap;

/// The JOIN operator.
pub struct JoinOp {
    left_key: usize,
    right_key: usize,
    m_bits: u64,
    kind: BloomKind,
    mode: JoinMode,
    seed: u64,
}

impl JoinOp {
    /// Join `left.left_key = right.right_key` with the cluster's filter
    /// tuning.
    pub fn new(left_key: usize, right_key: usize, tuning: &CheetahTuning) -> Self {
        Self {
            left_key,
            right_key,
            m_bits: tuning.join_m_bits,
            kind: tuning.join_kind,
            mode: tuning.join_mode,
            seed: tuning.seed,
        }
    }
}

impl PruningOperator for JoinOp {
    fn kind(&self) -> &'static str {
        "join"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::Join(JoinConfig {
            m_bits: self.m_bits,
            kind: self.kind,
            mode: self.mode,
            fid_a: 0,
            fid_b: 1,
            seed: self.seed,
        }))
    }

    fn streams(&self) -> usize {
        2
    }

    fn pass_plan(&self) -> PassPlan {
        match self.mode {
            JoinMode::TwoPass => PassPlan::BuildThenPrune,
            JoinMode::SmallTableFirst => PassPlan::FirstBuildsThenPruneSecond,
        }
    }

    fn encode_part(&self, stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        let key_col = if stream == 0 { self.left_key } else { self.right_key };
        for_each_key(self.seed, part.column(key_col), |_, k| sink(&[k]));
    }

    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        // One build over the true keys of the side with fewer survivors,
        // one probe per survivor of the other (pair counts are symmetric):
        // the map every probe lands in is the smaller one, and a key held
        // is re-hashed — for string keys, re-read — on the fewest growths.
        // A Bloom false positive finds no partner, so adds no pair.
        let key_cols = [self.left_key, self.right_key];
        let held = |stream| survivors.parts(src, stream).map(|(_, sel)| sel.len()).sum::<usize>();
        let (small, large) = if held(0) <= held(1) { (0, 1) } else { (1, 0) };
        let mut build: HashMap<KeyRef<'_>, u64> = HashMap::new();
        for (part, sel) in survivors.parts(src, small) {
            for_each_selected_key(part.column(key_cols[small]), sel, |_, k| {
                *build.entry(k).or_insert(0) += 1;
            });
        }
        let mut pairs = 0u64;
        for (part, sel) in survivors.parts(src, large) {
            for_each_selected_key(part.column(key_cols[large]), sel, |_, k| {
                pairs += build.get(&k).copied().unwrap_or(0);
            });
        }
        QueryOutput::JoinPairs(pairs)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::Cluster;
    use crate::query::{DbQuery, QueryOutput};
    use crate::testutil::test_table;

    #[test]
    fn join_outputs_match() {
        let cluster = Cluster::default();
        let l = test_table(3_000, 3);
        let r = test_table(2_000, 2);
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let base = cluster.run_baseline(&q, &l, Some(&r));
        let chee = cluster.run_cheetah(&q, &l, Some(&r)).unwrap();
        assert_eq!(base.output, chee.output);
        assert!(matches!(base.output, QueryOutput::JoinPairs(p) if p > 0));
    }

    #[test]
    fn small_table_join_matches_two_pass() {
        let mut cluster = Cluster::default();
        let small = test_table(500, 2);
        let large = test_table(5_000, 4);
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let base = cluster.run_baseline(&q, &small, Some(&large));
        let two_pass = cluster.run_cheetah(&q, &small, Some(&large)).unwrap();
        cluster.tuning.join_mode = cheetah_core::JoinMode::SmallTableFirst;
        let small_first = cluster.run_cheetah(&q, &small, Some(&large)).unwrap();
        assert_eq!(base.output, two_pass.output);
        assert_eq!(base.output, small_first.output);
        // The optimization halves the wire passes.
        assert_eq!(two_pass.breakdown.passes, 2);
        assert_eq!(small_first.breakdown.passes, 1);
        assert!(small_first.breakdown.worker_wire_bytes < two_pass.breakdown.worker_wire_bytes);
    }
}
