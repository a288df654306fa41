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

use super::for_each_key;
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::ops;
use crate::query::QueryOutput;
use crate::value::Value;
use cheetah_core::{BloomKind, JoinConfig, JoinMode, PassPlan, PruningOperator, QuerySpec};
use cheetah_net::Encoded;

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

    fn key_col(&self, stream: usize) -> usize {
        if stream == 0 {
            self.left_key
        } else {
            self.right_key
        }
    }
}

impl<'a> PruningOperator<Tables<'a>, Encoded> for JoinOp {
    type Output = QueryOutput;

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

    fn encode_part(
        &self,
        src: &Tables<'a>,
        stream: usize,
        part: usize,
        rows: usize,
        sink: &mut dyn FnMut(&[u64]),
    ) {
        let col = super::stream_part(src, stream, part).column(self.key_col(stream));
        for_each_key(self.seed, col, rows, |_, k| sink(&[k]));
    }

    fn complete(&self, src: &Tables<'a>, survivors: &[Vec<Encoded>]) -> QueryOutput {
        // Master: exact hash join on the survivors' true key values —
        // Bloom false positives contribute no pairs.
        let keys_of = |stream: usize| -> Vec<Value> {
            survivors[stream]
                .iter()
                .map(|e| {
                    let (pi, r) = e.id();
                    super::stream_part(src, stream, pi).column(self.key_col(stream)).get(r)
                })
                .collect()
        };
        let lkeys = keys_of(0);
        let rkeys = keys_of(1);
        QueryOutput::JoinPairs(ops::hash_join_pairs(&lkeys, &rkeys))
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
