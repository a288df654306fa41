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

use super::{
    count, for_each_key, for_each_selected_key, one_dict, KeyRef, Partial, PruningOperator,
    Survivors,
};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::{Column, Partition};
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
        for_each_key(self.seed, part.coded(key_col), |_, k| sink(&[k]));
    }

    fn fold(&self, src: &Tables<'_>, survivors: &Survivors) -> Partial {
        // One build over the true keys of the side with fewer survivors,
        // one probe per key of the other (pair counts are symmetric): the
        // map every probe lands in is the smaller one, and a key held is
        // re-hashed — for string keys, re-read — on the fewest growths. A
        // Bloom false positive finds no partner, so adds no pair.
        let key_cols = [self.left_key, self.right_key];
        let held = |stream| survivors.parts(src, stream).map(|(_, sel)| sel.count()).sum::<usize>();
        let (small, large) = if held(0) <= held(1) { (0, 1) } else { (1, 0) };
        let keys =
            |stream| survivors.parts(src, stream).map(move |(p, _)| p.coded(key_cols[stream]));
        if let Some(dict) = one_dict(keys(0).chain(keys(1))) {
            // Both streams code their key against one dictionary, which
            // holds each string once: the build is a count per code, the
            // probe an index, and no string is read.
            let counts = count_codes(src, survivors, small, key_cols[small], dict.len());
            let mut pairs = 0u64;
            for (part, sel) in survivors.parts(src, large) {
                let codes = codes(part.coded(key_cols[large]));
                sel.rows().for_each(|r| pairs += counts[codes[r] as usize]);
            }
            return Partial::Count(pairs);
        }
        // Otherwise each side is counted per key (`for_each_count`): the
        // build hashes one string per code or row of the smaller side, the
        // probe one per code or row of the other.
        let mut build: HashMap<KeyRef<'_>, u64> = HashMap::new();
        for_each_count(src, survivors, small, key_cols[small], |k, n| {
            *build.entry(k).or_insert(0) += n;
        });
        let mut pairs = 0u64;
        for_each_count(src, survivors, large, key_cols[large], |k, n| {
            pairs += build.get(&k).map_or(0, |&c| c * n);
        });
        Partial::Count(pairs)
    }

    fn finish(&self, partials: Vec<Partial>) -> QueryOutput {
        // Each partial counts the pairs of its own left rows.
        QueryOutput::JoinPairs(partials.into_iter().map(|p| count(self.kind(), p)).sum())
    }
}

/// The selected rows of stream `stream`, whose key column `key_col` is
/// coded against one dictionary of `codes_held` codes, counted per code.
fn count_codes(
    src: &Tables<'_>,
    survivors: &Survivors,
    stream: usize,
    key_col: usize,
    codes_held: usize,
) -> Vec<u64> {
    let mut counts = vec![0u64; codes_held];
    for (part, sel) in survivors.parts(src, stream) {
        let codes = codes(part.coded(key_col));
        sel.rows().for_each(|r| counts[codes[r] as usize] += 1);
    }
    counts
}

/// The keys of stream `stream`'s key column `key_col` at its selected
/// rows, each with a count of rows that hold it, to `f`. A stream coded
/// against one dictionary is counted by code first, and each code its
/// selection touches reaches `f` once, as its string, in code order — a
/// join needs no rank, so it never computes one. A plain stream reaches
/// `f` once per selected row, with a count of 1: grouping it first, as
/// [`fold_keys`](super::fold_keys) does, costs a map insert per
/// row, and a whole-table JOIN on near-unique URLs read 2.2× slower so.
fn for_each_count<'t>(
    src: &Tables<'t>,
    survivors: &Survivors,
    stream: usize,
    key_col: usize,
    mut f: impl FnMut(KeyRef<'t>, u64),
) {
    let parts = || survivors.parts(src, stream);
    match one_dict(parts().map(|(part, _)| part.coded(key_col))) {
        Some(dict) => {
            let counts = count_codes(src, survivors, stream, key_col, dict.len());
            let touched = dict.iter().zip(counts).filter(|&(_, n)| n > 0);
            touched.for_each(|(s, n)| f(KeyRef::Str(s), n));
        }
        None => {
            for (part, sel) in parts() {
                for_each_selected_key(part.coded(key_col), sel, |_, k| f(k, 1));
            }
        }
    }
}

/// A coded key column's codes.
fn codes(col: &Column) -> &[u32] {
    match col {
        Column::Dict { codes, .. } => codes,
        _ => unreachable!("one_dict found every key column coded"),
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Cluster, ExecBackend};
    use crate::query::{DbQuery, QueryOutput};
    use crate::testutil::test_table;

    #[test]
    fn join_outputs_match() {
        let cluster = Cluster::default();
        let l = test_table(3_000, 3);
        let r = test_table(2_000, 2);
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let base = cluster.run_baseline(&q, &l, Some(&r));
        let chee = cluster.run_cheetah(&q, &l, Some(&r), ExecBackend::Interpreted).unwrap();
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
        let two_pass =
            cluster.run_cheetah(&q, &small, Some(&large), ExecBackend::Interpreted).unwrap();
        cluster.tuning.join_mode = cheetah_core::JoinMode::SmallTableFirst;
        let small_first =
            cluster.run_cheetah(&q, &small, Some(&large), ExecBackend::Interpreted).unwrap();
        assert_eq!(base.output, two_pass.output);
        assert_eq!(base.output, small_first.output);
        // The optimization halves the wire passes.
        assert_eq!(two_pass.breakdown.passes, 2);
        assert_eq!(small_first.breakdown.passes, 1);
        assert!(small_first.breakdown.worker_wire_bytes < two_pass.breakdown.worker_wire_bytes);
    }
}
