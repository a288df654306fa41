//! `SELECT <key> … GROUP BY <key> HAVING SUM(<val>) > c` — Count-Min
//! candidates, §4.3 Example #5.
//!
//! Pass 1 streams every entry through the Count-Min sketch; an entry whose
//! key's estimated sum crosses the threshold is forwarded once as a
//! *candidate announcement*. Pass 2 re-streams only the entries of
//! announced keys ([`PassPlan::CandidateKeys`]); the master aggregates
//! them exactly by true key value and applies the threshold — sketch
//! overestimates only add candidates, never wrong sums.

use super::{finish_keys, fold_keys, for_each_key, mismatch, Partial, PruningOperator, Survivors};
use crate::engine::CheetahTuning;
use crate::executor::Tables;
use crate::ops::clamp_sum;
use crate::query::QueryOutput;
use crate::table::Partition;
use cheetah_core::{planner, HavingAgg, HavingConfig, PassPlan, QuerySpec};

/// The refusal of `HAVING SUM > c` with `c < 0`. The sketch sums clamped
/// non-negative values against an unsigned threshold, so a key whose true
/// (negative) sum exceeds `c` would estimate 0 ≤ 0 and never be announced
/// — a silent contract violation. It is refused, typed, instead.
pub(crate) fn negative_threshold() -> cheetah_core::Error {
    let op = "HAVING SUM > c with negative c (sketch sums are unsigned)";
    cheetah_switch::SwitchError::UnsupportedOp { op }.into()
}

/// The HAVING-SUM operator.
pub struct HavingSumOp {
    key_col: usize,
    val_col: usize,
    threshold: i64,
    counters: usize,
    seed: u64,
}

impl HavingSumOp {
    /// Keys whose `SUM(val_col)` exceeds `threshold`, with the cluster's
    /// sketch tuning.
    pub fn new(key_col: usize, val_col: usize, threshold: i64, tuning: &CheetahTuning) -> Self {
        Self { key_col, val_col, threshold, counters: tuning.having_counters, seed: tuning.seed }
    }
}

impl PruningOperator for HavingSumOp {
    fn kind(&self) -> &'static str {
        "having-sum"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        // `SUM < c` is future work in the paper; the planner rejects it.
        planner::validate_having_direction(false)?;
        // `DbQuery::check` refuses `c < 0` before either arm runs; this
        // refuses it again for a caller of the one-slice executor.
        let threshold = u64::try_from(self.threshold).map_err(|_| negative_threshold())?;
        Ok(QuerySpec::Having(HavingConfig {
            cm_rows: 3,
            cm_counters: self.counters,
            threshold,
            agg: HavingAgg::Sum,
            dedup_rows: 1024,
            dedup_cols: 2,
            seed: self.seed,
        }))
    }

    fn pass_plan(&self) -> PassPlan {
        PassPlan::CandidateKeys { key_slot: 0 }
    }

    fn encode_part(&self, _stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        let vals = part.column(self.val_col).as_int().expect("int sum col");
        for_each_key(self.seed, part.coded(self.key_col), |r, k| sink(&[k, vals[r].max(0) as u64]));
    }

    fn fold<'t>(&self, src: &Tables<'t>, survivors: &Survivors) -> Partial {
        // Exact `i128` sums by true (borrowed) key (a coded key by code):
        // no sum of `i64` cells overflows them.
        let vals = |part: &'t Partition| {
            let vals = part.column(self.val_col).as_int().expect("int sum col");
            move |r| i128::from(vals[r])
        };
        Partial::Sum(fold_keys(src, survivors, 0, self.key_col, vals, |a, b| a + b))
    }

    fn finish(&self, partials: Vec<Partial>) -> QueryOutput {
        // The threshold judges whole sums, so it runs after the partials
        // are added: an owned `Value` only for the keys that clear it,
        // each sum reported clamped to `i64`.
        let sums = partials.into_iter().map(|p| match p {
            Partial::Sum(sums) => sums,
            p => mismatch(self.kind(), &p),
        });
        let over = finish_keys(sums, |a, b| a + b, |s| s > i128::from(self.threshold));
        QueryOutput::KeyedInts(over.into_iter().map(|(k, s)| (k, clamp_sum(s))).collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Cluster, ExecBackend};
    use crate::query::DbQuery;
    use crate::testutil::test_table;
    use cheetah_core::Error;
    use cheetah_switch::SwitchError;

    #[test]
    fn negative_threshold_is_a_typed_error_not_a_wrong_answer() {
        // A negative threshold cannot be decided by the unsigned sketch;
        // the switch path must refuse rather than silently drop keys the
        // baseline would return.
        let cluster = Cluster::default();
        let t = test_table(200, 2);
        let q = DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: -100 };
        let err = cluster.run_cheetah(&q, &t, None, ExecBackend::Interpreted).unwrap_err();
        assert!(
            matches!(err, Error::Switch(SwitchError::UnsupportedOp { .. })),
            "unexpected error: {err:?}"
        );
        // The baseline path still answers (its operators are signed).
        let base = cluster.run_baseline(&q, &t, None);
        assert!(base.output.cardinality() > 0);
    }

    #[test]
    fn zero_threshold_is_still_offloadable() {
        let cluster = Cluster::default();
        let t = test_table(500, 2);
        let q = DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 0 };
        let base = cluster.run_baseline(&q, &t, None);
        let chee = cluster.run_cheetah(&q, &t, None, ExecBackend::Interpreted).unwrap();
        assert_eq!(base.output, chee.output);
    }
}
