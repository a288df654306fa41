//! What an [`ExecPlan`](crate::ExecPlan) is built from.

use cheetah_core::plan::ShardPlan;
use cheetah_db::ShardSpec;
use cheetah_net::FaultProfile;
use std::sync::Arc;

/// Where the plan constructor gets its sharder.
#[derive(Debug, Clone)]
pub enum ShardLayout {
    /// A hand-picked spec.
    Fixed(ShardSpec),
    /// A plan the sampling planner fitted
    /// ([`ShardPlanner::plan`](cheetah_db::ShardPlanner::plan)) — just
    /// now, or earlier and kept on a layout the serving plane holds.
    Fitted(Arc<ShardPlan>),
}

/// Everything [`ExecPlan::new`](crate::ExecPlan::new) needs beyond the
/// query and its tables.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Shard layout (a fixed spec or a fitted plan).
    pub layout: ShardLayout,
    /// Survivor-batch size in merge items; `None` reads it off the rack
    /// ingest model's fan-in curve
    /// ([`suggested_batch`](cheetah_net::MasterIngestModel::suggested_batch)).
    pub batch: Option<usize>,
    /// Fault mode: when set, the stream transport's survivor frames reach
    /// the merge across the seeded lossy rack of [`cheetah_net::rack`]
    /// (simulated time). `None` folds them as the workers framed them.
    pub fault: Option<FaultSpec>,
}

impl StreamSpec {
    /// Lay out under a hand-picked shard spec.
    pub fn fixed(spec: ShardSpec) -> Self {
        Self::over(ShardLayout::Fixed(spec))
    }

    /// Lay out under a fitted plan.
    pub fn fitted(plan: Arc<ShardPlan>) -> Self {
        Self::over(ShardLayout::Fitted(plan))
    }

    fn over(layout: ShardLayout) -> Self {
        Self { layout, batch: None, fault: None }
    }
}

/// The stream transport's fault mode: each shard's finished survivor
/// frames cross the simulated §7.2 rack of [`cheetah_net::rack`] — seeded
/// lossy links (drops, single-octet corruption, duplication, reordering),
/// go-back-N workers, a sequencing switch and a deduping master — before
/// the merge sees them, so the run only completes once every frame has
/// actually been merged. Window and retransmission timeout are the
/// carrier's, in simulated time.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Fault probabilities applied to every link of the rack.
    pub profile: FaultProfile,
    /// Seed of the links' fault draws, so a lossy run is reproducible
    /// frame for frame — retransmit counts included.
    pub seed: u64,
}

impl FaultSpec {
    /// A lossy fabric with the given profile and seed.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// The smoltcp-style harsh profile (15% drop + 15% corrupt).
    pub fn harsh(seed: u64) -> Self {
        Self::new(FaultProfile::harsh(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::ShardPartitioner;
    use cheetah_db::{DataType, DbQuery, ShardPlanner, TableBuilder};

    #[test]
    fn constructors_pick_the_layout_and_leave_the_transport_to_the_ingest_model() {
        let fixed = StreamSpec::fixed(ShardSpec::new(3, ShardPartitioner::Hash));
        assert!(matches!(fixed.layout, ShardLayout::Fixed(s) if s.shards == 3));
        let empty = TableBuilder::new("t", vec![("k".into(), DataType::Str)], 1).build();
        let q = DbQuery::Distinct { col: 0 };
        let plan = Arc::new(ShardPlanner::default().plan(&q, &empty, None, 7));
        let fitted = StreamSpec::fitted(Arc::clone(&plan));
        assert!(matches!(&fitted.layout, ShardLayout::Fitted(p) if Arc::ptr_eq(p, &plan)));
        for spec in [fixed, fitted] {
            assert!(spec.batch.is_none());
            assert!(spec.fault.is_none(), "the carrier is lossless unless asked otherwise");
        }
    }

    #[test]
    fn fault_spec_constructors_pick_sane_knobs() {
        let harsh = FaultSpec::harsh(7);
        assert_eq!(harsh.seed, 7);
        assert!(harsh.profile.drop_prob > 0.0 && harsh.profile.corrupt_prob > 0.0);
        let mild = FaultSpec::new(FaultProfile { drop_prob: 0.01, ..FaultProfile::lossless() }, 3);
        assert_eq!(mild.profile.corrupt_prob, 0.0);
    }
}
