//! What an [`ExecPlan`](crate::ExecPlan) is laid out under — a
//! [`ShardLayout`] — and what its fault mode, set on the built plan
//! ([`ExecPlan::with_fault`](crate::ExecPlan::with_fault)), carries.

use cheetah_core::plan::ShardPlan;
use cheetah_db::ShardSpec;
use cheetah_net::FaultProfile;
use std::sync::Arc;

/// Which rows each shard streams through its switch: a hand-picked spec,
/// or a plan the sampling planner fitted. [`ExecPlan::new`](crate::ExecPlan::new)
/// takes either, converted by `From`.
#[derive(Debug, Clone)]
pub enum ShardLayout {
    /// A hand-picked spec.
    Fixed(ShardSpec),
    /// A plan the sampling planner fitted
    /// ([`ShardPlanner::plan`](cheetah_db::ShardPlanner::plan)) — just
    /// now, or earlier and kept on a layout the serving plane holds.
    Fitted(Arc<ShardPlan>),
}

impl From<ShardSpec> for ShardLayout {
    fn from(spec: ShardSpec) -> Self {
        ShardLayout::Fixed(spec)
    }
}

impl From<Arc<ShardPlan>> for ShardLayout {
    fn from(plan: Arc<ShardPlan>) -> Self {
        ShardLayout::Fitted(plan)
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
    /// Merge items per survivor frame: the unit the faults are drawn on.
    /// The master cuts each shard's output at this size
    /// ([`frame_items`](cheetah_db::frame_items)); a lossless run cuts as
    /// many items as a frame carries
    /// ([`MAX_BATCH_ITEMS`](cheetah_net::MAX_BATCH_ITEMS)).
    pub batch: usize,
}

impl FaultSpec {
    /// A lossy fabric with the given profile and seed, its flows cut into
    /// frames of `batch` merge items.
    pub fn new(profile: FaultProfile, seed: u64, batch: usize) -> Self {
        Self { profile, seed, batch }
    }

    /// The smoltcp-style harsh profile (15% drop + 15% corrupt).
    pub fn harsh(seed: u64, batch: usize) -> Self {
        Self::new(FaultProfile::harsh(), seed, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::ShardPartitioner;
    use cheetah_db::{DataType, DbQuery, ShardPlanner, TableBuilder};

    #[test]
    fn a_layout_is_a_spec_or_a_fitted_plan() {
        let fixed = ShardLayout::from(ShardSpec::new(3, ShardPartitioner::Hash));
        assert!(matches!(fixed, ShardLayout::Fixed(s) if s.shards == 3));
        let empty = TableBuilder::new("t", vec![("k".into(), DataType::Str)], 1).build();
        let q = DbQuery::Distinct { col: 0 };
        let plan = Arc::new(ShardPlanner::default().plan(&q, &empty, None, 7));
        let fitted = ShardLayout::from(Arc::clone(&plan));
        assert!(matches!(&fitted, ShardLayout::Fitted(p) if Arc::ptr_eq(p, &plan)));
    }

    #[test]
    fn fault_spec_constructors_pick_sane_knobs() {
        let harsh = FaultSpec::harsh(7, 4);
        assert_eq!((harsh.seed, harsh.batch), (7, 4));
        assert!(harsh.profile.drop_prob > 0.0 && harsh.profile.corrupt_prob > 0.0);
        let mild =
            FaultSpec::new(FaultProfile { drop_prob: 0.01, ..FaultProfile::lossless() }, 3, 16);
        assert_eq!(mild.profile.corrupt_prob, 0.0);
    }
}
