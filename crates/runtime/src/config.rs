//! What an [`ExecPlan`](crate::ExecPlan) is built from.

use cheetah_core::plan::ShardPlan;
use cheetah_db::{ShardPlanner, ShardSpec};
use cheetah_net::{FaultProfile, MasterIngestModel};
use std::sync::Arc;

/// Where the plan constructor gets its sharder.
#[derive(Debug, Clone)]
pub enum ShardLayout {
    /// A hand-picked spec.
    Fixed(ShardSpec),
    /// Sample-driven: the planner fits a [`ShardPlan`] to the routing keys.
    Planned(ShardPlanner),
    /// A plan fitted earlier (the serving plane's plan cache), priced
    /// under the given ingest model.
    Fitted(Arc<ShardPlan>, MasterIngestModel),
}

/// Everything [`ExecPlan::new`](crate::ExecPlan::new) needs beyond the
/// query and its tables.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Shard layout (fixed spec, planner, or an already-fitted plan).
    pub layout: ShardLayout,
    /// Survivor-batch size in merge items; `None` reads it off the ingest
    /// model's fan-in curve
    /// ([`suggested_batch`](MasterIngestModel::suggested_batch)).
    pub batch: Option<usize>,
    /// Input rounds for queries whose merge is routing-agnostic — the
    /// granularity at which survivors start flowing and at which the
    /// supervisor may re-plan. Key-holistic queries (HAVING, JOIN) always
    /// run one round.
    pub rounds: usize,
    /// Per-shard budget of in-flight survivor batches: the master's one
    /// shared channel is bounded at `channel_depth × shards` frames, so
    /// this caps the *aggregate* backlog (senders block when the merge
    /// plane falls behind — the backpressure that stands in for the
    /// paper's token-bucket pacing), not each shard individually. `None`
    /// derives the depth from the ingest model's link rates
    /// ([`suggested_depth`](MasterIngestModel::suggested_depth)) — the
    /// NIC-paced default.
    pub channel_depth: Option<usize>,
    /// Fault mode: when set, the stream transport's survivor frames reach
    /// the merge across the seeded lossy rack of [`cheetah_net::rack`]
    /// (simulated time, store-and-forward). `None` keeps the perfect
    /// in-process channel.
    pub fault: Option<FaultSpec>,
    /// Dispatched-load imbalance (hottest shard over the balanced share)
    /// above which the supervisor re-samples and re-fits — defaults to
    /// the planner contract's 2× bound.
    pub imbalance_factor: f64,
    /// Master switch for mid-run re-planning.
    pub replan: bool,
    /// Reservoir size of the supervisor's remaining-input sample.
    pub supervisor_sample: usize,
}

impl StreamSpec {
    /// Stream under a hand-picked shard spec.
    pub fn fixed(spec: ShardSpec) -> Self {
        Self { layout: ShardLayout::Fixed(spec), ..Self::default() }
    }

    /// Stream under a planner-chosen layout.
    pub fn planned(planner: ShardPlanner) -> Self {
        Self { layout: ShardLayout::Planned(planner), ..Self::default() }
    }
}

impl Default for StreamSpec {
    fn default() -> Self {
        Self {
            layout: ShardLayout::Planned(ShardPlanner::default()),
            batch: None,
            rounds: 4,
            channel_depth: None,
            fault: None,
            imbalance_factor: 2.0,
            replan: true,
            supervisor_sample: 512,
        }
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

    #[test]
    fn constructors_pick_the_layout_and_keep_defaults() {
        let fixed = StreamSpec::fixed(ShardSpec::new(3, ShardPartitioner::Hash));
        assert!(matches!(fixed.layout, ShardLayout::Fixed(s) if s.shards == 3));
        assert_eq!(fixed.rounds, 4);
        assert_eq!(fixed.imbalance_factor, 2.0);
        assert!(fixed.replan);
        let planned = StreamSpec::planned(ShardPlanner::default());
        assert!(matches!(planned.layout, ShardLayout::Planned(_)));
        assert!(planned.batch.is_none());
        assert!(planned.channel_depth.is_none(), "depth defaults to the NIC-paced suggestion");
        assert!(planned.fault.is_none(), "the channel is perfect unless asked otherwise");
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
