//! The mid-run re-planner: watch per-shard load, re-fit boundaries.
//!
//! The up-front planner (`ShardLayout::Planned`) decides once from a
//! sample of the *whole* input. A long run whose key distribution
//! drifts — or whose fitted boundaries simply turned out wrong — shows up
//! as dispatched-load imbalance while the run is still in flight. The
//! [`RuntimeSupervisor`] closes that loop with the same estimator
//! machinery the planner uses (`cheetah_core::plan`): when the hottest
//! shard's dispatched share exceeds the configured factor of the balanced
//! share, it re-samples the **remaining** routing keys (through the
//! planner's bounded stride), fits fresh
//! quantile boundaries, and hands back a replacement [`Sharder`] iff the
//! re-fit actually balances the sampled remainder better than the current
//! routing does.
//!
//! Decisions read only dispatched row counts and routing keys — both
//! deterministic in (seed, data) — so a re-planned layout is as
//! reproducible as an up-front plan, and [`ExecPlan::new`](crate::ExecPlan::new)
//! can consult the supervisor between rounds without executing anything.

use cheetah_core::plan::{fit_boundaries, max_load_fraction, KeySampler};
use cheetah_core::Sharder;

/// One supervisor intervention, adopted or not — kept so runs can be
/// audited like the planner's [`PlanReport`](cheetah_core::plan::PlanReport).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanEvent {
    /// The input round after which the trigger fired (0-based).
    pub after_round: usize,
    /// Hottest shard's dispatched rows over the balanced share.
    pub observed_imbalance: f64,
    /// Keys sampled from the remaining input.
    pub sampled_rows: usize,
    /// Max sampled shard-load fraction of the *current* routing on the
    /// remainder.
    pub current_load: f64,
    /// Max sampled shard-load fraction of the re-fitted boundaries on the
    /// same sample.
    pub refit_load: f64,
    /// Whether the re-fit was adopted (it must strictly beat the current
    /// routing on the sample).
    pub adopted: bool,
}

/// Watches dispatched per-shard load between rounds and proposes
/// re-fitted range boundaries for the remaining input.
#[derive(Debug, Clone)]
pub struct RuntimeSupervisor {
    factor: f64,
    sample_size: usize,
    seed: u64,
    events: Vec<ReplanEvent>,
    /// Dispatched counts at the last intervention: the trigger reads the
    /// load accumulated *since then*, so skew that an adopted re-fit
    /// already cured (or that provably cannot be cured — a rejected
    /// re-fit) does not keep firing the trigger round after round.
    baseline: Vec<u64>,
}

impl RuntimeSupervisor {
    /// A supervisor triggering above `factor` load imbalance, sampling
    /// `sample_size` keys of the remainder, seeded like everything else.
    pub fn new(factor: f64, sample_size: usize, seed: u64) -> Self {
        Self {
            factor,
            sample_size: sample_size.max(1),
            seed,
            events: Vec::new(),
            baseline: Vec::new(),
        }
    }

    /// Interventions so far (adopted and rejected).
    pub fn events(&self) -> &[ReplanEvent] {
        &self.events
    }

    /// Consume the supervisor, yielding its intervention log.
    pub fn into_events(self) -> Vec<ReplanEvent> {
        self.events
    }

    /// Adopted re-plans so far.
    pub fn adopted(&self) -> u32 {
        self.events.iter().filter(|e| e.adopted).count() as u32
    }

    /// Observe the cumulative `dispatched` row counts after `round`.
    /// The trigger reads the load accumulated *since the supervisor's
    /// last intervention* (skew an adopted re-fit already cured must not
    /// keep firing it). Returns a replacement sharder when (a) the
    /// hottest shard's share of that delta exceeds `factor ×` the
    /// balanced share, and (b) quantile boundaries fitted to a sample of
    /// `remaining_keys` balance that sample strictly better than
    /// `current` does. Purely deterministic in its inputs.
    pub fn consider(
        &mut self,
        round: usize,
        dispatched: &[u64],
        remaining_keys: &[u64],
        current: &Sharder,
    ) -> Option<Sharder> {
        let shards = current.shards();
        if self.baseline.len() != dispatched.len() {
            self.baseline = vec![0; dispatched.len()];
        }
        let delta: Vec<u64> =
            dispatched.iter().zip(&self.baseline).map(|(d, b)| d.saturating_sub(*b)).collect();
        let total: u64 = delta.iter().sum();
        if shards < 2 || total == 0 || remaining_keys.is_empty() {
            return None;
        }
        let hottest = delta.iter().copied().max().unwrap_or(0) as f64;
        let imbalance = hottest / (total as f64 / shards as f64);
        if imbalance <= self.factor {
            return None;
        }
        self.baseline.copy_from_slice(dispatched);

        let mut sampler = KeySampler::new(self.sample_size, self.seed ^ (round as u64 + 1));
        sampler.offer_strided(&[remaining_keys.len()], |_, row| remaining_keys[row]);
        let stats = sampler.finish();
        let current_load = max_load_fraction(&stats.sample, current);
        // A broken fit (non-monotonic cuts) is a typed error upstream;
        // the supervisor just declines to act on it.
        let refit = Sharder::fitted_range(fit_boundaries(&stats.sample, shards)).ok()?;
        let refit_load = max_load_fraction(&stats.sample, &refit);
        let adopted = refit_load < current_load;
        self.events.push(ReplanEvent {
            after_round: round,
            observed_imbalance: imbalance,
            sampled_rows: stats.sample.len(),
            current_load,
            refit_load,
            adopted,
        });
        adopted.then_some(refit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::ShardPartitioner;

    /// Keys clustered at the bottom of an equal-span range — span 0 owns
    /// everything, which quantile cuts fix.
    fn clustered_keys() -> Vec<u64> {
        (0..4_000u64).map(|i| i % 97).collect()
    }

    #[test]
    fn balanced_load_never_triggers() {
        let mut sup = RuntimeSupervisor::new(2.0, 256, 7);
        let current = Sharder::new(ShardPartitioner::Hash, 4, 7);
        assert!(sup.consider(0, &[100, 100, 100, 100], &clustered_keys(), &current).is_none());
        assert!(sup.events().is_empty());
    }

    #[test]
    fn imbalance_over_a_degenerate_range_adopts_the_refit() {
        let mut sup = RuntimeSupervisor::new(2.0, 512, 7);
        // The whole u64 space in 4 equal spans, but every key lives under
        // 97 — span 0 serializes the run.
        let current = Sharder::new(ShardPartitioner::Range, 4, 7);
        let new = sup
            .consider(0, &[970, 10, 10, 10], &clustered_keys(), &current)
            .expect("refit adopted");
        let e = &sup.events()[0];
        assert!(e.adopted);
        assert!(e.observed_imbalance > 2.0);
        assert!(e.refit_load < e.current_load);
        assert_eq!(new.shards(), 4);
        // The adopted sharder spreads the clustered keys.
        let load = max_load_fraction(&clustered_keys(), &new);
        assert!(load < 0.5, "refit load {load}");
        assert_eq!(sup.adopted(), 1);
    }

    #[test]
    fn refit_that_cannot_beat_the_current_routing_is_rejected_but_logged() {
        // Single hot key: no key-aligned routing can split it, so the
        // re-fit never strictly beats hash.
        let keys = vec![42u64; 2_000];
        let mut sup = RuntimeSupervisor::new(2.0, 256, 3);
        let current = Sharder::new(ShardPartitioner::Hash, 4, 3);
        assert!(sup.consider(1, &[1_900, 40, 40, 20], &keys, &current).is_none());
        let e = &sup.events()[0];
        assert!(!e.adopted);
        assert_eq!(sup.adopted(), 0);
    }

    #[test]
    fn degenerate_inputs_are_ignored() {
        let mut sup = RuntimeSupervisor::new(2.0, 256, 3);
        let one = Sharder::new(ShardPartitioner::Hash, 1, 3);
        assert!(sup.consider(0, &[500], &clustered_keys(), &one).is_none(), "one shard");
        let four = Sharder::new(ShardPartitioner::Hash, 4, 3);
        assert!(sup.consider(0, &[0, 0, 0, 0], &clustered_keys(), &four).is_none(), "no rows");
        assert!(sup.consider(0, &[900, 1, 1, 1], &[], &four).is_none(), "nothing left to route");
        assert!(sup.events().is_empty());
    }

    #[test]
    fn cured_skew_does_not_keep_firing_the_trigger() {
        let mut sup = RuntimeSupervisor::new(2.0, 512, 7);
        let current = Sharder::new(ShardPartitioner::Range, 4, 7);
        let keys = clustered_keys();
        // Round 0: heavily skewed — intervention fires and is adopted.
        let refit = sup.consider(0, &[970, 10, 10, 10], &keys, &current).expect("adopted");
        assert_eq!(sup.events().len(), 1);
        // Rounds 1–2: the *new* dispatch is balanced; the old cumulative
        // skew must not re-trigger (no new events, no re-sampling churn).
        assert!(sup.consider(1, &[1_220, 260, 260, 260], &keys, &refit).is_none());
        assert!(sup.consider(2, &[1_470, 510, 510, 510], &keys, &refit).is_none());
        assert_eq!(sup.events().len(), 1, "cured skew re-fired: {:?}", sup.events());
        // Fresh skew after the cure is a new signal: the trigger fires
        // and logs again (whether the new fit is adopted is a separate,
        // sample-driven decision).
        let _ = sup.consider(3, &[1_470, 2_510, 510, 510], &keys, &refit);
        assert_eq!(sup.events().len(), 2, "fresh skew must re-fire: {:?}", sup.events());
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut sup = RuntimeSupervisor::new(1.5, 128, 11);
            let current = Sharder::new(ShardPartitioner::Range, 4, 11);
            let adopted = sup.consider(0, &[800, 5, 5, 5], &clustered_keys(), &current);
            (adopted, sup.into_events())
        };
        assert_eq!(run(), run());
    }
}
