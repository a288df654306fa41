//! The online path chooser under skew: the same query replayed on the
//! planner-adversarial workloads, the UCB1 bandit picking which
//! (execution path × pruning backend) arm runs each round.
//!
//! Layout is resident, as everywhere else in the harness: one `ExecPlan`
//! (routing keys, fitted sharder, shard split) is built once per
//! workload and every arm executes it — the path arm switches only the
//! plan's transport — so the costs the bandit observes are the costs the
//! arms actually differ on. A
//! round-robin reference phase (every arm played the same number of
//! times) establishes each arm's mean completion cost independently of
//! the bandit's choices — the table reports both, and the regret line
//! compares the bandit's cumulative cost against replaying the
//! always-interpreted arm for the same number of rounds.

use crate::report::secs;
use crate::{Report, RunCtx, Scale};
use cheetah_core::ShardPartitioner;
use cheetah_db::{ChooserArm, Cluster, DbQuery, ExecBackend, PathChooser, ShardSpec};
use cheetah_net::ExecBreakdown;
use cheetah_runtime::{execute, ExecPlan, StreamSpec};
use cheetah_workloads::PlannerAdversary;
use std::sync::Arc;

/// Link rate the chooser prices completions over — the crossover sweep's
/// 10G, so arm costs line up with the rest of the harness.
pub const CHOOSER_LINK_GBPS: f64 = 10.0;

/// Shards every arm runs on.
const CHOOSER_SHARDS: usize = 4;

/// One workload held resident: both backend clusters and the one routed
/// plan every arm executes.
struct ResidentWorkload {
    interp: Cluster,
    compiled: Cluster,
    plan: ExecPlan,
}

impl ResidentWorkload {
    fn new(adversary: PlannerAdversary, rows: usize, seed: u64) -> Self {
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let interp = Cluster::default();
        let compiled = interp.clone().with_backend(ExecBackend::Compiled);
        let table = Arc::new(adversary.table(rows, CHOOSER_SHARDS, seed));
        // One round, like the serving plane's resident layouts.
        let spec = StreamSpec {
            rounds: 1,
            ..StreamSpec::fixed(ShardSpec::new(CHOOSER_SHARDS, ShardPartitioner::Hash))
        };
        let plan = ExecPlan::new(&interp, &q, &table, None, &spec).expect("routes");
        Self { interp, compiled, plan }
    }

    /// Execute one round on `arm` and return its breakdown.
    fn play(&self, arm: ChooserArm) -> ExecBreakdown {
        let cluster = match arm.backend {
            ExecBackend::Interpreted => &self.interp,
            ExecBackend::Compiled => &self.compiled,
        };
        execute(cluster, &self.plan.for_path(arm.path)).expect("plan fits").breakdown
    }
}

/// What one workload's session produced: the converged bandit, the
/// reference means, and the round count — everything the report (and the
/// convergence test) reads.
struct Session {
    name: String,
    chooser: PathChooser,
    reference: Vec<(ChooserArm, f64)>,
    rounds: usize,
}

impl Session {
    /// The reference-cheapest arm — ground truth the bandit should find.
    fn reference_best(&self) -> (ChooserArm, f64) {
        *self
            .reference
            .iter()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite costs"))
            .expect("four arms")
    }

    /// Mean reference cost of the always-interpreted barrier arm.
    fn always_interpreted_mean(&self) -> f64 {
        self.reference
            .iter()
            .find(|(arm, _)| *arm == PathChooser::ARMS[0])
            .map(|(_, c)| *c)
            .expect("pooled/interp is a reference arm")
    }
}

fn run_session(
    adversary: PlannerAdversary,
    rows: usize,
    seed: u64,
    ref_reps: usize,
    rounds: usize,
) -> Session {
    let w = ResidentWorkload::new(adversary, rows, seed);
    // Reference phase: round-robin so every arm sees the same machine
    // drift, means independent of the bandit's exploitation.
    let mut totals = [0.0f64; 4];
    for _ in 0..ref_reps {
        for (i, arm) in PathChooser::ARMS.iter().enumerate() {
            totals[i] += w.play(*arm).completion_seconds(CHOOSER_LINK_GBPS);
        }
    }
    let reference: Vec<(ChooserArm, f64)> =
        PathChooser::ARMS.iter().zip(totals).map(|(a, t)| (*a, t / ref_reps as f64)).collect();
    // Bandit phase: the chooser picks, observes, repeats.
    let mut chooser = PathChooser::new(CHOOSER_LINK_GBPS);
    for _ in 0..rounds {
        let arm = chooser.next();
        let breakdown = w.play(arm);
        chooser.observe(arm, &breakdown);
    }
    Session { name: adversary.name(), chooser, reference, rounds }
}

/// Run the chooser convergence experiment on both skewed adversaries.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let (rows, ref_reps, rounds) = match ctx.scale {
        Scale::Quick => (6_000, 3, 40),
        Scale::Full => (30_000, 5, 96),
    };
    let mut report = Report::new(
        "chooser",
        format!("Online path chooser under skew ({rows} rows, {rounds} bandit rounds, {CHOOSER_LINK_GBPS:.0}G)"),
        &["workload", "arm", "plays", "bandit mean", "reference mean", "verdict"],
    );
    for adversary in [PlannerAdversary::Zipf(1.5), PlannerAdversary::SingleHotKey] {
        let s = run_session(adversary, rows, 42, ref_reps, rounds);
        let (ref_best, ref_best_cost) = s.reference_best();
        let converged = s.chooser.best();
        for (arm, ref_mean) in &s.reference {
            let bandit_mean = s.chooser.mean_cost(*arm);
            let mut verdict = String::new();
            if *arm == converged {
                verdict.push_str("<- bandit best");
            }
            if *arm == ref_best {
                verdict.push_str(if verdict.is_empty() {
                    "<- reference best"
                } else {
                    " = reference best"
                });
            }
            report.row(vec![
                s.name.clone(),
                arm.label(),
                s.chooser.plays_of(*arm).to_string(),
                bandit_mean.map_or("-".into(), secs),
                secs(*ref_mean),
                verdict,
            ]);
        }
        let bandit_total = s.chooser.cumulative_cost();
        let always_interp_total = s.always_interpreted_mean() * s.rounds as f64;
        report.note(format!(
            "{}: bandit converged to {} (reference best {} at {}); cumulative cost {} vs always-interpreted {} over {} rounds",
            s.name,
            converged.label(),
            ref_best.label(),
            secs(ref_best_cost),
            secs(bandit_total),
            secs(always_interp_total),
            s.rounds,
        ));
    }
    report.note(
        "one routed plan (keys, sharder, shard split) is resident for every arm; \
         rounds pay execution only, so arm costs differ on transport and backend alone",
    );
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One session's convergence properties, as a checkable result so
    /// the test can retry: under a parallel `cargo test --workspace` the
    /// reference phase and the bandit phase run beneath different
    /// machine contention, and a single unlucky session can rank
    /// near-tied arms differently across the two phases.
    fn check_session(s: &Session) -> Result<(), String> {
        let (_, ref_best_cost) = s.reference_best();
        // Convergence: the arm the bandit settled on must be
        // near-cheapest by the independent reference means — exact arm
        // identity can tie within noise on a busy runner, closeness in
        // cost cannot.
        let converged = s.chooser.best();
        let converged_ref = s
            .reference
            .iter()
            .find(|(a, _)| *a == converged)
            .map(|(_, c)| *c)
            .expect("converged arm has a reference mean");
        if converged_ref > ref_best_cost * 1.3 {
            return Err(format!(
                "bandit settled on {} at reference cost {converged_ref:.6}s, \
                 but the reference-cheapest arm costs {ref_best_cost:.6}s",
                converged.label(),
            ));
        }
        // Regret: the bandit's cumulative cost (exploration included)
        // must beat replaying the always-interpreted barrier arm — with
        // slack for the four forced exploration pulls.
        let bandit_total = s.chooser.cumulative_cost();
        let always_interp = s.always_interpreted_mean() * s.rounds as f64;
        if bandit_total > always_interp * 1.15 {
            return Err(format!(
                "bandit paid {bandit_total:.6}s over {} rounds, \
                 always-interpreted would pay {always_interp:.6}s",
                s.rounds,
            ));
        }
        // The bandit exploited: whichever arm the reference phase ranks
        // worst must have lost its round-robin share (rounds/4) to the
        // cheap arms. Near-tied arms can swap ranks within noise — the
        // *worst* one cannot climb into contention.
        let (ref_worst, _) = *s
            .reference
            .iter()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite costs"))
            .expect("four arms");
        if s.chooser.plays_of(ref_worst) >= (s.rounds as u64) / 5 {
            return Err(format!(
                "worst arm {} kept {} of {} rounds — no better than round-robin",
                ref_worst.label(),
                s.chooser.plays_of(ref_worst),
                s.rounds,
            ));
        }
        Ok(())
    }

    #[test]
    fn bandit_converges_near_the_cheapest_arm_and_beats_always_interpreted() {
        let mut failures = Vec::new();
        for _ in 0..3 {
            let s = run_session(PlannerAdversary::Zipf(1.5), 4_000, 42, 3, 40);
            match check_session(&s) {
                Ok(()) => return,
                Err(e) => failures.push(e),
            }
        }
        panic!("no session converged in 3 attempts:\n{}", failures.join("\n"));
    }

    #[test]
    fn report_lists_all_four_arms_per_workload() {
        let mut ctx = RunCtx::quick();
        ctx.shards = vec![CHOOSER_SHARDS];
        let reports = run(&ctx);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].rows.len(), 2 * PathChooser::ARMS.len());
        for label in ["pooled/interp", "pooled/compiled", "streamed/interp", "streamed/compiled"] {
            assert!(reports[0].rows.iter().any(|r| r[1] == label), "missing arm row {label}");
        }
    }
}
