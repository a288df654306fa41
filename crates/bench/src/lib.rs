//! # cheetah-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation. Each experiment
//! is a function `run(scale) -> Report` (or several reports for
//! multi-panel figures) that regenerates the corresponding rows/series;
//! the `cheetah-experiments` binary runs them all and writes text + CSV.
//!
//! | experiment | paper artifact |
//! |---|---|
//! | [`experiments::table2`] | Table 2 — per-algorithm switch resources |
//! | [`experiments::table3`] | Table 3 — hardware comparison (constants) |
//! | [`experiments::fig5`] | Fig. 5 — completion time, 9 queries, Spark vs Cheetah |
//! | [`experiments::fig6`] | Fig. 6 — workers / data-scale sweeps (DISTINCT) |
//! | [`experiments::fig7`] | Fig. 7 — NetAccel result-drain overhead |
//! | [`experiments::fig8`] | Fig. 8 — delay breakdown at 10G/20G |
//! | [`experiments::fig9`] | Fig. 9 — blocking master latency vs unpruned fraction |
//! | [`experiments::fig10`] | Fig. 10a–f — pruning rate vs resources |
//! | [`experiments::fig11`] | Fig. 11a–f — pruning rate vs data scale |
//! | [`experiments::fig12_13`] | Figs. 12/13 — server vs switch-CPU processing |
//!
//! Beyond the paper's artifacts, [`experiments`] carries the repository's
//! own report-only sweeps (`ablations`, `shards`, `planner`, `runtime`,
//! `crossover`, `serving`, `fabric`). They print what they
//! measured and assert only outputs: wall clock is *gated* in one place,
//! the `cheetah-ledger` benchmark package, and nowhere in this crate.
//!
//! `Scale::Quick` keeps every experiment in CI-friendly territory;
//! `Scale::Full` runs the paper-sized streams (tens of millions of
//! entries) and takes minutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workload;

pub use report::Report;
pub use workload::{ArrivalMode, ServingWorkload, TenantSpec};

/// The skewed table pair (`rows` left rows over 4 partitions, `rows / 2`
/// right rows over 2, 200 zipf keys each) the `crossover` and `serving`
/// experiments and the `--trace` demo run on.
pub fn skewed_tables(
    rows: usize,
    seed: u64,
) -> (std::sync::Arc<cheetah_db::Table>, std::sync::Arc<cheetah_db::Table>) {
    use cheetah_workloads::SkewedTableConfig;
    let left = SkewedTableConfig {
        rows,
        partitions: 4,
        partition_skew: 0.6,
        keys: 200,
        key_skew: 1.0,
        seed,
    };
    let right = SkewedTableConfig {
        rows: rows / 2,
        partitions: 2,
        partition_skew: 0.4,
        keys: 200,
        key_skew: 0.8,
        seed: seed ^ 0xFACE,
    };
    (left.build().into(), right.build().into())
}

/// Route `q` under `spec` and execute it on the barrier transport — the
/// classic sharded run.
pub fn run_barrier(
    cluster: &cheetah_db::Cluster,
    q: &cheetah_db::DbQuery,
    left: &std::sync::Arc<cheetah_db::Table>,
    right: Option<&std::sync::Arc<cheetah_db::Table>>,
    spec: &cheetah_runtime::StreamSpec,
) -> cheetah_runtime::ExecRun {
    let plan = cheetah_runtime::ExecPlan::new(cluster, q, left, right, spec).expect("routes");
    cheetah_runtime::execute(cluster, &plan.for_path(cheetah_db::ExecPath::BarrierPooled))
        .expect("plan fits")
}

/// The layout `planner` fits for `q` over these tables, as a spec — what
/// the serving plane builds at second sight of a request.
pub fn fitted_spec(
    cluster: &cheetah_db::Cluster,
    planner: &cheetah_db::ShardPlanner,
    q: &cheetah_db::DbQuery,
    left: &std::sync::Arc<cheetah_db::Table>,
    right: Option<&std::sync::Arc<cheetah_db::Table>>,
) -> cheetah_runtime::StreamSpec {
    let plan = planner.plan(q, left, right.map(|r| &**r), cluster.tuning.seed);
    cheetah_runtime::StreamSpec::fitted(std::sync::Arc::new(plan), planner.cfg.ingest)
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small streams; seconds per experiment.
    Quick,
    /// Paper-sized streams; minutes.
    Full,
}

impl Scale {
    /// Multiply a quick-scale count up for full scale.
    pub fn entries(&self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Shared experiment inputs: the scale plus the sweep axes an experiment
/// may honour. Today that is one axis — the worker-shard counts driven by
/// `cheetah-experiments --shards` — so adding the next axis (batch sizes,
/// link rates…) does not change every experiment signature again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCtx {
    /// Stream/table sizes.
    pub scale: Scale,
    /// Worker-shard counts for sharded-execution sweeps (ignored by
    /// experiments without a shard axis).
    pub shards: Vec<usize>,
}

impl RunCtx {
    /// A context at `scale` with the default 1→16 shard axis.
    pub fn new(scale: Scale) -> Self {
        Self { scale, shards: vec![1, 2, 4, 8, 16] }
    }

    /// Quick scale, default axes — what unit tests use.
    pub fn quick() -> Self {
        Self::new(Scale::Quick)
    }

    /// The shard planner the sharded experiments use: candidate shard
    /// counts bounded by this context's `--shards` axis, so a sweep and
    /// its planned comparison row search the same space.
    pub fn planner(&self) -> cheetah_db::ShardPlanner {
        cheetah_db::ShardPlanner::new(cheetah_db::PlannerConfig {
            max_shards: self.shards.iter().copied().max().unwrap_or(8),
            ..cheetah_db::PlannerConfig::default()
        })
    }
}
