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
//! own report-only sweeps (`ablations`, `shards`, `fabric`).
//! [`experiments::shards`] is the one shard sweep: the seven Big Data
//! queries over the `--shards` axis and the served layout, each layout's
//! pruned and direct wall clock beside the Figure 8 and §4.6 models
//! (`make sweep` runs it at full scale). They print what they
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

pub use report::Report;

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
}
