//! # cheetah-core — the pruning algorithms of the Cheetah paper
//!
//! Cheetah's central abstraction is **pruning** (§3): for a query `Q` over
//! data `D`, a pruning algorithm `A_Q` selects a subset `A_Q(D) ⊆ D` such
//! that `Q(A_Q(D)) = Q(D)` — deterministically, or with probability `1 - δ`
//! for the randomized variants of §5. The switch runs `A_Q`; the master runs
//! the unmodified query on the pruned data.
//!
//! Every algorithm here is expressed as a
//! [`SwitchProgram`](cheetah_switch::SwitchProgram) that allocates its
//! stages, ALUs, SRAM, TCAM and PHV bits from a
//! [`ResourceLedger`](cheetah_switch::ResourceLedger) at build time, so a
//! configuration that does not fit the switch fails with a precise error —
//! and Table 2 of the paper is regenerated by reading the ledger back.
//!
//! | paper § | query | module | guarantee |
//! |---|---|---|---|
//! | §4.1 Ex. 1 | Filtering / WHERE | [`filter`] | deterministic |
//! | §4.2 Ex. 2 | DISTINCT | [`distinct`] | deterministic (raw values) |
//! | §4.3 Ex. 3 | TOP N (threshold ladder) | [`topn`] | deterministic |
//! | §4.3 Ex. 4 | JOIN (Bloom filters) | [`join`] | deterministic |
//! | §4.3 Ex. 5 | HAVING (Count-Min) | [`having`] | deterministic |
//! | §4.4 Ex. 6 | SKYLINE (projections) | [`skyline`] | deterministic |
//! | §5 Ex. 7 | TOP N (randomized matrix) | [`topn`] | probabilistic (δ) |
//! | §5 Ex. 8 | DISTINCT (fingerprints) | [`distinct`] | probabilistic (δ) |
//! | §8 / Fig. 10d | GROUP BY (MAX/MIN) | [`groupby`] | deterministic* |
//!
//! \* deterministic given exact keys; probabilistic when keys are
//! fingerprinted by the CWorker (wide/string keys).
//!
//! The closed-form bounds the paper proves (Theorems 1–4 and 8–10 plus the
//! Lambert-W space optimization) live in [`analysis`] and are checked
//! against simulation by the test-suite and the Figure 10/11 harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod compile;
pub mod distinct;
pub mod error;
pub mod filter;
pub mod fingerprint;
pub mod groupby;
pub mod having;
pub mod hierarchy;
pub mod join;
pub mod operator;
pub mod planner;
pub mod pruner;
pub mod shard;
pub mod skyline;
pub mod topn;

pub use batch::{BatchVerdict, BatchedDistinct, BatchedDistinctConfig};
pub use compile::{CompiledProgram, PruneEngine};
pub use distinct::{DistinctConfig, DistinctOpt, DistinctPruner, EvictionPolicy};
pub use error::Error;
pub use filter::{AtomSpec, BoolExpr, CmpOp, ExternalMode, FilterConfig, FilterPruner, Predicate};
pub use fingerprint::FingerprintSpec;
pub use groupby::{AggKind, GroupByConfig, GroupByOpt, GroupByPruner};
pub use having::{HavingAgg, HavingConfig, HavingOpt, HavingPruner};
pub use hierarchy::MultiSwitch;
pub use join::{BloomKind, JoinConfig, JoinMode, JoinOpt, JoinPruner, JoinSide};
pub use operator::PassPlan;
pub use planner::{plan, PackedQueries, Plan, QuerySpec};
pub use pruner::{OptPruner, StandalonePruner};
pub use shard::{ShardPartitioner, Sharder};
pub use skyline::{SkylineConfig, SkylineOpt, SkylinePolicy, SkylinePruner};
pub use topn::{TopNDetConfig, TopNDetPruner, TopNOpt, TopNRandConfig, TopNRandPruner};

/// Result of the pruning layer: algorithm construction fails only for
/// resource reasons, execution only for model violations or a malformed
/// operator (see [`Error`]). Switch-substrate errors convert via `?`.
pub type Result<T> = std::result::Result<T, Error>;
