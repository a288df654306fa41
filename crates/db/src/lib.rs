//! # cheetah-db — a columnar, partition-parallel mini query engine
//!
//! The Cheetah paper measures query completion time on Spark SQL with and
//! without switch pruning. This crate is the Spark stand-in: a small but
//! real query engine with the structural properties the paper's evaluation
//! depends on —
//!
//! * **columnar partitions** distributed over workers,
//! * a **worker/master split**: workers compute partial results over their
//!   partitions (in parallel threads), the master merges,
//! * **late materialization**: queries first run on the metadata columns,
//!   then fetch full rows for the surviving entry ids,
//! * a **Cheetah path** where workers only *serialize* the queried columns
//!   (no per-row computation), the switch prunes, and the master completes
//!   the query on the survivors — producing bit-identical output to the
//!   baseline path,
//! * a **shard layout layer** ([`sharded`]) that routes rows to N worker
//!   shards (hash/range partitioners from `cheetah-core`) and a master
//!   merge plane ([`master`]) with per-operator semantics;
//!   `cheetah-runtime` runs the generic executor per shard in parallel —
//!   each with its own switch program — between the two, preserving
//!   `Q(merge(shards(D))) = Q(D)`.
//!
//! What is modelled and what is not (smoltcp-style honesty):
//!
//! * **Modelled**: per-phase wall-clock measurement of real work (the
//!   operators actually execute), byte accounting for every transfer,
//!   worker parallelism via threads, the master ingest/buffering model
//!   behind Figure 9.
//! * **Not modelled**: SQL parsing, a cost-based optimizer, spilling,
//!   fault tolerance, or columnar compression codecs (compression is a
//!   constant factor applied to baseline transfer sizes, as §7.1 notes
//!   Spark compresses and Cheetah cannot).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod executor;
pub mod expr;
pub mod master;
pub mod operators;
pub mod ops;
pub mod planner;
pub mod query;
pub mod sharded;
pub mod table;
pub mod value;

#[cfg(test)]
mod testutil;

pub use cheetah_core::{ShardPartitioner, Sharder};
pub use engine::{CheetahRun, CheetahTuning, Cluster, ExecBackend, ExecBreakdown, SparkRun};
pub use executor::Tables;
pub use expr::{DbPredicate, IntCmp, LikePattern};
pub use master::{decompose_output, merge_shard_outputs, MergeItem, MergeState};
pub use planner::{
    fixed_sharder, routing_keys, unit_columns, units, ChooserArm, ExecPath, PathChooser,
    PlannerConfig, ShardPlan, ShardPlanner,
};
pub use query::{DbQuery, QueryOutput};
pub use sharded::{route_columns, route_range, RouteStream, ShardSpec, ShardStats};
pub use table::{Column, Partition, Table, TableBuilder};
pub use value::{DataType, Value};
