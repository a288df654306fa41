//! # cheetah-runtime — one plan, one executor, two transports
//!
//! Cheetah's dataflow (§2) is one thing: route rows to shard workers,
//! prune each shard at its switch, merge the survivors at the master.
//! This crate implements it once. [`ExecPlan::new`] does all the routing
//! (sharder → keys → per-round shard slices of the columns the query
//! reads, with supervised re-fits between rounds; a one-shard layout is
//! the table itself, uncopied) and [`execute`] runs the routed plan on
//! the persistent [`WorkerPool`]; how survivors travel to the master is a
//! field of the plan ([`ExecPath`](cheetah_db::ExecPath)), not a second
//! engine:
//!
//! ```text
//!  ExecPlan::new  (once per layout)            execute  (per query)
//!  rows ──routing_keys──▶ sharder          units[round][shard]
//!    ▲      │ route_columns per round            │ one pool job per shard
//!    │      ▼                                    ▼
//!    │  dispatched-load counters          Cluster::run_cheetah per unit
//!    └─ supervisor: imbalance > 2×?              │
//!       re-fit boundaries for the rest           ├─ barrier: whole outputs ──▶ merge_shard_outputs
//!                                                └─ stream: survivor frames ─▶ MergeState (as they land)
//! ```
//!
//! * **Barrier** — each worker hands its completed outputs over whole;
//!   the master merges once the last worker is in. Nothing to frame,
//!   nothing to overlap: cheapest when shards finish together and the
//!   pruned stream is small.
//! * **Stream** — workers decompose each completed slice into
//!   [`MergeItem`](cheetah_db::MergeItem)s and stream them in
//!   [`SurvivorBatch`](cheetah_net::SurvivorBatch) frames over a
//!   *bounded* channel (backpressure is the flow control); the master
//!   folds batches into an incremental
//!   [`MergeState`](cheetah_db::MergeState) while slow shards are still
//!   pruning. The measured overlap is reported as
//!   `ExecBreakdown::overlap_seconds`. The batch size comes off the
//!   ingest model's fan-in curve
//!   ([`suggested_batch`](cheetah_net::MasterIngestModel::suggested_batch)):
//!   big enough to amortize framing, small enough that the aggregate
//!   in-flight entries keep the merge plane in its linear service regime.
//!   A [`FaultSpec`] carries the finished frames across the simulated
//!   lossy rack of `cheetah_net::rack` instead (§7.2's go-back-N in
//!   simulated time: store-and-forward, deterministic per seed).
//! * **Mid-run re-planning** — a [`RuntimeSupervisor`] watches per-shard
//!   dispatch counters between input rounds while the plan is built;
//!   when observed load imbalance exceeds the planner's 2× bound it
//!   re-samples the *remaining* routing keys via `cheetah_core::plan` and
//!   re-fits quantile boundaries for the rest of the input.
//!
//! ## When streaming pays
//!
//! Overlap buys exactly the merge work that the barrier serializes
//! **behind the slowest shard**. It pays when
//!
//! 1. shard completion times are *spread* — skewed loads
//!    (`cheetah_workloads::skew`), a straggling worker, or a fitted plan
//!    gone stale; and
//! 2. the master has real per-survivor merge work to hide — large
//!    survivor sets (low pruning rates) or expensive folds (SKYLINE
//!    dominance, wide GROUP BY key spaces).
//!
//! On a perfectly balanced cluster with heavy pruning there is nothing to
//! hide: the stream transport then matches the barrier, paying only
//! framing overhead. The ledger's four workloads all sit there (the two
//! transports tie within a few per cent, or the stream loses), so the
//! serving plane runs unpinned requests on the barrier and the stream is
//! a per-request pin — and the carrier of the fault mode, where frames
//! are the point. The `runtime` bench experiment measures both regimes on
//! the zipf(1.5) and single-hot-key adversaries.
//!
//! ## What routes in rounds, and what cannot
//!
//! Input *rounds* (and therefore re-planning) require the master merge to
//! be correct under any assignment of rows to executor runs
//! ([`DbQuery::merge_routing_agnostic`](cheetah_db::DbQuery::merge_routing_agnostic)):
//! re-prune merges, count sums, and GROUP BY MAX qualify. HAVING (local
//! sum + threshold must see every row of a key) and JOIN (both streams
//! must meet inside one run) are routed as a single round per shard —
//! they still stream their survivor batches, so the merge of early shards
//! overlaps late shards, but their routing is pinned for the whole run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod plan;
pub mod pool;
pub mod runtime;
pub mod supervisor;

pub use config::{FaultSpec, ShardLayout, StreamSpec};
pub use plan::ExecPlan;
pub use pool::{WorkerPool, WorkerScratch};
pub use runtime::{execute, ExecRun};
pub use supervisor::{ReplanEvent, RuntimeSupervisor};
