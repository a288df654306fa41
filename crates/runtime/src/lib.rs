//! # cheetah-runtime — one plan, one executor, two transports, one way out
//!
//! Cheetah's dataflow (§2) is one thing: route rows to shard workers,
//! prune each shard at its switch, merge the survivors at the master.
//! This crate implements it once. [`ExecPlan::new`] does all the routing
//! (sharder → keys → one unit per shard, of the columns the query reads;
//! a one-shard layout is the table itself, uncopied) and [`execute`] runs
//! the routed plan on the persistent [`WorkerPool`], one job — one
//! [`Cluster::run_cheetah`](cheetah_db::Cluster::run_cheetah), one
//! installed switch program, one report — per shard; how a unit is run
//! and how its result travels to the master is a field of the plan
//! ([`ExecPath`](cheetah_db::ExecPath)), not a second engine:
//!
//! ```text
//!  ExecPlan::new  (once per layout)            execute  (per query)
//!  DbQuery::check (schema, types)           units[shard]
//!  rows ──routing_keys──▶ sharder                │ one pool job per shard
//!           │ route_columns, once                ▼
//!           ▼                              Cluster::run_cheetah per unit
//!     one unit per shard                         │
//!                                                ├─ barrier: whole outputs ──▶ merge_shard_outputs
//!                                                └─ stream: survivor frames ─▶ MergeState (as they land)
//!                                          or, direct: Cluster::run_direct per unit (no switch)
//!                                                └─ whole outputs ──▶ merge_shard_outputs
//! ```
//!
//! The sharder is a hand-picked [`ShardSpec`](cheetah_db::ShardSpec) or a
//! plan the sampling planner fitted
//! ([`ShardPlanner::plan`](cheetah_db::ShardPlanner::plan)) —
//! [`ShardLayout`] has those two variants and [`StreamSpec::fixed`] /
//! [`StreamSpec::fitted`] are the two ways to ask. Adapting a layout to
//! what a run observed happens between *sights* of a request, in the
//! serving plane (first sight measures, second sight fits), not inside a
//! run.
//!
//! * **Direct** — the way out: a shard job skips `spec()`, encode and
//!   the switch and runs
//!   [`Cluster::run_direct`](cheetah_db::Cluster::run_direct) — the
//!   operator's own completion over every row of its unit — then hands
//!   the output over whole, like the barrier. Same units, same pool, same
//!   merge, same accounting tail (a pass-through switch: every result row
//!   of the partials seen and forwarded, none pruned). The serving plane
//!   engages it per key, where the key's first run measured that
//!   completing every row costs less than pruning did; each job's measured
//!   [`busy_seconds`](cheetah_db::ShardStats::busy_seconds) is one side of
//!   that comparison.
//! * **Barrier** — each worker hands its completed output over whole;
//!   the master merges once the last worker is in. Nothing to frame,
//!   nothing to overlap: cheapest when shards finish together and the
//!   pruned stream is small.
//! * **Stream** — workers decompose their completed output into
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
//!
//! A request its tables cannot answer is refused by [`ExecPlan::new`]
//! with a typed error before anything runs, and a shard job that panics
//! anyway fails its own [`execute`] call with
//! [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked) — the pool
//! thread, and every other request, carry on.
//!
//! ## When streaming pays
//!
//! A shard frames its survivors when its one run completes, so what the
//! stream overlaps is the merge of **early shards' frames behind a
//! straggler** — the work the barrier serializes after the slowest shard.
//! It pays when
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod plan;
pub mod pool;
pub mod runtime;

pub use config::{FaultSpec, ShardLayout, StreamSpec};
pub use plan::ExecPlan;
pub use pool::{WorkerPool, WorkerScratch};
pub use runtime::{execute, ExecRun};
