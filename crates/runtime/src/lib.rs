//! # cheetah-runtime — one plan, one executor, two transports, one way out
//!
//! Cheetah's dataflow (§2) is one thing: route rows to shard workers,
//! prune each shard at its switch, merge the survivors at the master.
//! This crate implements it once. [`ExecPlan::new`] does all the routing
//! (sharder → keys → one unit per shard, of the columns the query reads;
//! a one-shard layout is the table itself, uncopied) and [`execute`] runs
//! the routed plan, one job — one
//! [`Cluster::run_cheetah`](cheetah_db::Cluster::run_cheetah), one
//! installed switch program, one report — per shard: on the persistent
//! [`WorkerPool`] when there are two shards or more, and on the calling
//! thread itself when there is one. The pool has one worker per core, and
//! the shard count is the planner's: a plan of more shards than cores
//! queues its extra jobs on the pool rather than time-slicing them. How a
//! unit is run and how its result travels to the master is a field of the plan
//! ([`ExecPath`](cheetah_db::ExecPath)), not a second engine:
//!
//! ```text
//!  ExecPlan::new  (once per layout)            execute  (per query)
//!  DbQuery::check (schema, types)           units[shard]
//!  rows ──routing_keys──▶ sharder                │ one job per shard, the same on every path:
//!           │ route_columns, once                │ pool jobs, or one shard on the caller
//!           ▼                                    ▼
//!     one unit per shard                   Cluster::run_cheetah per unit
//!                                          (direct: Cluster::run_direct, no switch)
//!                                                │ whole outputs
//!                                                ├─ barrier, direct ──▶ merge_shard_outputs
//!                                                └─ stream: frame_items ──▶ MergeState (in shard order,
//!                                                                           or across the lossy rack)
//!                                                           frames composed into partials ──▶ merge_shard_outputs
//! ```
//!
//! A one-shard plan — every first sight, and every plan the planner fits
//! at one shard — has nothing to run in parallel, so handing its job to
//! the pool would only add a hand-off and a wake-up to the request. The
//! calling thread (for a session, the `run_blocking` caller) runs it
//! behind the same panic boundary a pool thread keeps. Its one output
//! goes through the same merge as any other's, and
//! [`merge_shard_outputs`](cheetah_db::merge_shard_outputs) hands a lone
//! output back as it stands: no copy, no fold. Its switch
//! kernel cache and scratch block are that thread's own thread-locals, as
//! a pool job's are its worker's. The stream still cuts its one output
//! into frames, so the fault mode is the same at every shard count.
//!
//! A layout is one value, [`ShardLayout`]: a hand-picked
//! [`ShardSpec`](cheetah_db::ShardSpec) or a plan the sampling planner
//! fitted ([`ShardPlanner::plan`](cheetah_db::ShardPlanner::plan)), and
//! [`ExecPlan::new`] takes either as it is. Choosing a layout and an arm
//! happens between *sights* of a request, in the serving plane, not inside
//! a run: a key's first sight runs direct over the tables whole, its
//! second sight fits a layout, routes it, runs it pruned and decides the
//! arm, and later sights run what was decided. Each run executes the plan
//! it is handed.
//!
//! * **Direct** — the way out: a shard job skips `spec()`, encode and
//!   the switch and runs
//!   [`Cluster::run_direct`](cheetah_db::Cluster::run_direct) — the
//!   operator's own completion over every row of its unit, a scan of its
//!   columns — then hands the output over whole, like the barrier. Same
//!   units, same jobs, same merge, same accounting tail (a pass-through
//!   switch: every result row of the partials seen and forwarded, none
//!   pruned). The serving plane runs it at every key's first sight, and
//!   from then on where the key's second sight, which runs the routed
//!   layout both ways, measured less work on it than on the pruned arm:
//!   each job's [`busy_seconds`](cheetah_db::ShardStats::busy_seconds)
//!   summed, plus the merge — no time spent waiting for a pool worker.
//! * **Barrier** — each worker hands its completed output over whole;
//!   the master merges once the last worker is in. Nothing to frame: the
//!   transport every unpinned pruned request runs.
//! * **Stream** — each worker hands its completed output over whole, as
//!   on the barrier; once the last worker is in, the master decomposes
//!   each output into [`MergeItem`](cheetah_db::MergeItem)s, cuts them
//!   into [`SurvivorBatch`](cheetah_net::SurvivorBatch) frames
//!   ([`frame_items`](cheetah_db::frame_items)) and folds the frames into
//!   a [`MergeState`](cheetah_db::MergeState) in shard order, which dedups
//!   them, composes each back into a partial and folds the partials
//!   through the barrier's own merge. A lossless
//!   run cuts as many items as a frame carries
//!   ([`MAX_BATCH_ITEMS`](cheetah_net::MAX_BATCH_ITEMS)). Frames are the
//!   point of the fault mode, set on a built plan like its path
//!   ([`ExecPlan::with_fault`]): its [`FaultSpec`] cuts them at its own
//!   frame size and carries them across the simulated lossy rack of
//!   `cheetah_net::rack` instead (§7.2's go-back-N in simulated time,
//!   deterministic per seed). Unpinned requests never run it; the ledger
//!   pins it, and the two transports tie on its workloads.
//!
//! Every transport is store-and-forward: a shard job reports once, when
//! its unit is done, and never blocks.
//!
//! A request its tables cannot answer is refused by [`ExecPlan::new`]
//! with a typed error before anything runs, and a shard job that panics
//! anyway fails its own [`execute`] call with
//! [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked) — the thread
//! that ran it (a pool worker, or the caller), and every other request,
//! carry on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod plan;
pub mod pool;
pub mod runtime;

pub use config::{FaultSpec, ShardLayout};
pub use plan::ExecPlan;
pub use pool::WorkerPool;
pub use runtime::{execute, ExecRun};
