//! # cheetah-runtime — one plan, one executor, one transport, one way out
//!
//! Cheetah's dataflow (§2) is one thing: route rows to shard workers,
//! prune each shard at its switch, merge the survivors at the master.
//! This crate implements it once. [`ExecPlan::new`] does all the routing
//! (sharder → keys → one unit per shard, of the columns the query reads;
//! a one-shard layout is the table itself, uncopied) and [`execute`] runs
//! the routed plan, one job — one
//! [`Cluster::run_cheetah`](cheetah_db::Cluster::run_cheetah), one
//! installed switch program, one report — per shard. The calling thread
//! claims and runs shards off one counter, beside
//! `min(shards, workers) − 1` helper jobs on the persistent [`WorkerPool`]
//! that claim from the same counter; a one-shard plan submits none. The
//! pool has one worker per core, and the shard count is the layout's: a
//! run of more shards than cores works them on at most one thread per
//! core, the caller counting as one, rather than time-slicing them. How a
//! unit is run is an argument of the run
//! ([`ExecPath`](cheetah_db::ExecPath)), not a second engine; whether its
//! rows cross a lossy rack on their way to the master is the cluster's
//! fault mode ([`Cluster::fault`](cheetah_db::Cluster::fault)):
//!
//! ```text
//!  ExecPlan::new  (once per layout)            execute  (per query)
//!  DbQuery::check (schema, types)           units[shard]
//!  rows ──routing_keys──▶ sharder                │ one job per shard, the same on every path:
//!           │ route_columns, once                │ the caller + ≤ cores − 1 pool helpers, one counter
//!           ▼                                    ▼
//!     one unit per shard                   Cluster::run_cheetah per unit: encode ─▶ prune passes
//!                                          (direct: Cluster::run_direct, no switch)
//!                                                │ fault mode only: every row read, one entry each,
//!                                                │ across the lossy rack (the switch replays the
//!                                                │ verdicts and ACKs what it prunes); the master's
//!                                                │ delivered rows are the selection
//!                                                ▼
//!                                          complete ─▶ whole outputs, on every path
//!                                                ▼
//!                                          merge_shard_outputs
//! ```
//!
//! A one-shard plan — every first sight, and every key served as one unit
//! — has nothing to run in parallel, so its run submits no
//! helper: the calling thread (for a session, the `run_blocking` caller)
//! claims its one shard, behind the same per-shard panic boundary every
//! shard keeps, and there is no second code path for it. Its one output
//! goes through the same merge as any other's, and
//! [`merge_shard_outputs`](cheetah_db::merge_shard_outputs) hands a lone
//! output back as it stands: no copy, no fold. Its switch
//! kernel cache and scratch block are that thread's own thread-locals, as
//! a helper's are its pool worker's. Fault mode carries its rows across a
//! rack all the same, so it is the same at every shard count.
//!
//! A layout is one value, a [`ShardSpec`](cheetah_db::ShardSpec), and
//! [`ExecPlan::new`] takes it as it is. Its shard count is a pin's, or the
//! one rule's ([`cheetah_db::planner::units`]: the rows over the cores).
//! Choosing a layout and an arm happens in the serving plane, not inside a
//! run: a key's first sight runs the tables whole, its second sight routes
//! its rows over the cores (a range spec at that rule's count), and later
//! sights run that layout; the arm is the request's own. Each run executes the plan it is handed, on the path it
//! is handed.
//!
//! * **Direct** — the way out: a shard job skips `spec()`, encode and
//!   the switch and runs
//!   [`Cluster::run_direct`](cheetah_db::Cluster::run_direct) — the
//!   operator's own completion over every row of its unit, a scan of its
//!   columns — then hands the output over whole, like the barrier. Same
//!   units, same jobs, same merge, same accounting tail (a pass-through
//!   switch: every result row of the partials seen and forwarded, none
//!   pruned). The serving plane runs it for every request that pins no
//!   pruned arm: on every key the benchmark sends, the arm census
//!   (`cheetah-experiments census`) measured it using less CPU than the
//!   pruned arm on the same routed layout.
//! * **Pruned** — each shard job runs its unit through its switch and
//!   hands its completed output over whole; the master merges once the
//!   last worker is in. The barrier transport: every pruned request runs
//!   it.
//!
//! Fault mode is a property of the cluster, like its backend, not of a
//! path or a plan, and rides any run: a cluster built with
//! [`Cluster::with_fault`](cheetah_db::Cluster::with_fault) (a
//! [`FaultProfile`](cheetah_net::FaultProfile) and a seed) has each shard
//! job carry every row it read across the simulated lossy rack of
//! `cheetah_net::rack` ([`TransferSim`](cheetah_net::TransferSim): §7.2's
//! go-back-N in simulated time, deterministic per seed) after its pruning
//! passes — one entry packet per row, one flow per stream and partition,
//! the switch forwarding exactly what the job's program kept and ACKing
//! the rest. The master completes over the rows delivered, a superset of
//! the survivors, and the outputs merge as a lossless run's do. A lossless
//! run carries nothing.
//!
//! Every run is store-and-forward: a shard job reports once, when its
//! unit is done, and never blocks. The caller waits only for shards a
//! running helper claimed, so a run never waits for a free pool worker.
//!
//! A request its tables cannot answer is refused by [`ExecPlan::new`]
//! with a typed error before anything runs, and a shard job that panics
//! anyway fails its own [`execute`] call with
//! [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked) — the thread
//! that ran it (a pool worker, or the caller), and every other request,
//! carry on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod pool;
pub mod runtime;

pub use plan::ExecPlan;
pub use pool::WorkerPool;
pub use runtime::{execute, ExecRun};
