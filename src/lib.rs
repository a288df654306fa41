//! # Cheetah — accelerating database queries with switch pruning
//!
//! A from-scratch Rust reproduction of *"Cheetah: Accelerating Database
//! Queries with Switch Pruning"* (SIGCOMM 2019; full version
//! arXiv:2004.05076). Cheetah offloads part of query processing to a
//! programmable switch sitting between database workers and the master:
//! the switch **prunes** — drops entries that provably cannot affect the
//! query output — and the master completes the unchanged query on the
//! survivors, so `Q(A_Q(D)) = Q(D)` by construction.
//!
//! This facade crate re-exports the eight subsystems:
//!
//! * [`switch`] — a PISA dataplane simulator that *enforces* the resource
//!   constraints the paper designs around (stages, ALUs, SRAM, TCAM, PHV,
//!   one register access per packet, no multiply/divide/log);
//! * [`algorithms`] — the pruning algorithms themselves (filtering,
//!   DISTINCT, TOP N, GROUP BY, JOIN, HAVING, SKYLINE) plus the planner
//!   and the paper's closed-form analysis;
//! * [`db`] — a columnar, partition-parallel mini query engine with a
//!   Spark-like worker/master split and a Cheetah execution path;
//! * [`net`] — the Cheetah wire format and the §7.2 reliability protocol
//!   (the switch ACKs what it prunes) over a fault-injected link
//!   simulator;
//! * [`runtime`] — the one multi-shard executor: a routed plan (one unit
//!   per shard) run as contained worker-pool jobs, over a barrier or a
//!   streaming transport (overlapped incremental master merge,
//!   cross-shard survivor batching);
//! * [`workloads`] — seeded generators for the Big Data benchmark, a
//!   TPC-H subset, and the pruning-rate simulation streams;
//! * [`serve`] — the multi-tenant serving plane: the
//!   [`QueryRequest`](serve::QueryRequest)/[`Session`](serve::Session)
//!   front door with admission control, per-tenant fair scheduling, one
//!   held layout (and its fitted plan) per (query, tables) key, and a
//!   pinnable (transport × backend) execution grid;
//! * [`telemetry`] — lock-light always-on observability: a metrics
//!   registry (atomic counters/gauges, log-bucketed histograms) and
//!   per-query lifecycle span traces, carried through the session, the
//!   worker pool, the streamed runtime, and the fabric retransmit path.
//!
//! ## Quickstart
//!
//! ```
//! use cheetah::db::{Cluster, DbQuery, TableBuilder, Value, DataType};
//! use cheetah::serve::{QueryRequest, Session, SessionConfig};
//! use std::sync::Arc;
//!
//! // A tiny table of (seller, price) rows — the paper's running example.
//! let mut b = TableBuilder::new(
//!     "products",
//!     vec![("seller".into(), DataType::Str), ("price".into(), DataType::Int)],
//!     2,
//! );
//! for (s, p) in [("McCheetah", 4), ("Papizza", 7), ("McCheetah", 2), ("JellyFish", 5)] {
//!     b.push_row(vec![Value::Str(s.into()), Value::Int(p)]);
//! }
//! let table = Arc::new(b.build());
//!
//! // SELECT DISTINCT seller — the Spark-like baseline vs the serving
//! // plane's switch-pruned path (the session picks transport and backend).
//! let cluster = Cluster::default();
//! let q = DbQuery::Distinct { col: 0 };
//! let spark = cluster.run_baseline(&q, &table, None);
//! let session = Session::new(cluster, SessionConfig::default());
//! let resp = session
//!     .run_blocking(QueryRequest::new(q, table).tenant("quickstart"))
//!     .unwrap();
//! assert_eq!(spark.output, resp.output); // the pruning contract
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `cheetah-experiments` (in `crates/bench`) for the harness regenerating
//! every table and figure of the paper.

#![forbid(unsafe_code)]

/// The PISA switch simulator (`cheetah-switch`).
pub use cheetah_switch as switch;

/// The pruning algorithms and planner (`cheetah-core`).
pub use cheetah_core as algorithms;

/// The mini query engine (`cheetah-db`).
pub use cheetah_db as db;

/// Wire format, reliability protocol, link simulator (`cheetah-net`).
pub use cheetah_net as net;

/// The streamed shard runtime (`cheetah-runtime`).
pub use cheetah_runtime as runtime;

/// Benchmark data generators (`cheetah-workloads`).
pub use cheetah_workloads as workloads;

/// The multi-tenant serving plane (`cheetah-serve`).
pub use cheetah_serve as serve;

/// Metrics, spans, and the query-lifecycle trace plane
/// (`cheetah-telemetry`).
pub use cheetah_telemetry as telemetry;
