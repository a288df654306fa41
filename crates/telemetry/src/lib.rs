//! # cheetah-telemetry — the always-on observability plane
//!
//! Every other crate in the workspace measures something: the session
//! stamps queue time, the runtime counts retransmits, the plan cache
//! tracks hits. Before this crate each of
//! those was private bookkeeping with its own ad-hoc surface. Telemetry
//! gives them one home with two halves:
//!
//! * **Metrics** — a [`Registry`] of named [`Counter`]s, [`Gauge`]s,
//!   and log-bucketed [`Histogram`]s. Updates are single atomic ops
//!   (no lock on the hot path); snapshots are deterministic
//!   (name-ordered) and mergeable across threads. Histograms keep an
//!   *exact* `sum`/`count` beside the buckets, so exact-mean consumers
//!   lose nothing by reading from them.
//! * **Spans** — a per-query [`Trace`] whose [`Span`]s assemble into
//!   the query-lifecycle tree:
//!
//!   ```text
//!   query
//!   ├─ admit
//!   ├─ queue
//!   ├─ plan            cache=hit|miss
//!   ├─ choose          arm=pooled/compiled
//!   ├─ execute         path=.. backend=..
//!   │  ├─ route
//!   │  ├─ worker       shard=0 thread=caller  (one per shard, run on the
//!   │  ├─ worker       shard=1 thread=0        caller or a pool helper;
//!   │  │                                       in fault mode, retransmits=N
//!   │  │                                       switch_acks=M)
//!   │  └─ merge
//!   └─ respond
//!   ```
//!
//!   A finished trace is two flat buffers, its spans' records and their
//!   attributes, closed into one `Arc` ([`Trace::close`]) that the
//!   response's [`ClosedTrace`] and a ring-buffer [`TraceSink`] share.
//!   The tree is built when someone reads it, by that reader; trees
//!   export as JSON-lines ([`export_jsonl`]), and pretty-print
//!   ([`render`]) via the bench CLI's `--trace` flag.
//!
//! ## Adding a metric
//!
//! Grab a handle once from whatever [`Registry`] is in scope (the
//! session's, usually) and keep it — the name lookup takes a lock, the
//! updates never do:
//!
//! ```
//! use cheetah_telemetry::Registry;
//! let registry = Registry::new();
//! let hits = registry.counter("serve.plan_cache.hits");   // cache me
//! let queue = registry.histogram("serve.queue_seconds");
//! hits.inc();
//! queue.observe(0.0023);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["serve.plan_cache.hits"], 1);
//! assert!(snap.histograms["serve.queue_seconds"].p99 >= 0.0023);
//! ```
//!
//! Name metrics `plane.thing[.unit]` (`serve.queue_seconds`,
//! `net.retransmits`, `serve.plan_cache.hits`): the snapshot renders in
//! name order, so shared prefixes group related metrics together for
//! free. Never put caller input (a tenant id, a query) in a name: every
//! name is a registry entry for the life of the registry.
//!
//! ## Adding a span
//!
//! Open children from the nearest span you have; to cross a thread
//! boundary, capture a [`SpanContext`] into the closure. Span names and
//! attribute keys are `&'static str`; a value is an [`AttrValue`] — a
//! static string, an integer or a bool, kept as it is, and an owned
//! `String` only for text the caller supplies (a tenant, an error):
//!
//! ```
//! use cheetah_telemetry::{Registry, Trace};
//! let trace = Trace::new(Registry::new());
//! let mut root = trace.span("query");
//! root.attr("tenant", String::from("analytics"));
//! let ctx = root.context();                 // Send + Clone
//! std::thread::spawn(move || {
//!     let mut w = ctx.child("worker");      // child on another thread
//!     w.attr("shard", 0usize);
//! }).join().unwrap();
//! root.finish();
//! let closed = trace.close().unwrap();      // refuses unclosed spans
//! assert_eq!(closed.span_count(), 2);       // the tree, built on this read
//! ```
//!
//! Spans record themselves on drop, so early returns can't leak an
//! unclosed span. Export is deterministic: siblings sort by
//! `(name, attrs, start)`, not by racy completion order, so the same
//! seeded workload exports the same tree every run (modulo timestamps —
//! zero them with `export_jsonl(&tree, true)` to compare). Closing
//! costs the checks and one move; the tree (a `String` per name, key and
//! value) is built only by a reader, and [`Trace::export`] builds the
//! same one at once.
//!
//! For code that can't thread a handle through (the worker pool's
//! spawn path), [`Span::enter`] pushes the span onto a thread-local
//! stack and [`SpanContext::current`] reads it back at the spawn site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod sink;
mod span;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, HIST_MIN, HIST_SUB_BUCKETS,
};
pub use sink::{export_jsonl, render, TraceSink};
pub use span::{
    AttrValue, ClosedTrace, ContextGuard, Span, SpanContext, SpanNode, Trace, TraceError, TraceTree,
};
