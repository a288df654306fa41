//! The one plan representation: a laid-out input plus the path it runs
//! by — a survivor transport, or the direct arm.
//!
//! Everything layout-shaped about a multi-shard run is decided here, once,
//! by [`ExecPlan::new`]: the request is checked against its tables'
//! schemas ([`DbQuery::check`]), then sharder (hand-picked or fitted) →
//! routing keys → one [`route_columns`] pass per stream, which leaves one
//! unit per shard. [`execute`](crate::execute) never routes a row.
//!
//! Two facts about what a layout holds:
//!
//! * **A one-shard layout is the table.** Whenever the sharder has one
//!   shard — a pinned count of 0 or 1, or a plan that chose 1 — there is
//!   nothing to split: no key is extracted, no cell copied, the single
//!   unit *is* the `Arc` the caller handed in. It runs through the same
//!   [`execute`](crate::execute) as any other plan.
//! * **Units carry the query's columns.** With two shards or more a unit
//!   is a fresh copy of its rows — a layout worth having: each column's
//!   cells re-allocated contiguously per shard — so it copies only the
//!   columns the query reads ([`DbQuery::columns`]), and the shard workers
//!   run the query remapped onto them ([`DbQuery::remapped`]). The merge,
//!   and [`ExecPlan::query`], keep the query as asked.
//!
//! A plan is resident data: its units are `Arc` handles, so the same plan
//! runs query after query (the serving plane holds one per query, tables
//! and shard count) and [`for_path`](ExecPlan::for_path) switches the
//! path on a clone that copies no rows.

use crate::config::{FaultSpec, ShardLayout, StreamSpec};
use cheetah_core::plan::{PlanDecision, ShardPlan};
use cheetah_db::{
    fixed_sharder, route_columns, routing_keys, Cluster, DbQuery, ExecPath, MasterIngestModel,
    Table,
};
use cheetah_net::MAX_BATCH_ITEMS;
use std::sync::Arc;

/// A routed, ready-to-run multi-shard execution: which rows land on which
/// shard, how the layout was decided, and which path ([`ExecPath`]) runs
/// it — pruned, with the survivors carried to the master by one of two
/// transports, or direct.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    /// The query the layout was routed for — the only one it can run.
    query: DbQuery,
    /// `query` as the shard workers run it: over the units' schema
    /// (remapped onto the routed columns; `query` itself where the units
    /// are the tables). The merge keeps `query`.
    pub(crate) unit_query: DbQuery,
    /// The tables the units were routed from. Held so a cache keyed on
    /// their addresses can never see an address reused by another table.
    left: Arc<Table>,
    right: Option<Arc<Table>>,
    /// `units[shard]` — the left-stream slice that shard prunes. At least
    /// one shard.
    pub(crate) units: Vec<Arc<Table>>,
    /// The right stream (binary queries), co-partitioned by the same
    /// sharder.
    pub(crate) right_units: Option<Vec<Arc<Table>>>,
    /// Rows routed per shard, both streams, empty units included.
    pub(crate) dispatched: Vec<u64>,
    pub(crate) ingest: MasterIngestModel,
    pub(crate) decision: PlanDecision,
    pub(crate) plan: Option<Arc<ShardPlan>>,
    pub(crate) path: ExecPath,
    /// Stream transport: merge items per survivor frame.
    pub(crate) batch: usize,
    /// Stream transport: per-shard budget of in-flight frames, NIC-paced
    /// ([`suggested_depth`](MasterIngestModel::suggested_depth)). The
    /// master's one shared channel is bounded at `depth × shards` frames, so
    /// senders block when the merge plane falls behind.
    pub(crate) depth: usize,
    /// Stream transport: fault mode (the simulated lossy rack), when asked for.
    pub(crate) fault: Option<FaultSpec>,
}

impl ExecPlan {
    /// Lay out `q`'s input under `spec`. The plan comes back on the stream
    /// transport the spec describes; [`for_path`](ExecPlan::for_path)
    /// derives its barrier form.
    ///
    /// A request its tables cannot answer — a binary query without its
    /// right table, a column outside the schema or of the wrong type — or
    /// that gives the switch nothing to evaluate is a typed error
    /// ([`DbQuery::check`]), whichever path will run it; a right table
    /// handed to a unary query is ignored.
    pub fn new(
        cluster: &Cluster,
        q: &DbQuery,
        left: &Arc<Table>,
        right: Option<&Arc<Table>>,
        spec: &StreamSpec,
    ) -> cheetah_core::Result<ExecPlan> {
        q.check(left, right.map(|r| &**r))?;
        let right = right.filter(|_| q.is_binary());
        let seed = cluster.tuning.seed;
        let (shards, ingest, plan, decision) = match &spec.layout {
            ShardLayout::Fixed(s) => {
                (s.shards.max(1), s.ingest, None, PlanDecision::Fixed(s.partitioner))
            }
            ShardLayout::Fitted(plan, ingest) => (
                plan.shards(),
                *ingest,
                Some(Arc::clone(plan)),
                PlanDecision::Planned(plan.partitioner()),
            ),
        };
        let (unit_query, units, right_units) = if shards == 1 {
            // A one-shard layout is the table: nothing to split, so no key
            // is read and no cell copied.
            (q.clone(), vec![Arc::clone(left)], right.map(|r| vec![Arc::clone(r)]))
        } else {
            let keys: Vec<Vec<u64>> = std::iter::once(left)
                .chain(right)
                .enumerate()
                .map(|(stream, t)| routing_keys(q, stream, t, seed))
                .collect();
            let sharder = match &spec.layout {
                ShardLayout::Fixed(s) => {
                    let slices: Vec<&[u64]> = keys.iter().map(Vec::as_slice).collect();
                    fixed_sharder(s, seed, &slices)
                }
                ShardLayout::Fitted(plan, _) => plan.sharder.clone(),
            };
            // Every unit is a fresh copy of its rows, so it carries only
            // the columns `q` reads, and the workers run `q` remapped onto
            // them. Both streams of a binary query are co-partitioned by
            // the one sharder.
            let route = |stream: usize, t: &Table| {
                let cols = q.columns(stream);
                let slices = route_columns(t, &cols, &keys[stream], &sharder, 0, t.rows());
                slices.into_iter().map(Arc::new).collect::<Vec<_>>()
            };
            (q.remapped(), route(0, left), right.map(|r| route(1, r)))
        };
        let dispatched = (0..shards)
            .map(|s| {
                let right_rows = right_units.as_ref().map_or(0, |units| units[s].rows());
                (units[s].rows() + right_rows) as u64
            })
            .collect();
        Ok(ExecPlan {
            query: q.clone(),
            unit_query,
            left: Arc::clone(left),
            right: right.cloned(),
            units,
            right_units,
            dispatched,
            ingest,
            decision,
            plan,
            path: ExecPath::StreamedResident,
            // Clamped to what one frame can carry — a pinned batch above
            // the 16-bit item count would otherwise panic the framing.
            batch: spec
                .batch
                .unwrap_or_else(|| ingest.suggested_batch(shards))
                .clamp(1, MAX_BATCH_ITEMS),
            depth: ingest.suggested_depth(shards),
            fault: spec.fault.clone(),
        })
    }

    /// The same routed layout on `path` — either transport, or the direct
    /// arm. Clones `Arc` handles, never rows.
    pub fn for_path(&self, path: ExecPath) -> ExecPlan {
        ExecPlan { path, ..self.clone() }
    }

    /// Was this plan routed from exactly these tables (by identity)? A
    /// unary plan holds no right table.
    pub fn is_over(&self, left: &Arc<Table>, right: Option<&Arc<Table>>) -> bool {
        Arc::ptr_eq(&self.left, left)
            && self.right.as_ref().map(Arc::as_ptr) == right.map(Arc::as_ptr)
    }

    /// The tables this plan was routed from.
    pub fn tables(&self) -> (&Table, Option<&Table>) {
        (&self.left, self.right.as_deref())
    }

    /// The fitted shard plan the layout was routed under — `None` under a
    /// hand-picked spec. A cache of `ExecPlan`s is thereby a cache of
    /// fitted plans too.
    pub fn shard_plan(&self) -> Option<&Arc<ShardPlan>> {
        self.plan.as_ref()
    }

    /// The query this plan was routed for.
    pub fn query(&self) -> &DbQuery {
        &self.query
    }

    /// Shard count of the layout.
    pub fn shards(&self) -> usize {
        self.dispatched.len()
    }

    /// Rows routed to each shard.
    pub fn dispatched(&self) -> &[u64] {
        &self.dispatched
    }
}
