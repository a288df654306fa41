//! The one plan representation: a laid-out input. Which path runs it —
//! pruned or direct — is an argument of each run
//! ([`execute`](crate::execute)), and whether its rows cross a lossy rack
//! is the cluster's fault mode ([`Cluster::fault`]); neither is part of
//! the plan.
//!
//! Everything layout-shaped about a multi-shard run is decided here, once,
//! by [`ExecPlan::new`]: the request is checked against its tables'
//! schemas ([`DbQuery::check`]), then routing keys → the spec's sharder
//! ([`fixed_sharder`]) → one [`route_columns`] pass over the query's
//! streams, which leaves one unit per shard and stream.
//! [`execute`](crate::execute) never routes a row.
//!
//! Three facts about what a layout holds:
//!
//! * **A one-shard layout is the table.** Whenever the spec has one
//!   shard — a pinned count of 0 or 1, or one served unit — there is
//!   nothing to split: no key is extracted, no cell copied, the single
//!   unit *is* the `Arc` the caller handed in. It runs through the same
//!   [`execute`](crate::execute) as any other plan.
//! * **Units carry the query's columns.** With two shards or more a unit
//!   is a fresh copy of its rows — a layout worth having: each column's
//!   cells re-allocated contiguously per shard — so it copies only the
//!   columns the query reads ([`DbQuery::columns`]), and the shard workers
//!   run the query remapped onto them ([`DbQuery::remapped`]). The merge,
//!   and [`ExecPlan::query`], keep the query as asked.
//! * **A routed string key is codes.** The column a unit's routing keys
//!   fingerprint, when it holds strings, is routed as a
//!   [`Column::Dict`](cheetah_db::Column::Dict): one `u32` code per row
//!   into one dictionary per shard, each distinct string once, found by
//!   the fingerprint routing already computed ([`unit_columns`] names the
//!   column). Both streams of a binary query are routed in one pass, so a
//!   shard's two units share that dictionary by `Arc` and an equal string
//!   has one code on both sides. A warm DISTINCT, GROUP BY, JOIN or HAVING
//!   then encodes its unit by hashing each distinct key once, not every
//!   row's string, and completes by code: the unary shapes fold their
//!   selected rows into a dense per-code array and read one string per
//!   touched code; a JOIN counts one side's codes and probes them with the
//!   other's, and reads no string. Every other column holds plain cells.
//!   Routing reads a table's cells as loaded, so a shard's dictionary
//!   holds only the strings the shard does, whatever the load rule coded.
//!   A one-shard layout is the caller's table, whose repeating string
//!   columns the load rule coded (`Partition::coded`).
//!
//! A plan is resident data: its units are `Arc` handles, so the same plan
//! runs query after query, on whichever path each run names (the serving
//! plane holds one per query, tables and shard count, and runs it as it
//! is).

use cheetah_db::{
    fixed_sharder, route_columns, routing_keys, unit_columns, Cluster, DbQuery, RouteStream,
    ShardSpec, Table,
};
use std::sync::Arc;

/// A routed, ready-to-run multi-shard execution: which rows land on which
/// shard. Any path runs it ([`execute`](crate::execute)).
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
}

impl ExecPlan {
    /// Lay out `q`'s input under `spec`: a pinned count, a sweep's axis
    /// point, or the served rule's ([`cheetah_db::planner::units`]).
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
        spec: ShardSpec,
    ) -> cheetah_core::Result<ExecPlan> {
        q.check(left, right.map(|r| &**r))?;
        let right = right.filter(|_| q.is_binary());
        let seed = cluster.tuning.seed;
        let shards = spec.shards.max(1);
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
            let slices: Vec<&[u64]> = keys.iter().map(Vec::as_slice).collect();
            let sharder = fixed_sharder(&spec, seed, &slices);
            // Every unit is a fresh copy of its rows, so it carries only
            // the columns `q` reads, its string key coded by the routing
            // keys, and the workers run `q` remapped onto them. Both
            // streams of a binary query go through one routing pass:
            // co-partitioned by the one sharder, their keys coded against
            // one dictionary per shard.
            let cols: Vec<_> = (0..keys.len()).map(|stream| unit_columns(q, stream)).collect();
            let streams: Vec<RouteStream<'_>> = std::iter::once(left)
                .chain(right)
                .zip(&cols)
                .zip(&keys)
                .map(|((t, (cols, keyed)), keys)| RouteStream {
                    table: t,
                    cols,
                    keyed: *keyed,
                    keys,
                    rows: 0..t.rows(),
                })
                .collect();
            let mut routed = route_columns(&streams, &sharder)
                .into_iter()
                .map(|slices| slices.into_iter().map(Arc::new).collect::<Vec<_>>());
            let units = routed.next().expect("the left stream is routed");
            (q.remapped(), units, routed.next())
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
        })
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
