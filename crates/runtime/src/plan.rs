//! The one plan representation: a laid-out input. Which path runs it —
//! pruned or direct — is an argument of each run
//! ([`execute`](crate::execute)), and whether its rows cross a lossy rack
//! is the cluster's fault mode ([`Cluster::fault`]); neither is part of
//! the plan.
//!
//! Everything layout-shaped about a multi-shard run is decided here, once,
//! by [`ExecPlan::new`]: the request is checked against its tables'
//! schemas ([`DbQuery::check`]), then routing keys → one
//! [`route_columns`] pass over the query's streams by the seeded hash over
//! the shard count ([`Sharder::hash`]), which leaves one unit per shard
//! and stream. A layout is its shard count: the hash is the one routing
//! function, fitted to nothing. [`execute`](crate::execute) never routes
//! a row.
//!
//! Three facts about what a layout holds:
//!
//! * **A one-shard layout is the table.** Whenever the layout has one
//!   shard — a pinned count of 0 or 1, or one served unit — nothing is
//!   routed: no key is extracted, no cell copied, the single unit *is*
//!   the `Arc` the caller handed in, its stored partitions as loaded. It
//!   runs through the same [`execute`](crate::execute) as any other plan,
//!   and a lossless direct run splits it by its stored partitions instead:
//!   `min(P, clamp(R / ROWS_PER_UNIT, 1, workers))` groups of its `P`
//!   partitions and `R` rows ([`groups`](cheetah_db::planner::groups)),
//!   folded side by side and finished into one answer.
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
//!   selected rows into a dense per-code array and walk it in the shard
//!   dictionary's rank, reading one string per touched code, in order; a
//!   JOIN counts one side's codes and probes them with the other's, reads
//!   no string and never ranks. Every other column holds plain cells.
//!   Routing reads a table's cells as loaded, so a shard's dictionary
//!   holds only the strings the shard does, whatever the load rule coded.
//!   A one-shard layout is the caller's table, whose repeating string
//!   columns the load rule coded (`Partition::coded`).
//!
//! A plan is resident data: its units are `Arc` handles, so the same plan
//! runs query after query, on whichever path each run names (the serving
//! plane holds one per returning query and tables, and runs it as it is).

use cheetah_db::{
    route_columns, routing_keys, unit_columns, Cluster, DbQuery, RouteStream, Sharder, Table,
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
    /// Lay out `q`'s input over `shards` shards (0 is served as one): a
    /// pinned count, a sweep's axis point, or the served rule's
    /// ([`cheetah_db::planner::units`]), routed by the seeded hash.
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
        shards: usize,
    ) -> cheetah_core::Result<ExecPlan> {
        q.check(left, right.map(|r| &**r))?;
        let right = right.filter(|_| q.is_binary());
        let seed = cluster.tuning.seed;
        let shards = shards.max(1);
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
            let sharder = Sharder::hash(shards, seed);
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
        Ok(ExecPlan { query: q.clone(), unit_query, units, right_units, dispatched })
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
