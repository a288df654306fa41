//! The one plan representation: a laid-out input plus the transport its
//! survivors travel by.
//!
//! Everything layout-shaped about a multi-shard run is decided here, once,
//! by [`ExecPlan::new`]: sharder (hand-picked, planner-fitted or already
//! fitted) → routing keys → [`route_columns`] per input round, with the
//! [`RuntimeSupervisor`] re-fitting the boundaries between rounds when the
//! dispatched load tips over. The supervisor reads only dispatch counters
//! and routing keys, so re-planning is a pure layout-construction step —
//! [`execute`](crate::execute) never routes a row.
//!
//! Two facts about what a layout holds:
//!
//! * **A one-shard layout is the table.** Whenever the sharder has one
//!   shard — a pinned count of 0 or 1, or a plan that chose 1 — there is
//!   nothing to split: no key is extracted, no cell copied, the single
//!   unit *is* the `Arc` the caller handed in, in one round. It runs
//!   through the same [`execute`](crate::execute) as any other plan.
//! * **Units carry the query's columns.** With two shards or more a unit
//!   is a fresh copy of its rows — a layout worth having: each column's
//!   cells re-allocated contiguously per shard — so it copies only the
//!   columns the query reads ([`DbQuery::columns`]), and the shard workers
//!   run the query remapped onto them ([`DbQuery::remapped`]). The merge,
//!   and [`ExecPlan::query`], keep the query as asked.
//!
//! A plan is resident data: its units are `Arc` handles, so the same plan
//! runs query after query (the serving plane caches one per shape, tables
//! and shard count) and [`for_path`](ExecPlan::for_path) switches the
//! transport on a clone that copies no rows.

use crate::config::{FaultSpec, ShardLayout, StreamSpec};
use crate::supervisor::{ReplanEvent, RuntimeSupervisor};
use cheetah_core::plan::{PlanDecision, ShardPlan};
use cheetah_core::Sharder;
use cheetah_db::{
    fixed_sharder, route_columns, routing_keys, Cluster, DbQuery, ExecPath, MasterIngestModel,
    Table,
};
use cheetah_net::MAX_BATCH_ITEMS;
use std::sync::Arc;

/// A routed, ready-to-run multi-shard execution: which rows of which
/// round land on which shard, how the layout was decided, and which
/// transport ([`ExecPath`]) carries the survivors to the master.
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
    /// `units[round][shard]` — the left-stream slice that shard prunes in
    /// that round. Rectangular, at least one round over one shard.
    pub(crate) units: Vec<Vec<Arc<Table>>>,
    /// Co-partitioned right stream (binary queries), run with round 0.
    pub(crate) right_units: Option<Vec<Arc<Table>>>,
    /// Rows routed per shard, both streams, empty units included.
    pub(crate) dispatched: Vec<u64>,
    pub(crate) ingest: MasterIngestModel,
    pub(crate) decision: PlanDecision,
    pub(crate) plan: Option<Arc<ShardPlan>>,
    pub(crate) replan_events: Vec<ReplanEvent>,
    pub(crate) path: ExecPath,
    /// Stream transport: merge items per survivor frame.
    pub(crate) batch: usize,
    /// Stream transport: per-shard budget of in-flight frames.
    pub(crate) depth: usize,
    /// Stream transport: fault mode (the simulated lossy rack), when asked for.
    pub(crate) fault: Option<FaultSpec>,
}

impl ExecPlan {
    /// Lay out `q`'s input under `spec`. The plan comes back on the stream
    /// transport the spec describes; [`for_path`](ExecPlan::for_path)
    /// derives its barrier form.
    ///
    /// A binary query without its right table is a typed
    /// [`MissingStream`](cheetah_core::Error::MissingStream); a right
    /// table handed to a unary query is ignored.
    pub fn new(
        cluster: &Cluster,
        q: &DbQuery,
        left: &Arc<Table>,
        right: Option<&Arc<Table>>,
        spec: &StreamSpec,
    ) -> cheetah_core::Result<ExecPlan> {
        let right = match (q.is_binary(), right) {
            (true, None) => return Err(cheetah_core::Error::MissingStream { stream: 1 }),
            (true, Some(r)) => Some(r),
            (false, _) => None,
        };
        let seed = cluster.tuning.seed;
        // A layout already known to be one shard routes nothing, so it
        // reads no key either; a planner reads them to decide.
        let keyed = match &spec.layout {
            ShardLayout::Fixed(s) => s.shards > 1,
            ShardLayout::Planned(_) => true,
            ShardLayout::Fitted(plan, _) => plan.shards() > 1,
        };
        let keys_of = |stream: usize, t: &Arc<Table>| {
            if keyed {
                routing_keys(q, stream, t, seed)
            } else {
                Vec::new()
            }
        };
        let left_keys = keys_of(0, left);
        let right_keys = right.map(|r| keys_of(1, r));
        let key_slices: Vec<&[u64]> =
            std::iter::once(left_keys.as_slice()).chain(right_keys.as_deref()).collect();
        let (mut sharder, ingest, plan, decision) = match &spec.layout {
            ShardLayout::Fixed(s) => (
                fixed_sharder(s, seed, &key_slices),
                s.ingest,
                None,
                PlanDecision::Fixed(s.partitioner),
            ),
            ShardLayout::Planned(p) => {
                let plan = Arc::new(p.plan_from_keys(&key_slices, seed));
                let decision = PlanDecision::Planned(plan.partitioner());
                (plan.sharder.clone(), p.cfg.ingest, Some(plan), decision)
            }
            ShardLayout::Fitted(plan, ingest) => (
                plan.sharder.clone(),
                *ingest,
                Some(Arc::clone(plan)),
                PlanDecision::Planned(plan.partitioner()),
            ),
        };
        let shards = sharder.shards();
        let mut supervisor =
            RuntimeSupervisor::new(spec.imbalance_factor, spec.supervisor_sample, seed);
        let (unit_query, units, right_units, dispatched) = if shards == 1 {
            // A one-shard layout is the table: nothing to split, so no
            // cell is copied, and one round (rounds and re-planning need
            // a second shard to mean anything).
            let rows = left.rows() + right.map_or(0, |r| r.rows());
            let right_units = right.map(|r| vec![Arc::clone(r)]);
            (q.clone(), vec![vec![Arc::clone(left)]], right_units, vec![rows as u64])
        } else {
            // Every unit is a fresh copy of its rows, so it carries only
            // the columns `q` reads, and the workers run `q` remapped onto
            // them.
            let route = |t: &Table, stream: usize, keys: &[u64], by: &Sharder, lo, hi| {
                let slices = route_columns(t, &q.columns(stream), keys, by, lo, hi);
                slices.into_iter().map(Arc::new).collect::<Vec<_>>()
            };
            let mut dispatched = vec![0u64; shards];
            // The right stream of a binary query rides round 0,
            // co-partitioned by the same sharder.
            let right_units = right.zip(right_keys.as_deref()).map(|(r, keys)| {
                let slices = route(r, 1, keys, &sharder, 0, r.rows());
                count_rows(&mut dispatched, &slices);
                slices
            });
            // Input rounds only where the merge tolerates rows moving
            // between executor runs; HAVING/JOIN take their whole shard
            // slice at once.
            let rounds = if q.merge_routing_agnostic() { spec.rounds.max(1) } else { 1 };
            let total = left.rows();
            let mut units = Vec::with_capacity(rounds);
            for round in 0..rounds {
                let lo = round * total / rounds;
                let hi = (round + 1) * total / rounds;
                let slices = route(left, 0, &left_keys, &sharder, lo, hi);
                count_rows(&mut dispatched, &slices);
                units.push(slices);
                if spec.replan && round + 1 < rounds {
                    if let Some(refit) =
                        supervisor.consider(round, &dispatched, &left_keys[hi..], &sharder)
                    {
                        sharder = refit;
                    }
                }
            }
            (q.remapped(), units, right_units, dispatched)
        };
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
            replan_events: supervisor.into_events(),
            path: ExecPath::StreamedResident,
            // Clamped to what one frame can carry — a pinned batch above
            // the 16-bit item count would otherwise panic the framing.
            batch: spec
                .batch
                .unwrap_or_else(|| ingest.suggested_batch(shards))
                .clamp(1, MAX_BATCH_ITEMS),
            depth: spec.channel_depth.map_or_else(|| ingest.suggested_depth(shards), |d| d.max(1)),
            fault: spec.fault.clone(),
        })
    }

    /// The same routed layout on `path`'s transport. Clones `Arc` handles,
    /// never rows.
    pub fn for_path(&self, path: ExecPath) -> ExecPlan {
        ExecPlan { path, ..self.clone() }
    }

    /// Was this plan routed from exactly these tables (by identity)? A
    /// unary plan holds no right table.
    pub fn is_over(&self, left: &Arc<Table>, right: Option<&Arc<Table>>) -> bool {
        Arc::ptr_eq(&self.left, left)
            && self.right.as_ref().map(Arc::as_ptr) == right.map(Arc::as_ptr)
    }

    /// The query this plan was routed for.
    pub fn query(&self) -> &DbQuery {
        &self.query
    }

    /// Shard count of the layout.
    pub fn shards(&self) -> usize {
        self.dispatched.len()
    }

    /// Input rounds the layout was routed in (1 for key-holistic queries).
    pub fn rounds(&self) -> usize {
        self.units.len()
    }

    /// Rows routed to each shard.
    pub fn dispatched(&self) -> &[u64] {
        &self.dispatched
    }
}

fn count_rows(dispatched: &mut [u64], slices: &[Arc<Table>]) {
    for (d, t) in dispatched.iter_mut().zip(slices) {
        *d += t.rows() as u64;
    }
}
