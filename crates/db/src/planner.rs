//! The adaptive shard planner: sample the routing keys, estimate skew
//! and size, emit a concrete [`ShardPlan`].
//!
//! The `shards` sweep shows what a fixed spec costs: under key skew a
//! fixed range partitioner piles the hot keys onto one shard and the
//! whole run serializes behind it, while a fixed shard count either
//! wastes workers on small inputs or starves large ones. The planner
//! replaces both hand-picked choices with one sampling pass over the
//! per-query routing keys (the same keys every routed layout is split by —
//! key extraction lives *here*, in one place, and the plan constructor in
//! `cheetah-runtime` consumes it). A caller fits a plan
//! ([`ShardPlanner::plan`]) and hands it to the plan constructor as a
//! fitted layout — there is one way to fit, whether the plan is used at
//! once or kept in the serving plane's plan cache:
//!
//! 1. **Sample** — a seeded reservoir ([`KeySampler`]) over a bounded
//!    strided sample of every stream's routing keys
//!    ([`KeySampler::offer_strided`]: at most 16 keys read per reservoir
//!    slot, extracted at the sampled rows only, so a plan costs the same
//!    on 200 k rows as on 16 k; a request at or under the bound reads
//!    every key), plus a KMV distinct sketch and the top-key mass. Row
//!    counts stay exact; `distinct_estimate` counts the distinct keys
//!    *among those read* — the table's own count under the bound, a lower
//!    bound on it above. It only stands in for the survivor volume until
//!    one is measured: the serving plane runs a shape once before it plans
//!    it, and hands the planner that run's count
//!    ([`PlannerConfig::survivor_hint`]).
//! 2. **Choose the shard count** — walk the
//!    [`MasterIngestModel::planning_latency`] fan-in curve: each
//!    candidate count is charged the hottest shard's share of the rows
//!    at the CWorker send rate (worker phase) plus the modelled
//!    survivor-stream ingest and per-shard merge overhead (master
//!    phase); stop adding shards where the modelled merge cost eats the
//!    pruning win.
//! 3. **Choose the partitioner** — fit range boundaries to the sampled
//!    quantiles; keep them when the fitted plan's max sampled shard load
//!    stays within [`PlannerConfig::range_load_factor`] (default 2×) of
//!    hash on the same sample, fall back to hash when skew concentrates.
//!
//! The emitted [`PlanReport`] records
//! every estimate and modelled cost the decision read, so tests and
//! humans audit the choice instead of trusting it. Plans are
//! deterministic: same seed + same tables ⇒ identical [`ShardPlan`].

use crate::operators::{for_each_key, key_at};
use crate::query::DbQuery;
use crate::sharded::ShardSpec;
use crate::table::{Partition, Table};
use cheetah_core::plan::{
    fit_boundaries, max_load_fraction, KeySampler, KeyStats, PlanReport, ShardCostPoint, ShardPlan,
};
use cheetah_core::{ShardPartitioner, Sharder};
use cheetah_net::MasterIngestModel;
use cheetah_switch::hash::mix64;

/// Tuning of the sample-driven shard planner.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Reservoir capacity: how many routing keys the quantile fit and
    /// the load evaluation see.
    pub sample_size: usize,
    /// Largest worker count the fan-in walk considers.
    pub max_shards: usize,
    /// Fitted range is kept while its max sampled shard load stays
    /// within this factor of hash's on the same sample (the planner
    /// contract's 2× bound).
    pub range_load_factor: f64,
    /// Fixed per-shard master-side cost (planning one switch program,
    /// merging one more output) charged by the shard-count model.
    pub per_shard_overhead_seconds: f64,
    /// Ingest model queried for the fan-in curve and applied to the
    /// planned run's survivor streams.
    pub ingest: MasterIngestModel,
    /// Measured survivor volume (`entries_to_master`) from a previous run
    /// of the same query, when the caller observed one (the serving plane
    /// runs a shape over its tables once, whole, before it plans it, and
    /// hands over that run's count). Overrides the distinct-estimate proxy
    /// in the merge model — crucial for high-fanout JOINs, where survivors
    /// are matching *rows*, not distinct keys, and the proxy under-prices
    /// the merge badly.
    pub survivor_hint: Option<u64>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            sample_size: 1024,
            max_shards: 16,
            range_load_factor: 2.0,
            per_shard_overhead_seconds: 300e-6,
            ingest: MasterIngestModel::default_rack(),
            survivor_hint: None,
        }
    }
}

/// The sample-driven shard planner.
///
/// # Worked example
///
/// A skewed table: 4000 rows, 90 % of them under ten hot keys. The
/// planner samples the GROUP BY routing keys, reads the skew, and picks
/// a concrete plan whose report explains the choice:
///
/// ```
/// use cheetah_db::{Cluster, DataType, DbQuery, ShardPlanner, TableBuilder, Value};
/// use cheetah_runtime::{execute, ExecPlan, StreamSpec};
/// use std::sync::Arc;
///
/// let mut b = TableBuilder::new(
///     "visits",
///     vec![("agent".into(), DataType::Str), ("ms".into(), DataType::Int)],
///     500,
/// );
/// for i in 0..4000i64 {
///     let agent = if i % 10 < 9 { format!("hot-{}", i % 10) } else { format!("cold-{i}") };
///     b.push_row(vec![Value::Str(agent), Value::Int(i % 997)]);
/// }
/// let table = Arc::new(b.build());
///
/// let cluster = Cluster::default();
/// let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
/// let planner = ShardPlanner::default();
/// let plan = Arc::new(planner.plan(&q, &table, None, cluster.tuning.seed));
///
/// // The report carries every estimate the decision read…
/// assert_eq!(plan.report.rows, 4000);
/// assert!(plan.report.distinct_estimate > 10.0);
/// assert!(plan.shards() >= 1 && plan.shards() <= 16);
/// println!("{}", plan.report.reason);
///
/// // …and a run laid out by it completes bit-identically to the baseline.
/// let base = cluster.run_baseline(&q, &table, None);
/// let spec = StreamSpec::fitted(plan, planner.cfg.ingest);
/// let routed = ExecPlan::new(&cluster, &q, &table, None, &spec).unwrap();
/// let planned = execute(&cluster, &routed).unwrap();
/// assert_eq!(base.output, planned.output);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardPlanner {
    /// The planner's tuning.
    pub cfg: PlannerConfig,
}

impl ShardPlanner {
    /// A planner with the given tuning.
    pub fn new(cfg: PlannerConfig) -> Self {
        Self { cfg }
    }

    /// Plan the sharded execution of `q` over the given tables from a
    /// bounded strided sample of every stream's routing keys
    /// ([`KeySampler::offer_strided`]): keys are extracted at the sampled
    /// rows only, so the cost of a plan does not grow with the tables.
    pub fn plan(&self, q: &DbQuery, left: &Table, right: Option<&Table>, seed: u64) -> ShardPlan {
        let tables: Vec<&Table> = std::iter::once(left).chain(right).collect();
        let lens: Vec<usize> = tables.iter().map(|t| t.rows()).collect();
        let mut cursors: Vec<KeyCursor<'_>> =
            tables.iter().enumerate().map(|(s, t)| KeyCursor::new(q, s, t, seed)).collect();
        let mut sampler = KeySampler::new(self.cfg.sample_size, seed);
        sampler.offer_strided(&lens, |stream, row| cursors[stream].key_at(row));
        self.plan_from_stats(sampler.finish(), seed)
    }

    /// Steps 2 and 3: from what the sample learned to the plan.
    fn plan_from_stats(&self, stats: KeyStats, seed: u64) -> ShardPlan {
        if stats.rows == 0 {
            return self.trivial_plan(stats, seed, "empty input: any routing is vacuous");
        }
        if stats.all_keys_equal() {
            // Key-aligned routing pins a single key to one shard; extra
            // workers would only idle and add merge overhead.
            return self.trivial_plan(
                stats,
                seed,
                "all sampled routing keys are equal: no partitioner can spread them",
            );
        }

        // Survivor volume for the merge model. A measured hint (an
        // observed `entries_to_master`) wins outright — it is reality,
        // and deliberately NOT clamped to `rows`: a two-pass JOIN
        // delivers matching rows from *both* streams, which the
        // per-stream row count would truncate. Absent a measurement, fall
        // back to the proxy of roughly one survivor per distinct routing
        // key among the keys read (keyed queries forward per-key
        // champions; scans route by unique row-id hashes, making this
        // every key read — up to the sampling bound, nothing pruned).
        let survivors = match self.cfg.survivor_hint {
            Some(measured) => measured.max(1),
            None => (stats.distinct_estimate.round() as u64).clamp(1, stats.rows),
        };

        // Walk the fan-in curve: per candidate count, the hottest shard's
        // share of the rows at the CWorker send rate, plus modelled
        // ingest and per-shard merge overhead.
        let mut curve = Vec::with_capacity(self.cfg.max_shards);
        let mut per_count = Vec::with_capacity(self.cfg.max_shards);
        for n in 1..=self.cfg.max_shards.max(1) {
            let choice = self.partitioner_at(&stats.sample, n, seed);
            let worker_seconds =
                stats.rows as f64 * choice.load / self.cfg.ingest.arrival_rate.max(1.0);
            let merge_seconds = self.cfg.ingest.planning_latency(n, survivors)
                + n as f64 * self.cfg.per_shard_overhead_seconds;
            curve.push(ShardCostPoint { shards: n, worker_seconds, merge_seconds });
            per_count.push(choice);
        }
        let best = curve
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total().partial_cmp(&b.total()).expect("finite costs"))
            .map(|(i, _)| i)
            .expect("at least one candidate");
        let chosen = per_count.swap_remove(best);
        let shards = best + 1;

        // The first candidate *past the chosen count* whose modelled
        // completion rises again — where merge cost starts eating the
        // pruning win (absent when the chosen count is the axis maximum).
        let turn =
            curve[best + 1..].iter().find(|p| p.total() > curve[best].total()).map(|p| p.shards);
        let reason = format!(
            "chose {} × {}: sampled {}/{} keys, ~{:.0} distinct, top-key mass {:.2}; \
             fitted-range sample load {:.2} vs hash {:.2} (factor {}); modelled completion \
             {:.2} ms{}",
            shards,
            chosen.partitioner.name(),
            stats.sample.len(),
            stats.rows,
            stats.distinct_estimate,
            stats.top_key_mass,
            chosen.range_load,
            chosen.hash_load,
            self.cfg.range_load_factor,
            curve[best].total() * 1e3,
            match turn {
                Some(n) => format!(", merge cost eats the win from {n} shards on"),
                None => String::new(),
            },
        );
        ShardPlan {
            sharder: chosen.sharder,
            report: PlanReport {
                rows: stats.rows,
                sample_len: stats.sample.len(),
                distinct_estimate: stats.distinct_estimate,
                top_key_mass: stats.top_key_mass,
                shards,
                partitioner: chosen.partitioner,
                hash_sample_load: chosen.hash_load,
                range_sample_load: chosen.range_load,
                curve,
                reason,
            },
        }
    }

    /// The adaptive partitioner choice at a candidate shard count: fitted
    /// range when the sampled quantiles spread the load, hash when skew
    /// concentrates it.
    fn partitioner_at(&self, sample: &[u64], shards: usize, seed: u64) -> PartitionerChoice {
        let hash = Sharder::new(ShardPartitioner::Hash, shards, seed);
        let hash_load = max_load_fraction(sample, &hash);
        let fitted = Sharder::fitted_range(fit_boundaries(sample, shards))
            .expect("fit_boundaries yields ascending cuts");
        let range_load = max_load_fraction(sample, &fitted);
        if range_load <= self.cfg.range_load_factor * hash_load {
            PartitionerChoice {
                partitioner: ShardPartitioner::Range,
                load: range_load,
                hash_load,
                range_load,
                sharder: fitted,
            }
        } else {
            PartitionerChoice {
                partitioner: ShardPartitioner::Hash,
                load: hash_load,
                hash_load,
                range_load,
                sharder: hash,
            }
        }
    }

    /// The degenerate one-shard plan (empty input, single key).
    fn trivial_plan(&self, stats: KeyStats, seed: u64, why: &str) -> ShardPlan {
        let worker_seconds = stats.rows as f64 / self.cfg.ingest.arrival_rate.max(1.0);
        let merge_seconds =
            self.cfg.ingest.planning_latency(1, stats.rows.min(stats.distinct_estimate as u64))
                + self.cfg.per_shard_overhead_seconds;
        ShardPlan {
            sharder: Sharder::new(ShardPartitioner::Hash, 1, seed),
            report: PlanReport {
                rows: stats.rows,
                sample_len: stats.sample.len(),
                distinct_estimate: stats.distinct_estimate,
                top_key_mass: stats.top_key_mass,
                shards: 1,
                partitioner: ShardPartitioner::Hash,
                hash_sample_load: 1.0,
                range_sample_load: 1.0,
                curve: vec![ShardCostPoint { shards: 1, worker_seconds, merge_seconds }],
                reason: format!("chose 1 shard: {why}"),
            },
        }
    }
}

// ---------------------------------------------------------------------
// The execution grid: survivor transport × pruning backend, and the arm
// that engages neither.
// ---------------------------------------------------------------------

/// How a shard's unit is run and how its result reaches the master. The
/// one executor (`cheetah_runtime::execute`) reads the choice off its
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Workers hand their completed outputs over whole; the master merges
    /// once the last one is in.
    BarrierPooled,
    /// Workers frame survivors in batches; the master folds them as they
    /// land, overlapping the merge with still-running workers. The carrier
    /// of `ExecPlan`'s fault mode, where frames are the point.
    StreamedResident,
    /// The unaccelerated plan: each shard job completes its unit over the
    /// identity selection ([`Cluster::run_direct`](crate::Cluster::run_direct)
    /// — no `spec()`, no encode, no switch) and hands the whole output to
    /// the same barrier merge. The serving plane engages it per
    /// (shape, tables) key, where the key's own first run measured that
    /// completing every row costs less than pruning did.
    Direct,
}

impl ExecPath {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecPath::BarrierPooled => "pooled",
            ExecPath::StreamedResident => "streamed",
            ExecPath::Direct => "direct",
        }
    }
}

/// The arm a request ran on: an execution path and, where a switch
/// program ran, the engine that ran it. Under [`ExecPath::Direct`] no
/// engine runs: the field reads [`Interpreted`](cheetah_net::ExecBackend)
/// (as a baseline run's breakdown does) and the label leaves it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChooserArm {
    /// The execution path.
    pub path: ExecPath,
    /// The pruning engine.
    pub backend: cheetah_net::ExecBackend,
}

impl ChooserArm {
    /// `"pooled/compiled"`-style label for reports and assertions;
    /// `"direct"` for the arm with no engine.
    pub fn label(self) -> String {
        match self.path {
            ExecPath::Direct => self.path.label().to_string(),
            path => format!("{}/{}", path.label(), self.backend.label()),
        }
    }
}

/// The pinnable (transport × backend) grid of the pruned arms. Nothing is
/// learned here: a request runs the point it pins, and unpinned traffic
/// runs pooled + compiled — with one encode → prune loop under both
/// backends and the transports tied within noise on every ledger
/// workload, the points no longer differ by enough for an online selector
/// to find, only to lose to. (Whether a key is pruned at all is the
/// serving plane's measured break-even, not a point of this grid:
/// [`ExecPath::Direct`].)
pub struct PathChooser;

impl PathChooser {
    /// The four (path × backend) points, in report order.
    pub const ARMS: [ChooserArm; 4] = [
        ChooserArm {
            path: ExecPath::BarrierPooled,
            backend: cheetah_net::ExecBackend::Interpreted,
        },
        ChooserArm { path: ExecPath::BarrierPooled, backend: cheetah_net::ExecBackend::Compiled },
        ChooserArm {
            path: ExecPath::StreamedResident,
            backend: cheetah_net::ExecBackend::Interpreted,
        },
        ChooserArm {
            path: ExecPath::StreamedResident,
            backend: cheetah_net::ExecBackend::Compiled,
        },
    ];
}

struct PartitionerChoice {
    partitioner: ShardPartitioner,
    load: f64,
    hash_load: f64,
    range_load: f64,
    sharder: Sharder,
}

// ---------------------------------------------------------------------
// Routing-key extraction: the one home for "which key does this row
// route by" (the sharded layer and the planner both consume it).
// ---------------------------------------------------------------------

/// Every row's routing key for stream `stream`, in row order.
///
/// Keyed queries route by their group/join key so each key lives on one
/// shard (exact key-union and co-partitioned-join merges) — the key the
/// operator encodes for the switch, so routing shares the operator's walk
/// (`for_each_key`: one Int/Str dispatch per partition, strings hashed
/// in place). TOP N routes by the order column through the same walk's
/// order-preserving int arm, so range sharding splits the value space.
/// Scans and skylines route by a row-id hash (pure load balance — their
/// merges are routing-agnostic).
///
/// Public because the plan constructor in `cheetah-runtime` and the
/// planner here must route and sample by the *same* keys for the
/// per-operator merge semantics to hold.
pub fn routing_keys(q: &DbQuery, stream: usize, table: &Table, seed: u64) -> Vec<u64> {
    let Some(col) = routing_column(q, stream) else {
        return (0..table.rows() as u64).map(|row| mix64(row ^ seed)).collect();
    };
    let mut keys = Vec::with_capacity(table.rows());
    for p in table.partitions() {
        for_each_key(seed, p.column(col), |_, k| keys.push(k));
    }
    keys
}

/// The column stream `stream` of `q` routes by; `None` for the scans and
/// skylines that route by a row-id hash.
fn routing_column(q: &DbQuery, stream: usize) -> Option<usize> {
    match q {
        DbQuery::FilterCount { .. } | DbQuery::Skyline { .. } => None,
        DbQuery::Distinct { col } => Some(*col),
        DbQuery::TopN { order_col, .. } => Some(*order_col),
        DbQuery::GroupByMax { key_col, .. } | DbQuery::HavingSum { key_col, .. } => Some(*key_col),
        DbQuery::Join { left_key, .. } if stream == 0 => Some(*left_key),
        DbQuery::Join { right_key, .. } => Some(*right_key),
    }
}

/// [`routing_keys`] at chosen rows only: the key of one stream's row
/// `row` (a global row index), for rows asked in ascending order — what
/// the planner's strided sample reads instead of a key per row.
struct KeyCursor<'t> {
    parts: &'t [Partition],
    col: Option<usize>,
    seed: u64,
    /// The partition the last row asked for lay in, and its first row.
    part: usize,
    base: usize,
}

impl<'t> KeyCursor<'t> {
    fn new(q: &DbQuery, stream: usize, table: &'t Table, seed: u64) -> Self {
        Self { parts: table.partitions(), col: routing_column(q, stream), seed, part: 0, base: 0 }
    }

    fn key_at(&mut self, row: usize) -> u64 {
        let Some(col) = self.col else { return mix64(row as u64 ^ self.seed) };
        while row >= self.base + self.parts[self.part].rows() {
            self.base += self.parts[self.part].rows();
            self.part += 1;
        }
        key_at(self.seed, self.parts[self.part].column(col), row - self.base)
    }
}

/// The sharder of a *hand-picked* [`ShardSpec`]. Hash scatters over the
/// seed; Range fits its equal spans to the *observed* key bounds across
/// **both** streams — jointly, because JOIN co-partitioning needs one set
/// of boundaries for the two sides — so real key domains (string
/// fingerprints fill only the lower 2⁶³; encoded small ints cluster
/// around 2⁶³) split into populated spans instead of piling onto one
/// shard. (The planner's *fitted* range plan goes further and cuts at the
/// sampled quantiles.) A zero shard count is served as one shard.
pub fn fixed_sharder(spec: &ShardSpec, seed: u64, keys: &[&[u64]]) -> Sharder {
    let shards = spec.shards.max(1);
    match spec.partitioner {
        ShardPartitioner::Hash => Sharder::new(ShardPartitioner::Hash, shards, seed),
        ShardPartitioner::Range => {
            let mut bounds: Option<(u64, u64)> = None;
            for &k in keys.iter().flat_map(|s| s.iter()) {
                bounds = Some(match bounds {
                    None => (k, k),
                    Some((lo, hi)) => (lo.min(k), hi.max(k)),
                });
            }
            match bounds {
                Some((lo, hi)) => Sharder::range_over(lo, hi, shards),
                // No rows anywhere: any total routing works.
                None => Sharder::new(ShardPartitioner::Range, shards, seed),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cluster;
    use crate::testutil::{all_queries, test_table};

    #[test]
    fn plans_are_deterministic_in_seed_and_data() {
        let t = test_table(3_000, 4);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let planner = ShardPlanner::default();
        let a = planner.plan(&q, &t, None, 0xC43E7A);
        let b = planner.plan(&q, &t, None, 0xC43E7A);
        assert_eq!(a, b, "same seed + same tables must give the identical plan");
        let c = planner.plan(&q, &t, None, 0xC43E7A ^ 1);
        assert_eq!(c.report.rows, a.report.rows, "size estimates are seed-independent");
    }

    #[test]
    fn empty_table_plans_one_shard() {
        let t = crate::table::TableBuilder::new(
            "empty",
            vec![("agent".into(), crate::value::DataType::Str)],
            8,
        )
        .build();
        let planner = ShardPlanner::default();
        let plan = planner.plan(&DbQuery::Distinct { col: 0 }, &t, None, 7);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.report.rows, 0);
        assert!(plan.report.reason.contains("empty"), "{}", plan.report.reason);
    }

    #[test]
    fn table_smaller_than_the_sample_is_sampled_exactly() {
        let t = test_table(50, 1);
        let planner = ShardPlanner::default();
        let plan = planner.plan(&DbQuery::Distinct { col: 0 }, &t, None, 7);
        assert_eq!(plan.report.rows, 50);
        assert_eq!(plan.report.sample_len, 50, "reservoir must hold every key");
    }

    #[test]
    fn a_table_over_the_bound_is_sampled_at_the_keys_routing_splits_by() {
        // 40 000 + 20 000 rows against a bound of 16 × 1 024 reads: stride
        // 4. Extracting keys at the sampled rows only (the planner's
        // cursor) must read exactly what every routed layout is split by
        // (`routing_keys`) — string fingerprints, ordered ints and row-id
        // hashes, and a second stream whose first sampled row is not its
        // row 0.
        let (l, r) = (test_table(40_000, 7), test_table(20_000, 3));
        let planner = ShardPlanner::default();
        let seed = 0xC43E7A;
        for q in all_queries().into_iter().chain([DbQuery::Join { left_key: 0, right_key: 1 }]) {
            let right = q.is_binary().then_some(&r);
            for (stream, t) in std::iter::once(&l).chain(right).enumerate() {
                let keys = routing_keys(&q, stream, t, seed);
                let mut cursor = KeyCursor::new(&q, stream, t, seed);
                for row in (stream..t.rows()).step_by(4) {
                    assert_eq!(cursor.key_at(row), keys[row], "{} stream {stream}", q.kind());
                }
            }
            let plan = planner.plan(&q, &l, right, seed);
            let rows = l.rows() + right.map_or(0, Table::rows);
            assert_eq!(plan.report.rows, rows as u64, "{}: rows stay exact", q.kind());
            assert_eq!(plan.report.sample_len, planner.cfg.sample_size, "{}", q.kind());
        }
    }

    #[test]
    fn spread_keys_pick_more_than_one_shard_and_a_range_fit() {
        // TOP N routes by the (spread) order column; the fitted quantile
        // plan balances it, so the planner keeps range and fans out.
        let t = test_table(20_000, 4);
        let planner = ShardPlanner::default();
        let plan = planner.plan(&DbQuery::TopN { order_col: 1, n: 10 }, &t, None, 3);
        assert!(plan.shards() > 1, "{}", plan.report.reason);
        assert!(
            plan.report.range_sample_load
                <= planner.cfg.range_load_factor * plan.report.hash_sample_load,
            "kept range must respect the load bound: {:?}",
            plan.report
        );
        assert_eq!(plan.report.curve.len(), planner.cfg.max_shards);
    }

    /// High-fanout join: few distinct keys, every row matches. Survivors
    /// are matching *rows* from both streams; the distinct-key proxy is
    /// off by orders of magnitude.
    fn high_fanout_tables() -> (Table, Table) {
        let fields = vec![
            ("k".into(), crate::value::DataType::Int),
            ("v".into(), crate::value::DataType::Int),
        ];
        let mut l = crate::table::TableBuilder::new("l", fields.clone(), 1000);
        let mut r = crate::table::TableBuilder::new("r", fields, 1000);
        for i in 0..3000i64 {
            l.push_row(vec![crate::value::Value::Int(i % 8), crate::value::Value::Int(i)]);
            r.push_row(vec![crate::value::Value::Int(i % 8), crate::value::Value::Int(-i)]);
        }
        (l.build(), r.build())
    }

    #[test]
    fn measured_survivors_reprice_the_high_fanout_join_merge() {
        // The satellite-1 regression: without feedback the planner prices
        // the JOIN merge from ~8 distinct keys; the run actually delivers
        // thousands of matching rows to the master. Learning the measured
        // `entries_to_master` must close that >2× under-pricing.
        let cluster = Cluster::default();
        let (l, r) = high_fanout_tables();
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let measured = cluster.run_cheetah(&q, &l, Some(&r)).unwrap().breakdown.entries_to_master;
        assert!(measured > 1_000, "high-fanout adversary must flood the master: {measured}");

        let seed = cluster.tuning.seed;
        let blind = ShardPlanner::default();
        let blind_plan = blind.plan(&q, &l, Some(&r), seed);
        let informed = ShardPlanner::new(PlannerConfig {
            survivor_hint: Some(measured),
            ..PlannerConfig::default()
        });
        let informed_plan = informed.plan(&q, &l, Some(&r), seed);

        // Compare the merge model at every candidate shard count, with the
        // fixed per-shard overhead subtracted so only the survivor term
        // speaks. The truth is the ingest price of the measured volume.
        let ingest = MasterIngestModel::default_rack();
        let overhead = |n: usize| n as f64 * blind.cfg.per_shard_overhead_seconds;
        for (b, i) in blind_plan.report.curve.iter().zip(&informed_plan.report.curve) {
            assert_eq!(b.shards, i.shards);
            let truth = ingest.planning_latency(b.shards, measured);
            let blind_price = b.merge_seconds - overhead(b.shards);
            let informed_price = i.merge_seconds - overhead(i.shards);
            assert!(
                truth > 2.0 * blind_price,
                "adversary no longer exhibits the undershoot at {} shards: \
                 truth {truth}, blind {blind_price}",
                b.shards
            );
            assert!(
                truth <= 2.0 * informed_price,
                "informed planner still under-prices the merge by >2× at {} shards: \
                 truth {truth}, informed {informed_price}",
                b.shards
            );
        }
    }
}
