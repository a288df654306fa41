//! The adaptive shard planner: sample the routing keys, read their
//! spread, emit a concrete [`ShardPlan`].
//!
//! The `shards` sweep shows what a fixed spec costs: a fixed shard count
//! either wastes workers on small inputs or starves large ones, and under
//! key skew the hottest shard serializes the whole run. The planner
//! replaces the hand-picked count with one sampling pass over the
//! per-query routing keys (the same keys every routed layout is split by —
//! key extraction lives *here*, in one place, and the plan constructor in
//! `cheetah-runtime` consumes it). A caller fits a plan
//! ([`ShardPlanner::plan`]) and hands it to the plan constructor as a
//! fitted layout — there is one way to fit. The model prices a pruned
//! shard, so the serving plane, whose unpinned requests run direct, fits
//! nothing; the gates, the `shards` sweep and the benchmark's layer pass
//! do:
//!
//! 1. **Sample** — a seeded reservoir ([`KeySampler`]) over a bounded
//!    strided sample of every stream's routing keys
//!    ([`KeySampler::offer_strided`]: at most 16 keys read per reservoir
//!    slot, extracted at the sampled rows only, so a plan reads as many
//!    keys on 200 k rows as on 16 k; a request at or under the bound
//!    reads every key). Row counts stay exact.
//! 2. **Choose the shard count** — each candidate count in
//!    `1..=`[`MAX_SHARDS`] is cut at the sampled quantiles
//!    ([`fit_boundaries`]) and charged its hottest shard's share of the
//!    rows at the CWorker send rate (worker phase) plus
//!    [`PER_SHARD_OVERHEAD_SECONDS`] per shard (master phase); the first
//!    minimum wins, so a tie goes to the fewer shards. No survivor
//!    volume is priced: a plan is fitted before any pruned run of its
//!    query exists, and the master-ingest model (§4.6) is a figure the
//!    `fig9` and `shards` experiments report, not a decision input.
//!
//! The shard count is the one decision. The routing is always the
//! quantile cut points: they never load the busiest shard twice as much
//! as a hash would on the same sample (the bound is stated on
//! [`fit_boundaries`]), and a count whose cuts gain nothing — no rows,
//! or one key — costs more per extra shard, so it plans one shard, which
//! is the table itself.
//!
//! The emitted [`PlanReport`] records the sampled load and every modelled
//! cost the decision read, so tests and humans audit the choice instead
//! of trusting it. Plans are deterministic: same seed + same tables ⇒
//! identical [`ShardPlan`].

use crate::operators::{for_each_key, key_at};
use crate::query::DbQuery;
use crate::sharded::ShardSpec;
use crate::table::{Partition, Table};
use cheetah_core::plan::{
    fit_boundaries, max_load_fraction, KeySampler, KeyStats, PlanReport, ShardCostPoint, ShardPlan,
};
use cheetah_core::{ShardPartitioner, Sharder};
use cheetah_switch::hash::mix64;

/// Fixed per-shard master-side cost (planning one switch program, merging
/// one more output) charged by the shard-count model, in seconds. It
/// prices a pruned shard's merge; no layout the serving plane holds reads
/// it (a returning unpinned key runs direct, on its rows over the cores).
pub const PER_SHARD_OVERHEAD_SECONDS: f64 = 300e-6;

/// Rows per second one CWorker serializes onto its 10G uplink (§7.1): the
/// rate the shard-count model charges the hottest shard's rows at.
const CWORKER_ROWS_PER_SECOND: f64 = 10.0e6;

/// Largest shard count the shard-count walk considers, and the most a
/// request may pin (`QueryRequest::shards`), whatever the machine.
///
/// It bounds the planner's walk and pinned counts only. The layout the
/// serving plane holds for a returning unpinned key follows the cores
/// instead: a run works its shards on at most one thread per core, so
/// that layout is the key's rows over `cheetah_serve::ROWS_PER_UNIT`, at
/// most two units per pool worker. On a 2-core box (ten alternating
/// ledger pairs, `--seed 1 --seconds 20 --trace 0`, medians with IQRs),
/// that layout against the planner's fits (6–16 shards on the Big Data
/// keys) read `survivor_heavy` `speedup_p50` 19.39 (19.03–19.76) → 22.65
/// (22.31–23.15), better in 10 of 10 pairs, and `prune_heavy` 17.19
/// (16.98–17.35) → 16.97 (16.82–17.03), better in 3 of 10, inside its
/// bound; a fixed 16 units had taken `prune_heavy` 16.9 → 15.7.
pub const MAX_SHARDS: usize = 16;

/// Tuning of the sample-driven shard planner. The shard-count model walks
/// `1..=`[`MAX_SHARDS`] whatever the tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Reservoir capacity: how many routing keys the quantile fit and
    /// the load evaluation see. Zero is taken as one: a plan needs at
    /// least one sampled key.
    pub sample_size: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self { sample_size: 1024 }
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
/// use cheetah_db::{Cluster, DataType, DbQuery, ExecPath, ShardPlanner, TableBuilder, Value};
/// use cheetah_runtime::{execute, ExecPlan};
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
/// // The report carries every number the decision read…
/// assert_eq!(plan.report.rows, 4000);
/// assert_eq!(plan.report.curve.len(), cheetah_db::planner::MAX_SHARDS);
/// assert!(plan.shards() >= 1 && plan.shards() <= cheetah_db::planner::MAX_SHARDS);
/// println!("{}", plan.report.reason);
///
/// // …and a run laid out by it completes bit-identically to the baseline.
/// let base = cluster.run_baseline(&q, &table, None);
/// let routed = ExecPlan::new(&cluster, &q, &table, None, Arc::clone(&plan)).unwrap();
/// assert!(Arc::ptr_eq(routed.shard_plan().unwrap(), &plan), "the layout records its plan");
/// let planned = execute(&cluster, &routed, ExecPath::BarrierPooled).unwrap();
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
    /// rows only, so the cost of a plan does not grow with the tables. A
    /// right table handed to a unary query is ignored, as the plan
    /// constructor ignores it.
    pub fn plan(&self, q: &DbQuery, left: &Table, right: Option<&Table>, seed: u64) -> ShardPlan {
        let right = right.filter(|_| q.is_binary());
        let tables: Vec<&Table> = std::iter::once(left).chain(right).collect();
        let lens: Vec<usize> = tables.iter().map(|t| t.rows()).collect();
        let mut cursors: Vec<KeyCursor<'_>> =
            tables.iter().enumerate().map(|(s, t)| KeyCursor::new(q, s, t, seed)).collect();
        let mut sampler = KeySampler::new(self.cfg.sample_size.max(1), seed);
        sampler.offer_strided(&lens, |stream, row| cursors[stream].key_at(row));
        plan_from_stats(sampler.finish())
    }
}

/// Step 2: walk the candidate counts, each cut at the sampled quantiles —
/// the hottest shard's share of the rows at the CWorker send rate, plus a
/// fixed master-side overhead per shard.
fn plan_from_stats(stats: KeyStats) -> ShardPlan {
    let cut = |n| {
        Sharder::fitted_range(fit_boundaries(&stats.sample, n))
            .expect("fit_boundaries yields ascending cuts")
    };
    let curve: Vec<ShardCostPoint> = (1..=MAX_SHARDS)
        .map(|n| {
            let load = max_load_fraction(&stats.sample, &cut(n));
            let worker_seconds = stats.rows as f64 * load / CWORKER_ROWS_PER_SECOND;
            let merge_seconds = n as f64 * PER_SHARD_OVERHEAD_SECONDS;
            ShardCostPoint { shards: n, worker_seconds, merge_seconds }
        })
        .collect();
    let best = curve
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.total().partial_cmp(&b.total()).expect("finite costs"))
        .map(|(i, _)| i)
        .expect("at least one candidate");
    let shards = best + 1;
    // The walk keeps only each candidate's cost; the chosen count's cuts
    // are a function of the sample and the count alone, so fit them again.
    let sharder = cut(shards);
    let sample_load = max_load_fraction(&stats.sample, &sharder);

    // The first candidate *past the chosen count* whose modelled
    // completion rises again — where merge cost starts eating the pruning
    // win (absent when the chosen count is the axis maximum).
    let turn = curve[best + 1..].iter().find(|p| p.total() > curve[best].total()).map(|p| p.shards);
    let reason = format!(
        "chose {shards} shard(s): sampled {}/{} keys; cut-point sample load {sample_load:.2}; \
         modelled completion {:.2} ms{}",
        stats.sample.len(),
        stats.rows,
        curve[best].total() * 1e3,
        match turn {
            Some(n) => format!(", merge cost eats the win from {n} shards on"),
            None => String::new(),
        },
    );
    ShardPlan {
        sharder,
        report: PlanReport {
            rows: stats.rows,
            sample_len: stats.sample.len(),
            shards,
            sample_load,
            curve,
            reason,
        },
    }
}

// ---------------------------------------------------------------------
// The execution grid: survivor transport × pruning backend, and the arm
// that engages neither.
// ---------------------------------------------------------------------

/// How a shard's unit is run: pruned at its switch, or direct. The one
/// executor (`cheetah_runtime::execute`) takes it as an argument of each
/// run; every path hands the master whole outputs, in fault mode too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Each shard is pruned at its switch; workers hand their completed
    /// outputs over whole and the master merges once the last one is in.
    BarrierPooled,
    /// The unaccelerated plan: each shard job completes its unit over the
    /// identity selection ([`Cluster::run_direct`](crate::Cluster::run_direct)
    /// — no `spec()`, no encode, no switch) and hands the whole output to
    /// the same barrier merge. The serving plane runs it for every request
    /// that pins no pruned arm.
    Direct,
}

impl ExecPath {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecPath::BarrierPooled => "pooled",
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

/// The pinnable backends of the pruned arm, in the four-slot order the
/// frozen benchmark reports. Nothing is learned here: a request pinned to
/// the pruned arm runs the backend it pins, else compiled. Whether a
/// request is pruned at all is a function of the request, not a point of
/// this grid: unpinned traffic runs [`ExecPath::Direct`], and a path,
/// backend or shard-count pin asks for the switch (the serving plane's
/// `arm_of`).
pub struct PathChooser;

impl PathChooser {
    /// The pruned arms, in report order. There is one survivor transport,
    /// so the last two slots repeat the first two: they are kept only for
    /// the frozen report's four-arm order (ROADMAP item 6).
    pub const ARMS: [ChooserArm; 4] = [
        ChooserArm {
            path: ExecPath::BarrierPooled,
            backend: cheetah_net::ExecBackend::Interpreted,
        },
        ChooserArm { path: ExecPath::BarrierPooled, backend: cheetah_net::ExecBackend::Compiled },
        ChooserArm {
            path: ExecPath::BarrierPooled,
            backend: cheetah_net::ExecBackend::Interpreted,
        },
        ChooserArm { path: ExecPath::BarrierPooled, backend: cheetah_net::ExecBackend::Compiled },
    ];
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
/// (`for_each_key` over [`Partition::coded`]: one dispatch per
/// partition, plain strings hashed in place, a column coded at load hashed
/// once per string its partition holds). TOP N routes by the order column through the same walk's
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
        for_each_key(seed, p.coded(col), |_, k| keys.push(k));
    }
    keys
}

/// The columns a routed unit of stream `stream` of `q` carries
/// ([`DbQuery::columns`]), and the position among them of the column its
/// [`routing_keys`] fingerprint, if any — the two arguments
/// [`route_columns`](crate::sharded::route_columns) takes to route `q`'s
/// units, so a string key column is routed dictionary-coded.
pub fn unit_columns(q: &DbQuery, stream: usize) -> (Vec<usize>, Option<usize>) {
    let cols = q.columns(stream);
    let keyed =
        routing_column(q, stream).map(|c| cols.binary_search(&c).expect("a column q reads"));
    (cols, keyed)
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
/// seed; Range cuts at the quantiles of the observed keys of **both**
/// streams ([`fit_boundaries`]) — jointly, because JOIN co-partitioning
/// needs one set of cut points for the two sides — exactly as a fitted
/// plan cuts its sample. With no keys anywhere, the cuts are equal and the
/// spec's shard count stands. A zero shard count is served as one shard.
pub fn fixed_sharder(spec: &ShardSpec, seed: u64, keys: &[&[u64]]) -> Sharder {
    let shards = spec.shards.max(1);
    match spec.partitioner {
        ShardPartitioner::Hash => Sharder::hash(shards, seed),
        ShardPartitioner::Range => {
            let mut all = keys.concat();
            all.sort_unstable();
            Sharder::fitted_range(fit_boundaries(&all, shards))
                .expect("fit_boundaries yields ascending cuts")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(plan.sharder, Sharder::fitted_range(Vec::new()).unwrap(), "nothing to cut");
        assert_eq!(plan.report.curve.len(), MAX_SHARDS, "the walk is the whole decision");
    }

    #[test]
    fn a_right_table_handed_to_a_unary_query_is_not_sampled() {
        // A one-column right table: a unary query routes by its left
        // stream's column alone, so the right table must be neither
        // counted nor indexed by that column (column 2 is not its own).
        let l = test_table(3_000, 4);
        let mut b = crate::table::TableBuilder::new(
            "narrow",
            vec![("k".into(), crate::value::DataType::Int)],
            64,
        );
        for i in 0..500 {
            b.push_row(vec![crate::value::Value::Int(i)]);
        }
        let r = b.build();
        let planner = ShardPlanner::default();
        for q in all_queries().into_iter().chain([DbQuery::Distinct { col: 2 }]) {
            let with_right = planner.plan(&q, &l, Some(&r), 7);
            assert_eq!(with_right, planner.plan(&q, &l, None, 7), "{}", q.kind());
        }
    }

    #[test]
    fn a_zero_size_sample_plans_as_a_one_size_one() {
        let t = test_table(3_000, 4);
        let zero = ShardPlanner::new(PlannerConfig { sample_size: 0 });
        let one = ShardPlanner::new(PlannerConfig { sample_size: 1 });
        for q in all_queries() {
            let right = q.is_binary().then_some(&t);
            let plan = zero.plan(&q, &t, right, 7);
            assert_eq!(plan, one.plan(&q, &t, right, 7), "{}", q.kind());
            assert_eq!(plan.report.sample_len, 1, "{}", q.kind());
        }
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
    fn spread_keys_pick_more_than_one_shard_cut_at_quantiles() {
        // TOP N routes by the (spread) order column; the quantile cuts
        // balance it, so the planner fans out.
        let t = test_table(20_000, 4);
        let planner = ShardPlanner::default();
        let plan = planner.plan(&DbQuery::TopN { order_col: 1, n: 10 }, &t, None, 3);
        assert!(plan.shards() > 1, "{}", plan.report.reason);
        assert_eq!(plan.partitioner(), ShardPartitioner::Range);
        assert!(plan.report.sample_load < 2.0 / plan.shards() as f64, "{:?}", plan.report);
        assert_eq!(plan.report.curve.len(), MAX_SHARDS);
    }
}
