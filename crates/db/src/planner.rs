//! How many shards, and which rows go to each: the one shard-count rule
//! ([`units`]) and the routing keys every layout is split by
//! ([`routing_keys`]).
//!
//! A shard count has one source outside a pin: [`units`], a query's rows
//! over [`ROWS_PER_UNIT`], at least one unit and at most two per pool
//! worker, with a floor of two for a JOIN whose string key the load rule
//! left plain. Cores are a resource a run allocates: a run works its units
//! on at most one thread per core, so the count follows the cores, not a
//! cost model. There is no sampler and no price per shard.
//!
//! Every layout is routed by one function, the seeded hash over its shard
//! count (`Sharder::hash`), so a layout is its shard count: a pin
//! (`QueryRequest::shards`, up to [`MAX_SHARDS`]) names it, and the
//! serving plane lays a returning unpinned key out at [`units`] shards,
//! the count the generated gates and the `shards` sweep run too. Nothing
//! is fitted to the keys. [`ShardSpec`], [`fixed_sharder`] and
//! [`ShardPlanner`] are kept only for the frozen ledger.

use crate::operators::for_each_key;
use crate::query::DbQuery;
use crate::table::Table;
use crate::value::DataType;
use cheetah_core::{ShardPartitioner, Sharder};
use cheetah_switch::hash::mix64;

/// The most shards a request may pin (`QueryRequest::shards`), whatever
/// the machine. It bounds pins only: [`units`] follows the cores.
///
/// On a 2-core box (ten alternating ledger pairs, `--seed 1 --seconds 20
/// --trace 0`, medians with IQRs), the served layout against the fits of
/// the sampling planner this rule replaced (6–16 shards on the Big Data
/// keys) read `survivor_heavy` `speedup_p50` 19.39 (19.03–19.76) → 22.65
/// (22.31–23.15), better in 10 of 10 pairs, and `prune_heavy` 17.19
/// (16.98–17.35) → 16.97 (16.82–17.03), better in 3 of 10, inside its
/// bound; a fixed 16 units had taken `prune_heavy` 16.9 → 15.7.
pub const MAX_SHARDS: usize = 16;

/// Rows per unit of a served layout ([`units`]).
///
/// Placed between the benchmark's 6 000-row tenant tables and its
/// 300 000-row Rankings table by ledger pairs on a 2-core box (`--seed 1
/// --seconds 20 --trace 0`, against layouts a sampling planner fitted):
/// with this gate the tenant tables hold one unit and `tenants_small`
/// held its `speedup_p50` (8.1–8.4 → 8.0–8.8, 3 pairs), where cut into
/// two units they fell to 6.6, `speedup_p90` 6.1 → 3.6 and `setup_s`
/// 0.017 → 0.025 s; the Big Data tables hold `2 × workers` units, and
/// `survivor_heavy` rose 14.59–15.66 → 16.34–17.23 and `prune_heavy`
/// 16.76–17.40 → 17.42–17.93 (5 pairs each). Ten alternating pairs of the
/// rule against those fits then read `tenants_small` 8.30 → 8.21,
/// `survivor_heavy` 19.39 → 22.65 (10 of 10) and `prune_heavy` 17.19 →
/// 16.97 (medians).
pub const ROWS_PER_UNIT: usize = 65_536;

/// The shard count of `q`'s served layout over these tables: the rows of
/// the streams `q` reads over [`ROWS_PER_UNIT`], at least one and at most
/// two per pool worker. A run works its units on at most one thread per
/// core, and more units than threads let the run's claim counter balance
/// a slow thread's share: at one unit per worker, `survivor_heavy`'s JOIN
/// p50 read 1.46–1.49 → 1.86–2.05 ms, and a fixed 16 units took
/// `prune_heavy`'s `speedup_p50` 16.9 → 15.7.
///
/// A JOIN whose string key the load rule left plain on either side
/// ([`Table::is_coded`]: a near-unique key, such as URLs) gets at least
/// two units, so routing codes the key per unit and the JOIN counts and
/// probes codes: a 20 000 / 10 000-row URL JOIN read its direct wall at
/// 2.60–3.17 ms held as one unit, the caller's tables, against 59.7–69.4
/// µs routed into two or three units (the quick `shards` sweep, 2 cores).
/// A right table handed to a unary query is not counted.
pub fn units(q: &DbQuery, left: &Table, right: Option<&Table>, workers: usize) -> usize {
    let right = right.filter(|_| q.is_binary());
    let rows = left.rows() + right.map_or(0, Table::rows);
    let units = (rows / ROWS_PER_UNIT).min(2 * workers).max(1);
    let plain = |t: &Table, col: usize| {
        t.fields().get(col).is_some_and(|(_, ty)| *ty == DataType::Str) && !t.is_coded(col)
    };
    match (q, right) {
        (DbQuery::Join { left_key, right_key }, Some(right))
            if plain(left, *left_key) || plain(right, *right_key) =>
        {
            units.max(2)
        }
        _ => units,
    }
}

/// A shard count, kept only for the frozen ledger, which builds one for
/// [`fixed_sharder`]: a layout is its shard count, and the one routing
/// family is the hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Worker shard count.
    pub shards: usize,
}

impl ShardSpec {
    /// `shards` workers, routed by the hash.
    pub fn new(shards: usize, _: ShardPartitioner) -> Self {
        Self { shards }
    }
}

/// The hash sharder of a [`ShardSpec`]'s count (zero served as one
/// shard), kept only for the frozen ledger, which hands it routing keys
/// it does not read.
pub fn fixed_sharder(spec: &ShardSpec, seed: u64, _keys: &[&[u64]]) -> Sharder {
    Sharder::hash(spec.shards.max(1), seed)
}

/// Kept only for the frozen ledger, whose layer pass constructs it
/// (`ShardPlanner::new(PlannerConfig::default())`): the planner has
/// nothing to tune.
#[derive(Debug, Clone, Default)]
pub struct PlannerConfig {}

/// The served layout as a sharder, kept only for the frozen ledger, whose
/// layer pass times [`plan`](Self::plan) and routes by its result (its
/// `planner.*` stages), as `StatsFingerprint` is kept for its
/// `plan_cache.fingerprint_us` stage. Nothing else calls it.
#[derive(Debug)]
pub struct ShardPlanner;

/// What [`ShardPlanner::plan`] returns: the served layout's sharder.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The `key → shard` routing: the hash over [`units`] shards.
    pub sharder: Sharder,
}

impl ShardPlan {
    /// The shard count.
    pub fn shards(&self) -> usize {
        self.sharder.shards()
    }
}

impl ShardPlanner {
    /// The planner; it has nothing to tune.
    pub fn new(_: PlannerConfig) -> Self {
        ShardPlanner
    }

    /// The sharder of the layout the serving plane holds for a returning
    /// unpinned `q` over these tables: the hash over [`units`] shards,
    /// with one worker per core (the global pool's width).
    pub fn plan(&self, q: &DbQuery, left: &Table, right: Option<&Table>, seed: u64) -> ShardPlan {
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        ShardPlan { sharder: Sharder::hash(units(q, left, right, workers), seed) }
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
    pub fn label(self) -> &'static str {
        use cheetah_net::ExecBackend::{Compiled, Interpreted};
        match (self.path, self.backend) {
            (ExecPath::Direct, _) => "direct",
            (ExecPath::BarrierPooled, Interpreted) => "pooled/interp",
            (ExecPath::BarrierPooled, Compiled) => "pooled/compiled",
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
// route by".
// ---------------------------------------------------------------------

/// Every row's routing key for stream `stream`, in row order.
///
/// Keyed queries route by their group/join key so each key lives on one
/// shard (exact key-union and co-partitioned-join merges) — the key the
/// operator encodes for the switch, so routing shares the operator's walk
/// (`for_each_key` over
/// [`Partition::coded`](crate::table::Partition::coded): one dispatch per
/// partition, plain strings hashed in place, a column coded at load hashed
/// once per string its partition holds). TOP N routes by its order column
/// through the same walk's int arm. Scans and skylines route by a row-id
/// hash (pure load balance — their merges are routing-agnostic).
///
/// Public because the plan constructor in `cheetah-runtime` routes by
/// these keys, and every stream of a query must be split by the *same*
/// keys for the per-operator merge semantics to hold.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::testutil::{all_queries, test_table};
    use crate::value::Value;

    /// `rows` rows of one string key column: `distinct` keys (a plain
    /// column past half distinct, coded at load under it) and an int.
    fn keyed(rows: usize, distinct: usize) -> Table {
        let fields = vec![("k".into(), DataType::Str), ("n".into(), DataType::Int)];
        let mut b = TableBuilder::new("t", fields, 4_096);
        for i in 0..rows {
            b.push_row([Value::Str(format!("k{}", i % distinct.max(1))), Value::Int(i as i64)]);
        }
        b.build()
    }

    #[test]
    fn the_shard_count_rule_at_its_edges() {
        const R: usize = ROWS_PER_UNIT;
        let distinct = DbQuery::Distinct { col: 0 };
        let join = DbQuery::Join { left_key: 0, right_key: 0 };
        let int_join = DbQuery::Join { left_key: 1, right_key: 1 };
        let (coded, plain) = (keyed(3_000, 30), keyed(3_000, 3_000));
        assert!(coded.is_coded(0) && !plain.is_coded(0), "fixture: the load rule");
        let empty = keyed(0, 1);
        let (under, two, wide) = (keyed(R - 1, 30), keyed(2 * R, 30), keyed(5 * R, 30));
        for (label, q, left, right, workers, want) in [
            ("no row", &distinct, &empty, None, 2, 1),
            ("one row under a unit", &distinct, &under, None, 2, 1),
            ("two units' rows", &distinct, &two, None, 2, 2),
            ("past two per worker", &distinct, &wide, None, 2, 4),
            ("past two per worker, one worker", &distinct, &wide, None, 1, 2),
            ("a unary query's right table", &distinct, &under, Some(&two), 2, 1),
            ("both streams counted", &join, &two, Some(&two), 8, 4),
            ("join, keys coded", &join, &coded, Some(&coded), 2, 1),
            ("join, left key plain", &join, &plain, Some(&coded), 2, 2),
            ("join, right key plain", &join, &coded, Some(&plain), 2, 2),
            ("join, plain and past the floor", &join, &wide, Some(&plain), 2, 4),
            ("join, int keys", &int_join, &plain, Some(&plain), 2, 1),
        ] {
            assert_eq!(units(q, left, right, workers), want, "{label}");
        }
    }

    #[test]
    fn the_planner_plans_the_served_layout() {
        // What the frozen benchmark times is the served layout's sharder:
        // the hash over the rule's shard count.
        let (l, r) = (test_table(3_000, 4), test_table(1_000, 2));
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        let planner = ShardPlanner::new(PlannerConfig::default());
        for q in all_queries() {
            let right = q.is_binary().then_some(&r);
            let plan = planner.plan(&q, &l, right, 7);
            let served = units(&q, &l, right, workers);
            assert_eq!(plan.sharder, Sharder::hash(served, 7), "{}", q.kind());
            let spec = ShardSpec::new(served, ShardPartitioner::Hash);
            assert_eq!(plan.sharder, fixed_sharder(&spec, 7, &[]), "{}", q.kind());
            let with_right = planner.plan(&q, &l, Some(&r), 7);
            assert_eq!(plan, with_right, "{}: a right table a unary query ignores", q.kind());
        }
    }
}
