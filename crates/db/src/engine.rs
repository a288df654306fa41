//! The execution engine: baseline ("Spark") path vs. Cheetah path.
//!
//! Both paths run the *same queries on the same data and produce identical
//! normalized output* — that equality is the pruning correctness contract
//! and is asserted all over the test-suite. What differs is **where the
//! work happens**:
//!
//! * **Baseline** ([`baseline`](crate::baseline)): workers compute partial
//!   results over their partitions (filtering, partial aggregation, local
//!   top-N/skyline…), send the compressed partials to the master, which
//!   merges. Worker compute dominates (§2.1: Spark is bottlenecked by
//!   server processing).
//! * **Cheetah** ([`executor`](crate::executor)): workers only *serialize*
//!   the queried columns into entry-per-packet streams (§7.1), the switch
//!   prunes at line rate, and the master completes the query on the
//!   survivors. The per-query specifics live in small [`PruningOperator`]
//!   impls under [`operators`](crate::operators); everything else is
//!   generic.
//!
//! Phase timings are measured on real work with `Instant`; transfer times
//! are modelled from byte counts and link rates by `cheetah-net`'s
//! [`ExecBreakdown`] (the repository has no 40G NICs).

use crate::executor::Tables;
use crate::operators::{
    DistinctOp, FilterOp, GroupByMaxOp, HavingSumOp, JoinOp, PruningOperator, SkylineOp, TopNOp,
};
use crate::query::{DbQuery, QueryOutput};
use crate::table::{Partition, Table};
use cheetah_core::{
    BloomKind, DistinctConfig, EvictionPolicy, JoinMode, SkylinePolicy, TopNRandConfig,
};
use cheetah_net::FaultProfile;
use cheetah_switch::{ProgramStats, SwitchProfile};

// Byte accounting lives in the layer that owns link modelling; re-exported
// here because the engine's runs are where callers meet it.
pub use cheetah_net::{ExecBackend, ExecBreakdown, ENTRY_WIRE_BYTES};

/// Result of the baseline path.
#[derive(Debug, Clone)]
pub struct SparkRun {
    /// Normalized query output.
    pub output: QueryOutput,
    /// Phase breakdown.
    pub breakdown: ExecBreakdown,
}

/// Result of the Cheetah path.
#[derive(Debug, Clone)]
pub struct CheetahRun {
    /// Normalized query output (must equal the baseline's).
    pub output: QueryOutput,
    /// Phase breakdown.
    pub breakdown: ExecBreakdown,
    /// Switch pruning statistics across the plan's passes.
    pub switch_stats: ProgramStats,
    /// Control-plane rules the plan installed.
    pub rules: usize,
}

/// Switch-side configuration knobs for the Cheetah path.
#[derive(Debug, Clone)]
pub struct CheetahTuning {
    /// DISTINCT matrix.
    pub distinct: DistinctConfig,
    /// Randomized TOP-N matrix.
    pub topn: TopNRandConfig,
    /// GROUP BY matrix (rows, cols).
    pub groupby_rows: usize,
    /// GROUP BY matrix columns.
    pub groupby_cols: usize,
    /// JOIN Bloom filter size in bits.
    pub join_m_bits: u64,
    /// JOIN filter kind.
    pub join_kind: BloomKind,
    /// JOIN pass structure. With [`JoinMode::SmallTableFirst`] the *left*
    /// table is treated as the small side: it streams once (unpruned,
    /// building its filter) and only the right table is pruned — one less
    /// pass and a lower false-positive rate (§4.3).
    pub join_mode: JoinMode,
    /// HAVING Count-Min counters per row.
    pub having_counters: usize,
    /// SKYLINE stored points.
    pub skyline_points: usize,
    /// SKYLINE projection policy.
    pub skyline_policy: SkylinePolicy,
    /// Seed for all hashes.
    pub seed: u64,
}

impl Default for CheetahTuning {
    fn default() -> Self {
        Self {
            distinct: DistinctConfig {
                rows: 4096,
                cols: 2,
                policy: EvictionPolicy::Lru,
                fingerprint: None,
                seed: 0xD,
            },
            topn: TopNRandConfig { rows: 4096, cols: 4, seed: 0x7 },
            groupby_rows: 4096,
            groupby_cols: 8,
            join_m_bits: 1 << 22,
            join_kind: BloomKind::Classic { h: 3 },
            join_mode: JoinMode::TwoPass,
            having_counters: 1024,
            skyline_points: 10,
            skyline_policy: SkylinePolicy::Sum,
            seed: 0xC43E7A,
        }
    }
}

/// A cluster: workers own partitions; one master; one switch in between.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Switch model used by the Cheetah path.
    pub profile: SwitchProfile,
    /// Switch-side tuning.
    pub tuning: CheetahTuning,
    /// Which pruning backend the Cheetah path runs: the interpreted
    /// pipeline (default, the oracle) or the plan-time fused kernels of
    /// [`cheetah_core::CompiledProgram`]. Because the executor clones the
    /// cluster into its shard workers, setting this once routes every
    /// shard's entry loop through the chosen engine.
    pub backend: ExecBackend,
    /// Fault mode (§7.2): the fault profile of a simulated lossy rack and
    /// the seed of its draws. A run in fault mode carries every row it read
    /// across that rack, after its pruning passes and before the master
    /// completes, and completes over what was delivered. `None`, the
    /// default, carries nothing. Set once, like the backend, it rides
    /// every shard job of every path.
    pub fault: Option<(FaultProfile, u64)>,
}

impl Default for Cluster {
    fn default() -> Self {
        Self {
            profile: SwitchProfile::tofino2(),
            tuning: CheetahTuning::default(),
            backend: ExecBackend::Interpreted,
            fault: None,
        }
    }
}

/// Compression factor applied to the baseline's transfers (§7.1: Spark
/// compresses and packs entries; Cheetah cannot).
pub const BASELINE_COMPRESSION: f64 = 0.5;

/// Per-row software overhead of the *Spark* baseline, in nanoseconds,
/// scaled per query class by [`spark_overhead_factor`] and charged by
/// [`Cluster::run_baseline`]. Our operators are tight Rust loops; Spark's
/// measured row rates are 10–100× slower (the paper's own Figure 5: 31.7M
/// rows ≈ 8–10 s on five 2-core workers ⇒ ~1 µs/row for hash
/// aggregation). [`Cluster::run_baseline_measured`] is the raw Rust engine
/// without it.
pub const SPARK_ROW_OVERHEAD_NS: f64 = 1_000.0;

/// Relative per-row cost of Spark's software stack per query class, as a
/// fraction of [`SPARK_ROW_OVERHEAD_NS`]. Whole-stage codegen
/// makes simple scans far cheaper per row than hash aggregation; dominance
/// checks are the most expensive (§8.3 makes the same ordering argument).
pub fn spark_overhead_factor(q: &DbQuery) -> f64 {
    match q {
        DbQuery::FilterCount { .. } => 0.08, // vectorized scan
        DbQuery::TopN { .. } => 0.3,         // branchy bounded heap
        DbQuery::Join { .. } => 0.8,         // shuffle + hash probe
        DbQuery::Distinct { .. } | DbQuery::HavingSum { .. } => 1.0, // hash aggregate
        DbQuery::GroupByMax { .. } => 1.0,
        DbQuery::Skyline { .. } => 1.5, // pairwise dominance
    }
}

/// `run`, a measured baseline run of `q` over these tables, charged the
/// calibrated Spark software overhead: [`SPARK_ROW_OVERHEAD_NS`] scaled by
/// [`spark_overhead_factor`] per row of the busiest worker (partitions
/// are processed one task per worker), added to its `worker_seconds`.
/// Nothing else of the run changes.
pub(crate) fn spark_calibrated(
    q: &DbQuery,
    left: &Table,
    right: Option<&Table>,
    mut run: SparkRun,
) -> SparkRun {
    let busiest = |t: &Table| t.partitions().iter().map(Partition::rows).max().unwrap_or(0);
    let max_rows = busiest(left) + right.map_or(0, busiest);
    run.breakdown.worker_seconds +=
        max_rows as f64 * SPARK_ROW_OVERHEAD_NS * spark_overhead_factor(q) * 1e-9;
    run
}

/// Build `$q`'s [`PruningOperator`] as `$op` and evaluate `$body` with
/// it — the one place a query shape picks its operator impl, statically,
/// for both arms (and for [`Cluster::lend_operator`]).
macro_rules! with_operator {
    ($cluster:expr, $q:expr, |$op:ident| $body:expr) => {{
        let tuning = &$cluster.tuning;
        match $q {
            DbQuery::FilterCount { pred } => {
                let $op = FilterOp::new(pred);
                $body
            }
            DbQuery::Distinct { col } => {
                let $op = DistinctOp::new(*col, tuning);
                $body
            }
            DbQuery::Skyline { cols } => {
                let $op = SkylineOp::new(cols, tuning);
                $body
            }
            DbQuery::TopN { order_col, n } => {
                let $op = TopNOp::new(*order_col, *n, tuning);
                $body
            }
            DbQuery::GroupByMax { key_col, val_col } => {
                let $op = GroupByMaxOp::new(*key_col, *val_col, tuning);
                $body
            }
            DbQuery::Join { left_key, right_key } => {
                let $op = JoinOp::new(*left_key, *right_key, tuning);
                $body
            }
            DbQuery::HavingSum { key_col, val_col, threshold } => {
                let $op = HavingSumOp::new(*key_col, *val_col, *threshold, tuning);
                $body
            }
        }
    }};
}

impl Cluster {
    /// This cluster with the Cheetah path pinned to `backend`.
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// This cluster in fault mode: every run carries its rows across a
    /// rack whose links fail per `profile`, drawn from `seed`.
    pub fn with_fault(mut self, profile: FaultProfile, seed: u64) -> Self {
        self.fault = Some((profile, seed));
        self
    }

    // ------------------------------------------------------------------
    // Baseline path (measured operators live in `crate::baseline`)
    // ------------------------------------------------------------------

    /// Execute the query the way vanilla Spark would: the measured run,
    /// charged the calibrated Spark software overhead of
    /// [`SPARK_ROW_OVERHEAD_NS`] × [`spark_overhead_factor`] per row of
    /// its busiest worker.
    pub fn run_baseline(&self, q: &DbQuery, left: &Table, right: Option<&Table>) -> SparkRun {
        spark_calibrated(q, left, right, self.run_baseline_measured(q, left, right))
    }

    // ------------------------------------------------------------------
    // Cheetah path
    // ------------------------------------------------------------------

    /// Execute the query through the switch-pruned path. Output is
    /// guaranteed equal to [`run_baseline`](Self::run_baseline)'s (up to
    /// the probabilistic fingerprint caveats documented per algorithm).
    ///
    /// Every query shape goes through the same generic executor
    /// ([`Cluster::execute`]); `with_operator!` only picks the
    /// [`PruningOperator`] impl.
    ///
    /// This is the one-slice executor: `cheetah_runtime::execute` calls it
    /// (or [`run_direct`](Self::run_direct)) once per routed unit on every
    /// shard worker. In fault mode ([`Cluster::fault`]) the run carries
    /// every row it read across the lossy rack after its pruning passes,
    /// and completes over the rows delivered.
    pub fn run_cheetah(
        &self,
        q: &DbQuery,
        left: &Table,
        right: Option<&Table>,
    ) -> cheetah_core::Result<CheetahRun> {
        let t = Tables { left, right };
        with_operator!(self, q, |op| self.execute(&op, &t))
    }

    /// Execute the query *without* the switch: the same operator's
    /// `complete` over the identity selection
    /// ([`Survivors::all`](crate::operators::Survivors::all), which holds
    /// row counts and no row ids, so the completion scans its columns) —
    /// no `spec()`, no encode, no pruning pass. Output equals
    /// [`run_baseline`](Self::run_baseline)'s exactly.
    ///
    /// The paper's claim is conditional: pruning pays when the switch
    /// removes work the master would otherwise do. Where completing a row
    /// costs less than encoding and judging it, this is the faster plan,
    /// and `cheetah_runtime::execute` runs it per routed unit under
    /// [`ExecPath::Direct`](crate::ExecPath::Direct). The run is accounted
    /// as what it physically is — a worker computing a partial and
    /// shipping it through a pass-through switch: `worker_seconds` is the
    /// operator's time, `master_seconds` zero, `entries_to_master` the
    /// result rows of its output
    /// ([`QueryOutput::result_rows`](crate::QueryOutput::result_rows); a
    /// fan-out join ships its input rows instead, being fewer), every one
    /// of them seen and forwarded, none pruned. In fault mode every row it
    /// read crosses the lossy rack first, forwarded whole, and reaches the
    /// master.
    pub fn run_direct(
        &self,
        q: &DbQuery,
        left: &Table,
        right: Option<&Table>,
    ) -> cheetah_core::Result<CheetahRun> {
        let t = Tables { left, right };
        with_operator!(self, q, |op| crate::executor::complete_all(&op, &t, self.fault))
    }

    /// Build `q`'s operator as every run does and lend it to `f`: for a
    /// caller that drives [`Cluster::execute`] with the engine's own
    /// operator wrapped — instrumented, say — rather than through
    /// [`run_cheetah`](Self::run_cheetah).
    pub fn lend_operator<R>(&self, q: &DbQuery, f: impl FnOnce(&dyn PruningOperator) -> R) -> R {
        with_operator!(self, q, |op| f(&op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{DbPredicate, IntCmp};
    use crate::testutil::test_table;

    #[test]
    fn overhead_factors_order_queries_sensibly() {
        let filter = spark_overhead_factor(&DbQuery::FilterCount {
            pred: DbPredicate::CmpInt { col: 0, op: IntCmp::Lt, lit: 1 },
        });
        let agg = spark_overhead_factor(&DbQuery::Distinct { col: 0 });
        let sky = spark_overhead_factor(&DbQuery::Skyline { cols: vec![0, 1] });
        assert!(filter < agg, "scans are cheaper per row than hash aggregation");
        assert!(agg <= sky, "dominance checks are the most expensive");
    }

    #[test]
    fn spark_overhead_calibration_is_applied() {
        let q = DbQuery::Distinct { col: 0 };
        // 10 000 rows on the busiest worker × 1 µs.
        let t = test_table(20_000, 2);
        let cluster = Cluster::default();
        // One measured run, calibrated: the charge is exact, not a
        // difference between two separately timed runs.
        let raw = cluster.run_baseline_measured(&q, &t, None);
        let calibrated = spark_calibrated(&q, &t, None, raw.clone());
        let charged = 10_000.0 * SPARK_ROW_OVERHEAD_NS * spark_overhead_factor(&q) * 1e-9;
        assert_eq!(calibrated.breakdown.worker_seconds, raw.breakdown.worker_seconds + charged);
        // Only the clock is calibrated: the output and the transfer are
        // the measured run's.
        assert_eq!(calibrated.output, raw.output);
        let mut unclocked = calibrated.breakdown.clone();
        unclocked.worker_seconds = raw.breakdown.worker_seconds;
        assert_eq!(unclocked, raw.breakdown);
        // A JOIN charges both sides' busiest partitions.
        let join = DbQuery::Join { left_key: 0, right_key: 0 };
        let both = spark_calibrated(&join, &t, Some(&t), raw.clone());
        let sides = 20_000.0 * SPARK_ROW_OVERHEAD_NS * spark_overhead_factor(&join) * 1e-9;
        assert_eq!(both.breakdown.worker_seconds, raw.breakdown.worker_seconds + sides);
        // `run_baseline` is a measured run, calibrated.
        let calibrated = cluster.run_baseline(&q, &t, None);
        assert_eq!(calibrated.output, raw.output);
        assert!(calibrated.breakdown.worker_seconds >= charged, "calibration missing");
        // The Cheetah path is never calibrated — it measures real work.
        let chee = cluster.run_cheetah(&q, &t, None).unwrap();
        assert!(chee.breakdown.worker_seconds < calibrated.breakdown.worker_seconds);
    }

    /// Values at and around the edges of `i64` and of the switch's 32-bit
    /// window, where `encode_i64_32` saturates: GROUP BY MAX and SKYLINE
    /// answer like the baseline on both engines and the direct arm, and a
    /// HAVING sum past `i64::MAX` is exact, reported clamped, on every arm.
    #[test]
    fn every_arm_answers_exactly_at_each_boundary_value() {
        use crate::table::TableBuilder;
        use crate::value::{DataType, Value};
        let edges = [i64::MIN, i64::MIN + 1, -(1 << 31) - 1, -(1 << 31) + 1];
        let edges = edges.into_iter().chain([(1 << 31) - 1, (1 << 31) + 1, i64::MAX]);
        for edge in edges {
            let int = |f: &str| (f.to_string(), DataType::Int);
            let mut t =
                TableBuilder::new("t", vec![("k".into(), DataType::Str), int("a"), int("b")], 64);
            let mut pair = TableBuilder::new("pair", vec![int("a"), int("b")], 64);
            for i in 0..200 {
                // 200 distinct values beside the edge, rising row by row.
                let a =
                    if edge < 0 { edge.saturating_add(i) } else { edge.saturating_sub(199 - i) };
                t.push_row([
                    Value::Str(format!("k{}", i % 7)),
                    Value::Int(a),
                    Value::Int(i64::MAX),
                ]);
                pair.push_row([Value::Int(a), Value::Int(edge)]);
            }
            let (t, pair) = (t.build(), pair.build());
            let queries = [
                (DbQuery::GroupByMax { key_col: 0, val_col: 1 }, &t),
                (DbQuery::Skyline { cols: vec![1, 2] }, &t),
                (DbQuery::Skyline { cols: vec![0, 1] }, &pair),
                (DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: 0 }, &t),
                (DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: i64::MAX - 1 }, &t),
            ];
            for (q, table) in queries {
                let want = Cluster::default().run_baseline(&q, table, None).output;
                for backend in [ExecBackend::Interpreted, ExecBackend::Compiled] {
                    let cluster = Cluster::default().with_backend(backend);
                    let pruned = cluster.run_cheetah(&q, table, None).unwrap().output;
                    assert_eq!(pruned, want, "{q:?} at {edge}, {}", backend.label());
                }
                let direct = Cluster::default().run_direct(&q, table, None).unwrap().output;
                assert_eq!(direct, want, "{q:?} at {edge}, direct");
            }
        }
    }

    #[test]
    fn a_top_n_past_the_rows_is_every_value_descending_on_both_sides() {
        // The baseline reserved `n` heap slots before reading a row: this
        // `n` aborted the process, and `usize::MAX` overflowed.
        let cluster = Cluster::default();
        let t = test_table(10, 3);
        let mut every: Vec<i64> =
            t.partitions().iter().flat_map(|p| p.column(1).as_int().unwrap().to_vec()).collect();
        every.sort_unstable_by(|a, b| b.cmp(a));
        for n in [1 << 40, usize::MAX] {
            let q = DbQuery::TopN { order_col: 1, n };
            let base = cluster.run_baseline(&q, &t, None).output;
            assert_eq!(base, QueryOutput::TopValues(every.clone()), "n = {n}");
            assert_eq!(cluster.run_cheetah(&q, &t, None).unwrap().output, base, "n = {n}");
        }
    }
}
