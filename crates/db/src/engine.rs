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
//!   survivors. The per-query specifics live in small
//!   [`PruningOperator`](crate::operators::PruningOperator) impls under
//!   [`operators`](crate::operators); everything else is generic.
//!
//! Phase timings are measured on real work with `Instant`; transfer times
//! are modelled from byte counts and link rates by `cheetah-net`'s
//! [`ExecBreakdown`] (the repository has no 40G NICs).

use crate::executor::Tables;
use crate::operators::{
    DistinctOp, FilterOp, GroupByMaxOp, HavingSumOp, JoinOp, SkylineOp, TopNOp,
};
use crate::query::{DbQuery, QueryOutput};
use crate::table::{Partition, Table};
use cheetah_core::{
    BloomKind, DistinctConfig, EvictionPolicy, JoinMode, SkylinePolicy, TopNRandConfig,
};
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
    /// Compression factor applied to baseline transfers (§7.1: Spark
    /// compresses and packs entries; Cheetah cannot).
    pub baseline_compression: f64,
    /// Per-row software overhead of the *Spark* baseline, in nanoseconds,
    /// scaled per query class by [`spark_overhead_factor`]. Our operators are
    /// tight Rust loops; Spark's measured row rates are 10–100× slower
    /// (the paper's own Figure 5: 31.7M rows ≈ 8–10 s on five 2-core
    /// workers ⇒ ~1 µs/row for hash aggregation). Set to 0 to compare
    /// against the raw Rust engine instead of a Spark-like baseline.
    pub spark_row_overhead_ns: f64,
    /// Switch-side tuning.
    pub tuning: CheetahTuning,
    /// Which pruning backend the Cheetah path runs: the interpreted
    /// pipeline (default, the oracle) or the plan-time fused kernels of
    /// [`cheetah_core::CompiledProgram`]. Because the executor clones the
    /// cluster into its shard workers, setting this once routes every
    /// shard's entry loop through the chosen engine.
    pub backend: ExecBackend,
}

impl Default for Cluster {
    fn default() -> Self {
        Self {
            profile: SwitchProfile::tofino2(),
            baseline_compression: 0.5,
            spark_row_overhead_ns: 1_000.0,
            tuning: CheetahTuning::default(),
            backend: ExecBackend::Interpreted,
        }
    }
}

/// Relative per-row cost of Spark's software stack per query class, as a
/// fraction of [`Cluster::spark_row_overhead_ns`]. Whole-stage codegen
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

/// Build `$q`'s [`PruningOperator`](crate::operators::PruningOperator)
/// as `$op` and evaluate `$body` with it — the one place a query shape
/// picks its operator impl, statically, for both arms.
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

    // ------------------------------------------------------------------
    // Baseline path (measured operators live in `crate::baseline`)
    // ------------------------------------------------------------------

    /// Execute the query the way vanilla Spark would.
    pub fn run_baseline(&self, q: &DbQuery, left: &Table, right: Option<&Table>) -> SparkRun {
        let mut run = self.run_baseline_measured(q, left, right);
        // Charge the calibrated Spark software overhead to the busiest
        // worker (partitions are processed one task per worker).
        let max_rows = left.partitions().iter().map(Partition::rows).max().unwrap_or(0)
            + right
                .map(|r| r.partitions().iter().map(Partition::rows).max().unwrap_or(0))
                .unwrap_or(0);
        run.breakdown.worker_seconds +=
            max_rows as f64 * self.spark_row_overhead_ns * spark_overhead_factor(q) * 1e-9;
        run
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
    /// [`PruningOperator`](crate::operators::PruningOperator) impl.
    ///
    /// This is the one-slice executor: `cheetah_runtime::execute` calls it
    /// (or [`run_direct`](Self::run_direct)) once per routed unit on every
    /// shard worker.
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
    /// ([`Survivors::all`](crate::operators::Survivors)) — no `spec()`, no
    /// encode, no pruning pass. Output equals
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
    /// of them seen and forwarded, none pruned.
    pub fn run_direct(
        &self,
        q: &DbQuery,
        left: &Table,
        right: Option<&Table>,
    ) -> cheetah_core::Result<CheetahRun> {
        let t = Tables { left, right };
        with_operator!(self, q, |op| crate::executor::complete_all(&op, &t))
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
        let t = test_table(2_000, 2);
        let mut cluster = Cluster { spark_row_overhead_ns: 0.0, ..Cluster::default() };
        let raw = cluster.run_baseline(&q, &t, None);
        // An exaggerated 10 µs/row calibration: the 10 ms it adds to the
        // busiest worker dwarfs any scheduler noise from the rest of the
        // (thread-heavy) test suite running concurrently.
        cluster.spark_row_overhead_ns = 10_000.0;
        let calibrated = cluster.run_baseline(&q, &t, None);
        // 1000 rows per partition × 10 µs = 10 ms extra on the busiest worker.
        let delta = calibrated.breakdown.worker_seconds - raw.breakdown.worker_seconds;
        assert!(delta > 5e-3, "calibration missing: {delta}");
        // The Cheetah path is never calibrated — it measures real work.
        let chee = cluster.run_cheetah(&q, &t, None).unwrap();
        assert!(chee.breakdown.worker_seconds < calibrated.breakdown.worker_seconds);
    }
}
