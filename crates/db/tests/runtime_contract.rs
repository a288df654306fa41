//! The runtime contract gate, the fourth named CI tier after the pruning,
//! shard, and planner gates. What it pins down:
//!
//! 1. **Correctness** — a run routed in rounds (with mid-run re-plans
//!    allowed) is bit-identical to the baseline for **all seven**
//!    `DbQuery` variants across the adversarial workload family
//!    ({uniform, zipf(1.0), zipf(1.5), single-hot-key}), at shard counts
//!    {1, 2, 7} under both partitioners, both transports and both
//!    backends: the transport changes *when* survivors reach the master,
//!    never *what* the query answers — including across input rounds and
//!    mid-run re-plans.
//! 2. **Forced re-plan** — a clustered-order-value TOP N under a
//!    degenerate equal-span range layout must trip the supervisor, adopt
//!    a re-fit mid-run, and still match the baseline bit for bit.
//! 3. **Replan discipline** — key-holistic queries (HAVING, JOIN) run a
//!    single round and never re-plan, whatever the trigger factor;
//!    `replan: false` pins every query's routing.
//! 4. **Determinism** — same seed + same tables ⇒ identical output,
//!    shard assignment, and supervisor decisions.

mod common;

use common::{all_seven, for_each_exec_case};

use cheetah_core::ShardPartitioner;
use cheetah_db::{
    Cluster, DataType, DbQuery, ExecPath, QueryOutput, ShardSpec, Table, TableBuilder, Value,
};
use cheetah_runtime::{execute, ExecPlan, ExecRun, StreamSpec};
use cheetah_workloads::PlannerAdversary;
use std::sync::Arc;

/// Route under `spec` and execute on the stream transport.
fn streamed(cluster: &Cluster, q: &DbQuery, t: &Arc<Table>, spec: &StreamSpec) -> ExecRun {
    let plan = ExecPlan::new(cluster, q, t, None, spec).expect("routes");
    execute(cluster, &plan).expect("plan fits")
}

/// What every run of this gate must satisfy beyond the grid's universal
/// contract (output, shard count, row conservation).
fn assert_runtime_discipline(q: &DbQuery, path: ExecPath, run: &ExecRun, label: &str) {
    // Key-holistic queries must have pinned their routing.
    if !q.merge_routing_agnostic() {
        assert_eq!(run.rounds, 1, "{label}");
        assert_eq!(run.breakdown.replans, 0, "{label}");
    }
    // The merge plane's telemetry stays self-consistent.
    assert!(
        run.breakdown.overlap_seconds <= run.merge_seconds + 1e-12,
        "{label}: overlap exceeds total merge work"
    );
    if path == ExecPath::StreamedResident && run.breakdown.entries_to_master > 0 {
        assert!(run.batches > 0, "{label}: survivors must be framed");
    }
}

#[test]
fn routed_rounds_match_baseline_across_the_adversarial_family() {
    for adv in PlannerAdversary::all() {
        let left = Arc::new(adv.table(900, 3, 0x5EED));
        let right = Arc::new(adv.table(450, 2, 0x5EED ^ 0xFACE));
        // The default template: four input rounds, re-planning on.
        for_each_exec_case(
            &left,
            &right,
            9_000,
            &StreamSpec::default(),
            &adv.name(),
            |case, run| {
                assert_runtime_discipline(&case.q, case.path, run, &case.label);
            },
        );
    }
}

#[test]
fn planner_chosen_layouts_match_baseline_too() {
    let cluster = Cluster::default();
    for adv in [PlannerAdversary::Zipf(1.5), PlannerAdversary::SingleHotKey] {
        let left = Arc::new(adv.table(900, 3, 0xA11CE));
        let right = Arc::new(adv.table(450, 2, 0xA11CE ^ 0xFACE));
        for q in all_seven(9_000) {
            let right_of = q.is_binary().then_some(&right);
            let base = cluster.run_baseline(&q, &left, right_of.map(|r| &**r));
            // The default spec: planner-chosen layout.
            let plan = ExecPlan::new(&cluster, &q, &left, right_of, &StreamSpec::default())
                .expect("routes");
            for path in [ExecPath::BarrierPooled, ExecPath::StreamedResident] {
                let label = format!("{} × planned × {} on {}", q.kind(), path.label(), adv.name());
                let run = execute(&cluster, &plan.for_path(path)).expect("plan fits");
                assert_eq!(base.output, run.output, "{label}");
                let total = (left.rows() + right_of.map_or(0, |r| r.rows())) as u64;
                assert_eq!(run.per_shard.iter().map(|s| s.rows).sum::<u64>(), total, "{label}");
                assert_runtime_discipline(&q, path, &run, &label);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The forced mid-run re-plan
// ---------------------------------------------------------------------

/// 95 % of the order values cluster in [0, 100]; the rest spread to
/// 100 000. Equal key-space spans fitted to the observed bounds put the
/// clustered mass on one shard — the degenerate layout the supervisor
/// exists to fix mid-run.
fn clustered_order_table(rows: usize) -> Arc<Table> {
    let mut b = TableBuilder::new(
        "clustered",
        vec![("key".into(), DataType::Str), ("v".into(), DataType::Int)],
        rows.div_ceil(4).max(1),
    );
    for i in 0..rows {
        let v = if i % 20 == 0 { 50_000 + (i as i64 * 13) % 50_001 } else { (i as i64 * 7) % 101 };
        b.push_row(vec![Value::Str(format!("k-{}", i % 61)), Value::Int(v)]);
    }
    Arc::new(b.build())
}

#[test]
fn forced_mid_run_replan_adopts_a_refit_and_stays_bit_identical() {
    let cluster = Cluster::default();
    let t = clustered_order_table(4_000);
    let q = DbQuery::TopN { order_col: 1, n: 50 };
    let spec = StreamSpec::fixed(ShardSpec::new(4, ShardPartitioner::Range));
    let run = streamed(&cluster, &q, &t, &spec);

    assert!(run.breakdown.replans >= 1, "supervisor must adopt a re-fit: {:?}", run.replan_events);
    let adopted = run.replan_events.iter().find(|e| e.adopted).expect("an adopted event");
    assert!(adopted.observed_imbalance > spec.imbalance_factor);
    assert!(adopted.refit_load < adopted.current_load);
    assert_eq!(run.rounds, 4, "rounds are what give the supervisor a mid-run");

    // Bit-identical output despite rows moving between shards mid-run.
    let base = cluster.run_baseline(&q, &t, None);
    assert_eq!(base.output, run.output);
    assert_eq!(run.per_shard.iter().map(|s| s.rows).sum::<u64>(), 4_000);

    // The re-fit visibly de-serializes the tail of the input: without it,
    // the hot span owns ~95 % of every round.
    let hottest = run.per_shard.iter().map(|s| s.rows).max().unwrap_or(0);
    assert!(hottest < 3_600, "hot shard still owns {hottest}/4000 rows — the re-fit did nothing");

    // The same run with re-planning disabled keeps the degenerate layout
    // (and still answers correctly — re-planning is a performance lever).
    let mut pinned = spec.clone();
    pinned.replan = false;
    let run = streamed(&cluster, &q, &t, &pinned);
    assert_eq!(run.breakdown.replans, 0);
    assert!(run.replan_events.is_empty());
    assert_eq!(base.output, run.output);
    let pinned_hottest = run.per_shard.iter().map(|s| s.rows).max().unwrap_or(0);
    assert!(pinned_hottest > hottest, "without the re-fit the hot span keeps its mass");
}

#[test]
fn an_infinite_trigger_factor_never_replans() {
    let cluster = Cluster::default();
    let t = clustered_order_table(2_000);
    let mut spec = StreamSpec::fixed(ShardSpec::new(4, ShardPartitioner::Range));
    spec.imbalance_factor = f64::INFINITY;
    let q = DbQuery::TopN { order_col: 1, n: 20 };
    let run = streamed(&cluster, &q, &t, &spec);
    assert_eq!(run.breakdown.replans, 0);
    assert!(run.replan_events.is_empty());
    assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
}

// ---------------------------------------------------------------------
// Determinism and edges
// ---------------------------------------------------------------------

#[test]
fn streamed_execution_is_deterministic_end_to_end() {
    let cluster = Cluster::default();
    let t = Arc::new(PlannerAdversary::Zipf(1.2).table(1_500, 3, 77));
    for q in [
        DbQuery::Distinct { col: 0 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 10_000 },
    ] {
        let spec = StreamSpec::fixed(ShardSpec::new(4, ShardPartitioner::Hash));
        let a = streamed(&cluster, &q, &t, &spec);
        let b = streamed(&cluster, &q, &t, &spec);
        assert_eq!(a.output, b.output, "{}", q.kind());
        let rows_a: Vec<u64> = a.per_shard.iter().map(|s| s.rows).collect();
        let rows_b: Vec<u64> = b.per_shard.iter().map(|s| s.rows).collect();
        assert_eq!(rows_a, rows_b, "{}: shard assignment must be deterministic", q.kind());
        assert_eq!(a.replan_events, b.replan_events, "{}", q.kind());
        assert_eq!(a.breakdown.entries_to_master, b.breakdown.entries_to_master);
    }
}

#[test]
fn empty_and_tiny_tables_stream_cleanly() {
    let cluster = Cluster::default();
    let empty = Arc::new(
        TableBuilder::new(
            "empty",
            vec![
                ("key".into(), DataType::Str),
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Int),
            ],
            8,
        )
        .build(),
    );
    let spec = StreamSpec::fixed(ShardSpec::new(7, ShardPartitioner::Hash));
    let run = streamed(&cluster, &DbQuery::Distinct { col: 0 }, &empty, &spec);
    assert_eq!(run.output, QueryOutput::Values(vec![]));
    assert_eq!(run.batches, 0);
    // Three rows over seven shards and four rounds: most units are empty
    // and skipped, yet nothing is lost.
    let tiny = Arc::new(PlannerAdversary::Uniform.table(3, 1, 5));
    let q = DbQuery::TopN { order_col: 1, n: 2 };
    let run = streamed(&cluster, &q, &tiny, &spec);
    assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
    assert_eq!(run.per_shard.iter().map(|s| s.rows).sum::<u64>(), 3);
}
