//! Fixtures shared by the contract gates: one deterministic random table
//! generator, one query per [`DbQuery`] variant, and the one execution
//! grid (`for_each_exec_case`) the shard and compiled gates both walk — so
//! a schema, query-shape or grid-axis change lands in exactly one place.
// Each integration test compiles `common` separately and uses its own
// subset of these fixtures.
#![allow(dead_code)]

use cheetah_db::{
    ChooserArm, Cluster, DataType, DbPredicate, DbQuery, ExecBackend, ExecPath, IntCmp,
    LikePattern, ShardPartitioner, ShardPlanner, ShardSpec, Table, TableBuilder, Value,
};
use cheetah_runtime::{execute, ExecPlan, ExecRun, StreamSpec};
use cheetah_switch::hash::mix64;
use std::sync::Arc;

/// Deterministic random table: `rows` rows, `keys` distinct string keys,
/// two int columns with ranges derived from the seed.
pub fn gen_table(rows: usize, keys: u64, partitions: usize, seed: u64) -> Table {
    let mut b = TableBuilder::new(
        "t",
        vec![
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
        ],
        rows.div_ceil(partitions).max(1),
    );
    let mut x = seed | 1;
    for _ in 0..rows {
        x = mix64(x);
        let k = format!("key-{}", x % keys.max(1));
        x = mix64(x);
        let a = (x % 10_000) as i64;
        x = mix64(x);
        let bb = (x % 500) as i64;
        b.push_row(vec![Value::Str(k), Value::Int(a), Value::Int(bb)]);
    }
    b.build()
}

/// One query per [`DbQuery`] variant — all seven shapes.
pub fn all_seven(threshold: i64) -> Vec<DbQuery> {
    vec![
        DbQuery::FilterCount {
            pred: DbPredicate::Or(vec![
                DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 9_000 },
                DbPredicate::And(vec![
                    DbPredicate::CmpInt { col: 2, op: IntCmp::Lt, lit: 50 },
                    DbPredicate::Like { col: 0, pattern: LikePattern::parse("key-1%") },
                ]),
            ]),
        },
        DbQuery::Distinct { col: 0 },
        DbQuery::TopN { order_col: 1, n: 17 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::Skyline { cols: vec![1, 2] },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold },
        DbQuery::Join { left_key: 0, right_key: 0 },
    ]
}

/// The layout `planner` fits for `q` over these tables, as a spec — what
/// the serving plane builds at second sight of a request.
pub fn fitted(
    cluster: &Cluster,
    planner: &ShardPlanner,
    q: &DbQuery,
    left: &Arc<Table>,
    right: Option<&Arc<Table>>,
) -> StreamSpec {
    let plan = planner.plan(q, left, right.map(|r| &**r), cluster.tuning.seed);
    StreamSpec::fitted(Arc::new(plan), planner.cfg.ingest)
}

/// Route `q` under `spec` and execute it on the barrier transport — the
/// classic sharded run the shard and planner gates pin.
pub fn run_barrier(
    cluster: &Cluster,
    q: &DbQuery,
    left: &Arc<Table>,
    right: Option<&Arc<Table>>,
    spec: &StreamSpec,
) -> ExecRun {
    let plan = ExecPlan::new(cluster, q, left, right, spec).expect("routes");
    execute(cluster, &plan.for_path(ExecPath::BarrierPooled)).expect("plan fits")
}

/// What the merge plane's telemetry must satisfy on every run, whatever
/// the layout: the overlap is part of the merge work, and a streamed run
/// with survivors framed them.
pub fn assert_merge_discipline(path: ExecPath, run: &ExecRun, label: &str) {
    assert!(
        run.breakdown.overlap_seconds <= run.merge_seconds + 1e-12,
        "{label}: overlap exceeds total merge work"
    );
    if path == ExecPath::StreamedResident && run.breakdown.entries_to_master > 0 {
        assert!(run.batches > 0, "{label}: survivors must be framed");
    }
}

/// One point of the execution grid.
pub struct ExecCase {
    pub q: DbQuery,
    pub path: ExecPath,
    pub backend: ExecBackend,
    /// `query × partitioner@shards × arm on <workload>`.
    pub label: String,
}

/// Walk the execution grid over one workload pair — all seven variants ×
/// shards {1, 2, 7} × {hash, range} × ({barrier, stream} × {interpreted,
/// compiled}, then direct) — routing each (variant, partitioner, shards)
/// once. Every point is held to the universal contract here: output equals
/// `run_baseline`'s, the shard count is honoured, routing loses no rows,
/// the merge plane's accounting is self-consistent, and a streamed run
/// with survivors framed them. `visit` adds the calling gate's own
/// assertions; the backend is the innermost axis (interpreted first), so
/// a gate can pair the two runs of a pruned point. The direct arm runs no
/// engine, so it is walked once per layout (its case reads `Interpreted`,
/// like its breakdown), and held to the pass-through accounting: nothing
/// pruned, every result row of the shards' partials seen and forwarded, nothing
/// framed, nothing overlapped.
pub fn for_each_exec_case(
    left: &Arc<Table>,
    right: &Arc<Table>,
    threshold: i64,
    workload: &str,
    mut visit: impl FnMut(&ExecCase, &ExecRun),
) {
    let oracle = Cluster::default();
    for q in all_seven(threshold) {
        let right_of = q.is_binary().then_some(right);
        let base = oracle.run_baseline(&q, left, right_of.map(|r| &**r));
        let total = (left.rows() + right_of.map_or(0, |r| r.rows())) as u64;
        for partitioner in [ShardPartitioner::Hash, ShardPartitioner::Range] {
            for shards in [1usize, 2, 7] {
                let spec = StreamSpec::fixed(ShardSpec::new(shards, partitioner));
                let plan = ExecPlan::new(&oracle, &q, left, right_of, &spec).expect("routes");
                let mut point = |path: ExecPath, backend: ExecBackend| {
                    let arm = ChooserArm { path, backend }.label();
                    let kind = q.kind();
                    let label =
                        format!("{kind} × {}@{shards} × {arm} on {workload}", partitioner.name());
                    let cluster = oracle.clone().with_backend(backend);
                    let run = execute(&cluster, &plan.for_path(path)).expect("plan fits");
                    assert_eq!(base.output, run.output, "{label}: diverged from baseline");
                    assert_eq!(run.breakdown.shards as usize, shards, "{label}");
                    assert_eq!(run.per_shard.len(), shards, "{label}");
                    let routed: u64 = run.per_shard.iter().map(|s| s.rows).sum();
                    assert_eq!(routed, total, "{label}: rows lost in routing");
                    assert_merge_discipline(path, &run, &label);
                    if path == ExecPath::Direct {
                        let (stats, entries) = (run.switch_stats, run.breakdown.entries_to_master);
                        assert_eq!(stats.pruned, 0, "{label}");
                        assert_eq!((stats.seen, stats.forwarded), (entries, entries), "{label}");
                        assert_eq!(
                            (run.batches, run.breakdown.overlap_seconds),
                            (0, 0.0),
                            "{label}"
                        );
                    }
                    visit(&ExecCase { q: q.clone(), path, backend, label }, &run);
                };
                for path in [ExecPath::BarrierPooled, ExecPath::StreamedResident] {
                    for backend in [ExecBackend::Interpreted, ExecBackend::Compiled] {
                        point(path, backend);
                    }
                }
                point(ExecPath::Direct, ExecBackend::Interpreted);
            }
        }
    }
}
