//! Fixtures shared by the contract gates: one deterministic random table
//! generator, one query per [`DbQuery`] variant, and the one execution
//! grid (`for_each_exec_case`) the shard, compiled and planner gates all
//! walk — so a schema, query-shape or grid-axis change lands in exactly one
//! place.
// Each integration test compiles `common` separately and uses its own
// subset of these fixtures.
#![allow(dead_code)]

use cheetah_db::{
    ChooserArm, Cluster, DataType, DbPredicate, DbQuery, ExecBackend, ExecPath, IntCmp,
    LikePattern, ShardPartitioner, ShardPlan, ShardPlanner, ShardSpec, Table, TableBuilder, Value,
};
use cheetah_runtime::{execute, ExecPlan, ExecRun, ShardLayout};
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

/// The layout `planner` fits for `q` over these tables — what the serving
/// plane builds at second sight of a request.
pub fn fitted(
    cluster: &Cluster,
    planner: &ShardPlanner,
    q: &DbQuery,
    left: &Arc<Table>,
    right: Option<&Arc<Table>>,
) -> Arc<ShardPlan> {
    Arc::new(planner.plan(q, left, right.map(|r| &**r), cluster.tuning.seed))
}

/// Route `q` under `layout` and execute it on the barrier transport — the
/// classic sharded run the shard and planner gates pin.
pub fn run_barrier(
    cluster: &Cluster,
    q: &DbQuery,
    left: &Arc<Table>,
    right: Option<&Arc<Table>>,
    layout: impl Into<ShardLayout>,
) -> ExecRun {
    let plan = ExecPlan::new(cluster, q, left, right, layout).expect("routes");
    execute(cluster, &plan, ExecPath::BarrierPooled).expect("plan fits")
}

/// What a lossless run's accounting must satisfy, whatever the layout and
/// path: the master's time is every shard's completion plus the merge, the
/// run's wire bytes, survivors and switch arrivals are its shards' sums,
/// and nothing was framed.
pub fn assert_merge_discipline(run: &ExecRun, label: &str) {
    let shards = &run.per_shard;
    let completions: f64 = shards.iter().map(|s| s.master_seconds).sum();
    assert_eq!(run.breakdown.master_seconds, completions + run.merge_seconds, "{label}");
    let bytes: u64 = shards.iter().map(|s| s.master_wire_bytes).sum();
    assert_eq!(run.breakdown.master_wire_bytes, bytes, "{label}");
    let entries: u64 = shards.iter().map(|s| s.entries_to_master).sum();
    assert_eq!(run.breakdown.entries_to_master, entries, "{label}");
    assert_eq!(run.switch_stats.seen, shards.iter().map(|s| s.seen).sum::<u64>(), "{label}");
    assert_eq!(run.batches, 0, "{label}: a lossless run frames nothing");
}

/// One point of the execution grid.
pub struct ExecCase {
    pub q: DbQuery,
    pub path: ExecPath,
    pub backend: ExecBackend,
    /// `query × layout × arm on <workload>`.
    pub label: String,
}

/// Walk the execution grid over one workload pair — all seven variants ×
/// six layouts × (the barrier × {interpreted, compiled}, then direct) —
/// routing each (variant, layout) once. The layouts are the
/// one-shard layout (the tables themselves: its pruned points run
/// `Cluster::run_cheetah` on them, unless both are empty — an empty unit
/// runs nothing) once, hash and range at 2 and 7 shards,
/// and the layout `planner` fits, which every unpinned request runs from
/// its second sight on.
///
/// Every point is held to the universal contract here: output equals
/// `run_baseline`'s, the layout's shard count is honoured, routing loses
/// no rows, the run's accounting is its shards' ([`assert_merge_discipline`]),
/// and the routed layout records a plan exactly when it was fitted (whose
/// shard count is the plan's). `visit` adds the calling gate's own
/// assertions; the backend is the innermost axis (interpreted first), so
/// a gate can pair the two runs of a pruned point. The direct arm runs no
/// engine, so it is walked once per layout (its case reads `Interpreted`,
/// like its breakdown), and held to the pass-through accounting: nothing
/// pruned, every result row of the shards' partials seen and forwarded.
pub fn for_each_exec_case(
    left: &Arc<Table>,
    right: &Arc<Table>,
    threshold: i64,
    planner: &ShardPlanner,
    workload: &str,
    mut visit: impl FnMut(&ExecCase, &ExecRun),
) {
    let oracle = Cluster::default();
    for q in all_seven(threshold) {
        let kind = q.kind();
        let right_of = q.is_binary().then_some(right);
        let base = oracle.run_baseline(&q, left, right_of.map(|r| &**r));
        let total = (left.rows() + right_of.map_or(0, |r| r.rows())) as u64;
        let mut layouts = vec![ShardLayout::from(ShardSpec::new(1, ShardPartitioner::Hash))];
        for partitioner in [ShardPartitioner::Hash, ShardPartitioner::Range] {
            for shards in [2, 7] {
                layouts.push(ShardSpec::new(shards, partitioner).into());
            }
        }
        layouts.push(fitted(&oracle, planner, &q, left, right_of).into());
        for layout in layouts {
            let (name, shards, fitted_plan) = match &layout {
                ShardLayout::Fixed(s) => {
                    (format!("{}@{}", s.partitioner.name(), s.shards), s.shards, None)
                }
                ShardLayout::Fitted(plan) => {
                    (format!("fitted@{}", plan.shards()), plan.shards(), Some(Arc::clone(plan)))
                }
            };
            let plan = ExecPlan::new(&oracle, &q, left, right_of, layout).expect("routes");
            let recorded = plan.shard_plan().map(Arc::as_ptr);
            assert_eq!(
                recorded,
                fitted_plan.as_ref().map(Arc::as_ptr),
                "{kind} × {name} on {workload}: plan recorded"
            );
            let mut point = |path: ExecPath, backend: ExecBackend| {
                let arm = ChooserArm { path, backend }.label();
                let label = format!("{kind} × {name} × {arm} on {workload}");
                let cluster = oracle.clone().with_backend(backend);
                let run = execute(&cluster, &plan, path).expect("plan fits");
                assert_eq!(base.output, run.output, "{label}: diverged from baseline");
                assert_eq!(run.breakdown.shards as usize, shards, "{label}");
                assert_eq!(run.per_shard.len(), shards, "{label}");
                let routed: u64 = run.per_shard.iter().map(|s| s.rows).sum();
                assert_eq!(routed, total, "{label}: rows lost in routing");
                assert_merge_discipline(&run, &label);
                if path == ExecPath::Direct {
                    let (stats, entries) = (run.switch_stats, run.breakdown.entries_to_master);
                    assert_eq!(stats.pruned, 0, "{label}");
                    assert_eq!((stats.seen, stats.forwarded), (entries, entries), "{label}");
                }
                visit(&ExecCase { q: q.clone(), path, backend, label }, &run);
            };
            for backend in [ExecBackend::Interpreted, ExecBackend::Compiled] {
                point(ExecPath::BarrierPooled, backend);
            }
            point(ExecPath::Direct, ExecBackend::Interpreted);
        }
    }
}
