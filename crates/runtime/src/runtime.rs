//! The one executor: shard jobs → master merge, over a routed
//! [`ExecPlan`].
//!
//! Two roles share a run:
//!
//! * one **shard job** per shard runs the unchanged generic executor
//!   ([`Cluster::run_cheetah`]) once, on its routed unit, and reports its
//!   completed output whole, once, when its unit is done. On the
//!   **direct** path the job skips the switch altogether
//!   ([`Cluster::run_direct`]: the operator's completion over every row)
//!   and is the same job in every other respect. A plan of two shards or
//!   more submits its jobs to the persistent [`WorkerPool`], not spawned
//!   per query; each never blocks, its one report going onto an unbounded
//!   channel. A **one-shard plan** has nothing to run in parallel, so the
//!   calling thread runs its one job itself, behind the same panic
//!   boundary a pool thread keeps: no pool hop, no channel.
//! * the **master merge plane** (the calling thread) folds once the last
//!   report is in. A lossless run folds the outputs through
//!   [`merge_shard_outputs`], which returns a lone output as it stands,
//!   whatever path ran. A plan in fault mode ([`FaultSpec`]) decomposes
//!   each output, cuts it into [`SurvivorBatch`] frames ([`frame_items`]),
//!   carries them across the simulated §7.2 rack ([`FabricSim`], the frame
//!   binding of `cheetah_net::rack`) — simulated time, so deterministic per
//!   seed — and folds each frame the rack delivers through
//!   [`MergeState::ingest_survivor_batch`].

use crate::config::FaultSpec;
use crate::plan::ExecPlan;
use crate::pool::WorkerPool;
use bytes::Bytes;
use cheetah_db::{
    decompose_output, frame_items, merge_shard_outputs, Cluster, DbQuery, ExecPath, MergeState,
    QueryOutput, ShardStats, Table,
};
use cheetah_net::{ExecBackend, ExecBreakdown, FabricSim, RackConfig, SurvivorBatch};
use cheetah_switch::ProgramStats;
use cheetah_telemetry::{Span, SpanContext};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Result of executing an [`ExecPlan`].
#[derive(Debug, Clone)]
pub struct ExecRun {
    /// Merged, normalized query output — equal to the baseline's on
    /// every path.
    pub output: QueryOutput,
    /// Phase breakdown.
    pub breakdown: ExecBreakdown,
    /// Switch statistics summed across the shards' programs.
    pub switch_stats: ProgramStats,
    /// Per-shard accounting (the §4.6 skew story).
    pub per_shard: Vec<ShardStats>,
    /// Merge-plane work: the fold of every shard's output or frames, after
    /// the last worker reported.
    pub merge_seconds: f64,
    /// Survivor frames the master ingested (zero unless the plan is in
    /// fault mode).
    pub batches: u64,
}

impl ExecRun {
    /// The run's work: every shard job's
    /// [`busy_seconds`](ShardStats::busy_seconds) plus the merge. A job's
    /// clock starts when a worker takes it up, so the time it queued for a
    /// pool worker, behind other calls' jobs, is no part of it. This is
    /// what the serving plane compares, arm against arm, on one layout.
    pub fn work_seconds(&self) -> f64 {
        self.per_shard.iter().map(|s| s.busy_seconds).sum::<f64>() + self.merge_seconds
    }
}

/// Execute the routed `plan`'s query on `path`: prune every unit (each
/// with its own planned switch program) — or, on [`ExecPath::Direct`],
/// complete every unit with no switch at all — carry the results to the
/// master (across the plan's lossy rack in fault mode), merge, account.
/// Every path but [`ExecPath::Direct`] prunes. The units of a multi-shard
/// plan run on pool workers; a one-shard plan's unit runs on the calling
/// thread.
///
/// Output equals `run_baseline`'s for every query shape, shard count,
/// partitioner, path and backend — the path changes *how much* reaches
/// the master, never *what* the query answers. A fault profile the
/// carrier cannot finish under (every frame dropped, say) is a typed
/// [`FabricStalled`](cheetah_core::Error::FabricStalled); a shard job
/// that panics is a typed
/// [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked), and the
/// failure is this call's alone.
pub fn execute(
    cluster: &Cluster,
    plan: &ExecPlan,
    path: ExecPath,
) -> cheetah_core::Result<ExecRun> {
    let reports = if plan.shards() == 1 {
        vec![run_on_caller(cluster, plan, path)?]
    } else {
        await_reports(plan.shards(), spawn_worker_plane(cluster, plan, path))?
    };
    let fold = merge_plane(plan, reports)?;
    Ok(assemble(fold, plan))
}

/// What a shard worker hands back when its unit is done.
#[derive(Default)]
struct WorkerReport {
    stats: ShardStats,
    switch: ProgramStats,
    passes: u8,
    /// Pruning backend the worker's run actually executed on (`None`
    /// when the unit was empty and nothing ran).
    backend: Option<ExecBackend>,
    /// The unit's completed output (`None` when the unit was empty).
    output: Option<QueryOutput>,
}

/// A shard job's `worker` span in the submitter's trace (none when the
/// submitter is not traced), naming the `thread` the job runs on: a pool
/// worker's index, or `caller`.
fn worker_span(
    trace_ctx: Option<&SpanContext>,
    shard: usize,
    thread: impl ToString,
    path: ExecPath,
) -> Option<Span> {
    let mut s = trace_ctx?.child("worker");
    s.attr("shard", shard);
    s.attr("thread", thread);
    s.attr("path", path.label());
    Some(s)
}

/// One shard's job, the same wherever it runs: run its unit (unless it is
/// empty) through the unchanged generic executor — the plan's unit query,
/// which addresses the unit's columns — or, on the direct path, through
/// the operator's completion, and report the completed output whole.
fn run_shard(
    cluster: &Cluster,
    unit_q: &DbQuery,
    path: ExecPath,
    (left, right): (&Table, Option<&Table>),
    mut span: Option<Span>,
) -> cheetah_core::Result<WorkerReport> {
    let mut rep = WorkerReport::default();
    let rows = left.rows() + right.map_or(0, Table::rows);
    // An empty unit never reaches the executor.
    if rows > 0 {
        let started = Instant::now();
        let run = match path {
            ExecPath::Direct => cluster.run_direct(unit_q, left, right),
            _ => cluster.run_cheetah(unit_q, left, right),
        }?;
        let busy_seconds = started.elapsed().as_secs_f64();
        let b = &run.breakdown;
        rep.stats = ShardStats {
            rows: rows as u64,
            worker_seconds: b.worker_seconds,
            master_seconds: b.master_seconds,
            busy_seconds,
            worker_wire_bytes: b.worker_wire_bytes,
            master_wire_bytes: b.master_wire_bytes,
            entries_to_master: b.entries_to_master,
            seen: run.switch_stats.seen,
            pruned: run.switch_stats.pruned,
        };
        rep.switch = run.switch_stats;
        rep.passes = b.passes;
        rep.backend = Some(b.backend);
        rep.output = Some(run.output);
    }
    if let Some(s) = span.as_mut() {
        s.attr("rows", rep.stats.rows);
        s.attr("entries_to_master", rep.stats.entries_to_master);
    }
    Ok(rep)
}

/// A one-shard plan's job, run by the calling thread — for a session, the
/// `run_blocking` caller — behind the job boundary a pool thread
/// keeps: a panic is this call's [`WorkerPanicked`], and the thread
/// carries on. The job never waits on the pool.
///
/// [`WorkerPanicked`]: cheetah_core::Error::WorkerPanicked
fn run_on_caller(
    cluster: &Cluster,
    plan: &ExecPlan,
    path: ExecPath,
) -> cheetah_core::Result<WorkerReport> {
    let unit = (&*plan.units[0], plan.right_units.as_ref().map(|units| &*units[0]));
    let job = || {
        let span = worker_span(SpanContext::current().as_ref(), 0, "caller", path);
        run_shard(cluster, &plan.unit_query, path, unit, span)
    };
    catch_unwind(AssertUnwindSafe(job))
        .unwrap_or(Err(cheetah_core::Error::WorkerPanicked { shard: 0 }))
}

/// The end-of-job reports of a spawned worker plane, tagged by shard.
type Reports = mpsc::Receiver<(usize, cheetah_core::Result<WorkerReport>)>;

/// Submit one pool job per shard: each owns `Arc` handles onto its routed
/// unit plus a cheap clone of the cluster config and unit query, runs
/// [`run_shard`] and sends its report.
fn spawn_worker_plane(cluster: &Cluster, plan: &ExecPlan, path: ExecPath) -> Reports {
    let (report_tx, report_rx) = mpsc::channel();
    let pool = WorkerPool::global();
    // The submitting thread's span context (the session's `execute` span,
    // when one is entered) rides into each job, so per-shard `worker`
    // spans land in the query's trace even though they run on pool
    // threads.
    let trace_ctx = SpanContext::current();
    for shard in 0..plan.shards() {
        let left = Arc::clone(&plan.units[shard]);
        let right = plan.right_units.as_ref().map(|units| Arc::clone(&units[shard]));
        let cluster = cluster.clone();
        let unit_q = plan.unit_query.clone();
        let report_tx = report_tx.clone();
        let trace_ctx = trace_ctx.clone();
        pool.spawn(move |worker| {
            let span = worker_span(trace_ctx.as_ref(), shard, worker, path);
            let rep = run_shard(&cluster, &unit_q, path, (&left, right.as_deref()), span);
            report_tx.send((shard, rep)).ok();
        });
    }
    // The master's recv loop must end when the last worker does — the
    // only live senders are the ones captured by the jobs.
    report_rx
}

/// Wait out every pool job's report, in shard order. Every job reports
/// once or unwinds, dropping its sender: the loop ends when the last job
/// has done either, and a shard the channel closes without hearing from
/// unwound before it could report.
fn await_reports(shards: usize, reports: Reports) -> cheetah_core::Result<Vec<WorkerReport>> {
    let mut slots: Vec<Option<WorkerReport>> = (0..shards).map(|_| None).collect();
    for (shard, rep) in reports {
        slots[shard] = Some(rep?);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(shard, r)| r.ok_or(cheetah_core::Error::WorkerPanicked { shard }))
        .collect()
}

/// The master merge plane: fold the shards' whole outputs through
/// [`merge_shard_outputs`] (which hands a lone output back as it
/// stands), or, in fault mode, cut each shard's output into frames of the
/// fault's size, carry them across the lossy rack and fold each frame it
/// delivers, parsed zero-copy (offsets into the frame's arena).
fn merge_plane(plan: &ExecPlan, mut reports: Vec<WorkerReport>) -> cheetah_core::Result<Fold> {
    let shards = plan.shards();
    // The merge plane runs on the submitting thread, so the session's
    // entered `execute` span (if any) is directly visible here.
    let mut merge_span = SpanContext::current().map(|tc| tc.child("merge"));
    let started = Instant::now();
    let q = plan.query();
    let (output, batches, retransmits) = match &plan.fault {
        Some(fault) => {
            let flows: Vec<Vec<Bytes>> = reports
                .iter_mut()
                .enumerate()
                .map(|(shard, r)| match r.output.take() {
                    Some(out) => frame_items(shard as u32, &decompose_output(q, out), fault.batch),
                    None => Vec::new(),
                })
                .collect();
            let mut state = MergeState::new(q);
            let mut batches = 0u64;
            let ingest = |batch: &SurvivorBatch| {
                batches += 1;
                state.ingest_survivor_batch(batch).expect("merge item round-trips");
            };
            let retransmits = carry_across_rack(fault, flows, merge_span.as_ref(), ingest)?;
            (state.finish(), batches, retransmits)
        }
        None => {
            let outputs = reports.iter_mut().filter_map(|r| r.output.take()).collect();
            (merge_shard_outputs(q, outputs), 0, 0)
        }
    };
    let merge_seconds = started.elapsed().as_secs_f64();

    if let Some(s) = merge_span.as_mut() {
        s.attr("shards", shards);
        if plan.fault.is_some() {
            s.attr("batches", batches);
        }
    }
    drop(merge_span);

    Ok(Fold { output, reports, merge_seconds, batches, retransmits })
}

/// Fault mode: the shards' finished flows cross the simulated §7.2 rack
/// (go-back-N workers, a sequencing switch, a deduping master that hands
/// each new frame to `ingest`) — in simulated time, so a lossy run never
/// sleeps on a timeout and its resend count, returned, is a pure function
/// of (plan, seed). One `stream` span per flow lands under `merge_span`.
fn carry_across_rack(
    fault: &FaultSpec,
    flows: Vec<Vec<Bytes>>,
    merge_span: Option<&Span>,
    ingest: impl FnMut(&SurvivorBatch),
) -> cheetah_core::Result<u64> {
    let frames = flows.iter().map(|f| f.len() as u64).sum();
    let mut stream_spans: Vec<Span> = flows
        .iter()
        .enumerate()
        .filter_map(|(shard, flow)| {
            let mut s = merge_span?.child("stream");
            s.attr("shard", shard);
            s.attr("frames", flow.len());
            Some(s)
        })
        .collect();
    let cfg = RackConfig { faults: fault.profile, seed: fault.seed, ..RackConfig::default() };
    let carried = FabricSim::new(cfg, flows).run(ingest);
    if !carried.completed {
        return Err(cheetah_core::Error::FabricStalled {
            delivered: carried.delivered_frames,
            frames,
        });
    }
    for (s, resent) in stream_spans.iter_mut().zip(&carried.flow_retransmissions) {
        s.attr("retransmits", resent);
    }
    if let Some(tc) = SpanContext::current() {
        // The fabric's recovery work lands in the owning session's
        // registry, attributed via the trace.
        tc.trace().registry().counter("net.retransmits").add(carried.retransmissions);
    }
    Ok(carried.retransmissions)
}

/// Everything the worker and merge planes produced, before accounting.
struct Fold {
    output: QueryOutput,
    reports: Vec<WorkerReport>,
    merge_seconds: f64,
    batches: u64,
    /// Go-back-N resends the carrier needed (zero when lossless).
    retransmits: u64,
}

/// Turn the raw fold into the run's accounting.
fn assemble(fold: Fold, plan: &ExecPlan) -> ExecRun {
    let Fold { output, reports, merge_seconds, batches, retransmits } = fold;
    let per_shard: Vec<ShardStats> = reports.iter().map(|r| r.stats).collect();
    let switch_stats = reports.iter().fold(ProgramStats::default(), |mut acc, r| {
        acc.seen += r.switch.seen;
        acc.pruned += r.switch.pruned;
        acc.forwarded += r.switch.forwarded;
        acc
    });

    let breakdown = ExecBreakdown {
        // Workers run concurrently; the slowest shard bounds the phase.
        worker_seconds: per_shard.iter().map(|s| s.worker_seconds).fold(0.0, f64::max),
        // The master is one machine: per-slice completions plus the merge.
        master_seconds: per_shard.iter().map(|s| s.master_seconds).sum::<f64>() + merge_seconds,
        worker_wire_bytes: per_shard.iter().map(|s| s.worker_wire_bytes).max().unwrap_or(0),
        master_wire_bytes: per_shard.iter().map(|s| s.master_wire_bytes).sum(),
        entries_to_master: per_shard.iter().map(|s| s.entries_to_master).sum(),
        passes: reports.iter().map(|r| r.passes).max().unwrap_or(1),
        shards: plan.shards() as u32,
        // All workers clone one cluster, so any report that ran a unit
        // speaks for the run (a compiled-requested run that fell back
        // records the fallback here too). With every unit empty no engine
        // ran, and the run reads `Interpreted`, as the direct arm does.
        backend: reports.iter().find_map(|r| r.backend).unwrap_or(ExecBackend::Interpreted),
        retransmits,
        ..ExecBreakdown::default()
    };
    ExecRun { output, breakdown, switch_stats, per_shard, merge_seconds, batches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardLayout;
    use cheetah_core::ShardPartitioner;
    use cheetah_db::{
        unit_columns, CheetahTuning, Column, DataType, DbPredicate, IntCmp, LikePattern,
        ShardPlanner, ShardSpec, TableBuilder, Value,
    };
    use cheetah_net::FaultProfile;
    use cheetah_telemetry::{Registry, Trace};
    use std::time::Duration;

    const PATHS: [ExecPath; 2] = [ExecPath::BarrierPooled, ExecPath::Direct];

    fn table(rows: usize, parts: usize) -> Arc<Table> {
        let mut b = TableBuilder::new(
            "t",
            vec![
                ("key".into(), DataType::Str),
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Int),
            ],
            rows.div_ceil(parts).max(1),
        );
        let mut x = 1u64;
        for i in 0..rows {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b.push_row(vec![
                Value::Str(format!("key-{}", x % 37)),
                Value::Int((x % 10_000) as i64),
                Value::Int((i % 500) as i64),
            ]);
        }
        Arc::new(b.build())
    }

    fn plan_of(
        q: &DbQuery,
        t: &Arc<Table>,
        r: Option<&Arc<Table>>,
        layout: impl Into<ShardLayout>,
    ) -> ExecPlan {
        ExecPlan::new(&Cluster::default(), q, t, r, layout).expect("routes")
    }

    /// Execute `plan` on `path` under a fresh trace's entered root span:
    /// the run, the `thread` of each `worker` span it traced, and its
    /// `merge` spans.
    fn traced(
        cluster: &Cluster,
        plan: &ExecPlan,
        path: ExecPath,
    ) -> (cheetah_core::Result<ExecRun>, Vec<String>, usize) {
        let trace = Trace::new(Registry::new());
        let root = trace.span("query");
        let run = {
            let _in_query = root.enter();
            execute(cluster, plan, path)
        };
        root.finish();
        let tree = trace.export().expect("every span closed");
        let (mut workers, mut merges) = (Vec::new(), Vec::new());
        tree.root.find_all("worker", &mut workers);
        tree.root.find_all("merge", &mut merges);
        let threads = workers.iter().map(|w| w.attr("thread").expect("named").to_string());
        (run, threads.collect(), merges.len())
    }

    #[test]
    fn range_routing_fits_observed_key_bounds() {
        // Encoded small ints cluster just above 2⁶³ and string fingerprints
        // fill only the lower half of the u64 space; a naive full-space
        // range split would put every row on one shard. Fitted bounds
        // must spread both over populated spans.
        let t = table(4_000, 4);
        for q in [DbQuery::TopN { order_col: 1, n: 10 }, DbQuery::Distinct { col: 0 }] {
            let plan = plan_of(&q, &t, None, ShardSpec::new(4, ShardPartitioner::Range));
            let loads = plan.dispatched();
            assert!(
                loads.iter().filter(|&&r| r > 0).count() >= 3,
                "{}: range spans must be populated: {loads:?}",
                q.kind()
            );
        }
    }

    #[test]
    fn one_shard_runs_the_tables_on_the_caller_and_more_run_the_querys_columns_on_the_pool() {
        let cluster = Cluster::default();
        let l = table(1_200, 3);
        let r = table(600, 2);
        let like = DbPredicate::Like { col: 0, pattern: LikePattern::parse("key-1%") };
        let queries = [
            // A predicate tree that names column 2 twice.
            DbQuery::FilterCount {
                pred: DbPredicate::Or(vec![
                    DbPredicate::CmpInt { col: 2, op: IntCmp::Lt, lit: 40 },
                    DbPredicate::And(vec![
                        DbPredicate::CmpInt { col: 2, op: IntCmp::Gt, lit: 450 },
                        like,
                    ]),
                ]),
            },
            DbQuery::Distinct { col: 0 },
            DbQuery::Skyline { cols: vec![2, 1] },
            DbQuery::TopN { order_col: 1, n: 10 },
            DbQuery::GroupByMax { key_col: 0, val_col: 2 },
            DbQuery::Join { left_key: 0, right_key: 0 },
            DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: 2_000 },
        ];
        // Fitted plans that chose one shard — three rows are not worth a
        // second, no rows or one key gain nothing from one — handed back
        // over the full tables as the serving plane would.
        let mut one_key = TableBuilder::new("one-key", vec![("key".into(), DataType::Str)], 64);
        for _ in 0..500 {
            one_key.push_row(vec![Value::Str("same".into())]);
        }
        let fitted: Vec<ShardLayout> = [table(3, 1), table(0, 1), Arc::new(one_key.build())]
            .iter()
            .map(|t| {
                let plan = ShardPlanner::default().plan(&queries[1], t, None, 7);
                assert_eq!(plan.shards(), 1, "{} rows", t.rows());
                Arc::new(plan).into()
            })
            .collect();
        let one_shard: Vec<ShardLayout> = [
            ShardSpec::new(1, ShardPartitioner::Hash).into(),
            ShardSpec::new(0, ShardPartitioner::Range).into(),
        ]
        .into_iter()
        .chain(fitted)
        .collect();
        for q in &queries {
            let right = q.is_binary().then_some(&r);
            let base = cluster.run_baseline(q, &l, right.map(|r| &**r)).output;
            let total = (l.rows() + right.map_or(0, |r| r.rows())) as u64;
            for layout in &one_shard {
                let plan = plan_of(q, &l, right, layout.clone());
                assert_eq!(plan.shards(), 1, "{}", q.kind());
                assert!(Arc::ptr_eq(&plan.units[0], &l), "{}: a copy was made", q.kind());
                let right_unit = plan.right_units.as_ref().map(|units| &units[0]);
                assert_eq!(right_unit.map(Arc::as_ptr), right.map(Arc::as_ptr), "{}", q.kind());
                assert_eq!(plan.dispatched(), [total], "{}", q.kind());
                for path in PATHS {
                    let label = format!("{} {}", q.kind(), path.label());
                    let (run, threads, merges) = traced(&cluster, &plan, path);
                    let output = run.unwrap().output;
                    assert_eq!(output, base, "{label}");
                    // One job, on the calling thread; the tree keeps its shape.
                    assert_eq!((threads, merges), (vec!["caller".to_string()], 1), "{label}");
                    // The merge is the identity on one output.
                    assert_eq!(merge_shard_outputs(q, vec![output.clone()]), output, "{label}");
                }
            }
            // Two shards or more: fresh copies, of the columns read only,
            // run on pool workers that each name their index — and a plan
            // wider than the pool queues its extra jobs on the same workers.
            let workers = WorkerPool::global().workers();
            for shards in [3, 2 * workers + 1] {
                let plan = plan_of(q, &l, right, ShardSpec::new(shards, ShardPartitioner::Hash));
                let widths = |units: &[Arc<Table>]| -> Vec<usize> {
                    units.iter().map(|t| t.fields().len()).collect()
                };
                let kind = format!("{} @{shards}", q.kind());
                assert_eq!(plan.dispatched().iter().sum::<u64>(), total, "{kind}: both streams");
                assert_eq!(widths(&plan.units), vec![q.columns(0).len(); shards], "{kind}");
                if let Some(units) = &plan.right_units {
                    assert_eq!(widths(units), vec![q.columns(1).len(); shards], "{kind}");
                }
                // The string key a stream routes by is codes; every other
                // column holds plain cells. The two streams of a binary plan
                // code their keys against one dictionary per shard.
                let mut dicts: Vec<Vec<Arc<[String]>>> = vec![Vec::new(); shards];
                let streams = std::iter::once(&plan.units).chain(plan.right_units.as_ref());
                for (stream, units) in streams.enumerate() {
                    let (_, keyed) = unit_columns(q, stream);
                    for (s, part) in units.iter().map(|u| &u.partitions()[0]).enumerate() {
                        for c in 0..part.width() {
                            let coded = matches!(part.column(c), Column::Dict { .. });
                            let key =
                                keyed == Some(c) && part.column(c).data_type() == DataType::Str;
                            assert_eq!(coded, key, "{kind}: stream {stream} column {c}");
                            if let Column::Dict { dict, .. } = part.column(c) {
                                dicts[s].push(Arc::clone(dict));
                            }
                        }
                    }
                }
                for (s, dicts) in dicts.iter().enumerate().filter(|_| q.is_binary()) {
                    let [left, right] = &dicts[..] else {
                        panic!("{kind} shard {s}: both streams' string keys are coded");
                    };
                    assert!(Arc::ptr_eq(left, right), "{kind} shard {s}: one dictionary");
                }
                for path in PATHS {
                    let label = format!("{kind} {}", path.label());
                    let (run, threads, merges) = traced(&cluster, &plan, path);
                    let run = run.unwrap();
                    assert_eq!(run.output, base, "{label}");
                    assert_eq!(run.per_shard.len(), shards, "{label}: every shard reports");
                    assert_eq!((threads.len(), merges), (shards, 1), "{label}");
                    let pool: std::collections::BTreeSet<usize> =
                        threads.iter().map(|t| t.parse().expect("a pool index")).collect();
                    assert!(pool.len() <= workers, "{label}: {pool:?}");
                    assert!(pool.iter().all(|&w| w < workers), "{label}: {pool:?}");
                }
            }
        }
    }

    #[test]
    fn a_one_shard_job_that_panics_fails_its_own_call_and_the_caller_carries_on() {
        // Zero stored skyline points trips the switch program builder's
        // assert (the panic message on stderr is expected).
        let tuning = CheetahTuning { skyline_points: 0, ..CheetahTuning::default() };
        let broken = Cluster { tuning, ..Cluster::default() };
        let t = table(600, 2);
        let skyline = DbQuery::Skyline { cols: vec![2, 1] };
        let plan = plan_of(&skyline, &t, None, ShardSpec::new(1, ShardPartitioner::Hash));
        let (run, threads, _) = traced(&broken, &plan, ExecPath::BarrierPooled);
        assert_eq!(run.err(), Some(cheetah_core::Error::WorkerPanicked { shard: 0 }));
        assert_eq!(threads, ["caller"], "the job unwound on the calling thread");
        // The same thread's kernel cache and scratch block serve the next
        // compiled runs: one installs a kernel, the next reuses it.
        let cluster = Cluster::default().with_backend(ExecBackend::Compiled);
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, None, ShardSpec::new(1, ShardPartitioner::Hash));
        for _ in 0..2 {
            let run = execute(&cluster, &plan, ExecPath::BarrierPooled).unwrap();
            assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
            assert_eq!(run.breakdown.backend, ExecBackend::Compiled);
        }
    }

    #[test]
    fn a_runs_work_leaves_out_the_time_its_jobs_queued_for_a_pool_worker() {
        // Every pool worker is held by another submitter's job, so this
        // run's shard jobs queue behind them: its wall takes the hold in,
        // its work does not.
        let hold = Duration::from_millis(300);
        let cluster = Cluster::default();
        let t = table(1_000, 2);
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, None, ShardSpec::new(2, ShardPartitioner::Hash));
        let pool = WorkerPool::global();
        let (held_tx, held) = mpsc::channel();
        for _ in 0..pool.workers() {
            let held_tx = held_tx.clone();
            pool.spawn(move |_| {
                held_tx.send(()).ok();
                std::thread::sleep(hold);
            });
        }
        held.iter().take(pool.workers()).for_each(drop);
        let started = Instant::now();
        let run = execute(&cluster, &plan, ExecPath::BarrierPooled).unwrap();
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
        let busy: f64 = run.per_shard.iter().map(|s| s.busy_seconds).sum();
        assert!(busy > 0.0, "the jobs ran");
        assert_eq!(run.work_seconds(), busy + run.merge_seconds);
        let hold = hold.as_secs_f64();
        assert!(wall > hold * 2.0 / 3.0, "queued behind the hold: {wall} s");
        assert!(run.work_seconds() < hold / 3.0, "work {} s", run.work_seconds());
    }

    #[test]
    fn a_fitted_layout_records_its_plan() {
        let cluster = Cluster::default();
        let t = table(1_500, 3);
        let q = DbQuery::Distinct { col: 0 };
        let plan = Arc::new(ShardPlanner::default().plan(&q, &t, None, cluster.tuning.seed));
        let routed = plan_of(&q, &t, None, Arc::clone(&plan));
        assert!(Arc::ptr_eq(routed.shard_plan().expect("plan rides along"), &plan));
        let spec = ShardSpec::new(3, ShardPartitioner::Hash);
        assert!(plan_of(&q, &t, None, spec).shard_plan().is_none(), "a spec fits nothing");
        let run = execute(&cluster, &routed, ExecPath::BarrierPooled).unwrap();
        assert_eq!(run.breakdown.shards as usize, plan.shards());
        assert_eq!(run.per_shard.iter().map(|s| s.rows).collect::<Vec<_>>(), routed.dispatched());
        assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
    }

    #[test]
    fn harsh_faulty_channel_still_answers_exactly_on_every_path_and_the_plan_reuses_cleanly() {
        // 15% drop + 15% corruption + duplication on every survivor
        // frame: the §7.2 machinery (go-back-N resends, switch
        // sequencing, merge-plane dedup) must still deliver the
        // baseline answer, the resends must show up in the breakdown,
        // and a second run of the same plan replays the same lossy flow.
        // Fault mode is the plan's: the pruned path and the direct one
        // compute the same shard outputs, so they frame, lose and resend
        // the same.
        let cluster = Cluster::default();
        let t = table(1_500, 3);
        // The carrier's resend count per family: a pure function of the
        // frames and the seed, so any change to what the workers frame or
        // how the rack carries it shows here.
        let queries = [
            (DbQuery::Distinct { col: 0 }, 38),
            (DbQuery::GroupByMax { key_col: 0, val_col: 1 }, 38),
            (DbQuery::TopN { order_col: 1, n: 10 }, 29),
        ];
        for (q, resends) in queries {
            let base = cluster.run_baseline(&q, &t, None);
            // Many small frames → many fault draws.
            let lossless = plan_of(&q, &t, None, ShardSpec::new(3, ShardPartitioner::Hash));
            let plan = lossless.with_fault(FaultSpec::harsh(0xC0FFEE, 4));
            let mut batches = Vec::new();
            for path in PATHS {
                let label = format!("{} {}", q.kind(), path.label());
                let first = execute(&cluster, &plan, path).unwrap();
                let second = execute(&cluster, &plan, path).unwrap();
                for run in [&first, &second] {
                    assert_eq!(base.output, run.output, "{label} under harsh faults");
                    assert_eq!(run.breakdown.retransmits, resends, "{label}");
                    assert_eq!(run.batches, first.batches, "{label}");
                }
                batches.push(first.batches);
                // The lossless plan crosses no rack: nothing framed, nothing
                // resent.
                let run = execute(&cluster, &lossless, path).unwrap();
                assert_eq!((run.breakdown.retransmits, run.batches), (0, 0), "{label}");
                assert_eq!(base.output, run.output, "{label}");
            }
            assert!(batches[0] > 0 && batches.iter().all(|&b| b == batches[0]), "{batches:?}");
        }
    }

    #[test]
    fn a_fabric_that_drops_everything_is_a_typed_error_not_a_panic() {
        let cluster = Cluster::default();
        let t = table(200, 1);
        let q = DbQuery::Distinct { col: 0 };
        let black_hole = FaultProfile { drop_prob: 1.0, ..FaultProfile::lossless() };
        let plan = plan_of(&q, &t, None, ShardSpec::new(2, ShardPartitioner::Hash))
            .with_fault(FaultSpec::new(black_hole, 7, 4));
        let err = execute(&cluster, &plan, ExecPath::BarrierPooled).unwrap_err();
        assert!(
            matches!(err, cheetah_core::Error::FabricStalled { delivered: 0, frames } if frames > 0),
            "{err}"
        );
    }

    #[test]
    fn a_shard_that_never_reports_is_a_typed_error_naming_it() {
        // What a panicked pool job leaves behind: its sender dropped, its
        // report never sent. Shard 0 of two reports; shard 1 is silent.
        let (report_tx, report_rx) = mpsc::channel();
        report_tx.send((0, Ok(WorkerReport::default()))).unwrap();
        drop(report_tx);
        let err = await_reports(2, report_rx).err().expect("no answer");
        assert_eq!(err, cheetah_core::Error::WorkerPanicked { shard: 1 });
    }

    #[test]
    fn empty_and_over_sharded_tables_run_cleanly() {
        let cluster = Cluster::default();
        let empty = Arc::new(
            TableBuilder::new(
                "empty",
                vec![("key".into(), DataType::Str), ("a".into(), DataType::Int)],
                4,
            )
            .build(),
        );
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &empty, None, ShardSpec::new(5, ShardPartitioner::Range));
        for path in PATHS {
            let run = execute(&cluster, &plan, path).unwrap();
            assert_eq!(run.output, QueryOutput::Values(vec![]));
            assert_eq!(run.batches, 0);
            assert_eq!(run.breakdown.entries_to_master, 0);
        }
        // Three rows over seven shards: at least four stay empty.
        let tiny = table(3, 1);
        let q = DbQuery::TopN { order_col: 1, n: 2 };
        let plan = plan_of(&q, &tiny, None, ShardSpec::new(7, ShardPartitioner::Hash));
        for path in PATHS {
            let run = execute(&cluster, &plan, path).unwrap();
            assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
            assert!(run.per_shard.iter().filter(|s| s.rows == 0).count() >= 4);
        }
        // Same layout under harsh faults: the empty shards' zero-frame
        // flows must finish through the carrier's FIN-timer path.
        let faulty = plan.with_fault(FaultSpec::harsh(0xC0FFEE, 4));
        let run = execute(&cluster, &faulty, ExecPath::BarrierPooled).unwrap();
        assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
    }

    #[test]
    fn a_fault_cuts_each_shards_output_at_its_batch() {
        let cluster = Cluster::default();
        let t = table(800, 2);
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, None, ShardSpec::new(4, ShardPartitioner::Hash));
        // Each shard's survivors: its unit's distinct keys.
        let items: Vec<usize> = plan
            .units
            .iter()
            .map(|u| cluster.run_baseline(&plan.unit_query, u, None).output)
            .map(|out| decompose_output(&q, out).len())
            .collect();
        assert!(items.iter().all(|&n| n > 0), "every shard has survivors: {items:?}");
        // A fault's frames of 7 items: Σ ⌈items_s / 7⌉.
        let faulty = plan.with_fault(FaultSpec::new(FaultProfile::lossless(), 3, 7));
        let run = execute(&cluster, &faulty, ExecPath::BarrierPooled).unwrap();
        assert_eq!(run.batches, items.iter().map(|n| n.div_ceil(7) as u64).sum::<u64>());
        assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
    }

    #[test]
    fn malformed_requests_are_typed_or_clamped_never_panics() {
        let t = table(200, 1);
        let join = DbQuery::Join { left_key: 0, right_key: 0 };
        let spec = ShardSpec::new(0, ShardPartitioner::Hash);
        let err = ExecPlan::new(&Cluster::default(), &join, &t, None, spec).unwrap_err();
        assert_eq!(err, cheetah_core::Error::MissingStream { stream: 1 });
        // A column the table does not have, or cannot be ordered by.
        for (q, col) in
            [(DbQuery::Distinct { col: 9 }, 9), (DbQuery::TopN { order_col: 0, n: 3 }, 0)]
        {
            let err = ExecPlan::new(&Cluster::default(), &q, &t, None, spec).unwrap_err();
            assert_eq!(err, cheetah_core::Error::BadColumn { stream: 0, col });
        }
        // Zero shards is served as one; a right table on a unary query is
        // dropped, so the plan is over the left table alone.
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, Some(&t), spec);
        assert_eq!(plan.shards(), 1);
        assert!(plan.is_over(&t, None) && !plan.is_over(&t, Some(&t)));
        assert!(!plan.is_over(&table(200, 1), None), "identity, not equality");
    }
}
