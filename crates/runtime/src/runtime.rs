//! The one executor: pooled shard workers → master merge, over a routed
//! [`ExecPlan`].
//!
//! Two roles share a run:
//!
//! * one **worker job** per shard — submitted to the persistent
//!   [`WorkerPool`], not spawned per query — runs the unchanged generic
//!   executor ([`Cluster::run_cheetah`]) once, on its routed unit, and
//!   hands the survivors to the master by the plan's transport
//!   ([`ExecPath`]). On the **barrier** transport the completed output
//!   rides the worker's end-of-stream report whole — as it does on the
//!   **direct** path, whose job skips the switch altogether
//!   ([`Cluster::run_direct`]: the operator's completion over every row)
//!   and is the same job in every other respect. On the **stream**
//!   transport the worker encodes it straight into its worker-resident
//!   [`FrameBuilder`](cheetah_net::FrameBuilder) arena and streams the
//!   finished [`SurvivorBatch`] frames over a *bounded* channel (a full
//!   channel blocks the worker — the backpressure that stands in for
//!   sender pacing);
//! * the **master merge plane** (the calling thread) either folds the
//!   whole outputs once the last worker reports
//!   ([`merge_shard_outputs`]), or parses frames zero-copy and folds the
//!   survivor slices into a [`MergeState`] as they arrive — no per-item
//!   re-decode into owned `MergeItem`s, no join barrier.
//!
//! Under a [`FaultSpec`](crate::FaultSpec) the stream transport is
//! store-and-forward: the finished frames ride the worker's report, and
//! the merge plane carries them across the simulated §7.2 rack
//! ([`FabricSim`], the frame binding of `cheetah_net::rack`) into the
//! same [`MergeState`] — simulated time, so deterministic per seed.
//!
//! Every timestamp is taken against one run-local epoch so the overlap —
//! merge work performed while the slowest worker was still computing —
//! can be read directly out of the event log afterwards. One accounting
//! tail (`assemble`) serves both transports; under the barrier the
//! overlap is zero by construction.

use crate::plan::ExecPlan;
use crate::pool::WorkerPool;
use bytes::Bytes;
use cheetah_core::plan::ShardPlan;
use cheetah_db::{
    decompose_output, merge_shard_outputs, Cluster, DbQuery, ExecPath, MergeState, QueryOutput,
    ShardStats,
};
use cheetah_net::{ExecBackend, ExecBreakdown, FabricSim, RackConfig, SurvivorBatch};
use cheetah_switch::ProgramStats;
use cheetah_telemetry::SpanContext;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Result of executing an [`ExecPlan`].
#[derive(Debug, Clone)]
pub struct ExecRun {
    /// Merged, normalized query output — equal to the baseline's on
    /// either transport.
    pub output: QueryOutput,
    /// Phase breakdown. `master_seconds` already discounts
    /// `overlap_seconds` (merge work hidden behind still-running
    /// workers), so `completion_seconds` stays comparable across
    /// transports.
    pub breakdown: ExecBreakdown,
    /// Switch statistics summed across the shards' programs.
    pub switch_stats: ProgramStats,
    /// Per-shard accounting (the §4.6 skew story).
    pub per_shard: Vec<ShardStats>,
    /// Total merge-plane work: every frame ingest plus the final fold,
    /// overlapped or not.
    pub merge_seconds: f64,
    /// Merge items per survivor frame the plan's stream transport frames
    /// at.
    pub batch_size: usize,
    /// Survivor frames the master ingested (zero on the barrier).
    pub batches: u64,
    /// Modelled wire bytes of those frames.
    pub batch_wire_bytes: u64,
    /// The fitted plan, when the layout was planner-chosen.
    pub plan: Option<Arc<ShardPlan>>,
    /// Control-plane rules of the largest per-shard program.
    pub rules: usize,
}

/// Execute the routed `plan`'s query: prune every unit on pool workers
/// (each with its own planned switch program) — or, on
/// [`ExecPath::Direct`], complete every unit with no switch at all —
/// carry the results to the master by the plan's transport, merge,
/// account.
///
/// Output equals `run_baseline`'s for every query shape, shard count,
/// partitioner, path and backend — the path changes *when* and *how much*
/// reaches the master, never *what* the query answers. A fault
/// profile the carrier cannot finish under (every frame dropped, say) is
/// a typed [`FabricStalled`](cheetah_core::Error::FabricStalled); a shard
/// job that panics is a typed
/// [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked), and the
/// failure is this call's alone.
pub fn execute(cluster: &Cluster, plan: &ExecPlan) -> cheetah_core::Result<ExecRun> {
    let epoch = Instant::now();
    let q = plan.query();
    let plane = spawn_worker_plane(cluster, q, plan, epoch);
    let fold = drain_merge_plane(q, plan, plane, epoch)?;
    Ok(assemble(fold, plan, cluster.backend))
}

/// What a shard worker hands back when its unit is done.
#[derive(Default)]
struct WorkerReport {
    stats: ShardStats,
    switch: ProgramStats,
    passes: u8,
    rules: usize,
    /// Seconds since the run epoch at which this worker went idle.
    finished_at: f64,
    /// Pruning backend the worker's run actually executed on (`None`
    /// when the unit was empty and nothing ran).
    backend: Option<ExecBackend>,
    /// Barrier transport: the unit's completed output.
    output: Option<QueryOutput>,
    /// Stream transport in fault mode: the shard's finished survivor
    /// frames, for the master to carry across the simulated rack.
    frames: Vec<Bytes>,
}

/// The live channels of a spawned worker plane: survivor frames and
/// end-of-stream reports out.
struct WorkerPlane {
    batch_rx: mpsc::Receiver<Bytes>,
    report_rx: mpsc::Receiver<(usize, cheetah_core::Result<WorkerReport>)>,
}

/// Submit one pool job per shard: each owns `Arc` handles onto its routed
/// unit plus cheap clones of the cluster config and query, prunes the unit
/// (unless it is empty) through the unchanged generic executor (running
/// the plan's unit query, which addresses the unit's columns), and — on
/// the stream transport — frames the survivors out of its worker-resident
/// arena straight onto the bounded batch channel (in fault mode, onto its
/// report: the lossy carrier is store-and-forward).
fn spawn_worker_plane(
    cluster: &Cluster,
    q: &DbQuery,
    plan: &ExecPlan,
    epoch: Instant,
) -> WorkerPlane {
    let shards = plan.shards();
    let path = plan.path;
    let stream = path == ExecPath::StreamedResident;
    let batch_size = plan.batch;
    let faulty = stream && plan.fault.is_some();
    let (batch_tx, batch_rx) = mpsc::sync_channel::<Bytes>(plan.depth * shards);
    let (report_tx, report_rx) = mpsc::channel::<(usize, cheetah_core::Result<WorkerReport>)>();
    let pool = WorkerPool::global();
    // The submitting thread's span context (the session's `execute` span,
    // when one is entered) rides into each job, so per-shard `worker`
    // spans land in the query's trace even though they run on pool
    // threads.
    let trace_ctx = SpanContext::current();
    for shard in 0..shards {
        let left = Arc::clone(&plan.units[shard]);
        let right = plan.right_units.as_ref().map(|units| Arc::clone(&units[shard]));
        let cluster = cluster.clone();
        // The unit carries only the columns the query reads, so the shard
        // runs the query remapped onto them; what it hands the merge is
        // decomposed under the query as asked.
        let unit_q = plan.unit_query.clone();
        let q = q.clone();
        let batch_tx = batch_tx.clone();
        let report_tx = report_tx.clone();
        let trace_ctx = trace_ctx.clone();
        pool.spawn(move |scratch| {
            let mut worker_span = trace_ctx.as_ref().map(|ctx| {
                let mut s = ctx.child("worker");
                s.attr("shard", shard);
                s.attr("path", path.label());
                s
            });
            let mut rep = WorkerReport::default();
            let rows = left.rows() + right.as_ref().map_or(0, |r| r.rows());
            // An empty unit never reaches the executor.
            if rows > 0 {
                let started = Instant::now();
                let run = match path {
                    ExecPath::Direct => cluster.run_direct(&unit_q, &left, right.as_deref()),
                    _ => cluster.run_cheetah(&unit_q, &left, right.as_deref()),
                };
                let busy_seconds = started.elapsed().as_secs_f64();
                let run = match run {
                    Ok(run) => run,
                    Err(e) => {
                        report_tx.send((shard, Err(e))).ok();
                        return;
                    }
                };
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
                rep.rules = run.rules;
                rep.backend = Some(b.backend);
                if stream {
                    let items = decompose_output(&q, run.output);
                    for (seq, chunk) in items.chunks(batch_size).enumerate() {
                        // Encode each survivor once, straight into the
                        // frame arena — no per-item Bytes round-trip.
                        scratch.frames.begin(shard as u32, seq as u64);
                        for item in chunk {
                            scratch.frames.push_with(|b| item.encode_into(b));
                        }
                        let frame = scratch.frames.finish();
                        if faulty {
                            // Buffered, not sent: the go-back-N window needs
                            // the whole flow (and its length) so retransmitted
                            // frames can be replayed verbatim.
                            rep.frames.push(frame);
                        } else if batch_tx.send(frame).is_err() {
                            // The merge plane hung up: framing the rest is
                            // pure waste.
                            break;
                        }
                    }
                } else {
                    rep.output = Some(run.output);
                }
            }
            rep.finished_at = epoch.elapsed().as_secs_f64();
            if let Some(s) = worker_span.as_mut() {
                s.attr("rows", rep.stats.rows);
                s.attr("entries_to_master", rep.stats.entries_to_master);
            }
            drop(worker_span);
            report_tx.send((shard, Ok(rep))).ok();
        });
    }
    // The master's recv loops must end when the last worker does — the
    // only live senders are the ones captured by the jobs.
    WorkerPlane { batch_rx, report_rx }
}

/// The master merge plane. On the stream transport: fold survivor slices
/// as frames land — the batch parses zero-copy (offsets into the frame's
/// arena) and the merge folds each slice directly, so decode work happens
/// exactly once, here, per survivor. On the barrier transport no frame is
/// ever sent: the loop just waits out the workers, and the whole outputs
/// off their reports are folded afterwards.
fn drain_merge_plane(
    q: &DbQuery,
    plan: &ExecPlan,
    plane: WorkerPlane,
    epoch: Instant,
) -> cheetah_core::Result<Fold> {
    let WorkerPlane { batch_rx, report_rx } = plane;
    let shards = plan.shards();
    let stream = plan.path == ExecPath::StreamedResident;
    // The merge plane runs on the submitting thread, so the session's
    // entered `execute` span (if any) is directly visible here. The
    // barrier's merge span opens only once the workers are done.
    let open_merge_span = || SpanContext::current().map(|tc| tc.child("merge"));
    let mut merge_span = stream.then(open_merge_span).flatten();
    let mut state = MergeState::new(q);
    let mut merge_events: Vec<(f64, f64)> = Vec::new();
    let mut batches = 0u64;
    let mut batch_wire_bytes = 0u64;
    let mut ingest = |batch: &SurvivorBatch, start: f64| {
        batch_wire_bytes += batch.wire_bytes();
        batches += 1;
        state.ingest_survivor_batch(batch).expect("merge item round-trips");
        merge_events.push((start, epoch.elapsed().as_secs_f64() - start));
    };
    while let Ok(frame) = batch_rx.recv() {
        let start = epoch.elapsed().as_secs_f64();
        let batch = SurvivorBatch::parse(frame).expect("in-memory survivor frame round-trips");
        ingest(&batch, start);
    }

    // Every batch sender has dropped, so every job has finished, errored
    // or panicked: the reports are all in flight already, and a shard the
    // channel closes without hearing from unwound before it could report.
    let mut reports: Vec<Option<WorkerReport>> = (0..shards).map(|_| None).collect();
    for (shard, rep) in report_rx {
        reports[shard] = Some(rep?);
    }
    let mut reports = reports
        .into_iter()
        .enumerate()
        .map(|(shard, r)| r.ok_or(cheetah_core::Error::WorkerPanicked { shard }))
        .collect::<cheetah_core::Result<Vec<WorkerReport>>>()?;

    // Fault mode: no frame rode the channel. The shards' finished flows
    // cross the simulated §7.2 rack instead (go-back-N workers, a
    // sequencing switch, a deduping master that hands each new frame to
    // the merge) — in simulated time, so a lossy run never sleeps on a
    // timeout and its resend count is a pure function of (plan, seed).
    let mut retransmits = 0;
    if let Some(fault) = plan.fault.as_ref().filter(|_| stream) {
        let flows: Vec<Vec<Bytes>> =
            reports.iter_mut().map(|r| std::mem::take(&mut r.frames)).collect();
        let frames_total = flows.iter().map(|f| f.len() as u64).sum();
        let mut stream_spans: Vec<_> = flows
            .iter()
            .enumerate()
            .filter_map(|(shard, flow)| {
                let mut s = merge_span.as_ref()?.child("stream");
                s.attr("shard", shard);
                s.attr("frames", flow.len());
                Some(s)
            })
            .collect();
        let cfg = RackConfig { faults: fault.profile, seed: fault.seed, ..RackConfig::default() };
        let carried =
            FabricSim::new(cfg, flows).run(|batch| ingest(batch, epoch.elapsed().as_secs_f64()));
        if !carried.completed {
            return Err(cheetah_core::Error::FabricStalled {
                delivered: carried.delivered_frames,
                frames: frames_total,
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
        retransmits = carried.retransmissions;
    }

    let finish_start = epoch.elapsed().as_secs_f64();
    let output = if stream {
        state.finish()
    } else {
        merge_span = open_merge_span();
        let outputs = reports.iter_mut().filter_map(|r| r.output.take()).collect();
        merge_shard_outputs(q, outputs)
    };
    let finish_seconds = epoch.elapsed().as_secs_f64() - finish_start;

    if let Some(s) = merge_span.as_mut() {
        s.attr("shards", shards);
        if stream {
            s.attr("batches", batches);
        }
    }
    drop(merge_span);

    Ok(Fold {
        output,
        reports,
        merge_events,
        finish_seconds,
        batches,
        batch_wire_bytes,
        retransmits,
    })
}

/// Everything the worker and merge planes produced, before accounting.
struct Fold {
    output: QueryOutput,
    reports: Vec<WorkerReport>,
    merge_events: Vec<(f64, f64)>,
    finish_seconds: f64,
    batches: u64,
    batch_wire_bytes: u64,
    /// Go-back-N resends the carrier needed (zero when lossless).
    retransmits: u64,
}

/// Turn the raw fold into the run's accounting: the overlap is the merge
/// work that happened before the slowest worker went idle (none on the
/// barrier transport, whose merge starts after the last worker).
fn assemble(fold: Fold, plan: &ExecPlan, requested: ExecBackend) -> ExecRun {
    let Fold {
        output,
        reports,
        merge_events,
        finish_seconds,
        batches,
        batch_wire_bytes,
        retransmits,
    } = fold;
    let last_worker = reports.iter().map(|r| r.finished_at).fold(0.0, f64::max);
    let ingest_seconds: f64 = merge_events.iter().map(|(_, d)| d).sum();
    let overlap_seconds: f64 = merge_events
        .iter()
        .map(|&(start, dur)| (last_worker.min(start + dur) - start).max(0.0))
        .sum();
    let merge_seconds = ingest_seconds + finish_seconds;

    let per_shard: Vec<ShardStats> = reports.iter().map(|r| r.stats).collect();
    let switch_stats = reports.iter().fold(ProgramStats::default(), |mut acc, r| {
        acc.seen += r.switch.seen;
        acc.pruned += r.switch.pruned;
        acc.forwarded += r.switch.forwarded;
        acc
    });
    let entries_per_shard: Vec<u64> = per_shard.iter().map(|s| s.entries_to_master).collect();

    let breakdown = ExecBreakdown {
        // Workers run concurrently; the slowest shard bounds the phase.
        worker_seconds: per_shard.iter().map(|s| s.worker_seconds).fold(0.0, f64::max),
        // The master is one machine: per-slice completions plus the merge
        // plane — minus the part of the merge hidden behind workers.
        master_seconds: per_shard.iter().map(|s| s.master_seconds).sum::<f64>() + merge_seconds
            - overlap_seconds,
        worker_wire_bytes: per_shard.iter().map(|s| s.worker_wire_bytes).max().unwrap_or(0),
        master_wire_bytes: per_shard.iter().map(|s| s.master_wire_bytes).sum(),
        entries_to_master: entries_per_shard.iter().sum(),
        passes: reports.iter().map(|r| r.passes).max().unwrap_or(1),
        shards: plan.shards() as u32,
        master_ingest_seconds: plan.ingest.blocking_latency_sharded(&entries_per_shard),
        plan: Some(plan.decision),
        overlap_seconds,
        // All workers clone one cluster, so any report that ran a unit
        // speaks for the run (a compiled-requested run that fell back
        // records the fallback here too).
        backend: reports.iter().find_map(|r| r.backend).unwrap_or(requested),
        retransmits,
        ..ExecBreakdown::default()
    };
    let rules = reports.iter().map(|r| r.rules).max().unwrap_or(0);
    ExecRun {
        output,
        breakdown,
        switch_stats,
        per_shard,
        merge_seconds,
        batch_size: plan.batch,
        batches,
        batch_wire_bytes,
        plan: plan.plan.clone(),
        rules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultSpec, StreamSpec};
    use cheetah_core::ShardPartitioner;
    use cheetah_db::{
        DataType, DbPredicate, IntCmp, LikePattern, MasterIngestModel, ShardPlanner, ShardSpec,
        Table, TableBuilder, Value,
    };
    use cheetah_net::FaultProfile;

    const PATHS: [ExecPath; 3] =
        [ExecPath::BarrierPooled, ExecPath::StreamedResident, ExecPath::Direct];

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

    fn fixed(shards: usize, partitioner: ShardPartitioner) -> StreamSpec {
        StreamSpec::fixed(ShardSpec::new(shards, partitioner))
    }

    fn plan_of(q: &DbQuery, t: &Arc<Table>, r: Option<&Arc<Table>>, spec: &StreamSpec) -> ExecPlan {
        ExecPlan::new(&Cluster::default(), q, t, r, spec).expect("routes")
    }

    #[test]
    fn every_path_matches_baseline_on_a_simple_grid() {
        // The full 7×4×{1,2,7} grid lives in the contract gates; this is
        // the crate-local smoke version.
        let cluster = Cluster::default();
        let t = table(2_000, 4);
        let queries = [
            DbQuery::FilterCount {
                pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 5_000 },
            },
            DbQuery::Distinct { col: 0 },
            DbQuery::TopN { order_col: 1, n: 10 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: 4_000 },
        ];
        for q in queries {
            let base = cluster.run_baseline(&q, &t, None);
            for shards in [1usize, 4] {
                let plan = plan_of(&q, &t, None, &fixed(shards, ShardPartitioner::Hash));
                assert_eq!(plan.dispatched().iter().sum::<u64>(), 2_000, "{}", q.kind());
                for path in PATHS {
                    let run = execute(&cluster, &plan.for_path(path)).unwrap();
                    let label = format!("{} @ {shards} {}", q.kind(), path.label());
                    assert_eq!(base.output, run.output, "{label}");
                    assert_eq!(run.breakdown.shards as usize, shards, "{label}");
                    assert_eq!(run.per_shard.iter().map(|s| s.rows).sum::<u64>(), 2_000, "{label}");
                    assert!(run.breakdown.overlap_seconds <= run.merge_seconds + 1e-12, "{label}");
                    assert!(run.plan.is_none(), "fixed layouts carry no plan");
                    match path {
                        ExecPath::StreamedResident => assert!(run.batches > 0, "{label}"),
                        ExecPath::BarrierPooled | ExecPath::Direct => {
                            assert_eq!(run.batches, 0, "{label}");
                            assert_eq!(run.breakdown.overlap_seconds, 0.0, "{label}");
                        }
                    }
                    // The direct arm's switch passes its partials through.
                    if path == ExecPath::Direct {
                        let entries = run.breakdown.entries_to_master;
                        assert_eq!(run.switch_stats.pruned, 0, "{label}");
                        assert_eq!(run.switch_stats.forwarded, entries, "{label}");
                        assert_eq!(run.breakdown.master_seconds, run.merge_seconds, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn per_shard_accounting_sums_to_the_breakdown() {
        let cluster = Cluster::default();
        let t = table(4_000, 4);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let plan = plan_of(&q, &t, None, &StreamSpec::fixed(ShardSpec::default()));
        for path in PATHS {
            let run = execute(&cluster, &plan.for_path(path)).unwrap();
            assert_eq!(run.per_shard.len(), 4);
            assert_eq!(
                run.breakdown.master_wire_bytes,
                run.per_shard.iter().map(|s| s.master_wire_bytes).sum::<u64>()
            );
            assert_eq!(
                run.breakdown.entries_to_master,
                run.per_shard.iter().map(|s| s.entries_to_master).sum::<u64>()
            );
            assert_eq!(run.switch_stats.seen, run.per_shard.iter().map(|s| s.seen).sum::<u64>());
            assert!(run.breakdown.master_ingest_seconds > 0.0, "ingest model must be threaded");
        }
    }

    #[test]
    fn range_routing_fits_observed_key_bounds() {
        // Encoded small ints cluster just above 2⁶³ and string fingerprints
        // fill only the lower half of the u64 space; a naive full-space
        // range split would put every row on one shard. Fitted bounds
        // must spread both over populated spans.
        let t = table(4_000, 4);
        for q in [DbQuery::TopN { order_col: 1, n: 10 }, DbQuery::Distinct { col: 0 }] {
            let plan = plan_of(&q, &t, None, &fixed(4, ShardPartitioner::Range));
            let loads = plan.dispatched();
            assert!(
                loads.iter().filter(|&&r| r > 0).count() >= 3,
                "{}: range spans must be populated: {loads:?}",
                q.kind()
            );
        }
    }

    #[test]
    fn a_one_shard_layout_is_the_tables_and_a_routed_one_carries_the_querys_columns() {
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
        // A fitted plan that chose one shard (three rows are not worth a
        // second), handed back over the full tables as the serving plane would.
        let tiny = table(3, 1);
        let fitted = Arc::new(ShardPlanner::default().plan(&queries[1], &tiny, None, 7));
        assert_eq!(fitted.shards(), 1);
        let one_shard = [
            fixed(1, ShardPartitioner::Hash),
            fixed(0, ShardPartitioner::Range),
            StreamSpec::fitted(fitted, MasterIngestModel::default_rack()),
        ];
        for q in &queries {
            let right = q.is_binary().then_some(&r);
            let base = cluster.run_baseline(q, &l, right.map(|r| &**r)).output;
            let total = (l.rows() + right.map_or(0, |r| r.rows())) as u64;
            for spec in &one_shard {
                let plan = plan_of(q, &l, right, spec);
                assert_eq!(plan.shards(), 1, "{}", q.kind());
                assert!(Arc::ptr_eq(&plan.units[0], &l), "{}: a copy was made", q.kind());
                let right_unit = plan.right_units.as_ref().map(|units| &units[0]);
                assert_eq!(right_unit.map(Arc::as_ptr), right.map(Arc::as_ptr), "{}", q.kind());
                assert_eq!(plan.dispatched(), [total], "{}", q.kind());
                for path in PATHS {
                    let run = execute(&cluster, &plan.for_path(path)).unwrap();
                    assert_eq!(run.output, base, "{} {}", q.kind(), path.label());
                }
            }
            // Two shards or more: fresh copies, of the columns read only.
            let plan = plan_of(q, &l, right, &fixed(3, ShardPartitioner::Hash));
            let widths = |units: &[Arc<Table>]| -> Vec<usize> {
                units.iter().map(|t| t.fields().len()).collect()
            };
            assert_eq!(plan.dispatched().iter().sum::<u64>(), total, "{}: both streams", q.kind());
            assert_eq!(widths(&plan.units), [q.columns(0).len(); 3], "{}", q.kind());
            if let Some(units) = &plan.right_units {
                assert_eq!(widths(units), [q.columns(1).len(); 3], "{}", q.kind());
            }
            for path in PATHS {
                let run = execute(&cluster, &plan.for_path(path)).unwrap();
                assert_eq!(run.output, base, "{} {}", q.kind(), path.label());
            }
        }
    }

    #[test]
    fn a_fitted_layout_records_its_plan() {
        let cluster = Cluster::default();
        let t = table(1_500, 3);
        let q = DbQuery::Distinct { col: 0 };
        let plan = Arc::new(ShardPlanner::default().plan(&q, &t, None, cluster.tuning.seed));
        let spec = StreamSpec::fitted(Arc::clone(&plan), MasterIngestModel::default_rack());
        let routed = plan_of(&q, &t, None, &spec);
        let run = execute(&cluster, &routed).unwrap();
        assert!(Arc::ptr_eq(run.plan.as_ref().expect("plan rides along"), &plan));
        assert_eq!(run.breakdown.shards as usize, plan.shards());
        assert!(run.breakdown.plan.expect("decision").is_planned());
        assert_eq!(run.per_shard.iter().map(|s| s.rows).collect::<Vec<_>>(), routed.dispatched());
        assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
    }

    #[test]
    fn harsh_faulty_channel_still_answers_exactly_and_the_plan_reuses_cleanly() {
        // 15% drop + 15% corruption + duplication on every survivor
        // frame: the §7.2 machinery (go-back-N resends, switch
        // sequencing, merge-plane dedup) must still deliver the
        // baseline answer, the resends must show up in the breakdown,
        // and a second run of the same plan replays the same lossy flow.
        let cluster = Cluster::default();
        let t = table(1_500, 3);
        let queries = [
            DbQuery::Distinct { col: 0 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            DbQuery::TopN { order_col: 1, n: 10 },
        ];
        for q in queries {
            let base = cluster.run_baseline(&q, &t, None);
            let mut spec = fixed(3, ShardPartitioner::Hash);
            spec.batch = Some(4); // many small frames → many fault draws
            spec.fault = Some(FaultSpec::harsh(0xC0FFEE));
            let plan = plan_of(&q, &t, None, &spec);
            let first = execute(&cluster, &plan).unwrap();
            let second = execute(&cluster, &plan).unwrap();
            for run in [&first, &second] {
                assert_eq!(base.output, run.output, "{} under harsh faults", q.kind());
                assert!(run.breakdown.retransmits > 0, "{}: must force resends", q.kind());
            }
            // The carrier runs in simulated time: the resend count is a
            // pure function of (plan, seed), not of thread scheduling.
            assert_eq!(first.breakdown.retransmits, second.breakdown.retransmits, "{}", q.kind());
            // The barrier transport sends no frames, so it has none to lose.
            let barrier = execute(&cluster, &plan.for_path(ExecPath::BarrierPooled)).unwrap();
            assert_eq!(barrier.breakdown.retransmits, 0);
            assert_eq!(base.output, barrier.output);
        }
        // The lossless stream keeps its zero.
        let q = DbQuery::Distinct { col: 0 };
        let run = execute(&cluster, &plan_of(&q, &t, None, &fixed(3, ShardPartitioner::Hash)));
        assert_eq!(run.unwrap().breakdown.retransmits, 0);
    }

    #[test]
    fn a_fabric_that_drops_everything_is_a_typed_error_not_a_panic() {
        let cluster = Cluster::default();
        let t = table(200, 1);
        let q = DbQuery::Distinct { col: 0 };
        let mut spec = fixed(2, ShardPartitioner::Hash);
        let black_hole = FaultProfile { drop_prob: 1.0, ..FaultProfile::lossless() };
        spec.fault = Some(FaultSpec::new(black_hole, 7));
        let err = execute(&cluster, &plan_of(&q, &t, None, &spec)).unwrap_err();
        assert!(
            matches!(err, cheetah_core::Error::FabricStalled { delivered: 0, frames } if frames > 0),
            "{err}"
        );
    }

    #[test]
    fn a_shard_that_never_reports_is_a_typed_error_naming_it() {
        // What a panicked job leaves behind: its senders dropped, its
        // report never sent. Shard 0 of two reports; shard 1 is silent.
        let t = table(200, 1);
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, None, &fixed(2, ShardPartitioner::Hash));
        let (batch_tx, batch_rx) = mpsc::sync_channel::<Bytes>(1);
        let (report_tx, report_rx) = mpsc::channel();
        report_tx.send((0, Ok(WorkerReport::default()))).unwrap();
        drop((batch_tx, report_tx));
        let plane = WorkerPlane { batch_rx, report_rx };
        let err = drain_merge_plane(&q, &plan, plane, Instant::now()).err().expect("no answer");
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
        let plan = plan_of(&q, &empty, None, &fixed(5, ShardPartitioner::Range));
        for path in PATHS {
            let run = execute(&cluster, &plan.for_path(path)).unwrap();
            assert_eq!(run.output, QueryOutput::Values(vec![]));
            assert_eq!(run.batches, 0);
            assert_eq!(run.breakdown.entries_to_master, 0);
            assert_eq!(run.breakdown.master_ingest_seconds, 0.0);
            assert_eq!(run.breakdown.overlap_seconds, 0.0);
        }
        // Three rows over seven shards: at least four stay empty.
        let tiny = table(3, 1);
        let q = DbQuery::TopN { order_col: 1, n: 2 };
        let plan = plan_of(&q, &tiny, None, &fixed(7, ShardPartitioner::Hash));
        for path in PATHS {
            let run = execute(&cluster, &plan.for_path(path)).unwrap();
            assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
            assert!(run.per_shard.iter().filter(|s| s.rows == 0).count() >= 4);
        }
        // Same layout under harsh faults: the empty shards' zero-frame
        // flows must finish through the carrier's FIN-timer path.
        let mut lossy = fixed(7, ShardPartitioner::Hash);
        lossy.fault = Some(FaultSpec::harsh(0xC0FFEE));
        let run = execute(&cluster, &plan_of(&q, &tiny, None, &lossy)).unwrap();
        assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
    }

    #[test]
    fn batch_size_and_depth_follow_the_ingest_model_unless_pinned() {
        let cluster = Cluster::default();
        let t = table(800, 2);
        let q = DbQuery::Distinct { col: 0 };
        let spec = fixed(4, ShardPartitioner::Hash);
        let ingest = MasterIngestModel::default_rack();
        let plan = plan_of(&q, &t, None, &spec);
        assert_eq!(plan.depth, ingest.suggested_depth(4), "NIC-paced channel depth");
        let run = execute(&cluster, &plan).unwrap();
        assert_eq!(run.batch_size, ingest.suggested_batch(4));
        let mut pinned = spec.clone();
        pinned.batch = Some(7);
        let run = execute(&cluster, &plan_of(&q, &t, None, &pinned)).unwrap();
        assert_eq!(run.batch_size, 7);
        // 37 distinct survivors at batch 7 → ceil division worth of frames
        // per emitting shard; at least more frames than the unpinned run.
        assert!(run.batches >= 4, "tiny batches must yield multiple frames: {}", run.batches);
    }

    #[test]
    fn pool_reuse_is_bit_identical_across_back_to_back_variants() {
        // The pool's scratch state (frame arenas) must never leak between
        // queries: interleave different variants and both transports
        // back-to-back on the same global pool and require every repeat
        // to reproduce the baseline exactly.
        let cluster = Cluster::default();
        let t = table(1_500, 4);
        let queries = [
            DbQuery::Distinct { col: 0 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            DbQuery::TopN { order_col: 1, n: 10 },
        ];
        let plans: Vec<ExecPlan> = queries
            .iter()
            .map(|q| plan_of(q, &t, None, &fixed(4, ShardPartitioner::Hash)))
            .collect();
        for rep in 0..3 {
            for (q, plan) in queries.iter().zip(&plans) {
                let base = cluster.run_baseline(q, &t, None).output;
                for path in PATHS {
                    let run = execute(&cluster, &plan.for_path(path)).unwrap();
                    assert_eq!(run.output, base, "{} {} rep {rep}", q.kind(), path.label());
                }
            }
        }
    }

    #[test]
    fn malformed_requests_are_typed_or_clamped_never_panics() {
        let t = table(200, 1);
        let join = DbQuery::Join { left_key: 0, right_key: 0 };
        let spec = fixed(0, ShardPartitioner::Hash);
        let err = ExecPlan::new(&Cluster::default(), &join, &t, None, &spec).unwrap_err();
        assert_eq!(err, cheetah_core::Error::MissingStream { stream: 1 });
        // A column the table does not have, or cannot be ordered by.
        for (q, col) in
            [(DbQuery::Distinct { col: 9 }, 9), (DbQuery::TopN { order_col: 0, n: 3 }, 0)]
        {
            let err = ExecPlan::new(&Cluster::default(), &q, &t, None, &spec).unwrap_err();
            assert_eq!(err, cheetah_core::Error::BadColumn { stream: 0, col });
        }
        // Zero shards is served as one; a right table on a unary query is
        // dropped, so the plan is over the left table alone.
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, Some(&t), &spec);
        assert_eq!(plan.shards(), 1);
        assert!(plan.is_over(&t, None) && !plan.is_over(&t, Some(&t)));
        assert!(!plan.is_over(&table(200, 1), None), "identity, not equality");
    }
}
