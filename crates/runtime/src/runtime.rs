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
//!   and is the same job in every other respect. A run's shards sit
//!   behind one atomic counter. The calling thread claims and runs shards
//!   until none are left, beside `min(shards, workers) − 1` helper jobs
//!   on the persistent [`WorkerPool`] that claim from the same counter, so
//!   a run uses at most one thread per core, the caller counting as one,
//!   and a one-shard run submits no helper. Each claimed shard runs
//!   behind its own panic boundary and reports its output or
//!   [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked). In fault
//!   mode ([`Cluster::fault`]) each job carries the rows it read across
//!   its own simulated §7.2 rack before it completes, and reports the
//!   rack's resends and switch ACKs with its output.
//! * the **master merge plane** (the calling thread) folds once the last
//!   report is in, through [`merge_shard_outputs`], which returns a lone
//!   output as it stands, whatever path ran, lossless or not.
//!
//! The caller waits only for shards a running helper claimed: a helper
//! still queued when the shards run out claims nothing. So a run needs no
//! free pool worker to finish, and `execute` may be called from inside a
//! pool job, every worker busy.

use crate::plan::ExecPlan;
use crate::pool::WorkerPool;
use cheetah_core::{Error, Result};
use cheetah_db::{merge_shard_outputs, Cluster, DbQuery, ExecPath, QueryOutput, ShardStats, Table};
use cheetah_net::{ExecBackend, ExecBreakdown};
use cheetah_switch::ProgramStats;
use cheetah_telemetry::{AttrValue, Span, SpanContext};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
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
    /// Merge-plane work: the fold of every shard's output, after the last
    /// worker reported.
    pub merge_seconds: f64,
}

/// Execute the routed `plan`'s query on `path`: prune every unit (each
/// with its own planned switch program) — or, on [`ExecPath::Direct`],
/// complete every unit with no switch at all — carry the results to the
/// master (each job's rows across a lossy rack first, in the cluster's
/// fault mode), merge, account. Every path but [`ExecPath::Direct`]
/// prunes. The calling thread runs units itself, beside at most
/// `min(shards, workers) − 1` pool helpers; a one-shard plan's unit runs
/// on the calling thread, with no pool job at all.
///
/// Output equals `run_baseline`'s for every query shape, shard count,
/// path and backend — the path changes *how much* reaches the master,
/// never *what* the query answers. A fault profile the
/// carrier cannot finish under (every entry dropped, say) is a typed
/// [`FabricStalled`](cheetah_core::Error::FabricStalled); a shard job
/// that panics is a typed
/// [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked), and the
/// failure is this call's alone.
pub fn execute(cluster: &Cluster, plan: &ExecPlan, path: ExecPath) -> Result<ExecRun> {
    let fold = merge_plane(plan, run_shards(cluster, plan, path)?);
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
    /// Fault mode's go-back-N resends and switch ACKs on the job's rack.
    retransmits: u64,
    switch_acks: u64,
    /// The unit's completed output (`None` when the unit was empty).
    output: Option<QueryOutput>,
}

/// A shard job's `worker` span in the submitter's trace (none when the
/// submitter is not traced), naming the `thread` the job runs on: a pool
/// worker's index, or `caller`.
fn worker_span(
    trace_ctx: Option<&SpanContext>,
    shard: usize,
    thread: impl Into<AttrValue>,
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
) -> Result<WorkerReport> {
    let mut rep = WorkerReport::default();
    let rows = left.rows() + right.map_or(0, Table::rows);
    // An empty unit never reaches the executor.
    if rows > 0 {
        let run = match path {
            ExecPath::Direct => cluster.run_direct(unit_q, left, right),
            _ => cluster.run_cheetah(unit_q, left, right),
        }?;
        let b = &run.breakdown;
        rep.stats = ShardStats {
            rows: rows as u64,
            worker_seconds: b.worker_seconds,
            master_seconds: b.master_seconds,
            worker_wire_bytes: b.worker_wire_bytes,
            master_wire_bytes: b.master_wire_bytes,
            entries_to_master: b.entries_to_master,
            seen: run.switch_stats.seen,
            pruned: run.switch_stats.pruned,
        };
        rep.switch = run.switch_stats;
        rep.passes = b.passes;
        rep.backend = Some(b.backend);
        (rep.retransmits, rep.switch_acks) = (b.retransmits, b.switch_acks);
        rep.output = Some(run.output);
    }
    if let Some(s) = span.as_mut() {
        s.attr("rows", rep.stats.rows);
        s.attr("entries_to_master", rep.stats.entries_to_master);
        if cluster.fault.is_some() {
            // The rack's recovery work lands in the owning registry,
            // attributed via the trace.
            s.attr("retransmits", rep.retransmits);
            s.attr("switch_acks", rep.switch_acks);
            s.trace().registry().counter("net.retransmits").add(rep.retransmits);
        }
    }
    Ok(rep)
}

/// A shard's report, tagged by the shard it ran.
type Report = (usize, Result<WorkerReport>);

/// What every thread working one run shares: the run's own copy of the
/// cluster and plan, and the counter its shards are claimed from.
struct Run {
    cluster: Cluster,
    plan: ExecPlan,
    path: ExecPath,
    /// The submitting thread's span context (the session's `execute` span,
    /// when one is entered), so each shard's `worker` span lands in the
    /// query's trace whichever thread runs it.
    trace_ctx: Option<SpanContext>,
    /// The next shard to claim; at `plan.shards()` or past it, none is left.
    next: AtomicUsize,
}

impl Run {
    /// Claim and run shards until none are left, each behind its own panic
    /// boundary: a shard that panics reports
    /// [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked), and the
    /// thread claims on. `thread` names this thread in the `worker` spans.
    fn work(&self, thread: impl Into<AttrValue> + Copy, mut report: impl FnMut(Report)) {
        loop {
            // A claim publishes nothing: the run was shared before any
            // helper was submitted, and reports travel over the channel.
            let shard = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(left) = self.plan.units.get(shard) else { return };
            let unit = (&**left, self.plan.right_units.as_ref().map(|u| &*u[shard]));
            let job = || {
                let span = worker_span(self.trace_ctx.as_ref(), shard, thread, self.path);
                run_shard(&self.cluster, &self.plan.unit_query, self.path, unit, span)
            };
            let rep =
                catch_unwind(AssertUnwindSafe(job)).unwrap_or(Err(Error::WorkerPanicked { shard }));
            report((shard, rep));
        }
    }
}

/// Run every shard of `plan`, in shard order: the calling thread claims
/// and runs shards beside `min(shards, workers) − 1` helper jobs on the
/// global [`WorkerPool`], which claim from the same counter and report
/// over a channel. A one-shard run submits no helper. A helper still
/// queued when the shards run out claims nothing, so the caller waits
/// only for shards a running helper claimed, never on a free worker.
fn run_shards(cluster: &Cluster, plan: &ExecPlan, path: ExecPath) -> Result<Vec<WorkerReport>> {
    let shards = plan.shards();
    let (cluster, plan, trace_ctx) = (cluster.clone(), plan.clone(), SpanContext::current());
    let run = Arc::new(Run { cluster, plan, path, trace_ctx, next: 0.into() });
    let pool = WorkerPool::global();
    let (report_tx, reports) = mpsc::channel();
    for _ in 1..shards.min(pool.workers()) {
        let (run, report_tx) = (Arc::clone(&run), report_tx.clone());
        pool.spawn(move |worker| run.work(worker, |rep| drop(report_tx.send(rep))));
    }
    drop(report_tx);
    let mut slots: Vec<_> = (0..shards).map(|_| None).collect();
    run.work("caller", |(shard, rep)| slots[shard] = Some(rep));
    await_helpers(slots, reports)
}

/// Fill the slots the caller left empty — the shards helpers claimed —
/// from the helpers' reports. Every claimed shard reports, a panic
/// included; a shard whose helper stopped without reporting (the channel
/// closed first) is [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked),
/// never a panic on the caller's thread.
fn await_helpers(
    mut slots: Vec<Option<Result<WorkerReport>>>,
    reports: mpsc::Receiver<Report>,
) -> Result<Vec<WorkerReport>> {
    let claimed = slots.iter().filter(|s| s.is_none()).count();
    for (shard, rep) in reports.iter().take(claimed) {
        slots[shard] = Some(rep);
    }
    let silent = |(shard, r): (usize, Option<_>)| r.unwrap_or(Err(Error::WorkerPanicked { shard }));
    slots.into_iter().enumerate().map(silent).collect()
}

/// The master merge plane: fold the shards' whole outputs through
/// [`merge_shard_outputs`], which hands a lone output back as it stands.
fn merge_plane(plan: &ExecPlan, mut reports: Vec<WorkerReport>) -> Fold {
    // The merge plane runs on the submitting thread, so the session's
    // entered `execute` span (if any) is directly visible here.
    let mut merge_span = SpanContext::current().map(|tc| tc.child("merge"));
    let started = Instant::now();
    let outputs = reports.iter_mut().filter_map(|r| r.output.take()).collect();
    let output = merge_shard_outputs(plan.query(), outputs);
    let merge_seconds = started.elapsed().as_secs_f64();
    if let Some(s) = merge_span.as_mut() {
        s.attr("shards", plan.shards());
    }
    Fold { output, reports, merge_seconds }
}

/// Everything the worker and merge planes produced, before accounting.
struct Fold {
    output: QueryOutput,
    reports: Vec<WorkerReport>,
    merge_seconds: f64,
}

/// Turn the raw fold into the run's accounting.
fn assemble(fold: Fold, plan: &ExecPlan) -> ExecRun {
    let Fold { output, reports, merge_seconds } = fold;
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
        // Every shard runs on the run's one cluster, so any report that
        // ran a unit speaks for the run (a compiled-requested run that fell back
        // records the fallback here too). With every unit empty no engine
        // ran, and the run reads `Interpreted`, as the direct arm does.
        backend: reports.iter().find_map(|r| r.backend).unwrap_or(ExecBackend::Interpreted),
        retransmits: reports.iter().map(|r| r.retransmits).sum(),
        switch_acks: reports.iter().map(|r| r.switch_acks).sum(),
        ..ExecBreakdown::default()
    };
    ExecRun { output, breakdown, switch_stats, per_shard, merge_seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_db::{
        unit_columns, units, CheetahTuning, Column, DataType, DbPredicate, IntCmp, LikePattern,
        TableBuilder, Value,
    };
    use cheetah_net::FaultProfile;
    use cheetah_telemetry::{Registry, Trace};

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

    fn plan_of(q: &DbQuery, t: &Arc<Table>, r: Option<&Arc<Table>>, shards: usize) -> ExecPlan {
        ExecPlan::new(&Cluster::default(), q, t, r, shards).expect("routes")
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
    fn one_shard_runs_the_tables_on_the_caller_and_more_run_the_querys_columns_beside_pool_helpers()
    {
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
        let workers = WorkerPool::global().workers();
        for q in &queries {
            let right = q.is_binary().then_some(&r);
            let base = cluster.run_baseline(q, &l, right.map(|r| &**r)).output;
            let total = (l.rows() + right.map_or(0, |r| r.rows())) as u64;
            // A pin of one shard or none, and the one unit these tables are
            // served as (both are far under a unit's rows, key coded).
            let served = units(q, &l, right.map(|r| &**r), workers);
            for shards in [1, 0, served] {
                let plan = plan_of(q, &l, right, shards);
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
            // run by the caller beside at most `workers − 1` pool helpers,
            // each naming its index — a plan wider than the pool is worked
            // off the same counter by the same threads.
            for shards in [3, 2 * workers + 1] {
                let plan = plan_of(q, &l, right, shards);
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
                    let named: std::collections::BTreeSet<&str> =
                        threads.iter().map(String::as_str).collect();
                    assert!(named.len() <= shards.min(workers), "{label}: {named:?}");
                    let helper = |t: &str| t.parse::<usize>().is_ok_and(|w| w < workers);
                    assert!(
                        named.iter().all(|&t| t == "caller" || helper(t)),
                        "{label}: {named:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_served_join_on_plain_string_keys_routes_codes() {
        // Near-unique URLs the load rule leaves plain, far under two units'
        // rows: the served layout still takes two units or more, whose
        // routed keys are codes against one dictionary per shard, and the
        // direct JOIN over them answers like the baseline.
        let urls = |rows: usize, step: usize| {
            let mut b = TableBuilder::new("urls", vec![("url".into(), DataType::Str)], 4_096);
            for i in 0..rows {
                b.push_row([Value::Str(format!("http://x/{}", i * step % 30_011))]);
            }
            Arc::new(b.build())
        };
        let (l, r) = (urls(20_000, 1), urls(10_000, 3));
        assert!(!l.is_coded(0) && !r.is_coded(0), "fixture: the load rule leaves them plain");
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let served = units(&q, &l, Some(&r), WorkerPool::global().workers());
        assert!(served >= 2, "{served} units");
        let plan = plan_of(&q, &l, Some(&r), served);
        let right_units = plan.right_units.as_ref().expect("a binary plan");
        for (left, right) in plan.units.iter().zip(right_units) {
            let [Column::Dict { dict: a, .. }, Column::Dict { dict: b, .. }] =
                [left, right].map(|u| u.partitions()[0].column(0))
            else {
                panic!("both streams' keys are codes");
            };
            assert!(Arc::ptr_eq(a, b), "one dictionary per shard");
        }
        let cluster = Cluster::default();
        let run = execute(&cluster, &plan, ExecPath::Direct).unwrap();
        assert_eq!(run.output, cluster.run_baseline(&q, &l, Some(&*r)).output);
    }

    #[test]
    fn a_one_shard_job_that_panics_fails_its_own_call_and_the_caller_carries_on() {
        // Zero stored skyline points trips the switch program builder's
        // assert (the panic message on stderr is expected).
        let tuning = CheetahTuning { skyline_points: 0, ..CheetahTuning::default() };
        let broken = Cluster { tuning, ..Cluster::default() };
        let t = table(600, 2);
        let skyline = DbQuery::Skyline { cols: vec![2, 1] };
        let plan = plan_of(&skyline, &t, None, 1);
        let (run, threads, _) = traced(&broken, &plan, ExecPath::BarrierPooled);
        assert_eq!(run.err(), Some(cheetah_core::Error::WorkerPanicked { shard: 0 }));
        assert_eq!(threads, ["caller"], "the job unwound on the calling thread");
        // The same thread's kernel cache and scratch block serve the next
        // compiled runs: one installs a kernel, the next reuses it.
        let cluster = Cluster::default().with_backend(ExecBackend::Compiled);
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, None, 1);
        for _ in 0..2 {
            let run = execute(&cluster, &plan, ExecPath::BarrierPooled).unwrap();
            assert_eq!(run.output, cluster.run_baseline(&q, &t, None).output);
            assert_eq!(run.breakdown.backend, ExecBackend::Compiled);
        }
    }

    #[test]
    fn harsh_faulty_channel_still_answers_exactly_on_every_path_and_the_plan_reuses_cleanly() {
        // 15% drop + 15% corruption + duplication on every entry: the §7.2
        // machinery (go-back-N resends, switch sequencing and prune-ACKs,
        // master dedup) must still deliver the baseline answer, the resends
        // must show up in the breakdown, and a second run of the same plan
        // replays the same lossy flow. Each shard job carries every row it
        // read: the pruned path's switch ACKs what its program pruned, the
        // direct path's forwards every row.
        let cluster = Cluster::default();
        let faulty = cluster.clone().with_fault(FaultProfile::harsh(), 0xC0FFEE);
        let t = table(1_500, 3);
        // The carrier's resend count per family and path: a pure function
        // of the rows, the verdicts and the seed, so any change to what the
        // jobs carry or how the rack carries it shows here.
        let queries = [
            (DbQuery::Distinct { col: 0 }, [80_621, 82_239]),
            (DbQuery::GroupByMax { key_col: 0, val_col: 1 }, [79_355, 83_556]),
            (DbQuery::TopN { order_col: 1, n: 10 }, [81_732, 81_732]),
        ];
        for (q, resends) in queries {
            let base = cluster.run_baseline(&q, &t, None);
            let plan = plan_of(&q, &t, None, 3);
            for (path, resends) in PATHS.into_iter().zip(resends) {
                let label = format!("{} {}", q.kind(), path.label());
                let lossless = execute(&cluster, &plan, path).unwrap();
                assert_eq!(base.output, lossless.output, "{label}");
                let b = &lossless.breakdown;
                assert_eq!((b.retransmits, b.switch_acks), (0, 0), "{label}: nothing carried");
                let first = execute(&faulty, &plan, path).unwrap();
                let second = execute(&faulty, &plan, path).unwrap();
                for run in [&first, &second] {
                    assert_eq!(base.output, run.output, "{label} under harsh faults");
                    assert_eq!(run.breakdown.retransmits, resends, "{label}");
                    assert_eq!(run.switch_stats, lossless.switch_stats, "{label}");
                    // The switch ACKs every row its program did not keep;
                    // the master holds at least what it kept, at most all.
                    let kept = match path {
                        ExecPath::Direct => t.rows() as u64,
                        _ => b.entries_to_master,
                    };
                    let acks = run.breakdown.switch_acks;
                    assert_eq!(acks, t.rows() as u64 - kept, "{label}");
                    let delivered = run.breakdown.entries_to_master;
                    assert!((kept..=t.rows() as u64).contains(&delivered), "{label}");
                }
            }
        }
    }

    #[test]
    fn a_fabric_that_drops_everything_is_a_typed_error_not_a_panic() {
        // No ACK ever moves a window, so the rack gives up after
        // `STALL_TIMEOUTS` timeouts of a flow: 63 resends of each flow's
        // window of at most 64 entries, however many rows a shard carries
        // (the rack's own test pins that count), not 120 s of simulated
        // time's worth.
        let cluster = Cluster::default();
        let t = table(20_000, 8);
        let q = DbQuery::Distinct { col: 0 };
        let black_hole = FaultProfile { drop_prob: 1.0, ..FaultProfile::lossless() };
        let plan = plan_of(&q, &t, None, 2);
        let err = execute(&cluster.with_fault(black_hole, 7), &plan, ExecPath::BarrierPooled)
            .unwrap_err();
        assert!(
            matches!(err, cheetah_core::Error::FabricStalled { delivered: 0, entries } if entries > 1_000),
            "{err}"
        );
    }

    #[test]
    fn a_shard_that_never_reports_is_a_typed_error_naming_it() {
        // The caller ran shard 2; helpers claimed shards 0 and 1. Shard 0's
        // helper reports; shard 1's stopped without reporting, its sender
        // dropped. The caller's wait names shard 1 rather than panicking.
        let (report_tx, reports) = mpsc::channel();
        report_tx.send((0, Ok(WorkerReport::default()))).unwrap();
        drop(report_tx);
        let slots = vec![None, None, Some(Ok(WorkerReport::default()))];
        let err = await_helpers(slots, reports).err().expect("no answer");
        assert_eq!(err, cheetah_core::Error::WorkerPanicked { shard: 1 });
    }

    #[test]
    fn execute_progresses_with_every_pool_worker_busy() {
        // Every pool worker is inside a job that runs a 4-shard `execute`.
        // Each run's caller works its own shards, and a helper it queued
        // behind the busy workers finds nothing left to claim, so every
        // run finishes: `execute` needs no free worker.
        let pool = WorkerPool::global();
        let workers = pool.workers();
        let t = table(2_000, 4);
        let q = DbQuery::Distinct { col: 0 };
        let base = Cluster::default().run_baseline(&q, &t, None).output;
        let plan = Arc::new(plan_of(&q, &t, None, 4));
        let all_busy = Arc::new(std::sync::Barrier::new(workers));
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let (plan, all_busy, tx) = (Arc::clone(&plan), Arc::clone(&all_busy), tx.clone());
            pool.spawn(move |_| {
                all_busy.wait();
                let run = execute(&Cluster::default(), &plan, ExecPath::BarrierPooled);
                tx.send(run.map(|run| run.output)).ok();
            });
        }
        for _ in 0..workers {
            let output = rx.recv_timeout(std::time::Duration::from_secs(30));
            assert_eq!(output.expect("a run finished with every worker busy").unwrap(), base);
        }
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
        let plan = plan_of(&q, &empty, None, 5);
        for path in PATHS {
            let run = execute(&cluster, &plan, path).unwrap();
            assert_eq!(run.output, QueryOutput::Values(vec![]));
            assert_eq!(run.breakdown.entries_to_master, 0);
        }
        // Three rows over seven shards: at least four stay empty.
        let tiny = table(3, 1);
        let q = DbQuery::TopN { order_col: 1, n: 2 };
        let plan = plan_of(&q, &tiny, None, 7);
        for path in PATHS {
            let run = execute(&cluster, &plan, path).unwrap();
            assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
            assert!(run.per_shard.iter().filter(|s| s.rows == 0).count() >= 4);
        }
        // Same layout under harsh faults: empty shards carry nothing, and
        // the others' flows finish through the carrier.
        let faulty = cluster.clone().with_fault(FaultProfile::harsh(), 0xC0FFEE);
        let run = execute(&faulty, &plan, ExecPath::BarrierPooled).unwrap();
        assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
    }

    #[test]
    fn malformed_requests_are_typed_or_clamped_never_panics() {
        let t = table(200, 1);
        let join = DbQuery::Join { left_key: 0, right_key: 0 };
        let err = ExecPlan::new(&Cluster::default(), &join, &t, None, 0).unwrap_err();
        assert_eq!(err, cheetah_core::Error::MissingStream { stream: 1 });
        // A column the table does not have, or cannot be ordered by.
        for (q, col) in
            [(DbQuery::Distinct { col: 9 }, 9), (DbQuery::TopN { order_col: 0, n: 3 }, 0)]
        {
            let err = ExecPlan::new(&Cluster::default(), &q, &t, None, 0).unwrap_err();
            assert_eq!(err, cheetah_core::Error::BadColumn { stream: 0, col });
        }
        // Zero shards is served as one; a right table on a unary query is
        // dropped, so the plan's one unit is the left table itself.
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, Some(&t), 0);
        assert_eq!(plan.shards(), 1);
        assert!(Arc::ptr_eq(&plan.units[0], &t) && plan.right_units.is_none());
    }
}
