//! The one executor: shard jobs → master merge, over a routed
//! [`ExecPlan`], on the arm its caller names.
//!
//! Two roles share a run:
//!
//! * one **shard job** per shard runs the unchanged generic executor
//!   ([`Cluster::run_cheetah`], on the arm's backend) once, on its routed
//!   unit, and hands its run back whole, once, when its unit is done. On
//!   the **direct** path the job skips the switch altogether
//!   ([`Cluster::run_direct`]: the operator's completion over every row)
//!   and is the same job in every other respect. A lossless direct run
//!   splits a unit of many stored partitions — a first sight's table, say
//!   — into groups of them ([`groups`]: as many as its rows fill units,
//!   up to the cores and the partitions), and each group is an item of
//!   its own: the operator's fold of those partitions
//!   ([`Cluster::fold_direct`]), a [`Partial`] handed back to the master.
//!   A run's items — a whole unit, or a group — sit behind one atomic
//!   counter. The calling thread claims and runs items until none are
//!   left, beside `min(items, workers) − 1` helper jobs on the persistent
//!   [`WorkerPool`] that claim from the same counter, so a run uses at
//!   most one thread per core, the caller counting as one, and a one-item
//!   run submits no helper. Each claimed item runs behind its own panic
//!   boundary, opens its own `worker` span, and hands back its piece or
//!   [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked). In fault
//!   mode ([`Cluster::fault`]) each job carries the rows it read across
//!   its own simulated §7.2 rack before it completes, and its run counts
//!   the rack's resends and switch ACKs.
//! * the **master** (the calling thread) folds once the last item is in:
//!   it finishes each split unit's partials into that unit's run
//!   ([`Cluster::finish_direct`]: per-key folds combined before a key is
//!   materialised, so the answer is built once), one pass over the
//!   shards' runs accounts each shard and the run, and
//!   [`merge_shard_outputs`] merges their outputs across units, returning
//!   a lone output as it stands, whatever path ran, lossless or not.
//!
//! How a run runs is its caller's to say, in the arguments of [`execute`]:
//! the arm (path and backend) and the span its `worker` and `merge` spans
//! open under. The run shares the caller's plan; a pool helper, which
//! outlives the call's borrows, works on a copy of the cluster of its own.
//!
//! The caller waits only for items a running helper claimed: a helper
//! still queued when the items run out claims nothing. So a run needs no
//! free pool worker to finish, and `execute` may be called from inside a
//! pool job, every worker busy.

use crate::plan::ExecPlan;
use crate::pool::WorkerPool;
use cheetah_core::{Error, Result};
use cheetah_db::{
    groups, merge_shard_outputs, CheetahRun, ChooserArm, Cluster, DbQuery, ExecPath, Partial,
    QueryOutput, ShardStats, Table,
};
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
    /// Merge-plane work, after the last worker reported: finishing each
    /// split unit's partials, and the fold of every shard's output.
    pub merge_seconds: f64,
}

/// Execute the routed `plan`'s query on `arm`: prune every unit on the
/// arm's backend (each unit with its own planned switch program) — or, on
/// [`ExecPath::Direct`], complete every unit with no switch at all — carry
/// the results to the master (each job's rows across a lossy rack first,
/// in the cluster's fault mode), merge, account. Every path but
/// [`ExecPath::Direct`] prunes; a lossless direct run folds each unit's
/// groups of stored partitions ([`groups`]) apart and finishes them
/// together. The calling thread runs items itself, beside at most
/// `min(items, workers) − 1` pool helpers; a one-item run — a one-shard
/// plan whose unit is one group — runs on the calling thread, with no
/// pool job at all. Under a `parent` span, each item opens a `worker`
/// span and the merge a `merge` span beneath it, whichever thread runs
/// them; with none, the run traces nothing.
///
/// Output equals `run_baseline`'s for every query shape, shard count,
/// path and backend — the arm changes *how much* reaches the master,
/// never *what* the query answers. A fault profile the
/// carrier cannot finish under (every entry dropped, say) is a typed
/// [`FabricStalled`](cheetah_core::Error::FabricStalled); a shard job
/// that panics is a typed
/// [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked), and the
/// failure is this call's alone.
pub fn execute(
    cluster: &Cluster,
    plan: &Arc<ExecPlan>,
    arm: ChooserArm,
    parent: Option<&SpanContext>,
) -> Result<ExecRun> {
    let pieces = run_items(cluster, plan, arm, parent)?;
    Ok(fold(cluster, plan, pieces, parent))
}

/// What a shard job hands back: the rows routed to its unit, and the run
/// of its unit as the executor returned it (none when the unit was empty
/// and nothing ran).
type Shard = (u64, Option<CheetahRun>);

/// One item a run's threads claim: a shard's unit whole, or one group of
/// its stored partitions ([`groups`]).
struct Item {
    shard: usize,
    /// The unit's stored partitions this item folds; `None` runs it whole.
    group: Option<Vec<usize>>,
}

/// What an item hands back.
#[derive(Debug)]
enum Piece {
    /// A whole unit's job.
    Unit(Shard),
    /// A group's fold: the rows it read, its partial, and the seconds the
    /// fold took.
    Group(u64, Partial, f64),
}

/// The items of a run on `arm`: a lossless direct run folds each unit's
/// groups of stored partitions ([`groups`]) as items of their own, and
/// every other unit — or any unit of another run — is one item.
fn items(cluster: &Cluster, plan: &ExecPlan, arm: ChooserArm, workers: usize) -> Vec<Item> {
    let splits = arm.path == ExecPath::Direct && cluster.fault.is_none();
    let mut items = Vec::with_capacity(plan.shards());
    for (shard, unit) in plan.units.iter().enumerate() {
        match splits.then(|| groups(&plan.unit_query, unit, workers)).flatten() {
            Some(groups) => {
                items.extend(groups.into_iter().map(|g| Item { shard, group: Some(g) }))
            }
            None => items.push(Item { shard, group: None }),
        }
    }
    items
}

/// An item's `worker` span under `parent` (none when the run is not
/// traced), naming its shard and the `thread` it runs on: a pool worker's
/// index, or `caller`.
fn worker_span(
    parent: Option<&SpanContext>,
    shard: usize,
    thread: impl Into<AttrValue>,
    path: ExecPath,
) -> Option<Span> {
    let mut s = parent?.child("worker");
    s.attr("shard", shard);
    s.attr("thread", thread);
    s.attr("path", path.label());
    Some(s)
}

/// One shard's job, the same wherever it runs: run its unit (unless it is
/// empty) through the unchanged generic executor on the arm's backend —
/// the plan's unit query, which addresses the unit's columns — or, on the
/// direct path, through the operator's completion.
fn run_shard(
    cluster: &Cluster,
    unit_q: &DbQuery,
    arm: ChooserArm,
    (left, right): (&Table, Option<&Table>),
    mut span: Option<Span>,
) -> Result<Shard> {
    let rows = (left.rows() + right.map_or(0, Table::rows)) as u64;
    // An empty unit never reaches the executor.
    let run = match arm.path {
        _ if rows == 0 => None,
        ExecPath::Direct => Some(cluster.run_direct(unit_q, left, right)?),
        _ => Some(cluster.run_cheetah(unit_q, left, right, arm.backend)?),
    };
    if let Some(s) = span.as_mut() {
        let nothing = ExecBreakdown::default();
        let b = run.as_ref().map_or(&nothing, |run| &run.breakdown);
        s.attr("rows", rows);
        s.attr("entries_to_master", b.entries_to_master);
        if cluster.fault.is_some() {
            // The rack's recovery work lands in the owning registry,
            // attributed via the trace.
            s.attr("retransmits", b.retransmits);
            s.attr("switch_acks", b.switch_acks);
            s.trace().registry().counter("net.retransmits").add(b.retransmits);
        }
    }
    Ok((rows, run))
}

/// One group's job: the direct fold of the stored partitions `group` of
/// the unit `left`. Its `worker` span names the rows it read and the
/// group's stored partitions; what the unit ships is known once its
/// groups finish.
fn fold_group(
    cluster: &Cluster,
    unit_q: &DbQuery,
    left: &Table,
    group: &[usize],
    mut span: Option<Span>,
) -> Result<Piece> {
    let started = Instant::now();
    let partial = cluster.fold_direct(unit_q, left, None, group)?;
    let seconds = started.elapsed().as_secs_f64();
    let rows: usize = group.iter().map(|&p| left.partitions()[p].rows()).sum();
    if let Some(s) = span.as_mut() {
        s.attr("rows", rows);
        s.attr("partitions", group.len());
    }
    Ok(Piece::Group(rows as u64, partial, seconds))
}

/// An item's outcome, tagged by the item it ran.
type Report = (usize, Result<Piece>);

/// What every thread working one run shares: the caller's plan, the arm,
/// the parent span, the run's items, and the counter they are claimed
/// from.
struct Run {
    plan: Arc<ExecPlan>,
    arm: ChooserArm,
    parent: Option<SpanContext>,
    items: Vec<Item>,
    /// The next item to claim; at `items.len()` or past it, none is left.
    next: AtomicUsize,
}

impl Run {
    /// Claim and run items on `cluster` until none are left, each behind
    /// its own panic boundary: an item that panics reports
    /// [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked) for its
    /// shard, and the thread claims on. `thread` names this thread in the
    /// `worker` spans.
    fn work(
        &self,
        cluster: &Cluster,
        thread: impl Into<AttrValue> + Copy,
        mut report: impl FnMut(Report),
    ) {
        loop {
            // A claim publishes nothing: the run was shared before any
            // helper was submitted, and reports travel over the channel.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(Item { shard, group }) = self.items.get(i) else { return };
            let (shard, q) = (*shard, &self.plan.unit_query);
            let left = &*self.plan.units[shard];
            let job = || {
                let span = worker_span(self.parent.as_ref(), shard, thread, self.arm.path);
                match group {
                    Some(group) => fold_group(cluster, q, left, group, span),
                    None => {
                        let right = self.plan.right_units.as_ref().map(|u| &*u[shard]);
                        run_shard(cluster, q, self.arm, (left, right), span).map(Piece::Unit)
                    }
                }
            };
            let rep =
                catch_unwind(AssertUnwindSafe(job)).unwrap_or(Err(Error::WorkerPanicked { shard }));
            report((i, rep));
        }
    }
}

/// Run every item of `plan`'s run on `arm`: the shard each item belongs
/// to, and its piece, in item order. The calling
/// thread claims and runs items beside `min(items, workers) − 1` helper
/// jobs on the global [`WorkerPool`], which claim from the same counter
/// and report over a channel. A one-item run submits no helper. A helper
/// still queued when the items run out claims nothing, so the caller
/// waits only for items a running helper claimed, never on a free worker.
fn run_items(
    cluster: &Cluster,
    plan: &Arc<ExecPlan>,
    arm: ChooserArm,
    parent: Option<&SpanContext>,
) -> Result<(Vec<usize>, Vec<Piece>)> {
    let pool = WorkerPool::global();
    let items = items(cluster, plan, arm, pool.workers());
    let (count, shards): (_, Vec<usize>) = (items.len(), items.iter().map(|i| i.shard).collect());
    let run = Arc::new(Run {
        plan: Arc::clone(plan),
        arm,
        parent: parent.cloned(),
        items,
        next: 0.into(),
    });
    let (report_tx, reports) = mpsc::channel();
    for _ in 1..count.min(pool.workers()) {
        // A pool job outlives this call's borrows: the helper works on a
        // copy of the cluster of its own.
        let (run, report_tx, cluster) = (Arc::clone(&run), report_tx.clone(), cluster.clone());
        pool.spawn(move |worker| run.work(&cluster, worker, |rep| drop(report_tx.send(rep))));
    }
    drop(report_tx);
    let mut slots: Vec<_> = (0..count).map(|_| None).collect();
    run.work(cluster, "caller", |(i, rep)| slots[i] = Some(rep));
    let pieces = await_helpers(slots, reports, |i| shards[i])?;
    Ok((shards, pieces))
}

/// Fill the slots the caller left empty — the items helpers claimed —
/// from the helpers' reports. Every claimed item reports, a panic
/// included; an item whose helper stopped without reporting (the channel
/// closed first) is [`WorkerPanicked`](cheetah_core::Error::WorkerPanicked)
/// for its shard (`shard_of` the item), never a panic on the caller's
/// thread.
fn await_helpers(
    mut slots: Vec<Option<Result<Piece>>>,
    reports: mpsc::Receiver<Report>,
    shard_of: impl Fn(usize) -> usize,
) -> Result<Vec<Piece>> {
    let claimed = slots.iter().filter(|s| s.is_none()).count();
    for (i, rep) in reports.iter().take(claimed) {
        slots[i] = Some(rep);
    }
    let silent = |(i, r): (usize, Option<_>)| {
        r.unwrap_or_else(|| Err(Error::WorkerPanicked { shard: shard_of(i) }))
    };
    slots.into_iter().enumerate().map(silent).collect()
}

/// One shard's job from its items' pieces: a whole unit's as it stands,
/// or its groups' partials finished into one direct run of the unit.
fn finish_unit(cluster: &Cluster, unit_q: &DbQuery, pieces: impl Iterator<Item = Piece>) -> Shard {
    let (mut rows, mut partials, mut slowest) = (0, Vec::new(), 0.0f64);
    for piece in pieces {
        match piece {
            Piece::Unit(shard) => return shard,
            Piece::Group(read, partial, seconds) => {
                rows += read;
                partials.push(partial);
                slowest = slowest.max(seconds);
            }
        }
    }
    (rows, Some(cluster.finish_direct(unit_q, rows, partials, slowest)))
}

/// The master, once every item is in: each split unit's groups are
/// finished into its run, one pass over the shards' runs accounts each
/// shard ([`ShardStats`]) and the run's breakdown, then
/// [`merge_shard_outputs`] folds their whole outputs (a lone one handed
/// back as it stands), all under the `merge` span.
fn fold(
    cluster: &Cluster,
    plan: &ExecPlan,
    (shards, pieces): (Vec<usize>, Vec<Piece>),
    parent: Option<&SpanContext>,
) -> ExecRun {
    let merge_span = parent.map(|p| p.child("merge"));
    let started = Instant::now();
    // Items are listed in shard order, so a shard's pieces are adjacent.
    let mut pieces = shards.into_iter().zip(pieces).peekable();
    let mut b = ExecBreakdown { shards: plan.shards() as u32, ..ExecBreakdown::default() };
    let mut switch_stats = ProgramStats::default();
    let (mut per_shard, mut outputs) = (Vec::with_capacity(plan.shards()), Vec::new());
    let mut backend = None;
    for shard in 0..plan.shards() {
        let unit = std::iter::from_fn(|| pieces.next_if(|(s, _)| *s == shard).map(|(_, p)| p));
        let (rows, run) = finish_unit(cluster, &plan.unit_query, unit);
        let Some(CheetahRun { output, breakdown: r, switch_stats: sw, .. }) = run else {
            per_shard.push(ShardStats::default());
            continue;
        };
        per_shard.push(ShardStats {
            rows,
            worker_seconds: r.worker_seconds,
            master_seconds: r.master_seconds,
            worker_wire_bytes: r.worker_wire_bytes,
            master_wire_bytes: r.master_wire_bytes,
            entries_to_master: r.entries_to_master,
            seen: sw.seen,
            pruned: sw.pruned,
        });
        // Workers run concurrently: the slowest shard bounds the phase, and
        // the busiest uplink the worker wire. The master is one machine:
        // per-slice completions add up (and the merge joins them below).
        b.worker_seconds = b.worker_seconds.max(r.worker_seconds);
        b.master_seconds += r.master_seconds;
        b.worker_wire_bytes = b.worker_wire_bytes.max(r.worker_wire_bytes);
        b.master_wire_bytes += r.master_wire_bytes;
        b.entries_to_master += r.entries_to_master;
        b.passes = b.passes.max(r.passes);
        b.retransmits += r.retransmits;
        b.switch_acks += r.switch_acks;
        // Every shard runs on the run's one arm, so any shard that ran a
        // unit speaks for the run (a compiled-requested run that fell
        // back records the fallback here too).
        backend.get_or_insert(r.backend);
        switch_stats.seen += sw.seen;
        switch_stats.pruned += sw.pruned;
        switch_stats.forwarded += sw.forwarded;
        outputs.push(output);
    }
    // With every unit empty no engine ran, and the run reads
    // `Interpreted`, as the direct arm does.
    b.backend = backend.unwrap_or(ExecBackend::Interpreted);
    let output = merge_shard_outputs(plan.query(), outputs);
    let merge_seconds = started.elapsed().as_secs_f64();
    if let Some(mut s) = merge_span {
        s.attr("shards", plan.shards());
    }
    b.master_seconds += merge_seconds;
    ExecRun { output, breakdown: b, switch_stats, per_shard, merge_seconds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_db::{
        unit_columns, units, CheetahTuning, Column, DataType, DbPredicate, Dictionary, IntCmp,
        LikePattern, TableBuilder, Value,
    };
    use cheetah_net::FaultProfile;
    use cheetah_telemetry::{Registry, Trace};

    const POOLED: ChooserArm =
        ChooserArm { path: ExecPath::BarrierPooled, backend: ExecBackend::Interpreted };
    const DIRECT: ChooserArm = ChooserArm { path: ExecPath::Direct, ..POOLED };
    const ARMS: [ChooserArm; 2] = [POOLED, DIRECT];

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
        shards: usize,
    ) -> Arc<ExecPlan> {
        Arc::new(ExecPlan::new(&Cluster::default(), q, t, r, shards).expect("routes"))
    }

    /// Execute `plan` on `arm` under a fresh trace's root span, passed as
    /// the run's parent: the run, the `thread` of each `worker` span it
    /// traced, and its `merge` spans.
    fn traced(
        cluster: &Cluster,
        plan: &Arc<ExecPlan>,
        arm: ChooserArm,
    ) -> (cheetah_core::Result<ExecRun>, Vec<String>, usize) {
        let trace = Trace::new(Registry::new());
        let root = trace.span("query");
        let run = execute(cluster, plan, arm, Some(&root.context()));
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
                for arm in ARMS {
                    let label = format!("{} {}", q.kind(), arm.label());
                    let (run, threads, merges) = traced(&cluster, &plan, arm);
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
                let mut dicts: Vec<Vec<Arc<Dictionary>>> = vec![Vec::new(); shards];
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
                for arm in ARMS {
                    let label = format!("{kind} {}", arm.label());
                    let (run, threads, merges) = traced(&cluster, &plan, arm);
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
    fn a_direct_run_of_a_large_table_folds_its_stored_partitions_on_every_core() {
        // A first sight's layout: the table itself, one shard of five
        // stored partitions past two units' rows. Its direct run claims one
        // item per group of partitions — as many groups as cores, up to
        // the partitions — and answers like the baseline; a JOIN, the
        // pruned arm and fault mode keep the unit whole.
        let cluster = Cluster::default();
        let workers = WorkerPool::global().workers();
        let t = table(2 * cheetah_db::planner::ROWS_PER_UNIT + 5_000, 5);
        let (r, q_join) = (table(3_000, 2), DbQuery::Join { left_key: 0, right_key: 0 });
        let families = [
            DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 2, op: IntCmp::Lt, lit: 40 } },
            DbQuery::Distinct { col: 0 },
            DbQuery::Skyline { cols: vec![2, 1] },
            DbQuery::TopN { order_col: 1, n: 10 },
            DbQuery::GroupByMax { key_col: 0, val_col: 2 },
            DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: 890_000 },
            q_join.clone(),
        ];
        let faulty = cluster.clone().with_fault(FaultProfile::lossless(), 1);
        for q in &families {
            let right = q.is_binary().then_some(&r);
            let base = cluster.run_baseline(q, &t, right.map(|r| &**r)).output;
            let plan = plan_of(q, &t, right, 1);
            let want = if *q == q_join { 1 } else { workers.min(5) };
            assert_eq!(items(&cluster, &plan, DIRECT, workers).len(), want, "{}", q.kind());
            for whole in
                [items(&cluster, &plan, POOLED, workers), items(&faulty, &plan, DIRECT, workers)]
            {
                assert_eq!(whole.len(), 1, "{}: the pruned arm and fault mode", q.kind());
            }
            // The groups' folds run side by side: on a pool of two workers
            // or more, some run has them on two threads or more. The caller
            // may claim every item before a helper wakes, or while other
            // tests keep the pool busy, so it tries for a while.
            let mut spread = workers == 1 || want == 1;
            let tries = Instant::now();
            while tries.elapsed().as_secs() < 30 {
                let (run, threads, merges) = traced(&cluster, &plan, DIRECT);
                let run = run.unwrap();
                assert_eq!(run.output, base, "{}", q.kind());
                assert_eq!(
                    (threads.len(), merges, run.per_shard.len()),
                    (want, 1, 1),
                    "{}",
                    q.kind()
                );
                let named: std::collections::BTreeSet<_> = threads.into_iter().collect();
                spread |= named.len() >= 2;
                if spread {
                    break;
                }
            }
            assert!(spread, "{}: every try ran its groups on one thread", q.kind());
        }
        // A table under two units' rows is one group: its direct run is one
        // item, on the caller, and submits no helper.
        let small = table(6_000, 4);
        for q in &families[..6] {
            let plan = plan_of(q, &small, None, 1);
            assert_eq!(items(&cluster, &plan, DIRECT, workers).len(), 1, "{}", q.kind());
            let (run, threads, _) = traced(&cluster, &plan, DIRECT);
            assert_eq!(run.unwrap().output, cluster.run_baseline(q, &small, None).output);
            assert_eq!(threads, ["caller"], "{}", q.kind());
        }
    }

    #[test]
    fn a_parent_taken_on_one_thread_holds_every_span_of_a_run_on_another() {
        // The parent crosses to a pool job as an argument: the run there
        // opens each shard's `worker` span (on that thread or a pool
        // helper) and its `merge` span under it, and no other span.
        let t = table(1_200, 3);
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, None, 3);
        let trace = Trace::new(Registry::new());
        let root = trace.span("query");
        let exec = root.child("execute");
        let (parent, on_another, (tx, rx)) = (exec.context(), Arc::clone(&plan), mpsc::channel());
        WorkerPool::global().spawn(move |_| {
            tx.send(execute(&Cluster::default(), &on_another, POOLED, Some(&parent))).ok();
        });
        let run = rx.recv().expect("the run's thread");
        assert_eq!(run.unwrap().output, Cluster::default().run_baseline(&q, &t, None).output);
        exec.finish();
        root.finish();
        let tree = trace.export().expect("every span closed");
        let [exec] = &tree.root.children[..] else { panic!("one child of the root") };
        let children: Vec<_> =
            exec.children.iter().map(|c| (c.name.as_str(), c.attr("shard"))).collect();
        let want =
            [("merge", None), ("worker", Some("0")), ("worker", Some("1")), ("worker", Some("2"))];
        assert_eq!(children, want);
        assert_eq!(tree.span_count(), 6, "nothing opened elsewhere");
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
        let run = execute(&cluster, &plan, DIRECT, None).unwrap();
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
        let (run, threads, _) = traced(&broken, &plan, POOLED);
        assert_eq!(run.err(), Some(cheetah_core::Error::WorkerPanicked { shard: 0 }));
        assert_eq!(threads, ["caller"], "the job unwound on the calling thread");
        // The same thread's kernel cache and scratch block serve the next
        // compiled runs: one installs a kernel, the next reuses it.
        let cluster = Cluster::default();
        let q = DbQuery::Distinct { col: 0 };
        let plan = plan_of(&q, &t, None, 1);
        let compiled = ChooserArm { backend: ExecBackend::Compiled, ..POOLED };
        for _ in 0..2 {
            let run = execute(&cluster, &plan, compiled, None).unwrap();
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
            for (arm, resends) in ARMS.into_iter().zip(resends) {
                let label = format!("{} {}", q.kind(), arm.label());
                let lossless = execute(&cluster, &plan, arm, None).unwrap();
                assert_eq!(base.output, lossless.output, "{label}");
                let b = &lossless.breakdown;
                assert_eq!((b.retransmits, b.switch_acks), (0, 0), "{label}: nothing carried");
                let first = execute(&faulty, &plan, arm, None).unwrap();
                let second = execute(&faulty, &plan, arm, None).unwrap();
                for run in [&first, &second] {
                    assert_eq!(base.output, run.output, "{label} under harsh faults");
                    assert_eq!(run.breakdown.retransmits, resends, "{label}");
                    assert_eq!(run.switch_stats, lossless.switch_stats, "{label}");
                    // The switch ACKs every row its program did not keep;
                    // the master holds at least what it kept, at most all.
                    let kept = match arm.path {
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
        let err = execute(&cluster.with_fault(black_hole, 7), &plan, POOLED, None).unwrap_err();
        assert!(
            matches!(err, cheetah_core::Error::FabricStalled { delivered: 0, entries } if entries > 1_000),
            "{err}"
        );
    }

    #[test]
    fn a_shard_that_never_reports_is_a_typed_error_naming_it() {
        // Items 0 and 1 are shard 1's two groups, item 2 is shard 0's
        // unit. The caller ran item 2; helpers claimed items 0 and 1. Item
        // 0's helper reports; item 1's stopped without reporting, its
        // sender dropped. The caller's wait names shard 1 rather than
        // panicking.
        let (report_tx, reports) = mpsc::channel();
        report_tx.send((0, Ok(Piece::Group(5, Partial::Count(2), 0.0)))).unwrap();
        drop(report_tx);
        let slots = vec![None, None, Some(Ok(Piece::Unit((0, None))))];
        let err = await_helpers(slots, reports, |i| [1, 1, 0][i]).expect_err("no answer");
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
        let plan = plan_of(&q, &t, None, 4);
        let all_busy = Arc::new(std::sync::Barrier::new(workers));
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let (plan, all_busy, tx) = (Arc::clone(&plan), Arc::clone(&all_busy), tx.clone());
            pool.spawn(move |_| {
                all_busy.wait();
                let run = execute(&Cluster::default(), &plan, POOLED, None);
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
        for arm in ARMS {
            let run = execute(&cluster, &plan, arm, None).unwrap();
            assert_eq!(run.output, QueryOutput::Values(vec![]));
            assert_eq!(run.breakdown.entries_to_master, 0);
        }
        // Three rows over seven shards: at least four stay empty.
        let tiny = table(3, 1);
        let q = DbQuery::TopN { order_col: 1, n: 2 };
        let plan = plan_of(&q, &tiny, None, 7);
        for arm in ARMS {
            let run = execute(&cluster, &plan, arm, None).unwrap();
            assert_eq!(run.output, cluster.run_baseline(&q, &tiny, None).output);
            assert!(run.per_shard.iter().filter(|s| s.rows == 0).count() >= 4);
        }
        // Same layout under harsh faults: empty shards carry nothing, and
        // the others' flows finish through the carrier.
        let faulty = cluster.clone().with_fault(FaultProfile::harsh(), 0xC0FFEE);
        let run = execute(&faulty, &plan, POOLED, None).unwrap();
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
