//! The crossover scale-sweep: *at how many shards does parallel
//! execution beat running the query unsharded?*
//!
//! Three representative families run over the context's shard axis on
//! the persistent worker pool — requests pushed through the `Session`
//! front door, pinned to the interpreted barrier path at each swept
//! shard count, with the session's layout cache playing the
//! resident-data role (a warm-up request routes each layout outside the
//! timed region: in deployment every worker holds its slice from ingest
//! on, so the shuffle is not query latency). Every point reports two
//! numbers side by side:
//!
//! * **modelled completion** — [`ExecBreakdown::completion_seconds`], the
//!   Figure 8 stacked-phase model at a fixed link rate, whose worker
//!   phase is the *max* of the per-shard measured times. It is what a
//!   cluster with one core per shard would see, and the `<- first win`
//!   mark is read off it.
//! * **measured wall** — what this machine's clock saw, shards
//!   time-sliced onto however many cores it has — once pruned, once on
//!   the direct arm (the same layout pinned `.path(Direct)`: no switch
//!   program, the operator's completion over every row), so the serving
//!   plane's go-direct verdicts can be checked against a measurement
//!   with one command.
//!
//! The two disagree wherever the box has fewer idle cores than shards,
//! so this is a report, not a gate: the model is a finding to be checked
//! against the measured column, and wall-clock regressions are the
//! business of the `cheetah-ledger` benchmark alone.

use crate::report::secs;
use crate::{skewed_tables, Report, RunCtx, Scale};
use cheetah_db::{Cluster, DbQuery, ExecBackend, ExecPath};
use cheetah_net::ExecBreakdown;
use cheetah_serve::{QueryRequest, Session, SessionConfig};
use std::sync::Arc;
use std::time::Instant;

/// Link rate the modelled completion is evaluated at (Gbit/s) — the
/// paper's 10G rack fabric.
const LINK_GBPS: f64 = 10.0;

/// One swept point of one family, best of the repetitions by wall clock.
struct Point {
    shards: usize,
    completion_seconds: f64,
    wall_seconds: f64,
    /// The same layout, same repetitions, pinned to the direct arm.
    direct_wall_seconds: f64,
}

/// One family's sweep: its name, its input rows (both streams) and one
/// point per swept shard count, in axis order.
struct Sweep {
    name: &'static str,
    input_rows: usize,
    points: Vec<Point>,
}

/// Sweep each family over `shard_axis`, best-of-`reps` per point. Pinned
/// requests consult no planner, so every repetition of a point runs
/// the same layout on the same arm.
fn sweep(rows: usize, reps: usize, shard_axis: &[usize]) -> Vec<Sweep> {
    let (left, right) = skewed_tables(rows, 42);
    let session = Session::new(Cluster::default(), SessionConfig::default());
    let families = [
        ("distinct", DbQuery::Distinct { col: 0 }),
        ("groupby-max", DbQuery::GroupByMax { key_col: 0, val_col: 1 }),
        ("join", DbQuery::Join { left_key: 0, right_key: 0 }),
    ];
    let mut sweeps = Vec::new();
    for (name, q) in families {
        let mut points = Vec::with_capacity(shard_axis.len());
        for &shards in shard_axis {
            let pinned = |path| {
                let req = QueryRequest::new(q.clone(), Arc::clone(&left))
                    .tenant("crossover")
                    .path(path)
                    .backend(ExecBackend::Interpreted)
                    .shards(shards);
                if q.is_binary() {
                    req.with_right(Arc::clone(&right))
                } else {
                    req
                }
            };
            // Warm-up: routes and caches this (family, shard count)
            // layout — both arms run off it — so the timed reps pay
            // execution only.
            session.run_blocking(pinned(ExecPath::BarrierPooled)).expect("plan fits");
            let best_of = |path| {
                let mut best: Option<(f64, ExecBreakdown)> = None;
                for _ in 0..reps.max(1) {
                    let t0 = Instant::now();
                    let resp = session.run_blocking(pinned(path)).expect("plan fits");
                    let wall = t0.elapsed().as_secs_f64();
                    if best.as_ref().is_none_or(|(w, _)| wall < *w) {
                        best = Some((wall, resp.breakdown));
                    }
                }
                best.expect("at least one rep")
            };
            let (wall_seconds, breakdown) = best_of(ExecPath::BarrierPooled);
            let (direct_wall_seconds, _) = best_of(ExecPath::Direct);
            points.push(Point {
                shards,
                completion_seconds: breakdown.completion_seconds(LINK_GBPS),
                wall_seconds,
                direct_wall_seconds,
            });
        }
        let input_rows = left.rows() + if q.is_binary() { right.rows() } else { 0 };
        sweeps.push(Sweep { name, input_rows, points });
    }
    sweeps
}

/// The smallest swept shard count above 1 whose modelled completion is
/// strictly below the 1-shard point's.
fn find_crossover(points: &[Point]) -> Option<usize> {
    let single = points.iter().find(|p| p.shards == 1)?;
    points
        .iter()
        .filter(|p| p.shards > 1 && p.completion_seconds < single.completion_seconds)
        .map(|p| p.shards)
        .min()
}

/// Run the sweep over the context's shard axis.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let (rows, reps) = match ctx.scale {
        Scale::Quick => (6_000, 3),
        Scale::Full => (60_000, 5),
    };
    let mut report = Report::new(
        "crossover",
        format!("Where parallelism starts paying ({rows} rows, modelled {LINK_GBPS:.0}G link)"),
        &["family", "shards", "modelled completion", "wall", "direct wall", "ops/s", "crossover"],
    );
    for f in sweep(rows, reps, &ctx.shards) {
        let crossover = find_crossover(&f.points);
        for p in &f.points {
            let mark = if crossover == Some(p.shards) { "<- first win" } else { "" };
            report.row(vec![
                f.name.to_string(),
                p.shards.to_string(),
                secs(p.completion_seconds),
                secs(p.wall_seconds),
                secs(p.direct_wall_seconds),
                format!("{:.0}", f.input_rows as f64 / p.wall_seconds.max(1e-12)),
                mark.to_string(),
            ]);
        }
    }
    report.note(
        "first win = smallest shard count whose modelled completion beats 1 shard; the model's \
         worker phase is the max of per-shard measured times (one core per shard), the wall \
         column is this machine — where they disagree, the wall column is what happened",
    );
    report.note(
        "direct wall = the same layout pinned to the direct arm (no switch program; the \
         operator's completion over every row) — the measurement a go-direct verdict is \
         checked against (the wall column is the interpreted switch; unpinned \
         serving runs the compiled kernels where a family has one)",
    );
    report.note(
        "routing keys, sharder fitting, and the shard split are hoisted out of the \
         timed region — workers hold their slices resident, as in deployment",
    );
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_one_row_per_family_and_shard() {
        let mut ctx = RunCtx::quick();
        ctx.shards = vec![1, 2];
        let reports = run(&ctx);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].rows.len(), 3 * 2);
    }

    #[test]
    fn crossover_is_the_smallest_winning_shard_count() {
        let point = |shards, completion_seconds| Point {
            shards,
            completion_seconds,
            wall_seconds: 1.0,
            direct_wall_seconds: 1.0,
        };
        let points = [point(1, 1.0), point(2, 1.2), point(4, 0.7), point(8, 0.6)];
        assert_eq!(find_crossover(&points), Some(4));
        assert_eq!(find_crossover(&points[..2]), None);
        assert_eq!(find_crossover(&points[1..]), None, "no 1-shard reference, no crossover");
    }
}
