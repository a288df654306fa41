//! The shard sweep: how many shards, and does pruning pay there?
//!
//! Not a paper figure — the paper measures a fixed five-worker rack — but
//! the axis its deployment (§2) implies: each shard's rows are pruned at
//! its own switch and the master completes the query, so adding shards
//! shrinks the slowest worker while the master merges more streams (the
//! §4.6 analysis). The seven Big Data queries run over the benchmark's
//! own table generator ([`BigDataConfig`]; its tables at `--full`). Per
//! family every layout — one shard, hash and range at each count of the
//! `--shards` axis above one, and the layout the serving plane holds for a
//! returning unpinned key (`served:range@N`: the one shard-count rule,
//! [`units`]) — is routed through [`ExecPlan::new`], the program's route,
//! on its own clock (best of the reps, per row of both streams' input; a
//! one-shard layout is the caller's table and copies nothing), and
//! [`execute`] is timed on two arms of the last routed plan (resident
//! workers hold their slices):
//!
//! * **pruned** — the barrier transport on the compiled backend, which is
//!   what a request pinned to the pruned arm runs with no backend pinned
//!   (TOP N, JOIN and HAVING have no kernel and run the interpreter either
//!   way);
//! * **direct** — no switch program, the operator's completion over every
//!   row: the unaccelerated plan, and what every unpinned request runs.
//!
//! Beside both clocks each row prints the Figure 8 stacked-phase model,
//! whose worker phase is the slowest shard's (a core per shard), and the
//! §4.6 master-ingest model. Where a model and the clock disagree, the
//! clock is what this machine did: a finding, not a verdict. Outputs are
//! asserted equal to the baseline's; wall clock is reported, never
//! asserted.

use crate::report::secs;
use crate::{Report, RunCtx};
use cheetah_core::ShardPartitioner;
use cheetah_db::planner::{units, ROWS_PER_UNIT};
use cheetah_db::{Cluster, ExecBackend, ExecPath, QueryOutput, ShardSpec};
use cheetah_net::MasterIngestModel;
use cheetah_runtime::{execute, ExecPlan, ExecRun, WorkerPool};
use cheetah_workloads::BigDataConfig;
use std::sync::Arc;
use std::time::Instant;

/// Link rate the modelled completion is evaluated at (Gbit/s): the
/// paper's 10G rack fabric.
const LINK_GBPS: f64 = 10.0;

/// Run `plan` on `path` `reps` times, asserting every output equal to
/// `want`; the fastest run by wall, with its wall.
fn best_of(
    cluster: &Cluster,
    plan: &ExecPlan,
    path: ExecPath,
    reps: usize,
    want: &QueryOutput,
) -> (ExecRun, f64) {
    let mut best: Option<(ExecRun, f64)> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let run = execute(cluster, plan, path).expect("plan fits");
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(
            &run.output,
            want,
            "{} {}: diverged from the baseline",
            plan.query().kind(),
            path.label()
        );
        if best.as_ref().is_none_or(|(_, w)| wall < *w) {
            best = Some((run, wall));
        }
    }
    best.expect("at least one rep")
}

/// The smallest shard count above one whose seconds are strictly below
/// the one-shard point's, over `(shards, seconds)` points.
fn find_crossover(points: &[(usize, f64)]) -> Option<usize> {
    let (_, single) = *points.iter().find(|(n, _)| *n == 1)?;
    points.iter().filter(|&&(n, s)| n > 1 && s < single).map(|&(n, _)| n).min()
}

/// The worst fixed layout `(label, wall)`, when the served layout's
/// `served` wall exceeds it.
fn slower_than_worst(served: f64, fixed: &[(String, f64)]) -> Option<&(String, f64)> {
    fixed.iter().max_by(|a, b| a.1.total_cmp(&b.1)).filter(|(_, worst)| served > *worst)
}

/// The fastest of `(label, wall)` points, as `label (wall)`.
fn fastest(points: &[(String, f64)]) -> String {
    let (label, wall) = points.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("a layout");
    format!("{label} ({})", secs(*wall))
}

fn shard_count(n: Option<usize>) -> String {
    n.map_or("none".into(), |n| n.to_string())
}

/// Build the sweep.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let rows = ctx.scale.entries(20_000, 600_000);
    let reps = ctx.scale.entries(3, 5);
    let bd = BigDataConfig {
        uservisits_rows: rows,
        rankings_rows: rows / 2,
        // A quarter of the visits hit a ranked page, as in the benchmark.
        url_universe: Some(rows * 2),
        ..BigDataConfig::default()
    };
    let (rankings, uservisits) = (Arc::new(bd.rankings()), Arc::new(bd.uservisits()));
    let cluster = Cluster::default().with_backend(ExecBackend::Compiled);
    let workers = WorkerPool::global().workers();

    let mut r = Report::new(
        "shards",
        format!("Shard sweep: seven Big Data queries, pruned and direct ({LINK_GBPS:.0}G model)"),
        &[
            "family",
            "layout",
            "route ns/row",
            "modelled completion",
            "worker",
            "master",
            "ingest model",
            "pruned wall",
            "direct wall",
            "entries to master",
            "max shard rows",
        ],
    );
    for (q, left, right) in bd.queries(&rankings, &uservisits) {
        let name = q.kind();
        let want = cluster.run_baseline(&q, left, right.map(|t| &**t)).output;
        let rows_in = left.rows() + right.map_or(0, |t| t.rows());
        let mut layouts = vec![("whole@1".to_string(), ShardSpec::new(1, ShardPartitioner::Hash))];
        for &n in ctx.shards.iter().filter(|&&n| n > 1) {
            for partitioner in [ShardPartitioner::Hash, ShardPartitioner::Range] {
                let label = format!("{}@{n}", partitioner.name());
                layouts.push((label, ShardSpec::new(n, partitioner)));
            }
        }
        let served = units(&q, left, right.map(|t| &**t), workers);
        let served_label = format!("served:range@{served}");
        layouts.push((served_label.clone(), ShardSpec::new(served, ShardPartitioner::Range)));

        // (shards, seconds) per layout for the first wins; (label, wall)
        // per layout for the fastest and the SLOWER rule.
        let (mut modelled, mut pruned, mut direct) = (Vec::new(), Vec::new(), Vec::new());
        for (label, spec) in layouts {
            // The program's route, best of reps by wall; the last plan runs.
            let (mut routed, mut route_wall) = (None, f64::INFINITY);
            for _ in 0..reps {
                let t0 = Instant::now();
                let plan = ExecPlan::new(&cluster, &q, left, right, spec).expect("routes");
                route_wall = route_wall.min(t0.elapsed().as_secs_f64());
                routed = Some(plan);
            }
            let layout = routed.expect("at least one rep");
            let (run, pruned_wall) =
                best_of(&cluster, &layout, ExecPath::BarrierPooled, reps, &want);
            let (_, direct_wall) = best_of(&cluster, &layout, ExecPath::Direct, reps, &want);
            let b = &run.breakdown;
            let entries: Vec<u64> = run.per_shard.iter().map(|s| s.entries_to_master).collect();
            let completion = b.completion_seconds(LINK_GBPS);
            r.row(vec![
                name.to_string(),
                label.clone(),
                format!("{:.1}", route_wall * 1e9 / rows_in as f64),
                secs(completion),
                secs(b.worker_seconds),
                secs(b.master_seconds),
                secs(MasterIngestModel::default_rack().blocking_latency_sharded(&entries)),
                secs(pruned_wall),
                secs(direct_wall),
                b.entries_to_master.to_string(),
                run.per_shard.iter().map(|s| s.rows).max().unwrap_or(0).to_string(),
            ]);
            modelled.push((layout.shards(), completion));
            pruned.push((label.clone(), pruned_wall));
            direct.push((label, direct_wall));
        }

        let walls = |points: &[(String, f64)]| -> Vec<(usize, f64)> {
            modelled.iter().zip(points).map(|(&(n, _), &(_, w))| (n, w)).collect()
        };
        r.note(format!(
            "{name}: first win over one shard by the model {}, by the pruned wall {}, by the \
             direct wall {}; fastest pruned {}, fastest direct {}",
            shard_count(find_crossover(&modelled)),
            shard_count(find_crossover(&walls(&pruned))),
            shard_count(find_crossover(&walls(&direct))),
            fastest(&pruned),
            fastest(&direct),
        ));
        // The served layout runs last, and unpinned traffic runs it direct.
        let (_, served_wall) = direct.last().expect("the served layout runs last");
        let fixed = &direct[..direct.len() - 1];
        if let Some((worst, worst_wall)) = slower_than_worst(*served_wall, fixed) {
            r.note(format!(
                "SLOWER: {name} {served_label} direct wall {:.2}× the worst fixed layout {worst}",
                served_wall / worst_wall
            ));
        }
    }
    r.note(format!(
        "uservisits {} rows, rankings {} rows (the benchmark's BigDataConfig); best of {reps} \
         by wall around ExecPlan::new per layout and around execute per arm; every output \
         asserted equal to run_baseline's",
        uservisits.rows(),
        rankings.rows()
    ));
    r.note(
        "pruned = barrier transport, compiled backend; direct = the same routed layout with no \
         switch program; modelled completion = Figure 8 phases at 10G, whose worker phase is the \
         slowest shard's (a core per shard); ingest model = §4.6 MasterIngestModel with shard \
         fan-in, arrival capped at 40 M/s",
    );
    r.note(
        "route ns/row = ExecPlan::new's wall per row of both streams' input: the query's columns \
         copied into one unit per shard, its string key coded against one dictionary per shard; \
         whole@1 is the caller's table itself and copies nothing",
    );
    r.note(format!(
        "out of the clock: the front door (the ledger measures it: serve.floor_us, ~11 µs on a \
         2-core box); no CPU clock, so on this machine's {} cores a layout wider than the pool \
         queues its extra shards inside the walls",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    r.note(format!(
        "served:range@N = what the serving plane holds for a returning unpinned key: both \
         streams' rows over {ROWS_PER_UNIT} per unit, at most two units per pool worker \
         ({workers} here), at least two for a JOIN on a string key the load rule left plain, cut \
         at the quantiles of its routing keys; its direct wall is what such a key's warm \
         requests run",
    ));
    r.note("a served direct wall above the worst fixed layout's prints a SLOWER note");
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use std::sync::OnceLock;

    /// One quick sweep over the axis 1, 4, shared by the tests below
    /// (`run` asserts every output against the baseline's).
    fn sweep() -> &'static Report {
        static REPORT: OnceLock<Report> = OnceLock::new();
        REPORT.get_or_init(|| run(&RunCtx { scale: Scale::Quick, shards: vec![1, 4] }).remove(0))
    }

    const FAMILIES: [&str; 7] =
        ["filter-count", "distinct", "skyline", "topn", "groupby-max", "join", "having-sum"];

    #[test]
    fn a_row_per_family_and_layout_plus_one_served_row() {
        let r = sweep();
        // 7 families × (one shard, hash@4, range@4, served).
        assert_eq!(r.rows.len(), 7 * 4);
        for family in FAMILIES {
            let rows: Vec<_> = r.rows.iter().filter(|row| row[0] == family).collect();
            assert_eq!(rows.len(), 4, "{family}");
            let served = rows.iter().filter(|row| row[1].starts_with("served:range@")).count();
            assert_eq!(served, 1, "{family}");
            // Both models and both walls on every row.
            assert!(rows.iter().all(|row| row[3..9].iter().all(|c| !c.is_empty())), "{rows:?}");
        }
    }

    #[test]
    fn every_row_carries_a_route_figure() {
        // Present and a number on every layout, whole@1 included; what it
        // reads is the machine's, so nothing here asserts its size.
        for row in &sweep().rows {
            let ns: f64 = row[2].parse().unwrap_or_else(|_| panic!("route ns/row: {row:?}"));
            assert!(ns.is_finite() && ns >= 0.0, "{row:?}");
        }
    }

    #[test]
    fn the_shard_axis_is_honoured() {
        for row in &sweep().rows {
            assert!(
                ["whole@1", "hash@4", "range@4"].contains(&row[1].as_str())
                    || row[1].starts_with("served:range@"),
                "{row:?}"
            );
        }
    }

    #[test]
    fn skew_makes_the_hottest_shard_exceed_the_mean() {
        // DISTINCT routes by userAgent, a zipf(1.2) column: its hottest of
        // four hash shards holds well over a quarter of the rows.
        let row = sweep().rows.iter().find(|row| row[0] == "distinct" && row[1] == "hash@4");
        let max_rows: u64 = row.expect("row")[10].parse().expect("a count");
        assert!(max_rows > 20_000 / 4, "hot shard {max_rows} of 20 000");
    }

    #[test]
    fn every_family_notes_its_first_wins() {
        let notes = &sweep().notes;
        for family in FAMILIES {
            let prefix = format!("{family}: ");
            let count = |what: &str| {
                notes.iter().filter(|n| n.starts_with(&prefix) && n.contains(what)).count()
            };
            assert_eq!(count("first win over one shard"), 1, "{family}: {notes:?}");
        }
    }

    #[test]
    fn crossover_is_the_smallest_winning_shard_count() {
        let points = [(1, 1.0), (2, 1.2), (4, 0.7), (8, 0.6)];
        assert_eq!(find_crossover(&points), Some(4));
        assert_eq!(find_crossover(&points[..2]), None);
        assert_eq!(find_crossover(&points[1..]), None, "no 1-shard reference, no crossover");
    }

    #[test]
    fn slower_compares_the_served_wall_with_the_worst_fixed_wall() {
        let fixed: Vec<(String, f64)> = [("whole@1", 2.0), ("hash@4", 3.0), ("range@4", 1.0)]
            .map(|(l, w)| (l.into(), w))
            .into();
        assert_eq!(slower_than_worst(3.5, &fixed), Some(&("hash@4".to_string(), 3.0)));
        // Slower than the best but not than the worst, or a tie: no note.
        assert_eq!(slower_than_worst(2.5, &fixed), None);
        assert_eq!(slower_than_worst(3.0, &fixed), None);
        assert_eq!(slower_than_worst(1.0, &[]), None);
    }
}
