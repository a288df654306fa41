//! The compiled contract gate, the named CI tier for the plan-time fused
//! kernels. What it pins down:
//!
//! 1. **Bit-identity** — for **all seven** `DbQuery` variants across the
//!    adversarial workload family ({uniform, zipf(1.0), zipf(1.5),
//!    single-hot-key}) on every layout of the grid — the planner's fitted
//!    one included, which warm traffic runs compiled — a run on the compiled
//!    backend produces *exactly* the interpreted oracle's output. Not
//!    "equivalent": the kernels rebuild the same hashed state from the
//!    same seeds, so every verdict — and therefore every survivor and
//!    every merged row — must match. The walk holds every run, the oracle
//!    included, to the grid's baseline and planner facts, so it is also
//!    the planner contract for the default planner on these tables.
//! 2. **Deterministic pruning counters** — `seen`/`pruned`/`forwarded`
//!    and `entries_to_master` are unchanged between backends, shard by
//!    shard. A kernel that forwards the right rows for the wrong reasons
//!    (different prune pattern, same survivors after dedup) fails here.
//! 3. **Honest attribution** — the breakdown of a compiled run records
//!    `ExecBackend::Compiled` where the family has a kernel (filter,
//!    DISTINCT, GROUP BY, SKYLINE) and `Interpreted` where it has none
//!    (TOP N, JOIN, HAVING); the oracle records `Interpreted`. The counters
//!    gate (`counters_contract`) pins this field row by row.

mod common;

use common::{all_seven, for_each_exec_case, run_barrier};

use cheetah_core::ShardPartitioner;
use cheetah_db::{Cluster, DbQuery, ExecBackend, ExecPath, ShardPlanner, ShardSpec};
use cheetah_runtime::ExecRun;
use cheetah_workloads::PlannerAdversary;
use std::sync::Arc;

/// The families whose switch program has no compiled kernel: asked for
/// the compiled backend, they run the interpreter.
const INTERPRETER_ONLY: [&str; 3] = ["topn", "join", "having-sum"];

/// One grid point run on both backends: assert counter identity (the grid
/// itself already held both outputs to the baseline).
fn assert_backends_agree(q: &DbQuery, i: &ExecRun, c: &ExecRun, label: &str) {
    assert_eq!(i.output, c.output, "output diverged: {label}");
    assert_eq!(i.switch_stats, c.switch_stats, "counters diverged: {label}");
    assert_eq!(
        i.breakdown.entries_to_master, c.breakdown.entries_to_master,
        "survivor count diverged: {label}"
    );
    // Shard by shard, not just in aggregate: a kernel that prunes the
    // right total from the wrong shards still fails. Only the
    // deterministic fields — ShardStats also carries wall-clock seconds.
    for (s, (is_, cs)) in i.per_shard.iter().zip(&c.per_shard).enumerate() {
        let ctx = format!("shard {s} of {label}");
        assert_eq!(is_.rows, cs.rows, "rows diverged: {ctx}");
        assert_eq!(is_.seen, cs.seen, "seen diverged: {ctx}");
        assert_eq!(is_.pruned, cs.pruned, "pruned diverged: {ctx}");
        assert_eq!(is_.entries_to_master, cs.entries_to_master, "survivors diverged: {ctx}");
        assert_eq!(is_.master_wire_bytes, cs.master_wire_bytes, "bytes diverged: {ctx}");
    }
    assert_eq!(i.breakdown.backend, ExecBackend::Interpreted, "{label}");
    let interp = INTERPRETER_ONLY.contains(&q.kind());
    let ran = if interp { ExecBackend::Interpreted } else { ExecBackend::Compiled };
    assert_eq!(c.breakdown.backend, ran, "{label}");
}

#[test]
fn compiled_kernels_are_bit_identical_across_the_adversarial_family() {
    let planner = ShardPlanner::default();
    for adv in PlannerAdversary::all() {
        let left = Arc::new(adv.table(900, 3, 0x5EED));
        let right = Arc::new(adv.table(450, 2, 0x5EED ^ 0xFACE));
        // The grid runs each point's interpreted oracle right before its
        // compiled twin: hold the former, compare when the latter lands.
        let mut oracle: Option<ExecRun> = None;
        let name = adv.name();
        for_each_exec_case(&left, &right, 9_000, &planner, &name, |case, run| match case.backend {
            // The direct arm runs no engine: there is no pair to compare.
            _ if case.path == ExecPath::Direct => {}
            ExecBackend::Interpreted => oracle = Some(run.clone()),
            ExecBackend::Compiled => {
                let i = oracle.take().expect("the oracle runs first");
                assert_backends_agree(&case.q, &i, run, &case.label);
            }
        });
    }
}

#[test]
fn compiled_backend_is_recorded_end_to_end() {
    // The honest-attribution clause on its own, over a bigger table, so a
    // future fallback path can't silently misreport what ran.
    let compiled = Cluster::default().with_backend(ExecBackend::Compiled);
    let t = Arc::new(PlannerAdversary::Zipf(1.5).table(2_000, 4, 0xBEEF));
    let q = DbQuery::Distinct { col: 0 };
    let run = compiled.run_cheetah(&q, &t, None).unwrap();
    assert_eq!(run.breakdown.backend, ExecBackend::Compiled);
    assert_eq!(run.breakdown.backend.label(), "compiled");
    let spec = ShardSpec::new(4, ShardPartitioner::Range);
    let sharded = run_barrier(&compiled, &q, &t, None, spec);
    assert_eq!(sharded.breakdown.backend, ExecBackend::Compiled);

    // JOIN has no kernel: asked for the compiled backend, it answers like
    // the oracle and says the interpreter ran — unsharded and sharded.
    let join = DbQuery::Join { left_key: 0, right_key: 0 };
    let r = Arc::new(PlannerAdversary::Zipf(1.0).table(1_000, 2, 0xFEED));
    let want = compiled.run_baseline(&join, &t, Some(&r)).output;
    let run = compiled.run_cheetah(&join, &t, Some(&r)).unwrap();
    assert_eq!(run.output, want);
    assert_eq!(run.breakdown.backend, ExecBackend::Interpreted);
    let sharded = run_barrier(&compiled, &join, &t, Some(&r), spec);
    assert_eq!(sharded.output, want);
    assert_eq!(sharded.breakdown.backend, ExecBackend::Interpreted);
}

#[test]
fn compiled_repeat_runs_are_deterministic() {
    // Same cluster, same tables: the kernels rebuild identical state, so
    // two compiled runs must agree with each other bit for bit too.
    let compiled = Cluster::default().with_backend(ExecBackend::Compiled);
    let t = PlannerAdversary::SingleHotKey.table(1_200, 3, 42);
    for q in all_seven(9_000) {
        if q.is_binary() {
            continue;
        }
        let a = compiled.run_cheetah(&q, &t, None).unwrap();
        let b = compiled.run_cheetah(&q, &t, None).unwrap();
        assert_eq!(a.output, b.output, "{}", q.kind());
        assert_eq!(a.switch_stats, b.switch_stats, "{}", q.kind());
    }
}
