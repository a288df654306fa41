//! The compiled contract gate, the named CI tier for the plan-time fused
//! kernels. What it pins down:
//!
//! 1. **Bit-identity** — for every generated case on a pruned arm (all
//!    seven `DbQuery` variants, the grid's layouts, the served one
//!    included, over generated and adversarial tables — {uniform,
//!    zipf(1.0), zipf(1.5), single-hot-key}), a run on the other backend
//!    of the same routed layout produces *exactly* the same output. Not
//!    "equivalent": the kernels rebuild the same hashed state from the
//!    same seeds, so every verdict — and therefore every survivor and
//!    every merged row — must match. Every case is first held to
//!    `common::check`, the baseline's answer included.
//! 2. **Deterministic pruning counters** — `seen`/`pruned`/`forwarded`
//!    and `entries_to_master` are unchanged between backends, shard by
//!    shard. A kernel that forwards the right rows for the wrong reasons
//!    (different prune pattern, same survivors after dedup) fails here.
//! 3. **Honest attribution** — the breakdown of a compiled run records
//!    `ExecBackend::Compiled` where the family has a kernel (filter,
//!    DISTINCT, GROUP BY, SKYLINE) and `Interpreted` where it has none
//!    (TOP N, JOIN, HAVING), or where no unit held a row, so no engine ran;
//!    the oracle records `Interpreted`. The counters
//!    gate (`counters_contract`) pins this field row by row.

mod common;

use common::{all_seven, for_each_case, run_barrier, Gate, ADVERSARIES, INTERPRETER_ONLY};

use cheetah_db::{ChooserArm, Cluster, DbQuery, ExecBackend, ExecPath};
use cheetah_runtime::{execute, ExecRun};
use cheetah_workloads::PlannerAdversary;
use std::sync::Arc;

/// One routed layout run on both backends: assert output and counter
/// identity, shard by shard, and which engine each run says ran.
fn assert_backends_agree(q: &DbQuery, i: &ExecRun, c: &ExecRun) {
    assert_eq!(i.output, c.output, "output diverged");
    assert_eq!(i.switch_stats, c.switch_stats, "counters diverged");
    assert_eq!(i.breakdown.entries_to_master, c.breakdown.entries_to_master, "survivors");
    // Shard by shard, not just in aggregate: a kernel that prunes the
    // right total from the wrong shards still fails. Only the
    // deterministic fields — ShardStats also carries wall-clock seconds.
    assert_eq!(i.per_shard.len(), c.per_shard.len());
    for (s, (is_, cs)) in i.per_shard.iter().zip(&c.per_shard).enumerate() {
        let fields = |x: &cheetah_db::ShardStats| {
            (x.rows, x.seen, x.pruned, x.entries_to_master, x.master_wire_bytes)
        };
        assert_eq!(fields(is_), fields(cs), "shard {s}: rows, seen, pruned, survivors, bytes");
    }
    assert_eq!(i.breakdown.backend, ExecBackend::Interpreted);
    // With every unit empty no engine ran at all.
    let idle = c.per_shard.iter().all(|s| s.rows == 0);
    let interp = idle || INTERPRETER_ONLY.contains(&q.kind());
    let ran = if interp { ExecBackend::Interpreted } else { ExecBackend::Compiled };
    assert_eq!(c.breakdown.backend, ran);
}

#[test]
fn compiled_kernels_are_bit_identical_to_the_interpreter() {
    for_each_case("compiled_contract", Gate::Exec, &ADVERSARIES, 30, |case, ran| {
        // The direct arm runs no engine: there is no pair to compare.
        let Some((plan, run)) = &ran.exec else { return };
        let arm = common::ARMS[case.arm];
        if arm.path == ExecPath::Direct {
            return;
        }
        let other = match arm.backend {
            ExecBackend::Interpreted => ExecBackend::Compiled,
            ExecBackend::Compiled => ExecBackend::Interpreted,
        };
        let twin = execute(&ran.cluster, plan, ChooserArm { backend: other, ..arm }, None).unwrap();
        match arm.backend {
            ExecBackend::Interpreted => assert_backends_agree(&ran.q, run, &twin),
            ExecBackend::Compiled => assert_backends_agree(&ran.q, &twin, run),
        }
    });
}

#[test]
fn compiled_backend_is_recorded_end_to_end() {
    // The honest-attribution clause on its own, over a bigger table, so a
    // future fallback path can't silently misreport what ran.
    let (cluster, compiled) = (Cluster::default(), ExecBackend::Compiled);
    let t = Arc::new(PlannerAdversary::Zipf(1.5).table(2_000, 4, 0xBEEF));
    let q = DbQuery::Distinct { col: 0 };
    let run = cluster.run_cheetah(&q, &t, None, compiled).unwrap();
    assert_eq!(run.breakdown.backend, ExecBackend::Compiled);
    assert_eq!(run.breakdown.backend.label(), "compiled");
    let sharded = run_barrier(&cluster, compiled, &q, &t, None, 4);
    assert_eq!(sharded.breakdown.backend, ExecBackend::Compiled);

    // JOIN has no kernel: asked for the compiled backend, it answers like
    // the oracle and says the interpreter ran — unsharded and sharded.
    let join = DbQuery::Join { left_key: 0, right_key: 0 };
    let r = Arc::new(PlannerAdversary::Zipf(1.0).table(1_000, 2, 0xFEED));
    let want = cluster.run_baseline(&join, &t, Some(&r)).output;
    let run = cluster.run_cheetah(&join, &t, Some(&r), compiled).unwrap();
    assert_eq!(run.output, want);
    assert_eq!(run.breakdown.backend, ExecBackend::Interpreted);
    let sharded = run_barrier(&cluster, compiled, &join, &t, Some(&r), 4);
    assert_eq!(sharded.output, want);
    assert_eq!(sharded.breakdown.backend, ExecBackend::Interpreted);
}

#[test]
fn compiled_repeat_runs_are_deterministic() {
    // Same cluster, same tables: the kernels rebuild identical state, so
    // two compiled runs must agree with each other bit for bit too.
    let (cluster, compiled) = (Cluster::default(), ExecBackend::Compiled);
    let t = PlannerAdversary::SingleHotKey.table(1_200, 3, 42);
    for q in all_seven(9_000) {
        if q.is_binary() {
            continue;
        }
        let a = cluster.run_cheetah(&q, &t, None, compiled).unwrap();
        let b = cluster.run_cheetah(&q, &t, None, compiled).unwrap();
        assert_eq!(a.output, b.output, "{}", q.kind());
        assert_eq!(a.switch_stats, b.switch_stats, "{}", q.kind());
    }
}
