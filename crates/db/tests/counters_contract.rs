//! Pruning counters gate: for a fixed seed, how many entries the switch
//! prunes, how many survivors the master sees, and which backend did the
//! pruning are *exact* numbers, on every execution path.
//!
//! The other contract gates prove every path answers like the baseline;
//! this one pins how much work the switch took off the wire to get
//! there. A one-entry drift in pruning quality (a changed hash seed, a
//! resized matrix, a layout that moved a row) or a compiled run that
//! silently fell back to the interpreter fails here — with no tolerance
//! and no timer, so it fails the same way on every machine.
//!
//! Seventeen rows over one skewed table pair: each of the seven families
//! unsharded through [`Cluster::run_cheetah`]; three representative
//! families × three sharded forms through [`ExecPlan`] + [`execute`]
//! (`@shards4` = fixed hash layout on the barrier transport,
//! `@compiled` = the same plan asked to run the fused kernels — JOIN has
//! none, so its row reads `INTERP` — `@faulty` = the `@shards4` plan in
//! fault mode, every row it reads carried across a harsh lossy rack; the
//! layout the serving plane holds for these tables is one unit, so it has
//! no row of its own); and one pinned request through the [`Session`]
//! front door. Neither a backend
//! nor a lossy rack may move what the switch prunes: the one changes how
//! the switch program is executed, the other how entries reach the master.
//! A lossy rack may deliver more — a pruned entry whose ACK was lost comes
//! through stale — never fewer than the survivors. Beside the golden
//! rows, each sharded family runs once `@direct` — no switch program — and
//! is held to the pass-through identity instead of a golden figure.

mod common;

use cheetah_core::ShardPartitioner;
use cheetah_db::{Cluster, DbPredicate, DbQuery, ExecBackend, ExecPath, IntCmp, ShardSpec};
use cheetah_net::FaultProfile;
use cheetah_runtime::{execute, ExecPlan};
use cheetah_serve::{QueryRequest, Session};
use cheetah_workloads::SkewedTableConfig;
use std::sync::Arc;

const SHARDS: usize = 4;
const INTERP: ExecBackend = ExecBackend::Interpreted;
const COMPILED: ExecBackend = ExecBackend::Compiled;

/// `(row, entries pruned at the switch, entries to the master, backend)`.
type Row = (&'static str, u64, u64, ExecBackend);

const GOLDEN: [Row; 17] = [
    ("filter-count", 5387, 613, INTERP),
    ("distinct", 5801, 199, INTERP),
    ("topn", 24, 5976, INTERP),
    ("groupby-max", 5357, 643, INTERP),
    ("having-sum", 5988, 3146, INTERP),
    ("skyline", 5500, 500, INTERP),
    ("join", 9002, 8998, INTERP),
    ("distinct@shards4", 5801, 199, INTERP),
    ("distinct@compiled", 5801, 199, COMPILED),
    ("distinct@faulty", 5801, 1988, INTERP),
    ("groupby-max@shards4", 5357, 643, INTERP),
    ("groupby-max@compiled", 5357, 643, COMPILED),
    ("groupby-max@faulty", 5357, 2343, INTERP),
    ("join@shards4", 9002, 8998, INTERP),
    ("join@compiled", 9002, 8998, INTERP),
    ("join@faulty", 9002, 8998, INTERP),
    ("burst@serving", 5801, 199, INTERP),
];

#[test]
fn pruning_counters_match_the_golden_table_exactly() {
    let left = Arc::new(
        SkewedTableConfig {
            rows: 6_000,
            partitions: 4,
            partition_skew: 0.6,
            keys: 200,
            key_skew: 1.0,
            seed: 42,
        }
        .build(),
    );
    let right = Arc::new(
        SkewedTableConfig {
            rows: 3_000,
            partitions: 2,
            partition_skew: 0.4,
            keys: 200,
            key_skew: 0.8,
            seed: 42 ^ 0xFACE,
        }
        .build(),
    );
    let cluster = Cluster::default();
    let compiled = cluster.clone().with_backend(COMPILED);
    let distinct = DbQuery::Distinct { col: 0 };
    let groupby = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    let join = DbQuery::Join { left_key: 0, right_key: 0 };
    let mut seen: Vec<(String, u64, u64, ExecBackend)> = Vec::new();

    let filter = DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 90_000 };
    for (name, q) in [
        ("filter-count", DbQuery::FilterCount { pred: filter }),
        ("distinct", distinct.clone()),
        ("topn", DbQuery::TopN { order_col: 1, n: 64 }),
        ("groupby-max", groupby.clone()),
        ("having-sum", DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: 40_000 }),
        ("skyline", DbQuery::Skyline { cols: vec![1, 2] }),
        ("join", join.clone()),
    ] {
        let right_of = q.is_binary().then_some(&*right);
        let run = cluster.run_cheetah(&q, &left, right_of).expect("plan fits");
        let b = run.breakdown;
        seen.push((name.to_string(), run.switch_stats.pruned, b.entries_to_master, b.backend));
    }

    for (family, q) in [("distinct", &distinct), ("groupby-max", &groupby), ("join", &join)] {
        let right_of = q.is_binary().then_some(&right);
        let fixed = ShardSpec::new(SHARDS, ShardPartitioner::Hash);
        let plan = ExecPlan::new(&cluster, q, &left, right_of, fixed).expect("routes");
        let faulty = cluster.clone().with_fault(FaultProfile::harsh(), 0xC0FFEE);
        // The layout the serving plane holds for these tables is one unit,
        // the tables themselves: its row would repeat the unsharded one.
        assert_eq!(common::served(q, &left, right_of.map(|r| &**r)).shards, 1, "{family}");
        let barrier = ExecPath::BarrierPooled;
        let runs = [
            ("shards4", execute(&cluster, &plan, barrier).expect("plan fits")),
            ("compiled", execute(&compiled, &plan, barrier).expect("plan fits")),
            ("faulty", execute(&faulty, &plan, barrier).expect("plan fits")),
        ];
        for (form, run) in &runs {
            let b = &run.breakdown;
            let name = format!("{family}@{form}");
            seen.push((name, run.switch_stats.pruned, b.entries_to_master, b.backend));
        }
        // `@direct`: the same layout with no switch program at all. Not a
        // golden row — what it ships is its shards' outputs, not what a
        // switch let through — but an identity, asserted: a pass-through
        // switch sees and forwards exactly the partials' result rows,
        // shard by shard, prunes nothing, and no engine is named.
        let direct = execute(&compiled, &plan, ExecPath::Direct).expect("runs");
        assert_eq!(direct.output, runs[0].1.output, "{family}@direct");
        let (stats, b) = (direct.switch_stats, &direct.breakdown);
        assert_eq!((stats.pruned, b.backend), (0, INTERP), "{family}@direct");
        assert_eq!((stats.seen, stats.forwarded), (b.entries_to_master, b.entries_to_master));
        for s in &direct.per_shard {
            assert_eq!((s.seen, s.pruned), (s.entries_to_master, 0), "{family}@direct");
        }
        // Key-aligned routing makes the partials disjoint, so a keyed
        // family's result rows add up to the answer's; this JOIN fans out
        // (its pairs outnumber its rows), so every shard ships its inputs.
        let rows = (left.rows() + right_of.map_or(0, |r| r.rows())) as u64;
        let want = if q.is_binary() { rows } else { direct.output.result_rows() };
        assert_eq!(b.entries_to_master, want, "{family}@direct");
        assert!(direct.output.result_rows() > rows || !q.is_binary(), "fixture: a fan-out join");
    }

    // Pinned requests skip the plan cache, so the serving plane's
    // counters are as deterministic as the executor's.
    let resp = Session::with_defaults()
        .run_blocking(
            QueryRequest::new(distinct, Arc::clone(&left))
                .path(ExecPath::BarrierPooled)
                .backend(INTERP)
                .shards(SHARDS),
        )
        .expect("plan fits");
    let b = resp.breakdown;
    seen.push(("burst@serving".into(), resp.switch_stats.pruned, b.entries_to_master, b.backend));

    assert_eq!(seen.len(), GOLDEN.len());
    for ((name, pruned, to_master, backend), want) in seen.iter().zip(&GOLDEN) {
        assert_eq!((name.as_str(), *pruned, *to_master, *backend), *want);
    }
    // Asking for the fused kernels never changes what is pruned, and
    // neither does a lossy rack between the shards and the master, which
    // delivers at least the survivors.
    for family in ["distinct", "groupby-max", "join"] {
        let row = |form: &str| {
            let name = format!("{family}@{form}");
            GOLDEN.iter().find(|r| r.0 == name).map(|r| (r.1, r.2)).expect("row present")
        };
        assert_eq!(row("compiled"), row("shards4"), "{family}");
        let (faulty, lossless) = (row("faulty"), row("shards4"));
        assert_eq!(faulty.0, lossless.0, "{family}");
        assert!(faulty.1 >= lossless.1, "{family}");
    }
}
