//! The fabric gate: fault mode answers exactly whatever a lossy rack does
//! to the entries it carries, and the full stack survives a genuinely
//! harsh channel.
//!
//! Two layers, weakest assumption first:
//!
//! 1. **Exhaustive model checking** — [`cheetah_net::checker::explore`]
//!    enumerates *every* schedule in which 2 flows × 3 entries reach the
//!    master through the §7.2 roles: the switch processes each flow in
//!    sequence order, forwarding what the shard program kept and ACKing
//!    the rest, with one forwarded entry lost and resent, one duplicate,
//!    and one pruned entry forwarded stale after its ACK is lost. Each
//!    schedule's arrivals are deduped by a master per flow; the delivered
//!    set must lie between the kept rows and all rows, and completing the
//!    query over it must equal the baseline — for all seven families. The
//!    schedule count is bounded explicitly ([`MAX_SCHEDULES`]) and the gate
//!    asserts the search finished *under* it (`!truncated`), so the
//!    exhaustiveness claim is checked, not assumed.
//! 2. **Fault mode** — `execute` on a cluster in fault mode at 15% drop +
//!    15% corruption + duplication answers every generated case exactly,
//!    as its lossless run does, and the go-back-N resends are visible in
//!    `ExecBreakdown::retransmits` (a golden per family).

mod common;

use cheetah_core::{PassPlan, QuerySpec};
use cheetah_db::operators::{PruningOperator, Survivors};
use cheetah_db::{
    Cluster, DataType, DbQuery, ExecPath, Partition, QueryOutput, ShardPartitioner, ShardSpec,
    Table, TableBuilder, Tables, Value,
};
use cheetah_net::{explore, CheckerConfig, DeliveryKind, FaultProfile, MasterFlow};
use cheetah_runtime::{execute, ExecPlan};
use cheetah_switch::Verdict;
use common::{all_seven, gen_table};
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

/// Explicit schedule-count bound: 2 flows × 3 entries with one drop, one
/// duplication and one lost-ACK budget explore at most 56 440 schedules,
/// whatever the verdicts (10 380 with every entry forwarded); the gate
/// asserts the search completes under this ceiling.
const MAX_SCHEDULES: u64 = 60_000;

/// The engine's own operator ([`Cluster::lend_operator`]), also recording
/// what its run's switch kept: per (stream, partition), a verdict per row
/// — what a fault-mode switch replays.
struct Probe<'q> {
    op: &'q dyn PruningOperator,
    verdicts: RefCell<Vec<Vec<Verdict>>>,
}

impl PruningOperator for Probe<'_> {
    fn kind(&self) -> &'static str {
        self.op.kind()
    }
    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        self.op.spec()
    }
    fn streams(&self) -> usize {
        self.op.streams()
    }
    fn flow_id(&self, stream: usize) -> u32 {
        self.op.flow_id(stream)
    }
    fn pass_plan(&self) -> PassPlan {
        self.op.pass_plan()
    }
    fn encode_part(&self, stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        self.op.encode_part(stream, part, sink)
    }
    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        for s in 0..self.streams() {
            for (part, sel) in survivors.parts(src, s) {
                let mut v = vec![Verdict::Prune; part.rows()];
                sel.rows().for_each(|r| v[r] = Verdict::Forward);
                self.verdicts.borrow_mut().push(v);
            }
        }
        self.op.complete(src, survivors)
    }
}

/// `key, a, b` rows, a partition per slice.
fn table(parts: &[&[(&str, i64, i64)]]) -> Table {
    let fields = vec![
        ("key".into(), DataType::Str),
        ("a".into(), DataType::Int),
        ("b".into(), DataType::Int),
    ];
    let mut b = TableBuilder::new("t", fields, 64);
    for (i, rows) in parts.iter().enumerate() {
        if i > 0 {
            b.cut_partition();
        }
        for &(k, a, bb) in rows.iter() {
            b.push_row([Value::Str(k.into()), Value::Int(a), Value::Int(bb)]);
        }
    }
    b.build()
}

/// The rows of `t`'s partitions that `delivered` (flow `first + p`,
/// sequence from 1) holds, a partition per flow.
fn delivered_rows(t: &Table, first: usize, delivered: &[(usize, u64)]) -> Table {
    let parts: Vec<Vec<(String, i64, i64)>> = (0..t.partitions().len())
        .map(|p| {
            let part = &t.partitions()[p];
            let (keys, a, b) = (part.column(0), part.column(1), part.column(2));
            (0..part.rows())
                .filter(|&r| delivered.binary_search(&(first + p, r as u64 + 1)).is_ok())
                .map(|r| {
                    let key = keys.as_str().expect("plain keys")[r].clone();
                    (key, a.as_int().unwrap()[r], b.as_int().unwrap()[r])
                })
                .collect()
        })
        .collect();
    let borrowed: Vec<Vec<(&str, i64, i64)>> = parts
        .iter()
        .map(|rows| rows.iter().map(|(k, a, b)| (k.as_str(), *a, *b)).collect())
        .collect();
    table(&borrowed.iter().map(Vec::as_slice).collect::<Vec<_>>())
}

#[test]
fn every_entry_schedule_completes_to_the_baseline_for_all_seven_families() {
    let cluster = Cluster::default();
    // Two flows of three entries: a unary query's two partitions, a JOIN's
    // two streams. Each family's program prunes here, but TOP N, whose
    // randomized matrix has room for every row.
    let left = table(&[
        &[("key-1", 9_500, 10), ("key-1", 100, 400), ("key-2", 9_800, 20)],
        &[("key-2", 50, 30), ("key-3", 9_900, 5), ("key-1", 9_700, 450)],
    ]);
    let join_left = table(&[&[("key-1", 1, 1), ("key-2", 2, 2), ("key-3", 3, 3)]]);
    let join_right = table(&[&[("key-1", 4, 4), ("key-4", 5, 5), ("key-1", 6, 6)]]);
    let mut queries = all_seven(15_000);
    queries[2] = DbQuery::TopN { order_col: 1, n: 2 };
    let mut pruning = 0;
    for q in &queries {
        let kind = q.kind();
        let (l, r) = match q {
            DbQuery::Join { .. } => (&join_left, Some(&join_right)),
            _ => (&left, None),
        };
        let want = cluster.run_baseline(q, l, r).output;
        let verdicts = cluster.lend_operator(q, |op| {
            let probe = Probe { op, verdicts: RefCell::default() };
            let run = cluster.execute(&probe, &Tables { left: l, right: r }).expect("runs");
            assert_eq!(run.output, want, "{kind}: the lossless run");
            probe.verdicts.into_inner()
        });
        assert_eq!(verdicts.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3], "{kind}");
        let all: HashSet<(usize, u64)> =
            (0..2).flat_map(|f| (1..=3).map(move |s| (f, s))).collect();
        let kept: HashSet<(usize, u64)> = all
            .iter()
            .copied()
            .filter(|&(f, s)| verdicts[f][s as usize - 1] == Verdict::Forward)
            .collect();
        let cfg = CheckerConfig {
            verdicts: verdicts.clone(),
            drop_budget: 1,
            dup_budget: 1,
            stale_budget: 1,
            max_schedules: MAX_SCHEDULES,
        };
        // Completion is a function of the delivered set: each distinct set
        // is completed once, over a table of exactly its rows.
        let mut completed: HashSet<Vec<(usize, u64)>> = HashSet::new();
        let mut checked = 0u64;
        let stats = explore(&cfg, |schedule| {
            let mut masters = [MasterFlow::default(), MasterFlow::default()];
            let mut delivered: Vec<(usize, u64)> = schedule
                .iter()
                .filter(|d| masters[d.flow].on_data(d.seq))
                .map(|d| (d.flow, d.seq))
                .collect();
            delivered.sort_unstable();
            let dups = schedule.iter().filter(|d| d.kind == DeliveryKind::Duplicate).count();
            assert_eq!(delivered.len() + dups, schedule.len(), "{kind}: the master dedups");
            let holds = |row| delivered.binary_search(row).is_ok();
            assert!(kept.iter().all(holds), "{kind}: {schedule:?} lost a kept row");
            assert!(delivered.iter().all(|d| all.contains(d)), "{kind}: {schedule:?}");
            if !completed.contains(&delivered) {
                let output = match r {
                    Some(r) => {
                        let (l, r) =
                            (delivered_rows(l, 0, &delivered), delivered_rows(r, 1, &delivered));
                        cluster.run_direct(q, &l, Some(&r))
                    }
                    None => cluster.run_direct(q, &delivered_rows(l, 0, &delivered), None),
                };
                assert_eq!(output.expect("runs").output, want, "{kind}: {schedule:?} diverged");
                completed.insert(delivered);
            }
            checked += 1;
        });
        assert!(!stats.truncated, "{kind}: exploration must finish under the bound");
        assert_eq!(stats.schedules, checked);
        assert!(stats.schedules_with_drop > 0 && stats.schedules_with_dup > 0, "{kind}");
        if kept.len() < all.len() {
            pruning += 1;
            assert!(stats.schedules_with_stale > 0, "{kind}: a pruned entry comes through stale");
        }
    }
    assert_eq!(pruning, 6, "every family's program prunes here but TOP N's");
}

/// Fault mode, generated: every case's run in fault mode — any family,
/// layout and arm, over generated and adversarial tables — answers as its
/// lossless run does, with the same switch counters, a delivered set
/// between its survivors and every row, a switch ACK per pruned row and a
/// resend count its seed repeats (`common::check`).
#[test]
fn fault_mode_answers_like_the_lossless_run() {
    common::for_each_case("fabric_contract", common::Gate::Fault, &[common::DRAWN], 0, |_, _| {});
}

#[test]
fn fault_mode_answers_all_seven_families_under_harsh_faults() {
    let cluster = Cluster::default();
    let faulty = cluster.clone().with_fault(FaultProfile::harsh(), 0xFAB);
    let left = Arc::new(gen_table(600, 23, 3, 47));
    let right = Arc::new(gen_table(240, 23, 2, 53));
    // The go-back-N resends per family, in `all_seven` order: a pure
    // function of the rows the shard jobs carry, their verdicts and the
    // seed, so a change to what a job carries, or to how the rack carries
    // it, shows here.
    let resends = [28_237, 28_393, 27_952, 28_914, 32_152, 27_707, 41_475];
    for (q, resends) in all_seven(4_000).into_iter().zip(resends) {
        let r = matches!(q, DbQuery::Join { .. }).then_some(&right);
        let base = cluster.run_baseline(&q, &left, r.map(|r| &**r)).output;
        let spec = ShardSpec::new(2, ShardPartitioner::Hash);
        let plan = ExecPlan::new(&cluster, &q, &left, r, spec).expect("routes");
        let run = execute(&faulty, &plan, ExecPath::BarrierPooled).expect("faulty run");
        assert_eq!(base, run.output, "{}: harsh channel changed the answer", q.kind());
        assert_eq!(
            run.breakdown.retransmits,
            resends,
            "{}: go-back-N resends must be visible in the breakdown",
            q.kind()
        );
        // Same seed, same run: every counter repeats.
        let again = execute(&faulty, &plan, ExecPath::BarrierPooled).expect("faulty run");
        let counters =
            |b: &cheetah_db::ExecBreakdown| (b.retransmits, b.switch_acks, b.entries_to_master);
        assert_eq!(counters(&again.breakdown), counters(&run.breakdown), "{}", q.kind());
    }
}
