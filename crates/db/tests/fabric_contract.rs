//! The fabric gate: the merge plane is invariant under every delivery
//! order a lossy fabric can produce, and the full stack in fault mode
//! survives a genuinely harsh channel.
//!
//! Three layers, weakest assumption first:
//!
//! 1. **Exhaustive model checking** — [`cheetah_net::checker::explore`]
//!    enumerates *every* delivery schedule of 2 shards × 3 survivor
//!    frames (per-flow FIFO, plus one drop/retransmit and one
//!    duplication action), and each schedule is replayed into a fresh
//!    [`MergeState`]. The final output must be bit-identical to the
//!    canonical in-order fold — and to the unsharded baseline — for all
//!    seven query families. The interleaving count is bounded
//!    explicitly ([`MAX_SCHEDULES`]) and the gate asserts the search
//!    finished *under* it (`!truncated`), so the exhaustiveness claim
//!    is checked, not assumed.
//! 2. **Simulated fabric** — the same real-query frames ride
//!    [`FabricSim`]'s discrete-event worker→switch→master topology at
//!    [`FaultProfile::harsh`], with the §7.2 reliability machines doing
//!    the recovery. Same seed ⇒ bit-identical report (retransmit counts
//!    included); the merged output still equals the baseline.
//! 3. **Fault mode** — `execute` over a faulty plan at 15% drop + 15%
//!    corruption + duplication answers every generated case exactly, as
//!    its lossless run does, and the go-back-N resends are visible in
//!    `ExecBreakdown::retransmits` (a golden per family).

mod common;

use bytes::Bytes;
use cheetah_db::{
    decompose_output, fixed_sharder, frame_items, route_range, routing_keys, Cluster, DbQuery,
    ExecPath, MergeState, QueryOutput, ShardPartitioner, ShardSpec, Table,
};
use cheetah_net::{
    emit_batch, explore, CheckerConfig, FabricSim, FaultProfile, RackConfig, SurvivorBatch,
};
use cheetah_runtime::{execute, ExecPlan, FaultSpec};
use common::{all_seven, gen_table};
use std::sync::Arc;

/// Shards (= checker flows) the survivor traffic is split across.
const SHARDS: usize = 2;
/// Survivor frames per shard flow.
const FRAMES_PER_SHARD: usize = 3;
/// Explicit interleaving-count bound: [3, 3] flows with one drop and
/// one duplication budget explore 10 380 schedules — the gate asserts
/// the search completes under this ceiling so the exhaustive pass stays
/// well inside a CI minute even with a full merge replay per schedule.
const MAX_SCHEDULES: u64 = 20_000;

/// Split `left` (and `right`, co-partitioned) key-aligned across
/// [`SHARDS`], run each shard's slice through the baseline executor,
/// and frame its decomposed survivors as exactly [`FRAMES_PER_SHARD`]
/// frames — padding with empty frames so every flow has the same
/// length the checker expects.
fn shard_frames(
    cluster: &Cluster,
    q: &DbQuery,
    left: &Table,
    right: Option<&Table>,
) -> Vec<Vec<Bytes>> {
    let seed = cluster.tuning.seed;
    let left_keys = routing_keys(q, 0, left, seed);
    let right_keys = right.map(|r| routing_keys(q, 1, r, seed));
    let key_slices: Vec<&[u64]> =
        std::iter::once(left_keys.as_slice()).chain(right_keys.as_deref()).collect();
    let spec = ShardSpec::new(SHARDS, ShardPartitioner::Hash);
    let sharder = fixed_sharder(&spec, seed, &key_slices);
    let left_slices = route_range(left, &left_keys, &sharder, 0, left.rows());
    let right_slices = right.map(|r| {
        route_range(r, right_keys.as_deref().expect("keys computed"), &sharder, 0, r.rows())
    });
    left_slices
        .iter()
        .enumerate()
        .map(|(shard, slice)| {
            let rs = right_slices.as_ref().map(|v| &v[shard]);
            let out = cluster.run_baseline(q, slice, rs).output;
            let items = decompose_output(q, out);
            let per = items.len().div_ceil(FRAMES_PER_SHARD);
            let mut frames = frame_items(shard as u32, &items, per);
            // Light shards still owe the flow its full frame count; an
            // empty survivor batch is a legal (and common) frame.
            while frames.len() < FRAMES_PER_SHARD {
                frames.push(emit_batch(shard as u32, frames.len() as u64, [] as [Bytes; 0]));
            }
            frames
        })
        .collect()
}

/// The canonical fold: every frame, shard order, sequence order.
fn fold_in_order(q: &DbQuery, frames: &[Vec<Bytes>]) -> QueryOutput {
    let mut st = MergeState::new(q);
    for flow in frames {
        for f in flow {
            let batch = SurvivorBatch::parse(f.clone()).expect("self-built frame parses");
            assert!(st.ingest_survivor_batch(&batch).expect("merge item round-trips"));
        }
    }
    st.finish()
}

#[test]
fn every_interleaving_merges_to_the_same_answer_for_all_seven_families() {
    let cluster = Cluster::default();
    let left = gen_table(600, 23, 3, 11);
    let right = gen_table(240, 23, 2, 23);
    for q in all_seven(4_000) {
        let r = matches!(q, DbQuery::Join { .. }).then_some(&right);
        let frames = shard_frames(&cluster, &q, &left, r);
        let parsed: Vec<Vec<SurvivorBatch>> = frames
            .iter()
            .map(|flow| {
                flow.iter()
                    .map(|f| SurvivorBatch::parse(f.clone()).expect("frame parses"))
                    .collect()
            })
            .collect();
        let expected = fold_in_order(&q, &frames);
        // The merge target is the ground truth, not just self-consistent.
        assert_eq!(
            expected,
            cluster.run_baseline(&q, &left, r).output,
            "{}: sharded fold must equal the unsharded baseline",
            q.kind()
        );
        let cfg = CheckerConfig {
            frames_per_flow: vec![FRAMES_PER_SHARD; SHARDS],
            drop_budget: 1,
            dup_budget: 1,
            max_schedules: MAX_SCHEDULES,
        };
        let mut checked = 0u64;
        let stats = explore(&cfg, |schedule| {
            let mut st = MergeState::new(&q);
            for d in schedule {
                st.ingest_survivor_batch(&parsed[d.flow][d.seq as usize])
                    .expect("merge item round-trips");
            }
            assert_eq!(st.finish(), expected, "{}: schedule {:?} diverged", q.kind(), schedule);
            checked += 1;
        });
        assert!(!stats.truncated, "{}: exploration must finish under the bound", q.kind());
        assert_eq!(stats.schedules, checked);
        assert!(
            stats.schedules_with_drop > 0 && stats.schedules_with_dup > 0,
            "{}: the search must include drop and duplication actions",
            q.kind()
        );
    }
}

#[test]
fn harsh_fabric_delivers_exactly_and_is_seed_deterministic() {
    let cluster = Cluster::default();
    let left = gen_table(600, 23, 3, 31);
    for q in [DbQuery::Distinct { col: 0 }, DbQuery::GroupByMax { key_col: 0, val_col: 1 }] {
        let frames = shard_frames(&cluster, &q, &left, None);
        let expected = fold_in_order(&q, &frames);
        let run_once = || {
            let cfg = RackConfig { faults: FaultProfile::harsh(), ..RackConfig::default() };
            let mut st = MergeState::new(&q);
            let report = FabricSim::new(cfg, frames.clone()).run(|batch| {
                st.ingest_survivor_batch(batch).expect("merge item round-trips");
            });
            (report, st.finish())
        };
        let (report_a, out_a) = run_once();
        let (report_b, out_b) = run_once();
        assert!(report_a.completed, "{}: harsh fabric must still complete", q.kind());
        assert!(report_a.retransmissions > 0, "{}: harsh faults force resends", q.kind());
        assert_eq!(report_a, report_b, "{}: same seed, same run — retransmits included", q.kind());
        assert_eq!(out_a, expected, "{}: lossy fabric changed the answer", q.kind());
        assert_eq!(out_a, out_b);
    }
}

/// Fault mode, generated: every case's plan in fault mode — any family,
/// layout, arm and frame size, over generated and adversarial tables —
/// answers as its lossless run does, with the same pruning counters and
/// survivors (`common::check`).
#[test]
fn fault_mode_answers_like_the_lossless_run() {
    common::for_each_case("fabric_contract", common::Gate::Fault, &[common::DRAWN], 0, |_, _| {});
}

#[test]
fn fault_mode_answers_all_seven_families_under_harsh_faults() {
    let cluster = Cluster::default();
    let left = Arc::new(gen_table(600, 23, 3, 47));
    let right = Arc::new(gen_table(240, 23, 2, 53));
    // The go-back-N resends per family, in `all_seven` order: a pure
    // function of the frames the workers emit and the seed, so a change to
    // what a shard frames, or to how the rack carries it, shows here.
    let resends = [7, 16, 41, 16, 8, 16, 7];
    for (q, resends) in all_seven(4_000).into_iter().zip(resends) {
        let r = matches!(q, DbQuery::Join { .. }).then_some(&right);
        let base = cluster.run_baseline(&q, &left, r.map(|r| &**r)).output;
        let spec = ShardSpec::new(SHARDS, ShardPartitioner::Hash);
        let plan = ExecPlan::new(&cluster, &q, &left, r, spec).expect("routes");
        // Many small frames → many fault draws.
        let faulty = plan.with_fault(FaultSpec::harsh(0xFAB, 4));
        let run = execute(&cluster, &faulty, ExecPath::BarrierPooled).expect("faulty run");
        assert_eq!(base, run.output, "{}: harsh channel changed the answer", q.kind());
        assert_eq!(
            run.breakdown.retransmits,
            resends,
            "{}: go-back-N resends must be visible in the breakdown",
            q.kind()
        );
    }
}
