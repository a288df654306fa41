//! Full-stack integration: query → CWorker serialization → lossy network →
//! switch pruning with the §7.2 reliability protocol → master completion.
//!
//! The headline guarantee (§7.2): *"the protocol maintains the correctness
//! of the execution even if some pruned packets are lost and the
//! retransmissions make it to the master"* — because every algorithm
//! tolerates supersets of its unpruned output.

use cheetah::algorithms::{
    AggKind, DistinctConfig, DistinctPruner, EvictionPolicy, GroupByConfig, GroupByPruner,
    TopNRandConfig, TopNRandPruner,
};
use cheetah::net::{FaultProfile, RackConfig, TransferSim};
use cheetah::switch::hash::mix64;
use cheetah::switch::{PacketRef, ResourceLedger, SwitchProfile, SwitchProgram};
use std::collections::{HashMap, HashSet};

fn ledger() -> ResourceLedger {
    ResourceLedger::new(SwitchProfile::tofino2())
}

fn lossy(seed: u64) -> RackConfig {
    RackConfig {
        faults: FaultProfile { drop_prob: 0.12, corrupt_prob: 0.06, ..FaultProfile::lossless() },
        rto_ns: 250_000,
        seed,
        ..Default::default()
    }
}

/// Drive a program through the transfer sim.
fn transfer<P: SwitchProgram>(
    cfg: RackConfig,
    streams: Vec<Vec<Vec<u64>>>,
    mut program: P,
) -> cheetah::net::TransferReport {
    let mut epoch = 0u64;
    TransferSim::new(cfg, streams, move |fid, values| {
        epoch += 1;
        program.on_packet(PacketRef { epoch, fid, values }).expect("model violation")
    })
    .run()
}

#[test]
fn distinct_over_lossy_network_is_exact() {
    let workers = 4;
    let per = 3_000u64;
    let mut x = 5u64;
    let streams: Vec<Vec<Vec<u64>>> = (0..workers)
        .map(|_| {
            (0..per)
                .map(|_| {
                    x = mix64(x);
                    vec![x % 200]
                })
                .collect()
        })
        .collect();
    let truth: HashSet<u64> = streams.iter().flatten().map(|v| v[0]).collect();
    let program = DistinctPruner::build(
        DistinctConfig {
            rows: 256,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 2,
        },
        &mut ledger(),
    )
    .unwrap();
    let report = transfer(lossy(0xE2E1), streams, program);
    assert!(report.rack.completed);
    let got: HashSet<u64> =
        report.delivered.values().flat_map(|m| m.values().map(|v| v[0])).collect();
    assert_eq!(got, truth, "DISTINCT output diverged under loss");
    assert!(report.rack.retransmissions > 0, "the loss must actually have been exercised");
}

#[test]
fn groupby_max_over_lossy_network_is_exact() {
    let workers = 3;
    let per = 3_000u64;
    let mut x = 77u64;
    let streams: Vec<Vec<Vec<u64>>> = (0..workers)
        .map(|_| {
            (0..per)
                .map(|_| {
                    x = mix64(x);
                    let k = x % 64;
                    x = mix64(x);
                    vec![k, x % 100_000]
                })
                .collect()
        })
        .collect();
    // Ground truth MAX per key.
    let mut truth: HashMap<u64, u64> = HashMap::new();
    for v in streams.iter().flatten() {
        let e = truth.entry(v[0]).or_insert(0);
        *e = (*e).max(v[1]);
    }
    let program = GroupByPruner::build(
        GroupByConfig { rows: 128, cols: 4, agg: AggKind::Max, key_bits: 31, seed: 4 },
        &mut ledger(),
    )
    .unwrap();
    let report = transfer(lossy(0xE2E2), streams, program);
    assert!(report.rack.completed);
    // Master-side completion: MAX over whatever was delivered.
    let mut got: HashMap<u64, u64> = HashMap::new();
    for v in report.delivered.values().flat_map(|m| m.values()) {
        let e = got.entry(v[0]).or_insert(0);
        *e = (*e).max(v[1]);
    }
    assert_eq!(got, truth, "GROUP BY MAX diverged under loss");
}

#[test]
fn topn_over_lossy_network_keeps_the_top() {
    let n = 50usize;
    let workers = 2;
    let per = 4_000u64;
    let mut x = 31u64;
    let streams: Vec<Vec<Vec<u64>>> = (0..workers)
        .map(|_| {
            (0..per)
                .map(|_| {
                    x = mix64(x);
                    vec![x % 1_000_000]
                })
                .collect()
        })
        .collect();
    let mut all: Vec<u64> = streams.iter().flatten().map(|v| v[0]).collect();
    all.sort_unstable_by(|a, b| b.cmp(a));
    let truth: Vec<u64> = all[..n].to_vec();
    let program =
        TopNRandPruner::build(TopNRandConfig { rows: 512, cols: 8, seed: 6 }, &mut ledger())
            .unwrap();
    let report = transfer(lossy(0xE2E3), streams, program);
    assert!(report.rack.completed);
    let mut got: Vec<u64> =
        report.delivered.values().flat_map(|m| m.values().map(|v| v[0])).collect();
    got.sort_unstable_by(|a, b| b.cmp(a));
    got.truncate(n);
    assert_eq!(got, truth, "TOP N diverged under loss");
}

#[test]
fn reliability_overhead_is_bounded_under_light_loss() {
    // A 2% loss rate should cost retransmissions proportional to the loss,
    // not a storm (go-back-N with gap drops amplifies somewhat; a factor-5
    // head-room bound documents the expectation).
    let workers = 2;
    let per = 5_000u64;
    let streams: Vec<Vec<Vec<u64>>> =
        (0..workers).map(|w| (0..per).map(|i| vec![(w as u64) << 32 | i]).collect()).collect();
    let cfg = RackConfig {
        faults: FaultProfile { drop_prob: 0.02, corrupt_prob: 0.0, ..FaultProfile::lossless() },
        rto_ns: 150_000,
        window: Some(32),
        ..Default::default()
    };
    let program = DistinctPruner::build(
        DistinctConfig {
            rows: 1024,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 9,
        },
        &mut ledger(),
    )
    .unwrap();
    let report = transfer(cfg, streams, program);
    assert!(report.rack.completed);
    let total = (workers as u64) * per;
    assert!(
        report.rack.retransmissions < total * 5,
        "retransmission storm: {} for {} entries",
        report.rack.retransmissions,
        total
    );
}

#[test]
fn lossless_transfer_has_zero_protocol_overhead() {
    let streams: Vec<Vec<Vec<u64>>> = vec![(0..2_000u64).map(|i| vec![i]).collect()];
    let program = DistinctPruner::build(
        DistinctConfig {
            rows: 1024,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 1,
        },
        &mut ledger(),
    )
    .unwrap();
    let report = transfer(RackConfig::default(), streams, program);
    assert!(report.rack.completed);
    assert_eq!(report.rack.retransmissions, 0);
    assert_eq!(report.rack.dropped_ahead, 0);
    assert_eq!(report.rack.forwarded_stale, 0);
    assert_eq!(report.rack.malformed, 0);
    assert_eq!(report.rack.duplicates, 0);
    // All 2000 distinct → everything forwarded.
    assert_eq!(report.delivered_unique(), 2_000);
}
