//! The §7.2 reliability protocol under fire.
//!
//! Streams a DISTINCT query through the simulated rack while the links
//! drop and corrupt packets (smoltcp-style fault injection). The switch
//! ACKs every packet it prunes — that is how a worker tells "pruned" from
//! "lost" — retransmissions of already-pruned packets are forwarded
//! unprocessed (`Y ≤ X`), and gap packets wait for retransmission
//! (`Y > X+1`). At the end the master's DISTINCT output is verified
//! identical to the lossless ground truth.
//!
//! ```sh
//! cargo run --release --example reliability_demo            # 10% drop, 5% corrupt
//! cargo run --release --example reliability_demo -- 25 10   # harsher
//! ```

use cheetah::algorithms::{DistinctConfig, DistinctPruner, EvictionPolicy};
use cheetah::net::{FaultProfile, RackConfig, TransferSim};
use cheetah::switch::hash::mix64;
use cheetah::switch::{PacketRef, ResourceLedger, SwitchProfile, SwitchProgram};
use std::collections::HashSet;

fn main() {
    let mut args = std::env::args().skip(1);
    let drop_pct: f64 = args.next().map(|s| s.parse().expect("drop %")).unwrap_or(10.0);
    let corrupt_pct: f64 = args.next().map(|s| s.parse().expect("corrupt %")).unwrap_or(5.0);

    // Three workers, ~50 distinct client ids repeated heavily.
    let workers = 3;
    let per_worker = 4_000u64;
    let mut x = 99u64;
    let streams: Vec<Vec<Vec<u64>>> = (0..workers)
        .map(|_| {
            (0..per_worker)
                .map(|_| {
                    x = mix64(x);
                    vec![x % 50]
                })
                .collect()
        })
        .collect();
    let ground_truth: HashSet<u64> = streams.iter().flatten().map(|v| v[0]).collect();

    // The switch runs a DISTINCT pruner.
    let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
    let mut pruner = DistinctPruner::build(
        DistinctConfig {
            rows: 512,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 1,
        },
        &mut ledger,
    )
    .expect("fits");
    let mut epoch = 0u64;

    let cfg = RackConfig {
        faults: FaultProfile {
            drop_prob: drop_pct / 100.0,
            corrupt_prob: corrupt_pct / 100.0,
            ..FaultProfile::lossless()
        },
        rto_ns: 300_000,
        ..Default::default()
    };
    println!(
        "transfer: {workers} workers × {per_worker} entries, {drop_pct}% drop, {corrupt_pct}% corrupt\n"
    );
    let report = TransferSim::new(cfg, streams, move |fid, values| {
        epoch += 1;
        pruner
            .on_packet(PacketRef { epoch, fid, values })
            .expect("pruner obeys the execution model")
    })
    .run();

    assert!(report.rack.completed, "transfer must terminate despite the losses");
    println!("completed in {:.3} simulated seconds", report.rack.sim_seconds);
    println!("  delivered (unique)   : {}", report.delivered_unique());
    println!("  switch prune-ACKs    : {}", report.rack.switch_acks);
    println!("  retransmissions      : {}", report.rack.retransmissions);
    println!("  stale forwards (Y≤X) : {}", report.rack.forwarded_stale);
    println!("  gap drops (Y>X+1)    : {}", report.rack.dropped_ahead);
    println!("  checksum rejections  : {}", report.rack.malformed);
    println!("  master dedups        : {}", report.rack.duplicates);

    // The master completes the DISTINCT query from whatever arrived —
    // any superset of the unpruned entries yields the same output.
    let master_distinct: HashSet<u64> =
        report.delivered.values().flat_map(|m| m.values().map(|v| v[0])).collect();
    assert_eq!(master_distinct, ground_truth, "DISTINCT output must survive the losses");
    println!(
        "\nmaster DISTINCT output: {} values — identical to the lossless ground truth ✓",
        master_distinct.len()
    );
}
