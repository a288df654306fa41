//! Fabric experiment — goodput and recovery cost vs drop rate.
//!
//! The simulated worker→switch→master rack of [`cheetah_net::rack`]
//! carries a fixed entry workload through [`TransferSim`] while the links
//! get progressively worse. The switch prunes as DISTINCT does — the
//! first entry of each key on its flow goes on, a repeat is pruned and
//! ACKed (§7.2) — so the sweep shows the protocol the paper describes:
//! goodput (application bytes per simulated second, delivered exactly
//! once to the master) degrades gracefully, because switch-participating
//! ACKs, go-back-N windows and master dedup turn every fault into bounded
//! retransmission work instead of a wrong answer.

use crate::{Report, RunCtx};
use cheetah_net::{FaultProfile, RackConfig, TransferSim};
use cheetah_switch::hash::mix64;
use cheetah_switch::Verdict;
use std::collections::HashSet;

/// Worker flows feeding the switch.
const SHARDS: usize = 4;

/// Distinct keys per flow.
const KEYS: u64 = 64;

/// One worker's flow: `n` entries `[key, i]` over [`KEYS`] keys.
fn flow(shard: usize, n: usize) -> Vec<Vec<u64>> {
    (0..n).map(|i| vec![mix64((shard * n + i) as u64) % KEYS, i as u64]).collect()
}

/// Build the sweep.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let n = ctx.scale.entries(400, 4_000);
    let streams: Vec<Vec<Vec<u64>>> = (0..SHARDS).map(|s| flow(s, n)).collect();
    // What the switch forwards: each key's first entry on its flow.
    let forwarded: Vec<HashSet<u64>> = streams
        .iter()
        .map(|entries| {
            let mut keys = HashSet::new();
            (1..).zip(entries).filter(|(_, e)| keys.insert(e[0])).map(|(seq, _)| seq).collect()
        })
        .collect();
    let mut r = Report::new(
        "fabric",
        "Simulated lossy rack: goodput vs drop rate, the switch pruning",
        &[
            "drop_rate",
            "goodput_mbps",
            "retransmits",
            "switch_acks",
            "dropped_ahead",
            "forwarded_stale",
            "malformed",
            "duplicates",
            "completed",
        ],
    );
    for drop in [0.0f64, 0.05, 0.15, 0.30] {
        // Jitter rides with the loss: the 0.00 row is a truly clean
        // baseline (no reordering, so no DropAhead-driven resends).
        let faults = FaultProfile {
            drop_prob: drop,
            corrupt_prob: drop / 2.0,
            dup_prob: drop / 4.0,
            jitter_ns: if drop == 0.0 { 0 } else { 2_000 },
        };
        let cfg = RackConfig { faults, seed: 0xFAB + (drop * 100.0) as u64, ..Default::default() };
        let mut seen = HashSet::new();
        let distinct = |fid: u32, _: u64, e: &[u64]| {
            if seen.insert((fid, e[0])) {
                Verdict::Forward
            } else {
                Verdict::Prune
            }
        };
        let report = TransferSim::new(cfg, streams.clone(), distinct).run();
        let rack = &report.rack;
        r.row(vec![
            format!("{drop:.2}"),
            format!("{:.1}", rack.goodput_bps / 1e6),
            rack.retransmissions.to_string(),
            rack.switch_acks.to_string(),
            rack.dropped_ahead.to_string(),
            rack.forwarded_stale.to_string(),
            rack.malformed.to_string(),
            rack.duplicates.to_string(),
            rack.completed.to_string(),
        ]);
        // Every entry the switch forwarded reaches the master exactly once:
        // the master holds each (and, past a lost switch ACK, perhaps a
        // pruned one too), and delivered each once.
        for (fid, want) in forwarded.iter().enumerate() {
            let got = &report.delivered[fid];
            let held = |seq| got.binary_search(seq).is_ok();
            assert!(want.iter().all(held), "flow {fid} lost an entry");
        }
        assert_eq!(rack.delivered_units, report.delivered_unique(), "delivered exactly once");
    }
    r.note(format!(
        "{SHARDS} flows x {n} entries over {KEYS} keys each, the switch pruning repeats; \
         corrupt = drop/2, dup = drop/4"
    ));
    r.note("goodput = exactly-once application bytes over simulated completion time");
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_degrades_but_delivery_stays_exact() {
        let reports = run(&RunCtx::quick());
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.rows.len(), 4);
        let goodput: Vec<f64> = r.rows.iter().map(|row| row[1].parse::<f64>().unwrap()).collect();
        assert!(goodput[0] > goodput[3], "a 30% drop rate must cost goodput: {goodput:?}");
        // Lossless row does no recovery work; lossy rows do.
        assert_eq!(r.rows[0][2], "0");
        assert!(r.rows[3][2].parse::<u64>().unwrap() > 0);
        // The switch ACKs every repeat it prunes, once each, whatever the
        // faults: the same count on every row.
        let acks: u64 = r.rows[0][3].parse().unwrap();
        assert!(acks >= (SHARDS * 400) as u64 - SHARDS as u64 * KEYS, "{acks}");
        for row in &r.rows {
            assert_eq!(row[3], r.rows[0][3], "the switch ACKs what it prunes");
            assert_eq!(row[8], "true", "every sweep point must complete");
        }
    }
}
