//! Fabric experiment — goodput and recovery cost vs drop rate.
//!
//! The simulated worker→switch→master fabric of [`cheetah_net::fabric`]
//! carries a fixed survivor workload while the links get progressively
//! worse. Goodput (application bytes per simulated second, delivered
//! exactly once to the merge plane) degrades gracefully because the
//! §7.2 machinery — switch-participating ACKs, go-back-N windows,
//! master dedup — converts every fault into bounded retransmission work
//! instead of a wrong answer.

use crate::{Report, RunCtx};
use bytes::Bytes;
use cheetah_net::{emit_batch, FabricSim, FaultProfile, RackConfig};

/// Worker flows feeding the switch.
const SHARDS: usize = 4;

/// One shard's survivor flow: `frames` frames of `items` fixed-width
/// payload items each.
fn flow(shard: usize, frames: usize, items: usize) -> Vec<Bytes> {
    (0..frames)
        .map(|seq| {
            let payload: Vec<[u8; 8]> = (0..items)
                .map(|i| ((shard * frames + seq * items + i) as u64).to_be_bytes())
                .collect();
            emit_batch(shard as u32, seq as u64, payload.iter())
        })
        .collect()
}

/// Build the sweep.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let frames = ctx.scale.entries(40, 400);
    let streams: Vec<Vec<Bytes>> = (0..SHARDS).map(|s| flow(s, frames, 32)).collect();
    let mut r = Report::new(
        "fabric",
        "Simulated lossy fabric: goodput vs drop rate",
        &[
            "drop_rate",
            "goodput_mbps",
            "retransmits",
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
        let mut delivered = 0u64;
        let report = FabricSim::new(cfg, streams.clone()).run(|_| delivered += 1);
        r.row(vec![
            format!("{drop:.2}"),
            format!("{:.1}", report.goodput_bps / 1e6),
            report.retransmissions.to_string(),
            report.dropped_ahead.to_string(),
            report.forwarded_stale.to_string(),
            report.malformed.to_string(),
            report.duplicates.to_string(),
            report.completed.to_string(),
        ]);
        assert_eq!(
            delivered,
            (SHARDS * frames) as u64,
            "every frame must reach the merge plane exactly once"
        );
    }
    r.note(format!(
        "{SHARDS} shards x {frames} frames, 32 items each; corrupt = drop/2, dup = drop/4"
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
        for row in &r.rows {
            assert_eq!(row[7], "true", "every sweep point must complete");
        }
    }
}
