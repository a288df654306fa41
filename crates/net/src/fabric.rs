//! The frame-level binding of the rack: [`SurvivorBatch`] frames over a
//! seeded lossy fabric.
//!
//! [`crate::transfer`] carries the paper's *entry-level* channel (one
//! value tuple per packet). The streamed shard runtime, though, ships
//! survivors in columnar [`SurvivorBatch`] frames; `FabricSim` hands
//! those frames to the same carrier, [`crate::rack`], which owns the
//! topology, the fault injection and the §7.2 roles.
//!
//! What the binding decides: a frame is shard `w`'s sequence `seq + 1`
//! (`SurvivorBatch.seq` is 0-based, the protocol counts from 1); frames
//! are already post-pruning survivors, so the switch never prune-ACKs —
//! it verifies the checksum, forwards in-order and stale frames and
//! drops gaps; and the master hands each *new* batch to the caller's
//! sink — the merge plane.
//!
//! The send window defaults to the uplink's bandwidth-delay product in
//! frames (rate × RTT / frame size), so pacing follows the link's
//! serialization rate rather than a constant.

use crate::channel::SimTime;
use crate::rack::{self, wire_bytes, Payload, RackConfig, RackReport};
use crate::stream::SurvivorBatch;
use bytes::Bytes;

/// A send window sized to the link: how many frames of `frame_bytes`
/// fit in `rate_bps × rtt_ns` of flight, clamped to `[4, 1024]`.
pub fn bdp_window(rate_bps: f64, rtt_ns: SimTime, frame_bytes: u64) -> u64 {
    let bits_in_flight = rate_bps * rtt_ns as f64 / 1e9;
    let frames = (bits_in_flight / (8.0 * frame_bytes.max(1) as f64)).ceil() as u64;
    frames.clamp(4, 1024)
}

/// The simulator: one stream of pre-encoded [`SurvivorBatch`] frames per
/// worker, carried over the faulty fabric to a master-side sink.
pub struct FabricSim {
    cfg: RackConfig,
    streams: Vec<Vec<Bytes>>,
}

impl FabricSim {
    /// Build a simulation over per-worker frame streams. Stream `w` is
    /// shard `w`'s flow: each frame must parse as a [`SurvivorBatch`]
    /// with `shard == w` and `seq` equal to its position in the stream —
    /// the invariant the streamed runtime's framing already upholds.
    ///
    /// # Panics
    /// Panics if a stream violates that invariant (a harness bug, not a
    /// runtime condition).
    pub fn new(cfg: RackConfig, streams: Vec<Vec<Bytes>>) -> Self {
        for (w, stream) in streams.iter().enumerate() {
            for (i, frame) in stream.iter().enumerate() {
                let b = SurvivorBatch::parse(frame.clone()).expect("stream frame must parse");
                assert_eq!(b.shard as usize, w, "frame shard must match stream index");
                assert_eq!(b.seq as usize, i, "frame seq must match stream position");
            }
        }
        Self { cfg, streams }
    }

    /// Run to completion (or the time limit), feeding every unique batch
    /// the master accepts to `sink` in arrival order.
    pub fn run(self, sink: impl FnMut(&SurvivorBatch)) -> RackReport {
        rack::run(&self.cfg, &mut Frames { streams: &self.streams, sink })
    }
}

/// The frame streams plus the master-side sink, as the rack's payload.
struct Frames<'s, S> {
    streams: &'s [Vec<Bytes>],
    sink: S,
}

impl<S: FnMut(&SurvivorBatch)> Payload for Frames<'_, S> {
    type Unit = SurvivorBatch;

    fn flows(&self) -> Vec<u64> {
        self.streams.iter().map(|s| s.len() as u64).collect()
    }

    /// Sized to the uplink BDP of a typical frame.
    fn default_window(&self, cfg: &RackConfig) -> u64 {
        let frames: u64 = self.flows().iter().sum();
        let bytes: u64 = self.streams.iter().flatten().map(wire_bytes).sum();
        let avg = bytes.checked_div(frames).unwrap_or(1500);
        bdp_window(cfg.uplink_bps, 2 * cfg.latency_ns, avg)
    }

    fn emit(&self, w: usize, seq: u64) -> Bytes {
        self.streams[w][(seq - 1) as usize].clone()
    }

    fn parse(&self, bytes: &Bytes) -> Option<(u32, u64, SurvivorBatch)> {
        let batch = SurvivorBatch::parse(bytes.clone()).ok()?;
        Some((batch.shard, batch.seq + 1, batch))
    }

    fn deliver(&mut self, _: u32, _: u64, batch: SurvivorBatch) {
        (self.sink)(&batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FaultProfile;
    use crate::stream::emit_batch;

    /// `frames` survivor batches per worker, each holding a few
    /// recognizable items.
    fn streams(workers: usize, frames: usize) -> Vec<Vec<Bytes>> {
        (0..workers as u32)
            .map(|w| {
                (0..frames as u64)
                    .map(|seq| emit_batch(w, seq, [format!("{w}:{seq}:a").as_bytes(), b"payload"]))
                    .collect()
            })
            .collect()
    }

    fn collect(cfg: RackConfig, streams: Vec<Vec<Bytes>>) -> (RackReport, Vec<(u32, u64)>) {
        let mut seen = Vec::new();
        let report = FabricSim::new(cfg, streams).run(|b| seen.push((b.shard, b.seq)));
        (report, seen)
    }

    #[test]
    fn lossless_fabric_delivers_every_frame_once_in_order() {
        let (report, seen) = collect(RackConfig::default(), streams(3, 20));
        assert!(report.completed);
        assert_eq!(report.delivered_frames, 60);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(seen.len(), 60);
        // Per shard, arrival order is the emission order on a lossless
        // zero-jitter fabric.
        for w in 0..3u32 {
            let seqs: Vec<u64> = seen.iter().filter(|(s, _)| *s == w).map(|(_, q)| *q).collect();
            assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn harsh_fabric_still_delivers_every_frame_exactly_once() {
        let cfg = RackConfig {
            faults: FaultProfile::harsh(),
            rto_ns: 200_000,
            seed: 0xFAB, // the golden below was recorded under this seed
            ..Default::default()
        };
        let (report, mut seen) = collect(cfg, streams(2, 40));
        assert!(report.completed, "harsh run must still terminate");
        assert!(report.retransmissions > 0, "loss must force retransmits");
        assert_eq!(report.delivered_frames, 80, "sink sees each frame exactly once");
        // Golden: pinned before the event loop moved into `rack`, so the
        // move is checked bit for bit (same seed ⇒ same event order).
        assert_eq!(
            (
                report.sim_seconds,
                report.retransmissions,
                report.dropped_ahead,
                report.forwarded_stale,
                report.malformed,
                report.duplicates,
                report.delivered_frames,
                report.goodput_bps,
                report.completed,
            ),
            (0.008191105, 1376, 969, 85, 219, 50, 80, 3418342.213901543, true)
        );
        assert_eq!(report.flow_retransmissions.iter().sum::<u64>(), report.retransmissions);
        seen.sort_unstable();
        let mut want: Vec<(u32, u64)> = (0..2).flat_map(|w| (0..40).map(move |q| (w, q))).collect();
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn same_seed_is_bit_identical_retransmit_counts_included() {
        let cfg = RackConfig {
            faults: FaultProfile::harsh(),
            rto_ns: 200_000,
            seed: 0xDEAD_BEEF,
            ..Default::default()
        };
        let (r1, s1) = collect(cfg.clone(), streams(3, 25));
        let (r2, s2) = collect(cfg, streams(3, 25));
        assert_eq!(r1, r2, "same seed must reproduce every counter");
        assert_eq!(s1, s2, "same seed must reproduce the delivery order");
    }

    #[test]
    fn different_seeds_change_the_loss_pattern_not_the_answer() {
        let base =
            RackConfig { faults: FaultProfile::harsh(), rto_ns: 200_000, ..Default::default() };
        let (r1, mut s1) = collect(RackConfig { seed: 1, ..base.clone() }, streams(2, 30));
        let (r2, mut s2) = collect(RackConfig { seed: 2, ..base }, streams(2, 30));
        assert!(r1.completed && r2.completed);
        // Same unique deliveries either way.
        s1.sort_unstable();
        s2.sort_unstable();
        assert_eq!(s1, s2);
    }

    #[test]
    fn corruption_shows_up_as_malformed_then_recovers() {
        let cfg = RackConfig {
            faults: FaultProfile { corrupt_prob: 0.15, ..FaultProfile::lossless() },
            rto_ns: 200_000,
            ..Default::default()
        };
        let (report, _) = collect(cfg, streams(2, 50));
        assert!(report.completed);
        assert!(report.malformed > 0, "corrupted frames must be caught by the checksum");
        assert_eq!(report.delivered_frames, 100);
    }

    #[test]
    fn duplication_is_absorbed_by_master_dedup() {
        let cfg = RackConfig {
            faults: FaultProfile { dup_prob: 0.3, ..FaultProfile::lossless() },
            rto_ns: 200_000,
            ..Default::default()
        };
        let (report, _) = collect(cfg, streams(2, 40));
        assert!(report.completed);
        assert!(report.duplicates > 0, "link duplication must reach the dedup");
        assert_eq!(report.delivered_frames, 80);
    }

    #[test]
    fn empty_streams_complete_via_the_fin_timer_path() {
        let (report, seen) = collect(RackConfig::default(), streams(2, 0));
        assert!(report.completed);
        assert_eq!(report.delivered_frames, 0);
        assert!(seen.is_empty());
    }

    #[test]
    fn bdp_window_tracks_rate_and_clamps() {
        // 10 Gbps × 2 µs RTT = 20 kbit ≈ 2.5 kB in flight; 1.5 kB frames
        // → 2 frames, clamped up to the floor of 4.
        assert_eq!(bdp_window(10e9, 2_000, 1_500), 4);
        // A fat long pipe wants a big window…
        assert!(bdp_window(100e9, 1_000_000, 1_500) > 100);
        // …but never past the cap.
        assert_eq!(bdp_window(400e9, 1_000_000_000, 64), 1024);
        // Degenerate frame size must not divide by zero.
        assert!(bdp_window(10e9, 2_000, 0) >= 4);
    }

    #[test]
    fn goodput_degrades_with_drop_rate() {
        let run = |drop: f64| {
            let cfg = RackConfig {
                faults: FaultProfile { drop_prob: drop, ..FaultProfile::lossless() },
                rto_ns: 200_000,
                ..Default::default()
            };
            collect(cfg, streams(2, 60)).0
        };
        let clean = run(0.0);
        let lossy = run(0.3);
        assert!(clean.completed && lossy.completed);
        assert!(
            lossy.goodput_bps < clean.goodput_bps,
            "drops must cost goodput: {} vs {}",
            lossy.goodput_bps,
            clean.goodput_bps
        );
    }
}
