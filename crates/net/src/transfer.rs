//! The rack's public face: workers → switch → master, one value tuple
//! per packet.
//!
//! [`crate::rack`] owns the discrete-event loop and the §7.2 roles; this
//! module encodes the paper's entry packets ([`DataPacket`], Figure 4)
//! once and hands them to it. The switch runs an arbitrary pruning
//! function over every in-order entry, by flow, sequence number and
//! values, and ACKs what it prunes; the master stores what it is sent. The
//! query engine's fault mode rides it: a shard job's rows are its
//! entries, and the pruning function replays, by sequence number, the
//! verdicts the job's switch program reached.
//!
//! The headline property (tested here and in the integration suite): under
//! any loss pattern, the entries the master ends up with are a **superset
//! of the unpruned entries and a subset of all entries** — which, by the
//! pruning contract, yields exactly the same query output as a lossless
//! run.

use crate::rack::{self, Delivered, RackConfig, RackReport};
use crate::wire::{DataPacket, Packet};
use bytes::Bytes;
use cheetah_switch::Verdict;

/// Outcome of a transfer: the carrier's report plus which entries reached
/// the master.
#[derive(Debug)]
pub struct TransferReport {
    /// The carrier's counters and completion time.
    pub rack: RackReport,
    /// Entries that reached the master: per flow, the sequence numbers
    /// accepted, ascending. Entry `seq` of flow `fid` holds the values the
    /// sender passed at `streams[fid][seq − 1]`; the report keeps no copy.
    pub delivered: Delivered,
}

impl TransferReport {
    /// Unique entries delivered across all flows.
    pub fn delivered_unique(&self) -> u64 {
        self.delivered.iter().map(|seqs| seqs.len() as u64).sum()
    }
}

/// The simulator.
pub struct TransferSim<F> {
    cfg: RackConfig,
    /// One stream of entry packets per worker, each encoded once however
    /// often it is resent; worker `w` owns flow id `w`.
    packets: Vec<Vec<Bytes>>,
    /// The switch's pruning function: `(fid, seq, values) → verdict`,
    /// asked once per entry, in sequence order.
    pruner: F,
}

impl<F: FnMut(u32, u64, &[u64]) -> Verdict> TransferSim<F> {
    /// Build a simulation over per-worker entry streams.
    pub fn new(cfg: RackConfig, streams: Vec<Vec<Vec<u64>>>, pruner: F) -> Self {
        let packets = (0..)
            .zip(streams)
            .map(|(fid, entries)| {
                let data = |(seq, values)| Packet::Data(DataPacket { fid, seq, values }).emit();
                (1..).zip(entries).map(data).collect()
            })
            .collect();
        Self { cfg, packets, pruner }
    }

    /// Run to completion (or a stall, or the time limit).
    pub fn run(self) -> TransferReport {
        let (rack, delivered) = rack::run(&self.cfg, &self.packets, self.pruner);
        TransferReport { rack, delivered }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FaultProfile;
    use std::collections::HashSet;

    /// Streams: one value per entry, `count` entries per worker.
    fn streams(workers: usize, count: u64) -> Vec<Vec<Vec<u64>>> {
        (0..workers).map(|w| (0..count).map(|i| vec![(w as u64) << 32 | i]).collect()).collect()
    }

    #[test]
    fn lossless_transfer_delivers_everything_unpruned() {
        let sim =
            TransferSim::new(RackConfig::default(), streams(3, 200), |_, _, _| Verdict::Forward);
        let report = sim.run();
        assert!(report.rack.completed);
        assert_eq!(report.delivered_unique(), 600);
        assert_eq!(report.rack.retransmissions, 0);
        assert_eq!(report.rack.switch_acks, 0);
    }

    #[test]
    fn pruned_entries_are_acked_not_delivered() {
        // Prune odd values.
        let sim = TransferSim::new(RackConfig::default(), streams(2, 100), |_, _, v| {
            if v[0] % 2 == 1 {
                Verdict::Prune
            } else {
                Verdict::Forward
            }
        });
        let report = sim.run();
        assert!(report.rack.completed);
        assert_eq!(report.rack.switch_acks, 100);
        assert_eq!(report.delivered_unique(), 100);
        let sent = streams(2, 100);
        for (fid, seqs) in report.delivered.iter().enumerate() {
            for &seq in seqs {
                let value = sent[fid][seq as usize - 1][0];
                assert_eq!(value % 2, 0, "odd value delivered for flow {fid}");
            }
        }
    }

    #[test]
    fn lossy_transfer_still_completes_with_full_coverage() {
        // The §7.2 guarantee: every entry is either delivered or was
        // pruned-and-processed, even at harsh loss rates.
        let cfg = RackConfig {
            faults: FaultProfile {
                drop_prob: 0.10,
                corrupt_prob: 0.05,
                ..FaultProfile::lossless()
            },
            rto_ns: 200_000,
            ..Default::default()
        };
        let total = 150u64;
        let sim = TransferSim::new(cfg, streams(2, total), |_, _, v| {
            if v[0] % 3 == 0 {
                Verdict::Prune
            } else {
                Verdict::Forward
            }
        });
        let report = sim.run();
        assert!(report.rack.completed, "lossy run must still terminate");
        assert!(report.rack.retransmissions > 0, "losses must have caused retransmissions");
        // Golden: pinned before the event loop moved into `rack`, so the
        // move is checked bit for bit (same seed ⇒ same event order).
        assert_eq!(
            (
                report.rack.retransmissions,
                report.rack.dropped_ahead,
                report.rack.forwarded_stale,
                report.rack.malformed,
                report.rack.duplicates,
                report.rack.switch_acks,
                report.delivered_unique(),
                report.rack.sim_seconds,
            ),
            (2004, 1552, 92, 142, 29, 100, 213, 0.005856815)
        );
        // Every non-pruned entry value must be present; pruned entries MAY
        // also appear (stale retransmission after a lost switch-ACK).
        let sent = streams(2, total);
        for w in 0..2u64 {
            let flow = &report.delivered[w as usize];
            let got: HashSet<u64> =
                flow.iter().map(|&seq| sent[w as usize][seq as usize - 1][0]).collect();
            for i in 0..total {
                let value = w << 32 | i;
                if value % 3 != 0 {
                    assert!(got.contains(&value), "missing unpruned entry {value}");
                }
            }
        }
    }

    #[test]
    fn stale_retransmissions_are_forwarded_unprocessed() {
        // With loss on the ACK path, a pruned packet can be retransmitted;
        // the switch must forward it rather than reprocess (Y ≤ X rule).
        let cfg = RackConfig {
            faults: FaultProfile { drop_prob: 0.25, ..FaultProfile::lossless() },
            rto_ns: 100_000,
            ..Default::default()
        };
        let sim = TransferSim::new(cfg, streams(1, 300), |_, _, _| Verdict::Prune);
        let report = sim.run();
        assert!(report.rack.completed);
        // Everything was pruned, yet some entries reached the master via
        // the stale-forward path.
        assert!(report.rack.forwarded_stale > 0, "expected stale forwards under ACK loss");
        // Those extras are exactly the §7.2 "superset is fine" case.
    }

    #[test]
    fn gap_drops_happen_under_loss() {
        let cfg = RackConfig {
            faults: FaultProfile { drop_prob: 0.2, ..FaultProfile::lossless() },
            rto_ns: 100_000,
            window: Some(32),
            ..Default::default()
        };
        let sim = TransferSim::new(cfg, streams(1, 400), |_, _, _| Verdict::Forward);
        let report = sim.run();
        assert!(report.rack.completed);
        assert!(report.rack.dropped_ahead > 0, "windowed sending over loss must create gaps");
        assert_eq!(report.delivered_unique(), 400);
    }

    #[test]
    fn corruption_is_detected_and_recovered() {
        let cfg = RackConfig {
            faults: FaultProfile { corrupt_prob: 0.10, ..FaultProfile::lossless() },
            rto_ns: 100_000,
            ..Default::default()
        };
        let sim = TransferSim::new(cfg, streams(1, 200), |_, _, _| Verdict::Forward);
        let report = sim.run();
        assert!(report.rack.completed);
        assert!(report.rack.malformed > 0, "corrupted packets must be caught by checksums");
        assert_eq!(report.delivered_unique(), 200);
    }

    #[test]
    fn faster_downlink_does_not_change_delivery() {
        let cfg = RackConfig { downlink_bps: 20e9, ..RackConfig::default() };
        let sim = TransferSim::new(cfg, streams(2, 100), |_, _, _| Verdict::Forward);
        let report = sim.run();
        assert_eq!(report.delivered_unique(), 200);
    }

    #[test]
    fn transfer_time_scales_with_rate() {
        let run = |bps: f64| {
            let cfg = RackConfig {
                uplink_bps: bps,
                downlink_bps: bps,
                window: Some(1024),
                ..Default::default()
            };
            TransferSim::new(cfg, streams(1, 2_000), |_, _, _| Verdict::Prune)
                .run()
                .rack
                .sim_seconds
        };
        let slow = run(1e9);
        let fast = run(10e9);
        assert!(slow > fast * 3.0, "slow {slow}, fast {fast}");
    }

    #[test]
    fn a_black_hole_stalls_after_a_fixed_number_of_timeouts() {
        // Nothing ever arrives, so no ACK moves a window: each flow resends
        // its whole window on each of its first `STALL_TIMEOUTS − 1`
        // timeouts, and flow 0's next timeout ends the run.
        let cfg = RackConfig {
            faults: FaultProfile { drop_prob: 1.0, ..FaultProfile::lossless() },
            ..RackConfig::default()
        };
        let mut flows = streams(3, 500);
        flows[2].truncate(10);
        let report = TransferSim::new(cfg, flows, |_, _, _| Verdict::Forward).run();
        assert!(!report.rack.completed);
        assert_eq!(report.delivered_unique(), 0);
        let resends = u64::from(crate::rack::STALL_TIMEOUTS - 1);
        assert_eq!(
            report.rack.flow_retransmissions,
            vec![resends * 64, resends * 64, resends * 10]
        );
        let rto = RackConfig::default().rto_ns as f64 / 1e9;
        assert_eq!(report.rack.sim_seconds, f64::from(crate::rack::STALL_TIMEOUTS) * rto);
    }

    #[test]
    fn empty_streams_complete_immediately() {
        let sim =
            TransferSim::new(RackConfig::default(), streams(2, 0), |_, _, _| Verdict::Forward);
        let report = sim.run();
        // Workers with nothing to send: all_acked() is true from the
        // start, but FINs only go out on ACK receipt — the timer path
        // must cover this.
        assert!(report.rack.completed, "empty flows must still FIN");
        assert_eq!(report.delivered_unique(), 0);
    }
}
