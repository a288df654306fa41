//! The §7.2 reliability protocol state machines.
//!
//! UDP gives the low latency Cheetah needs, but the switch prunes packets —
//! so a plain sequence-number scheme cannot tell "pruned" from "lost". The
//! paper's fix: the **switch participates**. It tracks, per flow, the last
//! sequence number `X` it processed and ACKs every packet it prunes. For an
//! arriving packet with sequence `Y`:
//!
//! * `Y = X + 1` — process normally (prune + ACK, or forward; the master
//!   ACKs what it receives);
//! * `Y ≤ X` — a retransmission of something already processed: **forward
//!   without processing** (reprocessing could wrongly prune it — and the
//!   master can always discard extras, because any superset of the
//!   unpruned data yields the same output);
//! * `Y > X + 1` — an earlier packet is missing: drop and wait for the
//!   retransmission, keeping the switch's state stream-ordered.
//!
//! Workers run a go-back-N window over per-packet ACKs; the master
//! deduplicates by sequence number.

use std::collections::HashSet;

/// Switch-side per-flow sequencing state.
#[derive(Debug, Clone)]
pub struct SwitchFlow {
    /// The next in-order sequence number (X + 1).
    expected: u64,
}

/// What the switch should do with an arriving data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchAction {
    /// In-order: run the pruning program.
    Process,
    /// Retransmission of an already-processed packet: forward unprocessed.
    ForwardStale,
    /// A gap: drop and wait for the missing packet.
    DropAhead,
}

impl SwitchFlow {
    /// Sequence numbers start at 1.
    pub fn new() -> Self {
        Self { expected: 1 }
    }

    /// Classify a sequence number, advancing the state on `Process`.
    pub fn classify(&mut self, seq: u64) -> SwitchAction {
        use std::cmp::Ordering::*;
        match seq.cmp(&self.expected) {
            Equal => {
                self.expected += 1;
                SwitchAction::Process
            }
            Less => SwitchAction::ForwardStale,
            Greater => SwitchAction::DropAhead,
        }
    }
}

impl Default for SwitchFlow {
    fn default() -> Self {
        Self::new()
    }
}

/// Worker-side go-back-N sender over per-packet ACKs.
#[derive(Debug)]
pub struct WorkerFlow {
    /// Flow id.
    pub fid: u32,
    total: u64,
    window: u64,
    /// Lowest unacknowledged sequence number.
    base: u64,
    /// Next sequence number never sent.
    next: u64,
    /// Out-of-order ACKs above `base`.
    acked: HashSet<u64>,
    /// Number of retransmitted packets.
    pub retransmissions: u64,
    /// Epoch for invalidating stale timers: bumped whenever `base` moves.
    pub timer_epoch: u64,
}

impl WorkerFlow {
    /// A flow of `total` entries (sequences `1..=total`).
    pub fn new(fid: u32, total: u64, window: u64) -> Self {
        assert!(window >= 1);
        Self {
            fid,
            total,
            window,
            base: 1,
            next: 1,
            acked: HashSet::new(),
            retransmissions: 0,
            timer_epoch: 0,
        }
    }

    /// Sequences that may be transmitted now for the first time.
    pub fn sendable(&mut self) -> Vec<u64> {
        let hi = (self.base + self.window).min(self.total + 1);
        let out: Vec<u64> = (self.next..hi).collect();
        self.next = self.next.max(hi);
        out
    }

    /// Record an ACK; returns true if the window advanced.
    pub fn on_ack(&mut self, seq: u64) -> bool {
        if seq < self.base || seq > self.total {
            return false;
        }
        self.acked.insert(seq);
        let mut moved = false;
        while self.acked.remove(&self.base) {
            self.base += 1;
            moved = true;
        }
        if moved {
            self.timer_epoch += 1;
        }
        moved
    }

    /// Timeout of the window base: retransmit every unacked sequence in
    /// the window (go-back-N).
    pub fn on_timeout(&mut self) -> Vec<u64> {
        if self.all_acked() {
            return Vec::new();
        }
        let hi = (self.base + self.window).min(self.next);
        let out: Vec<u64> = (self.base..hi).filter(|s| !self.acked.contains(s)).collect();
        self.retransmissions += out.len() as u64;
        self.timer_epoch += 1;
        out
    }

    /// All data acknowledged?
    pub fn all_acked(&self) -> bool {
        self.base > self.total
    }

    /// Total entries in the flow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lowest unacknowledged sequence (for diagnostics).
    pub fn base(&self) -> u64 {
        self.base
    }
}

/// Master-side receive state: per-flow dedup and FIN tracking.
#[derive(Debug, Default)]
pub struct MasterFlow {
    delivered: HashSet<u64>,
    /// Duplicates discarded (retransmissions that arrived twice).
    pub duplicates: u64,
    /// FIN received?
    pub fin_seen: bool,
}

impl MasterFlow {
    /// Record an arriving sequence; returns true if it is new.
    pub fn on_data(&mut self, seq: u64) -> bool {
        if self.delivered.insert(seq) {
            true
        } else {
            self.duplicates += 1;
            false
        }
    }

    /// Unique delivered count.
    pub fn unique(&self) -> u64 {
        self.delivered.len() as u64
    }

    /// Was this sequence delivered?
    pub fn has(&self, seq: u64) -> bool {
        self.delivered.contains(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_flow_protocol_rules() {
        let mut f = SwitchFlow::new();
        assert_eq!(f.classify(1), SwitchAction::Process);
        assert_eq!(f.classify(2), SwitchAction::Process);
        // Retransmission of 1 (already processed).
        assert_eq!(f.classify(1), SwitchAction::ForwardStale);
        // Gap: 4 arrives before 3.
        assert_eq!(f.classify(4), SwitchAction::DropAhead);
        assert_eq!(f.expected, 3, "the last processed sequence is 2");
        assert_eq!(f.classify(3), SwitchAction::Process);
        assert_eq!(f.classify(4), SwitchAction::Process);
    }

    #[test]
    fn worker_window_limits_first_transmissions() {
        let mut w = WorkerFlow::new(0, 10, 4);
        assert_eq!(w.sendable(), vec![1, 2, 3, 4]);
        assert_eq!(w.sendable(), Vec::<u64>::new(), "window full");
        w.on_ack(1);
        assert_eq!(w.sendable(), vec![5]);
    }

    #[test]
    fn out_of_order_acks_advance_in_bulk() {
        let mut w = WorkerFlow::new(0, 10, 10);
        w.sendable();
        assert!(!w.on_ack(3));
        assert!(!w.on_ack(2));
        assert_eq!(w.base(), 1);
        assert!(w.on_ack(1), "cumulative advance through buffered acks");
        assert_eq!(w.base(), 4);
    }

    #[test]
    fn timeout_retransmits_only_unacked() {
        let mut w = WorkerFlow::new(0, 10, 5);
        w.sendable(); // 1..=5 in flight
        w.on_ack(2);
        w.on_ack(4);
        assert_eq!(w.on_timeout(), vec![1, 3, 5]);
        assert_eq!(w.retransmissions, 3);
    }

    #[test]
    fn flow_completes() {
        let mut w = WorkerFlow::new(0, 3, 8);
        w.sendable();
        for s in 1..=3 {
            w.on_ack(s);
        }
        assert!(w.all_acked());
        assert!(w.on_timeout().is_empty());
    }

    #[test]
    fn acks_outside_range_ignored() {
        let mut w = WorkerFlow::new(0, 3, 8);
        w.sendable();
        assert!(!w.on_ack(0));
        assert!(!w.on_ack(99));
        assert_eq!(w.base(), 1);
    }

    #[test]
    fn duplicate_acks_harmless() {
        let mut w = WorkerFlow::new(0, 5, 8);
        w.sendable();
        w.on_ack(1);
        w.on_ack(1);
        assert_eq!(w.base(), 2);
    }

    #[test]
    fn timer_epoch_bumps_on_progress() {
        let mut w = WorkerFlow::new(0, 5, 8);
        w.sendable();
        let e0 = w.timer_epoch;
        w.on_ack(1);
        assert!(w.timer_epoch > e0);
    }

    #[test]
    fn master_dedups() {
        let mut m = MasterFlow::default();
        assert!(m.on_data(1));
        assert!(!m.on_data(1));
        assert!(m.on_data(2));
        assert_eq!(m.unique(), 2);
        assert_eq!(m.duplicates, 1);
        assert!(m.has(1) && !m.has(3));
    }

    // ------------------------------------------------------------------
    // Property tests: go-back-N window edges under arbitrary ACK loss,
    // duplicate ACKs, and the ForwardStale superset invariant.
    // ------------------------------------------------------------------

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// Under any ACK-loss pattern the window never holds more than
        /// `window` unacked sequences, wraps cleanly past every multiple
        /// of the window size, and the flow still completes once losses
        /// stop recurring.
        #[test]
        fn window_never_overflows_and_completes_under_ack_loss(
            total in 0u64..48,
            window in 1u64..13,
            ack_loss in prop::collection::vec(any::<bool>(), 0..256),
        ) {
            let mut w = WorkerFlow::new(0, total, window);
            let mut loss = ack_loss.into_iter().chain(std::iter::repeat(false));
            let mut rounds = 0u32;
            while !w.all_acked() {
                rounds += 1;
                prop_assert!(rounds < 1_000, "flow failed to complete");
                let mut in_flight = w.sendable();
                for &s in &in_flight {
                    prop_assert!(s >= w.base() && s < w.base() + window, "seq {s} outside window");
                }
                in_flight.extend(w.on_timeout());
                for s in in_flight {
                    if !loss.next().unwrap() {
                        w.on_ack(s);
                    }
                }
            }
            prop_assert_eq!(w.base(), total + 1, "completion means base walked past total");
            prop_assert!(w.sendable().is_empty());
            prop_assert!(w.on_timeout().is_empty());
        }

        /// A timeout retransmits exactly unacked in-window sequences:
        /// nothing acked, nothing outside the window, counted precisely.
        #[test]
        fn timeout_resends_only_unacked_in_window(
            total in 1u64..40,
            window in 1u64..12,
            acks in prop::collection::vec(1u64..40, 0..40),
        ) {
            let mut w = WorkerFlow::new(0, total, window);
            w.sendable();
            let mut acked = HashSet::new();
            for &s in &acks {
                if s >= w.base() && s <= w.total() {
                    acked.insert(s);
                }
                w.on_ack(s);
                w.sendable();
            }
            let before = w.retransmissions;
            let resent = w.on_timeout();
            prop_assert_eq!(w.retransmissions - before, resent.len() as u64);
            for &s in &resent {
                prop_assert!(!acked.contains(&s), "retransmitted an acked seq {s}");
                prop_assert!(s >= w.base() && s < w.base() + window);
            }
            // Sorted and unique by construction of go-back-N.
            let mut sorted = resent.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted, resent);
        }

        /// Delivering every ACK twice (duplicate ACKs from retransmit
        /// overlap) leaves the sender in exactly the state of a
        /// single-delivery run.
        #[test]
        fn duplicate_acks_reach_the_same_state_as_single_acks(
            total in 1u64..30,
            window in 1u64..10,
            acks in prop::collection::vec(1u64..30, 0..90),
        ) {
            let mut once = WorkerFlow::new(0, total, window);
            let mut twice = WorkerFlow::new(1, total, window);
            once.sendable();
            twice.sendable();
            for &s in &acks {
                once.on_ack(s);
                twice.on_ack(s);
                twice.on_ack(s);
                once.sendable();
                twice.sendable();
            }
            prop_assert_eq!(once.base(), twice.base());
            prop_assert_eq!(once.all_acked(), twice.all_acked());
            prop_assert_eq!(once.on_timeout(), twice.on_timeout());
        }

        /// The switch processes each sequence exactly once, in order:
        /// `Process` verdicts form the prefix 1, 2, 3, …; `ForwardStale`
        /// fires only at or below the high-water mark; `DropAhead` never
        /// advances state.
        #[test]
        fn switch_classification_is_a_strict_prefix_machine(
            arrivals in prop::collection::vec(1u64..=14, 0..120),
        ) {
            let mut f = SwitchFlow::new();
            let mut processed = 0u64;
            for &s in &arrivals {
                match f.classify(s) {
                    SwitchAction::Process => {
                        processed += 1;
                        prop_assert_eq!(s, processed, "processed out of order");
                    }
                    SwitchAction::ForwardStale => prop_assert!(s < f.expected),
                    SwitchAction::DropAhead => prop_assert!(s > f.expected),
                }
                prop_assert_eq!(f.expected - 1, processed);
            }
        }

        /// The §7.2 superset invariant: stale retransmissions may deliver
        /// *pruned* entries to the master, but because pruning is sound
        /// (a pruned entry can never win the query), the master's answer
        /// over its deduplicated superset equals the lossless answer.
        /// Modelled with a MAX query and a threshold pruner.
        #[test]
        fn forward_stale_superset_never_changes_the_answer(
            values in prop::collection::vec(0u64..1_000, 1..16),
            chaos in prop::collection::vec(1usize..=16, 0..64),
        ) {
            let n = values.len();
            // Sound pruning for MAX: drop anything strictly below the
            // true maximum (the winner always survives).
            let truth = *values.iter().max().unwrap();
            let prune = |v: u64| v < truth;

            // Arbitrary arrival schedule at the switch — retransmissions,
            // reordering, duplicates — then one clean in-order pass, the
            // eventual delivery go-back-N guarantees.
            let arrivals =
                chaos.iter().filter(|&&s| s <= n).map(|&s| s as u64).chain(1..=n as u64);

            let mut switch = SwitchFlow::new();
            let mut master = MasterFlow::default();
            let mut delivered: Vec<u64> = Vec::new();
            let mut pruned_then_acked = HashSet::new();
            for seq in arrivals {
                let v = values[(seq - 1) as usize];
                match switch.classify(seq) {
                    SwitchAction::Process => {
                        if prune(v) {
                            pruned_then_acked.insert(seq); // switch ACKs it
                        } else if master.on_data(seq) {
                            delivered.push(v);
                        }
                    }
                    // Forwarded *without* reprocessing: even a previously
                    // pruned entry reaches the master here.
                    SwitchAction::ForwardStale => {
                        if master.on_data(seq) {
                            delivered.push(v);
                        }
                    }
                    SwitchAction::DropAhead => {}
                }
            }
            // Every unpruned entry arrived (the clean pass guarantees it)…
            for seq in 1..=n as u64 {
                if !prune(values[(seq - 1) as usize]) {
                    prop_assert!(master.has(seq), "unpruned seq {seq} missing");
                }
            }
            // …extras are only ever entries the switch had already pruned
            // and ACKed (superset bounded by the full input)…
            prop_assert!(delivered.len() <= n);
            for seq in 1..=n as u64 {
                if master.has(seq) && prune(values[(seq - 1) as usize]) {
                    prop_assert!(
                        pruned_then_acked.contains(&seq),
                        "pruned seq {seq} delivered without a prior Process"
                    );
                }
            }
            // …and the query answer over the superset is the lossless one.
            prop_assert_eq!(delivered.iter().copied().max(), Some(truth));
        }
    }
}
