//! A dslab-mp-style bounded model checker for the §7.2 entry protocol.
//!
//! [`crate::transfer`] samples one fault pattern per seed; this module
//! *exhausts* them. [`explore`] enumerates every schedule in which a small
//! set of entry flows reaches the master through the §7.2 roles, and
//! invokes a visitor with each complete schedule of master arrivals. The
//! switch is a [`SwitchFlow`] per flow, which sequences every arrival, and
//! the verdict it reaches on each in-order entry is given up front (in the
//! fabric gate: the shard program's own). The visitor replays the arrivals
//! into what it checks — in the fabric gate, a [`MasterFlow`] per flow,
//! then the query's completion over the delivered rows, which must equal
//! the baseline whatever the schedule.
//!
//! [`MasterFlow`]: crate::reliability::MasterFlow
//!
//! # The action model
//!
//! From each explorer state the enabled actions are:
//!
//! * **Deliver** — a flow's next entry reaches the switch, in sequence
//!   order, and is processed (`Y = X + 1`): forwarded, it reaches the
//!   master ([`DeliveryKind::Fresh`]); pruned, the switch ACKs it and
//!   nothing reaches the master. A loss *before* the switch only delays
//!   the flow's head — the switch drops whatever overtakes it
//!   (`Y > X + 1`), so the head still arrives first — which is an
//!   interleaving of the flows, already enumerated.
//! * **Drop** — a forwarded entry is lost between the switch and the
//!   master; bounded by [`CheckerConfig::drop_budget`]. Go-back-N
//!   guarantees its worker resends it, so every lost entry must later be…
//! * **Redeliver** — a lost entry's resend reaches the switch, which has
//!   processed it already (`Y ≤ X`) and forwards it unprocessed
//!   ([`DeliveryKind::Retransmit`]). It may land at any later point — the
//!   source of out-of-order delivery.
//! * **Lose an ACK** — a pruned entry's switch ACK is lost; bounded by
//!   [`CheckerConfig::stale_budget`]. Its worker resends it, and the switch
//!   forwards the resend unprocessed, so a pruned entry reaches the master
//!   ([`DeliveryKind::Stale`]) — §7.2's "a superset is fine" case.
//! * **Duplicate** — an entry the master already received arrives again
//!   ([`DeliveryKind::Duplicate`]); bounded by
//!   [`CheckerConfig::dup_budget`]. Models both link-level duplication
//!   and a resend racing the master's ACK.
//!
//! A schedule is complete when every flow is exhausted and no lost entry
//! or lost ACK awaits its resend (the protocol's termination guarantee:
//! FINs are not ACKed until all data is). Trailing duplicates after the
//! last arrival are explored too.
//!
//! # State-space bounds
//!
//! With no fault budgets the schedule count is the multinomial
//! `(Σnᵢ)! / Πnᵢ!` over flow lengths `nᵢ` — e.g. 2 flows × 3 entries =
//! `C(6,3)` = 20 schedules; 3 × 3 = 1 680 — whatever the verdicts, since a
//! pruned entry's arrival at the switch is an interleaving point too. Each
//! unit of drop or stale budget multiplies the count by roughly the
//! schedule length (choosing when the resend lands), and each unit of
//! duplication budget by roughly the number of delivered entries — so
//! budgets of 1–2 over ≤ 12 entries stay in the tens of thousands of
//! schedules. Drop timing itself is unobservable, so a few arrival orders
//! are revisited; the explorer bounds work, not uniqueness.
//! [`ExploreStats::truncated`] reports whether
//! [`CheckerConfig::max_schedules`] cut the search short — gates assert it
//! is `false`, making the exhaustiveness claim explicit.

use crate::reliability::{SwitchAction, SwitchFlow};
use cheetah_switch::Verdict;

/// Bounds of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Per flow (index = flow id), the switch's verdict on each entry, in
    /// sequence order: the flow's length and what the switch does with each
    /// entry it processes.
    pub verdicts: Vec<Vec<Verdict>>,
    /// How many forwarded entries a schedule may lose past the switch.
    pub drop_budget: usize,
    /// How many Duplicate actions a schedule may contain.
    pub dup_budget: usize,
    /// How many pruned entries a schedule may lose the switch ACK of.
    pub stale_budget: usize,
    /// Safety valve: stop after this many complete schedules. An
    /// exhaustive gate asserts the search finished *under* this bound
    /// (`!truncated`).
    pub max_schedules: u64,
}

/// How an entry reached the master in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// Forwarded when the switch processed it, in sequence order.
    Fresh,
    /// A forwarded entry lost past the switch, resent and forwarded
    /// unprocessed — may be out of order relative to fresh arrivals of the
    /// same flow.
    Retransmit,
    /// A pruned entry whose switch ACK was lost, resent and forwarded
    /// unprocessed.
    Stale,
    /// A second arrival of an entry the master already received.
    Duplicate,
}

/// One entry's arrival at the master in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Flow index.
    pub flow: usize,
    /// Sequence number within the flow, from 1 as on the wire.
    pub seq: u64,
    /// Fresh, retransmitted, stale or duplicated.
    pub kind: DeliveryKind,
}

/// What an exploration covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Complete schedules visited.
    pub schedules: u64,
    /// Schedules containing at least one Drop/Redeliver pair.
    pub schedules_with_drop: u64,
    /// Schedules containing at least one Duplicate.
    pub schedules_with_dup: u64,
    /// Schedules in which a pruned entry reached the master stale.
    pub schedules_with_stale: u64,
    /// True when `max_schedules` stopped the search before exhaustion —
    /// an exhaustive gate must see `false` here.
    pub truncated: bool,
}

struct Explorer<'v> {
    cfg: &'v CheckerConfig,
    visit: &'v mut dyn FnMut(&[Delivery]),
    stats: ExploreStats,
    schedule: Vec<Delivery>,
    /// The switch's sequencing state per flow.
    switches: Vec<SwitchFlow>,
    /// Entries the switch has processed per flow.
    heads: Vec<usize>,
    /// Forwarded entries lost past the switch, not yet resent.
    lost: Vec<(usize, u64)>,
    /// Pruned entries whose ACK was lost, not yet resent.
    unacked: Vec<(usize, u64)>,
    drops_used: usize,
    dups_used: usize,
    stales_used: usize,
}

impl Explorer<'_> {
    fn dfs(&mut self) {
        if self.stats.truncated {
            return;
        }
        if self.stats.schedules >= self.cfg.max_schedules {
            self.stats.truncated = true;
            return;
        }
        let terminal = self.heads.iter().zip(&self.cfg.verdicts).all(|(&h, v)| h >= v.len())
            && self.lost.is_empty()
            && self.unacked.is_empty();
        if terminal {
            self.stats.schedules += 1;
            let has = |kind| self.schedule.iter().any(|d| d.kind == kind);
            self.stats.schedules_with_drop += u64::from(has(DeliveryKind::Retransmit));
            self.stats.schedules_with_dup += u64::from(has(DeliveryKind::Duplicate));
            self.stats.schedules_with_stale += u64::from(has(DeliveryKind::Stale));
            (self.visit)(&self.schedule);
            // Fall through: trailing Duplicate actions extend this
            // schedule into further (also terminal) schedules.
        }

        // Each flow's next entry reaches the switch and is processed.
        for f in 0..self.cfg.verdicts.len() {
            let Some(&verdict) = self.cfg.verdicts[f].get(self.heads[f]) else {
                continue;
            };
            let seq = self.heads[f] as u64 + 1;
            let before = self.switches[f].clone();
            let action = self.switches[f].classify(seq);
            assert_eq!(action, SwitchAction::Process, "a flow's head arrives in order");
            self.heads[f] += 1;
            match verdict {
                Verdict::Forward => {
                    self.arrive(f, seq, DeliveryKind::Fresh);
                    if self.drops_used < self.cfg.drop_budget {
                        self.drops_used += 1;
                        self.lost.push((f, seq));
                        self.dfs();
                        self.lost.pop();
                        self.drops_used -= 1;
                    }
                }
                Verdict::Prune => {
                    // The switch ACKs it: nothing reaches the master.
                    self.dfs();
                    if self.stales_used < self.cfg.stale_budget {
                        self.stales_used += 1;
                        self.unacked.push((f, seq));
                        self.dfs();
                        self.unacked.pop();
                        self.stales_used -= 1;
                    }
                }
            }
            self.heads[f] -= 1;
            self.switches[f] = before;
        }

        // Resend a lost entry, or a pruned one whose ACK was lost.
        for i in 0..self.lost.len() {
            let (f, seq) = self.lost.remove(i);
            self.resend(f, seq, DeliveryKind::Retransmit);
            self.lost.insert(i, (f, seq));
        }
        for i in 0..self.unacked.len() {
            let (f, seq) = self.unacked.remove(i);
            self.resend(f, seq, DeliveryKind::Stale);
            self.unacked.insert(i, (f, seq));
        }

        // Duplicate any entry delivered so far.
        if self.dups_used < self.cfg.dup_budget {
            let mut delivered: Vec<(usize, u64)> = Vec::new();
            for d in self.schedule.iter().filter(|d| d.kind != DeliveryKind::Duplicate) {
                if !delivered.contains(&(d.flow, d.seq)) {
                    delivered.push((d.flow, d.seq));
                }
            }
            self.dups_used += 1;
            for (f, seq) in delivered {
                self.arrive(f, seq, DeliveryKind::Duplicate);
            }
            self.dups_used -= 1;
        }
    }

    /// A resend reaches a switch that has processed it, which forwards it
    /// unprocessed to the master.
    fn resend(&mut self, f: usize, seq: u64, kind: DeliveryKind) {
        let action = self.switches[f].classify(seq);
        assert_eq!(action, SwitchAction::ForwardStale, "a resend follows its processing");
        self.arrive(f, seq, kind);
    }

    /// Entry `seq` of flow `f` reaches the master; explore from there.
    fn arrive(&mut self, f: usize, seq: u64, kind: DeliveryKind) {
        self.schedule.push(Delivery { flow: f, seq, kind });
        self.dfs();
        self.schedule.pop();
    }
}

/// Exhaustively explore every schedule allowed by `cfg`, invoking `visit`
/// once per complete schedule of master arrivals. Returns what was
/// covered; callers proving exhaustiveness must assert
/// [`ExploreStats::truncated`] is false.
pub fn explore(cfg: &CheckerConfig, mut visit: impl FnMut(&[Delivery])) -> ExploreStats {
    let flows = cfg.verdicts.len();
    let mut explorer = Explorer {
        cfg,
        visit: &mut visit,
        stats: ExploreStats::default(),
        schedule: Vec::new(),
        switches: vec![SwitchFlow::new(); flows],
        heads: vec![0; flows],
        lost: Vec::new(),
        unacked: Vec::new(),
        drops_used: 0,
        dups_used: 0,
        stales_used: 0,
    };
    explorer.dfs();
    explorer.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::MasterFlow;
    use std::collections::HashSet;

    const F: Verdict = Verdict::Forward;
    const P: Verdict = Verdict::Prune;

    fn cfg(verdicts: &[&[Verdict]], drops: usize, dups: usize, stales: usize) -> CheckerConfig {
        CheckerConfig {
            verdicts: verdicts.iter().map(|v| v.to_vec()).collect(),
            drop_budget: drops,
            dup_budget: dups,
            stale_budget: stales,
            max_schedules: 10_000_000,
        }
    }

    /// What the master keeps of a schedule: each flow's arrivals deduped by
    /// a [`MasterFlow`].
    fn delivered(flows: usize, sched: &[Delivery]) -> HashSet<(usize, u64)> {
        let mut masters: Vec<MasterFlow> = (0..flows).map(|_| MasterFlow::default()).collect();
        let mut kept = HashSet::new();
        for d in sched {
            if masters[d.flow].on_data(d.seq) {
                assert!(kept.insert((d.flow, d.seq)));
            } else {
                assert_eq!(d.kind, DeliveryKind::Duplicate, "only a duplicate is a duplicate");
            }
        }
        kept
    }

    #[test]
    fn fault_free_count_is_the_exact_multinomial() {
        // 2 flows × 3 entries: C(6,3) = 20 interleavings, no more, no less.
        let stats = explore(&cfg(&[&[F; 3], &[F; 3]], 0, 0, 0), |_| {});
        assert_eq!(stats.schedules, 20);
        assert!(!stats.truncated);
        assert_eq!(stats.schedules_with_drop, 0);
        assert_eq!(stats.schedules_with_dup, 0);
        // 3 flows × 2 entries: 6!/(2!2!2!) = 90, whatever is pruned.
        assert_eq!(explore(&cfg(&[&[F, P], &[P, P], &[F, F]], 0, 0, 0), |_| {}).schedules, 90);
        // Single flow: exactly one order.
        assert_eq!(explore(&cfg(&[&[F; 4]], 0, 0, 0), |_| {}).schedules, 1);
    }

    #[test]
    fn fault_free_schedules_are_fifo_per_flow_and_distinct() {
        let mut seen = HashSet::new();
        let stats = explore(&cfg(&[&[F; 3], &[F; 2]], 0, 0, 0), |sched| {
            let mut last = [0u64; 2];
            for d in sched {
                assert_eq!(d.kind, DeliveryKind::Fresh);
                assert_eq!(d.seq, last[d.flow] + 1, "per-flow FIFO violated");
                last[d.flow] = d.seq;
            }
            let key: Vec<(usize, u64)> = sched.iter().map(|d| (d.flow, d.seq)).collect();
            assert!(seen.insert(key), "fault-free schedules must be unique");
        });
        assert_eq!(stats.schedules, 10); // C(5,2)
    }

    #[test]
    fn every_schedule_delivers_between_the_forwarded_entries_and_all() {
        let verdicts: [&[Verdict]; 2] = [&[F, P, F], &[P, F]];
        let forwarded = HashSet::from([(0, 1), (0, 3), (1, 2)]);
        let stats = explore(&cfg(&verdicts, 1, 1, 1), |sched| {
            let got = delivered(2, sched);
            assert!(got.is_superset(&forwarded), "a forwarded entry went missing: {sched:?}");
            for d in sched.iter().filter(|d| d.kind == DeliveryKind::Stale) {
                assert_eq!(verdicts[d.flow][d.seq as usize - 1], P, "only a pruned entry is stale");
            }
        });
        assert!(!stats.truncated);
        assert!(stats.schedules_with_drop > 0, "drop budget must be exercised");
        assert!(stats.schedules_with_dup > 0, "dup budget must be exercised");
        assert!(stats.schedules_with_stale > 0, "stale budget must be exercised");
        // With nothing pruned, no ACK of the switch's can be lost.
        let none = explore(&cfg(&[&[F, F]], 0, 0, 1), |_| {});
        assert_eq!(none.schedules_with_stale, 0);
    }

    #[test]
    fn drops_create_out_of_order_delivery() {
        // With one drop allowed, some schedule must deliver seq 2 before
        // the retransmitted seq 1 — the reordering the master must survive.
        let mut reordered = false;
        explore(&cfg(&[&[F; 3]], 1, 0, 0), |sched| {
            let pos = |seq| sched.iter().position(|d| d.seq == seq).unwrap();
            reordered |= pos(2) < pos(1);
        });
        assert!(reordered, "the explorer must reach out-of-order deliveries");
    }

    #[test]
    fn duplicates_replay_only_delivered_entries() {
        explore(&cfg(&[&[F, P], &[F]], 0, 2, 1), |sched| {
            for (i, d) in
                sched.iter().enumerate().filter(|(_, d)| d.kind == DeliveryKind::Duplicate)
            {
                assert!(
                    sched[..i].iter().any(|p| {
                        p.kind != DeliveryKind::Duplicate && (p.flow, p.seq) == (d.flow, d.seq)
                    }),
                    "duplicate of a never-delivered entry in {sched:?}"
                );
            }
        });
    }

    #[test]
    fn truncation_is_reported_not_silent() {
        let c = CheckerConfig { max_schedules: 5, ..cfg(&[&[F; 4], &[F; 4]], 0, 0, 0) };
        let stats = explore(&c, |_| {}); // far below the 70 interleavings
        assert!(stats.truncated);
        assert!(stats.schedules <= 5);
    }

    #[test]
    fn zero_entries_yield_the_single_empty_schedule() {
        let mut calls = 0;
        let stats = explore(&cfg(&[&[], &[]], 1, 1, 1), |sched| {
            assert!(sched.is_empty());
            calls += 1;
        });
        assert_eq!(stats.schedules, 1);
        assert_eq!(calls, 1);
    }
}
