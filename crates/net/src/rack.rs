//! The one §7.2 carrier: a seeded discrete-event rack.
//!
//! `W` workers with per-worker uplinks into one switch, one shared
//! downlink to the master, and per-worker ACK return paths; every link
//! is a [`Link`] driven by one [`FaultProfile`] (drops, single-octet
//! corruption, duplication, jitter-induced reordering). The three roles
//! run the real state machines of [`crate::reliability`]:
//!
//! * **workers** run a go-back-N [`WorkerFlow`] window over their flow,
//!   retransmit the unacked window on timeout, and close with a FIN
//!   handshake once everything is acknowledged;
//! * **the switch** verifies each entry (as a real switch verifies the
//!   FCS), sequences it with a [`SwitchFlow`] — process `Y = X+1`,
//!   forward `Y ≤ X` unprocessed, drop `Y > X+1` — asks the pruning
//!   function for a verdict on each entry it processes, and ACKs what it
//!   prunes;
//! * **the master** dedups by sequence with a [`MasterFlow`], ACKs every
//!   valid entry and FIN, and keeps each *new* entry's sequence number.
//!
//! A run ends when every flow's FIN is acknowledged, when a flow has
//! timed out [`STALL_TIMEOUTS`] times in a row with no ACK moving its
//! window (a fabric that delivers nothing), or at the config's simulated
//! time limit; the last two leave [`RackReport::completed`] false.
//!
//! The loop that drives them exists once, here; what rides it is always
//! the entry packets of [`crate::wire`] ([`DataPacket`]), and
//! [`crate::transfer`] is its public face. Everything is seeded: the same
//! config, entries and verdicts reproduce the same [`RackReport`] bit for
//! bit, retransmit counts included — which is what keeps a lossy CI
//! failure reproducible.

use crate::channel::{Arrival, FaultProfile, Link, SimTime};
use crate::reliability::{MasterFlow, SwitchAction, SwitchFlow, WorkerFlow};
use crate::wire::{AckPacket, AckSource, DataPacket, Packet};
use bytes::Bytes;
use cheetah_switch::Verdict;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The send window when a config pins none: entries are small and
/// uniform, so a constant 64 in flight.
pub const DEFAULT_WINDOW: u64 = 64;

/// Consecutive retransmission timeouts after which a flow with no ACK
/// progress in between ends the run, incomplete. Under
/// [`FaultProfile::harsh`] a timeout resends the window's base, whose ACK
/// crosses at most three links that each pass it with probability
/// 0.85 × 0.85, so it comes back at least three times in eight: 64
/// misses in a row (a chance below 10⁻¹²) is a fabric that delivers
/// nothing, not bad luck. A black hole then costs each flow 63 resends
/// of its window, not the `max_ns / rto_ns` timeouts of the time limit.
pub const STALL_TIMEOUTS: u32 = 64;

/// Configuration of a rack run.
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// Per-worker uplink rate (bits/second).
    pub uplink_bps: f64,
    /// Switch→master downlink rate (bits/second).
    pub downlink_bps: f64,
    /// One-way link latency in nanoseconds.
    pub latency_ns: SimTime,
    /// Fault profile applied to every link.
    pub faults: FaultProfile,
    /// Worker send window in data units. `None` takes [`DEFAULT_WINDOW`].
    pub window: Option<u64>,
    /// Retransmission timeout in nanoseconds.
    pub rto_ns: SimTime,
    /// Simulation time limit (safety stop; a black hole stops sooner, at
    /// [`STALL_TIMEOUTS`]).
    pub max_ns: SimTime,
    /// RNG seed (drives every link's fault draws).
    pub seed: u64,
}

impl Default for RackConfig {
    fn default() -> Self {
        Self {
            uplink_bps: 10e9,
            downlink_bps: 10e9,
            latency_ns: 1_000,
            faults: FaultProfile::lossless(),
            window: None,
            rto_ns: 2_000_000,       // 2 ms
            max_ns: 120_000_000_000, // 2 minutes of simulated time
            seed: 0x7AB5,
        }
    }
}

/// Outcome of a rack run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RackReport {
    /// Simulated completion time in seconds (all flows FIN-acknowledged).
    pub sim_seconds: f64,
    /// Data units retransmitted by workers.
    pub retransmissions: u64,
    /// The same count split by flow id.
    pub flow_retransmissions: Vec<u64>,
    /// Units the switch pruned-and-ACKed.
    pub switch_acks: u64,
    /// Units the switch dropped due to a sequence gap (`Y > X+1`).
    pub dropped_ahead: u64,
    /// Retransmissions the switch forwarded without processing (`Y ≤ X`).
    pub forwarded_stale: u64,
    /// Arrivals discarded on checksum/parse failure (corruption casualties).
    pub malformed: u64,
    /// Duplicates the master discarded (retransmit overlap plus
    /// link-level duplication).
    pub duplicates: u64,
    /// Unique data units the master accepted and delivered.
    pub delivered_units: u64,
    /// Unique payload bits delivered per simulated second.
    pub goodput_bps: f64,
    /// Did the run complete before `max_ns`?
    pub completed: bool,
}

/// The entries that reached the master: per flow (worker `w`'s flow id is
/// `w`), the sequence numbers it accepted, ascending, each once. The
/// values are the sender's: entry `seq` of flow `w` is `packets[w][seq −
/// 1]`.
pub type Delivered = Vec<Vec<u64>>;

/// Bytes an emitted packet occupies on the wire: 42 bytes of Ethernet/IP/UDP
/// encapsulation, padded to the 64-byte minimum frame — the convention of
/// [`Packet::wire_bytes`].
fn wire_bytes(payload: &Bytes) -> u64 {
    (payload.len() as u64 + 42).max(64)
}

/// The link a transmission rides, which also names the role it reaches.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// Worker `w`'s uplink, into the switch.
    Up(usize),
    /// The shared downlink, into the master.
    Down,
    /// The ACK return path, back to worker `w`.
    Back(usize),
}

#[derive(Debug)]
enum Event {
    /// Bytes reaching the far end of a hop.
    Rx(Hop, Bytes),
    /// Retransmission timer for worker `w`, valid only at `epoch`.
    Timer(usize, u64),
}

struct HeapItem {
    at: SimTime,
    tie: u64,
    event: Event,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tie).cmp(&(other.at, other.tie))
    }
}

/// Carry `packets` across the rack to completion (or a stall, or the time limit):
/// worker `w` sends `packets[w]`, the emitted [`DataPacket`]s of flow `w`
/// with sequence numbers counting from 1. The switch asks `verdict` for
/// `(fid, seq, values)` of each entry it processes — once per entry, in
/// sequence order — and prunes (ACKs) or forwards it.
pub fn run<F: FnMut(u32, u64, &[u64]) -> Verdict>(
    cfg: &RackConfig,
    packets: &[Vec<Bytes>],
    mut verdict: F,
) -> (RackReport, Delivered) {
    let window = cfg.window.unwrap_or(DEFAULT_WINDOW);
    let mut rack = Rack::new(cfg, packets, window);
    for w in 0..rack.workers.len() {
        let seqs = rack.workers[w].sendable();
        rack.send_units(w, seqs);
    }
    while let Some(Reverse(item)) = rack.heap.pop() {
        rack.now = item.at;
        if rack.now > cfg.max_ns {
            break;
        }
        match item.event {
            Event::Rx(Hop::Up(_), bytes) => rack.switch_rx(bytes, &mut verdict),
            Event::Rx(Hop::Down, bytes) => rack.master_rx(bytes),
            Event::Rx(Hop::Back(w), bytes) => rack.worker_rx(w, bytes),
            Event::Timer(w, epoch) => rack.on_timer(w, epoch),
        }
        if rack.report.completed || rack.stalled {
            break;
        }
    }
    let sim_seconds = rack.now as f64 / 1e9;
    let flow_retransmissions: Vec<u64> = rack.workers.iter().map(|w| w.retransmissions).collect();
    let report = RackReport {
        sim_seconds,
        retransmissions: flow_retransmissions.iter().sum(),
        flow_retransmissions,
        duplicates: rack.masters.iter().map(|m| m.duplicates).sum(),
        goodput_bps: if sim_seconds > 0.0 {
            rack.delivered_bytes as f64 * 8.0 / sim_seconds
        } else {
            0.0
        },
        ..rack.report
    };
    (report, rack.masters.iter().map(MasterFlow::sequences).collect())
}

/// The state of one run: links, role state machines, the event heap.
struct Rack<'c> {
    cfg: &'c RackConfig,
    /// Each worker's emitted entries, by sequence number − 1.
    packets: &'c [Vec<Bytes>],
    uplinks: Vec<Link>,
    downlink: Link,
    backlinks: Vec<Link>,
    workers: Vec<WorkerFlow>,
    switches: Vec<SwitchFlow>,
    masters: Vec<MasterFlow>,
    fin_sent: Vec<bool>,
    fin_acked: Vec<bool>,
    /// Per worker: timeouts in a row since its window last moved.
    misses: Vec<u32>,
    /// Has a flow reached [`STALL_TIMEOUTS`]?
    stalled: bool,
    heap: BinaryHeap<Reverse<HeapItem>>,
    tie: u64,
    now: SimTime,
    /// Bytes of the unique entries delivered so far.
    delivered_bytes: u64,
    /// The counters bumped as events are handled; `run` fills in the rest.
    report: RackReport,
}

impl<'c> Rack<'c> {
    fn new(cfg: &'c RackConfig, packets: &'c [Vec<Bytes>], window: u64) -> Self {
        let n = packets.len();
        let link = |rate, seed| Link::new(rate, cfg.latency_ns, cfg.faults, seed);
        Self {
            cfg,
            packets,
            uplinks: (0..n as u64).map(|w| link(cfg.uplink_bps, cfg.seed ^ (w << 8))).collect(),
            downlink: link(cfg.downlink_bps, cfg.seed ^ 0xD0_117),
            backlinks: (0..n as u64)
                .map(|w| link(cfg.downlink_bps, cfg.seed ^ 0xACC ^ (w << 16)))
                .collect(),
            workers: (0..n)
                .map(|w| WorkerFlow::new(w as u32, packets[w].len() as u64, window))
                .collect(),
            switches: vec![SwitchFlow::new(); n],
            masters: (0..n).map(|_| MasterFlow::default()).collect(),
            fin_sent: vec![false; n],
            fin_acked: vec![false; n],
            misses: vec![0; n],
            stalled: false,
            heap: BinaryHeap::new(),
            tie: 0,
            now: 0,
            delivered_bytes: 0,
            report: RackReport::default(),
        }
    }

    fn push(&mut self, at: SimTime, event: Event) {
        self.tie += 1;
        self.heap.push(Reverse(HeapItem { at, tie: self.tie, event }));
    }

    /// Put `bytes` on a link now; every copy that survives its faults is
    /// scheduled at the far end.
    fn send(&mut self, hop: Hop, bytes: Bytes) {
        let wire = wire_bytes(&bytes);
        let link = match hop {
            Hop::Up(w) => &mut self.uplinks[w],
            Hop::Down => &mut self.downlink,
            Hop::Back(w) => &mut self.backlinks[w],
        };
        for Arrival { at, bytes } in link.transmit(self.now, bytes, wire) {
            self.push(at, Event::Rx(hop, bytes));
        }
    }

    /// Worker `w` transmits `seqs` and (re)arms its retransmission timer.
    fn send_units(&mut self, w: usize, seqs: Vec<u64>) {
        for seq in seqs {
            self.send(Hop::Up(w), self.packets[w][(seq - 1) as usize].clone());
        }
        self.arm(w);
    }

    fn send_fin(&mut self, w: usize) {
        self.fin_sent[w] = true;
        let fin = Packet::Fin { fid: w as u32, last_seq: self.workers[w].total() };
        self.send(Hop::Up(w), fin.emit());
        self.arm(w);
    }

    fn arm(&mut self, w: usize) {
        self.push(self.now + self.cfg.rto_ns, Event::Timer(w, self.workers[w].timer_epoch));
    }

    fn ack(&mut self, w: usize, seq: u64, source: AckSource) {
        self.send(Hop::Back(w), Packet::Ack(AckPacket { fid: w as u32, seq, source }).emit());
    }

    fn switch_rx<F: FnMut(u32, u64, &[u64]) -> Verdict>(&mut self, bytes: Bytes, verdict: &mut F) {
        // Not an entry: FINs pass through unmodified, the rest is
        // corruption.
        let DataPacket { fid, seq, values } = match Packet::parse(bytes.clone()) {
            Ok(Packet::Data(d)) => d,
            Ok(Packet::Fin { .. }) => {
                self.send(Hop::Down, bytes);
                return;
            }
            _ => {
                self.report.malformed += 1;
                return;
            }
        };
        let w = fid as usize;
        if w >= self.workers.len() {
            return;
        }
        match self.switches[w].classify(seq) {
            SwitchAction::Process => match verdict(fid, seq, &values) {
                Verdict::Prune => {
                    self.report.switch_acks += 1;
                    self.ack(w, seq, AckSource::SwitchPruned);
                }
                Verdict::Forward => self.send(Hop::Down, bytes),
            },
            SwitchAction::ForwardStale => {
                self.report.forwarded_stale += 1;
                self.send(Hop::Down, bytes);
            }
            SwitchAction::DropAhead => self.report.dropped_ahead += 1,
        }
    }

    fn master_rx(&mut self, bytes: Bytes) {
        let DataPacket { fid, seq, .. } = match Packet::parse(bytes.clone()) {
            Ok(Packet::Data(d)) => d,
            Ok(Packet::Fin { fid, .. }) => {
                if let Some(master) = self.masters.get_mut(fid as usize) {
                    master.fin_seen = true;
                    self.send(Hop::Back(fid as usize), Packet::FinAck { fid }.emit());
                }
                return;
            }
            // Corrupted past the switch: no ACK, the retransmit arrives
            // as ForwardStale.
            _ => {
                self.report.malformed += 1;
                return;
            }
        };
        let w = fid as usize;
        if w >= self.workers.len() {
            return;
        }
        if self.masters[w].on_data(seq) {
            self.report.delivered_units += 1;
            self.delivered_bytes += bytes.len() as u64;
        }
        self.ack(w, seq, AckSource::Master);
    }

    fn worker_rx(&mut self, w: usize, bytes: Bytes) {
        match Packet::parse(bytes) {
            Ok(Packet::Ack(a)) if a.fid as usize == w => {
                if self.workers[w].on_ack(a.seq) {
                    self.misses[w] = 0;
                    // Window advanced: send fresh units.
                    let seqs = self.workers[w].sendable();
                    self.send_units(w, seqs);
                }
                if self.workers[w].all_acked() && !self.fin_sent[w] {
                    self.send_fin(w);
                }
            }
            Ok(Packet::FinAck { fid }) if fid as usize == w => {
                self.fin_acked[w] = true;
                self.report.completed = self.fin_acked.iter().all(|&f| f);
            }
            Ok(_) => {}
            Err(_) => self.report.malformed += 1,
        }
    }

    fn on_timer(&mut self, w: usize, epoch: u64) {
        if self.fin_acked[w] || epoch != self.workers[w].timer_epoch {
            return; // stale timer
        }
        self.misses[w] += 1;
        if self.misses[w] == STALL_TIMEOUTS {
            self.stalled = true;
            return;
        }
        if self.workers[w].all_acked() {
            // Data done but FIN unacked: (re)send the FIN. This also
            // covers flows with zero units, whose FIN is first sent here.
            self.send_fin(w);
        } else {
            let seqs = self.workers[w].on_timeout();
            self.send_units(w, seqs);
        }
    }
}
