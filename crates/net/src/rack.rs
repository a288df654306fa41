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
//! * **the switch** verifies each unit (as a real switch verifies the
//!   FCS), sequences it with a [`SwitchFlow`] — process `Y = X+1`,
//!   forward `Y ≤ X` unprocessed, drop `Y > X+1` — and ACKs what it
//!   prunes;
//! * **the master** dedups by sequence with a [`MasterFlow`], ACKs every
//!   valid unit and FIN, and keeps each *new* unit.
//!
//! The loop that drives them exists once, here. What rides it is a
//! [`Payload`]: [`crate::transfer`] binds the entry packets of
//! [`crate::wire`] (the switch prunes), [`crate::fabric`] binds the
//! [`SurvivorBatch`](crate::stream::SurvivorBatch) frames of the streamed
//! runtime (already pruned, so the switch only sequences). Everything is
//! seeded: the same config and payload reproduce the same [`RackReport`]
//! bit for bit, retransmit counts included — which is what keeps a lossy
//! CI failure reproducible.

use crate::channel::{Arrival, FaultProfile, Link, SimTime};
use crate::reliability::{MasterFlow, SwitchAction, SwitchFlow, WorkerFlow};
use crate::wire::{AckPacket, AckSource, Packet};
use bytes::Bytes;
use cheetah_switch::Verdict;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Worker send window in data units. `None` takes the payload's own
    /// default ([`Payload::default_window`]).
    pub window: Option<u64>,
    /// Retransmission timeout in nanoseconds.
    pub rto_ns: SimTime,
    /// Simulation time limit (safety stop).
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
    /// Unique data frames the master accepted and delivered.
    pub delivered_frames: u64,
    /// Unique payload bits delivered per simulated second.
    pub goodput_bps: f64,
    /// Did the run complete before `max_ns`?
    pub completed: bool,
}

/// What a rack run carries: one binding of the carrier to a data unit.
/// Worker `w` owns flow id `w`; sequence numbers count from 1.
pub trait Payload {
    /// A data unit as the switch and master see it, parsed.
    type Unit;

    /// Units in each worker's flow.
    fn flows(&self) -> Vec<u64>;

    /// The send window when the config pins none.
    fn default_window(&self, cfg: &RackConfig) -> u64;

    /// The bytes worker `w` puts on its uplink for sequence `seq`.
    fn emit(&self, w: usize, seq: u64) -> Bytes;

    /// Recognise arriving bytes as the data unit `(fid, seq)`. `None` is
    /// anything else: a protocol packet, or corruption.
    fn parse(&self, bytes: &Bytes) -> Option<(u32, u64, Self::Unit)>;

    /// The switch's verdict on an in-order unit: prune (the switch ACKs
    /// it) or forward to the master. Payloads that are pruned already
    /// keep the default.
    fn verdict(&mut self, _fid: u32, _unit: &Self::Unit) -> Verdict {
        Verdict::Forward
    }

    /// The master's delivery of a unit it has not seen before.
    fn deliver(&mut self, fid: u32, seq: u64, unit: Self::Unit);
}

/// Bytes a payload occupies on the wire: 42 bytes of Ethernet/IP/UDP
/// encapsulation, padded to the 64-byte minimum frame — the convention of
/// [`Packet::wire_bytes`].
pub fn wire_bytes(payload: &Bytes) -> u64 {
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

/// Carry `payload` across the rack to completion (or the time limit).
pub fn run<P: Payload>(cfg: &RackConfig, payload: &mut P) -> RackReport {
    let window = cfg.window.unwrap_or_else(|| payload.default_window(cfg));
    let mut rack = Rack::new(cfg, &payload.flows(), window);
    for w in 0..rack.workers.len() {
        let seqs = rack.workers[w].sendable();
        rack.send_units(w, seqs, payload);
    }
    while let Some(Reverse(item)) = rack.heap.pop() {
        rack.now = item.at;
        if rack.now > cfg.max_ns {
            break;
        }
        match item.event {
            Event::Rx(Hop::Up(_), bytes) => rack.switch_rx(bytes, payload),
            Event::Rx(Hop::Down, bytes) => rack.master_rx(bytes, payload),
            Event::Rx(Hop::Back(w), bytes) => rack.worker_rx(w, bytes, payload),
            Event::Timer(w, epoch) => rack.on_timer(w, epoch, payload),
        }
        if rack.report.completed {
            break;
        }
    }
    let sim_seconds = rack.now as f64 / 1e9;
    let flow_retransmissions: Vec<u64> = rack.workers.iter().map(|w| w.retransmissions).collect();
    RackReport {
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
    }
}

/// The state of one run: links, role state machines, the event heap.
struct Rack<'c> {
    cfg: &'c RackConfig,
    uplinks: Vec<Link>,
    downlink: Link,
    backlinks: Vec<Link>,
    workers: Vec<WorkerFlow>,
    switches: Vec<SwitchFlow>,
    masters: Vec<MasterFlow>,
    fin_sent: Vec<bool>,
    fin_acked: Vec<bool>,
    heap: BinaryHeap<Reverse<HeapItem>>,
    tie: u64,
    now: SimTime,
    /// Payload bytes of the unique units delivered so far.
    delivered_bytes: u64,
    /// The counters bumped as events are handled; `run` fills in the rest.
    report: RackReport,
}

impl<'c> Rack<'c> {
    fn new(cfg: &'c RackConfig, flows: &[u64], window: u64) -> Self {
        let n = flows.len();
        let link = |rate, seed| Link::new(rate, cfg.latency_ns, cfg.faults, seed);
        Self {
            cfg,
            uplinks: (0..n as u64).map(|w| link(cfg.uplink_bps, cfg.seed ^ (w << 8))).collect(),
            downlink: link(cfg.downlink_bps, cfg.seed ^ 0xD0_117),
            backlinks: (0..n as u64)
                .map(|w| link(cfg.downlink_bps, cfg.seed ^ 0xACC ^ (w << 16)))
                .collect(),
            workers: (0..n).map(|w| WorkerFlow::new(w as u32, flows[w], window)).collect(),
            switches: vec![SwitchFlow::new(); n],
            masters: (0..n).map(|_| MasterFlow::default()).collect(),
            fin_sent: vec![false; n],
            fin_acked: vec![false; n],
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
    fn send_units<P: Payload>(&mut self, w: usize, seqs: Vec<u64>, payload: &P) {
        for seq in seqs {
            self.send(Hop::Up(w), payload.emit(w, seq));
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

    fn switch_rx<P: Payload>(&mut self, bytes: Bytes, payload: &mut P) {
        let Some((fid, seq, unit)) = payload.parse(&bytes) else {
            // Not a data unit: FINs pass through unmodified, the rest is
            // corruption.
            match Packet::parse(bytes.clone()) {
                Ok(Packet::Fin { .. }) => self.send(Hop::Down, bytes),
                _ => self.report.malformed += 1,
            }
            return;
        };
        let w = fid as usize;
        if w >= self.workers.len() {
            return;
        }
        match self.switches[w].classify(seq) {
            SwitchAction::Process => match payload.verdict(fid, &unit) {
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

    fn master_rx<P: Payload>(&mut self, bytes: Bytes, payload: &mut P) {
        let Some((fid, seq, unit)) = payload.parse(&bytes) else {
            match Packet::parse(bytes) {
                Ok(Packet::Fin { fid, .. }) => {
                    if let Some(master) = self.masters.get_mut(fid as usize) {
                        master.fin_seen = true;
                        self.send(Hop::Back(fid as usize), Packet::FinAck { fid }.emit());
                    }
                }
                // Corrupted past the switch: no ACK, the retransmit
                // arrives as ForwardStale.
                _ => self.report.malformed += 1,
            }
            return;
        };
        let w = fid as usize;
        if w >= self.workers.len() {
            return;
        }
        if self.masters[w].on_data(seq) {
            self.report.delivered_frames += 1;
            self.delivered_bytes += bytes.len() as u64;
            payload.deliver(fid, seq, unit);
        }
        self.ack(w, seq, AckSource::Master);
    }

    fn worker_rx<P: Payload>(&mut self, w: usize, bytes: Bytes, payload: &P) {
        match Packet::parse(bytes) {
            Ok(Packet::Ack(a)) if a.fid as usize == w => {
                if self.workers[w].on_ack(a.seq) {
                    // Window advanced: send fresh units.
                    let seqs = self.workers[w].sendable();
                    self.send_units(w, seqs, payload);
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

    fn on_timer<P: Payload>(&mut self, w: usize, epoch: u64, payload: &P) {
        if self.fin_acked[w] || epoch != self.workers[w].timer_epoch {
            return; // stale timer
        }
        if self.workers[w].all_acked() {
            // Data done but FIN unacked: (re)send the FIN. This also
            // covers flows with zero units, whose FIN is first sent here.
            self.send_fin(w);
        } else {
            let seqs = self.workers[w].on_timeout();
            self.send_units(w, seqs, payload);
        }
    }
}
