//! The match-action pipeline: programs, packets, verdicts.
//!
//! A [`SwitchProgram`] is one pruning algorithm compiled onto the pipeline.
//! Per §6 of the paper, several programs can be packed on the dataplane at
//! once; at the end of the pipeline *"a single pipeline stage selects the
//! bit relevant to the current query"*. The [`Pipeline`] reproduces that
//! model: flows (`fid`s) are bound to programs, every packet receives a
//! fresh epoch (enforcing the one-RMW-per-array discipline), and the final
//! verdict is the bound program's prune/no-prune bit.

use crate::counters::ProgramStats;
use crate::error::SwitchError;
use crate::Result;
use std::collections::HashMap;

/// The pipeline's decision for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the packet to the master.
    Forward,
    /// Drop the packet (and ACK it to the worker — see `cheetah-net`).
    Prune,
}

impl Verdict {
    /// True when the verdict is [`Verdict::Prune`].
    pub fn is_prune(self) -> bool {
        matches!(self, Verdict::Prune)
    }
}

/// A borrowed view of one packet's parsed values as it traverses the
/// pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PacketRef<'a> {
    /// The per-packet epoch driving the register-access discipline.
    pub epoch: u64,
    /// Flow id the packet belongs to.
    pub fid: u32,
    /// Values parsed from the Cheetah header (one per queried column).
    pub values: &'a [u64],
}

impl<'a> PacketRef<'a> {
    /// Value at `i`, or a shape error naming what the program expected.
    pub fn value(&self, i: usize) -> Result<u64> {
        self.values
            .get(i)
            .copied()
            .ok_or(SwitchError::BadPacketShape { expected: i + 1, got: self.values.len() })
    }
}

/// Control-plane messages delivered to an installed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Advance a multi-pass algorithm (JOIN, HAVING) to the given phase.
    SetPhase(u8),
    /// Update a named runtime parameter (e.g. a filter constant).
    Param {
        /// Parameter name, defined by the program.
        key: &'static str,
        /// New value.
        value: u64,
    },
    /// Update one element of a named indexed parameter (e.g. the constant
    /// of predicate `index` in a filter).
    ParamIndexed {
        /// Parameter name, defined by the program.
        key: &'static str,
        /// Element index.
        index: usize,
        /// New value.
        value: u64,
    },
    /// Reset all program state (query teardown / switch reboot).
    Clear,
}

/// One pruning algorithm compiled onto the switch.
pub trait SwitchProgram {
    /// Short name for diagnostics and resource reports.
    fn name(&self) -> &'static str;

    /// Process one packet and decide its fate. `Err` means the program
    /// violated the execution model — a bug, not a runtime condition.
    fn on_packet(&mut self, pkt: PacketRef<'_>) -> Result<Verdict>;

    /// Handle a control-plane message. Default: ignore.
    fn control(&mut self, _msg: &ControlMsg) -> Result<()> {
        Ok(())
    }
}

/// Handle to a program installed on a [`Pipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramId(usize);

struct Slot {
    program: Box<dyn SwitchProgram>,
    stats: ProgramStats,
}

/// The switch dataplane: installed programs plus flow bindings.
#[derive(Default)]
pub struct Pipeline {
    epoch: u64,
    slots: Vec<Slot>,
    by_fid: HashMap<u32, usize>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a program; it will receive packets once a flow is bound.
    pub fn install(&mut self, program: Box<dyn SwitchProgram>) -> ProgramId {
        self.slots.push(Slot { program, stats: ProgramStats::default() });
        ProgramId(self.slots.len() - 1)
    }

    /// Bind flow `fid` to `id`: packets of that flow are judged by that
    /// program.
    pub fn bind_flow(&mut self, fid: u32, id: ProgramId) {
        self.by_fid.insert(fid, id.0);
    }

    /// Hand out the next packet epoch. Exposed so tests and single-program
    /// drivers can feed programs without a full pipeline.
    pub fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Process one packet of flow `fid` through its bound program.
    pub fn process(&mut self, fid: u32, values: &[u64]) -> Result<Verdict> {
        let idx = *self.by_fid.get(&fid).ok_or(SwitchError::NoProgramForFlow { fid })?;
        let epoch = self.next_epoch();
        let slot = &mut self.slots[idx];
        let verdict = slot.program.on_packet(PacketRef { epoch, fid, values })?;
        slot.stats.record(verdict);
        Ok(verdict)
    }

    /// Process a run of same-flow packets through the bound program with
    /// the flow dispatch hoisted out of the inner loop: the `fid → slot`
    /// lookup happens once per run instead of once per packet, and the
    /// verdict counters are folded into the slot's stats in one update
    /// at the end. `sink` observes each packet's index and verdict in
    /// stream order.
    ///
    /// Semantically identical to calling [`process`](Self::process) per
    /// packet — same epochs, same verdicts, same stats — just without
    /// the per-packet hash lookup and branchy bookkeeping, which is what
    /// the executor's interpreted entry loops would otherwise spend their
    /// time on (the ledger's `shard_exec.*.interp_ns_per_row`).
    pub fn process_run<'v>(
        &mut self,
        fid: u32,
        packets: impl Iterator<Item = &'v [u64]>,
        mut sink: impl FnMut(usize, Verdict),
    ) -> Result<()> {
        let idx = *self.by_fid.get(&fid).ok_or(SwitchError::NoProgramForFlow { fid })?;
        let slot = &mut self.slots[idx];
        let epoch = &mut self.epoch;
        let mut seen = 0u64;
        let mut pruned = 0u64;
        let mut failed = None;
        for (i, values) in packets.enumerate() {
            *epoch += 1;
            match slot.program.on_packet(PacketRef { epoch: *epoch, fid, values }) {
                Ok(verdict) => {
                    seen += 1;
                    pruned += u64::from(verdict.is_prune());
                    sink(i, verdict);
                }
                Err(e) => {
                    // Fold the partial counts below before surfacing the
                    // error, exactly as per-packet `process` would have.
                    failed = Some(e);
                    break;
                }
            }
        }
        slot.stats.seen += seen;
        slot.stats.pruned += pruned;
        slot.stats.forwarded += seen - pruned;
        match failed {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// §6 semantics: run *every* installed program on the packet (they all
    /// see the data and update their state), then select the prune bit of
    /// the program bound to `fid`. This is how Cheetah packs multiple
    /// queries without reprogramming the switch.
    ///
    /// A non-bound program whose header shape doesn't match the packet
    /// (e.g. a two-column GROUP BY seeing a one-column filter flow) simply
    /// doesn't fire — its parser wouldn't extract the missing fields — so
    /// [`SwitchError::BadPacketShape`] from non-bound programs is ignored.
    /// All errors from the bound program still propagate.
    pub fn process_all(&mut self, fid: u32, values: &[u64]) -> Result<Verdict> {
        let idx = *self.by_fid.get(&fid).ok_or(SwitchError::NoProgramForFlow { fid })?;
        let epoch = self.next_epoch();
        let mut selected = Verdict::Forward;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            match slot.program.on_packet(PacketRef { epoch, fid, values }) {
                Ok(verdict) => {
                    if i == idx {
                        slot.stats.record(verdict);
                        selected = verdict;
                    }
                }
                Err(SwitchError::BadPacketShape { .. }) if i != idx => {}
                Err(e) => return Err(e),
            }
        }
        Ok(selected)
    }

    /// Deliver a control message to one program.
    pub fn control(&mut self, id: ProgramId, msg: &ControlMsg) -> Result<()> {
        self.slots[id.0].program.control(msg)
    }

    /// Statistics of one program.
    pub fn stats(&self, id: ProgramId) -> ProgramStats {
        self.slots[id.0].stats
    }

    /// Borrow an installed program for inspection (e.g. draining registers).
    pub fn program(&self, id: ProgramId) -> &dyn SwitchProgram {
        self.slots[id.0].program.as_ref()
    }

    /// Mutably borrow an installed program.
    pub fn program_mut(&mut self, id: ProgramId) -> &mut dyn SwitchProgram {
        self.slots[id.0].program.as_mut()
    }
}

/// A whole pipeline can itself be driven as one [`SwitchProgram`]: the
/// packet's `fid` selects the bound program, exactly like
/// [`Pipeline::process`]. This lets pass-structured drivers (e.g.
/// `cheetah_core::StandalonePruner`) stream entries through an installed
/// plan without re-implementing flow dispatch.
///
/// The internal counter always advances by at least one per packet and
/// never falls below the caller's epoch, so the register-access discipline
/// (strictly increasing epochs, one per packet) holds even if `process`
/// and `on_packet` calls are interleaved or the caller's counter restarted.
impl SwitchProgram for Pipeline {
    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> Result<Verdict> {
        let idx =
            *self.by_fid.get(&pkt.fid).ok_or(SwitchError::NoProgramForFlow { fid: pkt.fid })?;
        self.epoch = (self.epoch + 1).max(pkt.epoch);
        let slot = &mut self.slots[idx];
        let verdict = slot.program.on_packet(PacketRef {
            epoch: self.epoch,
            fid: pkt.fid,
            values: pkt.values,
        })?;
        slot.stats.record(verdict);
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forwards values above a threshold, prunes the rest; counts control
    /// messages. A minimal well-behaved program for pipeline tests.
    struct Threshold {
        cut: u64,
        cleared: bool,
    }

    impl SwitchProgram for Threshold {
        fn name(&self) -> &'static str {
            "threshold"
        }

        fn on_packet(&mut self, pkt: PacketRef<'_>) -> Result<Verdict> {
            Ok(if pkt.value(0)? > self.cut { Verdict::Forward } else { Verdict::Prune })
        }

        fn control(&mut self, msg: &ControlMsg) -> Result<()> {
            match msg {
                ControlMsg::Param { key: "cut", value } => self.cut = *value,
                ControlMsg::Clear => self.cleared = true,
                _ => {}
            }
            Ok(())
        }
    }

    #[test]
    fn bound_flow_is_processed() {
        let mut p = Pipeline::new();
        let id = p.install(Box::new(Threshold { cut: 10, cleared: false }));
        p.bind_flow(7, id);
        assert_eq!(p.process(7, &[11]).unwrap(), Verdict::Forward);
        assert_eq!(p.process(7, &[9]).unwrap(), Verdict::Prune);
        let s = p.stats(id);
        assert_eq!((s.seen, s.pruned, s.forwarded), (2, 1, 1));
    }

    #[test]
    fn unbound_flow_errors() {
        let mut p = Pipeline::new();
        assert_eq!(p.process(1, &[0]).unwrap_err(), SwitchError::NoProgramForFlow { fid: 1 });
    }

    #[test]
    fn epochs_strictly_increase() {
        let mut p = Pipeline::new();
        let e1 = p.next_epoch();
        let e2 = p.next_epoch();
        assert!(e2 > e1);
    }

    #[test]
    fn control_updates_parameters() {
        let mut p = Pipeline::new();
        let id = p.install(Box::new(Threshold { cut: 10, cleared: false }));
        p.bind_flow(1, id);
        assert_eq!(p.process(1, &[5]).unwrap(), Verdict::Prune);
        p.control(id, &ControlMsg::Param { key: "cut", value: 3 }).unwrap();
        assert_eq!(p.process(1, &[5]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn process_all_selects_bound_programs_bit() {
        let mut p = Pipeline::new();
        let lo = p.install(Box::new(Threshold { cut: 10, cleared: false }));
        let hi = p.install(Box::new(Threshold { cut: 100, cleared: false }));
        p.bind_flow(1, lo);
        p.bind_flow(2, hi);
        // 50 passes the lo program but not the hi one.
        assert_eq!(p.process_all(1, &[50]).unwrap(), Verdict::Forward);
        assert_eq!(p.process_all(2, &[50]).unwrap(), Verdict::Prune);
        // Stats are only charged to the selected program.
        assert_eq!(p.stats(lo).seen, 1);
        assert_eq!(p.stats(hi).seen, 1);
    }

    #[test]
    fn pipeline_drives_as_a_switch_program() {
        // The trait path must match `process` verdicts and stats exactly.
        let mut p = Pipeline::new();
        let id = p.install(Box::new(Threshold { cut: 10, cleared: false }));
        p.bind_flow(3, id);
        let v1 = p.on_packet(PacketRef { epoch: 1, fid: 3, values: &[11] }).unwrap();
        let v2 = p.on_packet(PacketRef { epoch: 2, fid: 3, values: &[9] }).unwrap();
        assert_eq!((v1, v2), (Verdict::Forward, Verdict::Prune));
        let s = p.stats(id);
        assert_eq!((s.seen, s.pruned, s.forwarded), (2, 1, 1));
        assert_eq!(
            p.on_packet(PacketRef { epoch: 3, fid: 9, values: &[0] }).unwrap_err(),
            SwitchError::NoProgramForFlow { fid: 9 }
        );
    }

    #[test]
    fn on_packet_advances_epochs_even_when_the_callers_counter_lags() {
        // A driver whose epoch counter restarted (e.g. a fresh
        // StandalonePruner around an already-used pipeline) must not make
        // two packets share an epoch.
        let mut p = Pipeline::new();
        let id = p.install(Box::new(Threshold { cut: 10, cleared: false }));
        p.bind_flow(1, id);
        p.process(1, &[11]).unwrap(); // internal epoch -> 1
        p.on_packet(PacketRef { epoch: 1, fid: 1, values: &[11] }).unwrap(); // must advance to 2
        assert_eq!(p.next_epoch(), 3, "lagging caller epoch still advanced the counter");
    }

    #[test]
    fn packet_shape_error() {
        let mut p = Pipeline::new();
        let id = p.install(Box::new(Threshold { cut: 0, cleared: false }));
        p.bind_flow(1, id);
        assert_eq!(
            p.process(1, &[]).unwrap_err(),
            SwitchError::BadPacketShape { expected: 1, got: 0 }
        );
    }
}
