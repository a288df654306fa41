//! Driving pruning programs outside a full pipeline.
//!
//! The Figure 10/11 simulations feed millions of entries through a single
//! algorithm; a [`StandalonePruner`] wraps any
//! [`SwitchProgram`] with its own epoch
//! counter and statistics so experiments don't need to stand up a whole
//! [`Pipeline`](cheetah_switch::Pipeline). The [`OptPruner`] trait is the
//! "OPT" line of those figures: an idealized stream algorithm with no
//! resource constraints, the upper bound on any switch algorithm's pruning.

use cheetah_switch::{PacketRef, ProgramStats, SwitchProgram, Verdict};

/// `v` is provably no better than `best` (`≤` in the window): strictly
/// below it, or equal to it inside the 32-bit window. Aggregate and
/// dimension registers hold 32-bit values, and a CWorker clamps a wider
/// value to an edge, `0` or `u32::MAX`, so at an edge one encoded value
/// stands for many and a tie proves nothing: it forwards. The edge test
/// runs only on a tie.
#[inline]
pub(crate) fn covered(v: u64, best: u64) -> bool {
    v < best || (v == best && v != 0 && v != u64::from(u32::MAX))
}

/// Wraps one program with an epoch source and counters.
#[derive(Debug)]
pub struct StandalonePruner<P> {
    program: P,
    epoch: u64,
    fid: u32,
    stats: ProgramStats,
}

impl<P: SwitchProgram> StandalonePruner<P> {
    /// Wrap `program`; packets will carry flow id 0.
    pub fn new(program: P) -> Self {
        Self { program, epoch: 0, fid: 0, stats: ProgramStats::default() }
    }

    /// Offer one entry to the program and record the verdict.
    pub fn offer(&mut self, values: &[u64]) -> cheetah_switch::Result<Verdict> {
        self.epoch += 1;
        let verdict =
            self.program.on_packet(PacketRef { epoch: self.epoch, fid: self.fid, values })?;
        self.stats.record(verdict);
        Ok(verdict)
    }

    /// Offer one entry with an explicit flow id.
    pub fn offer_for_fid(&mut self, fid: u32, values: &[u64]) -> cheetah_switch::Result<Verdict> {
        self.epoch += 1;
        let verdict = self.program.on_packet(PacketRef { epoch: self.epoch, fid, values })?;
        self.stats.record(verdict);
        Ok(verdict)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ProgramStats {
        self.stats
    }

    /// Reset statistics (e.g. between warm-up and measurement).
    pub fn reset_stats(&mut self) {
        self.stats = ProgramStats::default();
    }

    /// Borrow the wrapped program.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Mutably borrow the wrapped program (e.g. to send a control message).
    pub fn program_mut(&mut self) -> &mut P {
        &mut self.program
    }

    /// Unwrap.
    pub fn into_inner(self) -> P {
        self.program
    }
}

impl StandalonePruner<cheetah_switch::Pipeline> {
    /// Offer a run of same-flow entries through the wrapped pipeline with
    /// flow dispatch hoisted out of the inner loop (one `fid → program`
    /// lookup per run, bulk stats) — the batch sibling of
    /// [`offer_for_fid`](Self::offer_for_fid), and what the executor's
    /// per-pass entry loops call. `sink` observes each entry's index and
    /// verdict in stream order.
    ///
    /// Verdicts, pipeline stats, and this wrapper's own counters all
    /// match a per-entry `offer_for_fid` loop exactly.
    pub fn offer_run<'v>(
        &mut self,
        fid: u32,
        entries: impl Iterator<Item = &'v [u64]>,
        mut sink: impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        let stats = &mut self.stats;
        let epoch = &mut self.epoch;
        self.program.process_run(fid, entries, |i, verdict| {
            // The pipeline manages register epochs internally for runs;
            // keep the wrapper's counter in step so interleaved
            // per-entry offers never reuse an epoch.
            *epoch += 1;
            stats.record(verdict);
            sink(i, verdict);
        })
    }
}

/// An idealized streaming algorithm with unbounded memory — the `OPT` curve
/// in Figures 10 and 11. `OPT` is an upper bound on the pruning rate of
/// *any* switch algorithm: it forwards an entry only if a resource-free
/// oracle over the stream prefix requires it.
pub trait OptPruner {
    /// Judge one entry with unbounded state.
    fn offer_opt(&mut self, values: &[u64]) -> Verdict;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_switch::Result;

    struct Even;
    impl SwitchProgram for Even {
        fn name(&self) -> &'static str {
            "even"
        }
        fn on_packet(&mut self, pkt: PacketRef<'_>) -> Result<Verdict> {
            Ok(if pkt.value(0)? % 2 == 0 { Verdict::Prune } else { Verdict::Forward })
        }
    }

    #[test]
    fn standalone_counts_verdicts() {
        let mut p = StandalonePruner::new(Even);
        for v in 0..10u64 {
            p.offer(&[v]).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.seen, 10);
        assert_eq!(s.pruned, 5);
        assert_eq!(s.forwarded, 5);
    }

    #[test]
    fn reset_stats_zeroes_counts() {
        let mut p = StandalonePruner::new(Even);
        p.offer(&[1]).unwrap();
        p.reset_stats();
        assert_eq!(p.stats().seen, 0);
    }

    #[test]
    fn epochs_advance_per_offer() {
        // Register discipline depends on this: two offers must not share an
        // epoch. Driven indirectly via a program that records epochs.
        struct Epochs(Vec<u64>);
        impl SwitchProgram for Epochs {
            fn name(&self) -> &'static str {
                "epochs"
            }
            fn on_packet(&mut self, pkt: PacketRef<'_>) -> Result<Verdict> {
                self.0.push(pkt.epoch);
                Ok(Verdict::Forward)
            }
        }
        let mut p = StandalonePruner::new(Epochs(Vec::new()));
        p.offer(&[0]).unwrap();
        p.offer(&[0]).unwrap();
        p.offer(&[0]).unwrap();
        let es = &p.program().0;
        assert!(es.windows(2).all(|w| w[1] > w[0]));
    }
}
