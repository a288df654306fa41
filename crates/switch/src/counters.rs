//! Per-program packet statistics.

use crate::pipeline::Verdict;

/// Counters a pruning program accumulates while processing a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Packets offered to the program.
    pub seen: u64,
    /// Packets the program pruned (dropped + ACKed).
    pub pruned: u64,
    /// Packets forwarded to the master.
    pub forwarded: u64,
}

impl ProgramStats {
    /// Record one verdict.
    pub fn record(&mut self, verdict: Verdict) {
        self.seen += 1;
        match verdict {
            Verdict::Prune => self.pruned += 1,
            Verdict::Forward => self.forwarded += 1,
        }
    }

    /// Fraction of packets *not* pruned — the y-axis of Figures 10 and 11.
    pub fn unpruned_fraction(&self) -> f64 {
        if self.seen == 0 {
            return 1.0;
        }
        self.forwarded as f64 / self.seen as f64
    }

    /// Fraction of packets pruned.
    pub fn pruned_fraction(&self) -> f64 {
        1.0 - self.unpruned_fraction()
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &ProgramStats) {
        self.seen += other.seen;
        self.pruned += other.pruned;
        self.forwarded += other.forwarded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_fractions() {
        let mut s = ProgramStats::default();
        for _ in 0..9 {
            s.record(Verdict::Prune);
        }
        s.record(Verdict::Forward);
        assert_eq!(s.seen, 10);
        assert_eq!(s.pruned, 9);
        assert_eq!(s.forwarded, 1);
        assert!((s.unpruned_fraction() - 0.1).abs() < 1e-12);
        assert!((s.pruned_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_is_fully_unpruned() {
        let s = ProgramStats::default();
        assert_eq!(s.unpruned_fraction(), 1.0);
        assert_eq!(s.pruned_fraction(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ProgramStats { seen: 10, pruned: 4, forwarded: 6 };
        let b = ProgramStats { seen: 5, pruned: 5, forwarded: 0 };
        a.merge(&b);
        assert_eq!(a, ProgramStats { seen: 15, pruned: 9, forwarded: 6 });
    }
}
