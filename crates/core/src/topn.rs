//! TOP N pruning (§4.3 Example #3 deterministic, §5 Example #7 randomized).
//!
//! **Deterministic** (`TopNDetPruner`): the switch learns `t0`, the minimum
//! of the first `N` entries, then tries to raise the pruning cut through a
//! ladder of thresholds `t_i = 2^i · t0` (powers of two because shifting is
//! the only multiplication a switch has). A per-threshold counter tracks how
//! many entries above `t_i` have been seen; once it reaches `N`, everything
//! below `t_i` is provably outside the top `N` and is pruned.
//!
//! **Randomized** (`TopNRandPruner`): a `d × w` matrix; every entry is
//! assigned a *random* row, and each row keeps its `w` largest values via
//! the rolling minimum. An entry smaller than everything cached in its row
//! is pruned. Theorem 2 sizes `(d, w)` so that with probability `1 - δ` no
//! more than `w` of the true top `N` land in one row — in which case no
//! output entry is ever pruned. Theorem 3 bounds the expected unpruned
//! count by `w·d·ln(m·e/(w·d))`.
//!
//! Values are biased by `+1` when stored (saturating), so an all-zero
//! register reads as "empty, smaller than any real value"; ties with the
//! row minimum are forwarded, keeping pruning strictly conservative.

use crate::analysis;
use crate::pruner::OptPruner;
use cheetah_switch::alu::mul_pow2;
use cheetah_switch::{
    ControlMsg, HashFn, PacketRef, RegisterArray, ResourceLedger, SwitchProgram, UsageSummary,
    Verdict,
};
use std::collections::BinaryHeap;

/// Configuration of the deterministic threshold ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopNDetConfig {
    /// The `N` of TOP N.
    pub n: usize,
    /// Number of exponential thresholds above `t0` (`t_1..t_w`).
    pub w: usize,
}

impl TopNDetConfig {
    /// Table 2 defaults: `N = 250`, `w = 4`.
    pub fn paper_default() -> Self {
        Self { n: 250, w: 4 }
    }
}

/// Deterministic TOP N pruning program.
///
/// Stage 0 holds a packed `[count:32 | min:32]` register that learns `t0`
/// from the first `N` entries; stages `1..=w` hold the threshold counters.
/// Order-by values are clamped to 32 bits (the CWorker serializes the
/// order-by column into 32 bits; clamping can only *reduce* pruning, never
/// correctness).
#[derive(Debug)]
pub struct TopNDetPruner {
    cfg: TopNDetConfig,
    /// `[count:32 | min:32]` — warm-up state.
    warmup: RegisterArray,
    /// `counters[i]` counts entries observed above `t_{i+1} = t0 << (i+1)`.
    counters: Vec<RegisterArray>,
}

impl TopNDetPruner {
    /// Build the program against `ledger`.
    pub fn build(cfg: TopNDetConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        assert!(cfg.n > 0, "TOP 0 is trivial");
        let start = ledger.find_contiguous(0, cfg.w + 1, 1, 64)?;
        let warmup = ledger.register_array(start, 1, 64)?;
        let mut counters = Vec::with_capacity(cfg.w);
        for i in 0..cfg.w {
            counters.push(ledger.register_array(start + 1 + i, 1, 64)?);
        }
        ledger.alloc_phv_bits(32)?;
        ledger.note_rules(3 + cfg.w);
        Ok(Self { cfg, warmup, counters })
    }

    /// One row of Table 2 for this configuration.
    pub fn table2_row(
        cfg: TopNDetConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &TopNDetConfig {
        &self.cfg
    }
}

impl SwitchProgram for TopNDetPruner {
    fn name(&self) -> &'static str {
        "topn-det"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let v = pkt.value(0)?.min(u64::from(u32::MAX)); // 32-bit order-by value
        let n = self.cfg.n as u64;
        // Stage 0: one RMW updates (count, min) and reports the prior state.
        let packed_old = self.warmup.rmw(pkt.epoch, 0, |packed| {
            let count = packed >> 32;
            let minv = packed & 0xFFFF_FFFF;
            if count < n {
                // Still learning t0: count up, track the running minimum
                // (an empty register means "no entries yet").
                let new_min = if count == 0 { v } else { minv.min(v) };
                ((count + 1) << 32) | new_min
            } else {
                packed // t0 is frozen
            }
        })?;
        let count_before = packed_old >> 32;
        if count_before < n {
            return Ok(Verdict::Forward); // warm-up entries always pass
        }
        let t0 = packed_old & 0xFFFF_FFFF;
        // Threshold ladder: each stage counts entries above its threshold
        // and the cut is the largest threshold whose counter reached N.
        let mut cut = t0;
        for (i, counter) in self.counters.iter_mut().enumerate() {
            let ti = mul_pow2(t0, (i + 1) as u32);
            let c_old = counter.rmw(pkt.epoch, 0, |c| if v > ti { c + 1 } else { c })?;
            let c_new = if v > ti { c_old + 1 } else { c_old };
            if c_new >= n {
                cut = cut.max(ti);
            }
        }
        Ok(if v < cut { Verdict::Prune } else { Verdict::Forward })
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        if matches!(msg, ControlMsg::Clear) {
            self.warmup.control_clear();
            for c in &mut self.counters {
                c.control_clear();
            }
        }
        Ok(())
    }
}

/// Configuration of the randomized matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopNRandConfig {
    /// Matrix rows `d`.
    pub rows: usize,
    /// Matrix columns `w` (one logical stage each).
    pub cols: usize,
    /// Seed for the row-assignment randomness.
    pub seed: u64,
}

impl TopNRandConfig {
    /// Table 2 defaults: `N = 250`, `w = 4`, `d = 4096`.
    pub fn paper_default() -> Self {
        Self { rows: 4096, cols: 4, seed: 0x709 }
    }

    /// Size the matrix per Theorem 2 for a given `d`, returning `None` when
    /// `d` is too small for the target `(N, δ)`.
    pub fn for_rows(rows: usize, n: usize, delta: f64, seed: u64) -> Option<Self> {
        analysis::topn_columns_for(rows, n, delta).map(|cols| Self { rows, cols, seed })
    }

    /// Space-and-pruning-optimal `(d, w)` per §5's Lambert-W optimization.
    pub fn optimal(n: usize, delta: f64, seed: u64) -> Self {
        let (rows, cols) = analysis::topn_optimize_dw(n, delta);
        Self { rows, cols, seed }
    }
}

/// Randomized TOP N pruning program (rolling-minimum matrix).
#[derive(Debug)]
pub struct TopNRandPruner {
    cfg: TopNRandConfig,
    row_rng: HashFn,
    arrival: u64,
    cols: Vec<RegisterArray>,
}

impl TopNRandPruner {
    /// Build the program against `ledger`.
    pub fn build(cfg: TopNRandConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        assert!(cfg.rows > 0 && cfg.cols > 0, "matrix must be non-empty");
        let sram_per_col = cfg.rows as u64 * 64;
        let start = ledger.find_contiguous(0, cfg.cols, 1, sram_per_col)?;
        let mut cols = Vec::with_capacity(cfg.cols);
        for i in 0..cfg.cols {
            cols.push(ledger.register_array(start + i, cfg.rows, 64)?);
        }
        ledger.alloc_phv_bits(64)?;
        ledger.note_rules(2 + cfg.cols);
        Ok(Self { cfg, row_rng: HashFn::from_seed(cfg.seed), arrival: 0, cols })
    }

    /// One row of Table 2 for this configuration.
    pub fn table2_row(
        cfg: TopNRandConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &TopNRandConfig {
        &self.cfg
    }
}

impl SwitchProgram for TopNRandPruner {
    fn name(&self) -> &'static str {
        "topn-rand"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let v = pkt.value(0)?;
        // §5: "when an entry arrives, we choose a random row for it" — the
        // row depends on the arrival, not the value (the hardware uses a
        // per-packet random number; a hashed counter is its deterministic
        // stand-in).
        self.arrival += 1;
        let row = self.row_rng.index(self.arrival, self.cfg.rows);
        let biased = v.saturating_add(1); // 0 = empty cell

        // Rolling minimum: each column keeps the larger of (carry, cell);
        // the displaced value carries to the next column. Rows stay sorted
        // in descending order, so after a pass with no insertion the last
        // cell read was the row minimum.
        let mut carry = biased;
        let mut inserted = false;
        let mut last_old = 0u64;
        for col in self.cols.iter_mut() {
            let c = carry;
            let old = col.rmw(pkt.epoch, row, move |cur| if c > cur { c } else { cur })?;
            last_old = old;
            if c > old {
                inserted = true;
                carry = old;
            }
        }
        // Prune only entries strictly smaller than everything cached in the
        // row; ties with the minimum are forwarded (they could be output).
        Ok(if inserted || biased == last_old { Verdict::Forward } else { Verdict::Prune })
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        if matches!(msg, ControlMsg::Clear) {
            for c in &mut self.cols {
                c.control_clear();
            }
            self.arrival = 0;
        }
        Ok(())
    }
}

/// The unbounded reference (OPT in Figures 10c/11c): forwards an entry iff
/// it is among the `N` largest of the stream prefix seen so far.
#[derive(Debug)]
pub struct TopNOpt {
    n: usize,
    /// Min-heap of the current top-N (stored negated in a max-heap).
    heap: BinaryHeap<std::cmp::Reverse<u64>>,
}

impl TopNOpt {
    /// OPT for `TOP n`.
    pub fn new(n: usize) -> Self {
        Self { n, heap: BinaryHeap::with_capacity(n + 1) }
    }
}

impl OptPruner for TopNOpt {
    fn offer_opt(&mut self, values: &[u64]) -> Verdict {
        let v = values[0];
        if self.heap.len() < self.n {
            self.heap.push(std::cmp::Reverse(v));
            return Verdict::Forward;
        }
        let min = self.heap.peek().expect("heap non-empty").0;
        if v > min {
            self.heap.pop();
            self.heap.push(std::cmp::Reverse(v));
            Verdict::Forward
        } else {
            Verdict::Prune
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruner::StandalonePruner;
    use cheetah_switch::hash::mix64;
    use cheetah_switch::SwitchProfile;

    fn build_det(n: usize, w: usize) -> StandalonePruner<TopNDetPruner> {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        StandalonePruner::new(TopNDetPruner::build(TopNDetConfig { n, w }, &mut ledger).unwrap())
    }

    fn build_rand(rows: usize, cols: usize) -> StandalonePruner<TopNRandPruner> {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino2());
        StandalonePruner::new(
            TopNRandPruner::build(TopNRandConfig { rows, cols, seed: 7 }, &mut ledger).unwrap(),
        )
    }

    /// The pruning contract: for every pruned value, at least N forwarded
    /// entries are strictly larger.
    fn check_superset_invariant(forwarded: &[u64], pruned: &[u64], n: usize) {
        let mut sorted = forwarded.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        for &p in pruned {
            let larger = sorted.iter().take_while(|&&f| f > p).count();
            assert!(larger >= n, "pruned {p} but only {larger} forwarded entries exceed it");
        }
    }

    #[test]
    fn det_warmup_forwards_first_n() {
        let mut p = build_det(5, 2);
        for v in [9u64, 8, 7, 6, 5] {
            assert_eq!(p.offer(&[v]).unwrap(), Verdict::Forward);
        }
        // t0 = 5. Values below t0 now prune.
        assert_eq!(p.offer(&[4]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Forward, "ties with the cut pass");
    }

    #[test]
    fn det_ladder_raises_cut() {
        let mut p = build_det(3, 3);
        // Warm-up: t0 = 10. Thresholds: 20, 40, 80.
        for v in [10u64, 30, 50] {
            p.offer(&[v]).unwrap();
        }
        // Feed 3 entries above 80 → counters for 20/40/80 all reach 3.
        for v in [100u64, 101, 102] {
            assert_eq!(p.offer(&[v]).unwrap(), Verdict::Forward);
        }
        // 79 < 80 = active cut.
        assert_eq!(p.offer(&[79]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[80]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn det_superset_invariant_random_stream() {
        let n = 50;
        let mut p = build_det(n, 4);
        let mut fwd = Vec::new();
        let mut pruned = Vec::new();
        let mut x = 99u64;
        for _ in 0..20_000 {
            x = mix64(x);
            let v = x % 1_000_000;
            match p.offer(&[v]).unwrap() {
                Verdict::Forward => fwd.push(v),
                Verdict::Prune => pruned.push(v),
            }
        }
        assert!(!pruned.is_empty(), "deterministic ladder should prune something");
        check_superset_invariant(&fwd, &pruned, n);
    }

    #[test]
    fn det_monotone_increasing_stream_prunes_nothing() {
        // Worst case from §5: monotone streams defeat pruning but must stay
        // correct.
        let mut p = build_det(10, 4);
        for v in 0..1000u64 {
            assert_eq!(p.offer(&[v]).unwrap(), Verdict::Forward);
        }
    }

    #[test]
    fn det_zero_t0_is_safe() {
        let mut p = build_det(2, 2);
        p.offer(&[0]).unwrap();
        p.offer(&[0]).unwrap();
        // t0 = 0 → all thresholds 0 → nothing is < 0, nothing pruned.
        assert_eq!(p.offer(&[0]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[123]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn det_table2_row() {
        // Table 2: w+1 stages, w+1 ALUs, (w+1)×64b for N=250, w=4.
        let row =
            TopNDetPruner::table2_row(TopNDetConfig::paper_default(), SwitchProfile::tofino1())
                .unwrap();
        assert_eq!(row.stages_used, 5);
        assert_eq!(row.alus, 5);
        assert_eq!(row.sram_bits, 5 * 64);
    }

    #[test]
    fn rand_superset_invariant_random_stream() {
        let n = 100;
        let mut p = build_rand(1024, 4);
        let mut fwd = Vec::new();
        let mut pruned = Vec::new();
        let mut x = 5u64;
        for _ in 0..50_000 {
            x = mix64(x);
            let v = x % 10_000_000;
            match p.offer(&[v]).unwrap() {
                Verdict::Forward => fwd.push(v),
                Verdict::Prune => pruned.push(v),
            }
        }
        // With d=1024, w=4 ≫ requirements for N=100, the top-100 must
        // survive: check the N-superset invariant.
        check_superset_invariant(&fwd, &pruned, n);
    }

    #[test]
    fn rand_prunes_heavily_on_random_streams() {
        let mut p = build_rand(256, 4);
        let mut x = 17u64;
        let m = 200_000u64;
        for _ in 0..m {
            x = mix64(x);
            p.offer(&[x % u64::from(u32::MAX)]).unwrap();
        }
        let stats = p.stats();
        let bound = analysis::topn_expected_unpruned(m, 4, 256);
        // Theorem 3 bound should hold within 2x slack for one run.
        assert!(
            (stats.forwarded as f64) < bound * 2.0,
            "forwarded {} vs bound {bound}",
            stats.forwarded
        );
    }

    #[test]
    fn rand_first_entries_always_forwarded() {
        let mut p = build_rand(16, 2);
        // Empty matrix: first entry in each row must forward.
        assert_eq!(p.offer(&[0]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn rand_ties_with_row_minimum_are_forwarded() {
        // One row, one column: after inserting 10, another 10 ties the
        // minimum and must forward.
        let mut p = build_rand(1, 1);
        assert_eq!(p.offer(&[10]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[10]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[9]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[11]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn rand_rows_stay_sorted_descending() {
        let mut p = build_rand(4, 3);
        let mut x = 3u64;
        for _ in 0..1000 {
            x = mix64(x);
            p.offer(&[x % 1000]).unwrap();
        }
        for row in 0..4 {
            let vals: Vec<u64> =
                p.program().cols.iter().map(|c| c.control_read(row).unwrap()).collect();
            assert!(vals.windows(2).all(|w| w[0] >= w[1]), "row {row} not sorted: {vals:?}");
        }
    }

    #[test]
    fn rand_table2_row() {
        // Table 2: w stages, w ALUs, (d·w)×64b for w=4, d=4096.
        let row =
            TopNRandPruner::table2_row(TopNRandConfig::paper_default(), SwitchProfile::tofino1())
                .unwrap();
        assert_eq!(row.stages_used, 4);
        assert_eq!(row.alus, 4);
        assert_eq!(row.sram_bits, 4096 * 4 * 64);
    }

    #[test]
    fn rand_config_from_theorem2() {
        // The theorem's ceiling gives 17 (raw 16.4; the paper's prose says
        // 16) — see the analysis tests.
        let cfg = TopNRandConfig::for_rows(600, 1000, 1e-4, 1).unwrap();
        assert!(cfg.cols == 16 || cfg.cols == 17, "got {}", cfg.cols);
        assert!(TopNRandConfig::for_rows(10, 1000, 1e-4, 1).is_none());
    }

    #[test]
    fn rand_optimal_config_is_feasible() {
        let cfg = TopNRandConfig::optimal(1000, 1e-4, 1);
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino2());
        // The space-optimal configuration must actually fit a Tofino 2.
        TopNRandPruner::build(cfg, &mut ledger).unwrap();
    }

    #[test]
    fn opt_forwards_exactly_prefix_topn() {
        let mut opt = TopNOpt::new(2);
        // Stream 5, 3, 4, 1, 6: prefix-top2 membership on arrival:
        // 5 ✓, 3 ✓, 4 ✓ (beats 3), 1 ✗, 6 ✓.
        let verdicts: Vec<bool> =
            [5u64, 3, 4, 1, 6].iter().map(|&v| opt.offer_opt(&[v]).is_prune()).collect();
        assert_eq!(verdicts, vec![false, false, false, true, false]);
    }

    #[test]
    fn clear_resets_both_programs() {
        let mut det = build_det(2, 2);
        det.offer(&[5]).unwrap();
        det.offer(&[5]).unwrap();
        assert_eq!(det.offer(&[1]).unwrap(), Verdict::Prune);
        det.program_mut().control(&ControlMsg::Clear).unwrap();
        assert_eq!(det.offer(&[1]).unwrap(), Verdict::Forward, "warm-up restarted");

        let mut rnd = build_rand(1, 1);
        rnd.offer(&[10]).unwrap();
        assert_eq!(rnd.offer(&[3]).unwrap(), Verdict::Prune);
        rnd.program_mut().control(&ControlMsg::Clear).unwrap();
        assert_eq!(rnd.offer(&[3]).unwrap(), Verdict::Forward);
    }
}
