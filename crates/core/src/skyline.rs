//! SKYLINE pruning with scalar projections (§4.4 Example #6, Appendix D).
//!
//! The skyline (Pareto set) of a `D`-dimensional dataset needs comparisons
//! on *all* dimensions, but a switch stage cannot conditionally write under
//! multiple conditions. Cheetah therefore projects every point to a single
//! score `h : R^D → R` that is **monotone in every dimension** — so
//! `x dominated by y ⇒ h(x) ≤ h(y)` — and keeps the `w` highest-scoring
//! points seen so far via a rolling minimum on `h`:
//!
//! * a new point whose score beats a stored point's score replaces it (a
//!   single-comparison decision — implementable), the displaced point
//!   carrying on down the pipeline;
//! * a point that is *not* stored is checked for dominance against each
//!   stored point it passes, and pruned at the end of the pipeline if any
//!   dominated it (dominance ⇒ the stored point was forwarded earlier, so
//!   the master holds a witness). Coordinates are 32 bits wide, and a
//!   coordinate tied at a clamped edge (`0` or `u32::MAX`) proves nothing,
//!   so it does not dominate.
//!
//! Projections: `SUM` (cheap, biased toward large-range dimensions) and the
//! **Approximate Product Heuristic** (`APH`): `Π x_i` ordered via
//! `Σ β·log2(x_i)`, computed with the lookup-table/TCAM machinery of
//! [`cheetah_switch::aph`] because the switch has no multiplier. A
//! `Baseline` policy (store the first `w` points, never replace) matches
//! Figure 10b's third curve.

use crate::pruner::{covered, OptPruner};
use cheetah_switch::{
    ApproxLog, ControlMsg, PacketRef, RegisterArray, ResourceLedger, SwitchProgram, UsageSummary,
    Verdict,
};

/// Point-selection policy (the curves of Figure 10b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkylinePolicy {
    /// Rolling minimum on `h_S(x) = Σ x_i`.
    Sum,
    /// Rolling minimum on the approximate-product score (Appendix D), with
    /// the given fixed-point scale β.
    Aph {
        /// Fixed-point scale for the approximate logarithm.
        beta: u32,
    },
    /// Store the first `w` points, never replace ("Baseline").
    Baseline,
}

/// SKYLINE pruning configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkylineConfig {
    /// Number of dimensions `D`.
    pub dims: usize,
    /// Number of stored points `w`.
    pub points: usize,
    /// Scoring policy.
    pub policy: SkylinePolicy,
    /// Pack a point's score and dimensions into one stage (`D+1` same-stage
    /// ALUs) instead of the paper's two stages per point. Packing halves
    /// the stage count so the Table 2 default (`w = 10`) fits a 12-stage
    /// Tofino 1; unpacked matches the paper's stage formula.
    pub packed: bool,
}

impl SkylineConfig {
    /// Table 2 defaults: `D = 2`, `w = 10`, packed layout.
    pub fn paper_default(policy: SkylinePolicy) -> Self {
        Self { dims: 2, points: 10, policy, packed: true }
    }
}

/// One stored point: a score register and `D` dimension registers.
#[derive(Debug)]
struct StoredPoint {
    /// Score `h + 1` (0 = empty slot).
    score: RegisterArray,
    dims: Vec<RegisterArray>,
}

/// The SKYLINE pruning program.
#[derive(Debug)]
pub struct SkylinePruner {
    cfg: SkylineConfig,
    slots: Vec<StoredPoint>,
    aph: Option<ApproxLog>,
}

impl SkylinePruner {
    /// Build the program against `ledger`.
    pub fn build(cfg: SkylineConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        assert!(cfg.dims >= 1, "at least one dimension");
        assert!(cfg.points >= 1, "at least one stored point");
        // Projection stages: an adder tree over D operands needs ⌈log2 D⌉
        // stages and D-1 adders; APH adds the log table + TCAM.
        let tree_stages = (usize::BITS - (cfg.dims - 1).leading_zeros()) as usize;
        let tree_alus = cfg.dims.saturating_sub(1);
        let mut next_stage = 0;
        if tree_stages > 0 && tree_alus > 0 {
            let a = ledger.profile().alus_per_stage;
            let start = ledger.find_contiguous(0, tree_stages, a.min(tree_alus), 0)?;
            let mut left = tree_alus;
            for s in 0..tree_stages {
                let here = left.min(a);
                ledger.alloc_alus(start + s, here)?;
                left -= here;
                if left == 0 {
                    next_stage = start + s + 1;
                    break;
                }
            }
        }
        let aph = match cfg.policy {
            SkylinePolicy::Aph { beta } => {
                let al = ApproxLog::build(&mut *ledger, next_stage, beta, 64)?;
                // Each dimension performs its own MSB lookup per packet, so
                // the TCAM charge is 64·D (Table 2); ApproxLog charged the
                // first dimension's 64 rules.
                if cfg.dims > 1 {
                    ledger.alloc_tcam_entries(64 * (cfg.dims - 1))?;
                }
                Some(al)
            }
            _ => None,
        };
        // Point slots.
        let per_point_stages = if cfg.packed { 1 } else { 2 };
        let mut slots = Vec::with_capacity(cfg.points);
        let start = ledger.find_contiguous(
            next_stage,
            cfg.points * per_point_stages,
            if cfg.packed { cfg.dims + 1 } else { cfg.dims },
            64 * (cfg.dims as u64 + 1),
        )?;
        for i in 0..cfg.points {
            let s0 = start + i * per_point_stages;
            let score = ledger.register_array(s0, 1, 64)?;
            let dim_stage = if cfg.packed { s0 } else { s0 + 1 };
            let mut dims = Vec::with_capacity(cfg.dims);
            for _ in 0..cfg.dims {
                dims.push(ledger.register_array(dim_stage, 1, 64)?);
            }
            slots.push(StoredPoint { score, dims });
        }
        ledger.alloc_phv_bits(64 * cfg.dims)?;
        ledger.note_rules(2 + cfg.points);
        Ok(Self { cfg, slots, aph })
    }

    /// One row of Table 2 for this configuration.
    pub fn table2_row(
        cfg: SkylineConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &SkylineConfig {
        &self.cfg
    }

    /// The monotone score of a point, biased +1 so 0 means "empty slot".
    fn score(&mut self, dims: &[u64]) -> u64 {
        let h = match self.cfg.policy {
            SkylinePolicy::Sum | SkylinePolicy::Baseline => {
                dims.iter().fold(0u64, |acc, &x| acc.saturating_add(x))
            }
            SkylinePolicy::Aph { .. } => {
                let aph = self.aph.as_mut().expect("APH policy has an evaluator");
                dims.iter().fold(0u64, |acc, &x| acc.saturating_add(aph.approx_log2(x)))
            }
        };
        h.saturating_add(1)
    }
}

/// `x` dominated by `y` (maximization): every coordinate of `x` is ≤ `y`'s.
fn dominated(x: &[u64], y: &[u64]) -> bool {
    x.iter().zip(y).all(|(a, b)| a <= b)
}

/// The switch's dominance: `x` is provably dominated by stored `y`, every
/// coordinate [`covered`] — `≤`, except that a tie at a clamped edge
/// proves nothing.
#[inline]
pub(crate) fn covers(y: &[u64], x: &[u64]) -> bool {
    x.iter().zip(y).all(|(&a, &b)| covered(a, b))
}

impl SwitchProgram for SkylinePruner {
    fn name(&self) -> &'static str {
        "skyline"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let d = self.cfg.dims;
        if pkt.values.len() < d {
            return Err(cheetah_switch::SwitchError::BadPacketShape {
                expected: d,
                got: pkt.values.len(),
            });
        }
        let x: Vec<u64> = pkt.values[..d].to_vec();
        let hx = self.score(&x);
        let baseline = matches!(self.cfg.policy, SkylinePolicy::Baseline);
        let mut carry_h = hx;
        let mut carry_dims = x.clone();
        let mut stored_mine = false;
        let mut prune_mark = false;
        for slot in self.slots.iter_mut() {
            let ch = carry_h;
            // Baseline never replaces an occupied slot; rolling policies
            // replace when the carried score is strictly higher.
            let old_h = slot.score.rmw(pkt.epoch, 0, move |cur| {
                let replace = if baseline { cur == 0 } else { ch > cur };
                if replace {
                    ch
                } else {
                    cur
                }
            })?;
            let replaced = if baseline { old_h == 0 } else { ch > old_h };
            if replaced {
                // Swap the dimensions alongside the score.
                let mut old_dims = Vec::with_capacity(d);
                for (reg, &new_val) in slot.dims.iter_mut().zip(&carry_dims) {
                    old_dims.push(reg.rmw(pkt.epoch, 0, move |_| new_val)?);
                }
                if !stored_mine && carry_h == hx {
                    stored_mine = true; // the original point found a home
                }
                carry_h = old_h;
                carry_dims = old_dims;
                if carry_h == 0 {
                    break; // displaced an empty slot: nothing to carry on
                }
            } else if !stored_mine && !prune_mark {
                // The original point is still in flight: dominance check
                // against this stored point (read-only pass of the dims).
                let mut stored = Vec::with_capacity(d);
                for reg in slot.dims.iter_mut() {
                    stored.push(reg.read(pkt.epoch, 0)?);
                }
                if covers(&stored, &x) {
                    prune_mark = true; // dropped at the end of the pipeline
                }
            }
        }
        // A marked packet is dropped at the end of the pipeline even if it
        // also rolled into a lower-score slot: the stored copy is safe to
        // keep as a pruning witness because dominance is transitive — the
        // point that dominated x was itself stored-and-forwarded (or
        // witnessed by one that was), so anything x later prunes has a
        // forwarded witness too.
        Ok(if prune_mark { Verdict::Prune } else { Verdict::Forward })
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        if matches!(msg, ControlMsg::Clear) {
            for slot in &mut self.slots {
                slot.score.control_clear();
                for d in &mut slot.dims {
                    d.control_clear();
                }
            }
        }
        Ok(())
    }
}

/// Unbounded reference (OPT in Figures 10b/11b): forwards a point iff no
/// previously seen point dominates it, tracking the exact running skyline.
#[derive(Debug, Default)]
pub struct SkylineOpt {
    skyline: Vec<Vec<u64>>,
}

impl OptPruner for SkylineOpt {
    fn offer_opt(&mut self, values: &[u64]) -> Verdict {
        if self.skyline.iter().any(|y| dominated(values, y)) {
            return Verdict::Prune;
        }
        // Keep the running skyline minimal: drop points the newcomer
        // dominates. (Dominance is transitive, so the skyline set suffices
        // for all future dominance checks.)
        self.skyline.retain(|y| !dominated(y, values));
        self.skyline.push(values.to_vec());
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruner::StandalonePruner;
    use cheetah_switch::hash::mix64;
    use cheetah_switch::SwitchProfile;

    fn build(cfg: SkylineConfig) -> StandalonePruner<SkylinePruner> {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino2());
        StandalonePruner::new(SkylinePruner::build(cfg, &mut ledger).unwrap())
    }

    fn cfg(policy: SkylinePolicy, points: usize) -> SkylineConfig {
        SkylineConfig { dims: 2, points, policy, packed: true }
    }

    /// Brute-force skyline of a point set (maximization): points not
    /// *strictly* dominated by any other. Duplicate skyline values appear
    /// once per copy, but the containment check below is by value, so one
    /// forwarded copy suffices — matching the pruner's contract.
    fn true_skyline(points: &[Vec<u64>]) -> Vec<Vec<u64>> {
        points
            .iter()
            .filter(|p| !points.iter().any(|q| dominated(p, q) && !dominated(q, p)))
            .cloned()
            .collect()
    }

    #[test]
    fn dominated_points_are_pruned() {
        let mut p = build(cfg(SkylinePolicy::Sum, 4));
        assert_eq!(p.offer(&[10, 10]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[5, 5]).unwrap(), Verdict::Prune, "dominated by (10,10)");
        assert_eq!(p.offer(&[10, 10]).unwrap(), Verdict::Prune, "duplicates dominate");
        assert_eq!(p.offer(&[11, 1]).unwrap(), Verdict::Forward, "incomparable");
    }

    #[test]
    fn skyline_points_always_survive() {
        // Deterministic guarantee: every true-skyline point must be
        // forwarded (pruning only removes provably dominated points).
        for policy in
            [SkylinePolicy::Sum, SkylinePolicy::Aph { beta: 1 << 8 }, SkylinePolicy::Baseline]
        {
            let mut p = build(cfg(policy, 6));
            let mut x = 31u64;
            let points: Vec<Vec<u64>> = (0..3_000)
                .map(|_| {
                    x = mix64(x);
                    let a = x % 1_000 + 1;
                    x = mix64(x);
                    vec![a, x % 1_000 + 1]
                })
                .collect();
            let mut forwarded = Vec::new();
            for pt in &points {
                if p.offer(pt).unwrap() == Verdict::Forward {
                    forwarded.push(pt.clone());
                }
            }
            for sp in true_skyline(&points) {
                assert!(forwarded.contains(&sp), "skyline point {sp:?} pruned under {policy:?}");
            }
        }
    }

    #[test]
    fn rolling_keeps_highest_scores() {
        let mut p = build(cfg(SkylinePolicy::Sum, 2));
        p.offer(&[1, 1]).unwrap(); // h=2
        p.offer(&[5, 5]).unwrap(); // h=10
        p.offer(&[9, 9]).unwrap(); // h=18 — evicts h=2

        // Stored scores (biased +1): 19 and 11.
        let scores: Vec<u64> =
            p.program().slots.iter().map(|s| s.score.control_read(0).unwrap()).collect();
        assert_eq!(scores, vec![19, 11]);
    }

    #[test]
    fn baseline_never_replaces() {
        let mut p = build(cfg(SkylinePolicy::Baseline, 2));
        p.offer(&[1, 1]).unwrap();
        p.offer(&[2, 2]).unwrap();
        p.offer(&[100, 100]).unwrap(); // slots full: not stored
        let scores: Vec<u64> =
            p.program().slots.iter().map(|s| s.score.control_read(0).unwrap()).collect();
        assert_eq!(scores, vec![3, 5], "baseline kept the first two points");
        // But (100,100) was forwarded (not dominated).
        assert_eq!(p.stats().forwarded, 3);
    }

    #[test]
    fn aph_prunes_better_than_sum_on_skewed_ranges() {
        // §4.4: sum is biased when one dimension has a much larger range.
        // APH (product ordering) should prune at least as well there.
        let run = |policy| {
            let mut p = build(cfg(policy, 8));
            let mut x = 5u64;
            for _ in 0..20_000 {
                x = mix64(x);
                let small = x % 256 + 1; // dim 1: 8-bit range
                x = mix64(x);
                let large = x % 65_536 + 1; // dim 2: 16-bit range
                p.offer(&[small, large]).unwrap();
            }
            p.stats().unpruned_fraction()
        };
        let sum = run(SkylinePolicy::Sum);
        let aph = run(SkylinePolicy::Aph { beta: 1 << 8 });
        assert!(
            aph <= sum * 1.5,
            "APH should be competitive on skewed ranges: aph={aph}, sum={sum}"
        );
    }

    #[test]
    fn zero_point_handled() {
        let mut p = build(cfg(SkylinePolicy::Sum, 2));
        assert_eq!(p.offer(&[0, 0]).unwrap(), Verdict::Forward, "first point always survives");
        assert_eq!(
            p.offer(&[0, 0]).unwrap(),
            Verdict::Forward,
            "a tie at the 0 edge proves nothing"
        );
        assert_eq!(p.offer(&[1, 0]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn a_tie_dominates_inside_the_window_and_not_at_a_clamped_edge() {
        let top = u64::from(u32::MAX);
        let mut p = build(cfg(SkylinePolicy::Sum, 4));
        assert_eq!(p.offer(&[top, 9]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[top, 5]).unwrap(), Verdict::Forward, "tied at u32::MAX");
        assert_eq!(p.offer(&[top - 1, 5]).unwrap(), Verdict::Prune, "below the edge is proof");
        assert_eq!(p.offer(&[20, 20]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[20, 20]).unwrap(), Verdict::Prune, "a tie inside the window");
    }

    #[test]
    fn packed_layout_fits_tofino1_at_paper_defaults() {
        let row = SkylinePruner::table2_row(
            SkylineConfig::paper_default(SkylinePolicy::Sum),
            SwitchProfile::tofino1(),
        )
        .unwrap();
        // D=2, w=10 packed: 1 adder stage + 10 point stages = 11 ≤ 12.
        assert_eq!(row.stages_used, 11);
        // SRAM: w (D+1) × 64b.
        assert_eq!(row.sram_bits, 10 * 3 * 64);
    }

    #[test]
    fn unpacked_layout_matches_paper_stage_formula() {
        // Paper: log2(D) + 2w stages. D=2, w=4 → 1 + 8 = 9.
        let c = SkylineConfig { dims: 2, points: 4, policy: SkylinePolicy::Sum, packed: false };
        let row = SkylinePruner::table2_row(c, SwitchProfile::tofino1()).unwrap();
        assert_eq!(row.stages_used, 9);
    }

    #[test]
    fn aph_layout_charges_table_and_tcam() {
        let c = SkylineConfig {
            dims: 2,
            points: 2,
            policy: SkylinePolicy::Aph { beta: 1 << 8 },
            packed: true,
        };
        let row = SkylinePruner::table2_row(c, SwitchProfile::tofino1()).unwrap();
        assert_eq!(row.tcam_entries, 64 * 2, "64·D MSB finder rules (Table 2)");
        assert!(row.sram_bits >= (1 << 16) * 32, "log lookup table charged");
    }

    #[test]
    fn more_points_prune_more() {
        // Figure 10b shape.
        let mut rates = Vec::new();
        for points in [1usize, 4, 12] {
            let mut p = build(cfg(SkylinePolicy::Sum, points));
            let mut x = 77u64;
            for _ in 0..20_000 {
                x = mix64(x);
                let a = x % 10_000 + 1;
                x = mix64(x);
                p.offer(&[a, x % 10_000 + 1]).unwrap();
            }
            rates.push(p.stats().unpruned_fraction());
        }
        assert!(rates[0] > rates[2], "rates: {rates:?}");
    }

    #[test]
    fn opt_is_exactly_the_running_skyline() {
        let mut opt = SkylineOpt::default();
        assert_eq!(opt.offer_opt(&[5, 5]), Verdict::Forward);
        assert_eq!(opt.offer_opt(&[3, 3]), Verdict::Prune);
        assert_eq!(opt.offer_opt(&[6, 4]), Verdict::Forward);
        assert_eq!(opt.offer_opt(&[7, 7]), Verdict::Forward, "dominates everything so far");
        assert_eq!(opt.offer_opt(&[6, 4]), Verdict::Prune, "now dominated by (7,7)");
        assert_eq!(opt.skyline.len(), 1);
    }

    #[test]
    fn three_dimensional_points_work() {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino2());
        let c = SkylineConfig { dims: 3, points: 4, policy: SkylinePolicy::Sum, packed: true };
        let mut p = StandalonePruner::new(SkylinePruner::build(c, &mut ledger).unwrap());
        assert_eq!(p.offer(&[5, 5, 5]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[4, 4, 4]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[6, 1, 1]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn clear_resets_slots() {
        let mut p = build(cfg(SkylinePolicy::Sum, 2));
        p.offer(&[9, 9]).unwrap();
        assert_eq!(p.offer(&[1, 1]).unwrap(), Verdict::Prune);
        p.program_mut().control(&ControlMsg::Clear).unwrap();
        assert_eq!(p.offer(&[1, 1]).unwrap(), Verdict::Forward);
    }
}
