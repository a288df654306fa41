//! Approximate logarithms in the dataplane (Appendix D).
//!
//! SKYLINE's product projection `h_P(x) = Π x_i` cannot run on a switch:
//! there is no multiplier and no `log` unit. The paper's *Approximate
//! Product Heuristic* (APH) observes that `Π x_i > Π y_i` iff
//! `Σ β·log2(x_i) > Σ β·log2(y_i)` and approximates `β·log2(a)` with
//!
//! 1. a static 2¹⁶-entry match-action table mapping `a → [β·log2(a)]`, and
//! 2. a TCAM most-significant-bit finder (32/64 rules) that locates the
//!    leading 1 of wide operands so the table can be applied to the 16 bits
//!    starting at the MSB: if `z ≈ z' · 2^(ℓ-15)` then
//!    `log2(z) ≈ log2(z') + (ℓ-15)`.
//!
//! The result is a fixed-point logarithm computed with one table lookup, one
//! TCAM lookup, and one add — all switch-legal operations.

use crate::resources::ResourceLedger;
use crate::tcam::TernaryTable;
use crate::Result;

/// Which scalar projection a multi-dimensional algorithm uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionKind {
    /// `h_S(x) = Σ x_i` — cheap but biased toward large-range dimensions.
    Sum,
    /// Approximate `h_P(x) = Π x_i` via sum of approximate logs (APH).
    ApproxProduct,
}

/// Fixed-point approximate `β·log2` evaluator backed by the lookup table and
/// TCAM MSB finder described above.
#[derive(Debug, Clone)]
pub struct ApproxLog {
    beta: u32,
    /// `table[a] = [β·log2(a)]` for `a ∈ 1..2^16`; `table[0] = 0`.
    table: Vec<u32>,
    msb: TernaryTable<u32>,
    operand_width: u32,
}

impl ApproxLog {
    /// Number of entries in the static log table (16-bit operand domain).
    pub const TABLE_ENTRIES: usize = 1 << 16;

    /// Build the evaluator, charging its resources to `ledger`:
    /// `2^16 × 32b` of SRAM in `stage` for the table (as in Table 2) and
    /// `operand_width` TCAM entries for the MSB finder.
    pub fn build(
        ledger: &mut ResourceLedger,
        stage: usize,
        beta: u32,
        operand_width: u32,
    ) -> Result<Self> {
        ledger.alloc_sram_bits(stage, Self::TABLE_ENTRIES as u64 * 32)?;
        ledger.alloc_tcam_entries(operand_width as usize)?;
        Ok(Self::new_unchecked(beta, operand_width))
    }

    /// Build without a ledger (for analysis and tests).
    pub fn new_unchecked(beta: u32, operand_width: u32) -> Self {
        // The control plane computes the table once at install time; float
        // math here is legitimate (it never runs per packet).
        let mut table = vec![0u32; Self::TABLE_ENTRIES];
        for (a, slot) in table.iter_mut().enumerate().skip(1) {
            *slot = (f64::from(beta) * (a as f64).log2()).round() as u32;
        }
        let msb = TernaryTable::<()>::msb_finder(operand_width)
            .expect("msb finder construction is infallible for width <= 64");
        Self { beta, table, msb, operand_width }
    }

    /// The fixed-point scale β.
    pub fn beta(&self) -> u32 {
        self.beta
    }

    /// Width of operands the MSB finder covers.
    pub fn operand_width(&self) -> u32 {
        self.operand_width
    }

    /// Approximate `β·log2(z)`. Defined as 0 for `z = 0` (the projection
    /// only needs monotonicity, and 0 is dominated by everything anyway).
    pub fn approx_log2(&mut self, z: u64) -> u64 {
        if z == 0 {
            return 0;
        }
        if z < Self::TABLE_ENTRIES as u64 {
            return u64::from(self.table[z as usize]);
        }
        // One TCAM lookup finds ℓ, a shift extracts the top 16 bits, one
        // table lookup and one add finish the job.
        let l = *self.msb.lookup(z).expect("nonzero operand always has an MSB");
        let shift = l - 15;
        let z_top = (z >> shift) as usize; // 16 bits, MSB set
        u64::from(self.table[z_top]) + u64::from(self.beta) * u64::from(shift)
    }

    /// Exact `β·log2(z)` computed in floating point — the control-plane
    /// reference used by tests to bound the approximation error.
    pub fn exact_log2(&self, z: u64) -> f64 {
        if z == 0 {
            0.0
        } else {
            f64::from(self.beta) * (z as f64).log2()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::mix64;
    use crate::profile::SwitchProfile;

    fn evaluator(beta: u32) -> ApproxLog {
        ApproxLog::new_unchecked(beta, 64)
    }

    #[test]
    fn exact_on_table_domain() {
        let mut a = evaluator(256);
        // Inside the 16-bit domain the only error is rounding: ≤ 0.5.
        for z in [1u64, 2, 3, 100, 1000, 65535] {
            let approx = a.approx_log2(z) as f64;
            let exact = a.exact_log2(z);
            assert!((approx - exact).abs() <= 0.5, "z={z}: {approx} vs {exact}");
        }
    }

    #[test]
    fn wide_operands_error_is_bounded() {
        let mut a = evaluator(1 << 8);
        // Truncating below the top 16 bits loses < 2^-15 of relative value;
        // the log error is < log2(1 + 2^-15) ≈ 4.4e-5, scaled by β, plus
        // rounding. Use a slack bound of 1.0 fixed-point units.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..10_000 {
            x = mix64(x);
            if x == 0 {
                continue;
            }
            let approx = a.approx_log2(x) as f64;
            let exact = a.exact_log2(x);
            assert!((approx - exact).abs() <= 1.0, "x={x}: {approx} vs {exact}");
        }
    }

    #[test]
    fn monotone_on_powers_of_two() {
        let mut a = evaluator(64);
        let mut prev = 0;
        for bit in 0..64 {
            let v = a.approx_log2(1u64 << bit);
            assert!(v >= prev, "approx log must be monotone on powers of two");
            prev = v;
        }
    }

    #[test]
    fn zero_maps_to_zero() {
        let mut a = evaluator(256);
        assert_eq!(a.approx_log2(0), 0);
    }

    #[test]
    fn build_charges_resources() {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        let _a = ApproxLog::build(&mut ledger, 0, 256, 64).unwrap();
        let u = ledger.usage();
        assert_eq!(u.sram_bits, (1 << 16) * 32);
        assert_eq!(u.tcam_entries, 64);
    }

    #[test]
    fn build_fails_on_tiny_switch() {
        // tiny has 4 KiB SRAM per stage; the table needs 256 KiB.
        let mut ledger = ResourceLedger::new(SwitchProfile::tiny());
        assert!(ApproxLog::build(&mut ledger, 0, 256, 64).is_err());
    }

    #[test]
    fn product_ordering_mostly_preserved() {
        // APH exists to order products; check that for random pairs the
        // ordering of Σ approx_log matches the ordering of the true product
        // except very near ties.
        let mut a = evaluator(1 << 8);
        let mut x: u64 = 42;
        let mut disagreements = 0;
        let trials = 2_000;
        for _ in 0..trials {
            x = mix64(x);
            let p1 = (x & 0xFFFF) + 1;
            x = mix64(x);
            let p2 = (x & 0xFFFF) + 1;
            x = mix64(x);
            let q1 = (x & 0xFFFF) + 1;
            x = mix64(x);
            let q2 = (x & 0xFFFF) + 1;
            let hp = (p1 as u128) * (p2 as u128);
            let hq = (q1 as u128) * (q2 as u128);
            // Skip near-ties where rounding can legitimately flip the order.
            let ratio = hp.max(hq) as f64 / hp.min(hq) as f64;
            if ratio < 1.01 {
                continue;
            }
            let ap = a.approx_log2(p1) + a.approx_log2(p2);
            let aq = a.approx_log2(q1) + a.approx_log2(q2);
            if (hp > hq) != (ap > aq) {
                disagreements += 1;
            }
        }
        assert_eq!(disagreements, 0, "APH flipped a non-tie product comparison");
    }
}
