//! Switch hardware profiles.
//!
//! A [`SwitchProfile`] captures the resource envelope of a PISA switch model.
//! The numbers are in the range the paper quotes (§2.2: 12–60 stages, ~10
//! comparisons per stage, under 100 MB SRAM, 100K–300K TCAM entries, 10–20
//! bytes parsed per packet) and the public Tofino documentation. They are
//! deliberately conservative: if a Cheetah program fits these budgets it
//! would fit the real chip.

/// Resource envelope of a particular switch model.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchProfile {
    /// Human-readable model name.
    pub name: String,
    /// Number of match-action pipeline stages.
    pub stages: usize,
    /// Stateful ALUs available per stage (bounds same-stage comparisons).
    pub alus_per_stage: usize,
    /// SRAM bits available per stage (register arrays draw from this).
    pub sram_bits_per_stage: u64,
    /// Total TCAM entries shared across the pipeline.
    pub tcam_entries: usize,
    /// Packet-header-vector bits available to user programs — the budget of
    /// parsed values that can travel between stages (paper: 10–20 bytes,
    /// i.e. 80–160 bits, plus metadata; we count user values only).
    pub phv_bits: usize,
    /// Maximum register width in bits (Tofino pairs 32-bit cells into 64).
    pub max_register_width: u32,
    /// Control-plane latency to install a single match-action rule, in
    /// microseconds. The paper reports <1 ms for the tens of rules a query
    /// needs.
    pub rule_install_micros: u64,
    /// Aggregate forwarding capacity in Tbps (Table 3: 6.5 for Tofino 1,
    /// 12.8 for Tofino 2). Used by throughput models, never by correctness.
    pub throughput_tbps: f64,
    /// Per-packet pipeline latency in nanoseconds (Table 3: <1 µs).
    pub latency_ns: u64,
}

impl SwitchProfile {
    /// Barefoot Tofino (first generation): 12 stages, 6.5 Tbps.
    pub fn tofino1() -> Self {
        Self {
            name: "Tofino 1".to_string(),
            stages: 12,
            alus_per_stage: 4,
            sram_bits_per_stage: 48 * 1024 * 1024 * 8 / 12, // ≈48 MB chip-wide
            tcam_entries: 120_000,
            phv_bits: 512,
            max_register_width: 64,
            rule_install_micros: 40,
            throughput_tbps: 6.5,
            latency_ns: 900,
        }
    }

    /// Barefoot Tofino 2: 20 stages, 12.8 Tbps (Table 3).
    pub fn tofino2() -> Self {
        Self {
            name: "Tofino 2".to_string(),
            stages: 20,
            alus_per_stage: 8,
            sram_bits_per_stage: 96 * 1024 * 1024 * 8 / 20,
            tcam_entries: 300_000,
            phv_bits: 768,
            max_register_width: 64,
            rule_install_micros: 30,
            throughput_tbps: 12.8,
            latency_ns: 700,
        }
    }

    /// A deliberately tiny profile for exercising resource-exhaustion paths
    /// in tests: 4 stages, 2 ALUs per stage, 4 KiB SRAM per stage.
    pub fn tiny() -> Self {
        Self {
            name: "tiny-test-switch".to_string(),
            stages: 4,
            alus_per_stage: 2,
            sram_bits_per_stage: 4 * 1024 * 8,
            tcam_entries: 64,
            phv_bits: 128,
            max_register_width: 64,
            rule_install_micros: 40,
            throughput_tbps: 0.1,
            latency_ns: 900,
        }
    }

    /// Total SRAM bits across all stages.
    pub fn total_sram_bits(&self) -> u64 {
        self.sram_bits_per_stage * self.stages as u64
    }

    /// Per-packet pipeline latency as a `Duration`.
    pub fn latency(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.latency_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofino1_matches_paper_envelope() {
        let p = SwitchProfile::tofino1();
        // §2.2: 12–60 stages.
        assert!(p.stages >= 12 && p.stages <= 60);
        // §2.2: under 100 MB of SRAM.
        assert!(p.total_sram_bits() < 100 * 1024 * 1024 * 8);
        // §2.2: 100K–300K TCAM entries.
        assert!(p.tcam_entries >= 100_000 && p.tcam_entries <= 300_000);
        // Table 3: sub-microsecond latency.
        assert!(p.latency_ns < 1_000);
    }

    #[test]
    fn tofino2_is_larger_than_tofino1() {
        let t1 = SwitchProfile::tofino1();
        let t2 = SwitchProfile::tofino2();
        assert!(t2.stages > t1.stages);
        assert!(t2.throughput_tbps > t1.throughput_tbps);
        assert!(t2.total_sram_bits() > t1.total_sram_bits());
    }

    #[test]
    fn tiny_is_tiny() {
        let p = SwitchProfile::tiny();
        assert!(p.stages < SwitchProfile::tofino1().stages);
        assert!(p.total_sram_bits() < 1024 * 1024);
    }

    #[test]
    fn profiles_are_cloneable_and_comparable() {
        let p = SwitchProfile::tofino1();
        assert_eq!(p.clone(), p);
        assert_ne!(SwitchProfile::tofino1(), SwitchProfile::tofino2());
    }
}
