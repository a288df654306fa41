//! Per-stage resource accounting.
//!
//! Every pruning program must *allocate* the stages, ALUs, SRAM, TCAM and PHV
//! bits it uses from a [`ResourceLedger`] before it may process packets. A
//! configuration that exceeds the [`SwitchProfile`]
//! fails with a precise [`SwitchError`] — this is how the
//! repository reproduces Table 2 of the paper: the numbers in the table are
//! read back from the ledger, not hand-written.

use crate::error::SwitchError;
use crate::profile::SwitchProfile;
use crate::register::RegisterArray;
use crate::Result;

/// Resources consumed within one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageUsage {
    /// Stateful ALUs allocated in this stage.
    pub alus: usize,
    /// SRAM bits allocated in this stage.
    pub sram_bits: u64,
}

/// A summary of everything a program (or a set of packed programs) consumes.
///
/// This is the machine-readable form of one row of Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UsageSummary {
    /// Number of stages with at least one allocation.
    pub stages_used: usize,
    /// Total ALUs allocated across stages.
    pub alus: usize,
    /// Total SRAM bits allocated.
    pub sram_bits: u64,
    /// TCAM entries allocated.
    pub tcam_entries: usize,
    /// PHV bits allocated.
    pub phv_bits: usize,
    /// Control-plane rules installed.
    pub rules: usize,
}

impl UsageSummary {
    /// SRAM usage in kilobytes (for human-readable tables).
    pub fn sram_kb(&self) -> f64 {
        self.sram_bits as f64 / 8.0 / 1024.0
    }
}

/// Tracks resource allocation against a [`SwitchProfile`].
#[derive(Debug, Clone)]
pub struct ResourceLedger {
    profile: SwitchProfile,
    stages: Vec<StageUsage>,
    tcam_used: usize,
    phv_used: usize,
    rules: usize,
}

impl ResourceLedger {
    /// Create an empty ledger for the given switch model.
    pub fn new(profile: SwitchProfile) -> Self {
        let stages = vec![StageUsage::default(); profile.stages];
        Self { profile, stages, tcam_used: 0, phv_used: 0, rules: 0 }
    }

    /// The profile this ledger allocates against.
    pub fn profile(&self) -> &SwitchProfile {
        &self.profile
    }

    /// Allocate `n` stateful ALUs in `stage`.
    pub fn alloc_alus(&mut self, stage: usize, n: usize) -> Result<()> {
        self.check_stage(stage)?;
        let used = self.stages[stage].alus;
        let available = self.profile.alus_per_stage.saturating_sub(used);
        if n > available {
            return Err(SwitchError::AluExhausted { stage, requested: n, available });
        }
        self.stages[stage].alus += n;
        Ok(())
    }

    /// Allocate `bits` of SRAM in `stage`.
    pub fn alloc_sram_bits(&mut self, stage: usize, bits: u64) -> Result<()> {
        self.check_stage(stage)?;
        let used = self.stages[stage].sram_bits;
        let available = self.profile.sram_bits_per_stage.saturating_sub(used);
        if bits > available {
            return Err(SwitchError::SramExhausted {
                stage,
                requested_bits: bits,
                available_bits: available,
            });
        }
        self.stages[stage].sram_bits += bits;
        Ok(())
    }

    /// Allocate `n` TCAM entries (TCAM is shared across stages).
    pub fn alloc_tcam_entries(&mut self, n: usize) -> Result<()> {
        let available = self.profile.tcam_entries.saturating_sub(self.tcam_used);
        if n > available {
            return Err(SwitchError::TcamExhausted { requested: n, available });
        }
        self.tcam_used += n;
        Ok(())
    }

    /// Allocate `bits` of PHV (parsed values carried between stages).
    pub fn alloc_phv_bits(&mut self, bits: usize) -> Result<()> {
        let available = self.profile.phv_bits.saturating_sub(self.phv_used);
        if bits > available {
            return Err(SwitchError::PhvOverflow { requested: bits, available });
        }
        self.phv_used += bits;
        Ok(())
    }

    /// Record `n` control-plane rules installed for this program.
    pub fn note_rules(&mut self, n: usize) {
        self.rules += n;
    }

    /// Allocate a register array of `depth` cells × `width_bits` in `stage`,
    /// drawing SRAM from that stage's budget and one stateful ALU (the RMW
    /// unit that services the array).
    pub fn register_array(
        &mut self,
        stage: usize,
        depth: usize,
        width_bits: u32,
    ) -> Result<RegisterArray> {
        if width_bits == 0 || width_bits > self.profile.max_register_width {
            return Err(SwitchError::BadWidth { width: width_bits });
        }
        self.check_stage(stage)?;
        self.alloc_sram_bits(stage, depth as u64 * u64::from(width_bits))?;
        self.alloc_alus(stage, 1)?;
        Ok(RegisterArray::new(stage, depth, width_bits))
    }

    /// Like [`register_array`](Self::register_array) but with `ports`
    /// same-stage ALUs serving the same memory (Table 2's `*` assumption),
    /// allowing `ports` accesses per packet. Needed by §9's multi-entry
    /// packets, where one packet carries several entries that each probe
    /// the structure. Charges `ports` ALUs plus the SRAM.
    pub fn register_array_multiport(
        &mut self,
        stage: usize,
        depth: usize,
        width_bits: u32,
        ports: u32,
    ) -> Result<RegisterArray> {
        if width_bits == 0 || width_bits > self.profile.max_register_width {
            return Err(SwitchError::BadWidth { width: width_bits });
        }
        self.check_stage(stage)?;
        self.alloc_sram_bits(stage, depth as u64 * u64::from(width_bits))?;
        self.alloc_alus(stage, ports as usize)?;
        Ok(RegisterArray::with_ports(stage, depth, width_bits, ports))
    }

    /// Like [`register_array`](Self::register_array) but shares an
    /// already-allocated ALU: some algorithms (marked `*` in Table 2) assume
    /// same-stage ALUs can access the same memory space, so several logical
    /// columns share one physical stage. Only the SRAM is charged.
    pub fn register_array_shared_alu(
        &mut self,
        stage: usize,
        depth: usize,
        width_bits: u32,
    ) -> Result<RegisterArray> {
        if width_bits == 0 || width_bits > self.profile.max_register_width {
            return Err(SwitchError::BadWidth { width: width_bits });
        }
        self.check_stage(stage)?;
        self.alloc_sram_bits(stage, depth as u64 * u64::from(width_bits))?;
        Ok(RegisterArray::new(stage, depth, width_bits))
    }

    /// Find the first run of `n` contiguous stages, starting at or after
    /// `from`, in which every stage still has at least `alus` ALUs and
    /// `sram_bits` SRAM available. Returns the first stage of the run.
    pub fn find_contiguous(
        &self,
        from: usize,
        n: usize,
        alus: usize,
        sram_bits: u64,
    ) -> Result<usize> {
        if n == 0 {
            return Ok(from.min(self.profile.stages));
        }
        let fits = |s: usize| {
            self.stages[s].alus + alus <= self.profile.alus_per_stage
                && self.stages[s].sram_bits + sram_bits <= self.profile.sram_bits_per_stage
        };
        let last_start = self.profile.stages.checked_sub(n);
        if let Some(last_start) = last_start {
            'outer: for start in from..=last_start {
                for s in start..start + n {
                    if !fits(s) {
                        continue 'outer;
                    }
                }
                return Ok(start);
            }
        }
        Err(SwitchError::NoContiguousStages { requested: n })
    }

    /// Aggregate usage across the pipeline (one row of Table 2).
    pub fn usage(&self) -> UsageSummary {
        let stages_used = self.stages.iter().filter(|s| s.alus > 0 || s.sram_bits > 0).count();
        UsageSummary {
            stages_used,
            alus: self.stages.iter().map(|s| s.alus).sum(),
            sram_bits: self.stages.iter().map(|s| s.sram_bits).sum(),
            tcam_entries: self.tcam_used,
            phv_bits: self.phv_used,
            rules: self.rules,
        }
    }

    /// Usage within a single stage.
    pub fn stage_usage(&self, stage: usize) -> Result<StageUsage> {
        self.check_stage(stage)?;
        Ok(self.stages[stage])
    }

    /// Remaining ALUs in a stage.
    pub fn alus_available(&self, stage: usize) -> Result<usize> {
        self.check_stage(stage)?;
        Ok(self.profile.alus_per_stage - self.stages[stage].alus)
    }

    fn check_stage(&self, stage: usize) -> Result<()> {
        if stage >= self.profile.stages {
            return Err(SwitchError::NoSuchStage { stage, stages: self.profile.stages });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ledger() -> ResourceLedger {
        ResourceLedger::new(SwitchProfile::tiny())
    }

    #[test]
    fn alu_allocation_is_bounded() {
        let mut l = tiny_ledger();
        // tiny has 2 ALUs per stage.
        l.alloc_alus(0, 2).unwrap();
        let err = l.alloc_alus(0, 1).unwrap_err();
        assert_eq!(err, SwitchError::AluExhausted { stage: 0, requested: 1, available: 0 });
        // Other stages unaffected.
        l.alloc_alus(1, 2).unwrap();
    }

    #[test]
    fn sram_allocation_is_bounded_per_stage() {
        let mut l = tiny_ledger();
        let budget = SwitchProfile::tiny().sram_bits_per_stage;
        l.alloc_sram_bits(0, budget).unwrap();
        assert!(matches!(
            l.alloc_sram_bits(0, 1),
            Err(SwitchError::SramExhausted { stage: 0, .. })
        ));
        l.alloc_sram_bits(1, budget).unwrap();
    }

    #[test]
    fn tcam_is_shared() {
        let mut l = tiny_ledger();
        l.alloc_tcam_entries(64).unwrap();
        assert!(matches!(l.alloc_tcam_entries(1), Err(SwitchError::TcamExhausted { .. })));
    }

    #[test]
    fn phv_budget_enforced() {
        let mut l = tiny_ledger();
        l.alloc_phv_bits(128).unwrap();
        assert_eq!(
            l.alloc_phv_bits(8),
            Err(SwitchError::PhvOverflow { requested: 8, available: 0 })
        );
    }

    #[test]
    fn register_array_charges_sram_and_alu() {
        let mut l = tiny_ledger();
        let r = l.register_array(0, 16, 64).unwrap();
        assert_eq!(r.depth(), 16);
        let u = l.usage();
        assert_eq!(u.sram_bits, 16 * 64);
        assert_eq!(u.alus, 1);
        assert_eq!(u.stages_used, 1);
    }

    #[test]
    fn register_array_rejects_bad_width() {
        let mut l = tiny_ledger();
        assert_eq!(l.register_array(0, 1, 0).unwrap_err(), SwitchError::BadWidth { width: 0 });
        assert_eq!(l.register_array(0, 1, 65).unwrap_err(), SwitchError::BadWidth { width: 65 });
    }

    #[test]
    fn register_array_too_big_for_stage() {
        let mut l = tiny_ledger();
        // tiny stage = 4 KiB = 32768 bits; 1024 cells * 64b = 65536 bits.
        assert!(matches!(
            l.register_array(0, 1024, 64),
            Err(SwitchError::SramExhausted { stage: 0, .. })
        ));
    }

    #[test]
    fn shared_alu_variant_charges_no_alu() {
        let mut l = tiny_ledger();
        let _a = l.register_array(0, 4, 64).unwrap();
        let _b = l.register_array_shared_alu(0, 4, 64).unwrap();
        assert_eq!(l.usage().alus, 1);
        assert_eq!(l.usage().sram_bits, 2 * 4 * 64);
    }

    #[test]
    fn find_contiguous_skips_full_stages() {
        let mut l = tiny_ledger();
        l.alloc_alus(0, 2).unwrap(); // stage 0 full
        let start = l.find_contiguous(0, 2, 1, 0).unwrap();
        assert_eq!(start, 1);
    }

    #[test]
    fn find_contiguous_fails_when_pipeline_too_short() {
        let l = tiny_ledger();
        assert_eq!(
            l.find_contiguous(0, 5, 1, 0),
            Err(SwitchError::NoContiguousStages { requested: 5 })
        );
    }

    #[test]
    fn no_such_stage() {
        let mut l = tiny_ledger();
        assert_eq!(l.alloc_alus(4, 1), Err(SwitchError::NoSuchStage { stage: 4, stages: 4 }));
    }

    #[test]
    fn usage_summary_aggregates() {
        let mut l = tiny_ledger();
        l.alloc_alus(0, 1).unwrap();
        l.alloc_alus(1, 2).unwrap();
        l.alloc_sram_bits(2, 100).unwrap();
        l.alloc_tcam_entries(10).unwrap();
        l.alloc_phv_bits(64).unwrap();
        l.note_rules(12);
        let u = l.usage();
        assert_eq!(u.alus, 3);
        assert_eq!(u.sram_bits, 100);
        assert_eq!(u.tcam_entries, 10);
        assert_eq!(u.phv_bits, 64);
        assert_eq!(u.rules, 12);
        assert_eq!(u.stages_used, 3);
    }

    #[test]
    fn sram_kb_conversion() {
        let u = UsageSummary { sram_bits: 8 * 1024 * 4, ..Default::default() };
        assert!((u.sram_kb() - 4.0).abs() < 1e-9);
    }
}
