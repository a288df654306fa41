//! DISTINCT pruning (§4.2 Example #2, §5 Example #8).
//!
//! The switch keeps a `d × w` matrix of recently seen values. Each entry
//! hashes to a row; the row is a tiny `w`-way cache. A hit means the value
//! has certainly appeared before — prune. A miss forwards the entry and
//! inserts it. Misses on previously-seen values (capacity evictions) are
//! *false negatives*: the master removes those duplicates, so correctness
//! never depends on the cache — exactly why a cache is used instead of a
//! Bloom filter, whose false *positives* would drop first occurrences.
//!
//! Hardware mapping: the matrix is `w` register arrays of depth `d`, one
//! per logical stage, each touched once per packet (the PISA discipline).
//! With the LRU policy the rolling replacement of the paper is used: the
//! new value is written to the first column and each column's previous
//! occupant shifts one column right, stopping at a hit so the row never
//! holds duplicates. With FIFO, a per-row pointer chooses the victim column
//! and hits do not refresh. (The FIFO pointer is idealized as program
//! state, like Table 2 which charges no pointer storage.)
//!
//! An *empty* cell is encoded as 0 and occupied cells store `value + 1`;
//! a raw value of `u64::MAX` (which would wrap to 0) is forwarded without
//! caching — a false negative, never a false positive, so correctness is
//! unaffected.

use crate::fingerprint::FingerprintSpec;
use crate::pruner::OptPruner;
use cheetah_switch::{
    ControlMsg, HashFn, PacketRef, RegisterArray, ResourceLedger, SwitchProgram, UsageSummary,
    Verdict,
};
use std::collections::HashSet;

/// Which value the row evicts when full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Least-recently-used via the paper's rolling replacement. One column
    /// per pipeline stage: `w` stages, `w` ALUs.
    Lru,
    /// First-in-first-out via a per-row victim pointer; hits do not refresh.
    /// Columns pack `A` per stage (same-stage ALUs sharing memory, the `*`
    /// rows of Table 2): `⌈w/A⌉` stages, `w` ALUs.
    Fifo,
}

/// Configuration of the DISTINCT matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistinctConfig {
    /// Number of rows `d` (the hash range).
    pub rows: usize,
    /// Number of columns `w` (cache ways / logical stages).
    pub cols: usize,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// When set, entries are fingerprinted before caching (Example #8:
    /// multi-column or wide keys). Collisions can over-prune with
    /// probability bounded by Theorem 4.
    pub fingerprint: Option<FingerprintSpec>,
    /// Seed for the row hash.
    pub seed: u64,
}

impl DistinctConfig {
    /// The paper's default configuration (Table 2): `w = 2`, `d = 4096`.
    pub fn paper_default() -> Self {
        Self { rows: 4096, cols: 2, policy: EvictionPolicy::Lru, fingerprint: None, seed: 0xD157 }
    }
}

/// The DISTINCT pruning program.
#[derive(Debug)]
pub struct DistinctPruner {
    cfg: DistinctConfig,
    row_hash: HashFn,
    /// `cols[i]` is the register array backing matrix column `i`.
    cols: Vec<RegisterArray>,
    /// FIFO victim pointer per row (idealized program state; see module doc).
    fifo_ptr: Vec<u32>,
}

impl DistinctPruner {
    /// Build the program, charging `ledger` for its stages, ALUs and SRAM
    /// starting at the first stage with room.
    pub fn build(cfg: DistinctConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        assert!(cfg.rows > 0 && cfg.cols > 0, "matrix must be non-empty");
        let width = match cfg.fingerprint {
            Some(f) => f.bits + 1, // +1 for the occupancy bias
            None => 64,
        };
        let alus_per_stage = ledger.profile().alus_per_stage;
        let sram_per_col = cfg.rows as u64 * u64::from(width);
        let mut cols = Vec::with_capacity(cfg.cols);
        match cfg.policy {
            EvictionPolicy::Lru => {
                // One column per stage.
                let start = ledger.find_contiguous(0, cfg.cols, 1, sram_per_col)?;
                for i in 0..cfg.cols {
                    cols.push(ledger.register_array(start + i, cfg.rows, width)?);
                }
            }
            EvictionPolicy::Fifo => {
                // Pack A columns per stage (shared-memory assumption).
                let stages = cfg.cols.div_ceil(alus_per_stage);
                let start = ledger.find_contiguous(
                    0,
                    stages,
                    alus_per_stage.min(cfg.cols),
                    sram_per_col * alus_per_stage.min(cfg.cols) as u64,
                )?;
                for i in 0..cfg.cols {
                    cols.push(ledger.register_array(
                        start + i / alus_per_stage,
                        cfg.rows,
                        width,
                    )?);
                }
            }
        }
        // One 64-bit value parsed from the packet.
        ledger.alloc_phv_bits(64)?;
        // Control rules: row-hash select + per-column compare actions.
        ledger.note_rules(2 + cfg.cols);
        Ok(Self { cfg, row_hash: HashFn::from_seed(cfg.seed), cols, fifo_ptr: vec![0; cfg.rows] })
    }

    /// Resource usage of this configuration on the given profile, as one
    /// row of Table 2.
    pub fn table2_row(
        cfg: DistinctConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &DistinctConfig {
        &self.cfg
    }

    /// Encoded cell value for a raw key: `fp(key)+1` or `key+1`; 0 (from a
    /// wrapping `u64::MAX`) means "do not cache".
    fn encode(&self, raw: u64) -> u64 {
        match self.cfg.fingerprint {
            Some(fp) => fp.apply(raw) + 1,
            None => raw.wrapping_add(1),
        }
    }
}

impl SwitchProgram for DistinctPruner {
    fn name(&self) -> &'static str {
        "distinct"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let raw = pkt.value(0)?;
        let stored = self.encode(raw);
        if stored == 0 {
            // u64::MAX without fingerprinting: forward uncached (safe false
            // negative; see module docs).
            return Ok(Verdict::Forward);
        }
        let row = self.row_hash.index(stored, self.cfg.rows);
        match self.cfg.policy {
            EvictionPolicy::Lru => {
                let mut carry = stored;
                let mut hit = false;
                for col in self.cols.iter_mut() {
                    if hit {
                        break; // later stages pass through unchanged
                    }
                    let old = col.rmw(pkt.epoch, row, |_| carry)?;
                    if old == stored {
                        hit = true;
                    } else {
                        carry = old;
                    }
                }
                Ok(if hit { Verdict::Prune } else { Verdict::Forward })
            }
            EvictionPolicy::Fifo => {
                let victim = self.fifo_ptr[row] as usize % self.cfg.cols;
                let mut hit = false;
                // Every column is read; only the victim column is written,
                // and only if no earlier column hit (a later-column hit
                // after the victim write merely duplicates a value in the
                // row — capacity loss, not incorrectness).
                for (i, col) in self.cols.iter_mut().enumerate() {
                    if i == victim && !hit {
                        let old = col.rmw(pkt.epoch, row, |_| stored)?;
                        if old == stored {
                            hit = true;
                        }
                    } else {
                        let old = col.read(pkt.epoch, row)?;
                        if old == stored {
                            hit = true;
                        }
                    }
                }
                if hit {
                    Ok(Verdict::Prune)
                } else {
                    self.fifo_ptr[row] = (self.fifo_ptr[row] + 1) % self.cfg.cols as u32;
                    Ok(Verdict::Forward)
                }
            }
        }
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        if matches!(msg, ControlMsg::Clear) {
            for col in &mut self.cols {
                col.control_clear();
            }
            self.fifo_ptr.fill(0);
        }
        Ok(())
    }
}

/// The unbounded-memory reference: prunes every duplicate, forwards every
/// first occurrence. This is `OPT` in Figures 10a and 11a.
#[derive(Debug, Default)]
pub struct DistinctOpt {
    seen: HashSet<u64>,
}

impl OptPruner for DistinctOpt {
    fn offer_opt(&mut self, values: &[u64]) -> Verdict {
        if self.seen.insert(values[0]) {
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
    use cheetah_switch::SwitchProfile;

    fn build(cfg: DistinctConfig) -> StandalonePruner<DistinctPruner> {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        StandalonePruner::new(DistinctPruner::build(cfg, &mut ledger).unwrap())
    }

    fn small_cfg(policy: EvictionPolicy) -> DistinctConfig {
        DistinctConfig { rows: 8, cols: 2, policy, fingerprint: None, seed: 1 }
    }

    #[test]
    fn duplicates_in_cache_are_pruned() {
        let mut p = build(small_cfg(EvictionPolicy::Lru));
        assert_eq!(p.offer(&[42]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[42]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[42]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn never_prunes_first_occurrence_exhaustive() {
        // The deterministic guarantee: over any stream, an entry value is
        // forwarded at least once before any prune of that value.
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
            let mut p = build(small_cfg(policy));
            let mut forwarded = HashSet::new();
            // A stressy little stream with heavy reuse across rows.
            let stream: Vec<u64> = (0..2000u64).map(|i| (i * 7919) % 37).chain(0..37).collect();
            for v in stream {
                match p.offer(&[v]).unwrap() {
                    Verdict::Forward => {
                        forwarded.insert(v);
                    }
                    Verdict::Prune => {
                        assert!(forwarded.contains(&v), "pruned unseen value {v} ({policy:?})");
                    }
                }
            }
        }
    }

    #[test]
    fn lru_refreshes_on_hit_fifo_does_not() {
        // One row (rows=1) of width 2. Access pattern A B A C A:
        //  LRU : A,B cached; A hits (refresh → [A,B]); C evicts B → [C,A];
        //        A hits. Total prunes for A: 2.
        //  FIFO: A,B cached (ptr→0); A hits (no refresh); C evicts A
        //        (victim col 0) → [C,B]; A misses. Total prunes for A: 1.
        let mk =
            |policy| build(DistinctConfig { rows: 1, cols: 2, policy, fingerprint: None, seed: 1 });
        let run = |p: &mut StandalonePruner<DistinctPruner>| {
            [10u64, 20, 10, 30, 10]
                .iter()
                .map(|v| p.offer(&[*v]).unwrap().is_prune())
                .collect::<Vec<_>>()
        };
        let mut lru = mk(EvictionPolicy::Lru);
        assert_eq!(run(&mut lru), vec![false, false, true, false, true]);
        let mut fifo = mk(EvictionPolicy::Fifo);
        assert_eq!(run(&mut fifo), vec![false, false, true, false, false]);
    }

    #[test]
    fn row_never_holds_duplicates_under_lru() {
        let mut p = build(DistinctConfig {
            rows: 1,
            cols: 4,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 1,
        });
        for v in [1u64, 2, 3, 2, 1, 3, 2, 2, 1] {
            p.offer(&[v]).unwrap();
            let mut occupied: Vec<u64> = p
                .program()
                .cols
                .iter()
                .map(|c| c.control_read(0).unwrap())
                .filter(|&x| x != 0)
                .collect();
            occupied.sort_unstable();
            let len = occupied.len();
            occupied.dedup();
            assert_eq!(occupied.len(), len, "duplicate value cached in one row");
        }
    }

    #[test]
    fn u64_max_is_forwarded_not_cached() {
        let mut p = build(small_cfg(EvictionPolicy::Lru));
        assert_eq!(p.offer(&[u64::MAX]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[u64::MAX]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn fingerprint_mode_uses_narrow_registers() {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        let cfg = DistinctConfig {
            rows: 128,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: Some(FingerprintSpec::new(31, 5)),
            seed: 1,
        };
        let _p = DistinctPruner::build(cfg, &mut ledger).unwrap();
        // 2 columns × 128 rows × 32 bits.
        assert_eq!(ledger.usage().sram_bits, 2 * 128 * 32);
    }

    #[test]
    fn fingerprint_mode_prunes_duplicates() {
        let cfg = DistinctConfig {
            rows: 64,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: Some(FingerprintSpec::new(40, 5)),
            seed: 1,
        };
        let mut p = build(cfg);
        assert_eq!(p.offer(&[7]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[7]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn table2_row_matches_paper_defaults() {
        // Table 2 DISTINCT LRU: w stages, w ALUs, (d·w)×64b SRAM.
        let cfg = DistinctConfig::paper_default();
        let row = DistinctPruner::table2_row(cfg, SwitchProfile::tofino1()).unwrap();
        assert_eq!(row.stages_used, 2);
        assert_eq!(row.alus, 2);
        assert_eq!(row.sram_bits, 4096 * 2 * 64);
    }

    #[test]
    fn fifo_packs_columns_per_stage() {
        // Tofino1 has 4 ALUs/stage: w = 8 FIFO columns → ⌈8/4⌉ = 2 stages.
        let cfg = DistinctConfig {
            rows: 64,
            cols: 8,
            policy: EvictionPolicy::Fifo,
            fingerprint: None,
            seed: 1,
        };
        let row = DistinctPruner::table2_row(cfg, SwitchProfile::tofino1()).unwrap();
        assert_eq!(row.stages_used, 2);
        assert_eq!(row.alus, 8);
    }

    #[test]
    fn build_fails_when_matrix_exceeds_stage_sram() {
        let mut ledger = ResourceLedger::new(SwitchProfile::tiny());
        let cfg = DistinctConfig {
            rows: 1 << 20,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 1,
        };
        assert!(DistinctPruner::build(cfg, &mut ledger).is_err());
    }

    #[test]
    fn clear_control_resets_cache() {
        let mut p = build(small_cfg(EvictionPolicy::Lru));
        p.offer(&[5]).unwrap();
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Prune);
        p.program_mut().control(&ControlMsg::Clear).unwrap();
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn opt_prunes_all_duplicates() {
        let mut opt = DistinctOpt::default();
        let mut stats = cheetah_switch::ProgramStats::default();
        for i in 0..100u64 {
            stats.record(opt.offer_opt(&[i % 10]));
        }
        assert_eq!(stats.forwarded, 10);
        assert_eq!(stats.pruned, 90);
    }

    #[test]
    fn pruning_rate_improves_with_more_rows() {
        // Sanity for Figure 10a's shape: larger d prunes more of a
        // duplicate-heavy random stream.
        let mut rates = Vec::new();
        for rows in [16usize, 256, 4096] {
            let mut p = build(DistinctConfig {
                rows,
                cols: 2,
                policy: EvictionPolicy::Lru,
                fingerprint: None,
                seed: 2,
            });
            let mut x = 12345u64;
            for _ in 0..30_000 {
                x = cheetah_switch::hash::mix64(x);
                p.offer(&[x % 500]).unwrap();
            }
            rates.push(p.stats().unpruned_fraction());
        }
        assert!(rates[0] > rates[1] && rates[1] > rates[2], "rates: {rates:?}");
    }
}
