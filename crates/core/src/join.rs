//! JOIN pruning with Bloom filters (§4.3 Example #4).
//!
//! Joining tables `A` and `B` on key column `C` takes two passes through
//! the switch:
//!
//! 1. **Build**: the key column of each table is streamed once; the switch
//!    inserts `A`'s keys into Bloom filter `F_A` and `B`'s into `F_B`, and
//!    consumes (prunes) the build stream — it never reaches the master.
//! 2. **Prune**: the tables are streamed again; an entry of `A` is pruned
//!    when `F_B` reports no match (and symmetrically for `B`). Bloom
//!    filters have no false negatives, so no matching entry is ever pruned;
//!    false positives only lower the pruning rate, never correctness.
//!
//! When one table is much smaller, the *small-table optimization* streams
//! the small table exactly once — unpruned, while building its filter — and
//! then prunes only the large table (one fewer pass, and the filter's false
//! positive rate is far lower because it holds fewer keys).
//!
//! Two filter implementations are modelled, matching Table 2:
//!
//! * [`BloomKind::Classic`] — `M` bits, `H` independent hashes. The `H`
//!   probes hit one shared bit array, which relies on Table 2's `*`
//!   assumption that same-stage ALUs can access the same memory.
//! * [`BloomKind::Register`] — a *blocked* (register) Bloom filter: one
//!   hash picks a 64-bit register word, `H` sub-hashes pick bits inside
//!   that word. One register access per packet — no shared-memory
//!   assumption — at a small false-positive cost (Figure 10e shows the two
//!   are close).

use crate::pruner::OptPruner;
use cheetah_switch::error::SwitchError;
use cheetah_switch::{
    ControlMsg, HashFamily, HashFn, PacketRef, RegisterArray, ResourceLedger, SwitchProgram,
    UsageSummary, Verdict,
};
use std::collections::HashSet;

/// Which side of the join a flow carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// The left (or small) table.
    A,
    /// The right (or large) table.
    B,
}

/// Bloom filter implementation choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BloomKind {
    /// Classic `M`-bit filter with `H` independent hash probes.
    Classic {
        /// Number of hash functions.
        h: u32,
    },
    /// Blocked/register filter: one word probe, `H` bits within the word.
    Register {
        /// Number of bits set within the chosen word.
        h: u32,
    },
}

/// Pass structure of the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMode {
    /// Both tables build in pass 1, both are pruned in pass 2.
    TwoPass,
    /// Side `A` (small) streams once, unpruned, building `F_A`; side `B`
    /// is then pruned against `F_A`.
    SmallTableFirst,
}

/// JOIN pruning configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinConfig {
    /// Filter size in bits (per side).
    pub m_bits: u64,
    /// Filter implementation.
    pub kind: BloomKind,
    /// Pass structure.
    pub mode: JoinMode,
    /// Flow id carrying table `A`.
    pub fid_a: u32,
    /// Flow id carrying table `B`.
    pub fid_b: u32,
    /// Hash seed.
    pub seed: u64,
}

impl JoinConfig {
    /// Table 2 defaults: `M = 4 MB`, `H = 3`, classic filter, two passes.
    pub fn paper_default() -> Self {
        Self {
            m_bits: 4 * 1024 * 1024 * 8,
            kind: BloomKind::Classic { h: 3 },
            mode: JoinMode::TwoPass,
            fid_a: 0,
            fid_b: 1,
            seed: 0x101,
        }
    }
}

/// One Bloom filter in the dataplane.
#[derive(Debug)]
enum Filter {
    Classic {
        /// Shared bit array (`*` assumption: H same-stage probes).
        words: Vec<u64>,
        m_bits: u64,
        hashes: Vec<HashFn>,
    },
    Register {
        array: RegisterArray,
        word_hash: HashFn,
        bit_hash: HashFn,
        h: u32,
    },
}

impl Filter {
    fn build(
        kind: BloomKind,
        m_bits: u64,
        seed: u64,
        ledger: &mut ResourceLedger,
        stage: usize,
    ) -> crate::Result<Self> {
        let words = m_bits.div_ceil(64) as usize;
        match kind {
            BloomKind::Classic { h } => {
                ledger.alloc_sram_bits(stage, m_bits)?;
                ledger.alloc_alus(stage, h as usize)?;
                let fam = HashFamily::new(seed);
                Ok(Filter::Classic {
                    words: vec![0; words],
                    m_bits,
                    hashes: (0..h as usize).map(|i| fam.function(i)).collect(),
                })
            }
            BloomKind::Register { h } => {
                let array = ledger.register_array(stage, words, 64)?;
                let fam = HashFamily::new(seed);
                Ok(Filter::Register {
                    array,
                    word_hash: fam.function(0),
                    bit_hash: fam.function(1),
                    h,
                })
            }
        }
    }

    /// The word-internal bit mask for a key (register variant).
    fn word_mask(bit_hash: &HashFn, h: u32, key: u64) -> u64 {
        let digest = bit_hash.hash64(key);
        let mut mask = 0u64;
        for i in 0..h {
            let bit = (digest >> (i * 6)) & 63;
            mask |= 1 << bit;
        }
        mask
    }

    fn insert(&mut self, epoch: u64, key: u64) -> cheetah_switch::Result<()> {
        match self {
            Filter::Classic { words, m_bits, hashes } => {
                for h in hashes.iter() {
                    let bit = h.index(key, *m_bits as usize) as u64;
                    words[(bit / 64) as usize] |= 1 << (bit % 64);
                }
                Ok(())
            }
            Filter::Register { array, word_hash, bit_hash, h } => {
                let word = word_hash.index(key, array.depth());
                let mask = Self::word_mask(bit_hash, *h, key);
                array.rmw(epoch, word, |w| w | mask)?;
                Ok(())
            }
        }
    }

    fn query(&mut self, epoch: u64, key: u64) -> cheetah_switch::Result<bool> {
        match self {
            Filter::Classic { words, m_bits, hashes } => Ok(hashes.iter().all(|h| {
                let bit = h.index(key, *m_bits as usize) as u64;
                words[(bit / 64) as usize] >> (bit % 64) & 1 == 1
            })),
            Filter::Register { array, word_hash, bit_hash, h } => {
                let word = word_hash.index(key, array.depth());
                let mask = Self::word_mask(bit_hash, *h, key);
                let w = array.read(epoch, word)?;
                Ok(w & mask == mask)
            }
        }
    }

    fn clear(&mut self) {
        match self {
            Filter::Classic { words, .. } => words.fill(0),
            Filter::Register { array, .. } => array.control_clear(),
        }
    }
}

/// The JOIN pruning program.
#[derive(Debug)]
pub struct JoinPruner {
    cfg: JoinConfig,
    /// Current pass: 1 = build, 2 = prune. Advanced by
    /// `ControlMsg::SetPhase`.
    phase: u8,
    filter_a: Filter,
    filter_b: Filter,
}

impl JoinPruner {
    /// Build the program against `ledger`. `F_A` and `F_B` occupy
    /// consecutive stages (Table 2: 2 stages for the classic filter).
    pub fn build(cfg: JoinConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        assert!(cfg.m_bits >= 64, "filter must hold at least one word");
        assert!(cfg.fid_a != cfg.fid_b, "join sides need distinct flow ids");
        let h = match cfg.kind {
            BloomKind::Classic { h } | BloomKind::Register { h } => h,
        };
        assert!((1..=10).contains(&h), "1..=10 hash functions supported");
        let per_stage_bits = cfg.m_bits;
        let start = ledger.find_contiguous(0, 2, 1, per_stage_bits)?;
        let filter_a = Filter::build(cfg.kind, cfg.m_bits, cfg.seed, ledger, start)?;
        let filter_b = Filter::build(cfg.kind, cfg.m_bits, cfg.seed ^ 0xB0B, ledger, start + 1)?;
        ledger.alloc_phv_bits(64)?;
        ledger.note_rules(4); // side select ×2, phase select ×2
        Ok(Self { cfg, phase: 1, filter_a, filter_b })
    }

    /// One row of Table 2 for this configuration.
    pub fn table2_row(
        cfg: JoinConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &JoinConfig {
        &self.cfg
    }

    /// Current pass.
    pub fn phase(&self) -> u8 {
        self.phase
    }

    fn side_of(&self, fid: u32) -> cheetah_switch::Result<JoinSide> {
        if fid == self.cfg.fid_a {
            Ok(JoinSide::A)
        } else if fid == self.cfg.fid_b {
            Ok(JoinSide::B)
        } else {
            Err(SwitchError::NoProgramForFlow { fid })
        }
    }
}

impl SwitchProgram for JoinPruner {
    fn name(&self) -> &'static str {
        "join"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let key = pkt.value(0)?;
        let side = self.side_of(pkt.fid)?;
        match (self.cfg.mode, self.phase, side) {
            // Two-pass build: insert and consume.
            (JoinMode::TwoPass, 1, JoinSide::A) => {
                self.filter_a.insert(pkt.epoch, key)?;
                Ok(Verdict::Prune)
            }
            (JoinMode::TwoPass, 1, JoinSide::B) => {
                self.filter_b.insert(pkt.epoch, key)?;
                Ok(Verdict::Prune)
            }
            // Two-pass prune: forward on (possible) match.
            (JoinMode::TwoPass, 2, JoinSide::A) => Ok(if self.filter_b.query(pkt.epoch, key)? {
                Verdict::Forward
            } else {
                Verdict::Prune
            }),
            (JoinMode::TwoPass, 2, JoinSide::B) => Ok(if self.filter_a.query(pkt.epoch, key)? {
                Verdict::Forward
            } else {
                Verdict::Prune
            }),
            // Small-table mode: A streams once, building while forwarding.
            (JoinMode::SmallTableFirst, 1, JoinSide::A) => {
                self.filter_a.insert(pkt.epoch, key)?;
                Ok(Verdict::Forward)
            }
            (JoinMode::SmallTableFirst, 1, JoinSide::B) => {
                // Large table must wait for phase 2; treat early packets
                // conservatively (forward — never lose data).
                Ok(Verdict::Forward)
            }
            (JoinMode::SmallTableFirst, 2, JoinSide::A) => Ok(Verdict::Forward),
            (JoinMode::SmallTableFirst, 2, JoinSide::B) => {
                Ok(if self.filter_a.query(pkt.epoch, key)? {
                    Verdict::Forward
                } else {
                    Verdict::Prune
                })
            }
            _ => Ok(Verdict::Forward),
        }
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        match msg {
            ControlMsg::SetPhase(p) => self.phase = *p,
            ControlMsg::Clear => {
                self.filter_a.clear();
                self.filter_b.clear();
                self.phase = 1;
            }
            _ => {}
        }
        Ok(())
    }
}

/// Unbounded reference (OPT in Figures 10e/11e): exact key sets, so pass 2
/// forwards exactly the truly matching entries.
#[derive(Debug, Default)]
pub struct JoinOpt {
    keys_a: HashSet<u64>,
    keys_b: HashSet<u64>,
    phase: u8,
}

impl JoinOpt {
    /// New OPT join in build phase.
    pub fn new() -> Self {
        Self { keys_a: HashSet::new(), keys_b: HashSet::new(), phase: 1 }
    }

    /// Advance to the prune pass.
    pub fn set_phase(&mut self, p: u8) {
        self.phase = p;
    }

    /// Offer one `(side, key)` observation.
    pub fn offer_side(&mut self, side: JoinSide, key: u64) -> Verdict {
        match (self.phase, side) {
            (1, JoinSide::A) => {
                self.keys_a.insert(key);
                Verdict::Prune
            }
            (1, JoinSide::B) => {
                self.keys_b.insert(key);
                Verdict::Prune
            }
            (_, JoinSide::A) => {
                if self.keys_b.contains(&key) {
                    Verdict::Forward
                } else {
                    Verdict::Prune
                }
            }
            (_, JoinSide::B) => {
                if self.keys_a.contains(&key) {
                    Verdict::Forward
                } else {
                    Verdict::Prune
                }
            }
        }
    }
}

impl OptPruner for JoinOpt {
    /// Values: `[key, side]` with side 0 = A, 1 = B.
    fn offer_opt(&mut self, values: &[u64]) -> Verdict {
        let side = if values[1] == 0 { JoinSide::A } else { JoinSide::B };
        self.offer_side(side, values[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruner::StandalonePruner;
    use cheetah_switch::hash::mix64;
    use cheetah_switch::SwitchProfile;

    fn build(kind: BloomKind, m_bits: u64, mode: JoinMode) -> StandalonePruner<JoinPruner> {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        let cfg = JoinConfig { m_bits, kind, mode, fid_a: 0, fid_b: 1, seed: 5 };
        StandalonePruner::new(JoinPruner::build(cfg, &mut ledger).unwrap())
    }

    fn two_pass_join(
        kind: BloomKind,
        m_bits: u64,
        keys_a: &[u64],
        keys_b: &[u64],
    ) -> (Vec<u64>, Vec<u64>) {
        let mut p = build(kind, m_bits, JoinMode::TwoPass);
        for &k in keys_a {
            p.offer_for_fid(0, &[k]).unwrap();
        }
        for &k in keys_b {
            p.offer_for_fid(1, &[k]).unwrap();
        }
        p.program_mut().control(&ControlMsg::SetPhase(2)).unwrap();
        p.reset_stats();
        let mut fwd_a = Vec::new();
        let mut fwd_b = Vec::new();
        for &k in keys_a {
            if p.offer_for_fid(0, &[k]).unwrap() == Verdict::Forward {
                fwd_a.push(k);
            }
        }
        for &k in keys_b {
            if p.offer_for_fid(1, &[k]).unwrap() == Verdict::Forward {
                fwd_b.push(k);
            }
        }
        (fwd_a, fwd_b)
    }

    #[test]
    fn no_false_negatives_classic() {
        // Every truly matching key must survive pass 2 — the deterministic
        // guarantee of the join pruner.
        let a: Vec<u64> = (0..500).collect();
        let b: Vec<u64> = (250..750).collect();
        let (fa, fb) = two_pass_join(BloomKind::Classic { h: 3 }, 1 << 16, &a, &b);
        for k in 250..500u64 {
            assert!(fa.contains(&k), "matching A key {k} pruned");
            assert!(fb.contains(&k), "matching B key {k} pruned");
        }
    }

    #[test]
    fn no_false_negatives_register() {
        let a: Vec<u64> = (0..500).collect();
        let b: Vec<u64> = (250..750).collect();
        let (fa, fb) = two_pass_join(BloomKind::Register { h: 3 }, 1 << 16, &a, &b);
        for k in 250..500u64 {
            assert!(fa.contains(&k), "matching A key {k} pruned");
            assert!(fb.contains(&k), "matching B key {k} pruned");
        }
    }

    #[test]
    fn disjoint_tables_prune_nearly_everything() {
        let a: Vec<u64> = (0..2_000).collect();
        let b: Vec<u64> = (1_000_000..1_002_000).collect();
        let (fa, fb) = two_pass_join(BloomKind::Classic { h: 3 }, 1 << 18, &a, &b);
        // Only Bloom false positives survive; with 256Kbit / 2K keys the FP
        // rate is tiny.
        assert!(fa.len() + fb.len() < 40, "too many FPs: {} + {}", fa.len(), fb.len());
    }

    #[test]
    fn build_pass_consumes_stream() {
        let mut p = build(BloomKind::Classic { h: 3 }, 1 << 12, JoinMode::TwoPass);
        assert_eq!(p.offer_for_fid(0, &[7]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer_for_fid(1, &[7]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn small_table_mode_never_prunes_small_side() {
        let mut p = build(BloomKind::Classic { h: 3 }, 1 << 14, JoinMode::SmallTableFirst);
        for k in 0..100u64 {
            assert_eq!(p.offer_for_fid(0, &[k]).unwrap(), Verdict::Forward);
        }
        p.program_mut().control(&ControlMsg::SetPhase(2)).unwrap();
        // Large side pruned against the small filter.
        assert_eq!(p.offer_for_fid(1, &[50]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer_for_fid(1, &[1_000_000]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn smaller_filter_more_false_positives() {
        // Figure 10e shape: FP survivors shrink as filter grows.
        let a: Vec<u64> = (0..4_000).collect();
        let b: Vec<u64> = (100_000..104_000).collect();
        let mut survivors = Vec::new();
        for m_bits in [1u64 << 12, 1 << 15, 1 << 20] {
            let (fa, fb) = two_pass_join(BloomKind::Classic { h: 3 }, m_bits, &a, &b);
            survivors.push(fa.len() + fb.len());
        }
        assert!(survivors[0] > survivors[2], "survivors: {survivors:?}");
    }

    #[test]
    fn register_filter_close_to_classic() {
        // Figure 10e: "quite close performance wise". Same sizes, same keys;
        // FP counts within an order of magnitude.
        let a: Vec<u64> = (0..3_000).map(|i| i * 17).collect();
        let b: Vec<u64> = (0..3_000).map(|i| 1_000_003 + i * 13).collect();
        let m = 1 << 16;
        let (ca, cb) = two_pass_join(BloomKind::Classic { h: 3 }, m, &a, &b);
        let (ra, rb) = two_pass_join(BloomKind::Register { h: 3 }, m, &a, &b);
        let classic = ca.len() + cb.len();
        let register = ra.len() + rb.len();
        assert!(register <= classic * 10 + 40, "classic {classic}, register {register}");
    }

    #[test]
    fn table2_row_classic() {
        // Table 2 JOIN BF: 2 stages, SRAM 2·M (one filter per side).
        let cfg = JoinConfig { m_bits: 1 << 20, ..JoinConfig::paper_default() };
        let row = JoinPruner::table2_row(cfg, SwitchProfile::tofino1()).unwrap();
        assert_eq!(row.stages_used, 2);
        assert_eq!(row.sram_bits, 2 << 20);
        assert_eq!(row.alus, 6, "H = 3 probes per filter");
    }

    #[test]
    fn table2_row_register_uses_one_alu_per_filter() {
        let cfg = JoinConfig {
            m_bits: 1 << 20,
            kind: BloomKind::Register { h: 3 },
            ..JoinConfig::paper_default()
        };
        let row = JoinPruner::table2_row(cfg, SwitchProfile::tofino1()).unwrap();
        assert_eq!(row.alus, 2, "one register access per filter");
    }

    #[test]
    fn unknown_fid_is_an_error() {
        let mut p = build(BloomKind::Classic { h: 3 }, 1 << 12, JoinMode::TwoPass);
        assert!(p.offer_for_fid(9, &[1]).is_err());
    }

    #[test]
    fn opt_join_is_exact() {
        let mut opt = JoinOpt::new();
        for k in 0..100u64 {
            opt.offer_side(JoinSide::A, k);
        }
        for k in 50..150u64 {
            opt.offer_side(JoinSide::B, k);
        }
        opt.set_phase(2);
        let fwd_a =
            (0..100u64).filter(|&k| opt.offer_side(JoinSide::A, k) == Verdict::Forward).count();
        assert_eq!(fwd_a, 50);
    }

    #[test]
    fn clear_resets_filters_and_phase() {
        let mut p = build(BloomKind::Classic { h: 3 }, 1 << 12, JoinMode::TwoPass);
        p.offer_for_fid(0, &[1]).unwrap();
        p.program_mut().control(&ControlMsg::SetPhase(2)).unwrap();
        p.program_mut().control(&ControlMsg::Clear).unwrap();
        assert_eq!(p.program().phase(), 1);
        p.program_mut().control(&ControlMsg::SetPhase(2)).unwrap();
        // Filter was cleared: key 1 no longer matches from B's perspective.
        assert_eq!(p.offer_for_fid(1, &[1]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn random_workload_false_positive_rate_tracks_analysis() {
        let m_bits = 1u64 << 16;
        let n = 2_000u64;
        let mut p = build(BloomKind::Classic { h: 3 }, m_bits, JoinMode::TwoPass);
        let mut x = 1u64;
        let keys_a: Vec<u64> = (0..n)
            .map(|_| {
                x = mix64(x);
                x
            })
            .collect();
        for &k in &keys_a {
            p.offer_for_fid(0, &[k]).unwrap();
        }
        p.program_mut().control(&ControlMsg::SetPhase(2)).unwrap();
        // Disjoint probe keys from B measure FA's FP rate.
        let mut fp = 0u64;
        let probes = 20_000u64;
        for _ in 0..probes {
            x = mix64(x);
            if p.offer_for_fid(1, &[x]).unwrap() == Verdict::Forward {
                fp += 1;
            }
        }
        let measured = fp as f64 / probes as f64;
        let predicted = crate::analysis::bloom_fp_rate(m_bits, n, 3);
        assert!(
            (measured - predicted).abs() < predicted * 0.5 + 0.002,
            "measured {measured}, predicted {predicted}"
        );
    }
}
