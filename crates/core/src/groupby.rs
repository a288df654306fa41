//! GROUP BY pruning for MAX / MIN aggregates (evaluated in §8, Figures 5,
//! 10d and 11d; query 5 of the benchmark:
//! `SELECT userAgent, MAX(adRevenue) FROM UserVisits GROUP BY userAgent`).
//!
//! The switch keeps a `d × w` matrix of `(key, best-value)` cells, one
//! column per stage, packed into 64-bit registers as
//! `[key-fingerprint+1 : 32 | value : 32]`. Columns are probed **d-left
//! style** — each column has its own hash of the key (Table 4's "one hash
//! per row") — and each stage's stateful ALU performs a single-comparison
//! conditional write: merge on key match, install on empty, pass
//! otherwise. For MAX, an entry `(k, v)` is pruned exactly when a cell for
//! `k` is found whose stored value is at least `v` — the stored value
//! always corresponds to a previously *forwarded* entry of the same key,
//! so the master already holds a witness at least as large and pruning is
//! safe. Values are 32 bits wide; a tie at a clamped edge (`0` or
//! `u32::MAX`) is no witness and forwards. Keys that find every probe occupied stay uncached and are always
//! forwarded (under-pruning, never incorrectness).
//!
//! Keys are 31-bit fingerprints (the benchmark groups by strings like
//! `userAgent`, which the CWorker fingerprints anyway). A fingerprint
//! collision can wrongly prune — the probabilistic regime of §5; use the
//! exact-key width of your data or Theorem 4 to size fingerprints when the
//! deterministic guarantee is required.

use crate::pruner::{covered, OptPruner};
use cheetah_switch::{
    ControlMsg, HashFn, PacketRef, RegisterArray, ResourceLedger, SwitchProgram, UsageSummary,
    Verdict,
};
use std::collections::HashMap;

/// Which aggregate the GROUP BY maintains per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Keep the per-key maximum; prune entries ≤ the stored max.
    Max,
    /// Keep the per-key minimum; prune entries ≥ the stored min.
    Min,
}

/// Configuration of the GROUP BY matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupByConfig {
    /// Number of rows `d`.
    pub rows: usize,
    /// Number of columns `w` (one stage each).
    pub cols: usize,
    /// MAX or MIN.
    pub agg: AggKind,
    /// Fingerprint width for keys (1..=31 to leave room for the +1 bias in
    /// the 32-bit key half of the cell).
    pub key_bits: u32,
    /// Seed for the row hash and key fingerprint.
    pub seed: u64,
}

impl GroupByConfig {
    /// Table 2 defaults: `w = 8` (with `d` implied by stage SRAM; we use
    /// the DISTINCT default of 4096 rows).
    pub fn paper_default() -> Self {
        Self { rows: 4096, cols: 8, agg: AggKind::Max, key_bits: 31, seed: 0x6B }
    }
}

/// Cell codec: `[key+1 : 32 | value : 32]`.
fn pack(key_biased: u64, value: u64) -> u64 {
    (key_biased << 32) | (value & 0xFFFF_FFFF)
}

fn cell_key(cell: u64) -> u64 {
    cell >> 32
}

fn cell_value(cell: u64) -> u64 {
    cell & 0xFFFF_FFFF
}

/// The GROUP BY pruning program.
///
/// Structure: `w` register arrays ("columns"), each indexed by its **own
/// hash** of the key (d-left hashing — Table 4's "matrix with one hash per
/// row"). A packet visits every array once; the array holding the key
/// merges the aggregate, an empty slot installs the key, and other arrays
/// pass through. Keys that find neither a match nor an empty slot stay
/// uncached and are simply forwarded (under-pruning, never incorrect).
#[derive(Debug)]
pub struct GroupByPruner {
    cfg: GroupByConfig,
    /// One row hash per column (the "one hash per row" of Table 4).
    row_hashes: Vec<HashFn>,
    key_fp: HashFn,
    cols: Vec<RegisterArray>,
}

impl GroupByPruner {
    /// Build the program against `ledger`.
    pub fn build(cfg: GroupByConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        assert!(cfg.rows > 0 && cfg.cols > 0, "matrix must be non-empty");
        assert!((1..=31).contains(&cfg.key_bits), "key fingerprint must be 1..=31 bits");
        let sram_per_col = cfg.rows as u64 * 64;
        let start = ledger.find_contiguous(0, cfg.cols, 1, sram_per_col)?;
        let mut cols = Vec::with_capacity(cfg.cols);
        for i in 0..cfg.cols {
            cols.push(ledger.register_array(start + i, cfg.rows, 64)?);
        }
        // Key + value parsed from the packet.
        ledger.alloc_phv_bits(64 + 32)?;
        ledger.note_rules(2 + cfg.cols);
        let fam = cheetah_switch::HashFamily::new(cfg.seed);
        Ok(Self {
            row_hashes: (0..cfg.cols).map(|i| fam.function(i)).collect(),
            cfg,
            key_fp: HashFn::from_seed(cfg.seed ^ 0x9E37_79B9),
            cols,
        })
    }

    /// One row of Table 2 for this configuration.
    pub fn table2_row(
        cfg: GroupByConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &GroupByConfig {
        &self.cfg
    }
}

impl SwitchProgram for GroupByPruner {
    fn name(&self) -> &'static str {
        "groupby"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let raw_key = pkt.value(0)?;
        let v = pkt.value(1)?.min(u64::from(u32::MAX)); // 32-bit aggregate value
        let key = self.key_fp.fingerprint(raw_key, self.cfg.key_bits) + 1; // nonzero

        // d-left pass: each column is probed at its own hash position. The
        // stateful ALU merges on a key match, installs on an empty cell,
        // and leaves other keys untouched — all single-comparison
        // conditional writes. Installing stops at the first empty column
        // (the closure of later columns sees `installed`), so a key lives
        // in at most one cell per column chain.
        let mut matched: Option<u64> = None;
        let mut installed = false;
        for (hash, col) in self.row_hashes.iter().zip(self.cols.iter_mut()) {
            let row = hash.index(key, self.cfg.rows);
            let k = key;
            let agg = self.cfg.agg;
            let may_install = !installed && matched.is_none();
            let old = col.rmw(pkt.epoch, row, move |cur| {
                if cell_key(cur) == k {
                    let merged = match agg {
                        AggKind::Max => cell_value(cur).max(v),
                        AggKind::Min => cell_value(cur).min(v),
                    };
                    pack(k, merged)
                } else if cur == 0 && may_install {
                    pack(k, v)
                } else {
                    cur
                }
            })?;
            if cell_key(old) == key {
                matched = Some(cell_value(old));
                break; // resolved; later stages pass through
            }
            if old == 0 && may_install {
                installed = true;
            }
        }
        match matched {
            Some(best) => {
                // The stored aggregate witnesses a previously forwarded
                // entry of this key: prune anything it provably dominates.
                let prunable = match self.cfg.agg {
                    AggKind::Max => covered(v, best),
                    AggKind::Min => covered(best, v),
                };
                Ok(if prunable { Verdict::Prune } else { Verdict::Forward })
            }
            // New key (installed) or uncacheable (all probes occupied by
            // other keys): either way the master must see it.
            None => Ok(Verdict::Forward),
        }
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        if matches!(msg, ControlMsg::Clear) {
            for c in &mut self.cols {
                c.control_clear();
            }
        }
        Ok(())
    }
}

/// Unbounded reference (OPT in Figures 10d/11d): forwards an entry iff it
/// improves (or first defines) its key's aggregate.
#[derive(Debug)]
pub struct GroupByOpt {
    agg: AggKind,
    best: HashMap<u64, u64>,
}

impl GroupByOpt {
    /// OPT for the given aggregate.
    pub fn new(agg: AggKind) -> Self {
        Self { agg, best: HashMap::new() }
    }
}

impl OptPruner for GroupByOpt {
    fn offer_opt(&mut self, values: &[u64]) -> Verdict {
        let (k, v) = (values[0], values[1]);
        match self.best.entry(k) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(v);
                Verdict::Forward
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let improves = match self.agg {
                    AggKind::Max => v > *e.get(),
                    AggKind::Min => v < *e.get(),
                };
                if improves {
                    e.insert(v);
                    Verdict::Forward
                } else {
                    Verdict::Prune
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruner::StandalonePruner;
    use cheetah_switch::hash::mix64;
    use cheetah_switch::SwitchProfile;

    fn build(rows: usize, cols: usize, agg: AggKind) -> StandalonePruner<GroupByPruner> {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino2());
        StandalonePruner::new(
            GroupByPruner::build(
                GroupByConfig { rows, cols, agg, key_bits: 31, seed: 3 },
                &mut ledger,
            )
            .unwrap(),
        )
    }

    #[test]
    fn max_prunes_non_improving_values() {
        let mut p = build(8, 2, AggKind::Max);
        assert_eq!(p.offer(&[1, 10]).unwrap(), Verdict::Forward, "first sighting");
        assert_eq!(p.offer(&[1, 5]).unwrap(), Verdict::Prune, "below stored max");
        assert_eq!(p.offer(&[1, 10]).unwrap(), Verdict::Prune, "ties carry no info");
        assert_eq!(p.offer(&[1, 11]).unwrap(), Verdict::Forward, "new max");
        assert_eq!(p.offer(&[1, 10]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn min_is_symmetric() {
        let mut p = build(8, 2, AggKind::Min);
        assert_eq!(p.offer(&[1, 10]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[1, 15]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[1, 3]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[1, 3]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn distinct_keys_do_not_interfere() {
        let mut p = build(64, 4, AggKind::Max);
        for k in 0..20u64 {
            assert_eq!(p.offer(&[k, 100]).unwrap(), Verdict::Forward);
        }
        for k in 0..20u64 {
            // Small rows: some keys may have been evicted (forward), but a
            // key that is still cached must prune 99 < 100.
            let verdict = p.offer(&[k, 99]).unwrap();
            if verdict == Verdict::Prune {
                // fine — witness exists
            }
        }
    }

    /// The master-side invariant: for every pruned (k, v), some earlier
    /// *forwarded* (k, v') dominated it.
    #[test]
    fn pruned_entries_always_have_forwarded_witness() {
        let mut p = build(16, 2, AggKind::Max);
        let mut best_forwarded: HashMap<u64, u64> = HashMap::new();
        let mut x = 1u64;
        for _ in 0..50_000 {
            x = mix64(x);
            let k = x % 100;
            x = mix64(x);
            let v = x % 1000;
            match p.offer(&[k, v]).unwrap() {
                Verdict::Forward => {
                    let e = best_forwarded.entry(k).or_insert(0);
                    *e = (*e).max(v);
                }
                Verdict::Prune => {
                    let witness = best_forwarded.get(&k).copied();
                    assert!(
                        witness.is_some_and(|w| w >= v),
                        "pruned ({k},{v}) with no dominating forwarded entry ({witness:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn more_columns_prune_more() {
        // Figure 10d shape: larger w → fewer evictions → better pruning.
        let mut rates = Vec::new();
        for cols in [1usize, 2, 6] {
            let mut p = build(8, cols, AggKind::Max);
            let mut x = 9u64;
            for _ in 0..20_000 {
                x = mix64(x);
                let k = x % 64;
                x = mix64(x);
                p.offer(&[k, x % 1000]).unwrap();
            }
            rates.push(p.stats().unpruned_fraction());
        }
        assert!(rates[0] > rates[2], "rates: {rates:?}");
    }

    #[test]
    fn table2_row_matches_paper() {
        // Table 2 GROUP BY w = 8: w stages, w ALUs, d·w×64b SRAM.
        let row =
            GroupByPruner::table2_row(GroupByConfig::paper_default(), SwitchProfile::tofino2())
                .unwrap();
        assert_eq!(row.stages_used, 8);
        assert_eq!(row.alus, 8);
        assert_eq!(row.sram_bits, 4096 * 8 * 64);
    }

    #[test]
    fn values_clamped_to_32_bits() {
        let mut p = build(8, 2, AggKind::Max);
        p.offer(&[1, u64::from(u32::MAX) + 5]).unwrap();
        // Clamped to u32::MAX, where one register value stands for every
        // wider one: a tie there is no witness, so it forwards.
        assert_eq!(p.offer(&[1, u64::from(u32::MAX)]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[1, 7]).unwrap(), Verdict::Prune, "below the edge is proof");
    }

    #[test]
    fn a_tie_prunes_inside_the_window_and_forwards_at_a_clamped_edge() {
        for agg in [AggKind::Max, AggKind::Min] {
            let mut p = build(8, 2, agg);
            for (k, v) in [(1, 0), (2, u64::from(u32::MAX)), (3, 40)] {
                assert_eq!(p.offer(&[k, v]).unwrap(), Verdict::Forward, "{agg:?} first");
            }
            assert_eq!(p.offer(&[1, 0]).unwrap(), Verdict::Forward, "{agg:?} tie at 0");
            assert_eq!(p.offer(&[2, u64::from(u32::MAX)]).unwrap(), Verdict::Forward, "{agg:?}");
            assert_eq!(p.offer(&[3, 40]).unwrap(), Verdict::Prune, "{agg:?} tie inside");
        }
    }

    #[test]
    fn opt_forwards_only_improvements() {
        let mut opt = GroupByOpt::new(AggKind::Max);
        let verdicts: Vec<bool> = [(1u64, 5u64), (1, 4), (1, 6), (2, 1), (2, 1)]
            .iter()
            .map(|&(k, v)| opt.offer_opt(&[k, v]).is_prune())
            .collect();
        assert_eq!(verdicts, vec![false, true, false, false, true]);
    }

    #[test]
    fn clear_resets_state() {
        let mut p = build(8, 2, AggKind::Max);
        p.offer(&[1, 10]).unwrap();
        assert_eq!(p.offer(&[1, 9]).unwrap(), Verdict::Prune);
        p.program_mut().control(&ControlMsg::Clear).unwrap();
        assert_eq!(p.offer(&[1, 9]).unwrap(), Verdict::Forward);
    }

    #[test]
    #[should_panic(expected = "key fingerprint")]
    fn rejects_oversized_key_bits() {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        let _ = GroupByPruner::build(
            GroupByConfig { rows: 8, cols: 2, agg: AggKind::Max, key_bits: 32, seed: 0 },
            &mut ledger,
        );
    }
}
