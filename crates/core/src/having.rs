//! HAVING pruning with Count-Min sketches (§4.3 Example #5).
//!
//! `SELECT key FROM t GROUP BY key HAVING SUM(val) > c` cannot be decided
//! from a single entry, so the switch keeps a **Count-Min sketch** of the
//! running per-key sums. Count-Min was chosen over Count sketch because it
//! is switch-implementable and has *one-sided* error: its estimate `g(k)`
//! always satisfies `g(k) ≥ f(k)`. Pruning only entries with `g(k) ≤ c`
//! therefore guarantees every qualifying key reaches the master; sketch
//! error only lowers the pruning rate.
//!
//! When a key's estimate first exceeds `c`, the key is announced to the
//! master (one entry is forwarded); a small DISTINCT matrix deduplicates
//! the announcements. The master then drives a **partial second pass**: it
//! requests the full entry set of the candidate keys (a superset of the
//! true output), computes exact aggregates, and discards false positives.
//! The [`SecondPassFilter`] program implements the key-set filter for that
//! pass.
//!
//! `HAVING SUM(x) < c` is future work in the paper and is rejected by the
//! planner here as well.
//!
//! MIN/MAX HAVING reduces to the GROUP BY pruner (§4.3: "we simply maintain
//! a counter with the current max and min value" + the DISTINCT solution);
//! the planner routes those queries to [`crate::groupby`].

use crate::distinct::{DistinctConfig, DistinctPruner, EvictionPolicy};
use crate::pruner::OptPruner;
use cheetah_switch::{
    ControlMsg, ExactTable, HashFamily, HashFn, PacketRef, RegisterArray, ResourceLedger,
    SwitchProgram, UsageSummary, Verdict,
};
use std::collections::{HashMap, HashSet};

/// Which aggregate the HAVING condition applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HavingAgg {
    /// `SUM(value) > c` — packets carry `[key, value]`.
    Sum,
    /// `COUNT(*) > c` — packets carry `[key]` (value implied 1).
    Count,
}

/// HAVING pruning configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HavingConfig {
    /// Count-Min rows (`d` in Table 2; the paper evaluates 3).
    pub cm_rows: usize,
    /// Counters per row (`w` in Table 2; the paper evaluates 2^5..2^10
    /// and defaults to 1024).
    pub cm_counters: usize,
    /// The threshold `c` of `HAVING agg > c`.
    pub threshold: u64,
    /// SUM or COUNT.
    pub agg: HavingAgg,
    /// Rows of the candidate-deduplication matrix.
    pub dedup_rows: usize,
    /// Columns of the candidate-deduplication matrix.
    pub dedup_cols: usize,
    /// Hash seed.
    pub seed: u64,
}

impl HavingConfig {
    /// Table 2 defaults: `w = 1024` counters, `d = 3` rows.
    pub fn paper_default(threshold: u64) -> Self {
        Self {
            cm_rows: 3,
            cm_counters: 1024,
            threshold,
            agg: HavingAgg::Sum,
            dedup_rows: 1024,
            dedup_cols: 2,
            seed: 0x4A11,
        }
    }
}

/// The HAVING pruning program (pass 1: sketch + announce candidates).
#[derive(Debug)]
pub struct HavingPruner {
    cfg: HavingConfig,
    /// One register array per Count-Min row.
    rows: Vec<RegisterArray>,
    row_hashes: Vec<HashFn>,
    /// Deduplicates candidate announcements.
    dedup: DistinctPruner,
}

impl HavingPruner {
    /// Build the program against `ledger`.
    pub fn build(cfg: HavingConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        assert!(cfg.cm_rows > 0 && cfg.cm_counters > 0, "sketch must be non-empty");
        let a = ledger.profile().alus_per_stage;
        let stages = cfg.cm_rows.div_ceil(a);
        let per_row_bits = cfg.cm_counters as u64 * 64;
        let start = ledger.find_contiguous(0, stages, a.min(cfg.cm_rows), per_row_bits)?;
        let mut rows = Vec::with_capacity(cfg.cm_rows);
        for i in 0..cfg.cm_rows {
            rows.push(ledger.register_array(start + i / a, cfg.cm_counters, 64)?);
        }
        let fam = HashFamily::new(cfg.seed);
        let row_hashes = (0..cfg.cm_rows).map(|i| fam.function(i)).collect();
        let dedup = DistinctPruner::build(
            DistinctConfig {
                rows: cfg.dedup_rows,
                cols: cfg.dedup_cols,
                policy: EvictionPolicy::Lru,
                fingerprint: None,
                seed: cfg.seed ^ 0xDED,
            },
            ledger,
        )?;
        ledger.alloc_phv_bits(64 + 64)?;
        ledger.note_rules(3 + cfg.cm_rows);
        Ok(Self { cfg, rows, row_hashes, dedup })
    }

    /// One row of Table 2 for this configuration (Count-Min part only, as
    /// in the paper; pass the dedup dimensions as 1×1 to isolate it).
    pub fn table2_row(
        cfg: HavingConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &HavingConfig {
        &self.cfg
    }

    /// The sketch's current estimate for a key (control-plane read).
    pub fn estimate(&self, key: u64) -> u64 {
        self.rows
            .iter()
            .zip(&self.row_hashes)
            .map(|(row, h)| {
                let idx = h.index(key, self.cfg.cm_counters);
                row.control_read(idx).expect("index in range")
            })
            .min()
            .unwrap_or(0)
    }
}

impl SwitchProgram for HavingPruner {
    fn name(&self) -> &'static str {
        "having"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let key = pkt.value(0)?;
        let add = match self.cfg.agg {
            HavingAgg::Sum => pkt.value(1)?,
            HavingAgg::Count => 1,
        };
        // Update every row and take the min of the *updated* counters: the
        // Count-Min estimate including this entry.
        let mut estimate = u64::MAX;
        for (row, h) in self.rows.iter_mut().zip(&self.row_hashes) {
            let idx = h.index(key, self.cfg.cm_counters);
            let old = row.rmw(pkt.epoch, idx, |c| c.saturating_add(add))?;
            estimate = estimate.min(old.saturating_add(add));
        }
        if estimate <= self.cfg.threshold {
            return Ok(Verdict::Prune); // one-sided: true sum ≤ estimate ≤ c
        }
        // Candidate: announce the key once (dedup matrix decides).
        self.dedup.on_packet(PacketRef { epoch: pkt.epoch, fid: pkt.fid, values: &[key] })
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        match msg {
            ControlMsg::Clear => {
                for r in &mut self.rows {
                    r.control_clear();
                }
                self.dedup.control(msg)?;
            }
            _ => {
                self.dedup.control(msg)?;
            }
        }
        Ok(())
    }
}

/// Pass-2 filter: forwards only entries whose key was requested by the
/// master. Usable on the switch (match-action table over keys) or inside
/// the CWorker.
#[derive(Debug)]
pub struct SecondPassFilter {
    table: ExactTable<()>,
}

impl SecondPassFilter {
    /// Empty filter (forwards nothing until keys are installed).
    pub fn new() -> Self {
        Self { table: ExactTable::new("having-pass2") }
    }

    /// Install the requested key set.
    pub fn install_keys(&mut self, keys: impl IntoIterator<Item = u64>) -> usize {
        let mut n = 0;
        for k in keys {
            if self.table.install(k, ()) {
                n += 1;
            }
        }
        n
    }

    /// Number of installed keys (control-plane rules).
    pub fn key_count(&self) -> usize {
        self.table.rule_count()
    }
}

impl Default for SecondPassFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl SwitchProgram for SecondPassFilter {
    fn name(&self) -> &'static str {
        "having-pass2"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let key = pkt.value(0)?;
        Ok(if self.table.lookup_exact(key).is_some() { Verdict::Forward } else { Verdict::Prune })
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        if matches!(msg, ControlMsg::Clear) {
            self.table.clear();
        }
        Ok(())
    }
}

/// Unbounded reference (OPT in Figures 10f/11f): exact running sums and an
/// exact announcement set — forwards exactly one entry per key, at the
/// moment its true running aggregate crosses the threshold.
#[derive(Debug)]
pub struct HavingOpt {
    threshold: u64,
    agg: HavingAgg,
    sums: HashMap<u64, u64>,
    announced: HashSet<u64>,
}

impl HavingOpt {
    /// OPT for `HAVING agg > threshold`.
    pub fn new(agg: HavingAgg, threshold: u64) -> Self {
        Self { threshold, agg, sums: HashMap::new(), announced: HashSet::new() }
    }
}

impl OptPruner for HavingOpt {
    fn offer_opt(&mut self, values: &[u64]) -> Verdict {
        let key = values[0];
        let add = match self.agg {
            HavingAgg::Sum => values[1],
            HavingAgg::Count => 1,
        };
        let sum = self.sums.entry(key).or_insert(0);
        *sum = sum.saturating_add(add);
        if *sum > self.threshold && self.announced.insert(key) {
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

    fn build(threshold: u64, counters: usize) -> StandalonePruner<HavingPruner> {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        let cfg = HavingConfig {
            cm_rows: 3,
            cm_counters: counters,
            threshold,
            agg: HavingAgg::Sum,
            dedup_rows: 256,
            dedup_cols: 2,
            seed: 42,
        };
        StandalonePruner::new(HavingPruner::build(cfg, &mut ledger).unwrap())
    }

    #[test]
    fn below_threshold_keys_are_pruned() {
        let mut p = build(100, 512);
        for _ in 0..5 {
            assert_eq!(p.offer(&[1, 10]).unwrap(), Verdict::Prune);
        }
        // Total 50 ≤ 100: never announced.
    }

    #[test]
    fn key_is_announced_exactly_once_when_crossing() {
        let mut p = build(100, 512);
        assert_eq!(p.offer(&[7, 60]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[7, 60]).unwrap(), Verdict::Forward, "crossed 100");
        assert_eq!(p.offer(&[7, 60]).unwrap(), Verdict::Prune, "deduplicated");
    }

    #[test]
    fn every_qualifying_key_reaches_the_master() {
        // The deterministic guarantee: keys with true SUM > c always get
        // announced, whatever the sketch collisions.
        let threshold = 1000u64;
        let mut p = build(threshold, 64); // tiny sketch, many collisions
        let mut x = 3u64;
        let mut true_sums: HashMap<u64, u64> = HashMap::new();
        let mut announced: HashSet<u64> = HashSet::new();
        for _ in 0..30_000 {
            x = mix64(x);
            let k = x % 300;
            x = mix64(x);
            let v = x % 20;
            *true_sums.entry(k).or_insert(0) += v;
            if p.offer(&[k, v]).unwrap() == Verdict::Forward {
                announced.insert(k);
            }
        }
        for (k, sum) in true_sums {
            if sum > threshold {
                assert!(announced.contains(&k), "qualifying key {k} (sum {sum}) missed");
            }
        }
    }

    #[test]
    fn estimate_is_one_sided() {
        let mut p = build(u64::MAX, 128);
        let mut x = 9u64;
        let mut true_sums: HashMap<u64, u64> = HashMap::new();
        for _ in 0..5_000 {
            x = mix64(x);
            let k = x % 50;
            x = mix64(x);
            let v = x % 100;
            *true_sums.entry(k).or_insert(0) += v;
            p.offer(&[k, v]).unwrap();
        }
        for (k, sum) in true_sums {
            assert!(p.program().estimate(k) >= sum, "Count-Min underestimated key {k}");
        }
    }

    #[test]
    fn count_mode_counts() {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        let cfg = HavingConfig {
            agg: HavingAgg::Count,
            threshold: 3,
            cm_rows: 3,
            cm_counters: 256,
            dedup_rows: 64,
            dedup_cols: 2,
            seed: 1,
        };
        let mut p = StandalonePruner::new(HavingPruner::build(cfg, &mut ledger).unwrap());
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Forward, "count 4 > 3");
    }

    #[test]
    fn more_counters_fewer_false_candidates() {
        // Figure 10f shape.
        let mut survivors = Vec::new();
        for counters in [32usize, 128, 1024] {
            let mut p = build(5_000, counters);
            let mut x = 11u64;
            for _ in 0..40_000 {
                x = mix64(x);
                let k = x % 2_000;
                x = mix64(x);
                p.offer(&[k, x % 10]).unwrap();
            }
            survivors.push(p.stats().forwarded);
        }
        assert!(
            survivors[0] > survivors[2],
            "more counters should reduce candidates: {survivors:?}"
        );
    }

    #[test]
    fn table2_row_matches_paper() {
        // Table 2 HAVING w=1024, d=3 on a 4-ALU switch: ⌈3/4⌉ = 1 stage for
        // the sketch (+2 for the dedup matrix), 3 ALUs (+2 dedup).
        let cfg = HavingConfig {
            cm_rows: 3,
            cm_counters: 1024,
            threshold: 0,
            agg: HavingAgg::Sum,
            dedup_rows: 64,
            dedup_cols: 2,
            seed: 1,
        };
        let row = HavingPruner::table2_row(cfg, SwitchProfile::tofino1()).unwrap();
        // Sketch SRAM dominates: 3·1024×64b + dedup 2·64×64b.
        assert_eq!(row.sram_bits, 3 * 1024 * 64 + 2 * 64 * 64);
        assert_eq!(row.alus, 3 + 2);
    }

    #[test]
    fn second_pass_filter_forwards_requested_keys_only() {
        let mut f = StandalonePruner::new(SecondPassFilter::new());
        f.program_mut().install_keys([10, 20, 30]);
        assert_eq!(f.program().key_count(), 3);
        assert_eq!(f.offer(&[10]).unwrap(), Verdict::Forward);
        assert_eq!(f.offer(&[11]).unwrap(), Verdict::Prune);
        f.program_mut().control(&ControlMsg::Clear).unwrap();
        assert_eq!(f.offer(&[10]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn opt_forwards_one_entry_per_qualifying_key() {
        let mut opt = HavingOpt::new(HavingAgg::Sum, 100);
        let mut fwd = 0;
        for _ in 0..10 {
            for k in 0..5u64 {
                if opt.offer_opt(&[k, 30]).is_prune() {
                    continue;
                }
                fwd += 1;
            }
        }
        assert_eq!(fwd, 5, "each key crosses once");
    }

    #[test]
    fn end_to_end_second_pass_produces_exact_output() {
        // Pass 1 announces candidates; pass 2 + master aggregation must
        // produce exactly the true HAVING output.
        let threshold = 500u64;
        let mut p = build(threshold, 128);
        let entries: Vec<(u64, u64)> = {
            let mut x = 77u64;
            (0..20_000)
                .map(|_| {
                    x = mix64(x);
                    let k = x % 100;
                    x = mix64(x);
                    (k, x % 15)
                })
                .collect()
        };
        let mut candidates = HashSet::new();
        for &(k, v) in &entries {
            if p.offer(&[k, v]).unwrap() == Verdict::Forward {
                candidates.insert(k);
            }
        }
        // Partial second pass: master aggregates exactly over candidates.
        let mut pass2 = SecondPassFilter::new();
        pass2.install_keys(candidates.iter().copied());
        let mut f = StandalonePruner::new(pass2);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            if f.offer(&[k, v]).unwrap() == Verdict::Forward {
                *exact.entry(k).or_insert(0) += v;
            }
        }
        let output: HashSet<u64> =
            exact.iter().filter(|&(_, &s)| s > threshold).map(|(&k, _)| k).collect();
        // Ground truth.
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &entries {
            *truth.entry(k).or_insert(0) += v;
        }
        let want: HashSet<u64> =
            truth.iter().filter(|&(_, &s)| s > threshold).map(|(&k, _)| k).collect();
        assert_eq!(output, want);
    }
}
