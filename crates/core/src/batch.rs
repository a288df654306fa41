//! Multi-entry packets (§9 "Packing multiple entries per packet").
//!
//! Cheetah spends much of its time transmitting one entry per packet; §9
//! observes that packing several entries per packet cuts that cost, and
//! that DISTINCT, TOP N and GROUP BY keep their correctness under packing:
//! *"if several entries are mapped to the same matrix row, we can avoid
//! processing them while not pruning the entries"*. P4's header popping
//! lets the switch drop a *subset* of a packet's entries.
//!
//! Hardware budget: each entry needs its own ALU per logical stage
//! (Table 2's `*` shared-memory assumption — modelled by multiport
//! register arrays), so a batch of `k` entries multiplies the ALU bill by
//! `k`. [`BatchedDistinct`] implements the pattern for DISTINCT; the same
//! wrapper strategy applies to the other row-partitioned algorithms.

use cheetah_switch::{ControlMsg, HashFn, RegisterArray, ResourceLedger, UsageSummary, Verdict};

/// Configuration for batched DISTINCT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchedDistinctConfig {
    /// Matrix rows `d`.
    pub rows: usize,
    /// Matrix columns `w` (logical stages).
    pub cols: usize,
    /// Entries per packet `k` (ALUs per stage scale with this).
    pub batch: usize,
    /// Row-hash seed.
    pub seed: u64,
}

/// Per-entry verdicts for one packet (survivors stay in the packet, pruned
/// entries are popped; the packet is dropped only when all are pruned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchVerdict(pub Vec<Verdict>);

impl BatchVerdict {
    /// Number of surviving entries.
    pub fn survivors(&self) -> usize {
        self.0.iter().filter(|v| !v.is_prune()).count()
    }
}

/// Batched DISTINCT: an LRU matrix whose arrays have `batch` ports.
#[derive(Debug)]
pub struct BatchedDistinct {
    cfg: BatchedDistinctConfig,
    row_hash: HashFn,
    cols: Vec<RegisterArray>,
    epoch: u64,
}

impl BatchedDistinct {
    /// Build against `ledger`: `w` multiport arrays of depth `d`, each
    /// charged `batch` ALUs.
    pub fn build(cfg: BatchedDistinctConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        assert!(cfg.rows > 0 && cfg.cols > 0 && cfg.batch > 0);
        let sram = cfg.rows as u64 * 64;
        let start = ledger.find_contiguous(0, cfg.cols, cfg.batch, sram)?;
        let mut cols = Vec::with_capacity(cfg.cols);
        for i in 0..cfg.cols {
            cols.push(ledger.register_array_multiport(
                start + i,
                cfg.rows,
                64,
                cfg.batch as u32,
            )?);
        }
        ledger.alloc_phv_bits(64 * cfg.batch)?;
        ledger.note_rules(2 + cfg.cols);
        Ok(Self { cfg, row_hash: HashFn::from_seed(cfg.seed), cols, epoch: 0 })
    }

    /// One Table-2-style resource row.
    pub fn table2_row(
        cfg: BatchedDistinctConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &BatchedDistinctConfig {
        &self.cfg
    }

    /// Process one packet of up to `batch` entries.
    ///
    /// Two in-packet rules:
    /// * an entry **equal to an earlier entry of the same packet** is
    ///   pruned — the earlier instance is its witness (it is either
    ///   forwarded in this packet or was pruned because the value is
    ///   already cached, which itself implies a forwarded witness). This
    ///   is a stateless pairwise comparison, well within a stage's ALU
    ///   budget for small `k`;
    /// * an entry whose row was already **touched by a different value**
    ///   in this packet is forwarded without processing (§9's conflict
    ///   rule — the register port is taken; forwarding is always safe).
    pub fn process_batch(&mut self, entries: &[u64]) -> crate::Result<BatchVerdict> {
        assert!(
            entries.len() <= self.cfg.batch,
            "packet carries more entries than the program was built for"
        );
        self.epoch += 1;
        let mut touched_rows: Vec<usize> = Vec::with_capacity(entries.len());
        let mut verdicts = Vec::with_capacity(entries.len());
        for (i, &raw) in entries.iter().enumerate() {
            let stored = raw.wrapping_add(1);
            if stored == 0 {
                verdicts.push(Verdict::Forward);
                continue;
            }
            // In-packet duplicate elimination (stateless comparisons).
            if entries[..i].contains(&raw) {
                verdicts.push(Verdict::Prune);
                continue;
            }
            let row = self.row_hash.index(stored, self.cfg.rows);
            if touched_rows.contains(&row) {
                // Same-row conflict within the packet: skip processing,
                // never prune.
                verdicts.push(Verdict::Forward);
                continue;
            }
            touched_rows.push(row);
            // Standard LRU rolling pass (one port consumed per array).
            let mut carry = stored;
            let mut hit = false;
            for col in self.cols.iter_mut() {
                if hit {
                    break;
                }
                let old = col.rmw(self.epoch, row, |_| carry)?;
                if old == stored {
                    hit = true;
                } else {
                    carry = old;
                }
            }
            verdicts.push(if hit { Verdict::Prune } else { Verdict::Forward });
        }
        Ok(BatchVerdict(verdicts))
    }

    /// Control-plane reset.
    pub fn control(&mut self, msg: &ControlMsg) {
        if matches!(msg, ControlMsg::Clear) {
            for c in &mut self.cols {
                c.control_clear();
            }
        }
    }
}

/// The §9 economics: effective entries per second as a function of the
/// batch size, given a per-packet wire overhead and a link rate. This is
/// the analytical companion to the batching ablation bench.
pub fn effective_entry_rate(
    link_bps: f64,
    per_packet_overhead_bytes: u64,
    bytes_per_entry: u64,
    batch: usize,
) -> f64 {
    let packet_bytes = per_packet_overhead_bytes + bytes_per_entry * batch as u64;
    let packets_per_sec = link_bps / (packet_bytes as f64 * 8.0);
    packets_per_sec * batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_switch::SwitchProfile;
    use std::collections::HashSet;

    fn build(rows: usize, cols: usize, batch: usize) -> BatchedDistinct {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino2());
        BatchedDistinct::build(BatchedDistinctConfig { rows, cols, batch, seed: 5 }, &mut ledger)
            .unwrap()
    }

    #[test]
    fn batch_prunes_duplicates_like_single_entry() {
        let mut b = build(64, 2, 4);
        let v1 = b.process_batch(&[1, 2, 3, 4]).unwrap();
        assert_eq!(v1.survivors(), 4, "first occurrences all survive");
        let v2 = b.process_batch(&[1, 2, 3, 4]).unwrap();
        // All rows distinct for these values with this seed? Some may
        // conflict; conflicting entries forward. Every PRUNE must be a
        // real duplicate.
        for (i, v) in v2.0.iter().enumerate() {
            if v.is_prune() {
                assert!(i < 4, "sanity");
            }
        }
    }

    #[test]
    fn never_prunes_first_occurrence_across_batches() {
        let mut b = build(32, 2, 4);
        let mut forwarded: HashSet<u64> = HashSet::new();
        let mut x = 9u64;
        for _ in 0..2_000 {
            let mut batch = Vec::new();
            for _ in 0..4 {
                x = cheetah_switch::hash::mix64(x);
                batch.push(x % 100);
            }
            let verdicts = b.process_batch(&batch).unwrap();
            for (val, v) in batch.iter().zip(&verdicts.0) {
                match v {
                    Verdict::Forward => {
                        forwarded.insert(*val);
                    }
                    Verdict::Prune => {
                        assert!(forwarded.contains(val), "pruned unseen {val}");
                    }
                }
            }
        }
    }

    #[test]
    fn in_packet_duplicates_are_pruned_with_witness() {
        // Same value twice in one packet: the first instance forwards (and
        // caches), the second is pruned by the in-packet comparison.
        let mut b = build(64, 2, 2);
        let v = b.process_batch(&[7, 7]).unwrap();
        assert_eq!(v.0[0], Verdict::Forward);
        assert_eq!(v.0[1], Verdict::Prune, "in-packet duplicate has a witness");
        // Next packet: 7 is cached → pruned.
        let v = b.process_batch(&[7]).unwrap();
        assert_eq!(v.0[0], Verdict::Prune);
    }

    #[test]
    fn same_row_different_value_conflicts_forward_unprocessed() {
        // Find two different values in the same row, then batch them.
        let probe = build(4, 2, 2); // 4 rows → collisions easy to find
        let hash = cheetah_switch::HashFn::from_seed(5);
        let a = 1u64;
        let row_a = hash.index(a.wrapping_add(1), 4);
        let b_val = (2..100u64)
            .find(|&v| hash.index(v.wrapping_add(1), 4) == row_a)
            .expect("collision exists");
        drop(probe);
        let mut b = build(4, 2, 2);
        let v = b.process_batch(&[a, b_val]).unwrap();
        assert_eq!(v.0[0], Verdict::Forward, "first entry processes");
        assert_eq!(v.0[1], Verdict::Forward, "row conflict forwards unprocessed");
        // b_val was NOT cached (unprocessed): it forwards again — safe
        // under-pruning, never incorrect.
        let v = b.process_batch(&[b_val]).unwrap();
        assert_eq!(v.0[0], Verdict::Forward);
    }

    #[test]
    fn resource_bill_scales_with_batch() {
        let one = BatchedDistinct::table2_row(
            BatchedDistinctConfig { rows: 64, cols: 2, batch: 1, seed: 1 },
            SwitchProfile::tofino2(),
        )
        .unwrap();
        let four = BatchedDistinct::table2_row(
            BatchedDistinctConfig { rows: 64, cols: 2, batch: 4, seed: 1 },
            SwitchProfile::tofino2(),
        )
        .unwrap();
        assert_eq!(four.alus, one.alus * 4, "k entries need k ALUs per stage");
        assert_eq!(four.sram_bits, one.sram_bits, "the matrix itself is shared");
    }

    #[test]
    fn batch_exceeding_alus_fails_to_build() {
        // Tofino 2 has 8 ALUs/stage; a batch of 9 cannot fit one stage.
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino2());
        assert!(BatchedDistinct::build(
            BatchedDistinctConfig { rows: 64, cols: 2, batch: 9, seed: 1 },
            &mut ledger,
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "more entries")]
    fn oversized_batch_rejected_at_runtime() {
        let mut b = build(64, 2, 2);
        let _ = b.process_batch(&[1, 2, 3]);
    }

    #[test]
    fn effective_rate_grows_sublinearly_with_batch() {
        // 42B overhead + 8B/entry at 10G.
        let r1 = effective_entry_rate(10e9, 42, 8, 1);
        let r4 = effective_entry_rate(10e9, 42, 8, 4);
        let r16 = effective_entry_rate(10e9, 42, 8, 16);
        assert!(r4 > r1 * 2.0, "batching must help substantially: {r1} -> {r4}");
        assert!(r16 > r4, "more batching still helps");
        assert!(r16 < r1 * 16.0, "but sublinearly (per-entry bytes remain)");
    }

    #[test]
    fn all_pruned_batch_detected() {
        let mut b = build(64, 2, 2);
        b.process_batch(&[10, 20]).unwrap();
        let v = b.process_batch(&[10]).unwrap();
        // Single-entry batch, duplicate → whole packet dropped.
        assert_eq!((v.0.len(), v.survivors()), (1, 0));
    }
}
