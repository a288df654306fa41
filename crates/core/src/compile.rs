//! Plan-time compilation of switch programs into fused pruning kernels.
//!
//! The generic executor drives a [`Pipeline`](cheetah_switch::Pipeline) of
//! boxed `dyn SwitchProgram` stages: every entry pays a virtual dispatch,
//! a `PacketRef` construction, per-register epoch bookkeeping and a
//! `Result` round-trip — on the hottest loop in the system. This module
//! specializes each query family into a **monomorphic kernel** at plan
//! time: [`CompiledProgram::compile`] takes the [`QuerySpec`] and emits a
//! single concrete program whose per-entry loop is one enum dispatch *per
//! run* (hoisted out of the entry loop), plain `Vec<u64>` state, and no
//! `Box<dyn>` hops.
//!
//! **The interpreter stays the oracle.** Kernels rebuild exactly the state
//! the interpreted pruners derive from the same configs and seeds (row
//! hashes, key fingerprints, threshold ladders), so verdicts are
//! bit-identical entry by entry — enforced by the in-module tests here and
//! by the `compiled_contract` gate in `cheetah-db`, which replays all seven
//! query families on both backends across adversarial workloads and shard
//! counts.
//!
//! **Kernels exist for single-pass families only** — filter, DISTINCT,
//! TOP N, GROUP BY, SKYLINE. The executor's encode → prune loop is shared
//! by both backends, so a kernel is worth its lines only for what it saves
//! *per entry* over the interpreter. JOIN and HAVING are bound by encoding
//! and completion, not by the prune step (their kernels measured 0.84–1.6×
//! the interpreter, losing as often as winning):
//! [`CompiledProgram::compile`] answers
//! [`Error::NoKernel`](crate::Error::NoKernel)
//! for them and the executor runs the interpreter, which is why programs
//! here have no phases.
//!
//! # Adding a compiled kernel for a new query family
//!
//! Single-pass families only, and only if it beats the interpreter ≥ 1.3×
//! *on the shared loop* (the ledger's `shard_exec.<family>.*_ns_per_row`
//! pair, not `kernel.*_ns_per_entry` alone).
//!
//! 1. Add a kernel struct holding the family's state as flat vectors
//!    (`Vec<u64>` cells, plain counters). Derive every seed exactly as the
//!    interpreted pruner does — e.g. GROUP BY fingerprints keys with
//!    `HashFn::from_seed(seed ^ 0x9E37_79B9)`; copy the derivation, not an
//!    approximation of it.
//! 2. Give it a `run` method that loops over the entry slices and calls
//!    `sink(i, verdict)` per entry, mirroring the interpreted `on_packet`
//!    *statement by statement* (including conservative fallbacks like
//!    "forward when uncacheable").
//! 3. Add a variant to the private `Kernel` enum, construct it in
//!    [`CompiledProgram::compile`], and wire `run`/`clear`.
//! 4. Extend the oracle tests at the bottom of this file with a randomized
//!    stream comparing the kernel against a `StandalonePruner` of the
//!    interpreted program, and add the family to the `compiled_contract`
//!    gate if it is reachable from `DbQuery`.

use crate::distinct::{DistinctConfig, EvictionPolicy};
use crate::filter::{AtomSpec, CmpOp, ExternalMode, FilterConfig};
use crate::fingerprint::FingerprintSpec;
use crate::groupby::{AggKind, GroupByConfig};
use crate::planner::QuerySpec;
use crate::skyline::{SkylineConfig, SkylinePolicy};
use crate::topn::{TopNDetConfig, TopNRandConfig};
use cheetah_switch::alu::mul_pow2;
use cheetah_switch::error::SwitchError;
use cheetah_switch::{ApproxLog, HashFamily, HashFn, ProgramStats, Verdict};

/// A backend-agnostic pruning engine: something the executor can stream
/// entry runs through and control between passes.
///
/// Two implementations exist: the interpreted
/// [`StandalonePruner`](crate::StandalonePruner)-over-`Pipeline` oracle
/// (adapted in `cheetah-db`) and the compiled kernels here. The executor's
/// one encode → prune loop is generic over this trait, so the four-arm
/// `PassPlan` logic exists once for both backends.
pub trait PruneEngine {
    /// Offer a run of same-flow entries; `sink` observes each entry's index
    /// and verdict in stream order. Statistics accumulate internally.
    fn offer_run<'v>(
        &mut self,
        fid: u32,
        entries: impl Iterator<Item = &'v [u64]>,
        sink: impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()>;

    /// Advance a multi-pass algorithm (JOIN) to `phase`. Single-pass
    /// engines — every compiled kernel — have no phases and refuse.
    fn set_phase(&mut self, _phase: u8) -> cheetah_switch::Result<()> {
        Err(SwitchError::UnsupportedOp { op: "phase switch on a single-pass pruning engine" })
    }

    /// Accumulated verdict statistics.
    fn stats(&self) -> ProgramStats;
}

/// A query family's switch program, fused into one monomorphic kernel.
///
/// Built once per query by [`CompiledProgram::compile`]; run over entry
/// slices with [`CompiledProgram::offer_run`]. Verdicts are bit-identical
/// to the interpreted program built from the same [`QuerySpec`].
#[derive(Debug)]
pub struct CompiledProgram {
    kernel: Kernel,
    stats: ProgramStats,
}

/// One fused kernel per query family (private: the enum dispatch happens
/// once per run inside [`CompiledProgram::offer_run`]).
#[derive(Debug)]
enum Kernel {
    Filter(FilterKernel),
    Distinct(DistinctKernel),
    TopNDet(TopNDetKernel),
    TopNRand(TopNRandKernel),
    GroupBy(GroupByKernel),
    Skyline(SkylineKernel),
}

impl CompiledProgram {
    /// Compile `spec` into its family's fused kernel, or
    /// [`Error::NoKernel`](crate::Error::NoKernel) for the multi-pass
    /// families (JOIN, HAVING), which run on the interpreter.
    pub fn compile(spec: &QuerySpec) -> crate::Result<Self> {
        let kernel = match spec {
            QuerySpec::Filter(c) => Kernel::Filter(FilterKernel::new(c)),
            QuerySpec::Distinct(c) => Kernel::Distinct(DistinctKernel::new(*c)),
            QuerySpec::TopNDet(c) => Kernel::TopNDet(TopNDetKernel::new(*c)),
            QuerySpec::TopNRand(c) => Kernel::TopNRand(TopNRandKernel::new(*c)),
            QuerySpec::GroupBy(c) => Kernel::GroupBy(GroupByKernel::new(*c)),
            QuerySpec::Skyline(c) => Kernel::Skyline(SkylineKernel::new(*c)),
            QuerySpec::Join(_) | QuerySpec::Having(_) => {
                return Err(crate::Error::NoKernel { family: spec.kind() })
            }
        };
        Ok(Self { kernel, stats: ProgramStats::default() })
    }

    /// Offer a run of same-flow entries through the kernel. The family is
    /// resolved once, before the entry loop — the per-entry body is
    /// branch-light straight-line code. Every kernel is single-stream, so
    /// the flow id is not consulted.
    pub fn offer_run<'v>(
        &mut self,
        _fid: u32,
        entries: impl Iterator<Item = &'v [u64]>,
        mut sink: impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        let stats = &mut self.stats;
        let mut emit = |i: usize, v: Verdict| {
            stats.record(v);
            sink(i, v);
        };
        match &mut self.kernel {
            Kernel::Filter(k) => k.run(entries, &mut emit),
            Kernel::Distinct(k) => k.run(entries, &mut emit),
            Kernel::TopNDet(k) => k.run(entries, &mut emit),
            Kernel::TopNRand(k) => k.run(entries, &mut emit),
            Kernel::GroupBy(k) => k.run(entries, &mut emit),
            Kernel::Skyline(k) => k.run(entries, &mut emit),
        }
    }

    /// Reset all kernel state (registers, pointers) — the compiled
    /// analogue of `ControlMsg::Clear`. Statistics are kept.
    pub fn clear(&mut self) {
        match &mut self.kernel {
            Kernel::Filter(_) => {}
            Kernel::Distinct(k) => k.clear(),
            Kernel::TopNDet(k) => {
                k.packed = 0;
                k.counters.fill(0);
            }
            Kernel::TopNRand(k) => {
                k.cells.fill(0);
                k.arrival = 0;
            }
            Kernel::GroupBy(k) => k.clear(),
            Kernel::Skyline(k) => {
                k.scores.fill(0);
                k.dims_cells.fill(0);
            }
        }
    }

    /// Accumulated verdict statistics.
    pub fn stats(&self) -> ProgramStats {
        self.stats
    }

    /// Return the program to its freshly-compiled state: kernel registers
    /// cleared *and* statistics zeroed. A reset program is
    /// indistinguishable from one just built by [`compile`] — the
    /// install-once, stream-many lifecycle of a real switch program, which
    /// lets a worker amortize the kernel's register allocation across
    /// every shard and repetition it executes.
    ///
    /// [`compile`]: CompiledProgram::compile
    pub fn reset(&mut self) {
        self.clear();
        self.stats = ProgramStats::default();
    }
}

impl PruneEngine for CompiledProgram {
    fn offer_run<'v>(
        &mut self,
        fid: u32,
        entries: impl Iterator<Item = &'v [u64]>,
        sink: impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        CompiledProgram::offer_run(self, fid, entries, sink)
    }

    fn stats(&self) -> ProgramStats {
        CompiledProgram::stats(self)
    }
}

#[inline]
fn value_at(values: &[u64], i: usize) -> cheetah_switch::Result<u64> {
    values.get(i).copied().ok_or(SwitchError::BadPacketShape { expected: i + 1, got: values.len() })
}

// ---------------------------------------------------------------- filter

/// One atom, pre-resolved: comparisons carry their constant inline and
/// external atoms carry their bit index into the worker-computed mask.
#[derive(Debug)]
enum CompiledAtom {
    Cmp { col: usize, op: CmpOp, constant: u64 },
    ExternalBit(u32),
    ExternalTrue,
}

#[derive(Debug)]
struct FilterKernel {
    atoms: Vec<CompiledAtom>,
    /// Dense truth table over the atom bit vector, size `1 << k`.
    truth: Vec<bool>,
    /// Value slot of the external bitmask (worker-computed mode only).
    mask_slot: Option<usize>,
}

impl FilterKernel {
    fn new(cfg: &FilterConfig) -> Self {
        let k = cfg.atoms.len();
        assert!(k > 0 && k <= crate::FilterPruner::MAX_ATOMS, "atom count validated at plan time");
        let effective = match cfg.external_mode {
            ExternalMode::Tautology => cfg
                .expr
                .substitute(&|i| matches!(cfg.atoms[i], AtomSpec::External { .. }).then_some(true)),
            ExternalMode::WorkerComputed => cfg.expr.clone(),
        };
        let truth = (0..(1u64 << k))
            .map(|bits_key| {
                let bits: Vec<bool> = (0..k).map(|i| bits_key >> i & 1 == 1).collect();
                effective.eval(&bits)
            })
            .collect();
        let worker_bits = matches!(cfg.external_mode, ExternalMode::WorkerComputed);
        let mut ext_bit_idx = 0u32;
        let atoms = cfg
            .atoms
            .iter()
            .map(|a| match a {
                AtomSpec::Switch(p) => {
                    CompiledAtom::Cmp { col: p.col, op: p.op, constant: p.constant }
                }
                AtomSpec::External { .. } if worker_bits => {
                    let bit = ext_bit_idx;
                    ext_bit_idx += 1;
                    CompiledAtom::ExternalBit(bit)
                }
                AtomSpec::External { .. } => CompiledAtom::ExternalTrue,
            })
            .collect();
        let mask_slot = worker_bits.then(|| cfg.packet_values().saturating_sub(1));
        Self { atoms, truth, mask_slot }
    }

    fn run<'v>(
        &mut self,
        entries: impl Iterator<Item = &'v [u64]>,
        emit: &mut impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        for (i, values) in entries.enumerate() {
            let ext_mask = match self.mask_slot {
                Some(slot) => value_at(values, slot)?,
                None => 0,
            };
            let mut key = 0usize;
            for (a, atom) in self.atoms.iter().enumerate() {
                let bit = match atom {
                    CompiledAtom::Cmp { col, op, constant } => {
                        op.eval(value_at(values, *col)?, *constant)
                    }
                    CompiledAtom::ExternalBit(b) => ext_mask >> b & 1 == 1,
                    CompiledAtom::ExternalTrue => true,
                };
                key |= usize::from(bit) << a;
            }
            emit(i, if self.truth[key] { Verdict::Forward } else { Verdict::Prune });
        }
        Ok(())
    }
}

// -------------------------------------------------------------- distinct

#[derive(Debug)]
struct DistinctKernel {
    rows: usize,
    cols: usize,
    policy: EvictionPolicy,
    fingerprint: Option<FingerprintSpec>,
    row_hash: HashFn,
    /// Row-major `rows × cols` cache matrix (0 = empty cell).
    cells: Vec<u64>,
    fifo_ptr: Vec<u32>,
}

impl DistinctKernel {
    fn new(cfg: DistinctConfig) -> Self {
        assert!(cfg.rows > 0 && cfg.cols > 0, "matrix validated at plan time");
        Self {
            rows: cfg.rows,
            cols: cfg.cols,
            policy: cfg.policy,
            fingerprint: cfg.fingerprint,
            row_hash: HashFn::from_seed(cfg.seed),
            cells: vec![0; cfg.rows * cfg.cols],
            fifo_ptr: vec![0; cfg.rows],
        }
    }

    fn clear(&mut self) {
        self.cells.fill(0);
        self.fifo_ptr.fill(0);
    }

    #[inline]
    fn encode(&self, raw: u64) -> u64 {
        match self.fingerprint {
            Some(fp) => fp.apply(raw) + 1,
            None => raw.wrapping_add(1),
        }
    }

    /// One entry's verdict.
    #[inline]
    fn offer(&mut self, raw: u64) -> Verdict {
        let stored = self.encode(raw);
        if stored == 0 {
            return Verdict::Forward; // u64::MAX unfingerprinted: uncacheable
        }
        let row = self.row_hash.index(stored, self.rows);
        let base = row * self.cols;
        match self.policy {
            EvictionPolicy::Lru => {
                let mut carry = stored;
                let mut hit = false;
                for cell in &mut self.cells[base..base + self.cols] {
                    let old = *cell;
                    *cell = carry;
                    if old == stored {
                        hit = true;
                        break;
                    }
                    carry = old;
                }
                if hit {
                    Verdict::Prune
                } else {
                    Verdict::Forward
                }
            }
            EvictionPolicy::Fifo => {
                let victim = self.fifo_ptr[row] as usize % self.cols;
                let mut hit = false;
                for (c, cell) in self.cells[base..base + self.cols].iter_mut().enumerate() {
                    if c == victim && !hit {
                        let old = *cell;
                        *cell = stored;
                        if old == stored {
                            hit = true;
                        }
                    } else if *cell == stored {
                        hit = true;
                    }
                }
                if hit {
                    Verdict::Prune
                } else {
                    self.fifo_ptr[row] = (self.fifo_ptr[row] + 1) % self.cols as u32;
                    Verdict::Forward
                }
            }
        }
    }

    fn run<'v>(
        &mut self,
        entries: impl Iterator<Item = &'v [u64]>,
        emit: &mut impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        for (i, values) in entries.enumerate() {
            let raw = value_at(values, 0)?;
            emit(i, self.offer(raw));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- top-n

#[derive(Debug)]
struct TopNDetKernel {
    n: u64,
    /// `[count:32 | min:32]` warm-up register.
    packed: u64,
    counters: Vec<u64>,
}

impl TopNDetKernel {
    fn new(cfg: TopNDetConfig) -> Self {
        assert!(cfg.n > 0, "TOP 0 validated at plan time");
        Self { n: cfg.n as u64, packed: 0, counters: vec![0; cfg.w] }
    }

    fn run<'v>(
        &mut self,
        entries: impl Iterator<Item = &'v [u64]>,
        emit: &mut impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        let n = self.n;
        for (i, values) in entries.enumerate() {
            let v = value_at(values, 0)?.min(u64::from(u32::MAX));
            let count = self.packed >> 32;
            if count < n {
                let minv = self.packed & 0xFFFF_FFFF;
                let new_min = if count == 0 { v } else { minv.min(v) };
                self.packed = ((count + 1) << 32) | new_min;
                emit(i, Verdict::Forward);
                continue;
            }
            let t0 = self.packed & 0xFFFF_FFFF;
            let mut cut = t0;
            for (j, counter) in self.counters.iter_mut().enumerate() {
                let ti = mul_pow2(t0, (j + 1) as u32);
                if v > ti {
                    *counter += 1;
                }
                if *counter >= n {
                    cut = cut.max(ti);
                }
            }
            emit(i, if v < cut { Verdict::Prune } else { Verdict::Forward });
        }
        Ok(())
    }
}

#[derive(Debug)]
struct TopNRandKernel {
    rows: usize,
    cols: usize,
    row_rng: HashFn,
    arrival: u64,
    /// Row-major `rows × cols` rolling-minimum matrix.
    cells: Vec<u64>,
}

impl TopNRandKernel {
    fn new(cfg: TopNRandConfig) -> Self {
        assert!(cfg.rows > 0 && cfg.cols > 0, "matrix validated at plan time");
        Self {
            rows: cfg.rows,
            cols: cfg.cols,
            row_rng: HashFn::from_seed(cfg.seed),
            arrival: 0,
            cells: vec![0; cfg.rows * cfg.cols],
        }
    }

    fn run<'v>(
        &mut self,
        entries: impl Iterator<Item = &'v [u64]>,
        emit: &mut impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        for (i, values) in entries.enumerate() {
            let v = value_at(values, 0)?;
            self.arrival += 1;
            let row = self.row_rng.index(self.arrival, self.rows);
            let base = row * self.cols;
            let biased = v.saturating_add(1);
            let mut carry = biased;
            let mut inserted = false;
            let mut last_old = 0u64;
            for cell in &mut self.cells[base..base + self.cols] {
                let old = *cell;
                last_old = old;
                if carry > old {
                    *cell = carry;
                    inserted = true;
                    carry = old;
                }
            }
            let fwd = inserted || biased == last_old;
            emit(i, if fwd { Verdict::Forward } else { Verdict::Prune });
        }
        Ok(())
    }
}

// -------------------------------------------------------------- group by

#[derive(Debug)]
struct GroupByKernel {
    rows: usize,
    agg: AggKind,
    key_bits: u32,
    key_fp: HashFn,
    row_hashes: Vec<HashFn>,
    /// Column-major `cols × rows` cells: `cells[c * rows + row]`, each
    /// packed `[key+1 : 32 | value : 32]` (each column has its own hash).
    cells: Vec<u64>,
    /// Indices of cells that left the empty state since the last clear.
    /// A cell is written from zero exactly once per epoch (installs), so
    /// the journal holds each index at most once and a clear can zero
    /// only the touched cells instead of the whole matrix — the matrix
    /// is sized for worst-case key cardinality, not the typical run, and
    /// a full `fill(0)` of it would dominate a small shard's reset.
    touched: Vec<u32>,
}

impl GroupByKernel {
    fn new(cfg: GroupByConfig) -> Self {
        assert!(cfg.rows > 0 && cfg.cols > 0, "matrix validated at plan time");
        assert!((1..=31).contains(&cfg.key_bits), "key width validated at plan time");
        let fam = HashFamily::new(cfg.seed);
        Self {
            rows: cfg.rows,
            agg: cfg.agg,
            key_bits: cfg.key_bits,
            key_fp: HashFn::from_seed(cfg.seed ^ 0x9E37_79B9),
            row_hashes: (0..cfg.cols).map(|i| fam.function(i)).collect(),
            cells: vec![0; cfg.rows * cfg.cols],
            touched: Vec::new(),
        }
    }

    fn clear(&mut self) {
        // Sparse epochs (the common case: far fewer groups than cells)
        // zero only the journalled cells; dense ones fall back to the
        // straight memset, which is cheaper than chasing a journal that
        // covers most of the matrix anyway.
        if self.touched.len() * 4 < self.cells.len() {
            for &i in &self.touched {
                self.cells[i as usize] = 0;
            }
        } else {
            self.cells.fill(0);
        }
        self.touched.clear();
    }

    fn run<'v>(
        &mut self,
        entries: impl Iterator<Item = &'v [u64]>,
        emit: &mut impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        let rows = self.rows;
        for (i, values) in entries.enumerate() {
            let raw_key = value_at(values, 0)?;
            let v = value_at(values, 1)?.min(u64::from(u32::MAX));
            let key = self.key_fp.fingerprint(raw_key, self.key_bits) + 1;
            let mut matched: Option<u64> = None;
            let mut installed = false;
            for (c, hash) in self.row_hashes.iter().enumerate() {
                let row = hash.index(key, rows);
                let cell = &mut self.cells[c * rows + row];
                let old = *cell;
                let may_install = !installed && matched.is_none();
                if old >> 32 == key {
                    let merged = match self.agg {
                        AggKind::Max => (old & 0xFFFF_FFFF).max(v),
                        AggKind::Min => (old & 0xFFFF_FFFF).min(v),
                    };
                    *cell = (key << 32) | (merged & 0xFFFF_FFFF);
                    matched = Some(old & 0xFFFF_FFFF);
                    break;
                }
                if old == 0 && may_install {
                    *cell = (key << 32) | (v & 0xFFFF_FFFF);
                    self.touched.push((c * rows + row) as u32);
                    installed = true;
                }
            }
            let verdict = match matched {
                Some(best) => {
                    let prunable = match self.agg {
                        AggKind::Max => v <= best,
                        AggKind::Min => v >= best,
                    };
                    if prunable {
                        Verdict::Prune
                    } else {
                        Verdict::Forward
                    }
                }
                None => Verdict::Forward,
            };
            emit(i, verdict);
        }
        Ok(())
    }
}

// --------------------------------------------------------------- skyline

#[derive(Debug)]
struct SkylineKernel {
    dims: usize,
    policy: SkylinePolicy,
    aph: Option<ApproxLog>,
    /// Per-slot score `h + 1` (0 = empty).
    scores: Vec<u64>,
    /// Row-major `points × dims` stored coordinates.
    dims_cells: Vec<u64>,
    /// Scratch for the rolling displacement chain (no per-entry allocs).
    carry: Vec<u64>,
}

impl SkylineKernel {
    fn new(cfg: SkylineConfig) -> Self {
        assert!(cfg.dims >= 1 && cfg.points >= 1, "layout validated at plan time");
        let aph = match cfg.policy {
            SkylinePolicy::Aph { beta } => Some(ApproxLog::new_unchecked(beta, 64)),
            _ => None,
        };
        Self {
            dims: cfg.dims,
            policy: cfg.policy,
            aph,
            scores: vec![0; cfg.points],
            dims_cells: vec![0; cfg.points * cfg.dims],
            carry: vec![0; cfg.dims],
        }
    }

    #[inline]
    fn score(&mut self, x: &[u64]) -> u64 {
        let h = match self.policy {
            SkylinePolicy::Sum | SkylinePolicy::Baseline => {
                x.iter().fold(0u64, |acc, &v| acc.saturating_add(v))
            }
            SkylinePolicy::Aph { .. } => {
                let aph = self.aph.as_mut().expect("APH policy has an evaluator");
                x.iter().fold(0u64, |acc, &v| acc.saturating_add(aph.approx_log2(v)))
            }
        };
        h.saturating_add(1)
    }

    fn run<'v>(
        &mut self,
        entries: impl Iterator<Item = &'v [u64]>,
        emit: &mut impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        let d = self.dims;
        let baseline = matches!(self.policy, SkylinePolicy::Baseline);
        for (i, values) in entries.enumerate() {
            if values.len() < d {
                return Err(SwitchError::BadPacketShape { expected: d, got: values.len() });
            }
            let x = &values[..d];
            let hx = self.score(x);
            let mut carry_h = hx;
            self.carry.copy_from_slice(x);
            let mut stored_mine = false;
            let mut prune_mark = false;
            for (s, score) in self.scores.iter_mut().enumerate() {
                let cur = *score;
                let replaced = if baseline { cur == 0 } else { carry_h > cur };
                let slot_dims = &mut self.dims_cells[s * d..(s + 1) * d];
                if replaced {
                    *score = carry_h;
                    for (cell, c) in slot_dims.iter_mut().zip(self.carry.iter_mut()) {
                        std::mem::swap(cell, c);
                    }
                    if !stored_mine && carry_h == hx {
                        stored_mine = true; // the original point found a home
                    }
                    carry_h = cur;
                    if carry_h == 0 {
                        break; // displaced an empty slot
                    }
                } else if !stored_mine && !prune_mark && dominated(x, slot_dims) {
                    prune_mark = true;
                }
            }
            emit(i, if prune_mark { Verdict::Prune } else { Verdict::Forward });
        }
        Ok(())
    }
}

/// `x` dominated by `y` (maximization): every coordinate of `x` is ≤ `y`'s.
#[inline]
fn dominated(x: &[u64], y: &[u64]) -> bool {
    x.iter().zip(y).all(|(a, b)| a <= b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{BoolExpr, Predicate};
    use crate::planner::QuerySpec;
    use crate::pruner::StandalonePruner;
    use cheetah_switch::hash::mix64;
    use cheetah_switch::{ResourceLedger, SwitchProfile};

    /// Drive `spec`'s interpreted pruner and compiled kernel over the same
    /// entry stream as one run, asserting verdict-by-verdict equality.
    fn assert_oracle_parity(spec: &QuerySpec, stream: &[Vec<u64>]) {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino2());
        let mut pipeline = cheetah_switch::Pipeline::new();
        let program = crate::planner::build_into(spec, &mut ledger, &mut pipeline).unwrap();
        pipeline.bind_flow(0, program);
        let mut oracle = StandalonePruner::new(pipeline);
        let mut compiled = CompiledProgram::compile(spec).unwrap();

        let mut interpreted_verdicts = Vec::new();
        let mut compiled_verdicts = Vec::new();
        let entries = || stream.iter().map(Vec::as_slice);
        oracle.offer_run(0, entries(), |_, v| interpreted_verdicts.push(v)).unwrap();
        compiled.offer_run(0, entries(), |_, v| compiled_verdicts.push(v)).unwrap();
        assert_eq!(
            interpreted_verdicts,
            compiled_verdicts,
            "verdict divergence for {}",
            spec.kind()
        );
        let istats = oracle.stats();
        let cstats = compiled.stats();
        assert_eq!((istats.seen, istats.pruned), (cstats.seen, cstats.pruned), "{}", spec.kind());
    }

    fn unary_stream(len: usize, key_mod: u64, val_mod: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = mix64(x);
                let k = x % key_mod;
                x = mix64(x);
                vec![k, x % val_mod, x % 7]
            })
            .collect()
    }

    #[test]
    fn filter_kernel_matches_oracle() {
        for mode in [ExternalMode::Tautology, ExternalMode::WorkerComputed] {
            let spec = QuerySpec::Filter(FilterConfig::paper_example(mode));
            let mut x = 0xF17u64;
            let stream: Vec<Vec<u64>> = (0..4_000)
                .map(|_| {
                    x = mix64(x);
                    vec![x % 10, mix64(x) % 10, x % 2]
                })
                .collect();
            assert_oracle_parity(&spec, &stream);
        }
    }

    #[test]
    fn filter_kernel_complex_formula() {
        let cfg = FilterConfig {
            atoms: vec![
                AtomSpec::Switch(Predicate { col: 1, op: CmpOp::Gt, constant: 9_000 }),
                AtomSpec::Switch(Predicate { col: 2, op: CmpOp::Lt, constant: 50 }),
                AtomSpec::External { name: "key LIKE 'key-1%'".into() },
            ],
            expr: BoolExpr::Or(vec![
                BoolExpr::Atom(0),
                BoolExpr::And(vec![BoolExpr::Atom(1), BoolExpr::Atom(2)]),
            ]),
            external_mode: ExternalMode::Tautology,
        };
        let spec = QuerySpec::Filter(cfg);
        let mut x = 9u64;
        let stream: Vec<Vec<u64>> = (0..4_000)
            .map(|_| {
                x = mix64(x);
                vec![x, x % 12_000, mix64(x) % 100]
            })
            .collect();
        assert_oracle_parity(&spec, &stream);
    }

    #[test]
    fn distinct_kernel_matches_oracle() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Fifo] {
            for fingerprint in [None, Some(FingerprintSpec::new(31, 5))] {
                let spec = QuerySpec::Distinct(DistinctConfig {
                    rows: 64,
                    cols: 2,
                    policy,
                    fingerprint,
                    seed: 0xD,
                });
                let mut stream = unary_stream(6_000, 300, 1_000, 0xD15);
                stream.push(vec![u64::MAX, 0, 0]); // uncacheable sentinel
                assert_oracle_parity(&spec, &stream);
            }
        }
    }

    #[test]
    fn topn_kernels_match_oracle() {
        let det = QuerySpec::TopNDet(TopNDetConfig { n: 40, w: 4 });
        let rand = QuerySpec::TopNRand(TopNRandConfig { rows: 128, cols: 4, seed: 0x7 });
        let stream = unary_stream(8_000, u64::MAX, u64::MAX, 0x70);
        assert_oracle_parity(&det, &stream);
        assert_oracle_parity(&rand, &stream);
    }

    #[test]
    fn groupby_kernel_matches_oracle() {
        for agg in [AggKind::Max, AggKind::Min] {
            let spec = QuerySpec::GroupBy(GroupByConfig {
                rows: 32,
                cols: 4,
                agg,
                key_bits: 31,
                seed: 0x6B,
            });
            assert_oracle_parity(&spec, &unary_stream(8_000, 100, 1_000, 0x6B2));
        }
    }

    #[test]
    fn skyline_kernel_matches_oracle() {
        for policy in
            [SkylinePolicy::Sum, SkylinePolicy::Baseline, SkylinePolicy::Aph { beta: 1 << 8 }]
        {
            let spec =
                QuerySpec::Skyline(SkylineConfig { dims: 2, points: 6, policy, packed: true });
            let mut x = 5u64;
            let stream: Vec<Vec<u64>> = (0..6_000)
                .map(|_| {
                    x = mix64(x);
                    let a = x % 1_000 + 1;
                    x = mix64(x);
                    vec![a, x % 1_000 + 1]
                })
                .collect();
            assert_oracle_parity(&spec, &stream);
        }
    }

    #[test]
    fn clear_resets_kernel_state() {
        let spec = QuerySpec::Distinct(DistinctConfig {
            rows: 8,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 1,
        });
        let mut k = CompiledProgram::compile(&spec).unwrap();
        let entries = [vec![5u64], vec![5u64]];
        let mut verdicts = Vec::new();
        k.offer_run(0, entries.iter().map(|v| v.as_slice()), |_, v| verdicts.push(v)).unwrap();
        assert_eq!(verdicts, vec![Verdict::Forward, Verdict::Prune]);
        k.clear();
        verdicts.clear();
        k.offer_run(0, entries.iter().take(1).map(|v| v.as_slice()), |_, v| verdicts.push(v))
            .unwrap();
        assert_eq!(verdicts, vec![Verdict::Forward], "clear must reset the cache");
    }

    #[test]
    fn skyline_kernel_rejects_short_packets() {
        let spec = QuerySpec::Skyline(SkylineConfig {
            dims: 3,
            points: 2,
            policy: SkylinePolicy::Sum,
            packed: true,
        });
        let mut k = CompiledProgram::compile(&spec).unwrap();
        let entries = [vec![1u64, 2]];
        let err = k.offer_run(0, entries.iter().map(|v| v.as_slice()), |_, _| {});
        assert!(matches!(err, Err(SwitchError::BadPacketShape { expected: 3, got: 2 })));
    }

    #[test]
    fn multi_pass_families_have_no_kernel_and_kernels_have_no_phases() {
        let join = QuerySpec::Join(crate::JoinConfig::paper_default());
        let having = QuerySpec::Having(crate::HavingConfig {
            cm_rows: 3,
            cm_counters: 64,
            threshold: 500,
            agg: crate::HavingAgg::Sum,
            dedup_rows: 32,
            dedup_cols: 2,
            seed: 1,
        });
        for spec in [join, having] {
            let err = CompiledProgram::compile(&spec).unwrap_err();
            assert_eq!(err, crate::Error::NoKernel { family: spec.kind() });
        }
        let spec = QuerySpec::TopNDet(TopNDetConfig { n: 4, w: 2 });
        let mut k = CompiledProgram::compile(&spec).unwrap();
        assert!(matches!(
            PruneEngine::set_phase(&mut k, 2),
            Err(SwitchError::UnsupportedOp { .. })
        ));
    }
}
