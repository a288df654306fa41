//! The generic switch-pruned executor.
//!
//! One dataflow serves every query type (the paper's §4–§6 claim, made
//! structural): **plan → per-pass encode + switch pruning → master
//! completion**. The per-query contract is a
//! [`PruningOperator`] impl (see [`crate::operators`]); everything here is
//! query-agnostic:
//!
//! 1. [`PruningOperator::spec`] is planned onto the switch profile;
//! 2. one loop, for every [`PassPlan`] and both engines, takes each
//!    partition in turn: the operator's
//!    [`encode_part`](PruningOperator::encode_part) serializes it into the
//!    worker thread's flat scratch block — no per-row query work, exactly
//!    the CWorker of §7.1 — and the block streams through the installed
//!    plan via a [`PruneEngine`] (the interpreted [`StandalonePruner`] or
//!    a compiled kernel). What a pass keeps of a partition is the `u32`
//!    indices of the rows the switch forwarded (or HAVING announced a
//!    candidate key for), appended to its selection in [`Survivors`]: a
//!    survivor is a row id, and no entry is built;
//! 3. the master completes the unchanged query with
//!    [`PruningOperator::complete`], reading the true values of the
//!    selected rows straight from the tables (late materialization).
//!
//! In fault mode ([`Cluster::fault`]) one step sits between 2 and 3: every
//! row the run read crosses the simulated lossy rack as an entry packet,
//! through a switch that replays the run's verdicts and ACKs what it
//! prunes (§7.2), and the master completes over what was delivered.
//!
//! Worker and master phases are measured on real work; transfer volumes
//! feed `cheetah-net`'s [`ExecBreakdown`] byte model.

use crate::engine::{CheetahRun, Cluster};
use crate::operators::{PruningOperator, Survivors};
use crate::query::QueryOutput;
use crate::table::Table;
use cheetah_core::{
    planner, CompiledProgram, Error, PassPlan, PruneEngine, QuerySpec, StandalonePruner,
};
use cheetah_net::{
    ExecBackend, ExecBreakdown, FaultProfile, RackConfig, RackReport, TransferSim,
    ENTRY_WIRE_BYTES, MAX_ENTRY_SLOTS,
};
use cheetah_switch::{
    ControlMsg, Pipeline, ProgramId, ProgramStats, SwitchError, SwitchProfile, UsageSummary,
    Verdict,
};
use std::cell::RefCell;
use std::collections::HashSet;
use std::time::Instant;

/// One thread's installed compiled program: the spec and profile it was
/// planned against, the plan's resource verdict, and the kernel itself.
struct InstalledProgram {
    spec: QuerySpec,
    profile: SwitchProfile,
    usage: UsageSummary,
    engine: CompiledProgram,
}

thread_local! {
    /// The thread's last compiled program, kept warm between runs. The
    /// threads that run shard jobs are persistent — the thread that
    /// executes a plan (for a session, the `run_blocking` caller) and the
    /// pool workers that help it — so across a run's repetitions each
    /// re-executes the *same* spec against the *same* profile.
    /// Planning is deterministic, so the ledger verdict and usage are
    /// unchanged on a repeat — and the kernel re-arms with
    /// [`CompiledProgram::reset`]. This is the install-once, stream-many
    /// lifecycle of a real switch program: neither the interpreter's
    /// register file nor the kernel's is re-allocated per run.
    static COMPILED_CACHE: RefCell<Option<InstalledProgram>> = const { RefCell::new(None) };

    /// The thread's scratch block, kept warm for the same reason as the
    /// program cache.
    static SCRATCH: RefCell<Block> = const {
        RefCell::new(Block { buf: Vec::new(), offsets: Vec::new(), forwarded: Vec::new() })
    };
}

/// One partition's encoded rows, flat: row `r`'s value slots are
/// `buf[offsets[r]..offsets[r + 1]]`, and `forwarded` lists, ascending,
/// the rows the switch forwarded when the block was last offered — a
/// partition's selection in [`Survivors`], ready-made. Reused across
/// partitions, passes *and* runs on the same worker thread.
#[derive(Default)]
struct Block {
    buf: Vec<u64>,
    offsets: Vec<usize>,
    forwarded: Vec<u32>,
}

/// The data a query runs over: one table, or two for JOIN. Stream 0 is
/// the (left) table; stream 1, when present, the right.
#[derive(Debug, Clone, Copy)]
pub struct Tables<'a> {
    /// The (left) table.
    pub left: &'a Table,
    /// The right table of a binary query.
    pub right: Option<&'a Table>,
}

impl<'a> Tables<'a> {
    /// A unary query's source.
    pub fn unary(left: &'a Table) -> Self {
        Self { left, right: None }
    }

    /// A binary (JOIN) query's source.
    pub fn binary(left: &'a Table, right: &'a Table) -> Self {
        Self { left, right: Some(right) }
    }

    /// Number of streams the source carries (1, or 2 for binary).
    pub fn streams(&self) -> usize {
        1 + usize::from(self.right.is_some())
    }

    /// The table feeding stream `i`, or a typed [`Error::MissingStream`]
    /// when the source does not carry it — a misconfigured binary-join
    /// shard plan over a unary source fails loudly but cleanly, never
    /// panics.
    pub fn stream(&self, i: usize) -> cheetah_core::Result<&'a Table> {
        match i {
            0 => Ok(self.left),
            1 => self.right.ok_or(Error::MissingStream { stream: i }),
            _ => Err(Error::MissingStream { stream: i }),
        }
    }
}

/// The interpreted oracle behind the [`PruneEngine`] seam: a
/// [`StandalonePruner`]-wrapped [`Pipeline`] plus the program handle its
/// control messages address. The compiled twin is
/// [`CompiledProgram`]; `run_on` is generic over both, so the
/// four-arm pass logic exists exactly once.
struct InterpretedEngine {
    pruner: StandalonePruner<Pipeline>,
    program: ProgramId,
}

impl PruneEngine for InterpretedEngine {
    fn offer_run<'v>(
        &mut self,
        fid: u32,
        entries: impl Iterator<Item = &'v [u64]>,
        sink: impl FnMut(usize, Verdict),
    ) -> cheetah_switch::Result<()> {
        self.pruner.offer_run(fid, entries, sink)
    }

    fn set_phase(&mut self, phase: u8) -> cheetah_switch::Result<()> {
        self.pruner.program_mut().control(self.program, &ControlMsg::SetPhase(phase))
    }

    fn stats(&self) -> ProgramStats {
        self.pruner.program().stats(self.program)
    }
}

impl Cluster {
    /// Drive any [`PruningOperator`] through the full Cheetah dataflow, its
    /// entries judged by `backend`.
    ///
    /// This is the seam that makes the next query type a one-file change:
    /// implement the operator, call `execute`.
    pub fn execute<O: PruningOperator>(
        &self,
        op: &O,
        tables: &Tables<'_>,
        backend: ExecBackend,
    ) -> cheetah_core::Result<CheetahRun> {
        // Plan the switch program. The interpreted plan is the
        // resource-validation oracle (ledger, rules, install time) even
        // when a compiled kernel will run the entries — but planning is
        // deterministic, so a worker that just validated this exact
        // (spec, profile) reuses its installed program and verdict
        // instead of re-planning per repetition.
        let spec = op.spec()?;
        let hit = |p: &mut InstalledProgram| p.spec == spec && p.profile == self.profile;
        let compiled = backend == ExecBackend::Compiled;
        let installed = compiled.then(|| COMPILED_CACHE.with(|c| c.borrow_mut().take_if(hit)));
        let (usage, mut kernel, profile) = match installed.flatten() {
            Some(mut installed) => {
                installed.engine.reset();
                (installed.usage, installed.engine, installed.profile)
            }
            None => {
                let planner::Plan { pipeline, program, usage, .. } =
                    planner::plan(&spec, self.profile.clone())?;
                // Kernels exist for single-pass families only: JOIN and
                // HAVING run the interpreter whatever was asked for, and
                // `breakdown.backend` records what ran.
                let kernel = compiled.then(|| CompiledProgram::compile(&spec).ok());
                let Some(kernel) = kernel.flatten() else {
                    let pruner = StandalonePruner::new(pipeline);
                    let mut engine = InterpretedEngine { pruner, program };
                    let backend = ExecBackend::Interpreted;
                    return run_on(&mut engine, backend, op, tables, usage.rules, self.fault);
                };
                (usage, kernel, self.profile.clone())
            }
        };
        let run = run_on(&mut kernel, ExecBackend::Compiled, op, tables, usage.rules, self.fault)?;
        // Park the kernel for this thread's next run of (spec, profile),
        // beside the profile it was planned against: a hit re-parks its own.
        let installed = InstalledProgram { spec, profile, usage, engine: kernel };
        COMPILED_CACHE.with(|c| *c.borrow_mut() = Some(installed));
        Ok(run)
    }
}

/// The worker side of a run: the paper's CWorkers, one per partition,
/// serializing their rows into the thread's scratch block.
struct Workers<'o, 'a, O> {
    op: &'o O,
    tables: &'o Tables<'a>,
    block: Block,
    /// See [`ExecBreakdown::worker_seconds`].
    worker_seconds: f64,
    /// The largest per-partition entry count across all streams — the
    /// worker-wire unit of the byte model.
    max_worker_entries: u64,
}

impl<O: PruningOperator> Workers<'_, '_, O> {
    /// One pass of the workers over stream `s`: encode each non-empty
    /// partition into the block and hand it to `visit`, which returns any
    /// further worker-side seconds it spent on it. CWorkers run in
    /// parallel, so the pass adds its *slowest* partition to
    /// `worker_seconds`, however the partitions were scheduled here.
    fn each_block(
        &mut self,
        s: usize,
        mut visit: impl FnMut(usize, &mut Block) -> cheetah_core::Result<f64>,
    ) -> cheetah_core::Result<()> {
        let mut slowest = 0.0f64;
        for (pi, part) in self.tables.stream(s)?.partitions().iter().enumerate() {
            let rows = part.rows();
            self.max_worker_entries = self.max_worker_entries.max(rows as u64);
            if rows == 0 {
                continue;
            }
            let Block { buf, offsets, .. } = &mut self.block;
            let t0 = Instant::now();
            buf.clear();
            offsets.clear();
            offsets.push(0);
            let mut widest = 0;
            self.op.encode_part(s, part, &mut |slots| {
                widest = widest.max(slots.len());
                buf.extend_from_slice(slots);
                offsets.push(buf.len());
            });
            let encode_seconds = t0.elapsed().as_secs_f64();
            // A malformed operator is a typed error, never a panic on a
            // pool thread: too many slots for an entry header, or a sink
            // not called exactly once per row.
            if widest > MAX_ENTRY_SLOTS {
                return Err(Error::ValueSlotOverflow { got: widest, max: MAX_ENTRY_SLOTS });
            }
            let encoded = self.block.offsets.len() - 1;
            if encoded != rows {
                return Err(Error::EncodedRowMismatch { rows, encoded });
            }
            slowest = slowest.max(encode_seconds + visit(pi, &mut self.block)?);
        }
        self.worker_seconds += slowest;
        Ok(())
    }

    /// One switch pass over stream `s`: every block goes through `engine`
    /// as one run of the stream's flow (one flow lookup per partition, not
    /// per entry), then to `forwarded` with the forwarded rows listed.
    /// No [`ExecBreakdown`] phase holds the simulated switch's CPU time (a
    /// real switch prunes at line rate), but that time is on the wall
    /// clock and in the process CPU the arm census reads.
    fn offer<E: PruneEngine>(
        &mut self,
        engine: &mut E,
        s: usize,
        mut forwarded: impl FnMut(usize, &Block) -> cheetah_core::Result<()>,
    ) -> cheetah_core::Result<()> {
        let fid = self.op.flow_id(s);
        self.each_block(s, |pi, block| {
            let Block { buf, offsets, forwarded: kept } = &mut *block;
            kept.clear();
            engine.offer_run(fid, offsets.windows(2).map(|w| &buf[w[0]..w[1]]), |i, v| {
                if v == Verdict::Forward {
                    kept.push(i as u32);
                }
            })?;
            forwarded(pi, block)?;
            Ok(0.0)
        })
    }
}

/// What a pruning pass over stream `s` keeps of each partition: the rows
/// the switch forwarded, as they stand in the block.
fn keep_forwarded(
    survivors: &mut Survivors,
    s: usize,
) -> impl FnMut(usize, &Block) -> cheetah_core::Result<()> + '_ {
    move |pi, block| {
        survivors.keep(s, pi, &block.forwarded);
        Ok(())
    }
}

/// The one encode → prune loop, then the master: stream the source
/// through `engine`, pass by pass, per the operator's [`PassPlan`], and
/// complete the unchanged query on the survivors — in fault mode, on what
/// the rack delivered of them ([`carry`]). Every pass re-encodes its
/// partitions into the one scratch block — as the paper's workers
/// re-stream their data per pass — so a run holds a block and its
/// survivors' row ids, never a materialized stream.
fn run_on<O: PruningOperator, E: PruneEngine>(
    engine: &mut E,
    backend: ExecBackend,
    op: &O,
    tables: &Tables<'_>,
    rules: usize,
    fault: Option<(FaultProfile, u64)>,
) -> cheetah_core::Result<CheetahRun> {
    // Shaping the selections is the arity check: an operator with more
    // streams than the source carries is refused before any row is encoded.
    let streams = op.streams();
    let mut survivors = Survivors::none(tables, streams)?;
    let block = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let mut w = Workers { op, tables, block, worker_seconds: 0.0, max_worker_entries: 0 };
    match op.pass_plan() {
        PassPlan::Single => {
            for s in 0..streams {
                w.offer(engine, s, keep_forwarded(&mut survivors, s))?;
            }
        }
        PassPlan::BuildThenPrune => {
            // Pass 1: build filters (stream consumed at the switch).
            for s in 0..streams {
                w.offer(engine, s, |_, _| Ok(()))?;
            }
            engine.set_phase(2)?;
            // Pass 2: prune every stream.
            for s in 0..streams {
                w.offer(engine, s, keep_forwarded(&mut survivors, s))?;
            }
        }
        PassPlan::FirstBuildsThenPruneSecond => {
            // Stream 0 streams once: unpruned, building its filter on the
            // way through.
            w.offer(engine, 0, keep_forwarded(&mut survivors, 0))?;
            engine.set_phase(2)?;
            // Stream 1 is pruned against the filter.
            w.offer(engine, 1, keep_forwarded(&mut survivors, 1))?;
        }
        PassPlan::CandidateKeys { key_slot } => {
            // A malformed operator that encodes fewer slots than its own
            // plan's key slot must surface as a typed error, not a panic.
            let key_of = |row: &[u64]| {
                let short = SwitchError::BadPacketShape { expected: key_slot + 1, got: row.len() };
                row.get(key_slot).copied().ok_or(short)
            };
            // Pass 1: sketch + candidate announcements.
            let mut candidates: HashSet<u64> = HashSet::new();
            w.offer(engine, 0, |_, block| {
                for &r in &block.forwarded {
                    let slots = block.offsets[r as usize]..block.offsets[r as usize + 1];
                    candidates.insert(key_of(&block.buf[slots])?);
                }
                Ok(())
            })?;
            // Pass 2 (partial): workers re-stream only the entries of
            // announced keys, listed like forwarded rows; the selection is
            // worker-side time, and the switch is not involved.
            w.each_block(0, |pi, block| {
                let t0 = Instant::now();
                let Block { buf, offsets, forwarded: announced } = &mut *block;
                announced.clear();
                for (r, w) in offsets.windows(2).enumerate() {
                    if candidates.contains(&key_of(&buf[w[0]..w[1]])?) {
                        announced.push(r as u32);
                    }
                }
                survivors.keep(0, pi, announced);
                Ok(t0.elapsed().as_secs_f64())
            })?;
        }
    }
    let Workers { block, worker_seconds, max_worker_entries, .. } = w;
    SCRATCH.with(|s| *s.borrow_mut() = block);
    let (survivors, rack) = match fault {
        Some(fault) => carry(op, tables, &survivors, fault)?,
        None => (survivors, RackReport::default()),
    };

    // Master: complete the unchanged query on the survivors.
    let t0 = Instant::now();
    let output = op.complete(tables, &survivors);
    let master_seconds = t0.elapsed().as_secs_f64();
    let survivor_count = survivors.count();
    let passes = op.pass_plan().wire_passes();
    Ok(CheetahRun {
        output,
        breakdown: ExecBreakdown {
            worker_seconds,
            master_seconds,
            // Every row crosses the worker wire once per pass, pruned or not.
            worker_wire_bytes: max_worker_entries * ENTRY_WIRE_BYTES * passes as u64,
            master_wire_bytes: survivor_count * ENTRY_WIRE_BYTES,
            entries_to_master: survivor_count,
            passes,
            backend,
            retransmits: rack.retransmissions,
            switch_acks: rack.switch_acks,
            // One unsharded run: no plan, no modelled ingest.
            ..ExecBreakdown::default()
        },
        switch_stats: engine.stats(),
        rules,
    })
}

/// Fault mode (§7.2): carry every row of every stream `op` read across the
/// seeded lossy rack of `cheetah_net::rack` ([`TransferSim`]), and return
/// what reached the master — the selection it completes over — beside the
/// rack's report.
///
/// Each (stream, partition) is one flow and each row one entry packet of
/// the slots the operator's own
/// [`encode_part`](PruningOperator::encode_part) gives it. The switch
/// forwards an in-order entry iff `kept` selected its row and ACKs the
/// rest: it replays the verdicts the run reached, in sequence order, so
/// over the identity selection (the direct arm) it forwards every entry.
/// The master's delivered sequence numbers are a superset of `kept` — a
/// pruned entry whose ACK was lost comes through stale — so completing
/// over them answers exactly.
///
/// What the rack judges is each stream's *final* selection, a modelling
/// choice for the two multi-pass families. HAVING's rows are carried as
/// their pass-1 encodings (the one encoding a row has), and the switch
/// forwards the announced keys' rows — what pass 2 re-streams, past the
/// switch. A JOIN's streams are each carried once, with the selection of
/// their pruning pass: a filter-building pass ends at the switch.
fn carry<O: PruningOperator>(
    op: &O,
    tables: &Tables<'_>,
    kept: &Survivors,
    (faults, seed): (FaultProfile, u64),
) -> cheetah_core::Result<(Survivors, RackReport)> {
    // The workers' own encode loop, on a clock of its own: the rows cross
    // the rack in the pass the run already timed.
    let mut w =
        Workers { op, tables, block: Block::default(), worker_seconds: 0.0, max_worker_entries: 0 };
    let (mut flows, mut forwards, mut at) = (Vec::new(), Vec::new(), Vec::new());
    for s in 0..op.streams() {
        let first = flows.len();
        for (pi, (part, sel)) in kept.parts(tables, s).enumerate() {
            let mut forward = vec![false; part.rows()];
            sel.rows().for_each(|r| forward[r] = true);
            flows.push(Vec::new());
            forwards.push(forward);
            at.push((s, pi));
        }
        w.each_block(s, |pi, Block { buf, offsets, .. }| {
            flows[first + pi] = offsets.windows(2).map(|o| buf[o[0]..o[1]].to_vec()).collect();
            Ok(0.0)
        })?;
    }
    let entries = flows.iter().map(|f| f.len() as u64).sum();
    // Entry `seq` of flow `fid` is row `seq − 1` of its partition.
    let replay = |fid: u32, seq: u64, _: &[u64]| {
        if forwards[fid as usize][(seq - 1) as usize] {
            Verdict::Forward
        } else {
            Verdict::Prune
        }
    };
    let cfg = RackConfig { faults, seed, ..RackConfig::default() };
    let carried = TransferSim::new(cfg, flows, replay).run();
    if !carried.rack.completed {
        return Err(Error::FabricStalled { delivered: carried.rack.delivered_units, entries });
    }
    let mut delivered = Survivors::none(tables, op.streams())?;
    for ((s, pi), seqs) in at.into_iter().zip(&carried.delivered) {
        let rows: Vec<u32> = seqs.iter().map(|&seq| seq as u32 - 1).collect();
        delivered.keep(s, pi, &rows);
    }
    Ok((delivered, carried.rack))
}

/// The direct arm ([`Cluster::run_direct`]): complete the query over the
/// identity selection — every row, held as row counts, so each completion
/// scans its columns; no plan, no encode, no switch — and account the run
/// as a worker computing a partial that a pass-through switch forwards
/// whole. What it ships is the partial's result rows
/// ([`QueryOutput::result_rows`](crate::QueryOutput::result_rows)) — or
/// the rows it read, where those are fewer: a fan-out join's pairs
/// outnumber its inputs, and it would ship the inputs. Those are the
/// entries seen, forwarded and delivered; every counter is a function of
/// the data, so it is finite, bounded by the input and repeats exactly.
/// In fault mode every row read crosses the rack ([`carry`]), forwarded
/// whole, and those are the entries delivered; the pass-through counters
/// stay the partial's.
pub(crate) fn complete_all<O: PruningOperator>(
    op: &O,
    tables: &Tables<'_>,
    fault: Option<(FaultProfile, u64)>,
) -> cheetah_core::Result<CheetahRun> {
    let all = Survivors::all(tables, op.streams())?;
    let rows = all.count();
    // The rack runs on a clock of its own, as on the pruned arm.
    let (selection, rack) = match fault {
        Some(fault) => carry(op, tables, &all, fault)?,
        None => (all, RackReport::default()),
    };
    let t0 = Instant::now();
    let output = op.complete(tables, &selection);
    let worker_seconds = t0.elapsed().as_secs_f64();
    let delivered = fault.map(|_| selection.count());
    Ok(direct_run(output, rows, worker_seconds, delivered, rack))
}

/// A direct run's accounting: a worker that read `rows` rows computed
/// `output` in `worker_seconds` and shipped its result rows (or the rows
/// it read, where those are fewer) through a pass-through switch. In
/// fault mode the master's entries are the rows `delivered`, and `rack`
/// reports what carrying them cost.
pub(crate) fn direct_run(
    output: QueryOutput,
    rows: u64,
    worker_seconds: f64,
    delivered: Option<u64>,
    rack: RackReport,
) -> CheetahRun {
    let shipped = output.result_rows().min(rows);
    let entries = delivered.unwrap_or(shipped);
    CheetahRun {
        output,
        breakdown: ExecBreakdown {
            worker_seconds,
            worker_wire_bytes: shipped * ENTRY_WIRE_BYTES,
            master_wire_bytes: entries * ENTRY_WIRE_BYTES,
            entries_to_master: entries,
            passes: 1,
            retransmits: rack.retransmissions,
            switch_acks: rack.switch_acks,
            ..ExecBreakdown::default()
        },
        switch_stats: ProgramStats { seen: shipped, pruned: 0, forwarded: shipped },
        rules: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{Partial, Selected};
    use crate::query::DbQuery;
    use crate::table::Partition;
    use crate::testutil::{all_queries, test_table};

    const INTERP: ExecBackend = ExecBackend::Interpreted;

    #[test]
    fn cheetah_output_equals_baseline_for_every_query() {
        // THE correctness contract: Q(A_Q(D)) = Q(D).
        let cluster = Cluster::default();
        let t = test_table(5_000, 4);
        for q in all_queries() {
            let base = cluster.run_baseline(&q, &t, None);
            let chee = cluster.run_cheetah(&q, &t, None, INTERP).unwrap();
            assert_eq!(base.output, chee.output, "mismatch for {}", q.kind());
        }
    }

    #[test]
    fn switch_prunes_a_meaningful_fraction() {
        let cluster = Cluster::default();
        let t = test_table(20_000, 4);
        let chee = cluster.run_cheetah(&DbQuery::Distinct { col: 0 }, &t, None, INTERP).unwrap();
        // 50 distinct agents over 20k rows: pruning should be massive.
        assert!(
            chee.switch_stats.pruned_fraction() > 0.95,
            "pruned only {}",
            chee.switch_stats.pruned_fraction()
        );
        assert!(chee.breakdown.entries_to_master < 1_000);
    }

    #[test]
    fn cheetah_sends_more_wire_bytes_but_fewer_survive() {
        let cluster = Cluster::default();
        let t = test_table(20_000, 4);
        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let base = cluster.run_baseline(&q, &t, None);
        let chee = cluster.run_cheetah(&q, &t, None, INTERP).unwrap();
        // Cheetah streams everything uncompressed through the switch…
        assert!(chee.breakdown.worker_wire_bytes > base.breakdown.worker_wire_bytes);
        // …but the master sees a pruned stream.
        assert!(chee.switch_stats.pruned > 0);
    }

    #[test]
    fn rules_stay_in_paper_range() {
        let cluster = Cluster::default();
        let t = test_table(1_000, 2);
        for q in all_queries() {
            let chee = cluster.run_cheetah(&q, &t, None, INTERP).unwrap();
            assert!(chee.rules <= 30, "{}: {} rules", q.kind(), chee.rules);
        }
    }

    /// A deliberately malformed operator over the DISTINCT program: emits
    /// `slots` for each of the first `rows − skip` rows of a partition.
    /// The executor must surface a typed error, not panic.
    struct MalformedOp {
        slots: &'static [u64],
        skip: usize,
        pass_plan: PassPlan,
    }

    impl PruningOperator for MalformedOp {
        fn kind(&self) -> &'static str {
            "malformed"
        }
        fn spec(&self) -> cheetah_core::Result<QuerySpec> {
            Ok(QuerySpec::Distinct(cheetah_core::DistinctConfig {
                rows: 64,
                cols: 2,
                policy: cheetah_core::EvictionPolicy::Lru,
                fingerprint: None,
                seed: 1,
            }))
        }
        fn pass_plan(&self) -> PassPlan {
            self.pass_plan
        }
        fn encode_part(&self, _stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
            for _ in self.skip..part.rows() {
                sink(self.slots);
            }
        }
        fn fold(&self, _src: &Tables<'_>, _survivors: &Survivors) -> Partial {
            Partial::Whole(QueryOutput::Count(0))
        }
    }

    /// `op` over a 10-row partition on both engines: they run the one
    /// loop, so they must agree — on the refusal, or on the run's output.
    fn on_both_backends(op: &MalformedOp) -> cheetah_core::Result<QueryOutput> {
        let t = test_table(10, 1);
        let [interp, compiled] = [ExecBackend::Interpreted, ExecBackend::Compiled].map(|b| {
            let run = Cluster::default().execute(op, &Tables::unary(&t), b);
            run.map(|r| r.output)
        });
        assert_eq!(interp, compiled);
        interp
    }

    fn malformed_error(op: &MalformedOp) -> Error {
        on_both_backends(op).unwrap_err()
    }

    #[test]
    fn malformed_operator_yields_typed_error_not_panic() {
        // More value slots than an entry carries.
        let op = MalformedOp { slots: &[1, 2, 3, 4, 5, 6], skip: 0, pass_plan: PassPlan::Single };
        assert_eq!(malformed_error(&op), Error::ValueSlotOverflow { got: 6, max: 4 });
        // The bound has two sides: five is refused, four runs.
        let five = MalformedOp { slots: &[1, 2, 3, 4, 5], ..op };
        assert_eq!(malformed_error(&five), Error::ValueSlotOverflow { got: 5, max: 4 });
        let four = MalformedOp { slots: &[1, 2, 3, 4], ..op };
        assert_eq!(on_both_backends(&four), Ok(QueryOutput::Count(0)));
    }

    #[test]
    fn miscounting_encoder_is_a_typed_error_not_a_pool_thread_panic() {
        // The sink is called for `rows − 1` rows of a 10-row partition.
        let op = MalformedOp { slots: &[7], skip: 1, pass_plan: PassPlan::Single };
        assert_eq!(malformed_error(&op), Error::EncodedRowMismatch { rows: 10, encoded: 9 });
    }

    /// A real operator with its `complete` swapped for a look at what the
    /// executor hands it: every selection strictly ascending and inside
    /// its partition, one per partition. Answers the rows it was handed.
    struct Probe<O>(O);

    impl<O: PruningOperator> PruningOperator for Probe<O> {
        fn kind(&self) -> &'static str {
            self.0.kind()
        }
        fn spec(&self) -> cheetah_core::Result<QuerySpec> {
            self.0.spec()
        }
        fn streams(&self) -> usize {
            self.0.streams()
        }
        fn pass_plan(&self) -> PassPlan {
            self.0.pass_plan()
        }
        fn encode_part(&self, stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
            self.0.encode_part(stream, part, sink)
        }
        fn fold(&self, src: &Tables<'_>, survivors: &Survivors) -> Partial {
            let mut handed = 0;
            for s in 0..self.streams() {
                let parts = src.stream(s).unwrap().partitions().len();
                assert_eq!(survivors.parts(src, s).count(), parts, "one selection per partition");
                for (part, sel) in survivors.parts(src, s) {
                    let rows: Vec<usize> = sel.rows().collect();
                    assert!(rows.windows(2).all(|w| w[0] < w[1]), "not ascending: {sel:?}");
                    assert!(rows.last().is_none_or(|&r| r < part.rows()), "out of range");
                    if let Selected::All(n) = sel {
                        assert_eq!(n, part.rows(), "the identity is every row");
                    }
                    handed += sel.count() as u64;
                }
            }
            Partial::Whole(QueryOutput::Count(handed))
        }
    }

    #[test]
    fn survivors_are_ascending_in_range_selections_that_sum_to_the_entries_sent() {
        let cluster = Cluster::default();
        let t = test_table(4_000, 4);
        let tuning = &cluster.tuning;

        // The trait's defaults describe a unary single-pass query…
        let single = Probe(crate::operators::DistinctOp::new(0, tuning));
        assert_eq!((single.0.streams(), single.0.flow_id(0)), (1, 0));
        assert_eq!(single.0.pass_plan(), PassPlan::Single);
        let run = cluster.execute(&single, &Tables::unary(&t), INTERP).unwrap();
        assert_eq!(run.output, QueryOutput::Count(run.breakdown.entries_to_master));
        assert_eq!(run.output, QueryOutput::Count(run.switch_stats.forwarded));
        assert!((50..4_000).contains(&run.breakdown.entries_to_master), "pruned, not emptied");

        // …and JOIN overrides them: two streams on flows 0 and 1. Pass 1's
        // verdicts build filters; only pass 2's rows are kept.
        let join = Probe(crate::operators::JoinOp::new(0, 0, tuning));
        assert_eq!((join.0.streams(), join.0.flow_id(0), join.0.flow_id(1)), (2, 0, 1));
        assert_eq!(join.0.pass_plan(), PassPlan::BuildThenPrune);
        let run = cluster.execute(&join, &Tables::binary(&t, &t), INTERP).unwrap();
        assert_eq!(run.output, QueryOutput::Count(run.breakdown.entries_to_master));
        assert_eq!(run.breakdown.entries_to_master, 8_000, "self-join: every key has a partner");

        // What is kept is the rows of announced keys, not what pass 1
        // forwarded (one announcement per key).
        let having = Probe(crate::operators::HavingSumOp::new(0, 1, 50_000, tuning));
        assert_eq!(having.0.pass_plan(), PassPlan::CandidateKeys { key_slot: 0 });
        let run = cluster.execute(&having, &Tables::unary(&t), INTERP).unwrap();
        assert_eq!(run.output, QueryOutput::Count(run.breakdown.entries_to_master));
        assert!(run.breakdown.entries_to_master > run.switch_stats.forwarded);

        // The direct arm hands over the identity: every row, as row counts.
        let all = complete_all(&join, &Tables::binary(&t, &t), None).unwrap();
        assert_eq!(all.output, QueryOutput::Count(8_000));
    }

    #[test]
    fn out_of_range_stream_is_a_typed_error_not_a_panic() {
        let t = test_table(10, 1);
        let tables = Tables::unary(&t);
        assert!(tables.stream(0).is_ok());
        assert_eq!(tables.stream(1).unwrap_err(), Error::MissingStream { stream: 1 });
        assert_eq!(tables.stream(7).unwrap_err(), Error::MissingStream { stream: 7 });
        assert_eq!(Tables::binary(&t, &t).streams(), 2);
        assert!(Tables::binary(&t, &t).stream(1).is_ok());
    }

    #[test]
    fn binary_operator_over_unary_source_fails_loudly_but_cleanly() {
        // The misconfigured-shard-plan case: a JOIN operator (2 streams)
        // pointed at a source carrying only one table.
        let cluster = Cluster::default();
        let t = test_table(10, 1);
        let op = crate::operators::JoinOp::new(0, 0, &cluster.tuning);
        let err = cluster.execute(&op, &Tables::unary(&t), INTERP).unwrap_err();
        assert_eq!(err, Error::MissingStream { stream: 1 });
    }

    #[test]
    fn candidate_key_slot_out_of_range_is_a_typed_error() {
        // Malformed in the other direction: the operator's own pass plan
        // names a key slot its encoder never fills.
        let op = MalformedOp {
            slots: &[7],
            skip: 0,
            pass_plan: PassPlan::CandidateKeys { key_slot: 3 },
        };
        assert_eq!(
            malformed_error(&op),
            Error::Switch(SwitchError::BadPacketShape { expected: 4, got: 1 })
        );
    }
}
