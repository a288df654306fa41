//! The pluggable operator contract behind the generic pruned executor.
//!
//! The paper's central observation (§4–§6) is that **one** switch dataflow
//! serves every query type: workers *serialize* the queried columns into
//! entry-per-packet streams, the switch *prunes* at line rate, and the
//! master *completes* the unmodified query on the survivors. What differs
//! per query is only
//!
//! 1. which switch program to install ([`PruningOperator::spec`]),
//! 2. how a partition's rows become packet value slots
//!    ([`PruningOperator::encode_part`] — the one encoder),
//! 3. how the master finishes the query ([`PruningOperator::complete`]),
//! 4. and the *pass structure* — single pass, JOIN's build-then-prune,
//!    or HAVING's candidate announcement ([`PassPlan`]).
//!
//! [`PruningOperator`] captures exactly that contract. The executor (in
//! `cheetah-db`) drives plan → per-pass encode + switch pruning → master
//! completion generically, so adding a query type is one operator impl —
//! not a hand-rolled copy of the whole pipeline.
//!
//! The trait is generic over the source `S` (a table, a pair of tables —
//! owned by the engine layer) and the entry type `E` (owned by the wire
//! layer), so this crate stays free of both dependencies.

use crate::planner::QuerySpec;

/// A serialized entry flowing through the pruning dataflow: the identity
/// of the row it came from plus the encoded packet value slots.
///
/// Implemented by `cheetah_net::Encoded`; kept abstract here so operator
/// completions can be written against the contract alone.
pub trait PacketEntry: Copy {
    /// Entry identity as `(partition, row)`.
    fn id(&self) -> (usize, usize);
    /// The encoded packet value slots.
    fn values(&self) -> &[u64];
}

/// How the executor drives a plan's passes over the serialized streams.
///
/// These are the pass structures §4–§6 of the paper need; they are data,
/// not code, so the multi-pass loops live once in the executor instead of
/// being re-rolled per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassPlan {
    /// One pruning pass: every stream is judged against its flow id.
    Single,
    /// Pass 1 streams everything to build switch state (verdicts are
    /// ignored), a phase switch, then pass 2 prunes every stream —
    /// JOIN's two-pass Bloom structure (§4.3).
    BuildThenPrune,
    /// Stream 0 builds its filter *and* forwards in a single pass; after
    /// a phase switch only stream 1 is pruned — JOIN small-table-first:
    /// each table streams exactly once (§4.3).
    FirstBuildsThenPruneSecond,
    /// Pass 1 announces candidate keys (slot `key_slot` of forwarded
    /// entries); pass 2 re-streams only the entries whose key was
    /// announced — HAVING's Count-Min candidate structure (§4.3).
    CandidateKeys {
        /// The value slot holding the candidate key.
        key_slot: usize,
    },
}

impl PassPlan {
    /// Wire passes the busiest worker pays under this plan (the factor on
    /// its uplink bytes).
    pub fn wire_passes(self) -> u8 {
        match self {
            // Small-table-first is the point of that mode: each table
            // streams exactly once.
            PassPlan::Single | PassPlan::FirstBuildsThenPruneSecond => 1,
            PassPlan::BuildThenPrune | PassPlan::CandidateKeys { .. } => 2,
        }
    }
}

/// The per-query contract of the Cheetah dataflow: build a [`QuerySpec`],
/// encode rows into packet value slots, complete the query from the
/// survivors on the master.
///
/// `S` is the data source (e.g. one table, or two for JOIN) and `E` the
/// serialized entry type.
pub trait PruningOperator<S: ?Sized, E: PacketEntry> {
    /// The completed, master-side output.
    type Output;

    /// Short name for diagnostics and reports.
    fn kind(&self) -> &'static str;

    /// The switch-side query specification to plan and install.
    fn spec(&self) -> crate::Result<QuerySpec>;

    /// Number of input streams (1; 2 for JOIN).
    fn streams(&self) -> usize {
        1
    }

    /// Flow id the entries of stream `stream` carry on the wire. The
    /// default matches the planner's binding convention (stream 0 → flow
    /// 0, JOIN's side B → flow 1).
    fn flow_id(&self, stream: usize) -> u32 {
        stream as u32
    }

    /// The pass structure the executor drives.
    fn pass_plan(&self) -> PassPlan {
        PassPlan::Single
    }

    /// Encode every row of partition `part` of stream `stream`, calling
    /// `sink` exactly once per row, in row order, with that row's value
    /// slots. The executor calls it once per partition and pass, so an
    /// operator resolves its column types (and anything else that is the
    /// same for every row) once, outside the row loop — and does no
    /// per-row query work: CWorkers only serialize (§7.1).
    fn encode_part(
        &self,
        src: &S,
        stream: usize,
        part: usize,
        rows: usize,
        sink: &mut dyn FnMut(&[u64]),
    );

    /// Complete the query on the master from the per-stream survivors.
    fn complete(&self, src: &S, survivors: &[Vec<E>]) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal entry for contract-level tests.
    #[derive(Clone, Copy)]
    struct TestEntry {
        row: usize,
        val: [u64; 1],
    }

    impl PacketEntry for TestEntry {
        fn id(&self) -> (usize, usize) {
            (0, self.row)
        }
        fn values(&self) -> &[u64] {
            &self.val
        }
    }

    /// A toy operator over a plain slice source: "sum the survivors".
    struct SumOp;

    impl PruningOperator<[u64], TestEntry> for SumOp {
        type Output = u64;
        fn kind(&self) -> &'static str {
            "sum"
        }
        fn spec(&self) -> crate::Result<QuerySpec> {
            Ok(QuerySpec::Distinct(crate::DistinctConfig {
                rows: 8,
                cols: 1,
                policy: crate::EvictionPolicy::Lru,
                fingerprint: None,
                seed: 1,
            }))
        }
        fn encode_part(
            &self,
            src: &[u64],
            _stream: usize,
            _part: usize,
            rows: usize,
            sink: &mut dyn FnMut(&[u64]),
        ) {
            for v in &src[..rows] {
                sink(&[*v]);
            }
        }
        fn complete(&self, src: &[u64], survivors: &[Vec<TestEntry>]) -> u64 {
            survivors.iter().flatten().map(|e| src[e.id().1]).sum()
        }
    }

    #[test]
    fn defaults_describe_a_unary_single_pass_query() {
        let op = SumOp;
        assert_eq!(op.streams(), 1);
        assert_eq!(op.flow_id(0), 0);
        assert_eq!(op.pass_plan(), PassPlan::Single);
        assert_eq!(op.kind(), "sum");
        assert!(op.spec().is_ok());
    }

    #[test]
    fn toy_operator_round_trips_encode_and_complete() {
        let src = [10u64, 20, 30];
        let op = SumOp;
        let mut slots = Vec::new();
        op.encode_part(&src, 0, 0, 2, &mut |row| slots.extend_from_slice(row));
        assert_eq!(slots, vec![10, 20]);
        let survivors =
            vec![vec![TestEntry { row: 0, val: [10] }, TestEntry { row: 2, val: [30] }]];
        assert_eq!(op.complete(&src, &survivors), 40);
    }

    #[test]
    fn wire_passes_match_the_paper_pass_structures() {
        assert_eq!(PassPlan::Single.wire_passes(), 1);
        assert_eq!(PassPlan::BuildThenPrune.wire_passes(), 2);
        assert_eq!(PassPlan::FirstBuildsThenPruneSecond.wire_passes(), 1);
        assert_eq!(PassPlan::CandidateKeys { key_slot: 0 }.wire_passes(), 2);
    }
}
