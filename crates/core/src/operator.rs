//! The pass structures of the switch programs.
//!
//! The paper's central observation (§4–§6) is that **one** switch dataflow
//! serves every query type: workers serialize, the switch prunes, the
//! master completes. What the *program* installed on the switch fixes is
//! how many times the streams cross it and what each crossing is for —
//! single pass, JOIN's build-then-prune, HAVING's candidate announcement.
//! That is [`PassPlan`]: a property of the switch program, so it lives
//! here with the algorithms. The per-query operator contract that picks
//! one lives with its implementors, in `cheetah_db::operators`.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_passes_match_the_paper_pass_structures() {
        assert_eq!(PassPlan::Single.wire_passes(), 1);
        assert_eq!(PassPlan::BuildThenPrune.wire_passes(), 2);
        assert_eq!(PassPlan::FirstBuildsThenPruneSecond.wire_passes(), 1);
        assert_eq!(PassPlan::CandidateKeys { key_slot: 0 }.wire_passes(), 2);
    }
}
