//! The seven query operators — one [`PruningOperator`] impl per query
//! shape, one file per operator — beside the contract they implement.
//!
//! # The contract
//!
//! A [`PruningOperator`] answers exactly four questions — everything else
//! (planning, the encode → prune pass loop, byte accounting, timing) is
//! the generic executor's job
//! ([`Cluster::execute`](crate::Cluster::execute)):
//!
//! | question | method | e.g. DISTINCT |
//! |---|---|---|
//! | which switch program? | `spec()` | `QuerySpec::Distinct(matrix cfg)` |
//! | how do a partition's rows become packet slots? | `encode_part()` | one slot per row: the encoded key |
//! | what does the master do with survivors? | `complete()` | gather the selected key cells, dedup, normalize |
//! | what pass structure? | `pass_plan()` | [`PassPlan::Single`] |
//!
//! # What a survivor is
//!
//! A row id. The switch judges lossy value slots, but every packet
//! carries its *entry identifier* (Figure 4) and the paper's master
//! late-materializes, so `complete` receives [`Survivors`] — per stream,
//! per partition, a [`Selected`] view of the rows that came through — and
//! reads the tables through that selection, column-wise: resolve a
//! partition's columns once, then read the selected cells. It sees *every*
//! forwarded row and only true values, so probabilistic switch structures
//! (fingerprints, Bloom filters, Count-Min) never corrupt the output, only
//! change how much survives.
//!
//! A selection is one of two kinds. After a pruning pass it is
//! [`Selected::Rows`]: the ascending `u32` row indices the switch
//! forwarded (for HAVING, the rows of announced keys), and a completion
//! gathers through them. The *identity* selection ([`Survivors::all`]) is
//! [`Selected::All`]: every row of the partition, held as its row count
//! and no row ids, so a completion over it scans the raw columns.
//!
//! The keyed completions (DISTINCT, GROUP BY, HAVING, JOIN) read their
//! key column as the operators see it ([`Partition::coded`]): the codes a
//! repeating string column was given at load, or what routing left in a
//! unit, else the plain cells. A plain column's selected cells are hashed
//! and compared as borrowed keys (`for_each_selected_key`). A
//! dictionary-coded key is read by code: where every partition of a
//! stream holds its key against one dictionary — a loaded table's, or a
//! routed unit's — DISTINCT, GROUP BY and HAVING fold the selected rows of
//! all of them into one dense per-code array (a hit flag, the max, the
//! sum, each beside presence) and touch one string per code the selection
//! holds (`for_each_group`). A JOIN whose two streams share one
//! dictionary — what routing both streams together leaves in a shard —
//! counts one side's codes and probes them with the other's, and reads no
//! string at all; across two dictionaries it counts each side by code and
//! matches the codes either side touched by their strings, one hash per
//! touched string.
//!
//! Completion is a function of a row selection and nothing else, so
//! `complete` over the identity is the unaccelerated plan: it answers the
//! query with no `spec()`, no encode and no switch. That is the whole of
//! the direct arm ([`Cluster::run_direct`](crate::Cluster::run_direct)) —
//! no operator carries a second implementation for it, only a scan where
//! its selection is [`Selected::All`].
//!
//! # Adding a query type
//!
//! 1. Create `operators/<name>.rs` with a struct holding the query's
//!    parameters (plus whatever [`CheetahTuning`] knobs it reads).
//! 2. Implement [`PruningOperator`]: build the [`QuerySpec`] (add a
//!    pruning algorithm to `cheetah-core` first if none fits), encode a
//!    partition's queried columns into value slots, and complete the
//!    query by walking [`Survivors::parts`]. Pick the [`PassPlan`]
//!    matching the algorithm's pass structure; `streams()`/`flow_id()`
//!    only matter for binary queries.
//! 3. Add its [`DbQuery`] variant, and give the variant its case in
//!    `DbQuery`'s `kind`, `is_binary`, `columns`, `check` and `remapped`
//!    (`query.rs`). Whether its switch program has a compiled kernel is
//!    `CompiledProgram::compile`'s to say.
//! 4. Build the operator from the variant in `with_operator!`, and price
//!    its software stack in `spark_overhead_factor` (`engine.rs`).
//! 5. Name the column its rows are routed by, or none for a row-id hash,
//!    in `routing_column` (`planner.rs`).
//! 6. Fold its shard outputs in `merge_shard_outputs`, name the output
//!    variant it produces in `check_variant`, and cut that output into
//!    merge items in `decompose_output` (`master.rs`).
//! 7. Answer it without the switch in `baseline.rs`: the reference every
//!    gate compares the pruned and direct runs against.
//!
//! [`CheetahTuning`]: crate::engine::CheetahTuning
//! [`DbQuery`]: crate::query::DbQuery

mod distinct;
mod filter;
mod groupby;
mod having;
mod join;
mod skyline;
mod topn;

pub use distinct::DistinctOp;
pub use filter::{filter_config_of, FilterOp};
pub use groupby::GroupByMaxOp;
pub(crate) use having::negative_threshold;
pub use having::HavingSumOp;
pub use join::JoinOp;
pub use skyline::SkylineOp;
pub use topn::TopNOp;

use crate::executor::Tables;
use crate::query::QueryOutput;
use crate::table::{Column, Partition, Table};
use crate::value::{encode_ordered_i64, Value};
use cheetah_core::{PassPlan, QuerySpec};
use cheetah_switch::HashFn;
use std::sync::Arc;

/// The per-query contract of the Cheetah dataflow: name the switch
/// program, encode a partition's rows into packet value slots, complete
/// the query on the master from the rows that came through.
pub trait PruningOperator {
    /// Short name for diagnostics and reports.
    fn kind(&self) -> &'static str;

    /// The switch-side query specification to plan and install.
    fn spec(&self) -> cheetah_core::Result<QuerySpec>;

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

    /// Encode every row of `part`, a partition of stream `stream`, calling
    /// `sink` exactly once per row, in row order, with that row's value
    /// slots. The executor calls it once per partition and pass, so an
    /// operator resolves its column types (and anything else that is the
    /// same for every row) once, outside the row loop — and does no
    /// per-row query work: CWorkers only serialize (§7.1).
    fn encode_part(&self, stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64]));

    /// Complete the query on the master from the rows that came through
    /// the switch, reading their true values out of `src`.
    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput;
}

/// What came through the switch, as row selections: per stream, one per
/// partition. After a pruning pass each is the strictly ascending row
/// indices the switch forwarded (for HAVING, the rows of announced keys)
/// — four bytes per survivor, no entry is ever built; the identity
/// selection holds only each partition's row count. The executor fills
/// it and [`PruningOperator::complete`] reads the tables through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Survivors {
    streams: Vec<Vec<Selection>>,
}

/// One partition's selection, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Selection {
    /// Every row: the partition's row count.
    All(usize),
    /// These rows, strictly ascending.
    Rows(Vec<u32>),
}

/// One partition's selection as [`Survivors::parts`] hands it to a
/// completion: the identity — every row, held as a count, so the
/// completion can scan the columns — or row ids to gather through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selected<'s> {
    /// Every row of the partition — its row count; no row ids are held.
    All(usize),
    /// These rows, strictly ascending.
    Rows(&'s [u32]),
}

impl<'s> Selected<'s> {
    /// Rows selected.
    pub fn count(self) -> usize {
        match self {
            Selected::All(rows) => rows,
            Selected::Rows(ids) => ids.len(),
        }
    }

    /// The selected row indices, ascending — for a completion whose work
    /// per row outweighs reading the row, so one walk serves both kinds.
    pub fn rows(self) -> impl Iterator<Item = usize> + 's {
        // Exactly one half of the chain is non-empty.
        let (all, ids) = match self {
            Selected::All(rows) => (rows, &[][..]),
            Selected::Rows(ids) => (0, ids),
        };
        (0..all).chain(ids.iter().map(|&r| r as usize))
    }
}

impl Survivors {
    /// One selection per partition of each of the first `streams` streams
    /// of `src` — shaping them is also the stream-arity check.
    fn shaped(
        src: &Tables<'_>,
        streams: usize,
        selection: impl Fn(&Partition) -> Selection,
    ) -> cheetah_core::Result<Self> {
        let shape =
            |s| src.stream(s).map(|t: &Table| t.partitions().iter().map(&selection).collect());
        Ok(Self { streams: (0..streams).map(shape).collect::<Result<_, _>>()? })
    }

    /// Nothing kept yet: every selection empty.
    pub(crate) fn none(src: &Tables<'_>, streams: usize) -> cheetah_core::Result<Self> {
        Self::shaped(src, streams, |_| Selection::Rows(Vec::new()))
    }

    /// The identity selection: every row of every partition of the first
    /// `streams` streams of `src`, held as row counts — it allocates no
    /// row ids. Completing over it *is* the unpruned plan — what
    /// [`Cluster::run_direct`](crate::Cluster::run_direct) runs where the
    /// switch would cost more than it saves.
    pub fn all(src: &Tables<'_>, streams: usize) -> cheetah_core::Result<Self> {
        Self::shaped(src, streams, |p| Selection::All(p.rows()))
    }

    /// Keep `rows` — ascending, and past anything already kept — of
    /// partition `part` of stream `stream`.
    pub(crate) fn keep(&mut self, stream: usize, part: usize, rows: &[u32]) {
        let Selection::Rows(selection) = &mut self.streams[stream][part] else {
            unreachable!("the identity selection already holds every row");
        };
        selection.extend_from_slice(rows);
        debug_assert!(selection.windows(2).all(|w| w[0] < w[1]), "a selection ascends strictly");
    }

    /// Rows kept across all streams — the entries the master receives.
    pub fn count(&self) -> u64 {
        self.streams.iter().flatten().map(|sel| Selected::from(sel).count() as u64).sum()
    }

    /// Each partition of stream `stream` of `src` beside its selection:
    /// the walk every completion makes, resolving its columns once per
    /// partition and reading the selected cells. A stream `src` does not
    /// carry has no partitions (and the executor refuses to run it).
    pub fn parts<'s, 't: 's>(
        &'s self,
        src: &Tables<'t>,
        stream: usize,
    ) -> impl Iterator<Item = (&'t Partition, Selected<'s>)> {
        let parts = src.stream(stream).map_or(&[][..], Table::partitions);
        parts.iter().zip(&self.streams[stream]).map(|(part, sel)| (part, sel.into()))
    }
}

impl<'s> From<&'s Selection> for Selected<'s> {
    fn from(sel: &'s Selection) -> Self {
        match sel {
            Selection::All(rows) => Selected::All(*rows),
            Selection::Rows(ids) => Selected::Rows(ids),
        }
    }
}

/// One key cell, borrowed from its column: what the keyed completions
/// (DISTINCT, GROUP BY, JOIN, HAVING) hash and compare, so an owned
/// [`Value`] — a `String` allocation for string keys — is built per output
/// group, never per survivor. As for [`Value`], `Int(1) ≠ Str("1")`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum KeyRef<'t> {
    Int(i64),
    Str(&'t str),
}

impl KeyRef<'_> {
    pub(crate) fn to_value(self) -> Value {
        match self {
            KeyRef::Int(x) => Value::Int(x),
            KeyRef::Str(s) => Value::Str(s.to_string()),
        }
    }
}

/// The cells of key column `col` at the selected rows, in row order, as
/// `(row, key)`: the Int/Str dispatch happens once per slice of row ids.
///
/// Both selection kinds run the one gather loop per key type: the identity
/// lends it ascending row ids a chunk at a time, from a stack buffer, and
/// [`next_ids`] — out of line — hides which kind it is from the loop. A
/// keyed completion's map update is inlined into these two loops. When
/// the walk also had a loop per selection kind, the compiler left that
/// update out of line, and HAVING's direct arm ran 5–10 % slower.
pub(crate) fn for_each_selected_key<'t>(
    col: &'t Column,
    selection: Selected<'_>,
    mut f: impl FnMut(usize, KeyRef<'t>),
) {
    let mut chunk = [0u32; ID_CHUNK];
    let mut done = 0;
    while let Some(ids) = next_ids(selection, &mut done, &mut chunk) {
        match col {
            Column::Int(v) => ids.iter().for_each(|&r| f(r as usize, KeyRef::Int(v[r as usize]))),
            Column::Str(v) => ids.iter().for_each(|&r| f(r as usize, KeyRef::Str(&v[r as usize]))),
            Column::Dict { codes, dict } => ids.iter().for_each(|&r| {
                f(r as usize, KeyRef::Str(&dict[codes[r as usize] as usize]));
            }),
        }
    }
}

/// The selected rows of stream `stream` folded per key of its key column
/// `key_col`, across partitions: `value(part)` gives a partition's
/// per-row contribution, `combine` folds two contributions to one key,
/// and `f` receives `(key, contribution)` to fold into the completion's
/// map — possibly several times for one key, so it folds, never
/// overwrites.
///
/// Where every partition holds the key against one dictionary
/// ([`one_dict`]), the selected rows of all of them are folded by code
/// into one dense per-code array holding presence and the aggregate before
/// any string is read; then each code the selection touched reaches `f`
/// once, as its dictionary string. A code no selected row holds reaches
/// `f` not at all, so a key is never reported with an aggregate no row
/// gave it. Otherwise `f` receives every selected row, through
/// [`for_each_selected_key`]'s loop.
pub(crate) fn for_each_group<'t, A: Copy, V: Fn(usize) -> A>(
    src: &Tables<'t>,
    survivors: &Survivors,
    stream: usize,
    key_col: usize,
    value: impl Fn(&'t Partition) -> V,
    combine: impl Fn(A, A) -> A,
    mut f: impl FnMut(KeyRef<'t>, A),
) {
    let parts = || survivors.parts(src, stream);
    let Some(dict) = one_dict(parts().map(|(part, _)| part.coded(key_col))) else {
        for (part, sel) in parts() {
            let value = value(part);
            for_each_selected_key(part.coded(key_col), sel, |r, k| f(k, value(r)));
        }
        return;
    };
    let mut dense: Vec<Option<A>> = vec![None; dict.len()];
    for (part, sel) in parts() {
        let Column::Dict { codes, .. } = part.coded(key_col) else {
            unreachable!("one_dict found every key column coded")
        };
        let value = value(part);
        sel.rows().for_each(|r| {
            let (slot, v) = (&mut dense[codes[r] as usize], value(r));
            *slot = Some(slot.map_or(v, |acc| combine(acc, v)));
        });
    }
    for (s, acc) in dict.iter().zip(dense) {
        if let Some(acc) = acc {
            f(KeyRef::Str(s), acc);
        }
    }
}

/// The one dictionary every column of `cols` is coded against, if there
/// is one: a loaded table's coded column, a routed unit's key, or both
/// streams of a JOIN routed together. Plain columns, dictionaries coded
/// apart, or no columns give `None`.
pub(crate) fn one_dict<'t>(
    mut cols: impl Iterator<Item = &'t Column>,
) -> Option<&'t Arc<[String]>> {
    let Some(Column::Dict { dict: first, .. }) = cols.next() else {
        return None;
    };
    cols.all(|col| matches!(col, Column::Dict { dict, .. } if Arc::ptr_eq(dict, first)))
        .then_some(first)
}

/// Row ids the identity lends [`for_each_selected_key`] at a time.
const ID_CHUNK: usize = 1024;

/// The selected row ids past the first `*done`, advancing `*done` past
/// them: all the rest of a `Rows` selection, or the identity's next chunk,
/// written into `chunk`. `None` once every selected row has been lent.
#[inline(never)]
fn next_ids<'c>(
    selection: Selected<'c>,
    done: &mut usize,
    chunk: &'c mut [u32; ID_CHUNK],
) -> Option<&'c [u32]> {
    let ids: &[u32] = match selection {
        _ if *done == selection.count() => return None,
        Selected::Rows(ids) => &ids[*done..],
        Selected::All(rows) => {
            let ids = &mut chunk[..ID_CHUNK.min(rows - *done)];
            ids.iter_mut().zip(*done..).for_each(|(id, r)| *id = r as u32);
            ids
        }
    };
    *done += ids.len();
    Some(ids)
}

/// The switch encoding of every cell of a key column, in row order, as
/// `(row, key)`: ints map order-preservingly; strings are 63-bit
/// fingerprints (the CWorker cannot ship variable-length strings in a
/// fixed header — §5 Example #8), hashed in place; a dictionary-coded
/// column hashes each string its rows hold once, on the first row that
/// holds it, and reads the other rows' keys by code — the same key per
/// cell either way. The column-type dispatch happens once per partition
/// — no per-row `Value`. Routing keys
/// ([`routing_keys`](crate::planner::routing_keys)) are these same keys.
pub(crate) fn for_each_key(seed: u64, col: &Column, mut f: impl FnMut(usize, u64)) {
    match col {
        Column::Int(v) => {
            for (r, &x) in v.iter().enumerate() {
                f(r, encode_ordered_i64(x));
            }
        }
        Column::Str(v) => {
            let h = HashFn::from_seed(seed);
            for (r, s) in v.iter().enumerate() {
                f(r, str_key(&h, s));
            }
        }
        Column::Dict { codes, dict } => {
            // A key is 63 bits, so `u64::MAX` marks a code not yet hashed:
            // a dictionary shared with rows elsewhere costs this partition
            // only the strings it holds.
            let h = HashFn::from_seed(seed);
            let mut keys = vec![u64::MAX; dict.len()];
            for (r, &code) in codes.iter().enumerate() {
                let key = &mut keys[code as usize];
                if *key == u64::MAX {
                    *key = str_key(&h, &dict[code as usize]);
                }
                f(r, *key);
            }
        }
    }
}

#[inline]
fn str_key(h: &HashFn, s: &str) -> u64 {
    h.hash_bytes(s.as_bytes()) >> 1
}

/// Clamped order-preserving 32-bit encoding for aggregate/order columns
/// (register cells hold 32-bit values). A value outside `[-2^31, 2^31)`
/// saturates to the edge `0` or `u32::MAX`, where many values tie; the
/// switch programs forward every tie at an edge (TOP N forwards all ties;
/// GROUP BY and SKYLINE prune a tie only inside the window), so
/// saturation costs pruning, never correctness.
pub(crate) fn encode_i64_32(v: i64) -> u64 {
    (v.saturating_add(1 << 31).clamp(0, u32::MAX as i64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CheetahTuning;
    use crate::expr::{DbPredicate, IntCmp, LikePattern};
    use crate::planner::routing_keys;
    use crate::query::DbQuery;
    use crate::sharded::{route_columns, RouteStream};
    use crate::testutil::{every_row, test_table};
    use cheetah_core::Sharder;

    #[test]
    fn every_operator_completes_alike_over_both_selection_kinds() {
        let tuning = CheetahTuning::default();
        let pred = DbPredicate::Or(vec![
            DbPredicate::CmpInt { col: 2, op: IntCmp::Lt, lit: 10 },
            DbPredicate::And(vec![
                DbPredicate::CmpInt { col: 1, op: IntCmp::Ge, lit: 9_000 },
                DbPredicate::Like { col: 0, pattern: LikePattern::parse("agent-1%") },
            ]),
        ]);
        let dims = [1, 2];
        let ops: [Box<dyn PruningOperator>; 8] = [
            Box::new(FilterOp::new(&pred)),
            Box::new(DistinctOp::new(0, &tuning)),
            Box::new(TopNOp::new(1, 25, &tuning)),
            Box::new(GroupByMaxOp::new(0, 1, &tuning)),
            Box::new(SkylineOp::new(&dims, &tuning)),
            // Near the mean per-key sum, so some keys pass and some do not.
            Box::new(HavingSumOp::new(0, 1, 300_000, &tuning)),
            // Below every sum, so every key a selected row holds passes —
            // and a key no selected row holds must not pass with a sum of 0.
            // (Only the switch refuses a negative threshold; completion
            // over a selection is signed.)
            Box::new(HavingSumOp::new(0, 1, -1, &tuning)),
            Box::new(JoinOp::new(0, 0, &tuning)),
        ];
        let right = test_table(700, 2);
        let sharder = Sharder::hash(3, 5);
        // Routed units in both string forms: plain, and coded as the plan
        // constructor routes them — the key column of both streams coded
        // against one dictionary per shard, whatever the load rule coded.
        let route = |left: &Table, keyed| {
            let keys = |t| routing_keys(&DbQuery::Distinct { col: 0 }, 0, t, tuning.seed);
            let (lk, rk, cols) = (keys(left), keys(&right), [0, 1, 2]);
            let streams = [
                RouteStream { table: left, cols: &cols, keyed, keys: &lk, rows: 0..left.rows() },
                RouteStream { table: &right, cols: &cols, keyed, keys: &rk, rows: 0..right.rows() },
            ];
            route_columns(&streams, &sharder)
        };
        let mut skipped = 0;
        // Four large partitions, coded at load; three partitions a few
        // rows per shard, coded too, so a sparse selection skips strings
        // its dictionary holds; 60 rows over two partitions, left plain by
        // the rule; three one-row partitions and an empty one.
        let lefts = [test_table(3_000, 4), test_table(400, 3), test_table(60, 2)];
        for left in lefts.into_iter().chain([test_table(3, 1).repartition(4)]) {
            let (plain_left, plain_right) = (left.plain(), right.plain());
            // The stored partitions as loaded, and the same cells plain: the
            // JOIN over two dictionaries, one, and none.
            let stored = [
                Tables::binary(&plain_left, &plain_right),
                Tables::binary(&left, &right),
                Tables::binary(&left, &plain_right),
            ];
            for op in &ops {
                let streams = op.streams();
                let at = format!("{} over {} rows", op.kind(), left.rows());
                let want = op.complete(&stored[0], &Survivors::all(&stored[0], streams).unwrap());
                let sparse = op.complete(&stored[0], &every_third_row(&stored[0], streams));
                for (form, src) in stored.iter().enumerate() {
                    let scanned = op.complete(src, &Survivors::all(src, streams).unwrap());
                    let gathered = op.complete(src, &every_row(src, streams));
                    assert_eq!((&scanned, &gathered), (&want, &want), "{at}, stored form {form}");
                    let thirds = op.complete(src, &every_third_row(src, streams));
                    assert_eq!(thirds, sparse, "{at}, stored form {form}, every third row");
                }
            }
            let (plain, coded) = (route(&left, None), route(&left, Some(0)));
            for s in 0..sharder.shards() {
                let (Column::Dict { dict, .. }, Column::Dict { dict: right_dict, .. }) =
                    (coded[0][s].partitions()[0].column(0), coded[1][s].partitions()[0].column(0))
                else {
                    panic!("the key column of both streams is coded");
                };
                assert!(Arc::ptr_eq(dict, right_dict), "one dictionary per shard");
                let plain = Tables::binary(&plain[0][s], &plain[1][s]);
                let coded = Tables::binary(&coded[0][s], &coded[1][s]);
                let sparse = every_third_row(&coded, 2);
                skipped += dict.len() - selected_keys(&coded, &sparse).len();
                for op in &ops {
                    let streams = op.streams();
                    let at = format!("{} shard {s} of {} rows", op.kind(), left.rows());
                    // The switch sees the same slots, so it decides alike.
                    assert_eq!(slots(&**op, &coded), slots(&**op, &plain), "{at}");
                    let want = op.complete(&plain, &Survivors::all(&plain, streams).unwrap());
                    let scanned = op.complete(&coded, &Survivors::all(&coded, streams).unwrap());
                    let gathered = op.complete(&coded, &every_row(&coded, streams));
                    assert_eq!((&scanned, &gathered), (&want, &want), "{at}");
                    let want = op.complete(&plain, &every_third_row(&plain, streams));
                    let sparse = op.complete(&coded, &every_third_row(&coded, streams));
                    assert_eq!(sparse, want, "{at}, every third row");
                }
            }
        }
        assert!(skipped > 0, "the sparse selection skips some dictionary strings");
    }

    /// Rows `0, 3, 6, …` of every partition of the first `streams` streams
    /// of `src`, kept the way a pruning pass keeps what the switch forwards.
    fn every_third_row(src: &Tables<'_>, streams: usize) -> Survivors {
        let mut kept = Survivors::none(src, streams).unwrap();
        for s in 0..streams {
            for (p, part) in src.stream(s).unwrap().partitions().iter().enumerate() {
                kept.keep(s, p, &(0..part.rows() as u32).step_by(3).collect::<Vec<_>>());
            }
        }
        kept
    }

    /// The distinct left-stream keys (column 0) `survivors` selects.
    fn selected_keys(src: &Tables<'_>, survivors: &Survivors) -> std::collections::HashSet<Value> {
        let mut keys = std::collections::HashSet::new();
        for (part, sel) in survivors.parts(src, 0) {
            for_each_selected_key(part.column(0), sel, |_, k| {
                keys.insert(k.to_value());
            });
        }
        keys
    }

    /// Every row's slots, as `op` encodes the streams of `src` it reads.
    fn slots(op: &dyn PruningOperator, src: &Tables<'_>) -> Vec<Vec<u64>> {
        let mut rows = Vec::new();
        for stream in 0..op.streams() {
            for part in src.stream(stream).unwrap().partitions() {
                op.encode_part(stream, part, &mut |slots| rows.push(slots.to_vec()));
            }
        }
        rows
    }
}
