//! The seven query operators — one [`PruningOperator`] impl per query
//! shape, one file per operator — beside the contract they implement.
//!
//! # The contract
//!
//! A [`PruningOperator`] answers exactly five questions — everything else
//! (planning, the encode → prune pass loop, byte accounting, timing) is
//! the generic executor's job
//! ([`Cluster::execute`](crate::Cluster::execute)):
//!
//! | question | method | e.g. DISTINCT |
//! |---|---|---|
//! | which switch program? | `spec()` | `QuerySpec::Distinct(matrix cfg)` |
//! | how do a partition's rows become packet slots? | `encode_part()` | one slot per row: the encoded key |
//! | what does a selection of rows come to? | `fold()` | a hit flag per key code of the selected rows |
//! | what is the answer from those? | `finish()` | the hit flags combined, each key's string once, in order |
//! | what pass structure? | `pass_plan()` | [`PassPlan::Single`] |
//!
//! The master's completion over the survivors is `complete()`: the
//! `finish()` of one `fold()`.
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
//! sum, each beside presence: `fold_keys`); their finish combines such
//! arrays element by element and walks the result once in the
//! dictionary's rank order, touching one string per code a kept key holds
//! (`finish_keys`): each key arrives once and in order, so they push
//! their answer into a `Vec` and build no hash map. A JOIN whose two
//! streams share one dictionary — what routing both streams together
//! leaves in a shard — counts one side's codes and probes them with the
//! other's, and reads no string at all; across two dictionaries it counts
//! each side by code (in code order: a JOIN never ranks) and matches the
//! codes either side touched by their strings, one hash per touched
//! string.
//!
//! Completion is a function of a row selection and nothing else, so
//! `complete` over the identity is the unaccelerated plan: it answers the
//! query with no `spec()`, no encode and no switch. That is the whole of
//! the direct arm ([`Cluster::run_direct`](crate::Cluster::run_direct)) —
//! no operator carries a second implementation for it, only a scan where
//! its selection is [`Selected::All`]. And a fold is a function of its
//! selection too, so the identity cut into groups of stored partitions
//! ([`Survivors::only`]) folds on as many threads as there are groups
//! ([`Cluster::fold_direct`](crate::Cluster::fold_direct)), and the
//! groups' partials finish into the same answer
//! ([`Cluster::finish_direct`](crate::Cluster::finish_direct)): per-key
//! folds are merged before any string is built, and HAVING's threshold
//! judges the summed partials.
//!
//! # Adding a query type
//!
//! 1. Create `operators/<name>.rs` with a struct holding the query's
//!    parameters (plus whatever [`CheetahTuning`] knobs it reads).
//! 2. Implement [`PruningOperator`]: build the [`QuerySpec`] (add a
//!    pruning algorithm to `cheetah-core` first if none fits), encode a
//!    partition's queried columns into value slots, fold the selected rows
//!    into a [`Partial`] by walking [`Survivors::parts`], and finish the
//!    partials of disjoint selections into the answer (an operator whose
//!    fold cannot split folds to [`Partial::Whole`] and keeps the default
//!    finish; `planner::groups` must then keep it whole). Pick the
//!    [`PassPlan`]
//!    matching the algorithm's pass structure; `streams()`/`flow_id()`
//!    only matter for binary queries.
//! 3. Add its [`DbQuery`] variant, and give the variant its case in
//!    `DbQuery`'s `kind`, `is_binary`, `columns`, `check` and `remapped`
//!    (`query.rs`). Whether its switch program has a compiled kernel is
//!    `CompiledProgram::compile`'s to say.
//! 4. Build the operator from the variant in `with_operator!`, and price
//!    its software stack in `spark_overhead_factor` (`engine.rs`).
//! 5. Name the column its rows are routed by, or none for a row-id hash,
//!    in `routing_column`, and whether a direct run may fold a table's
//!    stored partitions apart, in `groups` (`planner.rs`).
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
use crate::table::{Column, Dictionary, Partition, Table};
use crate::value::{encode_ordered_i64, Value};
use cheetah_core::{PassPlan, QuerySpec};
use cheetah_switch::HashFn;
use std::collections::HashMap;
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

    /// Fold the rows `survivors` selects into this operator's [`Partial`],
    /// reading their true values out of `src`: a count, the top n, a
    /// skyline window, or a per-key fold. Partials folded over disjoint
    /// selections of the same tables — a direct run's groups of stored
    /// partitions ([`Survivors::only`]) — finish into one answer.
    fn fold(&self, src: &Tables<'_>, survivors: &Survivors) -> Partial;

    /// The answer from partials this operator folded over disjoint
    /// selections of the same tables, combined before anything is
    /// materialised: per-key folds element by element, each key's string
    /// built once, and HAVING's threshold applied after the sums. The
    /// default finishes a lone [`Partial::Whole`] as it stands: an
    /// operator whose fold cannot split.
    fn finish(&self, partials: Vec<Partial>) -> QueryOutput {
        match <[Partial; 1]>::try_from(partials) {
            Ok([Partial::Whole(output)]) => output,
            Ok([p]) => mismatch(self.kind(), &p),
            Err(partials) => {
                panic!("{}: {} whole partials finish alone", self.kind(), partials.len())
            }
        }
    }

    /// Complete the query on the master from the rows that came through
    /// the switch: [`finish`](Self::finish) of the one
    /// [`fold`](Self::fold) over them.
    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        self.finish(vec![self.fold(src, survivors)])
    }
}

/// What one fold of an operator hands its [`finish`](PruningOperator::finish):
/// owned, so a fold on one thread finishes on another.
#[derive(Debug)]
pub enum Partial {
    /// FILTER's matching rows, or JOIN's pairs.
    Count(u64),
    /// TOP N: the selection's `n` largest values, in no order.
    Top(Vec<i64>),
    /// SKYLINE: the selection's skyline window.
    Points(Vec<Vec<i64>>),
    /// DISTINCT: a hit flag per key.
    Hits(Groups<()>),
    /// GROUP BY: the max per key.
    Max(Groups<i64>),
    /// HAVING: the sum per key, before the threshold.
    Sum(Groups<i128>),
    /// A finished answer, for an operator whose fold cannot split.
    Whole(QueryOutput),
}

/// A partial of another family than the finishing operator's: a caller's
/// bug, never a data error.
pub(crate) fn mismatch(kind: &str, partial: &Partial) -> ! {
    panic!("{kind} cannot finish {partial:?}")
}

/// A count partial's count.
pub(crate) fn count(kind: &str, partial: Partial) -> u64 {
    match partial {
        Partial::Count(n) => n,
        p => mismatch(kind, &p),
    }
}

/// A per-key fold: for each key a selected row holds, the fold of those
/// rows' values. Over one dictionary it is dense by code, so partials
/// merge element by element and no string is read until the answer;
/// otherwise each key is an owned [`Value`].
#[derive(Debug)]
pub struct Groups<A>(Keyed<A>);

#[derive(Debug)]
enum Keyed<A> {
    /// Slot `c` folds the rows coded `c`; `None` where no selected row is.
    Codes { dict: Arc<Dictionary>, dense: Vec<Option<A>> },
    /// Plain strings, ints, or dictionaries coded apart: each key once.
    Values(Vec<(Value, A)>),
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

    /// This selection with stream 0 cut to the partitions `parts` names:
    /// each other partition of stream 0 selects nothing, and every other
    /// stream keeps its selection. A direct run folds each group of a
    /// table's stored partitions over such a cut of the identity.
    pub fn only(&self, parts: &[usize]) -> Survivors {
        let mut streams = self.streams.clone();
        for (p, sel) in streams[0].iter_mut().enumerate() {
            if !parts.contains(&p) {
                *sel = Selection::Rows(Vec::new());
            }
        }
        Survivors { streams }
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
/// per-row contribution and `combine` folds two contributions to one key.
/// A key no selected row holds has no fold, so it is never reported with
/// an aggregate no row gave it.
///
/// Where every partition holds the key against one dictionary
/// ([`one_dict`]), the selected rows of all of them are folded by code
/// into one dense per-code array, and no string is read: the identity
/// selection zips the codes with the rows, a row selection gathers
/// through its ids. Otherwise — plain strings, ints, or dictionaries
/// coded apart — every selected row is folded into one map by its
/// borrowed key, through [`for_each_selected_key`]'s loop, and each key
/// is owned once.
pub(crate) fn fold_keys<'t, A: Copy, V: Fn(usize) -> A>(
    src: &Tables<'t>,
    survivors: &Survivors,
    stream: usize,
    key_col: usize,
    value: impl Fn(&'t Partition) -> V,
    combine: impl Fn(A, A) -> A,
) -> Groups<A> {
    let parts = || survivors.parts(src, stream);
    let Some(dict) = one_dict(parts().map(|(part, _)| part.coded(key_col))) else {
        let mut groups: HashMap<KeyRef<'t>, A> = HashMap::new();
        for (part, sel) in parts() {
            let value = value(part);
            for_each_selected_key(part.coded(key_col), sel, |r, k| {
                let v = value(r);
                groups.entry(k).and_modify(|acc| *acc = combine(*acc, v)).or_insert(v);
            });
        }
        return Groups(Keyed::Values(groups.into_iter().map(|(k, a)| (k.to_value(), a)).collect()));
    };
    let mut dense: Vec<Option<A>> = vec![None; dict.len()];
    for (part, sel) in parts() {
        let Column::Dict { codes, .. } = part.coded(key_col) else {
            unreachable!("one_dict found every key column coded")
        };
        let value = value(part);
        let mut add = |r: usize, code: u32| {
            let (slot, v) = (&mut dense[code as usize], value(r));
            *slot = Some(slot.map_or(v, |acc| combine(acc, v)));
        };
        match sel {
            Selected::All(_) => codes.iter().enumerate().for_each(|(r, &code)| add(r, code)),
            Selected::Rows(ids) => ids.iter().for_each(|&r| add(r as usize, codes[r as usize])),
        }
    }
    Groups(Keyed::Codes { dict: Arc::clone(dict), dense })
}

/// Per-key folds of disjoint selections of one table combined into the
/// answer's keys: every key some fold holds, once, in ascending [`Value`]
/// order, beside its combined fold — those `keep` accepts. Every fold of
/// one table's key column takes the same form ([`fold_keys`] decides it by
/// the whole column), so folds by code share one dictionary: they are
/// combined code by code and walked once in its rank
/// ([`Dictionary::rank`]), and a key's string is read only if its fold is
/// kept. Folds by owned key are combined by sorting them together.
pub(crate) fn finish_keys<A: Copy>(
    folds: impl IntoIterator<Item = Groups<A>>,
    combine: impl Fn(A, A) -> A,
    keep: impl Fn(A) -> bool,
) -> Vec<(Value, A)> {
    let mut folds = folds.into_iter().map(|g| g.0);
    match folds.next() {
        None => Vec::new(),
        Some(Keyed::Codes { dict, mut dense }) => {
            for fold in folds {
                let Keyed::Codes { dict: theirs, dense: other } = fold else {
                    panic!("folds of one key column take one form")
                };
                assert!(
                    Arc::ptr_eq(&dict, &theirs),
                    "folds of one key column share its dictionary"
                );
                for (slot, v) in dense.iter_mut().zip(other) {
                    if let Some(v) = v {
                        *slot = Some(slot.map_or(v, |acc| combine(acc, v)));
                    }
                }
            }
            let kept = |&code: &u32| Some((code, dense[code as usize].filter(|&a| keep(a))?));
            let key = |(code, acc): (u32, A)| (Value::Str(dict[code as usize].clone()), acc);
            dict.rank().iter().filter_map(kept).map(key).collect()
        }
        Some(Keyed::Values(mut pairs)) => {
            for fold in folds {
                let Keyed::Values(more) = fold else {
                    panic!("folds of one key column take one form")
                };
                pairs.extend(more);
            }
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs.dedup_by(|dup, kept| {
                let same = dup.0 == kept.0;
                if same {
                    kept.1 = combine(kept.1, dup.1);
                }
                same
            });
            pairs.retain(|&(_, acc)| keep(acc));
            pairs
        }
    }
}

/// The one dictionary every column of `cols` is coded against, if there
/// is one: a loaded table's coded column, a routed unit's key, or both
/// streams of a JOIN routed together. Plain columns, dictionaries coded
/// apart, or no columns give `None`.
pub(crate) fn one_dict<'t>(
    mut cols: impl Iterator<Item = &'t Column>,
) -> Option<&'t Arc<Dictionary>> {
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
    use crate::engine::{CheetahTuning, Cluster, ExecBackend};
    use crate::expr::{DbPredicate, IntCmp, LikePattern};
    use crate::planner::{routing_keys, unit_columns};
    use crate::query::DbQuery;
    use crate::sharded::{route_columns, RouteStream};
    use crate::table::TableBuilder;
    use crate::testutil::{every_row, test_table};
    use crate::value::DataType;
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

    #[test]
    fn each_selected_key_is_folded_once_and_finished_in_order() {
        let left = test_table(3_000, 4);
        let right = test_table(700, 2);
        assert!(left.is_coded(0) && right.is_coded(0), "fixture: coded at load");
        let plain = left.plain();
        let keys = |t| routing_keys(&DbQuery::Distinct { col: 0 }, 0, t, 7);
        let (lk, rk, cols) = (keys(&left), keys(&right), [0, 1, 2]);
        let routed = route_columns(
            &[
                RouteStream {
                    table: &left,
                    cols: &cols,
                    keyed: Some(0),
                    keys: &lk,
                    rows: 0..3_000,
                },
                RouteStream { table: &right, cols: &cols, keyed: Some(0), keys: &rk, rows: 0..700 },
            ],
            &Sharder::hash(3, 5),
        );
        // (form, tables, stream, key column): an int key, a plain string,
        // a string coded at load, and both streams of each routed shard.
        let mut forms = vec![
            ("int", Tables::unary(&left), 0, 1),
            ("plain", Tables::unary(&plain), 0, 0),
            ("load-coded", Tables::unary(&left), 0, 0),
        ];
        for (left, right) in routed[0].iter().zip(&routed[1]) {
            let shard = Tables::binary(left, right);
            forms.extend([("route-coded", shard, 0, 0), ("route-coded", shard, 1, 0)]);
        }
        // Per row: a count of one, and the row's duration.
        fn durations(part: &Partition) -> impl Fn(usize) -> (u64, i64) + '_ {
            let d = part.column(2).as_int().expect("an int column");
            move |r| (1, d[r])
        }
        for (form, src, stream, key_col) in forms {
            let streams = stream + 1;
            let selections = [
                ("every row", Survivors::all(&src, streams).unwrap()),
                ("every third row", every_third_row(&src, streams)),
                ("no row", Survivors::none(&src, streams).unwrap()),
            ];
            for (which, survivors) in selections {
                let at = format!("{form} stream {stream}, {which}");
                let add = |a: (u64, i64), b: (u64, i64)| (a.0 + b.0, a.1 + b.1);
                let folded = fold_keys(&src, &survivors, stream, key_col, durations, add);
                let got = finish_keys([folded], add, |_| true);
                // The reference: every selected row, one at a time.
                let mut want: std::collections::BTreeMap<Value, (u64, i64)> = Default::default();
                for (part, sel) in survivors.parts(&src, stream) {
                    let d = part.column(2).as_int().unwrap();
                    for r in sel.rows() {
                        let acc = want.entry(part.coded(key_col).get(r)).or_default();
                        *acc = add(*acc, (1, d[r]));
                    }
                }
                let once: std::collections::HashSet<&Value> = got.iter().map(|(k, _)| k).collect();
                assert_eq!(once.len(), got.len(), "{at}: each key once");
                assert_eq!(got.iter().cloned().collect::<std::collections::BTreeMap<_, _>>(), want);
                assert!(got.iter().all(|(_, (rows, _))| *rows > 0), "{at}: no untouched code");
                assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{at}: ascending");
            }
        }
    }

    #[test]
    fn only_a_grouping_answer_ranks_a_dictionary() {
        // Near-unique URLs the load rule leaves plain, a JOIN's key routed
        // over three units: each shard codes both sides against one
        // dictionary, which the JOIN counts and probes by code, direct and
        // pruned, and never ranks.
        let urls = |rows: usize, step: usize| {
            let mut b = TableBuilder::new("urls", vec![("url".into(), DataType::Str)], 1_024);
            for i in 0..rows {
                b.push_row([Value::Str(format!("http://x/{}", i * step % 7_001))]);
            }
            b.build()
        };
        let (l, r) = (urls(6_000, 1), urls(3_000, 3));
        assert!(!l.is_coded(0) && !r.is_coded(0), "fixture: the load rule leaves them plain");
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let cluster = Cluster::default();
        let (lk, rk) = (routing_keys(&q, 0, &l, 1), routing_keys(&q, 1, &r, 1));
        let ((lcols, lkeyed), (rcols, rkeyed)) = (unit_columns(&q, 0), unit_columns(&q, 1));
        let units = route_columns(
            &[
                RouteStream { table: &l, cols: &lcols, keyed: lkeyed, keys: &lk, rows: 0..6_000 },
                RouteStream { table: &r, cols: &rcols, keyed: rkeyed, keys: &rk, rows: 0..3_000 },
            ],
            &Sharder::hash(3, 1),
        );
        let QueryOutput::JoinPairs(want) = cluster.run_baseline(&q, &l, Some(&r)).output else {
            panic!("a join counts pairs")
        };
        let (mut direct_pairs, unit_q) = (0, q.remapped());
        let dict_of = |unit: &Table| match unit.partitions()[0].column(0) {
            Column::Dict { dict, .. } => Arc::clone(dict),
            _ => panic!("a routed string key is coded"),
        };
        for (s, (left, right)) in units[0].iter().zip(&units[1]).enumerate() {
            let direct = cluster.run_direct(&unit_q, left, Some(right)).unwrap().output;
            let pruned = cluster
                .run_cheetah(&unit_q, left, Some(right), ExecBackend::Interpreted)
                .unwrap()
                .output;
            assert_eq!(direct, pruned, "shard {s}");
            let QueryOutput::JoinPairs(pairs) = direct else { panic!("a join counts pairs") };
            direct_pairs += pairs;
            let dict = dict_of(left);
            assert!(Arc::ptr_eq(&dict, &dict_of(right)), "shard {s}: one dictionary");
            assert!(!dict.is_ranked(), "shard {s}: a join ranks nothing");
        }
        assert_eq!(direct_pairs, want);
        // A grouping answer over a shard ranks its dictionary.
        let distinct = DbQuery::Distinct { col: 0 };
        cluster.run_direct(&distinct, &units[0][0], None).unwrap();
        assert!(dict_of(&units[0][0]).is_ranked());
        // DISTINCT over one loaded table from two clusters: the first
        // ranks the table's dictionary, and the second reads that rank.
        let t = test_table(3_000, 4);
        let Column::Dict { dict, .. } = t.partitions()[0].coded(0) else {
            panic!("fixture: coded at load")
        };
        assert!(!dict.is_ranked(), "loading ranks nothing");
        let first = Cluster::default().run_direct(&distinct, &t, None).unwrap().output;
        assert!(dict.is_ranked());
        let rank = dict.rank().as_ptr();
        let second = Cluster::default().run_direct(&distinct, &t, None).unwrap().output;
        assert_eq!(first, second);
        assert!(std::ptr::eq(rank, dict.rank().as_ptr()), "ranked once");
    }

    #[test]
    fn folds_of_any_split_finish_like_the_whole_completion_and_the_baseline() {
        // Every family, over its key coded and plain, over tables of 1-5
        // stored partitions with empty ones among them; every selection
        // kind; every split of the left stream's partitions into groups,
        // contiguous and interleaved alike: the groups' folds finish into
        // the completion over all of them, and that is the baseline's.
        let cluster = Cluster::default();
        let right = test_table(300, 2);
        let mut queries = crate::testutil::all_queries();
        // Below every sum: every key a row holds passes, none that it does not.
        queries.push(DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: -1 });
        queries.push(DbQuery::Join { left_key: 0, right_key: 0 });
        let mut splits_seen = 0;
        for parts in 1..=5 {
            let coded = holed(parts);
            assert!(coded.is_coded(0), "fixture: the key is coded at load");
            for (form, left) in [("coded", &coded), ("plain", &coded.plain())] {
                for q in &queries {
                    let right = q.is_binary().then_some(&right);
                    let base = cluster.run_baseline(q, left, right).output;
                    let src = Tables { left, right };
                    cluster.lend_operator(q, |op| {
                        let streams = op.streams();
                        let selections = [
                            ("every row", Survivors::all(&src, streams).unwrap()),
                            ("every third row", every_third_row(&src, streams)),
                            ("no row", Survivors::none(&src, streams).unwrap()),
                        ];
                        for (which, sel) in &selections {
                            let at =
                                format!("{} over {parts} {form} partitions, {which}", q.kind());
                            let whole = op.complete(&src, sel);
                            if *which == "every row" {
                                assert_eq!(whole, base, "{at}");
                            }
                            for split in splits(parts) {
                                let folds = split.iter().map(|g| op.fold(&src, &sel.only(g)));
                                let finished = op.finish(folds.collect());
                                assert_eq!(finished, whole, "{at}, split {split:?}");
                                splits_seen += 1;
                            }
                        }
                    });
                }
            }
        }
        // 1 + 2 + 5 + 15 + 52 splits, three selections, two key forms.
        assert_eq!(splits_seen, 75 * 3 * 2 * queries.len());
    }

    /// `parts` stored partitions of [`test_table`]'s rows, coded at load:
    /// partitions 1 and 3 are empty; the others hold 150 rows each, but a
    /// last one past the first holds 17.
    fn holed(parts: usize) -> Table {
        let src = test_table(450, 1);
        let rows = &src.partitions()[0];
        let mut b = TableBuilder::new("holed", src.fields().to_vec(), 1_000);
        let mut next = 0;
        for p in 0..parts {
            if p > 0 {
                b.cut_partition();
            }
            let take = match p {
                1 | 3 => 0,
                _ if p > 0 && p + 1 == parts => 17,
                _ => 150,
            };
            for r in next..next + take {
                b.push_row(rows.row(r));
            }
            next += take;
        }
        if parts.is_multiple_of(2) {
            // `build` closes the last partition only if it holds rows.
            b.cut_partition();
        }
        let t = b.build();
        assert_eq!(t.partitions().len(), parts, "fixture: {parts} partitions");
        t
    }

    /// Every split of partitions `0..parts` into non-empty groups, each
    /// group ascending: the set partitions, as restricted growth strings.
    fn splits(parts: usize) -> Vec<Vec<Vec<usize>>> {
        let mut out = Vec::new();
        let mut grow = vec![0usize; parts];
        loop {
            let groups = grow.iter().max().map_or(0, |&m| m + 1);
            let mut split = vec![Vec::new(); groups];
            grow.iter().enumerate().for_each(|(p, &g)| split[g].push(p));
            out.push(split);
            // The next string: bump the last position that may grow.
            let Some(i) = (1..parts).rev().find(|&i| grow[i] <= *grow[..i].iter().max().unwrap())
            else {
                return out;
            };
            grow[i] += 1;
            grow[i + 1..].iter_mut().for_each(|g| *g = 0);
        }
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
