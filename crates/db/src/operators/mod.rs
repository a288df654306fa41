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
//! per partition, the ascending `u32` row indices the switch forwarded
//! (for HAVING, the rows of announced keys) — and reads the tables
//! through that selection, column-wise: resolve a partition's columns
//! once, gather the selected cells. It sees *every* forwarded row and only
//! true values, so probabilistic switch structures (fingerprints, Bloom
//! filters, Count-Min) never corrupt the output, only change how much
//! survives.
//!
//! Completion is a function of a row selection and nothing else, so the
//! *identity* selection ([`Survivors::all`]: every row of every partition)
//! is the unaccelerated plan: `complete` over it answers the query with no
//! `spec()`, no encode and no switch. That is the whole of the direct arm
//! ([`Cluster::run_direct`](crate::Cluster::run_direct)) — no operator
//! carries a second implementation for it.
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
//! 3. Dispatch to it from
//!    [`Cluster::run_cheetah`](crate::Cluster::run_cheetah) (or call
//!    `Cluster::execute` directly for operators outside [`DbQuery`]).
//!
//! That is the whole surface: the eighth query type is a one-file PR.
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

/// What came through the switch, as row selections: per stream, per
/// partition, the strictly ascending row indices the switch forwarded
/// (for HAVING, the rows of announced keys). The executor fills it — four
/// bytes per survivor, no entry is ever built — and
/// [`PruningOperator::complete`] reads the tables through it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Survivors {
    streams: Vec<Vec<Vec<u32>>>,
}

impl Survivors {
    /// One selection per partition of each of the first `streams` streams
    /// of `src` — shaping them is also the stream-arity check.
    fn shaped(
        src: &Tables<'_>,
        streams: usize,
        selection: impl Fn(&Partition) -> Vec<u32>,
    ) -> cheetah_core::Result<Self> {
        let shape =
            |s| src.stream(s).map(|t: &Table| t.partitions().iter().map(&selection).collect());
        Ok(Self { streams: (0..streams).map(shape).collect::<Result<_, _>>()? })
    }

    /// Nothing kept yet: every selection empty.
    pub(crate) fn none(src: &Tables<'_>, streams: usize) -> cheetah_core::Result<Self> {
        Self::shaped(src, streams, |_| Vec::new())
    }

    /// The identity selection: every row of every partition of the first
    /// `streams` streams of `src`. Completing over it *is* the unpruned
    /// plan — what [`Cluster::run_direct`](crate::Cluster::run_direct)
    /// runs where the switch would cost more than it saves.
    pub fn all(src: &Tables<'_>, streams: usize) -> cheetah_core::Result<Self> {
        Self::shaped(src, streams, |p| (0..p.rows() as u32).collect())
    }

    /// Keep `rows` — ascending, and past anything already kept — of
    /// partition `part` of stream `stream`.
    pub(crate) fn keep(&mut self, stream: usize, part: usize, rows: &[u32]) {
        let selection = &mut self.streams[stream][part];
        selection.extend_from_slice(rows);
        debug_assert!(selection.windows(2).all(|w| w[0] < w[1]), "a selection ascends strictly");
    }

    /// Rows kept across all streams — the entries the master receives.
    pub fn count(&self) -> u64 {
        self.streams.iter().flatten().map(|sel| sel.len() as u64).sum()
    }

    /// Each partition of stream `stream` of `src` beside its selection:
    /// the walk every completion makes, resolving its columns once per
    /// partition and gathering the selected cells. A stream `src` does
    /// not carry has no partitions (and the executor refuses to run it).
    pub fn parts<'s, 't: 's>(
        &'s self,
        src: &Tables<'t>,
        stream: usize,
    ) -> impl Iterator<Item = (&'t Partition, &'s [u32])> {
        let parts = src.stream(stream).map_or(&[][..], Table::partitions);
        parts.iter().zip(&self.streams[stream]).map(|(part, sel)| (part, sel.as_slice()))
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

/// The cells of key column `col` at the selected rows, in selection
/// order, as `(row, key)`: the Int/Str dispatch happens once per
/// partition.
pub(crate) fn for_each_selected_key<'t>(
    col: &'t Column,
    selection: &[u32],
    mut f: impl FnMut(usize, KeyRef<'t>),
) {
    match col {
        Column::Int(v) => selection.iter().for_each(|&r| f(r as usize, KeyRef::Int(v[r as usize]))),
        Column::Str(v) => {
            selection.iter().for_each(|&r| f(r as usize, KeyRef::Str(&v[r as usize])))
        }
    }
}

/// The switch encoding of every cell of a key column, in row order, as
/// `(row, key)`: ints map order-preservingly; strings are 63-bit
/// fingerprints (the CWorker cannot ship variable-length strings in a
/// fixed header — §5 Example #8), hashed in place. The Int/Str dispatch
/// happens once per partition — no per-row `Value`. Routing keys
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
    }
}

/// [`for_each_key`]'s key for the one cell at `row` — for the planner's
/// strided sample, which reads a few thousand cells of a column, not all.
pub(crate) fn key_at(seed: u64, col: &Column, row: usize) -> u64 {
    match col {
        Column::Int(v) => encode_ordered_i64(v[row]),
        Column::Str(v) => str_key(&HashFn::from_seed(seed), &v[row]),
    }
}

#[inline]
fn str_key(h: &HashFn, s: &str) -> u64 {
    h.hash_bytes(s.as_bytes()) >> 1
}

/// Clamped order-preserving 32-bit encoding for aggregate/order columns
/// (register cells hold 32-bit values; saturation only ever *reduces*
/// pruning, never correctness — saturated values tie and ties forward).
pub(crate) fn encode_i64_32(v: i64) -> u64 {
    (v.saturating_add(1 << 31).clamp(0, u32::MAX as i64)) as u64
}
