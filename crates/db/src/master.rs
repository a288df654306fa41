//! The master merge plane: completing a query from per-shard results.
//!
//! Under sharded execution (§2's deployment model, [`crate::sharded`])
//! every shard runs the full pruned dataflow over its slice of the data
//! and completes its query locally; the master then merges the shard
//! outputs into the global answer. The merge re-applies the operator's
//! `complete` contract over the pruned union, which per query family
//! means:
//!
//! * **re-prune** — TOP N re-sorts and truncates the union, SKYLINE
//!   re-runs the exact dominance check over the shard skylines, DISTINCT
//!   re-normalizes the value union. Correct under *any* deterministic
//!   shard routing, because every global survivor survives its own shard.
//! * **key-union** — GROUP BY MAX takes the per-key max across shards;
//!   HAVING unions the per-shard qualifying keys. HAVING additionally
//!   *requires key-aligned routing* (all rows of a key on one shard, which
//!   [`crate::sharded`] guarantees) so local sums are global sums.
//! * **count-sum** — filtered counts and JOIN pair counts add up; JOIN
//!   requires shard-aligned co-partitioning (both sides routed by the join
//!   key with the same [`Sharder`](cheetah_core::Sharder)) so every
//!   matching pair meets inside exactly one shard.
//!
//! # Incremental merging
//!
//! The merge semantics exist in two granularities:
//!
//! * **batch-at-a-time** — the stream transport decomposes each shard
//!   output into [`MergeItem`]s ([`decompose_output`]), cuts them into
//!   frames ([`frame_items`]), and folds the frames into a [`MergeState`]
//!   ([`MergeState::ingest_survivor_batch`]): TOP N and SKYLINE *re-prune*
//!   their running survivors per batch, DISTINCT re-normalizes, GROUP BY /
//!   HAVING / filtered counts / JOIN pair counts fold associatively. The
//!   fold is order-insensitive across shards and batches, and idempotent
//!   per frame, which is what lets a lossy carrier deliver frames
//!   reordered, resent and duplicated.
//! * **output-at-a-time** — the barrier path's [`merge_shard_outputs`]
//!   drives the same [`MergeState`] with every shard's complete output at
//!   once, except GROUP BY MAX, whose whole shard maps fold map-into-map
//!   with the same entry-wise max. The grids in the contract gates run
//!   both paths over every family and hold them to one answer.

use crate::ops;
use crate::query::{DbQuery, QueryOutput};
use crate::value::Value;
use bytes::{BufMut, Bytes, BytesMut};
use cheetah_net::{FrameBuilder, SurvivorBatch, WireError, MAX_BATCH_ITEMS};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Merge per-shard outputs of `q` into the global output, following the
/// per-operator semantics above. Every element of `outputs` must be the
/// variant `q` produces (they come from the same executor); a mismatch is
/// a bug in the caller, not a data error, and panics.
///
/// This is the batch plane driven to completion in one call: each output
/// is decomposed into its [`MergeItem`]s and folded through a
/// [`MergeState`].
pub fn merge_shard_outputs(q: &DbQuery, outputs: Vec<QueryOutput>) -> QueryOutput {
    // GROUP BY MAX folds whole shard maps key-union-wise. The fold is the
    // same entry-max as [`MergeState`]'s (associative, order-insensitive),
    // but map-into-map skips the per-item decompose/ingest machinery that
    // only the streamed plane's framing needs.
    if let DbQuery::GroupByMax { .. } = q {
        let mut acc: BTreeMap<Value, i64> = BTreeMap::new();
        for o in outputs {
            let m = match o {
                QueryOutput::KeyedInts(m) => m,
                other => mismatch("KeyedInts", &other),
            };
            if acc.is_empty() {
                acc = m;
                continue;
            }
            for (k, v) in m {
                acc.entry(k).and_modify(|x| *x = (*x).max(v)).or_insert(v);
            }
        }
        return QueryOutput::KeyedInts(acc);
    }
    let mut state = MergeState::new(q);
    for o in outputs {
        state.ingest_batch(decompose_output(q, o));
    }
    state.finish()
}

/// One unit of mergeable survivor state — the granularity the streamed
/// runtime ships between a shard worker and the master merge plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeItem {
    /// A partial count (filtered rows, or JOIN pairs — the owning
    /// [`MergeState`] knows which its query sums).
    Count(u64),
    /// One DISTINCT survivor value.
    Value(Value),
    /// One TOP N order-column survivor.
    Top(i64),
    /// One SKYLINE survivor point.
    Point(Vec<i64>),
    /// One `key → aggregate` pair (GROUP BY MAX / HAVING).
    Keyed(Value, i64),
}

const ITEM_COUNT: u8 = 1;
const ITEM_VALUE_INT: u8 = 2;
const ITEM_VALUE_STR: u8 = 3;
const ITEM_TOP: u8 = 4;
const ITEM_POINT: u8 = 5;
const ITEM_KEYED_INT: u8 = 6;
const ITEM_KEYED_STR: u8 = 7;

impl MergeItem {
    /// Serialize by appending to `b` — into a frame's shared arena
    /// ([`FrameBuilder::push_with`]), as [`frame_items`] does: no per-item
    /// buffer.
    pub fn encode_into(&self, b: &mut BytesMut) {
        match self {
            MergeItem::Count(c) => {
                b.put_u8(ITEM_COUNT);
                b.put_u64(*c);
            }
            MergeItem::Value(Value::Int(v)) => {
                b.put_u8(ITEM_VALUE_INT);
                b.put_u64(*v as u64);
            }
            MergeItem::Value(Value::Str(s)) => {
                b.put_u8(ITEM_VALUE_STR);
                put_str(b, s);
            }
            MergeItem::Top(v) => {
                b.put_u8(ITEM_TOP);
                b.put_u64(*v as u64);
            }
            MergeItem::Point(p) => {
                b.put_u8(ITEM_POINT);
                b.put_u16(p.len() as u16);
                for &d in p {
                    b.put_u64(d as u64);
                }
            }
            MergeItem::Keyed(Value::Int(k), v) => {
                b.put_u8(ITEM_KEYED_INT);
                b.put_u64(*k as u64);
                b.put_u64(*v as u64);
            }
            MergeItem::Keyed(Value::Str(k), v) => {
                b.put_u8(ITEM_KEYED_STR);
                put_str(b, k);
                b.put_u64(*v as u64);
            }
        }
    }

    /// Parse an item payload back, straight out of a borrowed slice (the
    /// master reads items in place in a frame's arena); defensive like the
    /// wire formats — malformed payloads are typed [`WireError`]s, never
    /// panics.
    pub fn decode_slice(buf: &[u8]) -> Result<MergeItem, WireError> {
        let mut buf = buf;
        let tag = take_u8(&mut buf)?;
        let item = match tag {
            ITEM_COUNT => MergeItem::Count(take_u64(&mut buf)?),
            ITEM_VALUE_INT => MergeItem::Value(Value::Int(take_u64(&mut buf)? as i64)),
            ITEM_VALUE_STR => MergeItem::Value(Value::Str(take_str(&mut buf)?)),
            ITEM_TOP => MergeItem::Top(take_u64(&mut buf)? as i64),
            ITEM_POINT => {
                let dims = take_u16(&mut buf)? as usize;
                let mut p = Vec::with_capacity(dims.min(64));
                for _ in 0..dims {
                    p.push(take_u64(&mut buf)? as i64);
                }
                MergeItem::Point(p)
            }
            ITEM_KEYED_INT => {
                let k = take_u64(&mut buf)? as i64;
                MergeItem::Keyed(Value::Int(k), take_u64(&mut buf)? as i64)
            }
            ITEM_KEYED_STR => {
                let k = take_str(&mut buf)?;
                MergeItem::Keyed(Value::Str(k), take_u64(&mut buf)? as i64)
            }
            other => return Err(WireError::BadType(other)),
        };
        // A complete item consumes its payload exactly; trailing bytes
        // mean the encoder and decoder disagree about the shape.
        if !buf.is_empty() {
            return Err(WireError::BadPayload);
        }
        Ok(item)
    }
}

fn put_str(b: &mut BytesMut, s: &str) {
    b.put_u32(s.len() as u32);
    b.put_slice(s.as_bytes());
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    let (&v, rest) = buf.split_first().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(v)
}

fn take_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    if buf.len() < 2 {
        return Err(WireError::Truncated);
    }
    let (h, rest) = buf.split_at(2);
    *buf = rest;
    Ok(u16::from_be_bytes([h[0], h[1]]))
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.len() < 8 {
        return Err(WireError::Truncated);
    }
    let (h, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_be_bytes(h.try_into().expect("8-byte split")))
}

fn take_str(buf: &mut &[u8]) -> Result<String, WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (h, rest) = buf.split_at(4);
    let len = u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize;
    if rest.len() < len {
        return Err(WireError::Truncated);
    }
    let (s, tail) = rest.split_at(len);
    let s = std::str::from_utf8(s).map_err(|_| WireError::BadPayload)?;
    *buf = tail;
    Ok(s.to_string())
}

/// Decompose one shard's completed output into its [`MergeItem`]s. The
/// output must be the variant `q` produces; a mismatch panics, exactly
/// like [`merge_shard_outputs`].
pub fn decompose_output(q: &DbQuery, output: QueryOutput) -> Vec<MergeItem> {
    match (q, output) {
        (DbQuery::FilterCount { .. }, QueryOutput::Count(c)) => vec![MergeItem::Count(c)],
        (DbQuery::FilterCount { .. }, other) => mismatch("Count", &other),
        (DbQuery::Join { .. }, QueryOutput::JoinPairs(p)) => vec![MergeItem::Count(p)],
        (DbQuery::Join { .. }, other) => mismatch("JoinPairs", &other),
        (DbQuery::Distinct { .. }, QueryOutput::Values(v)) => {
            v.into_iter().map(MergeItem::Value).collect()
        }
        (DbQuery::Distinct { .. }, other) => mismatch("Values", &other),
        (DbQuery::TopN { .. }, QueryOutput::TopValues(v)) => {
            v.into_iter().map(MergeItem::Top).collect()
        }
        (DbQuery::TopN { .. }, other) => mismatch("TopValues", &other),
        (DbQuery::Skyline { .. }, QueryOutput::Points(p)) => {
            p.into_iter().map(MergeItem::Point).collect()
        }
        (DbQuery::Skyline { .. }, other) => mismatch("Points", &other),
        (DbQuery::GroupByMax { .. } | DbQuery::HavingSum { .. }, QueryOutput::KeyedInts(m)) => {
            m.into_iter().map(|(k, v)| MergeItem::Keyed(k, v)).collect()
        }
        (DbQuery::GroupByMax { .. } | DbQuery::HavingSum { .. }, other) => {
            mismatch("KeyedInts", &other)
        }
    }
}

/// Cut one shard's decomposed `items` into [`SurvivorBatch`] frames of
/// `batch` items each (clamped to what a frame carries), numbered from
/// sequence 0 — the stream transport's one framing. Each item is encoded
/// once, straight into its frame's arena. No items, no frames.
pub fn frame_items(shard: u32, items: &[MergeItem], batch: usize) -> Vec<Bytes> {
    let mut frames = FrameBuilder::new();
    items
        .chunks(batch.clamp(1, MAX_BATCH_ITEMS))
        .enumerate()
        .map(|(seq, chunk)| {
            frames.begin(shard, seq as u64);
            for item in chunk {
                frames.push_with(|b| item.encode_into(b));
            }
            frames.finish()
        })
        .collect()
}

fn mismatch(expected: &str, got: &QueryOutput) -> ! {
    panic!("shard output variant mismatch: expected {expected}, got {got:?}")
}

/// TOP N keeps at most this many values beyond `n` before re-pruning, so
/// the running state stays bounded however many batches arrive.
const TOPN_SLACK: usize = 256;

/// The incremental master merge plane: per-operator survivor state that
/// folds [`MergeItem`]s as batches arrive and yields the global
/// [`QueryOutput`] at [`finish`](MergeState::finish).
///
/// The fold is associative and order-insensitive across shards and
/// batches — re-prune (TOP N / SKYLINE / DISTINCT), key-union
/// (GROUP BY MAX / HAVING), and count-sum (filter / JOIN) all commute —
/// so the streamed runtime may interleave batches from different shards
/// freely and still match the barrier merge bit for bit.
#[derive(Debug, Clone)]
pub struct MergeState {
    acc: Acc,
    ingested: u64,
    /// `(shard, seq)` frames already folded — the paper's master-side
    /// dedup, lifted to the merge plane so retransmitted survivor batches
    /// are idempotent.
    seen: HashSet<(u32, u64)>,
    duplicate_batches: u64,
}

#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    JoinPairs(u64),
    Values(BTreeSet<Value>),
    Top { n: usize, vals: Vec<i64> },
    Points(Vec<Vec<i64>>),
    GroupMax(BTreeMap<Value, i64>),
    Having(BTreeMap<Value, i64>),
}

impl MergeState {
    /// Fresh merge state for `q`.
    pub fn new(q: &DbQuery) -> Self {
        let acc = match q {
            DbQuery::FilterCount { .. } => Acc::Count(0),
            DbQuery::Join { .. } => Acc::JoinPairs(0),
            DbQuery::Distinct { .. } => Acc::Values(BTreeSet::new()),
            DbQuery::TopN { n, .. } => Acc::Top { n: *n, vals: Vec::new() },
            DbQuery::Skyline { .. } => Acc::Points(Vec::new()),
            DbQuery::GroupByMax { .. } => Acc::GroupMax(BTreeMap::new()),
            DbQuery::HavingSum { .. } => Acc::Having(BTreeMap::new()),
        };
        Self { acc, ingested: 0, seen: HashSet::new(), duplicate_batches: 0 }
    }

    /// Fold one item. The item kind must match the query's (a mismatch is
    /// a caller bug and panics, like [`merge_shard_outputs`]).
    pub fn ingest(&mut self, item: MergeItem) {
        self.ingested += 1;
        match (&mut self.acc, item) {
            (Acc::Count(acc), MergeItem::Count(c)) => *acc += c,
            (Acc::JoinPairs(acc), MergeItem::Count(p)) => *acc += p,
            (Acc::Values(set), MergeItem::Value(v)) => {
                set.insert(v);
            }
            (Acc::Top { n, vals }, MergeItem::Top(v)) => {
                vals.push(v);
                if vals.len() > *n + TOPN_SLACK {
                    reprune_top(vals, *n);
                }
            }
            (Acc::Points(pts), MergeItem::Point(p)) => pts.push(p),
            (Acc::GroupMax(map), MergeItem::Keyed(k, v)) => {
                map.entry(k).and_modify(|x| *x = (*x).max(v)).or_insert(v);
            }
            (Acc::Having(map), MergeItem::Keyed(k, v)) => {
                // Key-aligned routing puts every row of a key on one
                // shard, so shard-local sums (and the threshold decision)
                // are global — later duplicates would carry the same sum.
                map.insert(k, v);
            }
            (_, item) => panic!("merge item variant mismatch: {item:?} for this query"),
        }
    }

    /// Fold a whole batch, then re-prune the running survivor state
    /// (TOP N truncates to `n`, SKYLINE drops dominated points) so state
    /// stays bounded by output size between batches, not by input size.
    pub fn ingest_batch(&mut self, items: impl IntoIterator<Item = MergeItem>) {
        for item in items {
            self.ingest(item);
        }
        self.compact();
    }

    /// Fold one framed [`SurvivorBatch`] *idempotently*: a frame whose
    /// `(shard, seq)` identity was already folded is counted and skipped,
    /// so a lossy channel may deliver retransmitted or duplicated frames
    /// in any order without perturbing the merge. Returns `Ok(true)` when
    /// the batch was new (and folded), `Ok(false)` for a discarded
    /// duplicate. This is the only ingest door the lossy runtime uses —
    /// the dedup lives *in* the merge plane, not in each transport.
    ///
    /// A new batch's items are read zero-copy out of the frame's arena
    /// ([`MergeItem::decode_slice`]) and folded, then the state compacts
    /// once, like [`ingest_batch`](MergeState::ingest_batch). A malformed
    /// item is a typed [`WireError`], with the items before it already
    /// folded (the caller abandons the run, not the state).
    pub fn ingest_survivor_batch(&mut self, batch: &SurvivorBatch) -> Result<bool, WireError> {
        if !self.seen.insert((batch.shard, batch.seq)) {
            self.duplicate_batches += 1;
            return Ok(false);
        }
        for item in batch.items() {
            self.ingest(MergeItem::decode_slice(item)?);
        }
        self.compact();
        Ok(true)
    }

    /// Retransmitted/duplicated frames discarded by
    /// [`ingest_survivor_batch`](MergeState::ingest_survivor_batch).
    pub fn duplicate_batches(&self) -> u64 {
        self.duplicate_batches
    }

    /// Items folded so far.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    fn compact(&mut self) {
        match &mut self.acc {
            Acc::Top { n, vals } => reprune_top(vals, *n),
            Acc::Points(pts) if !pts.is_empty() => *pts = ops::skyline_of(pts),
            _ => {}
        }
    }

    /// Complete the merge: re-prune once more and emit the normalized
    /// global output (equal to the corresponding barrier merge).
    pub fn finish(mut self) -> QueryOutput {
        self.compact();
        match self.acc {
            Acc::Count(c) => QueryOutput::Count(c),
            Acc::JoinPairs(p) => QueryOutput::JoinPairs(p),
            Acc::Values(set) => QueryOutput::Values(set.into_iter().collect()),
            Acc::Top { vals, .. } => QueryOutput::top_values(vals),
            Acc::Points(pts) => QueryOutput::points(pts),
            Acc::GroupMax(map) | Acc::Having(map) => QueryOutput::KeyedInts(map),
        }
    }
}

fn reprune_top(vals: &mut Vec<i64>, n: usize) {
    if vals.len() > n {
        vals.sort_unstable_by(|a, b| b.cmp(a));
        vals.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{DbPredicate, IntCmp};

    fn filter_q() -> DbQuery {
        DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 0, op: IntCmp::Lt, lit: 1 } }
    }

    #[test]
    fn counts_and_join_pairs_sum() {
        let merged = merge_shard_outputs(
            &filter_q(),
            vec![QueryOutput::Count(3), QueryOutput::Count(0), QueryOutput::Count(4)],
        );
        assert_eq!(merged, QueryOutput::Count(7));
        let joined = merge_shard_outputs(
            &DbQuery::Join { left_key: 0, right_key: 0 },
            vec![QueryOutput::JoinPairs(5), QueryOutput::JoinPairs(2)],
        );
        assert_eq!(joined, QueryOutput::JoinPairs(7));
    }

    #[test]
    fn distinct_union_renormalizes() {
        let merged = merge_shard_outputs(
            &DbQuery::Distinct { col: 0 },
            vec![
                QueryOutput::values(vec![Value::Int(2), Value::Int(1)]),
                QueryOutput::values(vec![Value::Int(2), Value::Int(3)]),
            ],
        );
        assert_eq!(merged, QueryOutput::Values(vec![Value::Int(1), Value::Int(2), Value::Int(3)]));
    }

    #[test]
    fn topn_re_prunes_to_n() {
        let merged = merge_shard_outputs(
            &DbQuery::TopN { order_col: 0, n: 3 },
            vec![QueryOutput::top_values(vec![9, 7, 5]), QueryOutput::top_values(vec![8, 6])],
        );
        assert_eq!(merged, QueryOutput::TopValues(vec![9, 8, 7]));
    }

    #[test]
    fn skyline_re_prunes_cross_shard_domination() {
        // Shard 0's champion (3,3) dominates shard 1's survivors.
        let merged = merge_shard_outputs(
            &DbQuery::Skyline { cols: vec![0, 1] },
            vec![
                QueryOutput::points(vec![vec![3, 3]]),
                QueryOutput::points(vec![vec![1, 2], vec![2, 1]]),
            ],
        );
        assert_eq!(merged, QueryOutput::Points(vec![vec![3, 3]]));
    }

    #[test]
    fn groupby_key_union_takes_the_max() {
        let m1: BTreeMap<Value, i64> =
            [(Value::Int(1), 5), (Value::Int(2), 9)].into_iter().collect();
        let m2: BTreeMap<Value, i64> =
            [(Value::Int(1), 8), (Value::Int(3), 1)].into_iter().collect();
        let merged = merge_shard_outputs(
            &DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            vec![QueryOutput::KeyedInts(m1), QueryOutput::KeyedInts(m2)],
        );
        let want: BTreeMap<Value, i64> =
            [(Value::Int(1), 8), (Value::Int(2), 9), (Value::Int(3), 1)].into_iter().collect();
        assert_eq!(merged, QueryOutput::KeyedInts(want));
    }

    #[test]
    fn having_unions_disjoint_key_sets() {
        let m1: BTreeMap<Value, i64> = [(Value::Int(1), 100)].into_iter().collect();
        let m2: BTreeMap<Value, i64> = [(Value::Int(2), 200)].into_iter().collect();
        let merged = merge_shard_outputs(
            &DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 50 },
            vec![QueryOutput::KeyedInts(m1), QueryOutput::KeyedInts(m2)],
        );
        let want: BTreeMap<Value, i64> =
            [(Value::Int(1), 100), (Value::Int(2), 200)].into_iter().collect();
        assert_eq!(merged, QueryOutput::KeyedInts(want));
    }

    #[test]
    fn empty_shard_list_yields_empty_output() {
        assert_eq!(merge_shard_outputs(&filter_q(), vec![]), QueryOutput::Count(0));
        assert_eq!(
            merge_shard_outputs(&DbQuery::Distinct { col: 0 }, vec![]),
            QueryOutput::Values(vec![])
        );
    }

    #[test]
    #[should_panic(expected = "variant mismatch")]
    fn variant_mismatch_is_a_loud_bug() {
        let _ = merge_shard_outputs(&filter_q(), vec![QueryOutput::JoinPairs(1)]);
    }

    // ------------------------------------------------------------------
    // The incremental plane: codec + batch-order invariance
    // ------------------------------------------------------------------

    /// One item's payload, as a frame's arena holds it.
    fn encoded(item: &MergeItem) -> Vec<u8> {
        let mut b = BytesMut::new();
        item.encode_into(&mut b);
        b.to_vec()
    }

    #[test]
    fn merge_items_round_trip_through_the_codec() {
        let items = vec![
            MergeItem::Count(u64::MAX),
            MergeItem::Value(Value::Int(-5)),
            MergeItem::Value(Value::Str("agent-λ".into())),
            MergeItem::Value(Value::Str(String::new())),
            MergeItem::Top(i64::MIN),
            MergeItem::Point(vec![]),
            MergeItem::Point(vec![3, -1, i64::MAX]),
            MergeItem::Keyed(Value::Int(7), -9),
            MergeItem::Keyed(Value::Str("key-0".into()), 1_000_000),
        ];
        for item in items {
            let back = MergeItem::decode_slice(&encoded(&item)).expect("decode back");
            assert_eq!(back, item);
        }
    }

    #[test]
    fn merge_item_decode_is_defensive() {
        assert_eq!(MergeItem::decode_slice(&[]), Err(WireError::Truncated));
        assert_eq!(MergeItem::decode_slice(&[99u8]), Err(WireError::BadType(99)));
        // Every truncation of a valid payload errors instead of panicking.
        let full = encoded(&MergeItem::Keyed(Value::Str("hello".into()), 42));
        for len in 0..full.len() {
            assert!(MergeItem::decode_slice(&full[..len]).is_err(), "len {len}");
        }
        // Corruption is not misreported as truncation: invalid UTF-8 in a
        // complete string payload, and trailing bytes beyond the item,
        // are both payload errors.
        assert_eq!(MergeItem::decode_slice(&[3u8, 0, 0, 0, 1, 0xFF]), Err(WireError::BadPayload));
        let mut trailing = encoded(&MergeItem::Top(9));
        trailing.push(0);
        assert_eq!(MergeItem::decode_slice(&trailing), Err(WireError::BadPayload));
    }

    #[test]
    fn framed_items_carry_each_encoding_once_and_fold_like_items() {
        let items: Vec<MergeItem> = (0..7).map(MergeItem::Top).collect();
        // ⌈7 / 3⌉ frames of this shard, numbered from zero, each holding
        // its chunk's encodings in order.
        let frames = frame_items(5, &items, 3);
        assert_eq!(frames.len(), 3);
        for (seq, (frame, chunk)) in frames.iter().zip(items.chunks(3)).enumerate() {
            let batch = SurvivorBatch::parse(frame.clone()).expect("frame parses");
            assert_eq!((batch.shard, batch.seq), (5, seq as u64));
            let got: Vec<&[u8]> = batch.items().collect();
            let want: Vec<Vec<u8>> = chunk.iter().map(encoded).collect();
            assert_eq!(got, want.iter().map(Vec::as_slice).collect::<Vec<_>>());
        }
        // No items, no frames; a zero batch frames one item apiece.
        assert!(frame_items(0, &[], 3).is_empty());
        assert_eq!(frame_items(0, &items, 0).len(), items.len());
        // Folding the frames equals folding the items.
        let q = DbQuery::TopN { order_col: 0, n: 2 };
        let mut by_item = MergeState::new(&q);
        by_item.ingest_batch(items.iter().cloned());
        let mut by_frame = MergeState::new(&q);
        for f in frames {
            let batch = SurvivorBatch::parse(f).expect("frame parses");
            assert_eq!(by_frame.ingest_survivor_batch(&batch), Ok(true));
        }
        assert_eq!(by_frame.ingested(), 7);
        assert_eq!(by_item.finish(), by_frame.finish());
        // A malformed item surfaces as a typed error, not a panic.
        let mut st = MergeState::new(&q);
        for (seq, (item, err)) in
            [(&[][..], WireError::Truncated), (&[99u8][..], WireError::BadType(99))]
                .into_iter()
                .enumerate()
        {
            let batch = SurvivorBatch::parse(cheetah_net::emit_batch(0, seq as u64, [item]))
                .expect("frame parses");
            assert_eq!(st.ingest_survivor_batch(&batch), Err(err));
        }
    }

    #[test]
    fn incremental_batches_equal_the_barrier_merge_in_any_order() {
        // Fold the same shard outputs item-by-item, in per-shard batches,
        // and in reversed interleaved order: all must equal the one-shot
        // barrier merge.
        let q = DbQuery::TopN { order_col: 0, n: 3 };
        let outputs =
            vec![QueryOutput::top_values(vec![9, 7, 5]), QueryOutput::top_values(vec![8, 6, 4])];
        let barrier = merge_shard_outputs(&q, outputs.clone());

        let items: Vec<MergeItem> =
            outputs.iter().flat_map(|o| decompose_output(&q, o.clone())).collect();
        for chunk in [1usize, 2, 6] {
            let mut fwd = MergeState::new(&q);
            for c in items.chunks(chunk) {
                fwd.ingest_batch(c.to_vec());
            }
            assert_eq!(fwd.finish(), barrier, "chunk {chunk}");
            let mut rev = MergeState::new(&q);
            rev.ingest_batch(items.iter().rev().cloned().collect::<Vec<_>>());
            assert_eq!(rev.finish(), barrier, "reversed, chunk {chunk}");
        }
    }

    #[test]
    fn incremental_skyline_and_groupby_fold_per_batch() {
        let q = DbQuery::Skyline { cols: vec![0, 1] };
        let mut st = MergeState::new(&q);
        st.ingest_batch(vec![MergeItem::Point(vec![1, 2]), MergeItem::Point(vec![2, 1])]);
        st.ingest_batch(vec![MergeItem::Point(vec![3, 3])]);
        assert_eq!(st.ingested(), 3);
        assert_eq!(st.finish(), QueryOutput::Points(vec![vec![3, 3]]));

        let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
        let mut st = MergeState::new(&q);
        st.ingest_batch(vec![MergeItem::Keyed(Value::Int(1), 5)]);
        st.ingest_batch(vec![
            MergeItem::Keyed(Value::Int(1), 9),
            MergeItem::Keyed(Value::Int(2), 1),
        ]);
        let want: BTreeMap<Value, i64> =
            [(Value::Int(1), 9), (Value::Int(2), 1)].into_iter().collect();
        assert_eq!(st.finish(), QueryOutput::KeyedInts(want));
    }

    #[test]
    fn topn_state_stays_bounded_across_many_batches() {
        let q = DbQuery::TopN { order_col: 0, n: 4 };
        let mut st = MergeState::new(&q);
        for round in 0..50i64 {
            st.ingest_batch((0..100).map(|i| MergeItem::Top(round * 100 + i)));
        }
        // After every batch the state re-prunes to n.
        assert_eq!(st.finish(), QueryOutput::TopValues(vec![4999, 4998, 4997, 4996]));
    }

    #[test]
    #[should_panic(expected = "variant mismatch")]
    fn merge_state_rejects_cross_query_items() {
        let mut st = MergeState::new(&DbQuery::Distinct { col: 0 });
        st.ingest(MergeItem::Top(5));
    }

    // ------------------------------------------------------------------
    // Frame-level idempotence: the merge plane's (shard, seq) dedup.
    // ------------------------------------------------------------------

    fn count_frame(shard: u32, seq: u64, counts: &[u64]) -> cheetah_net::SurvivorBatch {
        let items = counts.iter().map(|&c| encoded(&MergeItem::Count(c)));
        cheetah_net::SurvivorBatch::parse(cheetah_net::emit_batch(shard, seq, items))
            .expect("frame parses")
    }

    #[test]
    fn retransmitted_batches_fold_exactly_once() {
        let q = filter_q();
        let mut st = MergeState::new(&q);
        let b0 = count_frame(0, 0, &[3]);
        let b1 = count_frame(0, 1, &[4]);
        assert_eq!(st.ingest_survivor_batch(&b0), Ok(true));
        assert_eq!(st.ingest_survivor_batch(&b1), Ok(true));
        // A retransmit of either frame is discarded, not re-folded.
        assert_eq!(st.ingest_survivor_batch(&b0), Ok(false));
        assert_eq!(st.ingest_survivor_batch(&b1), Ok(false));
        assert_eq!(st.ingest_survivor_batch(&b0), Ok(false));
        assert_eq!(st.duplicate_batches(), 3);
        assert_eq!(st.finish(), QueryOutput::Count(7));
    }

    #[test]
    fn same_seq_on_different_shards_is_not_a_duplicate() {
        let q = filter_q();
        let mut st = MergeState::new(&q);
        assert_eq!(st.ingest_survivor_batch(&count_frame(0, 0, &[1])), Ok(true));
        assert_eq!(st.ingest_survivor_batch(&count_frame(1, 0, &[2])), Ok(true));
        assert_eq!(st.ingest_survivor_batch(&count_frame(2, 0, &[4])), Ok(true));
        assert_eq!(st.duplicate_batches(), 0);
        assert_eq!(st.finish(), QueryOutput::Count(7));
    }

    #[test]
    fn duplicated_and_reordered_frames_match_the_clean_fold() {
        // TOP N is the family where double-folding would actually corrupt
        // the answer if dedup failed (Count would just double).
        let q = DbQuery::TopN { order_col: 0, n: 2 };
        let frames: Vec<cheetah_net::SurvivorBatch> = [(0u32, vec![5i64, 9]), (1u32, vec![7, 1])]
            .iter()
            .flat_map(|(shard, vals)| {
                vals.iter().enumerate().map(move |(seq, &v)| {
                    let item = encoded(&MergeItem::Top(v));
                    cheetah_net::SurvivorBatch::parse(cheetah_net::emit_batch(
                        *shard,
                        seq as u64,
                        [item],
                    ))
                    .unwrap()
                })
            })
            .collect();
        let mut clean = MergeState::new(&q);
        for f in &frames {
            assert_eq!(clean.ingest_survivor_batch(f), Ok(true));
        }
        // Deliver reversed, with every frame duplicated twice.
        let mut lossy = MergeState::new(&q);
        for f in frames.iter().rev() {
            lossy.ingest_survivor_batch(f).unwrap();
            lossy.ingest_survivor_batch(f).unwrap();
            lossy.ingest_survivor_batch(f).unwrap();
        }
        assert_eq!(lossy.duplicate_batches(), 2 * frames.len() as u64);
        assert_eq!(lossy.ingested(), clean.ingested());
        assert_eq!(lossy.finish(), clean.finish());
    }
}
