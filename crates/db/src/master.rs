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
//! # One fold, and a frame codec the frozen ledger keeps
//!
//! The merge semantics live in one function, [`merge_shard_outputs`]: one
//! `match` on the query that folds whole typed partials. Every path ends
//! in it, fault mode included: a faulty run carries rows, not partials,
//! and merges its shards' outputs like a lossless one.
//!
//! The frame codec beside it — [`MergeItem`], [`decompose_output`] and
//! [`MergeState`], which dedups survivor frames by `(shard, seq)` and
//! composes each back into a partial for the same fold — serves no
//! product path. It stays only because the frozen benchmark ledger
//! (`cheetah-ledger`) times it; it goes once the ledger stops naming it.

use crate::ops;
use crate::query::{DbQuery, QueryOutput};
use crate::value::Value;
use bytes::{BufMut, BytesMut};
use cheetah_net::{SurvivorBatch, WireError};
use std::collections::{BTreeMap, HashSet};

/// Merge per-shard outputs of `q` into the global output, following the
/// per-operator semantics above: the one place they live. Every element
/// of `outputs` must be the variant `q` produces (they come from the same
/// executor); a mismatch is a bug in the caller, not a data error, and
/// panics.
///
/// Every partial arrives normalized, so a single output is the answer as
/// it stands, returned without a copy.
pub fn merge_shard_outputs(q: &DbQuery, mut outputs: Vec<QueryOutput>) -> QueryOutput {
    outputs.iter().for_each(|o| check_variant(q, o));
    if outputs.len() == 1 {
        return outputs.pop().expect("one output");
    }
    // Each output's payload; every variant was checked above.
    macro_rules! parts {
        ($variant:ident) => {
            outputs.into_iter().map(|o| match o {
                QueryOutput::$variant(part) => part,
                _ => unreachable!("output variants are checked"),
            })
        };
    }
    match q {
        DbQuery::FilterCount { .. } => QueryOutput::Count(parts!(Count).sum()),
        DbQuery::Join { .. } => QueryOutput::JoinPairs(parts!(JoinPairs).sum()),
        DbQuery::Distinct { .. } => QueryOutput::values(parts!(Values).flatten().collect()),
        DbQuery::TopN { n, .. } => {
            QueryOutput::TopValues(ops::merge_topn(parts!(TopValues).collect(), *n))
        }
        DbQuery::Skyline { cols } => ops::with_dims!(cols.len(), D => {
            let mut window = ops::SkylineWindow::<D>::default();
            for p in parts!(Points).flatten() {
                window.offer(p[..].try_into().expect("a point has the query's dimensions"));
            }
            QueryOutput::Points(window.into_points())
        }),
        DbQuery::GroupByMax { .. } | DbQuery::HavingSum { .. } => {
            // Each map is a sorted run: a stable sort merges the runs, then
            // equal keys collapse, keeping their max. Only GROUP BY has
            // such keys: key-aligned routing puts every row of a HAVING
            // key on one shard, so its qualifying keys are disjoint, its
            // sums global. (A direct run that splits one unit adds its
            // groups' sums before the threshold, in the operator's
            // `finish`, never here.)
            let mut pairs = Vec::with_capacity(
                outputs.iter().map(QueryOutput::cardinality).sum::<u64>() as usize,
            );
            pairs.extend(parts!(KeyedInts).flatten());
            pairs.sort_by(|a: &(Value, i64), b| a.0.cmp(&b.0));
            pairs.dedup_by(|dup, kept| {
                if dup.0 != kept.0 {
                    return false;
                }
                kept.1 = kept.1.max(dup.1);
                true
            });
            QueryOutput::KeyedInts(pairs.into_iter().collect())
        }
    }
}

/// Panic unless `output` is the variant `q` produces.
fn check_variant(q: &DbQuery, output: &QueryOutput) {
    let want = match q {
        DbQuery::FilterCount { .. } => QueryOutput::Count(0),
        DbQuery::Join { .. } => QueryOutput::JoinPairs(0),
        DbQuery::Distinct { .. } => QueryOutput::Values(Vec::new()),
        DbQuery::TopN { .. } => QueryOutput::TopValues(Vec::new()),
        DbQuery::Skyline { .. } => QueryOutput::Points(Vec::new()),
        DbQuery::GroupByMax { .. } | DbQuery::HavingSum { .. } => {
            QueryOutput::KeyedInts(BTreeMap::new())
        }
    };
    assert!(
        std::mem::discriminant(output) == std::mem::discriminant(&want),
        "shard output variant mismatch: {} outputs {want:?}-shaped partials, got {output:?}",
        q.kind()
    );
}

/// One unit of mergeable survivor state — what a survivor frame carries
/// between a shard's output and the master merge plane.
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
    /// ([`FrameBuilder::push_with`](cheetah_net::FrameBuilder::push_with)):
    /// no per-item buffer.
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
    check_variant(q, &output);
    match output {
        QueryOutput::Count(c) | QueryOutput::JoinPairs(c) => vec![MergeItem::Count(c)],
        QueryOutput::Values(v) => v.into_iter().map(MergeItem::Value).collect(),
        QueryOutput::TopValues(v) => v.into_iter().map(MergeItem::Top).collect(),
        QueryOutput::Points(p) => p.into_iter().map(MergeItem::Point).collect(),
        QueryOutput::KeyedInts(m) => m.into_iter().map(|(k, v)| MergeItem::Keyed(k, v)).collect(),
    }
}

/// A door into the merge for survivor frames: the frames that arrive,
/// each composed back into a partial of the query's output type, folded
/// at [`finish`](MergeState::finish) by [`merge_shard_outputs`] — the
/// lossless run's own fold, so frames from different shards may arrive in
/// any order and still match that fold bit for bit. Kept only for the
/// frozen ledger, which times it.
#[derive(Debug, Clone)]
pub struct MergeState {
    query: DbQuery,
    partials: Vec<QueryOutput>,
    /// `(shard, seq)` frames already folded — the paper's master-side
    /// dedup, lifted to the merge plane so retransmitted survivor batches
    /// are idempotent.
    seen: HashSet<(u32, u64)>,
}

impl MergeState {
    /// Fresh merge state for `q`.
    pub fn new(q: &DbQuery) -> Self {
        Self { query: q.clone(), partials: Vec::new(), seen: HashSet::new() }
    }

    /// Fold one framed [`SurvivorBatch`] *idempotently*: a frame whose
    /// `(shard, seq)` identity was already folded is skipped, so a lossy
    /// channel may deliver retransmitted or duplicated frames in any order
    /// without perturbing the merge. Returns `Ok(true)` when the batch was
    /// new (and folded), `Ok(false)` for a discarded duplicate.
    ///
    /// A new batch's items are read zero-copy out of the frame's arena
    /// ([`MergeItem::decode_slice`]) and composed into one partial. A
    /// malformed item, or an item of another query's kind, is a typed
    /// [`WireError`]: the frame then folds nothing and is not marked seen.
    pub fn ingest_survivor_batch(&mut self, batch: &SurvivorBatch) -> Result<bool, WireError> {
        let id = (batch.shard, batch.seq);
        if !self.seen.insert(id) {
            return Ok(false);
        }
        let partial = self.compose(batch).inspect_err(|_| {
            self.seen.remove(&id);
        })?;
        self.partials.push(partial);
        Ok(true)
    }

    /// One frame's items as a partial of the query's output type: the
    /// inverse of [`decompose_output`].
    fn compose(&self, batch: &SurvivorBatch) -> Result<QueryOutput, WireError> {
        // Every item decoded and taken as the kind this query's frames
        // carry; any other kind refuses the frame.
        macro_rules! take {
            ($kind:pat => $part:expr) => {
                batch.items().map(|item| match MergeItem::decode_slice(item)? {
                    $kind => Ok($part),
                    _ => Err(WireError::BadPayload),
                })
            };
        }
        Ok(match &self.query {
            DbQuery::FilterCount { .. } => {
                QueryOutput::Count(take!(MergeItem::Count(c) => c).sum::<Result<_, _>>()?)
            }
            DbQuery::Join { .. } => {
                QueryOutput::JoinPairs(take!(MergeItem::Count(c) => c).sum::<Result<_, _>>()?)
            }
            DbQuery::Distinct { .. } => {
                QueryOutput::Values(gather(take!(MergeItem::Value(v) => v))?)
            }
            DbQuery::TopN { .. } => QueryOutput::TopValues(gather(take!(MergeItem::Top(v) => v))?),
            DbQuery::Skyline { .. } => {
                QueryOutput::Points(gather(take!(MergeItem::Point(p) => p))?)
            }
            // A frame carries a map's entries in key order, so the map
            // builds in bulk.
            DbQuery::GroupByMax { .. } | DbQuery::HavingSum { .. } => QueryOutput::KeyedInts(
                gather(take!(MergeItem::Keyed(k, v) => (k, v)))?.into_iter().collect(),
            ),
        })
    }

    /// Complete the merge: fold the frames' partials into the normalized
    /// global output (equal to the corresponding barrier merge).
    pub fn finish(self) -> QueryOutput {
        merge_shard_outputs(&self.query, self.partials)
    }
}

/// A frame's decoded parts in a vector sized for all of them up front; the
/// first error refuses the lot.
fn gather<T>(parts: impl Iterator<Item = Result<T, WireError>>) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(parts.size_hint().0);
    for part in parts {
        out.push(part?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Cluster;
    use crate::expr::{DbPredicate, IntCmp};
    use crate::planner::{routing_keys, unit_columns};
    use crate::sharded::{route_columns, RouteStream};
    use crate::testutil::test_table;
    use cheetah_core::Sharder;

    fn filter_q() -> DbQuery {
        DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 0, op: IntCmp::Lt, lit: 1 } }
    }

    fn keyed(pairs: &[(i64, i64)]) -> QueryOutput {
        QueryOutput::KeyedInts(pairs.iter().map(|&(k, v)| (Value::Int(k), v)).collect())
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
        let merged = merge_shard_outputs(
            &DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            vec![keyed(&[(1, 5), (2, 9)]), keyed(&[(1, 8), (3, 1)])],
        );
        assert_eq!(merged, keyed(&[(1, 8), (2, 9), (3, 1)]));
    }

    #[test]
    fn having_unions_disjoint_key_sets() {
        let merged = merge_shard_outputs(
            &DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 50 },
            vec![keyed(&[(1, 100)]), keyed(&[(2, 200)])],
        );
        assert_eq!(merged, keyed(&[(1, 100), (2, 200)]));
    }

    #[test]
    fn having_split_over_stored_partitions_finishes_like_the_routed_answer_and_the_baseline() {
        // Routing puts every row of a key on one shard, so the union of the
        // shards' answers is the answer. A direct run that splits a table's
        // stored partitions into groups shares every key between them: it
        // adds the groups' sums before the threshold, in the operator's
        // finish, and must answer bit for bit alike.
        let cluster = Cluster::default();
        let t = test_table(3_000, 4);
        assert!(t.is_coded(0), "fixture: the key is coded at load");
        // Near the mean per-key sum: some keys clear it, some do not.
        let q = DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 300_000 };
        let want = cluster.run_baseline(&q, &t, None).output;
        let keys = routing_keys(&q, 0, &t, cluster.tuning.seed);
        let (cols, keyed) = unit_columns(&q, 0);
        let rows = 0..t.rows();
        let stream = RouteStream { table: &t, cols: &cols, keyed, keys: &keys, rows };
        let units = route_columns(&[stream], &Sharder::hash(3, 1));
        let unit_q = q.remapped();
        let shards = units[0].iter().map(|u| cluster.run_direct(&unit_q, u, None).unwrap().output);
        let routed = merge_shard_outputs(&q, shards.collect());
        let groups = [vec![0, 2], vec![1, 3]];
        let fold = |g: &Vec<usize>| cluster.fold_direct(&q, &t, None, g).unwrap();
        let finish = |partials| cluster.finish_direct(&q, t.rows() as u64, partials, 0.0).output;
        let split = finish(groups.iter().map(fold).collect());
        assert_eq!((&split, &routed), (&want, &want));
        // Each group alone clears the threshold for fewer keys: a
        // threshold applied per group, before the sums, would lose some.
        let alone: Vec<QueryOutput> = groups.iter().map(|g| finish(vec![fold(g)])).collect();
        let QueryOutput::KeyedInts(answer) = &want else { panic!("HAVING answers keyed sums") };
        let cleared = |k: &Value| {
            alone.iter().any(|o| matches!(o, QueryOutput::KeyedInts(m) if m.contains_key(k)))
        };
        assert!(answer.keys().any(|k| !cleared(k)), "some key clears it only across groups");
        assert_ne!(merge_shard_outputs(&q, alone), want, "a union of per-group answers is wrong");
    }

    #[test]
    fn empty_shard_list_yields_empty_output() {
        assert_eq!(merge_shard_outputs(&filter_q(), vec![]), QueryOutput::Count(0));
        assert_eq!(
            merge_shard_outputs(&DbQuery::Distinct { col: 0 }, vec![]),
            QueryOutput::Values(vec![])
        );
        assert_eq!(
            merge_shard_outputs(&DbQuery::GroupByMax { key_col: 0, val_col: 1 }, vec![]),
            keyed(&[])
        );
    }

    #[test]
    fn one_output_is_the_answer_without_a_copy() {
        let q = DbQuery::Distinct { col: 0 };
        let o = QueryOutput::values((0..100).map(Value::Int).collect());
        let QueryOutput::Values(vals) = &o else { unreachable!() };
        let (buffer, want) = (vals.as_ptr(), o.clone());
        let QueryOutput::Values(vals) = merge_shard_outputs(&q, vec![o]) else { unreachable!() };
        assert_eq!(vals.as_ptr(), buffer, "the one output's own buffer");
        assert_eq!(QueryOutput::Values(vals), want);
    }

    #[test]
    #[should_panic(expected = "variant mismatch")]
    fn variant_mismatch_is_a_loud_bug() {
        let _ = merge_shard_outputs(&filter_q(), vec![QueryOutput::JoinPairs(1)]);
    }

    // ------------------------------------------------------------------
    // The frame codec: items, frames, and frames folded as partials
    // ------------------------------------------------------------------

    /// One item's payload, as a frame's arena holds it.
    fn encoded(item: &MergeItem) -> Vec<u8> {
        let mut b = BytesMut::new();
        item.encode_into(&mut b);
        b.to_vec()
    }

    /// One frame of `shard` numbered `seq`, carrying `items`.
    fn frame(shard: u32, seq: u64, items: &[MergeItem]) -> SurvivorBatch {
        let payloads = items.iter().map(encoded);
        SurvivorBatch::parse(cheetah_net::emit_batch(shard, seq, payloads)).expect("frame parses")
    }

    /// `output` decomposed and cut into frames of `batch` items, numbered
    /// from zero.
    fn frames_of(q: &DbQuery, shard: u32, output: QueryOutput, batch: usize) -> Vec<SurvivorBatch> {
        let items = decompose_output(q, output);
        (0..).zip(items.chunks(batch)).map(|(seq, chunk)| frame(shard, seq, chunk)).collect()
    }

    /// Fold `frames` into a fresh state, each one new.
    fn fold<'a>(q: &DbQuery, frames: impl IntoIterator<Item = &'a SurvivorBatch>) -> QueryOutput {
        let mut st = MergeState::new(q);
        for f in frames {
            assert_eq!(st.ingest_survivor_batch(f), Ok(true));
        }
        st.finish()
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
    fn frames_fold_like_the_output_and_refuse_malformed_items() {
        // Three frames of one shard's values fold, re-pruned to n.
        let q = DbQuery::TopN { order_col: 0, n: 2 };
        let batches = frames_of(&q, 5, QueryOutput::TopValues((0..7).rev().collect()), 3);
        assert_eq!(batches.len(), 3);
        assert_eq!(fold(&q, &batches), QueryOutput::TopValues(vec![6, 5]));
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
        assert_eq!(st.finish(), QueryOutput::TopValues(vec![]));
    }

    #[test]
    fn frames_fold_to_the_barrier_merge_in_any_order_at_any_size() {
        // Two shards' outputs, merged whole and cut into frames of 1, 2 and
        // 6 items folded in shard order and fully reversed: one answer.
        let (top, pts) = (QueryOutput::top_values, QueryOutput::points);
        let cases = [
            (
                DbQuery::TopN { order_col: 0, n: 3 },
                [top(vec![9, 7, 5]), top(vec![8, 6])],
                top(vec![9, 8, 7]),
            ),
            (
                DbQuery::Skyline { cols: vec![0, 1] },
                [pts(vec![vec![1, 5], vec![2, 4], vec![3, 1]]), pts(vec![vec![2, 5], vec![4, 0]])],
                pts(vec![vec![2, 5], vec![3, 1], vec![4, 0]]),
            ),
            (
                DbQuery::GroupByMax { key_col: 0, val_col: 1 },
                [keyed(&[(1, 5), (2, 9), (4, 0)]), keyed(&[(1, 8), (3, 1), (4, 2)])],
                keyed(&[(1, 8), (2, 9), (3, 1), (4, 2)]),
            ),
        ];
        for (q, outputs, want) in cases {
            assert_eq!(merge_shard_outputs(&q, outputs.to_vec()), want, "{}", q.kind());
            for batch in [1usize, 2, 6] {
                let frames: Vec<SurvivorBatch> = (0..)
                    .zip(&outputs)
                    .flat_map(|(shard, o)| frames_of(&q, shard, o.clone(), batch))
                    .collect();
                let label = format!("{} at {batch}", q.kind());
                assert_eq!(fold(&q, &frames), want, "{label}");
                assert_eq!(fold(&q, frames.iter().rev()), want, "{label}, reversed");
            }
        }
    }

    #[test]
    fn topn_folds_many_frames_to_n() {
        let q = DbQuery::TopN { order_col: 0, n: 4 };
        let frames: Vec<SurvivorBatch> = (0..50i64)
            .map(|round| {
                let items: Vec<MergeItem> =
                    (0..100).map(|i| MergeItem::Top(round * 100 + i)).collect();
                frame(0, round as u64, &items)
            })
            .collect();
        assert_eq!(fold(&q, &frames), QueryOutput::TopValues(vec![4999, 4998, 4997, 4996]));
    }

    #[test]
    fn merge_state_rejects_cross_query_items() {
        let q = DbQuery::Distinct { col: 0 };
        let mut st = MergeState::new(&q);
        let good = frame(0, 0, &[MergeItem::Value(Value::Int(1)), MergeItem::Value(Value::Int(2))]);
        assert_eq!(st.ingest_survivor_batch(&good), Ok(true));
        let before = st.clone().finish();
        // A TOP N item inside a DISTINCT frame: the whole frame is refused,
        // including the well-formed item ahead of it.
        let bad = frame(0, 1, &[MergeItem::Value(Value::Int(3)), MergeItem::Top(5)]);
        assert_eq!(st.ingest_survivor_batch(&bad), Err(WireError::BadPayload));
        assert_eq!(st.clone().finish(), before, "a refused frame folds nothing");
        // Nor is it marked seen: a good frame under the same identity folds.
        let resent = frame(0, 1, &[MergeItem::Value(Value::Int(3))]);
        assert_eq!(st.ingest_survivor_batch(&resent), Ok(true));
        assert_eq!(st.finish(), QueryOutput::Values((1..=3).map(Value::Int).collect()));
    }

    // ------------------------------------------------------------------
    // Frame-level idempotence: the merge plane's (shard, seq) dedup.
    // ------------------------------------------------------------------

    fn count_frame(shard: u32, seq: u64, counts: &[u64]) -> SurvivorBatch {
        frame(shard, seq, &counts.iter().map(|&c| MergeItem::Count(c)).collect::<Vec<_>>())
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
        assert_eq!(st.finish(), QueryOutput::Count(7));
    }

    #[test]
    fn same_seq_on_different_shards_is_not_a_duplicate() {
        let frames = [count_frame(0, 0, &[1]), count_frame(1, 0, &[2]), count_frame(2, 0, &[4])];
        assert_eq!(fold(&filter_q(), &frames), QueryOutput::Count(7));
    }

    #[test]
    fn duplicated_and_reordered_frames_match_the_clean_fold() {
        // TOP N is the family where double-folding would actually corrupt
        // the answer if dedup failed (Count would just double).
        let q = DbQuery::TopN { order_col: 0, n: 2 };
        let frames: Vec<SurvivorBatch> = [(0u32, [5i64, 9]), (1u32, [7, 1])]
            .iter()
            .flat_map(|(shard, vals)| {
                vals.iter()
                    .enumerate()
                    .map(|(seq, &v)| frame(*shard, seq as u64, &[MergeItem::Top(v)]))
            })
            .collect();
        let clean = fold(&q, &frames);
        // Deliver reversed, with every frame duplicated twice.
        let mut lossy = MergeState::new(&q);
        let mut discarded = 0;
        for f in frames.iter().rev() {
            for _ in 0..3 {
                discarded += usize::from(!lossy.ingest_survivor_batch(f).unwrap());
            }
        }
        assert_eq!(discarded, 2 * frames.len());
        assert_eq!(lossy.finish(), clean);
        assert_eq!(clean, QueryOutput::TopValues(vec![9, 7]));
    }
}
