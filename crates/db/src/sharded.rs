//! Shard layout vocabulary: N workers, N switch programs, one master.
//!
//! The paper's deployment model (§2) is inherently sharded: data is
//! partitioned across workers, each worker's traffic is pruned locally at
//! its switch, and the master completes the query from the pruned union.
//! This module owns the pieces of that layout every caller shares:
//!
//! * [`ShardSpec`] — a hand-picked shard count and routing family
//!   ([`ShardPartitioner`]);
//! * [`route_columns`] — the one routing loop: the chosen columns of a
//!   range of rows of each stream ([`RouteStream`]) split into per-shard
//!   sub-tables by one [`Sharder`] over per-query routing keys (the
//!   group/join key for keyed queries, which makes keyed merges exact; the
//!   order column for TOP N; a row-id hash for scans and skylines), a
//!   string key coded against one dictionary per shard.
//!   [`route_range`] is that loop over one stream's every column;
//! * [`ShardStats`] — the per-shard byte/entry accounting of a run.
//!
//! The executor that runs a routed layout (`cheetah_runtime::execute`)
//! prunes each shard's slice through [`Cluster::run_cheetah`], merges at
//! the master with the per-operator semantics of
//! [`merge_shard_outputs`](crate::master::merge_shard_outputs), and
//! reports each shard's bytes and survivors ([`ShardStats`]); nothing on
//! that path prices them (the `shards` experiment does, with
//! `cheetah_net`'s master ingest model and §4.6's shard fan-in). The
//! equivalence contract is `Q(merge(shards(D))) = Q(D)`
//! for every query shape, shard count, and partitioner — enforced by the
//! `shard_contract` test suite (a named CI gate, like the pruning
//! contract).
//!
//! [`Cluster::run_cheetah`]: crate::engine::Cluster::run_cheetah

use crate::table::{Column, Partition, Table};
use crate::value::DataType;
use cheetah_core::{ShardPartitioner, Sharder};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// How to shard a query's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Worker shard count.
    pub shards: usize,
    /// Row-routing family.
    pub partitioner: ShardPartitioner,
}

impl ShardSpec {
    /// `shards` workers with the given partitioner.
    pub fn new(shards: usize, partitioner: ShardPartitioner) -> Self {
        Self { shards, partitioner }
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self::new(4, ShardPartitioner::Hash)
    }
}

/// Per-shard observability of one multi-shard run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Rows routed to this shard (left + right stream).
    pub rows: u64,
    /// The shard worker's serialize/compute seconds.
    pub worker_seconds: f64,
    /// The shard's completion seconds (its local `complete` run).
    pub master_seconds: f64,
    /// Bytes the shard's busiest worker put on its uplink.
    pub worker_wire_bytes: u64,
    /// Bytes this shard contributed to the master downlink.
    pub master_wire_bytes: u64,
    /// Survivor entries this shard streamed to the master.
    pub entries_to_master: u64,
    /// Entries this shard's switch saw.
    pub seen: u64,
    /// Entries this shard's switch pruned.
    pub pruned: u64,
}

/// Route rows `[lo, hi)` of `table` (by global row index) to
/// `sharder.shards()` single-partition sub-tables, using the precomputed
/// per-row routing `keys`. Shards that receive no rows become empty
/// tables (one empty partition), which the executor handles like any
/// degenerate input.
///
/// This is [`route_columns`] over one stream and every column, none of
/// them coded: full-width slices of plain cells, for a caller that runs
/// queries it has not named over them.
pub fn route_range(
    table: &Table,
    keys: &[u64],
    sharder: &Sharder,
    lo: usize,
    hi: usize,
) -> Vec<Table> {
    let every: Vec<usize> = (0..table.fields().len()).collect();
    let stream = RouteStream { table, cols: &every, keyed: None, keys, rows: lo..hi };
    route_columns(&[stream], sharder).remove(0)
}

/// One stream of a [`route_columns`] pass: columns `cols` of `table`
/// (schema indices, in the order the slices are to hold them), rows
/// `rows` of it (by global row index), sent by the per-row routing `keys`
/// (one per row of `table`).
///
/// `keyed` is the position in `cols` of the column `keys` fingerprint, if
/// any: `keys[r]` must be a function of that column's cell at row `r`, as
/// [`routing_keys`](crate::planner::routing_keys) is.
#[derive(Debug, Clone)]
pub struct RouteStream<'a> {
    /// The table the rows come from.
    pub table: &'a Table,
    /// The columns carried, in the order the slices hold them.
    pub cols: &'a [usize],
    /// The position in `cols` of the column `keys` fingerprint.
    pub keyed: Option<usize>,
    /// One routing key per row of `table`.
    pub keys: &'a [u64],
    /// The rows routed.
    pub rows: Range<usize>,
}

/// The one routing loop: each of `streams` split into
/// `sharder.shards()` single-partition slices — `out[stream][shard]` —
/// carrying only the stream's [`cols`](RouteStream::cols). What the plan
/// constructor routes for a query that reads those columns and nothing
/// else: a routed slice is a fresh per-column layout of its rows, so
/// every column left behind is a copy not made and not kept resident. The
/// streams of a binary query go through one call, co-partitioned by the
/// one sharder.
///
/// Where a stream's [`keyed`](RouteStream::keyed) column holds strings,
/// its slices hold it as a [`Column::Dict`]: one code per row into one
/// dictionary per shard, which every stream's slice of that shard shares
/// by `Arc` — so an equal string has one code on both sides of a JOIN.
/// Each string is held once per shard — a cell's code is found by its
/// routing key, confirmed by one string compare, and a string whose key an
/// earlier, different string holds is found by its bytes — and cloned
/// only when it is new to its shard. Every other column is copied cell for
/// cell. Routing reads each column as loaded ([`Partition::column`]):
/// strings plain, whatever codes the load rule kept beside them
/// ([`Partition::coded`]), so a shard's dictionary is sized to the strings
/// the shard holds.
///
/// A stream's [`rows`](RouteStream::rows) serve a caller that replays a
/// head of a table (the plan constructor routes every row) — one routing
/// loop, so a cadence or empty-shard fix lands everywhere at once.
pub fn route_columns(streams: &[RouteStream<'_>], sharder: &Sharder) -> Vec<Vec<Table>> {
    let shards = sharder.shards();
    // One dictionary per shard, whichever stream a string comes from.
    let mut coders: Vec<Coder> = (0..shards).map(|_| Coder::default()).collect();
    // Scratch: local row indices per shard, recomputed per partition. Rows
    // move column-at-a-time — one type dispatch per (shard, column) instead
    // of one boxed `Value` per cell, which is what the old row builder paid.
    let mut picks: Vec<Vec<u32>> = vec![Vec::new(); shards];
    let mut routed: Vec<Vec<Vec<Column>>> = Vec::with_capacity(streams.len());
    for stream in streams {
        let RouteStream { table, cols, keyed, keys, .. } = *stream;
        let (lo, hi) = (stream.rows.start, stream.rows.end);
        // A coded column's dictionary is filled in once every stream is
        // routed; until then its slices hold an empty one.
        let empty_cols = || -> Vec<Column> {
            cols.iter()
                .enumerate()
                .map(|(i, &c)| match table.fields()[c].1 {
                    DataType::Int => Column::Int(Vec::new()),
                    DataType::Str if keyed == Some(i) => {
                        Column::Dict { codes: Vec::new(), dict: Arc::from([]) }
                    }
                    DataType::Str => Column::Str(Vec::new()),
                })
                .collect()
        };
        let mut out: Vec<Vec<Column>> = (0..shards).map(|_| empty_cols()).collect();
        let mut base = 0usize;
        for p in table.partitions() {
            let rows = p.rows();
            if base + rows > lo && base < hi {
                let from = lo.saturating_sub(base);
                let to = rows.min(hi - base);
                for list in &mut picks {
                    list.clear();
                }
                for r in from..to {
                    picks[sharder.shard_of(keys[base + r])].push(r as u32);
                }
                let keys = &keys[base..];
                for (s, list) in picks.iter().enumerate() {
                    if list.is_empty() {
                        continue;
                    }
                    for (dst_col, &c) in out[s].iter_mut().zip(cols) {
                        match (dst_col, p.column(c)) {
                            (Column::Int(dst), Column::Int(src)) => {
                                dst.extend(list.iter().map(|&r| src[r as usize]));
                            }
                            (Column::Str(dst), Column::Str(src)) => {
                                dst.extend(list.iter().map(|&r| src[r as usize].clone()));
                            }
                            (Column::Dict { codes, .. }, Column::Str(src)) => {
                                let coder = &mut coders[s];
                                coder.by_key.reserve(list.len());
                                codes.extend(
                                    list.iter()
                                        .map(|&r| coder.code(keys[r as usize], &src[r as usize])),
                                );
                            }
                            // Routing reads a loaded table's cells as loaded,
                            // strings plain: a unit is never routed again.
                            _ => unreachable!("partition column type drifted from the schema"),
                        }
                    }
                }
            }
            base += rows;
            if base >= hi {
                break;
            }
        }
        routed.push(out);
    }
    let dicts: Vec<Arc<[String]>> = coders.into_iter().map(|c| c.dict.into()).collect();
    streams
        .iter()
        .zip(routed)
        .map(|(stream, out)| {
            let fields: Vec<(String, DataType)> =
                stream.cols.iter().map(|&c| stream.table.fields()[c].clone()).collect();
            out.into_iter()
                .zip(&dicts)
                .map(|(mut cols, shard_dict)| {
                    for col in &mut cols {
                        if let Column::Dict { dict, .. } = col {
                            *dict = Arc::clone(shard_dict);
                        }
                    }
                    Table::from_partition(stream.table.name(), fields.clone(), Partition::new(cols))
                })
                .collect()
        })
        .collect()
}

/// One shard's dictionary under construction: its distinct strings, and
/// the code of each, looked up by its routing key. It codes every string
/// key routing moves, whether or not its table coded the column at load.
///
/// Every stream routed to the shard codes through the one `Coder`, and
/// the dictionary holds each string once: a string new to the shard is
/// appended once, under its routing key if no earlier string holds that
/// key, else under its own bytes in the overflow map. That rests on the
/// routing key being a function of the string — the same seeded
/// fingerprint on every stream ([`RouteStream::keyed`]) — so a string
/// seen again, on either side of a JOIN, is found where it was put. A
/// JOIN counts and probes by code on this alone.
#[derive(Default)]
struct Coder {
    /// Routing key → code of the first string seen with that key.
    by_key: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// Strings whose routing key an earlier, different string holds.
    collided: HashMap<String, u32>,
    /// The distinct strings, in first-seen order: code `c` is `dict[c]`.
    dict: Vec<String>,
}

impl Coder {
    /// The code of `cell`, whose routing key is `key`, appending the cell
    /// to the dictionary if it is new.
    fn code(&mut self, key: u64, cell: &str) -> u32 {
        let dict = &mut self.dict;
        let add = |dict: &mut Vec<String>| {
            dict.push(cell.to_owned());
            u32::try_from(dict.len() - 1).expect("a shard holds fewer than 2^32 strings")
        };
        match self.by_key.entry(key) {
            Entry::Vacant(slot) => *slot.insert(add(dict)),
            Entry::Occupied(hit) if dict[*hit.get() as usize] == cell => *hit.get(),
            Entry::Occupied(_) => {
                *self.collided.entry(cell.to_owned()).or_insert_with(|| add(dict))
            }
        }
    }
}

/// Hashes a routing key as itself: a string's key is already a mixed
/// fingerprint.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only routing keys are hashed")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DbQuery;
    use crate::testutil::test_table;
    use std::collections::HashSet;

    #[test]
    fn route_range_partitions_exactly_the_requested_rows() {
        let t = test_table(1_000, 4);
        let keys: Vec<u64> = (0..1_000u64).collect();
        let sharder = Sharder::hash(3, 9);
        let mid = route_range(&t, &keys, &sharder, 250, 750);
        assert_eq!(mid.iter().map(Table::rows).sum::<usize>(), 500);
        let all = route_range(&t, &keys, &sharder, 0, 1_000);
        assert_eq!(all.iter().map(Table::rows).sum::<usize>(), 1_000);
        let none = route_range(&t, &keys, &sharder, 400, 400);
        assert_eq!(none.iter().map(Table::rows).sum::<usize>(), 0);
        assert_eq!(none.len(), 3, "every shard gets a (possibly empty) table");
    }

    /// Columns `cols` of every row of `t`, one stream routed alone.
    fn route_one(
        t: &Table,
        cols: &[usize],
        keyed: Option<usize>,
        keys: &[u64],
        sharder: &Sharder,
    ) -> Vec<Table> {
        let stream = RouteStream { table: t, cols, keyed, keys, rows: 0..t.rows() };
        route_columns(&[stream], sharder).remove(0)
    }

    #[test]
    fn route_range_is_the_routing_loop_over_every_column() {
        let t = test_table(500, 3);
        let keys: Vec<u64> = (0..500u64).map(|k| k * 7).collect();
        let sharder = Sharder::hash(4, 5);
        let full = route_range(&t, &keys, &sharder, 100, 450);
        let every: Vec<usize> = (0..t.fields().len()).collect();
        let stream =
            RouteStream { table: &t, cols: &every, keyed: None, keys: &keys, rows: 100..450 };
        assert_eq!(full, route_columns(&[stream], &sharder).remove(0));
        // A projection carries the named columns, in the order named, of
        // the same rows in the same order.
        let stream =
            RouteStream { table: &t, cols: &[2, 0], keyed: None, keys: &keys, rows: 100..450 };
        let narrow = route_columns(&[stream], &sharder).remove(0);
        for (f, n) in full.iter().zip(&narrow) {
            assert_eq!(n.fields(), [f.fields()[2].clone(), f.fields()[0].clone()]);
            let (fp, np) = (&f.partitions()[0], &n.partitions()[0]);
            assert_eq!((np.column(0), np.column(1)), (fp.column(2), fp.column(0)));
        }
    }

    /// Key vectors that are each a function of the key string, as routing
    /// keys are: one key for every string, so every string but the first
    /// is found by its bytes alone; each key shared by many strings; and
    /// the seeded fingerprints themselves.
    fn key_vectors(t: &Table) -> [(&'static str, Vec<u64>); 3] {
        let fingerprints = crate::planner::routing_keys(&DbQuery::Distinct { col: 0 }, 0, t, 11);
        [
            ("one key", vec![7; t.rows()]),
            ("three keys", fingerprints.iter().map(|k| k % 3).collect()),
            ("fingerprints", fingerprints),
        ]
    }

    /// The strings of column `c` of a routed slice, decoded, in row order.
    fn cells(unit: &Table, c: usize) -> Vec<&str> {
        let col = unit.partitions()[0].column(c);
        (0..col.len()).map(|r| col.str_at(r).expect("a string column")).collect()
    }

    #[test]
    fn a_keyed_string_column_routes_as_codes_that_decode_to_its_cells() {
        let t = test_table(2_000, 3);
        let sharder = Sharder::hash(4, 5);
        for (label, keys) in &key_vectors(&t) {
            let plain = route_range(&t, keys, &sharder, 0, t.rows());
            let coded = route_one(&t, &[1, 0], Some(1), keys, &sharder);
            for (s, (p, c)) in plain.iter().zip(&coded).enumerate() {
                assert!(
                    matches!(p.partitions()[0].column(0), Column::Str(_)),
                    "{label}: route_range codes nothing"
                );
                let (pp, cp) = (&p.partitions()[0], &c.partitions()[0]);
                assert_eq!(
                    cp.column(0),
                    pp.column(1),
                    "{label} shard {s}: other columns are plain"
                );
                let Column::Dict { dict, .. } = cp.column(1) else {
                    panic!("{label} shard {s}: the keyed string column is coded");
                };
                let source = cells(p, 0);
                assert_eq!(cells(c, 1), source, "{label} shard {s}: each cell, in row order");
                let distinct: HashSet<&str> = source.iter().copied().collect();
                assert_eq!(dict.len(), distinct.len(), "{label} shard {s}: each string once");
            }
        }
        // A keyed int column stays plain.
        let keys = vec![0; t.rows()];
        let ints = route_one(&t, &[1], Some(0), &keys, &sharder);
        assert!(ints.iter().all(|u| matches!(u.partitions()[0].column(0), Column::Int(_))));
    }

    /// `rows` rows over three partitions: a string key drawn from strings
    /// both sides hold and from strings only side `tag` holds, and an int.
    fn side(tag: &str, rows: usize, seed: u64) -> Table {
        let fields = vec![("key".into(), DataType::Str), ("n".into(), DataType::Int)];
        let mut b = crate::table::TableBuilder::new(tag, fields, rows.div_ceil(3));
        let mut x = seed;
        for n in 0..rows as i64 {
            x = cheetah_switch::hash::mix64(x);
            let key = if x.is_multiple_of(3) {
                format!("{tag}-{}", x % 40)
            } else {
                format!("both-{}", x % 30)
            };
            b.push_row(vec![crate::value::Value::Str(key), crate::value::Value::Int(n)]);
        }
        b.build()
    }

    #[test]
    fn two_streams_routed_together_share_one_dictionary_per_shard() {
        let (left, right) = (side("left", 1_500, 3), side("right", 700, 4));
        let sharder = Sharder::hash(4, 5);
        let (left_keys, right_keys) = (key_vectors(&left), key_vectors(&right));
        for ((label, lk), (_, rk)) in left_keys.iter().zip(&right_keys) {
            let streams = [
                RouteStream {
                    table: &left,
                    cols: &[1, 0],
                    keyed: Some(1),
                    keys: lk,
                    rows: 0..1_500,
                },
                RouteStream { table: &right, cols: &[0], keyed: Some(0), keys: rk, rows: 0..700 },
            ];
            let routed = route_columns(&streams, &sharder);
            let plain = [
                route_range(&left, lk, &sharder, 0, left.rows()),
                route_range(&right, rk, &sharder, 0, right.rows()),
            ];
            let mut one_sided = 0;
            for s in 0..sharder.shards() {
                let at = format!("{label} shard {s}");
                let (lu, ru) = (&routed[0][s], &routed[1][s]);
                let (Column::Dict { dict: ld, .. }, Column::Dict { dict: rd, .. }) =
                    (lu.partitions()[0].column(1), ru.partitions()[0].column(0))
                else {
                    panic!("{at}: both key columns are coded");
                };
                assert!(Arc::ptr_eq(ld, rd), "{at}: one dictionary, shared");
                let (lcells, rcells) = (cells(lu, 1), cells(ru, 0));
                assert_eq!(lcells, cells(&plain[0][s], 0), "{at}: left cells, in row order");
                assert_eq!(rcells, cells(&plain[1][s], 0), "{at}: right cells, in row order");
                let held: HashSet<&str> = ld.iter().map(String::as_str).collect();
                assert_eq!(held.len(), ld.len(), "{at}: each string once");
                let (l, r): (HashSet<&str>, HashSet<&str>) =
                    (lcells.into_iter().collect(), rcells.into_iter().collect());
                assert_eq!(held, &l | &r, "{at}: the strings of both streams, and no more");
                one_sided += (&l ^ &r).len();
            }
            assert!(one_sided > 0, "{label}: some strings appear in one stream only");
        }
    }

    #[test]
    fn consecutive_ranges_cover_the_input_exactly_once() {
        // Cuts that fall inside partitions (997 rows over 3, cut in 4).
        let t = test_table(997, 3);
        let keys: Vec<u64> = (0..997u64).rev().collect();
        let sharder = Sharder::hash(4, 1);
        let mut covered = 0usize;
        for piece in 0..4 {
            let lo = piece * t.rows() / 4;
            let hi = (piece + 1) * t.rows() / 4;
            covered +=
                route_range(&t, &keys, &sharder, lo, hi).iter().map(Table::rows).sum::<usize>();
        }
        assert_eq!(covered, 997);
    }
}
