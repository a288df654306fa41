//! Shard layout vocabulary: N workers, N switch programs, one master.
//!
//! The paper's deployment model (§2) is inherently sharded: data is
//! partitioned across workers, each worker's traffic is pruned locally at
//! its switch, and the master completes the query from the pruned union.
//! This module owns the pieces of that layout every caller shares:
//!
//! * [`ShardSpec`] — a hand-picked shard count and routing family
//!   ([`ShardPartitioner`]);
//! * [`route_columns`] — the one routing loop: the chosen columns of rows
//!   `[lo, hi)` of a table split into per-shard sub-tables by a
//!   [`Sharder`] over per-query routing keys (the group/join key for keyed
//!   queries, which makes keyed merges exact; the order column for TOP N;
//!   a row-id hash for scans and skylines). [`route_range`] is that loop
//!   over every column;
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
    /// Wall seconds the shard's job spent running its unit, measured
    /// around the one executor call: plan + encode + prune + complete on a
    /// pruned path, the operator alone on the direct one. One thread's
    /// work — what the serving plane's go-direct rule weighs completion
    /// against.
    pub busy_seconds: f64,
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
/// This is [`route_columns`] over every column, none of them coded:
/// full-width slices of plain cells, for a caller that runs queries it has
/// not named over them.
pub fn route_range(
    table: &Table,
    keys: &[u64],
    sharder: &Sharder,
    lo: usize,
    hi: usize,
) -> Vec<Table> {
    let every: Vec<usize> = (0..table.fields().len()).collect();
    route_columns(table, &every, None, keys, sharder, lo, hi)
}

/// The one routing loop: [`route_range`], carrying only columns `cols` of
/// `table` (schema indices, in the order the slices are to hold them).
/// What the plan constructor routes for a query that reads `cols` and
/// nothing else — a routed slice is a fresh per-column layout of its rows,
/// so every column left behind is a copy not made and not kept resident.
///
/// `keyed` is the position in `cols` of the column `keys` fingerprint, if
/// any. Where that column holds strings, each slice holds it as a
/// [`Column::Dict`]: per shard, one code per row and each distinct string
/// once, in first-seen order. A cell's code is found by its routing key —
/// the fingerprint the operators compute from the cell anyway — and
/// confirmed by one string compare, so the coding is exact whatever the
/// keys are; a string is cloned only when it is new to its shard. Every
/// other column is copied cell for cell.
///
/// `lo`/`hi` serve a caller that replays a head of a table (the plan
/// constructor routes `0..rows`) — one routing loop, so a cadence or
/// empty-shard fix lands everywhere at once.
pub fn route_columns(
    table: &Table,
    cols: &[usize],
    keyed: Option<usize>,
    keys: &[u64],
    sharder: &Sharder,
    lo: usize,
    hi: usize,
) -> Vec<Table> {
    let shards = sharder.shards();
    let fields: Vec<(String, DataType)> = cols.iter().map(|&c| table.fields()[c].clone()).collect();
    let empty_cols = || -> Vec<Column> {
        fields
            .iter()
            .enumerate()
            .map(|(i, (_, t))| match t {
                DataType::Int => Column::Int(Vec::new()),
                DataType::Str if keyed == Some(i) => {
                    Column::Dict { codes: Vec::new(), dict: Vec::new() }
                }
                DataType::Str => Column::Str(Vec::new()),
            })
            .collect()
    };
    let mut out: Vec<Vec<Column>> = (0..shards).map(|_| empty_cols()).collect();
    let mut coders: Vec<Coder> = (0..shards).map(|_| Coder::default()).collect();
    // Scratch: local row indices per shard, recomputed per partition. Rows
    // move column-at-a-time — one type dispatch per (shard, column) instead
    // of one boxed `Value` per cell, which is what the old row builder paid.
    let mut picks: Vec<Vec<u32>> = vec![Vec::new(); shards];
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
                        (Column::Dict { codes, dict }, Column::Str(src)) => {
                            let coder = &mut coders[s];
                            coder.by_key.reserve(list.len());
                            codes
                                .extend(list.iter().map(|&r| {
                                    coder.code(dict, keys[r as usize], &src[r as usize])
                                }));
                        }
                        // Routing reads loaded tables, whose strings are
                        // plain: a coded unit is never routed again.
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
    out.into_iter()
        .map(|cols| Table::from_partition(table.name(), fields.clone(), Partition::new(cols)))
        .collect()
}

/// One shard's dictionary under construction: the code of every string
/// seen so far, looked up by its routing key.
#[derive(Default)]
struct Coder {
    /// Routing key → code of the first string seen with that key.
    by_key: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// Strings whose routing key an earlier, different string holds.
    collided: HashMap<String, u32>,
}

impl Coder {
    /// The code of `cell`, whose routing key is `key`, appending the cell
    /// to `dict` if it is new.
    fn code(&mut self, dict: &mut Vec<String>, key: u64, cell: &str) -> u32 {
        let add = |dict: &mut Vec<String>| {
            dict.push(cell.to_owned());
            u32::try_from(dict.len() - 1).expect("a unit holds fewer than 2^32 rows")
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

    #[test]
    fn route_range_is_the_routing_loop_over_every_column() {
        let t = test_table(500, 3);
        let keys: Vec<u64> = (0..500u64).map(|k| k * 7).collect();
        let sharder = Sharder::hash(4, 5);
        let full = route_range(&t, &keys, &sharder, 100, 450);
        let every: Vec<usize> = (0..t.fields().len()).collect();
        assert_eq!(full, route_columns(&t, &every, None, &keys, &sharder, 100, 450));
        // A projection carries the named columns, in the order named, of
        // the same rows in the same order.
        let narrow = route_columns(&t, &[2, 0], None, &keys, &sharder, 100, 450);
        for (f, n) in full.iter().zip(&narrow) {
            assert_eq!(n.fields(), [f.fields()[2].clone(), f.fields()[0].clone()]);
            let (fp, np) = (&f.partitions()[0], &n.partitions()[0]);
            assert_eq!((np.column(0), np.column(1)), (fp.column(2), fp.column(0)));
        }
    }

    #[test]
    fn a_keyed_string_column_routes_as_codes_that_decode_to_its_cells() {
        let t = test_table(2_000, 3);
        let fingerprints = crate::planner::routing_keys(&DbQuery::Distinct { col: 0 }, 0, &t, 11);
        let cases = [
            // Every key collides: one shard, every string but the first
            // found by its string alone.
            ("one key", vec![7; t.rows()]),
            // Each key shared by many strings, over several shards.
            ("three keys", fingerprints.iter().map(|k| k % 3).collect()),
            ("fingerprints", fingerprints),
        ];
        let sharder = Sharder::hash(4, 5);
        for (label, keys) in &cases {
            let plain = route_range(&t, keys, &sharder, 0, t.rows());
            let coded = route_columns(&t, &[1, 0], Some(1), keys, &sharder, 0, t.rows());
            for (s, (p, c)) in plain.iter().zip(&coded).enumerate() {
                let (p, c) = (&p.partitions()[0], &c.partitions()[0]);
                assert!(
                    matches!(p.column(0), Column::Str(_)),
                    "{label}: route_range codes nothing"
                );
                assert_eq!(c.column(0), p.column(1), "{label} shard {s}: other columns are plain");
                let Column::Dict { codes, dict } = c.column(1) else {
                    panic!("{label} shard {s}: the keyed string column is coded");
                };
                let decoded: Vec<&str> = codes.iter().map(|&k| dict[k as usize].as_str()).collect();
                let source: Vec<&str> =
                    p.column(0).as_str().unwrap().iter().map(String::as_str).collect();
                assert_eq!(decoded, source, "{label} shard {s}: each cell, in row order");
                let distinct: std::collections::HashSet<&str> = source.iter().copied().collect();
                assert_eq!(dict.len(), distinct.len(), "{label} shard {s}: each string once");
            }
        }
        // A keyed int column stays plain.
        let keys = vec![0; t.rows()];
        let ints = route_columns(&t, &[1], Some(0), &keys, &sharder, 0, t.rows());
        assert!(ints.iter().all(|u| matches!(u.partitions()[0].column(0), Column::Int(_))));
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
