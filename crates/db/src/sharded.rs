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
/// This is [`route_columns`] over every column: full-width slices, for a
/// caller that runs queries it has not named over them.
pub fn route_range(
    table: &Table,
    keys: &[u64],
    sharder: &Sharder,
    lo: usize,
    hi: usize,
) -> Vec<Table> {
    let every: Vec<usize> = (0..table.fields().len()).collect();
    route_columns(table, &every, keys, sharder, lo, hi)
}

/// The one routing loop: [`route_range`], carrying only columns `cols` of
/// `table` (schema indices, in the order the slices are to hold them).
/// What the plan constructor routes for a query that reads `cols` and
/// nothing else — a routed slice is a fresh per-column layout of its rows,
/// so every column left behind is a copy not made and not kept resident.
///
/// `lo`/`hi` serve a caller that replays a head of a table (the plan
/// constructor routes `0..rows`) — one routing loop, so a cadence or
/// empty-shard fix lands everywhere at once.
pub fn route_columns(
    table: &Table,
    cols: &[usize],
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
            .map(|(_, t)| match t {
                DataType::Int => Column::Int(Vec::new()),
                DataType::Str => Column::Str(Vec::new()),
            })
            .collect()
    };
    let mut out: Vec<Vec<Column>> = (0..shards).map(|_| empty_cols()).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_table;

    #[test]
    fn route_range_partitions_exactly_the_requested_rows() {
        let t = test_table(1_000, 4);
        let keys: Vec<u64> = (0..1_000u64).collect();
        let sharder = Sharder::new(ShardPartitioner::Hash, 3, 9);
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
        let sharder = Sharder::new(ShardPartitioner::Hash, 4, 5);
        let full = route_range(&t, &keys, &sharder, 100, 450);
        let every: Vec<usize> = (0..t.fields().len()).collect();
        assert_eq!(full, route_columns(&t, &every, &keys, &sharder, 100, 450));
        // A projection carries the named columns, in the order named, of
        // the same rows in the same order.
        let narrow = route_columns(&t, &[2, 0], &keys, &sharder, 100, 450);
        for (f, n) in full.iter().zip(&narrow) {
            assert_eq!(n.fields(), [f.fields()[2].clone(), f.fields()[0].clone()]);
            let (fp, np) = (&f.partitions()[0], &n.partitions()[0]);
            assert_eq!((np.column(0), np.column(1)), (fp.column(2), fp.column(0)));
        }
    }

    #[test]
    fn consecutive_ranges_cover_the_input_exactly_once() {
        // Cuts that fall inside partitions (997 rows over 3, cut in 4).
        let t = test_table(997, 3);
        let keys: Vec<u64> = (0..997u64).rev().collect();
        let sharder = Sharder::new(ShardPartitioner::Hash, 4, 1);
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
