//! The measured baseline ("Spark") execution path.
//!
//! Workers compute partial results over their partitions in parallel
//! threads (one task per partition, like Spark's task-per-partition
//! model), ship the compressed partials to the master, and the master
//! merges. Every operator here does real work on real data — the Figure
//! 5/6/8 experiments time these loops — while transfer sizes feed the
//! byte-level model in `cheetah-net`.

use crate::engine::{Cluster, ExecBreakdown, SparkRun};
use crate::ops;
use crate::query::{DbQuery, QueryOutput};
use crate::table::{Partition, Table};
use crate::value::Value;
use std::time::Instant;

/// Run partition tasks in parallel (one thread per partition, like Spark's
/// task-per-partition model) and report the slowest task's duration.
fn parallel_partials<T: Send>(
    parts: &[Partition],
    f: impl Fn(&Partition) -> T + Sync,
) -> (Vec<T>, f64) {
    let results: Vec<(T, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter()
            .map(|p| {
                s.spawn(|| {
                    let t0 = Instant::now();
                    let out = f(p);
                    (out, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let max = results.iter().map(|(_, d)| *d).fold(0.0f64, f64::max);
    (results.into_iter().map(|(t, _)| t).collect(), max)
}

impl Cluster {
    /// The measured engine run without the Spark-overhead calibration —
    /// what a native Rust engine would cost.
    pub fn run_baseline_measured(
        &self,
        q: &DbQuery,
        left: &Table,
        right: Option<&Table>,
    ) -> SparkRun {
        match q {
            DbQuery::FilterCount { pred } => {
                let (partials, wt) =
                    parallel_partials(left.partitions(), |p| ops::partial_filter_count(pred, p));
                let t0 = Instant::now();
                let total: u64 = partials.iter().sum();
                let mt = t0.elapsed().as_secs_f64();
                self.baseline_run(
                    QueryOutput::Count(total),
                    wt,
                    mt,
                    partials.len() as u64 * 8,
                    partials.len() as u64,
                )
            }
            DbQuery::Distinct { col } => {
                let (partials, wt) =
                    parallel_partials(left.partitions(), |p| ops::partial_distinct(*col, p));
                let bytes: u64 =
                    partials.iter().flat_map(|s| s.iter().map(Value::wire_bytes)).sum();
                let entries: u64 = partials.iter().map(|s| s.len() as u64).sum();
                let t0 = Instant::now();
                let mut all: Vec<Value> = Vec::new();
                for s in partials {
                    all.extend(s);
                }
                let out = QueryOutput::values(all);
                let mt = t0.elapsed().as_secs_f64();
                self.baseline_run(out, wt, mt, bytes, entries)
            }
            DbQuery::Skyline { cols } => {
                let (partials, wt) =
                    parallel_partials(left.partitions(), |p| ops::partial_skyline(cols, p));
                let entries: u64 = partials.iter().map(|s| s.len() as u64).sum();
                let bytes = entries * 8 * cols.len() as u64;
                let t0 = Instant::now();
                let all: Vec<Vec<i64>> = partials.into_iter().flatten().collect();
                let out = QueryOutput::points(ops::skyline_of(&all));
                let mt = t0.elapsed().as_secs_f64();
                self.baseline_run(out, wt, mt, bytes, entries)
            }
            DbQuery::TopN { order_col, n } => {
                let (partials, wt) =
                    parallel_partials(left.partitions(), |p| ops::partial_topn(*order_col, *n, p));
                let entries: u64 = partials.iter().map(|s| s.len() as u64).sum();
                let bytes = entries * 8;
                let t0 = Instant::now();
                let out = QueryOutput::top_values(ops::merge_topn(partials, *n));
                let mt = t0.elapsed().as_secs_f64();
                self.baseline_run(out, wt, mt, bytes, entries)
            }
            DbQuery::GroupByMax { key_col, val_col } => {
                let (partials, wt) = parallel_partials(left.partitions(), |p| {
                    ops::partial_groupby_max(*key_col, *val_col, p)
                });
                let entries: u64 = partials.iter().map(|m| m.len() as u64).sum();
                let bytes: u64 =
                    partials.iter().flat_map(|m| m.keys().map(|k| k.wire_bytes() + 8)).sum();
                let t0 = Instant::now();
                let merged = ops::merge_groupby_max(partials);
                let out = QueryOutput::KeyedInts(merged.into_iter().collect());
                let mt = t0.elapsed().as_secs_f64();
                self.baseline_run(out, wt, mt, bytes, entries)
            }
            DbQuery::Join { left_key, right_key } => {
                let right = right.expect("join needs a right table");
                // Late-materialization style: workers ship the key columns;
                // the master builds and probes.
                let (lk, wt1) =
                    parallel_partials(left.partitions(), |p| ops::extract_keys(*left_key, p));
                let (rk, wt2) =
                    parallel_partials(right.partitions(), |p| ops::extract_keys(*right_key, p));
                let lkeys: Vec<Value> = lk.into_iter().flatten().collect();
                let rkeys: Vec<Value> = rk.into_iter().flatten().collect();
                let bytes: u64 = lkeys.iter().chain(&rkeys).map(Value::wire_bytes).sum();
                let entries = (lkeys.len() + rkeys.len()) as u64;
                let t0 = Instant::now();
                let pairs = ops::hash_join_pairs(&lkeys, &rkeys);
                let mt = t0.elapsed().as_secs_f64();
                self.baseline_run(QueryOutput::JoinPairs(pairs), wt1 + wt2, mt, bytes, entries)
            }
            DbQuery::HavingSum { key_col, val_col, threshold } => {
                let (partials, wt) = parallel_partials(left.partitions(), |p| {
                    ops::partial_sum_by_key(*key_col, *val_col, p)
                });
                let entries: u64 = partials.iter().map(|m| m.len() as u64).sum();
                let bytes: u64 =
                    partials.iter().flat_map(|m| m.keys().map(|k| k.wire_bytes() + 8)).sum();
                let t0 = Instant::now();
                let sums = ops::merge_sums(partials);
                let out = QueryOutput::KeyedInts(
                    sums.into_iter().filter(|(_, s)| s > threshold).collect(),
                );
                let mt = t0.elapsed().as_secs_f64();
                self.baseline_run(out, wt, mt, bytes, entries)
            }
        }
    }

    fn baseline_run(
        &self,
        output: QueryOutput,
        worker_seconds: f64,
        master_seconds: f64,
        raw_bytes: u64,
        entries: u64,
    ) -> SparkRun {
        let compressed = (raw_bytes as f64 * self.baseline_compression) as u64;
        SparkRun {
            output,
            breakdown: ExecBreakdown {
                worker_seconds,
                master_seconds,
                // All partials converge on the master's link, which
                // therefore dominates any single worker's uplink; the
                // network model takes the max of the two.
                worker_wire_bytes: 0,
                master_wire_bytes: compressed,
                entries_to_master: entries,
                passes: 1,
                shards: 1,
                master_ingest_seconds: 0.0,
                plan: None,
                overlap_seconds: 0.0,
                // The baseline never touches the switch; the field only
                // distinguishes Cheetah-path engines.
                backend: cheetah_net::ExecBackend::Interpreted,
                ..ExecBreakdown::default()
            },
        }
    }
}
