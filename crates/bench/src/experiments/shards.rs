//! The sharded-execution sweep: 1→16 workers on a zipf-skewed table.
//!
//! Not a paper figure — the paper measures a fixed five-worker rack — but
//! the axis its deployment model (§2) implies and §4.6's master-bottleneck
//! analysis predicts: adding shards shrinks the (slowest) worker phase
//! while the merged survivor streams raise the master's effective arrival
//! rate until ingest, not worker compute, bounds completion. The workload
//! is deliberately skewed ([`SkewedTableConfig`]) so the `max(shard)`
//! worker bound is visibly worse than `total/N`.
//!
//! Every row also re-verifies the shard contract inline: the merged
//! output must equal the unsharded run's, or the harness panics.

use crate::report::secs;
use crate::{fitted_plan, run_barrier, Report, RunCtx};
use cheetah_core::ShardPartitioner;
use cheetah_db::{Cluster, DbQuery, ShardPlanner, ShardSpec};
use cheetah_net::MasterIngestModel;
use cheetah_runtime::{ExecRun, ShardLayout};
use cheetah_workloads::SkewedTableConfig;
use std::sync::Arc;

const LINK_GBPS: f64 = 10.0;

/// Build the sweep.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let scale = ctx.scale;
    let rows = scale.entries(20_000, 2_000_000);
    let table = Arc::new(
        SkewedTableConfig {
            rows,
            partitions: 8,
            partition_skew: 1.0,
            keys: 400,
            key_skew: 1.1,
            seed: 0x51A2D,
        }
        .build(),
    );
    let right = Arc::new(
        SkewedTableConfig {
            rows: rows / 2,
            partitions: 4,
            partition_skew: 0.8,
            keys: 400,
            key_skew: 0.9,
            seed: 0xB0B,
        }
        .build(),
    );
    let cluster = Cluster::default();
    let families: Vec<(&str, DbQuery)> = vec![
        ("distinct", DbQuery::Distinct { col: 0 }),
        ("groupby-max", DbQuery::GroupByMax { key_col: 0, val_col: 1 }),
        ("topn", DbQuery::TopN { order_col: 1, n: 100 }),
        ("join", DbQuery::Join { left_key: 0, right_key: 0 }),
    ];

    let mut r = Report::new(
        "shards",
        "Sharded execution sweep (zipf-skewed load, hash partitioner)",
        &[
            "shards",
            "query",
            "completion",
            "worker",
            "master",
            "ingest_model",
            "entries_to_master",
            "max_shard_rows",
        ],
    );
    let planner = ShardPlanner::default();
    for (name, q) in &families {
        let right_of = q.is_binary().then_some(&right);
        let single = cluster.run_cheetah(q, &table, right_of.map(|r| &**r)).expect("plan fits");
        // The barrier transport throughout: the sweep's axis is the shard
        // count, not the dataflow.
        let run_under = |layout: ShardLayout| run_barrier(&cluster, q, &table, right_of, layout);
        let mut record = |label: String, sharded: &ExecRun| {
            assert_eq!(
                single.output, sharded.output,
                "shard contract violated for {name} at {label} shards"
            );
            let b = &sharded.breakdown;
            let entries: Vec<u64> = sharded.per_shard.iter().map(|s| s.entries_to_master).collect();
            r.row(vec![
                label,
                (*name).to_string(),
                secs(b.completion_seconds(LINK_GBPS)),
                secs(b.worker_seconds),
                secs(b.master_seconds),
                secs(MasterIngestModel::default_rack().blocking_latency_sharded(&entries)),
                b.entries_to_master.to_string(),
                sharded.per_shard.iter().map(|s| s.rows).max().unwrap_or(0).to_string(),
            ]);
        };
        for &n in &ctx.shards {
            let spec = ShardSpec::new(n, ShardPartitioner::Hash);
            record(n.to_string(), &run_under(spec.into()));
        }
        // The planned comparison row: what the serving plane's planner
        // fits for this query, over its own shard range.
        let planned = run_under(fitted_plan(&cluster, &planner, q, &table, right_of).into());
        let plan = planned.plan.as_ref().expect("planned run records its plan");
        record(format!("planned:{}@{}", plan.partitioner().name(), plan.shards()), &planned);
    }
    r.note(format!(
        "left {} rows (zipf partition skew 1.0, key skew 1.1); right {} rows; outputs verified \
         equal to the unsharded run at every point",
        table.rows(),
        right.rows()
    ));
    r.note("ingest_model = MasterIngestModel with shard fan-in (§4.6), arrival capped at 40 M/s");
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn sweep_covers_every_family_at_every_shard_count() {
        let ctx = RunCtx { scale: Scale::Quick, shards: vec![1, 4] };
        let r = &run(&ctx)[0];
        // 4 families × (2 shard counts + 1 planned comparison row).
        assert_eq!(r.rows.len(), 12);
        for row in &r.rows {
            assert!(row[0] == "1" || row[0] == "4" || row[0].starts_with("planned:"), "{row:?}");
        }
    }

    #[test]
    fn shard_axis_is_honoured() {
        let ctx = RunCtx { scale: Scale::Quick, shards: vec![2] };
        let r = &run(&ctx)[0];
        assert!(r.rows.iter().all(|row| row[0] == "2" || row[0].starts_with("planned:")));
        // Every family carries exactly one planned row.
        assert_eq!(r.rows.iter().filter(|row| row[0].starts_with("planned:")).count(), 4);
    }

    #[test]
    fn skew_makes_the_hottest_shard_exceed_the_mean() {
        let ctx = RunCtx { scale: Scale::Quick, shards: vec![4] };
        let r = &run(&ctx)[0];
        // distinct routes by the zipf-skewed key: its hottest shard must
        // hold well over 1/4 of the rows.
        let distinct = r.rows.iter().find(|row| row[1] == "distinct").expect("row");
        let max_rows: u64 = distinct[7].parse().unwrap();
        let total: u64 = 20_000;
        assert!(max_rows > total / 4, "hot shard {max_rows} of {total}");
    }
}
