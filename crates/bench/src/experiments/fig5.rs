//! Figure 5 — completion time of Spark vs Cheetah across the benchmark
//! queries.
//!
//! Nine bars in the paper: BigData A (filtering), BigData B (the offloaded
//! group-by, whose switch-prunable form is the SUM+HAVING of benchmark
//! query 7), BigData A+B, TPC-H Q3 (we reproduce the offloaded join, which
//! the paper says takes 67% of the query), and the five standalone
//! operator queries. For each: Spark's first run, Spark's subsequent runs,
//! and Cheetah.
//!
//! Phase times are measured on real work; transfers are modelled at the
//! paper's 10G NIC rate. "Spark (1st run)" applies the paper's observed
//! first-run penalty (indexing + JIT; §8.2.2 discards it for the scaling
//! studies) as a documented constant factor on the measured run.

use crate::report::secs;
use crate::{Report, RunCtx};
use cheetah_db::{Cluster, DbQuery, ExecBackend, Table};
use cheetah_workloads::bigdata::BigDataConfig;
use cheetah_workloads::tpch::TpchConfig;

/// First-run penalty: the paper's Figure 5 shows 1st runs 1.5–2.5× slower
/// than subsequent runs (caching/indexing/JIT); we apply the midpoint.
pub const FIRST_RUN_FACTOR: f64 = 2.0;

/// Link rate for the completion model (the paper's default NIC cap).
pub const LINK_GBPS: f64 = 10.0;

struct Row {
    name: &'static str,
    spark: f64,
    cheetah: f64,
    pruned_pct: f64,
}

fn run_pair(
    cluster: &Cluster,
    (q, left, right): (DbQuery, &Table, Option<&Table>),
    name: &'static str,
) -> Row {
    // Best of three: discards allocator/thread warm-up noise, like any
    // benchmarking harness (Spark's own first run is modelled separately).
    let mut spark = f64::INFINITY;
    let mut cheetah = f64::INFINITY;
    let mut pruned_pct = 0.0;
    for _ in 0..3 {
        let base = cluster.run_baseline(&q, left, right);
        let chee =
            cluster.run_cheetah(&q, left, right, ExecBackend::Interpreted).expect("cheetah plan");
        assert_eq!(base.output, chee.output, "{name}: pruning changed the output");
        spark = spark.min(base.breakdown.completion_seconds(LINK_GBPS));
        cheetah = cheetah.min(chee.breakdown.completion_seconds(LINK_GBPS));
        pruned_pct = chee.switch_stats.pruned_fraction() * 100.0;
    }
    Row { name, spark, cheetah, pruned_pct }
}

/// Build the figure.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let scale = ctx.scale;
    let bd = BigDataConfig {
        rankings_rows: scale.entries(60_000, 2_000_000),
        uservisits_rows: scale.entries(120_000, 6_000_000),
        ..Default::default()
    };
    let rankings = bd.rankings();
    let uservisits = bd.uservisits();
    let tpch = TpchConfig {
        orders: scale.entries(15_000, 500_000),
        lineitems: scale.entries(60_000, 2_000_000),
        ..Default::default()
    };
    let orders = tpch.orders();
    let lineitem = tpch.lineitem();
    let cluster = Cluster::default();

    let [filter, distinct, skyline, topn, groupby, (join, _, _), having] =
        bd.queries(&rankings, &uservisits);

    let a = run_pair(&cluster, filter, "BigData A");
    let b = run_pair(&cluster, having, "BigData B");
    let ab = Row {
        name: "BigData A+B",
        spark: a.spark + b.spark,
        cheetah: a.cheetah + b.cheetah,
        pruned_pct: (a.pruned_pct + b.pruned_pct) / 2.0,
    };
    let q3 = run_pair(
        &cluster,
        (DbQuery::Join { left_key: 0, right_key: 0 }, &orders, Some(&lineitem)),
        "TPC-H Q3 (join)",
    );
    let distinct = run_pair(&cluster, distinct, "Distinct");
    let groupby = run_pair(&cluster, groupby, "GroupBy (Max)");
    let skyline = run_pair(&cluster, skyline, "Skyline");
    let topn = run_pair(&cluster, topn, "Top-N");
    // The paper took 10% subsets for the join because destURLs match
    // rankings 100%; we get the same effect by widening the URL universe
    // so only ~25% of visits hit a ranked page.
    let bd_join = BigDataConfig { url_universe: Some(bd.rankings_rows * 4), ..bd.clone() };
    let uservisits_join = bd_join.uservisits();
    let join = run_pair(&cluster, (join, &uservisits_join, Some(&rankings)), "Join");

    let mut r = Report::new(
        "fig5",
        "Completion time: Spark (1st run) / Spark / Cheetah, per query",
        &["query", "spark_1st", "spark", "cheetah", "cheetah_speedup", "pruned_%"],
    );
    for row in [a, b, ab, q3, distinct, groupby, skyline, topn, join] {
        r.row(vec![
            row.name.to_string(),
            secs(row.spark * FIRST_RUN_FACTOR),
            secs(row.spark),
            secs(row.cheetah),
            format!("{:.2}x", row.spark / row.cheetah.max(1e-12)),
            format!("{:.1}", row.pruned_pct),
        ]);
    }
    r.note(format!(
        "rankings = {} rows, uservisits = {} rows, link = {LINK_GBPS} Gbps",
        bd.rankings_rows, bd.uservisits_rows
    ));
    r.note(format!(
        "spark_1st = measured × {FIRST_RUN_FACTOR} (paper-observed indexing/JIT penalty)"
    ));
    r.note("BigData B reproduced as its switch-prunable SUM+HAVING form (benchmark query 7)");
    r.note("A+B = sum of the two runs; the paper additionally pipelines CWorker serialization");
    r.note("TPC-H Q3 row is the offloaded join (67% of Q3 per §8.1); outputs verified equal");
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_bars_present_and_outputs_equal() {
        // run() internally asserts output equality for every query.
        let r = &run(&RunCtx::quick())[0];
        assert_eq!(r.rows.len(), 9);
        for name in [
            "BigData A",
            "BigData B",
            "BigData A+B",
            "TPC-H Q3 (join)",
            "Distinct",
            "GroupBy (Max)",
            "Skyline",
            "Top-N",
            "Join",
        ] {
            assert!(r.rows.iter().any(|row| row[0] == name), "missing {name}");
        }
    }

    #[test]
    fn aggregation_queries_prune_heavily() {
        let r = &run(&RunCtx::quick())[0];
        for name in ["Distinct", "GroupBy (Max)", "Skyline"] {
            let row = r.rows.iter().find(|row| row[0] == name).expect("row");
            let pruned: f64 = row[5].parse().expect("pruned %");
            assert!(pruned > 90.0, "{name} pruned only {pruned}%");
        }
        // Top-N's randomized matrix needs m ≫ w·d (Theorem 3); at quick
        // scale the stream is only ~7× the matrix, so expect a weaker rate.
        let row = r.rows.iter().find(|row| row[0] == "Top-N").expect("row");
        let pruned: f64 = row[5].parse().expect("pruned %");
        assert!(pruned > 50.0, "Top-N pruned only {pruned}%");
    }
}
