//! The Big Data benchmark at configurable scale: Spark vs Cheetah.
//!
//! Generates Rankings and UserVisits, runs the seven benchmark queries
//! through the Spark-like baseline and through the switch-pruned serving
//! plane (the `QueryRequest`/`Session` front door), verifies output
//! equality, and prints a Figure-5 style table with completion times at
//! a 10G link.
//!
//! ```sh
//! cargo run --release --example bigdata_benchmark            # default scale
//! cargo run --release --example bigdata_benchmark -- 500000  # uservisits rows
//! ```

use cheetah::db::{Cluster, ExecPath};
use cheetah::serve::{QueryRequest, Session, SessionConfig};
use cheetah::workloads::bigdata::BigDataConfig;
use std::sync::Arc;

const LINK_GBPS: f64 = 10.0;

/// The seven queries' names, in `BigDataConfig::queries`' order.
const NAMES: [&str; 7] = [
    "1: filter count (avgDuration < 10)",
    "2: distinct userAgent",
    "3: skyline pageRank, avgDuration",
    "4: top 250 by adRevenue",
    "5: max adRevenue per userAgent",
    "6: join uservisits.destURL = rankings.pageURL",
    "7: languages with SUM(adRevenue) > threshold",
];

fn main() {
    let rows: usize =
        std::env::args().nth(1).map(|s| s.parse().expect("row count")).unwrap_or(200_000);
    let bd = BigDataConfig {
        uservisits_rows: rows,
        rankings_rows: rows / 2,
        // ~25% of visits hit a ranked page, so the join has real pruning
        // opportunity (the paper subsampled for the same reason).
        url_universe: Some(rows * 2),
        ..Default::default()
    };
    eprintln!(
        "generating rankings ({} rows) and uservisits ({} rows)...",
        bd.rankings_rows, bd.uservisits_rows
    );
    let rankings = Arc::new(bd.rankings());
    let uservisits = Arc::new(bd.uservisits());
    let cluster = Cluster::default();
    let session = Session::new(cluster.clone(), SessionConfig::default());

    println!(
        "{:<48} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "query", "spark", "cheetah", "speedup", "pruned%", "survivors"
    );
    println!("{}", "-".repeat(96));
    for (name, (q, left, right)) in NAMES.into_iter().zip(bd.queries(&rankings, &uservisits)) {
        let base = cluster.run_baseline(&q, left, right.map(|r| &**r));
        // Pinned to the pruned arm: unpinned, a query's first sight runs
        // direct, and this table is about what the switch prunes.
        let mut req =
            QueryRequest::new(q, Arc::clone(left)).tenant("bigdata").path(ExecPath::BarrierPooled);
        if let Some(r) = right {
            req = req.with_right(Arc::clone(r));
        }
        let chee = session.run_blocking(req).expect("plan fits");
        assert_eq!(base.output, chee.output, "{name}: outputs diverged");
        let s = base.breakdown.completion_seconds(LINK_GBPS);
        let c = chee.breakdown.completion_seconds(LINK_GBPS);
        println!(
            "{:<48} {:>8.3}s {:>8.3}s {:>7.2}x {:>8.1} {:>9}",
            name,
            s,
            c,
            s / c.max(1e-12),
            chee.switch_stats.pruned_fraction() * 100.0,
            chee.breakdown.entries_to_master,
        );
    }
    println!("\nall outputs verified equal across both paths (link model: {LINK_GBPS} Gbps)");
}
