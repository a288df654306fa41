//! Figure 8 — delay breakdown of Spark vs Cheetah at 10G and 20G.
//!
//! The paper's stacked bars: computation / network / other, for DISTINCT
//! and (Max) GROUP BY. Spark's bottleneck is worker computation — a faster
//! NIC does not help it. Cheetah moves the computation to the switch and
//! becomes network-bound: doubling the link rate halves its completion
//! time (§8.2.3).

use crate::report::secs;
use crate::{Report, RunCtx};
use cheetah_db::{Cluster, DbQuery, ExecBackend};
use cheetah_workloads::bigdata::BigDataConfig;

/// Build the figure.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let scale = ctx.scale;
    let bd =
        BigDataConfig { uservisits_rows: scale.entries(150_000, 5_000_000), ..Default::default() };
    let table = bd.uservisits();
    let cluster = Cluster::default();
    let queries = [
        ("Distinct", DbQuery::Distinct { col: BigDataConfig::UV_USER_AGENT }),
        (
            "Group-By",
            DbQuery::GroupByMax {
                key_col: BigDataConfig::UV_USER_AGENT,
                val_col: BigDataConfig::UV_AD_REVENUE,
            },
        ),
    ];
    let mut r = Report::new(
        "fig8",
        "Delay breakdown: computation / network / total, per system and rate",
        &["query", "system", "computation", "network", "total"],
    );
    for (name, q) in queries {
        let base = cluster.run_baseline(&q, &table, None);
        let chee = cluster.run_cheetah(&q, &table, None, ExecBackend::Interpreted).expect("plan");
        assert_eq!(base.output, chee.output);
        for (system, b, gbps) in [
            ("Spark 10G", &base.breakdown, 10.0),
            ("Spark 20G", &base.breakdown, 20.0),
            ("Cheetah 10G", &chee.breakdown, 10.0),
            ("Cheetah 20G", &chee.breakdown, 20.0),
        ] {
            let comp = b.worker_seconds + b.master_seconds;
            let net = b.network_seconds(gbps);
            r.row(vec![
                name.to_string(),
                system.to_string(),
                secs(comp),
                secs(net),
                secs(b.completion_seconds(gbps)),
            ]);
        }
    }
    r.note("Spark barely moves 10G→20G (compute-bound); Cheetah's network cost halves");
    r.note(format!("{} UserVisits rows, 5 workers", bd.uservisits_rows));
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_secs(s: &str) -> f64 {
        if let Some(x) = s.strip_suffix("ms") {
            x.parse::<f64>().unwrap() * 1e-3
        } else if let Some(x) = s.strip_suffix("µs") {
            x.parse::<f64>().unwrap() * 1e-6
        } else {
            s.strip_suffix('s').unwrap().parse::<f64>().unwrap()
        }
    }

    #[test]
    fn cheetah_network_halves_at_20g() {
        let r = &run(&RunCtx::quick())[0];
        let net_of = |system: &str, query: &str| {
            let row = r.rows.iter().find(|row| row[0] == query && row[1] == system).expect("row");
            parse_secs(&row[3])
        };
        for q in ["Distinct", "Group-By"] {
            let n10 = net_of("Cheetah 10G", q);
            let n20 = net_of("Cheetah 20G", q);
            assert!((n10 / n20 - 2.0).abs() < 0.05, "{q}: {n10} vs {n20}");
        }
    }

    #[test]
    fn cheetah_moves_more_bytes_than_spark() {
        // Cheetah streams the whole column uncompressed; Spark ships small
        // compressed partials — that is the structural trade the paper
        // describes.
        let r = &run(&RunCtx::quick())[0];
        let net_of = |system: &str| {
            let row =
                r.rows.iter().find(|row| row[0] == "Distinct" && row[1] == system).expect("row");
            parse_secs(&row[3])
        };
        assert!(net_of("Cheetah 10G") > net_of("Spark 10G"));
    }
}
