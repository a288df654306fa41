//! Figure 6 — the effect of worker count and data scale (DISTINCT).
//!
//! 6a fixes the dataset and varies the number of workers (partitions);
//! 6b fixes five workers and varies the number of entries. The paper's
//! findings: Cheetah beats Spark at every point, and the gap *widens* with
//! data scale (6b) while staying roughly constant across worker counts
//! (6a). Spark's first run is discarded, as in §8.2.2.

use crate::report::secs;
use crate::{Report, RunCtx, Scale};
use cheetah_db::{Cluster, DbQuery, ExecBackend};
use cheetah_workloads::bigdata::BigDataConfig;

const LINK_GBPS: f64 = 10.0;

fn distinct_query() -> DbQuery {
    DbQuery::Distinct { col: BigDataConfig::UV_USER_AGENT }
}

/// Best of three runs (discard warm-up noise); asserts output equality.
fn best_of_3(cluster: &Cluster, q: &DbQuery, t: &cheetah_db::Table) -> (f64, f64) {
    let mut s = f64::INFINITY;
    let mut c = f64::INFINITY;
    for _ in 0..3 {
        let base = cluster.run_baseline(q, t, None);
        let chee = cluster.run_cheetah(q, t, None, ExecBackend::Interpreted).expect("plan");
        assert_eq!(base.output, chee.output);
        s = s.min(base.breakdown.completion_seconds(LINK_GBPS));
        c = c.min(chee.breakdown.completion_seconds(LINK_GBPS));
    }
    (s, c)
}

/// Panel (a): vary the number of workers over a fixed dataset.
pub fn panel_a(scale: Scale) -> Report {
    let bd =
        BigDataConfig { uservisits_rows: scale.entries(100_000, 5_000_000), ..Default::default() };
    let table = bd.uservisits();
    let cluster = Cluster::default();
    let q = distinct_query();
    let mut r = Report::new(
        "fig6a",
        "DISTINCT completion vs number of workers (fixed total entries)",
        &["workers", "spark", "cheetah"],
    );
    for workers in 1..=5usize {
        let t = table.repartition(workers);
        let (s, c) = best_of_3(&cluster, &q, &t);
        r.row(vec![workers.to_string(), secs(s), secs(c)]);
    }
    r.note(format!("{} total entries; Spark first run discarded", bd.uservisits_rows));
    r
}

/// Panel (b): vary the number of entries at five workers.
pub fn panel_b(scale: Scale) -> Report {
    let base_rows = scale.entries(100_000, 10_000_000);
    let cluster = Cluster::default();
    let q = distinct_query();
    let mut r = Report::new(
        "fig6b",
        "DISTINCT completion vs number of entries (5 workers)",
        &["entries", "spark", "cheetah", "gap"],
    );
    for mult in [1usize, 2, 3] {
        let bd = BigDataConfig { uservisits_rows: base_rows * mult, ..Default::default() };
        let t = bd.uservisits();
        let (s, c) = best_of_3(&cluster, &q, &t);
        r.row(vec![(base_rows * mult).to_string(), secs(s), secs(c), secs(s - c)]);
    }
    r.note("the paper's 6b: the Spark–Cheetah gap widens as the data grows");
    r
}

/// Both panels.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let scale = ctx.scale;
    vec![panel_a(scale), panel_b(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_have_expected_shape() {
        let rs = run(&RunCtx::quick());
        assert_eq!(rs[0].rows.len(), 5, "worker sweep 1..=5");
        assert_eq!(rs[1].rows.len(), 3, "three data scales");
    }
}
