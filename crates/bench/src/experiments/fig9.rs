//! Figure 9 — blocking master latency vs unpruned fraction.
//!
//! §8.3: the master's completion time grows **super-linearly** in the
//! unpruned fraction, because entries buffer up when the arrival rate
//! exceeds the (query-specific) software service rate. TOP N's heap
//! digests millions of entries per second; SKYLINE-class operators are far
//! slower, so they need more pruning for the same latency.

use crate::report::secs;
use crate::{Report, RunCtx};
use cheetah_net::MasterIngestModel;

/// Per-query master service rates (entries/second), in the measured order
/// of magnitude for the software operators of `cheetah-db`.
pub const SERVICE_RATES: [(&str, f64); 3] =
    [("Top N", 5.0e6), ("Distinct", 2.5e6), ("Max Group-By", 1.2e6)];

/// Build the figure.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let scale = ctx.scale;
    let total_entries = scale.entries(30_000_000, 100_000_000) as f64;
    let mut r = Report::new(
        "fig9",
        "Blocking master latency vs unpruned fraction",
        &["unpruned_frac", "Top N", "Distinct", "Max Group-By"],
    );
    for frac in [0.05f64, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5] {
        let entries = (total_entries * frac) as u64;
        let mut cells = vec![format!("{frac:.2}")];
        for (_, rate) in SERVICE_RATES {
            let m = MasterIngestModel {
                arrival_rate: 10.0e6, // the CWorkers' ~10 Mpps at 10G
                base_service_rate: rate,
                backlog_halving: 4.0e6,
                nic_cap_rate: 40.0e6,
            };
            cells.push(secs(m.blocking_latency(entries)));
        }
        r.row(cells);
    }
    r.note(format!("stream of {} entries; arrival 10 Mpps", total_entries as u64));
    r.note("superlinear growth = buffering once arrivals outpace the operator");
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
    fn growth_is_superlinear_for_slow_operators() {
        let r = &run(&RunCtx::quick())[0];
        // Max Group-By column: latency at 0.5 must exceed 5× latency at 0.1
        // (superlinear), while fractions only grew 5×.
        let at = |f: &str| {
            let row = r.rows.iter().find(|row| row[0] == f).expect("row");
            parse_secs(&row[3])
        };
        assert!(at("0.50") > at("0.10") * 5.0 * 1.2);
    }

    #[test]
    fn faster_operators_tolerate_more_unpruned_data() {
        let r = &run(&RunCtx::quick())[0];
        for row in &r.rows {
            let topn = parse_secs(&row[1]);
            let groupby = parse_secs(&row[3]);
            assert!(topn <= groupby, "Top N must be the cheapest operator: {row:?}");
        }
    }
}
