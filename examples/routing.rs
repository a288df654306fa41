//! Routing, key by key: what the plan constructor pays to lay out a
//! multi-shard plan over the Big Data tables, and what the layout holds.
//!
//! `ExecPlan::new` routes only the columns a query reads, and the column
//! its routing keys fingerprint, when that holds strings, as dictionary
//! codes (`Column::Dict`) — both named by `unit_columns`. For each Big
//! Data query that routes by a string key — DISTINCT and GROUP BY over
//! `userAgent`, HAVING over `languageCode`, JOIN over `destURL` and
//! `pageURL` — this example routes exactly those columns at the default
//! planner's shard count in two forms: every cell cloned (no keyed
//! column), and coded, as the plan constructor routes them. It prints,
//! per stream, each form's median ns per row (the two alternate, over
//! several repeats) and the bytes the units' cells hold. Every coded
//! unit's cells are checked equal to the cloned unit's, shard by shard
//! and in row order; that check is the pass signal, and the timings
//! depend on the machine.
//!
//! The tables are shaped like the `prune_heavy` and `survivor_heavy`
//! benchmark workloads': 600 000 visits and 300 000 ranked pages.
//!
//! ```sh
//! cargo run --release --example routing    # or: make route
//! ```

use cheetah::db::{
    route_columns, routing_keys, unit_columns, Cluster, Column, DbQuery, ShardPlanner, Table,
};
use cheetah::workloads::BigDataConfig;
use std::time::Instant;

const VISITS: usize = 600_000;
/// Routes per form; each figure is the median over this many.
const REPEATS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Bytes a column's cells hold: eight per int, a `String` header plus its
/// buffer per string, four per code. Allocator overhead is not counted.
fn cell_bytes(col: &Column) -> usize {
    let strings = |v: &[String]| -> usize {
        v.iter().map(|s| std::mem::size_of::<String>() + s.capacity()).sum()
    };
    match col {
        Column::Int(v) => v.len() * 8,
        Column::Str(v) => strings(v),
        Column::Dict { codes, dict } => codes.len() * 4 + strings(dict),
    }
}

fn megabytes(units: &[Table]) -> f64 {
    let part_bytes = |u: &Table| {
        let p = &u.partitions()[0];
        (0..p.width()).map(|c| cell_bytes(p.column(c))).sum::<usize>()
    };
    units.iter().map(part_bytes).sum::<usize>() as f64 / 1e6
}

/// Do the two columns hold the same cells, in the same order?
fn same_cells(a: &Column, b: &Column) -> bool {
    match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => x == y,
        _ => a.len() == b.len() && (0..a.len()).all(|r| a.str_at(r) == b.str_at(r)),
    }
}

fn main() {
    type B = BigDataConfig;
    let bd = BigDataConfig {
        uservisits_rows: VISITS,
        rankings_rows: VISITS / 2,
        url_universe: Some(VISITS * 2),
        ..BigDataConfig::default()
    };
    let (visits, rankings) = (bd.uservisits(), bd.rankings());
    let (agent, language, revenue) = (B::UV_USER_AGENT, B::UV_LANGUAGE, B::UV_AD_REVENUE);
    let queries: [(&str, DbQuery, Option<&Table>); 4] = [
        ("distinct", DbQuery::Distinct { col: agent }, None),
        ("groupby-max", DbQuery::GroupByMax { key_col: agent, val_col: revenue }, None),
        (
            "having-sum",
            DbQuery::HavingSum { key_col: language, val_col: revenue, threshold: 0 },
            None,
        ),
        (
            "join",
            DbQuery::Join { left_key: B::UV_DEST_URL, right_key: B::RANKINGS_PAGE_URL },
            Some(&rankings),
        ),
    ];
    let seed = Cluster::default().tuning.seed;
    println!(
        "routing the columns each query reads, {VISITS} x {} rows, median of {REPEATS}\n",
        rankings.rows()
    );
    println!(
        "{:<12} {:<12} {:>6} {:>11} {:>11} {:>9} {:>9}",
        "query", "key", "shards", "clone ns/r", "coded ns/r", "clone MB", "coded MB"
    );
    for (name, q, right) in &queries {
        let plan = ShardPlanner::default().plan(q, &visits, *right, seed);
        for (stream, t) in std::iter::once(&visits).chain(*right).enumerate() {
            let (cols, keyed) = unit_columns(q, stream);
            let key = keyed.expect("each query here routes by a key column");
            let keys = routing_keys(q, stream, t, seed);
            // [cloned, coded]: each form's timings and its last units.
            let mut ns: [Vec<f64>; 2] = Default::default();
            let mut units: [Vec<Table>; 2] = Default::default();
            for _ in 0..REPEATS {
                for (form, keyed) in [None, Some(key)].into_iter().enumerate() {
                    let t0 = Instant::now();
                    let routed = route_columns(t, &cols, keyed, &keys, &plan.sharder, 0, t.rows());
                    ns[form].push(t0.elapsed().as_secs_f64() * 1e9 / t.rows() as f64);
                    units[form] = routed;
                }
            }
            let [cloned, coded] = &units;
            for (s, (a, b)) in cloned.iter().zip(coded).enumerate() {
                let (a, b) = (&a.partitions()[0], &b.partitions()[0]);
                assert!(matches!(b.column(key), Column::Dict { .. }), "{name}: the key is coded");
                for c in 0..cols.len() {
                    let at = format!("{name} stream {stream} shard {s} column {c}");
                    assert!(same_cells(a.column(c), b.column(c)), "{at}: a cell differs");
                }
            }
            let [cloned_ns, coded_ns] = ns;
            println!(
                "{name:<12} {:<12} {:>6} {:>11.1} {:>11.1} {:>9.1} {:>9.1}",
                t.fields()[cols[key]].0,
                plan.shards(),
                median(cloned_ns),
                median(coded_ns),
                megabytes(cloned),
                megabytes(coded)
            );
        }
    }
    println!("\nevery coded unit decoded to the cells it was routed from");
}
