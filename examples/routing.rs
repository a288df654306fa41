//! Routing, key by key: what the plan constructor pays to lay out a
//! multi-shard plan over the Big Data tables, and what the layout holds.
//!
//! `ExecPlan::new` routes only the columns a query reads, and the column
//! its routing keys fingerprint, when that holds strings, as dictionary
//! codes (`Column::Dict`) — both named by `unit_columns`. A query's streams
//! go through one `route_columns` pass, so a JOIN's two key columns are
//! coded against one dictionary per shard, shared by `Arc`. For each Big
//! Data query that routes by a string key — DISTINCT and GROUP BY over
//! `userAgent`, HAVING over `languageCode`, JOIN over `destURL` and
//! `pageURL` — this example routes exactly those columns at the default
//! planner's shard count in two forms: every cell cloned (no keyed
//! column), and coded, as the plan constructor routes them. For the JOIN
//! it adds a third: each stream coded apart, a dictionary per stream and
//! shard. It prints each form's median ns per row over every stream's rows
//! (the forms alternate, over several repeats) and the bytes the units'
//! cells hold, a shared dictionary counted once. Every coded unit's cells
//! are checked equal to the cloned unit's, shard by shard and in row
//! order, and every shared dictionary is checked to hold each string
//! once; those checks are the pass signal, and the timings depend on the
//! machine.
//!
//! The tables are shaped like the `prune_heavy` and `survivor_heavy`
//! benchmark workloads': 600 000 visits and 300 000 ranked pages.
//!
//! ```sh
//! cargo run --release --example routing    # or: make route
//! ```

use cheetah::db::{
    route_columns, routing_keys, unit_columns, Cluster, Column, DbQuery, RouteStream, ShardPlanner,
    Table,
};
use cheetah::workloads::BigDataConfig;
use std::collections::HashSet;
use std::time::Instant;

const VISITS: usize = 600_000;
/// Routes per form; each figure is the median over this many.
const REPEATS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Bytes the cells of `units` hold: eight per int, a `String` header plus
/// its buffer per string, four per code, and each dictionary once however
/// many units share it. Allocator overhead is not counted.
fn megabytes<'a>(units: impl IntoIterator<Item = &'a Table>) -> f64 {
    let strings = |v: &[String]| -> usize {
        v.iter().map(|s| std::mem::size_of::<String>() + s.capacity()).sum()
    };
    let mut dicts = HashSet::new();
    let mut bytes = 0;
    for unit in units {
        let p = &unit.partitions()[0];
        for col in (0..p.width()).map(|c| p.column(c)) {
            bytes += match col {
                Column::Int(v) => v.len() * 8,
                Column::Str(v) => strings(v),
                Column::Dict { codes, dict } => {
                    let fresh = dicts.insert(dict.as_ptr());
                    codes.len() * 4 + if fresh { strings(dict) } else { 0 }
                }
            };
        }
    }
    bytes as f64 / 1e6
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
        "{:<12} {:<20} {:>6} {:>11} {:>11} {:>9} {:>9}",
        "query", "key", "shards", "clone ns/r", "coded ns/r", "clone MB", "coded MB"
    );
    for (name, q, right) in &queries {
        let plan = ShardPlanner::default().plan(q, &visits, *right, seed);
        let tables: Vec<&Table> = std::iter::once(&visits).chain(*right).collect();
        let cols: Vec<_> = (0..tables.len()).map(|stream| unit_columns(q, stream)).collect();
        let key: Vec<usize> =
            cols.iter().map(|(_, k)| k.expect("each query here routes by a key column")).collect();
        let keys: Vec<Vec<u64>> =
            tables.iter().enumerate().map(|(stream, t)| routing_keys(q, stream, t, seed)).collect();
        // Each stream as the plan constructor routes it: coded, or with
        // `code` false every cell cloned.
        let streams = |code: bool| -> Vec<RouteStream<'_>> {
            (0..tables.len())
                .map(|s| RouteStream {
                    table: tables[s],
                    cols: &cols[s].0,
                    keyed: Some(key[s]).filter(|_| code),
                    keys: &keys[s],
                    rows: 0..tables[s].rows(),
                })
                .collect()
        };
        let (cloning, coding) = (streams(false), streams(true));
        // The forms: every cell cloned; coded in one pass, as the plan
        // constructor routes; and, for the JOIN, each stream coded apart.
        let cloned_form = || route_columns(&cloning, &plan.sharder);
        let coded_form = || route_columns(&coding, &plan.sharder);
        let apart_form = || -> Vec<Vec<Table>> {
            let apart = |s| route_columns(std::slice::from_ref(s), &plan.sharder).remove(0);
            coding.iter().map(apart).collect()
        };
        let mut forms: Vec<&dyn Fn() -> Vec<Vec<Table>>> = vec![&cloned_form, &coded_form];
        if right.is_some() {
            forms.push(&apart_form);
        }
        // Each form's timings and its last units, `[stream][shard]`.
        let rows: usize = tables.iter().map(|t| t.rows()).sum();
        let mut ns: [Vec<f64>; 3] = Default::default();
        let mut units: [Vec<Vec<Table>>; 3] = Default::default();
        for _ in 0..REPEATS {
            for (form, route) in forms.iter().enumerate() {
                let t0 = Instant::now();
                let routed = route();
                ns[form].push(t0.elapsed().as_secs_f64() * 1e9 / rows as f64);
                units[form] = routed;
            }
        }
        let [cloned, coded, apart] = &units;
        for s in 0..plan.shards() {
            let mut shared = HashSet::new();
            for (stream, (cols, _)) in cols.iter().enumerate() {
                let (a, b) =
                    (&cloned[stream][s].partitions()[0], &coded[stream][s].partitions()[0]);
                let at = format!("{name} stream {stream} shard {s}");
                let Column::Dict { dict, .. } = b.column(key[stream]) else {
                    panic!("{at}: the key is coded");
                };
                shared.insert(dict.as_ptr());
                let held: HashSet<&String> = dict.iter().collect();
                assert_eq!(held.len(), dict.len(), "{at}: each string once in its dictionary");
                for c in 0..cols.len() {
                    assert!(
                        same_cells(a.column(c), b.column(c)),
                        "{at} column {c}: a cell differs"
                    );
                }
            }
            assert_eq!(shared.len(), 1, "{name} shard {s}: the streams share one dictionary");
        }
        let median_of = |form: usize| median(ns[form].clone());
        let key_names: Vec<&str> =
            (0..tables.len()).map(|s| tables[s].fields()[cols[s].0[key[s]]].0.as_str()).collect();
        println!(
            "{name:<12} {:<20} {:>6} {:>11.1} {:>11.1} {:>9.1} {:>9.1}",
            key_names.join("+"),
            plan.shards(),
            median_of(0),
            median_of(1),
            megabytes(cloned.iter().flatten()),
            megabytes(coded.iter().flatten())
        );
        if !apart.is_empty() {
            println!(
                "{:<12} {:<20} {:>6} {:>11} {:>11.1} {:>9} {:>9.1}",
                format!("{name} apart"),
                "(a dict per stream)",
                plan.shards(),
                "",
                median_of(2),
                "",
                megabytes(apart.iter().flatten())
            );
        }
    }
    println!(
        "\nevery coded unit decoded to the cells it was routed from, \
         and each shard's streams shared one dictionary"
    );
}
