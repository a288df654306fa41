//! First sight, shape by shape: how a query the serving plane has never
//! seen compares with the plain baseline engine.
//!
//! A key's first sight runs the direct arm: the operator's own completion
//! over every row of the tables, on one shard, with no switch program.
//! This example times that, shape by shape, over tables shaped like the
//! `adhoc_cold` benchmark workload — two zipf-skewed tables of 200 000 and
//! 100 000 rows over 5 000 keys — against `Cluster::run_baseline`.
//!
//! It first prints the storage it runs on: for each table, each string
//! column, whether the load rule coded it and the distinct strings among
//! the cells it sampled, and what `TableBuilder::build` cost per row (the
//! table's rows pushed into a fresh builder, only the build timed). The
//! four string-keyed shapes — DISTINCT, GROUP BY, JOIN, HAVING — are
//! checked to read a coded key: every partition of every table they read
//! holds the key column as dictionary codes (`Partition::coded`), which is
//! what the operators complete by. The baseline reads the plain strings.
//!
//! Each request gets a fresh `Session`, so every one is a first sight; the
//! session is built and dropped outside the timed call. Baseline and first
//! sight alternate, request by request. Every answer is checked equal to
//! the baseline's, and every first sight's trace is checked to hold one
//! `worker` span, run on the calling thread (`thread=caller`) rather than
//! handed to the worker pool. It prints, per shape, the median latency of
//! each and their ratio (baseline ÷ first sight: above 1 means first sight
//! is faster), then the geometric mean of the six ratios. The answers and
//! the threads are the pass signal; the ratios depend on the machine.
//!
//! ```sh
//! cargo run --release --example first_sight    # or: make first-sight
//! ```

use cheetah::db::{Cluster, Column, DataType, DbPredicate, DbQuery, IntCmp, Table, TableBuilder};
use cheetah::serve::{QueryRequest, Session, SessionConfig};
use cheetah::workloads::SkewedTableConfig;
use std::sync::Arc;
use std::time::Instant;

const LEFT_ROWS: usize = 200_000;
const RIGHT_ROWS: usize = 100_000;
const KEYS: usize = 5_000;
/// Requests per shape; each ratio is a ratio of medians over this many.
const REQUESTS: usize = 25;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `t`'s rows pushed into a fresh builder, partition by partition, and the
/// nanoseconds per row its `build` took — the load rule's sample and
/// coding, and nothing of generating or pushing the rows.
fn build_ns_per_row(t: &Table) -> f64 {
    let (mut best, parts) = (f64::INFINITY, t.partitions());
    for _ in 0..5 {
        let mut b = TableBuilder::new(t.name(), t.fields().to_vec(), usize::MAX);
        for (i, p) in parts.iter().enumerate() {
            (0..p.rows()).for_each(|r| b.push_row(p.row(r)));
            if i + 1 < parts.len() {
                b.cut_partition();
            }
        }
        let t0 = Instant::now();
        let rebuilt = b.build();
        best = best.min(t0.elapsed().as_secs_f64());
        assert_eq!(&rebuilt, t, "a build is a function of its rows");
    }
    best * 1e9 / t.rows() as f64
}

/// Print which string columns of `t` the load rule coded, with the
/// distinct strings among the cells it sampled, and the build's cost.
fn print_storage(label: &str, t: &Table) {
    println!(
        "{label}: {} rows, {} partitions, build {:.1} ns/row",
        t.rows(),
        t.partitions().len(),
        build_ns_per_row(t)
    );
    for (c, (name, ty)) in t.fields().iter().enumerate() {
        if *ty == DataType::Str {
            let (distinct, cells) = t.sample_repeats(c);
            let coded = if t.is_coded(c) { "coded" } else { "plain" };
            println!("  {name:<8} {coded}: {distinct} distinct of {cells} sampled");
        }
    }
}

fn main() {
    let table = |rows, seed| {
        Arc::new(
            SkewedTableConfig { rows, keys: KEYS, seed, ..SkewedTableConfig::default() }.build(),
        )
    };
    let left = table(LEFT_ROWS, 0xAD0C);
    let right = table(RIGHT_ROWS, 0xAD0C_0002);
    // Schema `key: Str, value: Int, weight: Int`. The HAVING threshold is
    // four times the mean per-key weight sum, so only the zipf head passes.
    let threshold = (LEFT_ROWS * 500 / KEYS * 4) as i64;
    let shapes: [(&str, DbQuery, Option<&Arc<Table>>); 6] = [
        (
            "filter-count",
            DbQuery::FilterCount {
                pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Lt, lit: 10_000 },
            },
            None,
        ),
        ("distinct", DbQuery::Distinct { col: 0 }, None),
        ("topn", DbQuery::TopN { order_col: 1, n: 100 }, None),
        ("groupby-max", DbQuery::GroupByMax { key_col: 0, val_col: 1 }, None),
        ("join", DbQuery::Join { left_key: 0, right_key: 0 }, Some(&right)),
        ("having-sum", DbQuery::HavingSum { key_col: 0, val_col: 2, threshold }, None),
    ];

    println!("storage the first sights run on\n");
    print_storage("left", &left);
    print_storage("right", &right);
    println!();
    // The string-keyed shapes read their key as codes: the load rule coded
    // it in every partition of every table they read.
    let mut string_keyed = 0;
    for (shape, q, right) in &shapes {
        let keys: Vec<(&Arc<Table>, usize)> = match q {
            DbQuery::Distinct { col } => vec![(&left, *col)],
            DbQuery::GroupByMax { key_col, .. } | DbQuery::HavingSum { key_col, .. } => {
                vec![(&left, *key_col)]
            }
            DbQuery::Join { left_key, right_key } => {
                vec![(&left, *left_key), (right.expect("a JOIN has a right table"), *right_key)]
            }
            _ => continue,
        };
        for (t, key) in keys {
            let coded = t.partitions().iter().all(|p| matches!(p.coded(key), Column::Dict { .. }));
            assert!(coded, "{shape}: every table it reads holds its key as codes");
        }
        string_keyed += 1;
    }
    assert_eq!(string_keyed, 4, "DISTINCT, GROUP BY, JOIN and HAVING read codes");

    let cluster = Cluster::default();
    println!(
        "first sight vs baseline: {LEFT_ROWS} x {RIGHT_ROWS} rows, {KEYS} keys, \
         median of {REQUESTS} requests per shape, a fresh session each\n"
    );
    println!(
        "{:<14} {:>12} {:>15} {:>16}",
        "shape", "baseline ms", "first sight ms", "baseline/first"
    );
    let mut log_ratios = 0.0;
    for (shape, q, right) in &shapes {
        let (mut base_s, mut first_s) = (Vec::new(), Vec::new());
        for _ in 0..REQUESTS {
            let t0 = Instant::now();
            let base = cluster.run_baseline(q, &left, right.map(|r| r.as_ref()));
            base_s.push(t0.elapsed().as_secs_f64());

            let session = Session::new(cluster.clone(), SessionConfig::default());
            let mut req = QueryRequest::new(q.clone(), Arc::clone(&left)).tenant("first-sight");
            if let Some(r) = right {
                req = req.with_right(Arc::clone(r));
            }
            let t0 = Instant::now();
            let resp = session.run_blocking(req).expect("a first sight runs");
            first_s.push(t0.elapsed().as_secs_f64());
            drop(session);

            assert_eq!(
                resp.output, base.output,
                "{shape}: first sight must answer like the baseline"
            );
            assert_eq!(resp.arm.label(), "direct", "{shape}: a first sight runs direct");
            // …on one shard, whose job ran on this thread, not the pool.
            let mut workers = Vec::new();
            resp.trace.as_ref().expect("trace exports").root.find_all("worker", &mut workers);
            let threads: Vec<_> = workers.iter().map(|w| w.attr("thread")).collect();
            assert_eq!(threads, [Some("caller")], "{shape}: one job, on the caller");
        }
        let (base, first) = (median(base_s), median(first_s));
        log_ratios += (base / first).ln();
        println!("{shape:<14} {:>12.3} {:>15.3} {:>16.2}", base * 1e3, first * 1e3, base / first);
    }
    println!("\ngeomean baseline/first sight: {:.2}", (log_ratios / shapes.len() as f64).exp());
    println!("every first sight answered identically to the baseline");
}
