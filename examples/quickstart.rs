//! Quickstart: the paper's running example (Table 1) end to end.
//!
//! Builds the Products/Ratings tables from §4, runs each query shape both
//! through the baseline engine and through the switch-pruned serving
//! plane (the `QueryRequest`/`Session` front door), and shows that
//! outputs match while the switch discards most of the stream.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cheetah::db::{Cluster, DataType, DbQuery, QueryOutput, Table, TableBuilder, Value};
use cheetah::db::{DbPredicate, ExecPath, IntCmp, LikePattern};
use cheetah::serve::{QueryRequest, Session, SessionConfig};
use std::sync::Arc;

fn products() -> Table {
    let mut b = TableBuilder::new(
        "products",
        vec![
            ("name".into(), DataType::Str),
            ("seller".into(), DataType::Str),
            ("price".into(), DataType::Int),
        ],
        2,
    );
    for (n, s, p) in [
        ("Burger", "McCheetah", 4),
        ("Pizza", "Papizza", 7),
        ("Fries", "McCheetah", 2),
        ("Jello", "JellyFish", 5),
    ] {
        b.push_row(vec![Value::Str(n.into()), Value::Str(s.into()), Value::Int(p)]);
    }
    b.build()
}

fn ratings() -> Table {
    let mut b = TableBuilder::new(
        "ratings",
        vec![
            ("name".into(), DataType::Str),
            ("taste".into(), DataType::Int),
            ("texture".into(), DataType::Int),
        ],
        2,
    );
    for (n, ta, te) in
        [("Pizza", 7, 5), ("Cheetos", 8, 6), ("Jello", 9, 4), ("Burger", 5, 7), ("Fries", 3, 3)]
    {
        b.push_row(vec![Value::Str(n.into()), Value::Int(ta), Value::Int(te)]);
    }
    b.build()
}

fn show(name: &str, out: &QueryOutput, pruned_pct: f64) {
    println!("  {name:<55} pruned {pruned_pct:5.1}%");
    println!("    -> {out:?}");
}

fn main() {
    let cluster = Cluster::default();
    let products = Arc::new(products());
    let ratings = Arc::new(ratings());
    // The serving plane's front door: requests go through admission and
    // the session's held layouts, on this thread; the baseline below
    // stays on the engine directly — it is the ground truth the plane is
    // checked against. Each request pins the pruned arm: unpinned, a
    // query's first sight runs direct, with no switch to show.
    let session = Session::new(cluster.clone(), SessionConfig::default());
    let pruned = |q: &DbQuery, table: &Arc<Table>| {
        QueryRequest::new(q.clone(), Arc::clone(table))
            .tenant("quickstart")
            .path(ExecPath::BarrierPooled)
    };

    println!("Cheetah quickstart — the paper's §4 examples\n");

    // §4.1 Example #1: filtering with a non-switch-evaluable LIKE.
    // SELECT * FROM Ratings WHERE taste > 5 OR (texture > 4 AND name LIKE 'e%s')
    let filter = DbQuery::FilterCount {
        pred: DbPredicate::Or(vec![
            DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 5 },
            DbPredicate::And(vec![
                DbPredicate::CmpInt { col: 2, op: IntCmp::Gt, lit: 4 },
                DbPredicate::Like { col: 0, pattern: LikePattern::parse("e%s") },
            ]),
        ]),
    };

    // §4.2 Example #2: SELECT DISTINCT seller FROM Products.
    let distinct = DbQuery::Distinct { col: 1 };

    // §4.3 Example #3: SELECT TOP 3 ... ORDER BY taste.
    let topn = DbQuery::TopN { order_col: 1, n: 3 };

    // §4.4 Example #6: SELECT name FROM Ratings SKYLINE OF taste, texture.
    let skyline = DbQuery::Skyline { cols: vec![1, 2] };

    for (name, q, table) in [
        ("WHERE taste>5 OR (texture>4 AND name LIKE 'e%s')", &filter, &ratings),
        ("SELECT DISTINCT seller FROM Products", &distinct, &products),
        ("SELECT TOP 3 * FROM Ratings ORDER BY taste", &topn, &ratings),
        ("SELECT name FROM Ratings SKYLINE OF taste, texture", &skyline, &ratings),
    ] {
        let base = cluster.run_baseline(q, table, None);
        let chee = session.run_blocking(pruned(q, table)).expect("plan fits the switch");
        assert_eq!(base.output, chee.output, "pruning must not change the output");
        show(name, &chee.output, chee.switch_stats.pruned_fraction() * 100.0);
    }

    // §4.3 Example #4: JOIN Products and Ratings ON name.
    let join = DbQuery::Join { left_key: 0, right_key: 0 };
    let base = cluster.run_baseline(&join, &products, Some(&ratings));
    let chee = session
        .run_blocking(pruned(&join, &products).with_right(Arc::clone(&ratings)))
        .expect("plan fits the switch");
    assert_eq!(base.output, chee.output);
    show(
        "Products JOIN Ratings ON name",
        &chee.output,
        chee.switch_stats.pruned_fraction() * 100.0,
    );

    println!("\nEvery query produced identical output on both paths — Q(A_Q(D)) = Q(D).");
    println!("(Tiny tables prune little; run the bigdata_benchmark example for scale.)");
}
