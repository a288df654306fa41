//! Serving-plane contract gate: the `Session` front door must change
//! *when* answers arrive — never *what* they say — and must degrade by
//! typed rejection, not by collapse.
//!
//! Two properties, each request served on its caller's thread:
//!
//! 1. **Concurrent bit-identity** — N tenant threads sending a mixed bag
//!    of query variants concurrently get results bit-identical to
//!    sequential single-query baseline runs.
//! 2. **Typed overload** — past the in-flight bound, `run_blocking`
//!    returns `Error::Overloaded` immediately instead of growing memory.
//!
//! Under property 1 sit the layout lifecycle of a repeated query (first
//! sight runs the tables whole, second sight routes the key's rows over
//! the cores, later ones run the held layout — every layout answers alike,
//! and a held layout is never routed twice) and the right table a unary
//! query ignores, and the arm, which is the request's own (every unpinned
//! sight of every family runs direct, on whatever layout its key holds —
//! for every family, a layout of several units; a path or backend pin
//! runs pruned on it, for that request alone, and a shard pin on a layout
//! of its own, routed per request and never held). Under property 2
//! sits containment: a request its tables cannot answer or that gives the
//! switch nothing to evaluate is refused before any arm runs, identically
//! on each; a shard job that panics anyway fails alone and typed — no
//! thread lost, no slot leaked.

mod common;

use cheetah_core::Error::{BadArity, BadColumn, WorkerPanicked};
use cheetah_db::planner::{units, ROWS_PER_UNIT};
use cheetah_db::{
    CheetahTuning, Cluster, DataType, DbPredicate, DbQuery, ExecBackend, ExecPath, IntCmp,
    LikePattern, QueryOutput, Table, TableBuilder, Value,
};
use cheetah_runtime::WorkerPool;
use cheetah_serve::{Error, QueryRequest, QueryResponse, Session, SessionConfig};
use cheetah_telemetry::{SpanNode, TraceTree};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

fn fixtures(seed: u64) -> (Arc<Table>, Arc<Table>) {
    let left = Arc::new(common::gen_table(4_000, 120, 4, seed));
    let right = Arc::new(common::gen_table(1_500, 120, 3, seed ^ 0xFACE));
    (left, right)
}

fn request(q: &DbQuery, left: &Arc<Table>, right: &Arc<Table>, tenant: &str) -> QueryRequest {
    let req = QueryRequest::new(q.clone(), Arc::clone(left)).tenant(tenant);
    if q.is_binary() {
        req.with_right(Arc::clone(right))
    } else {
        req
    }
}

/// Property 1, generated: every sight of every case — first (the tables
/// whole, direct), second (routed over the cores, direct), warm (direct,
/// no route) and pinned (the arm and shard count named) —
/// answers like the baseline, over every family, generated and adversarial
/// tables, coded and plain keys and full-range ints, or is refused as the
/// request check refuses it, identically on every sight. A unary query's
/// request carries a one-column right table on every other sight, which
/// the session must ignore (property 1c). `common::check`
/// holds each response to the arm and layout lifecycle, the plan span's
/// cache verdict, a complete span tree and a registry that reconciles with
/// the session's stats.
#[test]
fn every_sight_answers_like_the_baseline() {
    common::for_each_case("serving_contract", common::Gate::Serve, &[common::DRAWN], 0, |_, _| {});
}

/// Property 1: four tenant threads, started together, each sending every
/// query variant — each response must equal the sequential baseline bit
/// for bit.
#[test]
fn concurrent_tenants_get_bit_identical_results() {
    let cluster = Cluster::default();
    let (left, right) = fixtures(0x5EED);
    let queries = common::all_seven(400_000);

    // Sequential ground truth, one query at a time, no serving plane.
    let baselines: Vec<QueryOutput> = queries
        .iter()
        .map(|q| {
            let r = q.is_binary().then_some(&*right);
            cluster.run_baseline(q, &left, r).output
        })
        .collect();

    let session = Session::new(cluster, SessionConfig::default());
    let tenants = ["alpha", "beta", "gamma", "delta"];
    let gate = Barrier::new(tenants.len());
    std::thread::scope(|scope| {
        for tenant in tenants {
            let (session, gate, queries, baselines) = (&session, &gate, &queries, &baselines);
            let (left, right) = (&left, &right);
            scope.spawn(move || {
                gate.wait();
                for (q, baseline) in queries.iter().zip(baselines) {
                    let resp = session
                        .run_blocking(request(q, left, right, tenant))
                        .expect("default capacity admits four callers");
                    assert_eq!(
                        &resp.output,
                        baseline,
                        "tenant {tenant} query {} diverged from the sequential baseline",
                        q.kind()
                    );
                    assert_eq!(resp.breakdown.tenant, tenant);
                    assert!(resp.breakdown.queue_seconds >= 0.0);
                }
            });
        }
    });
    let stats = session.stats();
    assert_eq!(stats.completed, (tenants.len() * queries.len()) as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(session.in_flight(), 0);
}

/// Property 1b: a query that keeps coming back is run whole at first
/// sight, routed at the second, and served from the held layout from the
/// third on, and every one of those layouts must keep producing
/// baseline-identical output.
#[test]
fn plan_cache_reuse_preserves_results() {
    let cluster = Cluster::default();
    let (left, right) = fixtures(0xCAFE);
    let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    let baseline = cluster.run_baseline(&q, &left, None).output;
    let session = Session::new(cluster, SessionConfig::default());
    for round in 0..8 {
        let resp = session.run_blocking(request(&q, &left, &right, "repeat")).unwrap();
        assert_eq!((&resp.output, resp.plan_cached), (&baseline, round > 1), "round {round}");
    }
    // First sight is neither a warm nor a routing sight.
    let stats = session.stats();
    assert_eq!((stats.plan_misses, stats.plan_hits), (1, 6));
}

/// Property 1b′: eviction takes the oldest key, and a held layout is
/// never routed twice. At capacity 2 the sequence A A B B A C C B evicts
/// A for C, so B's third sight finds its layout held: no route, and one
/// routing sight per query in all.
#[test]
fn an_evicted_neighbour_leaves_a_held_layout_warm() {
    let cluster = Cluster::default();
    let (left, right) = fixtures(0xB0B);
    let [a, b, c] = [
        DbQuery::Distinct { col: 0 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::TopN { order_col: 1, n: 10 },
    ];
    let baseline = cluster.run_baseline(&b, &left, None).output;
    let cfg = SessionConfig { plan_cache_capacity: 2, ..SessionConfig::default() };
    let session = Session::new(cluster, cfg);
    let ask = |q: &DbQuery| session.run_blocking(request(q, &left, &right, "t")).unwrap();
    for q in [&a, &a, &b, &b, &a, &c, &c] {
        ask(q);
    }
    let third = ask(&b);
    assert!(third.plan_cached, "B's layout is held");
    assert_eq!(session.stats().plan_misses, 3, "one route per query, none twice");
    assert!(third.trace.as_ref().expect("trace exports").root.find("route").is_none());
    assert_eq!(third.output, baseline);
}

/// Property 1c: a right table attached to a unary query is not the
/// query's input. It used to reach the planner, which indexed it with the
/// left table's column and panicked the serving thread; it must answer
/// like the baseline and be, to every cache, the request without it.
#[test]
fn a_right_table_on_a_unary_query_is_ignored_everywhere() {
    let cluster = Cluster::default();
    let (left, _) = fixtures(0x0DD);
    let mut b = TableBuilder::new("narrow", vec![("only".into(), DataType::Int)], 8);
    b.push_row(vec![Value::Int(1)]);
    let narrow = Arc::new(b.build());
    let q = DbQuery::Distinct { col: 2 };
    let baseline = cluster.run_baseline(&q, &left, None).output;
    let session = Session::new(cluster, SessionConfig::default());
    let plain = || QueryRequest::new(q.clone(), Arc::clone(&left));
    // Alternate the two spellings: were the ignored table part of the
    // session's key, each would be first sight, then a miss, of its own
    // entry.
    for round in 0..6 {
        let req = if round % 2 == 0 { plain().with_right(Arc::clone(&narrow)) } else { plain() };
        let resp = session.run_blocking(req).unwrap();
        assert_eq!((&resp.output, resp.plan_cached), (&baseline, round > 1), "round {round}");
    }
    let stats = session.stats();
    assert_eq!((stats.plan_misses, stats.plan_hits), (1, 4));
}

/// Whether a response's trace holds a `rule` span: nothing decides a
/// key's arm, so none may.
fn decided(resp: &QueryResponse) -> bool {
    resp.trace.as_ref().expect("trace exports").root.find("rule").is_some()
}

fn routed(resp: &QueryResponse) -> bool {
    resp.trace.as_ref().expect("trace exports").root.find("route").is_some()
}

/// A FILTER every row passes (column `a` is never negative): the switch
/// prunes nothing, and the family has a kernel.
fn every_row_passes() -> DbQuery {
    DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Ge, lit: 0 } }
}

/// The `rows` each `worker` span of a response's trace reports, by its
/// `shard`.
fn rows_by_shard(resp: &QueryResponse) -> BTreeMap<String, String> {
    let mut workers = Vec::new();
    resp.trace.as_ref().expect("trace exports").root.find_all("worker", &mut workers);
    let attr = |w: &SpanNode, key| w.attr(key).expect("a worker attribute").to_string();
    workers.iter().map(|w| (attr(w, "shard"), attr(w, "rows"))).collect()
}

/// Property 1d: an unpinned request never runs the switch. For every
/// family over multi-partition tables past two units' rows every unpinned
/// sight runs `direct` — the first over the tables whole (one `worker`, no
/// `route`), the second on the layout it routes (its rows over the cores:
/// several units), later ones on that held layout — with nothing pruned,
/// a pass-through switch, no `rule` span, and the baseline's answer. There
/// is one routing function: a request pinned to the held layout's unit
/// count routes every row to the shard the held layout put it on.
#[test]
fn every_unpinned_sight_of_every_family_runs_direct() {
    let cluster = Cluster::default();
    let left = Arc::new(common::gen_table(2 * ROWS_PER_UNIT + 1_000, 120, 4, 0xF125));
    let right = Arc::new(common::gen_table(ROWS_PER_UNIT, 120, 3, 0xF125 ^ 0xFACE));
    let workers = WorkerPool::global().workers();
    let session = Session::new(cluster.clone(), SessionConfig::default());
    let families = common::all_seven(400_000);
    for q in &families {
        let kind = q.kind();
        let want = cluster.run_baseline(q, &left, q.is_binary().then_some(&*right)).output;
        let units = units(q, &left, q.is_binary().then_some(&*right), workers);
        assert!(units >= 2, "{kind}: a layout of several units");
        let mut held = BTreeMap::new();
        for sight in 1..=4 {
            let resp = session.run_blocking(request(q, &left, &right, "t")).unwrap();
            let label = format!("{kind} sight {sight}");
            assert_eq!(resp.output, want, "{label}");
            assert_eq!(resp.arm.label(), "direct", "{label}");
            assert!(!decided(&resp), "{label}: nothing decides");
            let stats = resp.switch_stats;
            assert_eq!((stats.seen, stats.pruned), (stats.forwarded, 0), "{label}: pass-through");
            assert_eq!(stats.forwarded, resp.breakdown.entries_to_master, "{label}");
            assert_eq!(routed(&resp), sight == 2, "{label}: routed once, at second sight");
            let shards = resp.breakdown.shards;
            if sight == 1 {
                let mut workers = Vec::new();
                resp.trace.as_ref().expect("trace exports").root.find_all("worker", &mut workers);
                assert_eq!((shards, workers.len()), (1, 1), "{label}: the tables whole");
            } else {
                assert_eq!(shards as usize, units, "{label}: the rows over the cores");
            }
            held = rows_by_shard(&resp);
        }
        let pinned = session.run_blocking(request(q, &left, &right, "t").shards(units)).unwrap();
        assert_eq!(pinned.output, want, "{kind} pinned");
        assert_eq!(rows_by_shard(&pinned), held, "{kind}: the pin routes as the held layout");
    }
    let snap = session.registry().snapshot();
    assert_eq!(snap.counters["serve.direct.requests"], 4 * families.len() as u64);
    let direct: Vec<_> = snap.counters.keys().filter(|n| n.starts_with("serve.direct.")).collect();
    assert_eq!(direct, ["serve.direct.requests"], "no counter of keys decided direct");
}

/// Property 1e: a request asks for the switch by pinning it, and the pin
/// is that request's alone. Once a key's second sight has routed its
/// layout, a path pin, or a backend pin (which names a pruning engine),
/// runs pruned on that held layout — the same shard count, no re-route,
/// the switch seeing every row — and the next unpinned sight runs direct
/// on the same layout again (its rows over the cores: several units). A
/// shard pin is a layout of its own, routed per request and never held,
/// run pruned, or direct beside a direct path pin; the key's held layout
/// stays as it was. Over a FILTER every row passes (a kernel, and
/// nothing pruned), a self-join (no kernel: the interpreter) and a
/// DISTINCT the switch prunes well, every sight answers like the baseline.
#[test]
fn a_pin_runs_pruned_on_the_held_layout_and_the_next_unpinned_sight_runs_it_direct() {
    let cluster = Cluster::default();
    let t = Arc::new(common::gen_table(2 * ROWS_PER_UNIT, 40, 4, 0x5E1F));
    let join = DbQuery::Join { left_key: 0, right_key: 0 };
    for q in [every_row_passes(), join, DbQuery::Distinct { col: 2 }] {
        let kind = q.kind();
        let want = cluster.run_baseline(&q, &t, q.is_binary().then_some(&*t)).output;
        let session = Session::new(cluster.clone(), SessionConfig::default());
        let ask = |req: QueryRequest| {
            let resp = session.run_blocking(req).unwrap();
            assert_eq!(resp.output, want, "{kind}");
            assert!(!decided(&resp), "{kind}: nothing decides");
            resp
        };
        let unpinned = || request(&q, &t, &t, "t");
        ask(unpinned());
        let second = ask(unpinned());
        let shards = second.breakdown.shards;
        assert!(routed(&second) && shards >= 2, "{kind}: second sight routes, {shards} shards");
        let interp = common::INTERPRETER_ONLY.contains(&kind);
        let engine = |arm: &str| if interp { "pooled/interp".to_string() } else { arm.into() };
        for (pinned, arm) in [
            (unpinned().path(ExecPath::BarrierPooled), engine("pooled/compiled")),
            (unpinned().backend(ExecBackend::Interpreted), "pooled/interp".to_string()),
            (unpinned().backend(ExecBackend::Compiled), engine("pooled/compiled")),
        ] {
            let resp = ask(pinned);
            assert_eq!(resp.arm.label(), arm, "{kind}");
            assert_eq!((resp.breakdown.shards, routed(&resp)), (shards, false), "{kind}: held");
            let rows = t.rows() as u64 * if q.is_binary() { 2 } else { 1 };
            let seen = resp.switch_stats.seen;
            assert!(seen >= rows, "{kind}: the switch saw every row ({seen} of {rows})");
            let next = ask(unpinned());
            assert_eq!(next.arm.label(), "direct", "{kind}: the pin was that request's");
            assert_eq!((next.breakdown.shards, routed(&next)), (shards, false), "{kind}: held");
            assert!(next.plan_cached, "{kind}");
        }
        let by_shards = || unpinned().shards(3);
        for sight in 1..=2 {
            let resp = ask(by_shards());
            assert_eq!(resp.arm.label(), engine("pooled/compiled"), "{kind}: shard pin {sight}");
            assert_eq!((resp.breakdown.shards, routed(&resp)), (3, true), "{kind}: its own");
        }
        let direct = ask(by_shards().path(ExecPath::Direct));
        assert_eq!(direct.arm.label(), "direct", "{kind}");
        assert_eq!((direct.breakdown.shards, routed(&direct)), (3, true), "{kind}: its own");
        let next = ask(unpinned());
        assert_eq!((next.breakdown.shards, routed(&next)), (shards, false), "{kind}: held");
        assert_eq!(session.stats().plan_misses, 1, "{kind}: one routing sight");
    }
}

/// Property 1f: pins at first sight run what they name, over the tables
/// whole, and leave the key where an unpinned first sight would: seen. Its
/// next unpinned sight is its second, which routes and runs direct.
#[test]
fn pins_at_first_sight_run_what_they_name_and_the_key_routes_at_its_second() {
    let cluster = Cluster::default();
    let t = Arc::new(common::gen_table(4_000, 40, 3, 0xD12EC7));
    let q = every_row_passes();
    let want = cluster.run_baseline(&q, &t, None).output;
    let unpinned = || QueryRequest::new(q.clone(), Arc::clone(&t));
    for (pinned, arm) in [
        (unpinned().backend(ExecBackend::Interpreted), "pooled/interp"),
        (unpinned().path(ExecPath::BarrierPooled), "pooled/compiled"),
        (unpinned().path(ExecPath::Direct), "direct"),
    ] {
        let session = Session::new(cluster.clone(), SessionConfig::default());
        let first = session.run_blocking(pinned).unwrap();
        assert_eq!((first.arm.label(), decided(&first)), (arm, false), "{arm}");
        assert_eq!((first.breakdown.shards, routed(&first)), (1, false), "{arm}: whole");
        let seen = if arm == "direct" { first.breakdown.entries_to_master } else { 4_000 };
        assert_eq!(first.switch_stats.seen, seen, "{arm}");
        assert_eq!(first.output, want, "{arm}");
        let second = session.run_blocking(unpinned()).unwrap();
        assert_eq!(second.arm.label(), "direct", "{arm}");
        assert!(routed(&second) && second.output == want, "{arm}: the key's second sight");
        assert!(!decided(&second), "{arm}");
    }
}

/// Property 2: at the in-flight bound the session refuses with the typed
/// error, immediately, counts each refusal, and serves what it admitted.
/// Counted, not timed: a bound of zero refuses every call, and eight
/// callers started together against a bound of one each either answer or
/// are refused, however they interleave.
#[test]
fn overload_is_a_typed_rejection_not_memory_growth() {
    let (left, right) = fixtures(0x0F10);
    let q = DbQuery::Distinct { col: 0 };
    let want = Cluster::default().run_baseline(&q, &left, None).output;
    let bounded = |capacity| {
        let cfg = SessionConfig { max_in_flight: capacity, ..SessionConfig::default() };
        Session::new(Cluster::default(), cfg)
    };

    let closed = bounded(0);
    for i in 0..8 {
        match closed.run_blocking(request(&q, &left, &right, &format!("t{i}"))) {
            Err(Error::Overloaded { in_flight: 0, capacity: 0 }) => {}
            other => panic!("a bound of zero must refuse, got {other:?}"),
        }
    }
    assert_eq!(closed.stats().rejected, 8);
    assert_eq!((closed.stats().completed, closed.in_flight()), (0, 0));

    let session = bounded(1);
    let gate = Barrier::new(8);
    std::thread::scope(|scope| {
        for i in 0..8 {
            let (session, gate, want) = (&session, &gate, &want);
            let req = request(&q, &left, &right, &format!("t{i}"));
            scope.spawn(move || {
                gate.wait();
                match session.run_blocking(req) {
                    Ok(resp) => assert_eq!(&resp.output, want),
                    Err(Error::Overloaded { capacity: 1, .. }) => {}
                    Err(e) => panic!("overload must be Error::Overloaded, got {e}"),
                }
            });
        }
    });
    let stats = session.stats();
    assert_eq!(stats.completed + stats.rejected, 8);
    assert!(stats.completed >= 1, "the first caller through the gate is admitted");
    assert_eq!(session.in_flight(), 0);
}

/// Send `req` and hand back its typed execution error, checking that the
/// refusal left nothing in flight.
fn refused(session: &Session, req: QueryRequest) -> cheetah_core::Error {
    let q = req.query().clone();
    let resp = session.run_blocking(req);
    assert_eq!(session.in_flight(), 0, "{q:?}: a refused request leaked its slot");
    match resp {
        Err(Error::Exec(e)) => e,
        other => panic!("{q:?}: expected a typed execution error, got {other:?}"),
    }
}

/// A well-formed request pinned to eight shards — one job on every thread
/// of the process-wide pool — still answers like the baseline.
fn assert_pool_intact(session: &Session, t: &Arc<Table>) {
    let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    let resp = session.run_blocking(QueryRequest::new(q.clone(), Arc::clone(t)).shards(8));
    let resp = resp.expect("a well-formed request after malformed ones");
    assert_eq!(resp.output, Cluster::default().run_baseline(&q, t, None).output);
    assert_eq!(resp.breakdown.shards, 8);
    assert_eq!(session.in_flight(), 0);
}

/// Property 2b: a request that names a column its table does not have, or
/// one of the wrong type, used to index out of bounds on a pool thread —
/// the thread gone for the process, the caller panicked, the slot leaked.
/// It is refused before anything runs, as a typed `BadColumn`.
#[test]
fn a_column_the_table_cannot_answer_for_is_a_typed_refusal() {
    let (t, _) = fixtures(0xBAD); // (Str, Int, Int)
    let session = Session::with_defaults();
    let cmp = DbPredicate::CmpInt { col: 0, op: IntCmp::Gt, lit: 1 };
    let like = DbPredicate::Like { col: 1, pattern: LikePattern::parse("k%") };
    for (q, col) in [
        (DbQuery::Distinct { col: 9 }, 9),
        (DbQuery::TopN { order_col: 0, n: 5 }, 0),
        (DbQuery::GroupByMax { key_col: 1, val_col: 0 }, 0),
        (DbQuery::HavingSum { key_col: 1, val_col: 0, threshold: 10 }, 0),
        (DbQuery::Skyline { cols: vec![0, 1] }, 0),
        (DbQuery::FilterCount { pred: cmp }, 0),
        (DbQuery::FilterCount { pred: like }, 1),
    ] {
        let e = refused(&session, QueryRequest::new(q.clone(), Arc::clone(&t)));
        assert_eq!(e, BadColumn { stream: 0, col }, "{q:?}");
        // The same session answers the next well-formed request.
        assert_pool_intact(&session, &t);
    }
    assert_eq!(session.stats().rejected, 0, "refused by the schema, not by admission");
}

/// Property 2c: a query with nothing to evaluate — no skyline dimension,
/// no atom anywhere in its predicate — or with more atoms than the filter
/// program enumerates used to trip a configuration assert inside `spec()`
/// on a pool thread. The direct arm never calls `spec()`, so the same
/// request would have *answered* there: two arms disagreeing on whether a
/// request is valid. All of them are refused before any arm runs, typed,
/// identically on the pruned pin, the direct pin and unpinned.
#[test]
fn a_query_with_nothing_to_evaluate_is_refused_identically_on_every_arm() {
    let (t, _) = fixtures(0xB00);
    let session = Session::with_defaults();
    let cmp = |lit| DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit };
    let filter = |pred| DbQuery::FilterCount { pred };
    for (q, got, max) in [
        (DbQuery::Skyline { cols: vec![] }, 0, 4),
        (filter(DbPredicate::And(vec![])), 0, 16),
        (filter(DbPredicate::Or(vec![])), 0, 16),
        (filter(DbPredicate::And(vec![DbPredicate::Or(vec![]), DbPredicate::And(vec![])])), 0, 16),
        (filter(DbPredicate::Or((0..17).map(cmp).collect())), 17, 16),
    ] {
        let want = BadArity { family: q.kind(), got, max };
        let req = || QueryRequest::new(q.clone(), Arc::clone(&t));
        for (arm, req) in [
            ("pruned", req().path(ExecPath::BarrierPooled)),
            ("direct", req().path(ExecPath::Direct)),
            ("unpinned", req()),
        ] {
            assert_eq!(refused(&session, req), want, "{q:?} on the {arm} arm");
        }
        // The same session answers the next well-formed request.
        assert_pool_intact(&session, &t);
    }
    // The bounds have an inside: sixteen atoms, and an empty conjunct
    // beside a real atom (vacuously true on every arm), both answer.
    for pred in [
        DbPredicate::Or((0..16).map(|i| cmp(9_000 + i)).collect()),
        DbPredicate::And(vec![DbPredicate::And(vec![]), cmp(5_000)]),
    ] {
        let q = filter(pred);
        let want = Cluster::default().run_baseline(&q, &t, None).output;
        for path in [ExecPath::BarrierPooled, ExecPath::Direct] {
            let req = QueryRequest::new(q.clone(), Arc::clone(&t)).path(path);
            assert_eq!(session.run_blocking(req).unwrap().output, want, "{q:?}");
        }
    }
}

/// The `thread` of each `worker` span in a request's trace.
fn worker_threads(tree: &TraceTree) -> Vec<String> {
    let mut workers = Vec::new();
    tree.root.find_all("worker", &mut workers);
    workers.iter().map(|w| w.attr("thread").unwrap_or("unnamed").to_string()).collect()
}

/// Property 2d: a shard job that panics anyway fails its own request and
/// nothing else. No request can reach a panic any more, so the operator
/// misconfigures the switch instead: a cluster tuned to zero stored
/// skyline points trips the program builder's assert in the shard job — on
/// a pruned arm only. Sixteen one-shard requests pinned to it each come
/// back as `WorkerPanicked`, to that request only, each job having
/// unwound on the thread that served its request, its caller's, which
/// then serves a compiled, pruned request with its kernel cache and scratch intact.
/// Unpinned, the key runs direct and answers at every sight — the first
/// over the tables whole, the second on the layout it routes, the third on
/// that held layout — and a pruned pin on the held layout panics, to that
/// request alone, and leaves the layout held: the next unpinned sight
/// answers on it. Every other family is served throughout — a `.shards(8)`
/// GROUP BY, one job on every pool thread, answers like the baseline after
/// each panic — and so is the panicking family on the direct arm, eight
/// shards pinned.
#[test]
fn a_panicking_shard_job_fails_its_own_request_and_nothing_else() {
    let (t, _) = fixtures(0xB00);
    let tuning = CheetahTuning { skyline_points: 0, ..CheetahTuning::default() };
    let cluster = Cluster { tuning, ..Cluster::default() };
    let session = Session::new(cluster, SessionConfig::default());
    let q = DbQuery::Skyline { cols: vec![1, 2] };
    let want = Cluster::default().run_baseline(&q, &t, None).output;
    let unpinned = || QueryRequest::new(q.clone(), Arc::clone(&t));
    for _ in 0..16 {
        let e = refused(&session, unpinned().path(ExecPath::BarrierPooled));
        assert_eq!(e, WorkerPanicked { shard: 0 }, "{q:?}");
    }
    let refusals = session.traces().recent();
    assert_eq!(refusals.len(), 16);
    for tree in &refusals {
        assert_eq!(worker_threads(tree), ["caller"], "the inline job boundary caught it");
    }
    let groupby = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    for sight in ["installs its kernel", "reuses it"] {
        let req = QueryRequest::new(groupby.clone(), Arc::clone(&t)).shards(1);
        let resp = session.run_blocking(req.path(ExecPath::BarrierPooled)).unwrap();
        assert_eq!(resp.output, Cluster::default().run_baseline(&groupby, &t, None).output);
        assert_eq!(resp.breakdown.backend, ExecBackend::Compiled, "{sight}");
        assert_eq!(worker_threads(resp.trace.as_ref().unwrap()), ["caller"], "{sight}");
    }
    assert_pool_intact(&session, &t);

    for sight in 1..=3 {
        let resp = session.run_blocking(unpinned()).unwrap();
        assert_eq!((resp.arm.label(), resp.output == want), ("direct", true), "{sight}");
        assert_eq!(routed(&resp), sight == 2, "sight {sight}: routed once, then held");
    }
    match session.run_blocking(unpinned().path(ExecPath::BarrierPooled)) {
        Err(Error::Exec(WorkerPanicked { .. })) => {}
        other => panic!("a pruned pin: expected WorkerPanicked, got {other:?}"),
    }
    assert_eq!(session.in_flight(), 0, "the pruned pin leaked its slot");
    let tree = session.traces().last().expect("a failed request exports its tree");
    let choose = tree.root.find("choose").expect("lifecycle span");
    assert_eq!(choose.attr("arm"), Some("pooled/compiled"), "the pin runs pruned");
    assert!(tree.root.find("route").is_none(), "…on the held layout");
    assert_pool_intact(&session, &t);
    let after = session.run_blocking(unpinned()).unwrap();
    assert_eq!((after.output == want, routed(&after)), (true, false), "the layout is held");
    // Eight shards of the panicking family itself: a layout of its own,
    // pinned direct because any pruned arm of this cluster panics.
    let eight = session.run_blocking(unpinned().shards(8).path(ExecPath::Direct)).unwrap();
    assert_eq!((eight.output == want, eight.breakdown.shards), (true, 8));
    assert_eq!(session.in_flight(), 0);
}
