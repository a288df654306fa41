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
//! sight runs the tables whole, second sight plans and routes, later ones
//! run the held layout under the plan it carries — every layout answers
//! alike, and no layout outlives its plan) and the right table a unary
//! query ignores, and the arm lifecycle (first sight runs direct, every
//! family; the second runs pruned on the layout the key keeps, and decides
//! direct or pruned; pins run what they name and decide nothing, except
//! that a pruned pin at the deciding sight measures it). Under property 2
//! sits containment: a request its tables cannot answer or that gives the
//! switch nothing to evaluate is refused before any arm runs, identically
//! on each; a shard job that panics anyway fails alone and typed — no
//! thread lost, no slot leaked.

mod common;

use cheetah_core::Error::{BadArity, BadColumn, WorkerPanicked};
use cheetah_db::{
    CheetahTuning, Cluster, DataType, DbPredicate, DbQuery, ExecBackend, ExecPath, IntCmp,
    LikePattern, QueryOutput, Table, TableBuilder, Value,
};
use cheetah_serve::{Error, QueryRequest, QueryResponse, Session, SessionConfig};
use cheetah_telemetry::TraceTree;
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
/// whole, direct), deciding (fitted, routed, pruned, measured), warm (the
/// verdict's arm, no route) and pinned (the arm and shard count named) —
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
/// sight, planned at the second, and served from the held layout — under
/// the plan it carries — from the third on, and every one of those layouts
/// must keep producing baseline-identical output.
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
    // First sight consults neither the planner nor its cache.
    let stats = session.stats();
    assert_eq!((stats.plan_misses, stats.plan_hits), (1, 6));
}

/// Property 1b′: a layout cannot outlive its plan. Layouts and plans used
/// to live in two caches that evicted differently (insertion order vs
/// least recently looked up), so at capacity 2 the sequence A A B B A C C B
/// left B's routed layout held and B's plan evicted: B's third sight
/// missed, re-fitted blind and re-routed every column it reads. Held on
/// one entry, they leave together or not at all.
#[test]
fn a_held_layout_keeps_the_plan_it_was_routed_under() {
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
    assert!(third.plan_cached, "B's layout is held, so the plan it was routed under is");
    assert_eq!(session.stats().plan_misses, 3, "one fit per query, none twice");
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

/// The arm a response reports, and the verdict its `rule` span traced
/// (`None` except at a key's deciding sight: a decision is taken once).
fn arm_and_verdict(resp: &QueryResponse) -> (String, Option<String>) {
    let root = &resp.trace.as_ref().expect("trace exports").root;
    let rule = root.find("respond").expect("lifecycle span").find("rule");
    (resp.arm.label(), rule.and_then(|r| r.attr("rule.direct")).map(str::to_string))
}

fn routed(resp: &QueryResponse) -> bool {
    resp.trace.as_ref().expect("trace exports").root.find("route").is_some()
}

/// A FILTER every row passes (column `a` is never negative): the switch
/// prunes nothing, and the family has a kernel.
fn every_row_passes() -> DbQuery {
    DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Ge, lit: 0 } }
}

/// Property 1d: a key seen once pays for a scan, not for a switch program.
/// For every family over a multi-partition table the unpinned first sight
/// runs `direct` over the tables whole — one `worker`, no `route`, nothing
/// pruned, no verdict — and answers like the baseline. The second sight
/// routes and runs pruned (`pooled/compiled`; `pooled/interp` for the
/// families with no kernel) and carries the verdict; the third runs the
/// verdict and decides nothing.
#[test]
fn every_family_runs_direct_at_first_sight_and_decides_at_the_second() {
    let cluster = Cluster::default();
    let (left, right) = fixtures(0xF125);
    let session = Session::new(cluster.clone(), SessionConfig::default());
    for q in common::all_seven(400_000) {
        let kind = q.kind();
        let want = cluster.run_baseline(&q, &left, q.is_binary().then_some(&*right)).output;
        let ask = || session.run_blocking(request(&q, &left, &right, "t")).unwrap();

        let first = ask();
        let mut workers = Vec::new();
        first.trace.as_ref().expect("trace exports").root.find_all("worker", &mut workers);
        assert_eq!((first.arm.label().as_str(), workers.len()), ("direct", 1), "{kind}");
        assert!(!routed(&first), "{kind}: first sight routes nothing");
        assert_eq!(first.switch_stats.pruned, 0, "{kind}: no switch ran");
        assert_eq!(arm_and_verdict(&first).1, None, "{kind}: first sight decides nothing");
        assert_eq!(first.output, want, "{kind}");

        let second = ask();
        let interp = common::INTERPRETER_ONLY.contains(&kind);
        let pruned = if interp { "pooled/interp" } else { "pooled/compiled" };
        let (arm, verdict) = arm_and_verdict(&second);
        assert_eq!(arm, pruned, "{kind}: the deciding sight runs pruned");
        assert!(routed(&second) && verdict.is_some(), "{kind}: …on its layout, and decides");
        assert_eq!(second.output, want, "{kind}");

        let third = ask();
        let decided = if verdict.as_deref() == Some("true") { "direct" } else { pruned };
        assert_eq!(arm_and_verdict(&third), (decided.to_string(), None), "{kind}");
        assert!(!routed(&third), "{kind}");
        assert_eq!(third.output, want, "{kind}");
    }
}

/// Property 1e: win or get out of the way. A FILTER every row passes
/// prunes nothing, though its family has a kernel, so its second sight — a
/// pruned run on the routed layout, then a direct one — decides the key
/// direct, and from the third sight on the key runs with no switch at
/// all, as it did at the first. The verdict compares the two runs'
/// measured work, so it rests on a margin: pruned 1.24–1.92 ms against
/// direct 0.08–0.25 ms (5.2–17.7×) over eight runs of the whole file in
/// the debug profile, and 23–28× over six in release. Every sight, on
/// either arm and either layout, answers like the baseline.
#[test]
fn a_key_whose_second_sight_pruned_nothing_runs_direct_from_the_third() {
    let cluster = Cluster::default();
    let t = Arc::new(common::gen_table(4_000, 40, 3, 0xD12EC7));
    let q = every_row_passes();
    let want = cluster.run_baseline(&q, &t, None).output;
    let session = Session::new(cluster, SessionConfig::default());
    let ask = |req: QueryRequest| session.run_blocking(req).unwrap();
    let unpinned = || QueryRequest::new(q.clone(), Arc::clone(&t));
    for sight in 1..=4 {
        let resp = ask(unpinned());
        assert_eq!(resp.output, want, "sight {sight}");
        let (arm, verdict) = arm_and_verdict(&resp);
        match sight {
            2 => {
                assert_eq!((arm.as_str(), verdict.as_deref()), ("pooled/compiled", Some("true")));
                assert_eq!(resp.switch_stats.pruned, 0, "fixture: nothing prunes");
                assert_eq!(resp.breakdown.entries_to_master, 4_000);
            }
            _ => {
                assert_eq!((arm.as_str(), verdict), ("direct", None), "sight {sight}");
                // A pass-through switch: the partials' items, all forwarded.
                let stats = resp.switch_stats;
                assert_eq!((stats.seen, stats.pruned), (stats.forwarded, 0), "sight {sight}");
                assert_eq!(stats.forwarded, resp.breakdown.entries_to_master, "sight {sight}");
            }
        }
    }
    // A path pin overrides the key's decision, for that request only…
    let pruned = ask(unpinned().path(ExecPath::BarrierPooled));
    assert_eq!(pruned.arm.label(), "pooled/compiled");
    assert_eq!(pruned.output, want);
    assert_eq!(pruned.switch_stats.seen, 4_000, "the switch saw every row");
    // …and so does a backend pin, which names a pruning engine.
    let interp = ask(unpinned().backend(ExecBackend::Interpreted));
    assert_eq!((interp.arm.label().as_str(), interp.output == want), ("pooled/interp", true));
    assert_eq!(ask(unpinned()).arm.label(), "direct");
    let snap = session.registry().snapshot();
    assert_eq!(snap.counters["serve.direct.keys"], 1);
    assert_eq!(snap.counters["serve.direct.requests"], 4);
}

/// Property 1e, with no kernel: JOIN's deciding sight runs the
/// interpreter (`pooled/interp`), and a self-join prunes nothing — every
/// key finds its own rows, so every row of both streams reaches the
/// master — so that key decides direct as well and runs direct from the
/// third sight on. The verdict compares measured work, far from
/// break-even here: 20 000 rows over 40 keys read pruned 29–43 ms against
/// direct 0.9–1.2 ms, five runs in this test's debug profile.
#[test]
fn a_key_with_no_kernel_that_prunes_nothing_decides_direct_as_well() {
    let cluster = Cluster::default();
    let t = Arc::new(common::gen_table(20_000, 40, 4, 0x5E1F));
    let q = DbQuery::Join { left_key: 0, right_key: 0 };
    let want = cluster.run_baseline(&q, &t, Some(&t)).output;
    let session = Session::new(cluster, SessionConfig::default());
    let unpinned = || QueryRequest::new(q.clone(), Arc::clone(&t)).with_right(Arc::clone(&t));
    for sight in 1..=3 {
        let resp = session.run_blocking(unpinned()).unwrap();
        assert_eq!(resp.output, want, "sight {sight}");
        let (arm, verdict) = arm_and_verdict(&resp);
        if sight == 2 {
            assert_eq!((arm.as_str(), verdict.as_deref()), ("pooled/interp", Some("true")));
            let rows = 2 * t.rows() as u64;
            assert_eq!(resp.breakdown.entries_to_master, rows, "fixture: every row survives");
        } else {
            assert_eq!((arm.as_str(), verdict), ("direct", None), "sight {sight}");
        }
    }
    assert_eq!(session.registry().snapshot().counters["serve.direct.keys"], 1);
}

/// Property 1f: …and a key the switch wins on stays pruned. A DISTINCT
/// over an int column of 500 values in 200 000 rows: the switch lets
/// about 500 survivors per shard through, while the direct arm hashes
/// every row, so its deciding second sight measures more work direct
/// than pruned, and every later sight runs pooled + compiled. The margin
/// is this test's debug profile's: direct did 1.7–3.3× the pruned run's
/// work over sixteen runs of the whole file. In release it is 0.6–1.6×
/// over eight, so there this key can decide either way. A direct pin is
/// honoured at the deciding sight — but measures no pruned run, so it
/// decides nothing and the key stays pruned.
#[test]
fn a_key_the_switch_prunes_well_stays_pruned_and_a_direct_pin_decides_nothing() {
    let cluster = Cluster::default();
    let t = Arc::new(common::gen_table(200_000, 10, 4, 0x9127));
    let q = DbQuery::Distinct { col: 2 };
    let want = cluster.run_baseline(&q, &t, None).output;
    let session = Session::new(cluster.clone(), SessionConfig::default());
    let unpinned = || QueryRequest::new(q.clone(), Arc::clone(&t));
    for sight in 1..=4 {
        let resp = session.run_blocking(unpinned()).unwrap();
        assert_eq!(resp.output, want, "sight {sight}");
        let (arm, verdict) = arm_and_verdict(&resp);
        let want_arm = if sight == 1 { "direct" } else { "pooled/compiled" };
        assert_eq!(arm, want_arm, "sight {sight}");
        assert_eq!(verdict.as_deref(), (sight == 2).then_some("false"), "sight {sight}");
    }
    assert_eq!(session.registry().snapshot().counters["serve.direct.keys"], 0);

    // A fresh session, the deciding sight pinned direct: it routes and runs
    // direct on the routed layout; the key is left undecided-for-direct, so
    // unpinned sights of it run pruned.
    let session = Session::new(cluster, SessionConfig::default());
    let first = session.run_blocking(unpinned()).unwrap();
    assert_eq!((first.arm.label().as_str(), first.breakdown.shards), ("direct", 1));
    let pinned = unpinned().path(ExecPath::Direct);
    let second = session.run_blocking(pinned.clone()).unwrap();
    assert_eq!((second.arm.label().as_str(), second.output == want), ("direct", true));
    assert!(routed(&second), "the deciding sight routes, pinned or not");
    assert_eq!(arm_and_verdict(&second).1, None, "a direct run measures nothing for the rule");
    let third = session.run_blocking(unpinned()).unwrap();
    assert_eq!(arm_and_verdict(&third), ("pooled/compiled".to_string(), None));
    assert_eq!(third.output, want);
    // The pin keeps working on the routed layout second sight built.
    let fourth = session.run_blocking(pinned).unwrap();
    assert_eq!((fourth.arm.label().as_str(), fourth.output == want), ("direct", true));
    assert_eq!(fourth.breakdown.shards, second.breakdown.shards);
    assert_eq!(session.registry().snapshot().counters["serve.direct.keys"], 0);
}

/// Property 1g: pins at first sight run what they name. A pruned pin — a
/// backend, or the barrier path — runs the tables whole, pruned, and
/// measures nothing the lifecycle needs: the key stays undecided, and its
/// next unpinned sight routes and decides — direct, on 1e's fixture
/// (8.5–80× over 24 such sights in the debug profile, ≥ 13× in release).
/// A direct pin runs what an unpinned first sight runs anyway, and leaves
/// the key the same.
#[test]
fn pins_at_first_sight_run_what_they_name_and_decide_nothing() {
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
        assert_eq!(arm_and_verdict(&first), (arm.to_string(), None), "{arm}");
        assert_eq!((first.breakdown.shards, routed(&first)), (1, false), "{arm}: whole");
        let seen = if arm == "direct" { first.breakdown.entries_to_master } else { 4_000 };
        assert_eq!(first.switch_stats.seen, seen, "{arm}");
        assert_eq!(first.output, want, "{arm}");
        // Undecided: the next unpinned sight is the key's second.
        let second = session.run_blocking(unpinned()).unwrap();
        let verdict = arm_and_verdict(&second);
        assert_eq!(verdict, ("pooled/compiled".to_string(), Some("true".to_string())), "{arm}");
        assert!(routed(&second) && second.output == want, "{arm}");
        assert_eq!(session.run_blocking(unpinned()).unwrap().arm.label(), "direct", "{arm}");
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
/// Unpinned, the key's first sight runs direct and answers; its deciding
/// second sight routes, runs pruned and panics, to that request alone, and
/// decides nothing: the key stays undecided, its next sight pruned on the
/// held layout. Every other family is served throughout — a `.shards(8)`
/// GROUP BY, one job on every pool thread, answers like the baseline after
/// each panic — and so is the panicking family on the direct arm,
/// unpinned-key or eight shards.
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

    assert_eq!(session.run_blocking(unpinned()).unwrap().output, want, "first sight: direct");
    for sight in ["deciding", "undecided"] {
        match session.run_blocking(unpinned()) {
            Err(Error::Exec(WorkerPanicked { .. })) => {}
            other => panic!("{sight} sight: expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(session.in_flight(), 0, "{sight} sight leaked its slot");
        let tree = session.traces().last().expect("a failed request exports its tree");
        let choose = tree.root.find("choose").expect("lifecycle span");
        assert_eq!(choose.attr("arm"), Some("pooled/compiled"), "{sight} sight runs pruned");
        let routes = tree.root.find("route").is_some();
        assert_eq!(routes, sight == "deciding", "{sight} sight: routed once, then held");
    }
    assert_eq!(session.registry().snapshot().counters["serve.direct.keys"], 0);
    assert_pool_intact(&session, &t);
    let direct = unpinned().path(ExecPath::Direct);
    assert_eq!(session.run_blocking(direct).unwrap().output, want);
    // Eight shards of the panicking family itself: a layout of its own,
    // pinned direct because any pruned arm of this cluster panics.
    let eight = session.run_blocking(unpinned().shards(8).path(ExecPath::Direct)).unwrap();
    assert_eq!((eight.output == want, eight.breakdown.shards), (true, 8));
    assert_eq!(session.in_flight(), 0);
}
