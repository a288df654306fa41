//! Serving-plane contract gate: the `Session` front door must change
//! *when* answers arrive — never *what* they say — and must degrade by
//! typed rejection, not by collapse.
//!
//! Three properties, mirroring the tentpole's promises:
//!
//! 1. **Concurrent bit-identity** — N tenants submitting a mixed bag of
//!    query variants concurrently get results bit-identical to
//!    sequential single-query baseline runs.
//! 2. **No starvation** — a 1-request tenant completes while a flooding
//!    tenant keeps the queue saturated.
//! 3. **Typed overload** — past the in-flight bound, `submit` returns
//!    `Error::Overloaded` immediately instead of growing memory.
//!
//! Under property 1 sit the layout lifecycle of a repeated query (first
//! sight runs the tables whole, second sight plans and routes, later ones
//! run the held layout under the plan it carries — every layout answers
//! alike, and no layout outlives its plan) and the right table a unary
//! query ignores, and the arm lifecycle (first sight measures and
//! decides direct or pruned; pins override either way). Under property 3
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
use std::sync::Arc;

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

/// Property 1: four tenants, every query variant, submitted all at once
/// — each response must equal the sequential baseline bit for bit.
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
    // Fan everything out before redeeming a single ticket, so the
    // session genuinely holds concurrent work from every tenant.
    let mut tickets = Vec::new();
    for (t_idx, tenant) in tenants.iter().enumerate() {
        for (q_idx, q) in queries.iter().enumerate() {
            let ticket = session
                .submit(request(q, &left, &right, tenant))
                .expect("default capacity admits this burst");
            tickets.push((t_idx, q_idx, ticket));
        }
    }
    for (t_idx, q_idx, ticket) in tickets {
        let resp = ticket.wait().expect("admitted requests complete");
        assert_eq!(
            resp.output,
            baselines[q_idx],
            "tenant {} query {} diverged from the sequential baseline",
            tenants[t_idx],
            queries[q_idx].kind()
        );
        assert_eq!(resp.breakdown.tenant, tenants[t_idx]);
        assert!(resp.breakdown.queue_seconds >= 0.0);
    }
    let stats = session.stats();
    assert_eq!(stats.completed, (tenants.len() * queries.len()) as u64);
    assert_eq!(stats.rejected, 0);
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
        assert_eq!(resp.output, baseline, "round {round}");
        assert_eq!(resp.plan_cached, round > 1, "round {round}");
    }
    // First sight consults neither the planner nor its cache.
    let stats = session.stats();
    assert_eq!(stats.plan_misses, 1);
    assert_eq!(stats.plan_hits, 6);
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
        assert_eq!(resp.output, baseline, "round {round}");
        assert_eq!(resp.plan_cached, round > 1, "round {round}");
    }
    let stats = session.stats();
    assert_eq!((stats.plan_misses, stats.plan_hits), (1, 4));
    // The queued path too: a driver thread must survive the request.
    let ticket = session.submit(plain().with_right(narrow)).unwrap();
    assert_eq!(ticket.wait().unwrap().output, baseline);
}

/// The arm a response reports, and the `rule.*` verdict its first sight
/// traced (`None` from the second sight on: a key's decision is taken once).
fn arm_and_verdict(resp: &QueryResponse) -> (String, Option<String>) {
    let respond = resp.trace.as_ref().expect("trace exports").root.find("respond").unwrap();
    (resp.arm.label(), respond.attr("rule.direct").map(str::to_string))
}

/// Property 1d: win or get out of the way. A TOP N over a table a tenth
/// the switch's matrix rows prunes nothing, so its first sight — the
/// pruned, measuring run — decides the key direct (every row survived and
/// encode + prune took time: no timer margin to be flaky about), and from
/// the second sight on the key runs with no switch at all. Every sight,
/// on either arm and either layout, answers like the baseline.
#[test]
fn a_key_whose_first_sight_pruned_nothing_runs_direct_from_the_second() {
    let cluster = Cluster::default();
    let t = Arc::new(common::gen_table(400, 40, 3, 0xD12EC7));
    let q = DbQuery::TopN { order_col: 1, n: 25 };
    let want = cluster.run_baseline(&q, &t, None).output;
    let session = Session::new(cluster, SessionConfig::default());
    let ask = |req: QueryRequest| session.run_blocking(req).unwrap();
    let unpinned = || QueryRequest::new(q.clone(), Arc::clone(&t));
    for sight in 1..=4 {
        let resp = ask(unpinned());
        assert_eq!(resp.output, want, "sight {sight}");
        let (arm, verdict) = arm_and_verdict(&resp);
        match sight {
            1 => {
                assert_eq!((arm.as_str(), verdict.as_deref()), ("pooled/compiled", Some("true")));
                assert_eq!(resp.switch_stats.pruned, 0, "fixture: nothing prunes");
                assert_eq!(resp.breakdown.entries_to_master, 400);
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
    assert_eq!(pruned.switch_stats.seen, 400, "the switch saw every row");
    // …and so does a backend pin, which names a pruning engine.
    let interp = ask(unpinned().backend(ExecBackend::Interpreted));
    assert_eq!((interp.arm.label().as_str(), interp.output == want), ("pooled/interp", true));
    assert_eq!(ask(unpinned()).arm.label(), "direct");
    let snap = session.registry().snapshot();
    assert_eq!(snap.counters["serve.direct.keys"], 1);
    assert_eq!(snap.counters["serve.direct.requests"], 4);
}

/// Property 1e: …and a key the switch wins on stays pruned. Ten keys over
/// 100 000 rows: first sight delivers a handful of survivors, completing
/// each costs more than encoding and judging a row did, and every later
/// sight runs pooled + compiled. A direct pin is honoured at first sight —
/// but measures no pruned run, so it decides nothing.
#[test]
fn a_key_the_switch_prunes_well_stays_pruned_and_a_direct_pin_decides_nothing() {
    let cluster = Cluster::default();
    let t = Arc::new(common::gen_table(100_000, 10, 4, 0x9127));
    let q = DbQuery::Distinct { col: 0 };
    let want = cluster.run_baseline(&q, &t, None).output;
    let session = Session::new(cluster.clone(), SessionConfig::default());
    for sight in 1..=4 {
        let resp = session.run_blocking(QueryRequest::new(q.clone(), Arc::clone(&t))).unwrap();
        assert_eq!(resp.output, want, "sight {sight}");
        let (arm, verdict) = arm_and_verdict(&resp);
        assert_eq!(arm, "pooled/compiled", "sight {sight}");
        assert_eq!(verdict.as_deref(), (sight == 1).then_some("false"), "sight {sight}");
    }
    assert_eq!(session.registry().snapshot().counters["serve.direct.keys"], 0);

    // A fresh session, first sight pinned direct: it runs direct, whole,
    // on one shard; the key is noted undecided-for-direct, so unpinned
    // sights of it run pruned.
    let session = Session::new(cluster, SessionConfig::default());
    let pinned = QueryRequest::new(q.clone(), Arc::clone(&t)).path(ExecPath::Direct);
    let first = session.run_blocking(pinned.clone()).unwrap();
    assert_eq!((first.arm.label().as_str(), first.breakdown.shards), ("direct", 1));
    assert_eq!(first.output, want);
    assert_eq!(arm_and_verdict(&first).1, None, "a direct run measures nothing for the rule");
    let second = session.run_blocking(QueryRequest::new(q.clone(), Arc::clone(&t))).unwrap();
    assert_eq!((second.arm.label().as_str(), second.output == want), ("pooled/compiled", true));
    // The pin keeps working on the routed layout second sight built.
    let third = session.run_blocking(pinned).unwrap();
    assert_eq!((third.arm.label().as_str(), third.output == want), ("direct", true));
    assert_eq!(third.breakdown.shards, second.breakdown.shards);
}

/// Property 2: a flooding tenant saturating the queue must not keep a
/// 1-request tenant from completing.
#[test]
fn light_tenant_completes_under_flood() {
    let (left, right) = fixtures(0xF100D);
    let session = Session::new(
        Cluster::default(),
        // One driver makes the ordering fully scheduler-determined.
        SessionConfig { drivers: 1, max_in_flight: 512, ..SessionConfig::default() },
    );
    let q = DbQuery::Distinct { col: 0 };

    // 64 flood requests first, then the light tenant's single one.
    let flood_tickets: Vec<_> =
        (0..64).map(|_| session.submit(request(&q, &left, &right, "flood")).unwrap()).collect();
    let light_ticket = session.submit(request(&q, &left, &right, "light")).unwrap();

    // The light tenant's request completes even though 64 flood
    // requests were queued ahead of it — DRR must interleave, so
    // waiting on the light ticket alone (before draining any flood
    // ticket) must return after a handful of flood services, not all 64.
    let light = light_ticket.wait().expect("light tenant completes");
    assert_eq!(light.breakdown.tenant, "light");
    let completed_at_light = session.stats().completed;
    assert!(
        completed_at_light <= 32,
        "light tenant waited for {completed_at_light} completions — starved behind the flood"
    );

    let mut flood_done = 0u64;
    for t in flood_tickets {
        t.wait().expect("flood requests also complete");
        flood_done += 1;
    }
    assert_eq!(flood_done, 64);
}

/// Property 3: past the in-flight bound the session rejects with the
/// typed error, immediately, and keeps serving what it admitted.
#[test]
fn overload_is_a_typed_rejection_not_memory_growth() {
    let (left, right) = fixtures(0x0F10);
    let capacity = 4usize;
    let session = Session::new(
        Cluster::default(),
        SessionConfig { max_in_flight: capacity, drivers: 1, ..SessionConfig::default() },
    );
    let q = DbQuery::Distinct { col: 0 };

    let mut admitted = Vec::new();
    let mut rejections = 0usize;
    for i in 0..256 {
        match session.submit(request(&q, &left, &right, &format!("t{}", i % 8))) {
            Ok(ticket) => admitted.push(ticket),
            Err(Error::Overloaded { in_flight, capacity: cap }) => {
                assert_eq!(cap, capacity);
                assert!(in_flight >= capacity, "rejection below the bound");
                rejections += 1;
            }
            Err(e) => panic!("overload must be Error::Overloaded, got {e}"),
        }
        // The queue can never hold more than the bound.
        assert!(session.in_flight() <= capacity);
    }
    assert!(
        rejections >= 256 - capacity * 8,
        "a 256-burst at capacity {capacity} must shed most of its load, shed {rejections}"
    );
    for t in admitted {
        t.wait().expect("admitted requests still complete under overload");
    }
    assert_eq!(session.stats().rejected, rejections as u64);
}

/// Send `q` over `t` both ways — the caller's thread (`run_blocking`) and
/// a driver thread (`submit` + `wait`) — and hand back the two refusals,
/// each leaving nothing in flight.
fn refused(session: &Session, q: &DbQuery, t: &Arc<Table>) -> [cheetah_core::Error; 2] {
    let req = || QueryRequest::new(q.clone(), Arc::clone(t));
    [session.run_blocking(req()), session.submit(req()).expect("admitted").wait()].map(|resp| {
        assert_eq!(session.in_flight(), 0, "{q:?}: a refused request leaked its slot");
        match resp {
            Err(Error::Exec(e)) => e,
            other => panic!("{q:?}: expected a typed execution error, got {other:?}"),
        }
    })
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

/// Property 3b: a request that names a column its table does not have, or
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
        for e in refused(&session, &q, &t) {
            assert_eq!(e, BadColumn { stream: 0, col }, "{q:?}");
        }
        // The same session answers the next well-formed request.
        assert_pool_intact(&session, &t);
    }
    assert_eq!(session.stats().rejected, 0, "refused by the schema, not by admission");
}

/// Property 3c: a query with nothing to evaluate — no skyline dimension,
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
            match session.run_blocking(req) {
                Err(Error::Exec(e)) => assert_eq!(e, want, "{q:?} on the {arm} arm"),
                other => panic!("{q:?} on the {arm} arm: expected a typed refusal, got {other:?}"),
            }
            assert_eq!(session.in_flight(), 0, "{q:?}: a refused request leaked its slot");
        }
        // A driver thread refuses it the same way…
        for e in refused(&session, &q, &t) {
            assert_eq!(e, want, "{q:?}");
        }
        // …and the same session answers the next well-formed request.
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

/// Property 3d: a shard job that panics anyway fails its own request and
/// nothing else. No request can reach a panic any more, so the operator
/// misconfigures the switch instead: a cluster tuned to zero stored
/// skyline points trips the program builder's assert on a pool thread.
/// Sixteen such requests — twice the pool's threads — each come back as
/// `WorkerPanicked`, to that request only; the direct arm, which builds no
/// program, answers the same query; and every other family is served.
#[test]
fn a_panicking_shard_job_fails_its_own_request_and_nothing_else() {
    let (t, _) = fixtures(0xB00);
    let tuning = CheetahTuning { skyline_points: 0, ..CheetahTuning::default() };
    let cluster = Cluster { tuning, ..Cluster::default() };
    let session = Session::new(cluster, SessionConfig::default());
    let q = DbQuery::Skyline { cols: vec![1, 2] };
    for _ in 0..8 {
        for e in refused(&session, &q, &t) {
            assert_eq!(e, WorkerPanicked { shard: 0 }, "{q:?}");
        }
    }
    assert_pool_intact(&session, &t);
    let direct = QueryRequest::new(q.clone(), Arc::clone(&t)).path(ExecPath::Direct);
    let want = Cluster::default().run_baseline(&q, &t, None).output;
    assert_eq!(session.run_blocking(direct).unwrap().output, want);
}
