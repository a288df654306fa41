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
//! Under property 1 sit the layout lifecycle of a repeated shape (first
//! sight runs the tables whole, second sight plans and routes, later ones
//! hit the plan cache — every layout answers alike) and the right table a
//! unary query ignores. Under property 3 sits containment: a request its
//! tables cannot answer, or one that panics its shard job anyway, fails
//! alone and typed — no thread lost, no slot leaked.

mod common;

use cheetah_core::Error::{BadColumn, WorkerPanicked};
use cheetah_db::{
    Cluster, DataType, DbPredicate, DbQuery, IntCmp, LikePattern, QueryOutput, Table, TableBuilder,
    Value,
};
use cheetah_serve::{Error, QueryRequest, Session, SessionConfig};
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

/// Property 1b: a shape that keeps coming back is run whole at first
/// sight, planned at the second, and served from the plan cache from the
/// third on — and every one of those layouts must keep producing
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
        assert_eq!(resp.output, baseline, "round {round}");
        assert_eq!(resp.plan_cached, round > 1, "round {round}");
    }
    // First sight consults neither the planner nor its cache.
    let stats = session.stats();
    assert_eq!(stats.plan_misses, 1);
    assert_eq!(stats.plan_hits, 6);
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
    // shape or layout key, each would be first sight, then a miss, of its
    // own entry.
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

/// Property 3c: two configuration asserts in the pruning layer are still
/// reachable through a request the schema check cannot fault (no columns
/// at all). Sixteen of each — twice the pool's threads — panic their shard
/// job; each comes back as `WorkerPanicked`, to that request only.
#[test]
fn a_panicking_shard_job_fails_its_own_request_and_nothing_else() {
    let (t, _) = fixtures(0xB00);
    let session = Session::with_defaults();
    for q in
        [DbQuery::Skyline { cols: vec![] }, DbQuery::FilterCount { pred: DbPredicate::And(vec![]) }]
    {
        for _ in 0..8 {
            for e in refused(&session, &q, &t) {
                assert_eq!(e, WorkerPanicked { shard: 0 }, "{q:?}");
            }
        }
        assert_pool_intact(&session, &t);
    }
}
