//! Telemetry contract gate: observability must be *complete* and
//! *reconciled*, not decorative.
//!
//! 1. **Complete span trees** — every request of every generated case
//!    through the session, on every arm, yields an exportable lifecycle
//!    tree with no orphan or unclosed spans: `query` → {`admit`, `queue`,
//!    `plan`, `choose`, `execute` → {one `worker` per shard, `merge`},
//!    `respond`}, on a one-shard layout and a routed one alike, and no
//!    rack counters on a lossless run's `worker`. Each `worker` names the thread its
//!    job ran on: `caller` for a one-shard plan, which runs on the thread
//!    that executes it, else a pool index.
//! 2. **Registry ⇄ breakdown reconciliation** — the session registry's
//!    totals agree with [`SessionStats`] and with the
//!    [`ExecBreakdown`]s the same requests returned: completed counts,
//!    plan-cache hits/misses, queue times, per-shard survivor entries. And
//!    the registry is bounded: no metric name is keyed by a caller's tenant.
//! 3. **The layout policy, off the trees** — a layout is built for a key
//!    that comes back: first sight has no `route` span and one `worker`,
//!    second sight a `route` span and one `worker` per unit of its rows
//!    over the cores, the third no `route`; a pinned shard count routes a
//!    layout of its own at every sight, and holds none.
//!    And the arm policy beside it: every unpinned sight runs `direct`
//!    and no trace holds a `rule` span; `execute` and every `worker` span
//!    under it name the path that answered, and the registry counts the
//!    requests run direct.
//! 4. **Fabric attribution** — a traced run in fault mode lands its
//!    go-back-N resend count in the owning registry's
//!    `net.retransmits`, equal to the breakdown's field, and each shard's
//!    `worker` span carries its rack's resends and switch ACKs.
//! 5. **Errors are traced too** — a request that fails with a typed
//!    error still exports its tree (root attr `error`) and still counts
//!    in `serve.latency_seconds`.

mod common;

use common::{on_their_threads, Gate};

use cheetah_db::planner::{groups, units, ROWS_PER_UNIT};
use cheetah_db::{ChooserArm, Cluster, DbQuery, ExecBackend, ExecPath, Table};
use cheetah_net::FaultProfile;
use cheetah_runtime::WorkerPool;
use cheetah_runtime::{execute, ExecPlan};
use cheetah_serve::{QueryRequest, Session};
use cheetah_telemetry::{Registry, SpanNode, Trace};
use std::sync::Arc;

const SHARDS: usize = 4;

fn fixture(seed: u64) -> Arc<Table> {
    Arc::new(common::gen_table(3_000, 90, 4, seed))
}

/// Properties 1 and 2, generated: every sight of every case through the
/// session — first, deciding, warm and pinned to every arm at 1, 2 and 7
/// shards — exports a complete tree, its workers on their plan's threads,
/// its survivors and queue time the breakdown's, its `plan` span's cache
/// verdict the lifecycle's, no `stream` span on a lossless run, and the
/// registry's totals reconcile with `SessionStats` (`common::check`).
#[test]
fn every_request_exports_a_complete_tree_and_the_registry_reconciles() {
    common::for_each_case("telemetry_contract", Gate::Serve, &[common::DRAWN], 0, |_, _| {});
}

/// Property 1 on the pruned path, by name: each backend at one shard and
/// at four exports a complete tree (`common::assert_complete_tree`) whose
/// `execute` span names the path and backend asked for, and the ring
/// buffer keeps all four.
#[test]
fn every_backend_yields_a_complete_span_tree() {
    let t = fixture(0x7E1E);
    let session = Session::with_defaults();
    let path = ExecPath::BarrierPooled;
    for backend in [ExecBackend::Interpreted, ExecBackend::Compiled] {
        for shards in [1, SHARDS] {
            let q = DbQuery::Distinct { col: 0 };
            let req = QueryRequest::new(q, Arc::clone(&t)).tenant("contract");
            let resp = session.run_blocking(req.path(path).backend(backend).shards(shards));
            let resp = resp.unwrap();
            let label = format!("{}/{} @{shards}", path.label(), backend.label());
            common::assert_complete_tree(&resp, "contract", &label);
            let exec = resp.trace.as_ref().unwrap().root.find("execute").unwrap();
            let named = (exec.attr("path"), exec.attr("backend"));
            assert_eq!(named, (Some(path.label()), Some(backend.label())), "{label}");
            assert_eq!(resp.breakdown.shards as usize, shards, "{label}");
        }
    }
    assert_eq!((session.traces().len(), session.traces().pushed()), (4, 4));
}

/// Property 2 by name: first sight, second sight, then the warm path —
/// the `plan` span says which (the second routes the layout; from the
/// third on the layout is held), whatever the tenant — and the registry's
/// totals reconcile with the session's stats.
#[test]
fn plan_spans_trace_the_routing_sight_then_hits_and_registry_reconciles() {
    let t = fixture(0xCAFE);
    let session = Session::with_defaults();
    let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    for (tenant, cache) in [
        ("alpha", "first-sight"),
        ("alpha", "miss"),
        ("beta", "hit"),
        ("beta", "hit"),
        ("beta", "hit"),
    ] {
        let req = QueryRequest::new(q.clone(), Arc::clone(&t)).tenant(tenant);
        let resp = session.run_blocking(req).unwrap();
        let plan = resp.trace.as_ref().unwrap().root.find("plan").unwrap();
        assert_eq!((plan.attr("cache"), resp.plan_cached), (Some(cache), cache == "hit"));
        common::assert_complete_tree(&resp, tenant, cache);
    }
    let (stats, snap) = (session.stats(), session.registry().snapshot());
    assert_eq!(snap.counters["serve.queries"], stats.completed);
    assert_eq!(snap.counters["serve.plan_cache.hits"], stats.plan_hits);
    assert_eq!(snap.counters["serve.plan_cache.misses"], stats.plan_misses);
    assert_eq!((stats.plan_misses, stats.plan_hits), (1, 3));
    // One queue and one latency sample per executed request; none in flight.
    assert_eq!(snap.histograms["serve.queue_seconds"].count, stats.completed);
    assert_eq!(snap.histograms["serve.latency_seconds"].count, stats.completed);
    assert_eq!(snap.gauges["serve.executing"], 0);
}

/// Property 4's other side: a lossless routed run puts no rack counters on
/// its `worker` spans, resends nothing and leaves no `net.retransmits`
/// counter.
#[test]
fn lossless_runs_trace_no_rack_counters_and_zero_retransmits() {
    let t = fixture(0x11CE);
    let session = Session::with_defaults();
    let req = QueryRequest::new(DbQuery::Distinct { col: 0 }, Arc::clone(&t));
    let resp = session.run_blocking(req.path(ExecPath::BarrierPooled).shards(SHARDS)).unwrap();
    let mut workers = Vec::new();
    resp.trace.as_ref().unwrap().root.find_all("worker", &mut workers);
    assert_eq!(workers.len(), SHARDS);
    assert!(workers.iter().all(|w| w.attr("retransmits").is_none()), "nothing carried");
    assert_eq!((resp.breakdown.retransmits, resp.breakdown.shards), (0, SHARDS as u32));
    assert!(!session.registry().snapshot().counters.contains_key("net.retransmits"));
}

/// Nothing a caller sends grows the registry: the tenant rides every
/// response and trace root, never a metric name. A thousand tenants leave
/// the names one tenant leaves.
#[test]
fn a_thousand_tenants_leave_the_registry_as_one_tenant_does() {
    let t = Arc::new(common::gen_table(8, 4, 1, 0x7E4A));
    let q = DbQuery::Distinct { col: 0 };
    let names = |tenant: &dyn Fn(usize) -> String| {
        let session = Session::with_defaults();
        for i in 0..1_000 {
            let req = QueryRequest::new(q.clone(), Arc::clone(&t)).tenant(tenant(i));
            session.run_blocking(req).unwrap();
        }
        let snap = session.registry().snapshot();
        let keys = snap.counters.keys().chain(snap.gauges.keys()).chain(snap.histograms.keys());
        keys.cloned().collect::<Vec<_>>()
    };
    let one = names(&|_| "solo".into());
    assert_eq!(names(&|i| format!("tenant-{i}")), one);
}

/// The layout policy, read off the span trees — no timer: a layout is
/// built only for a key that comes back. First sight routes nothing and
/// runs the table whole, one `worker` per group of its stored partitions
/// (`planner::groups`); second sight routes its rows over
/// the cores, one worker per unit, and runs it once; from the third on
/// nothing is routed. A pinned shard count is a
/// layout of its own, routed per request and never held.
#[test]
fn a_layout_is_built_at_second_sight_and_reused_from_the_third() {
    // Two units' rows and more: TOP N is laid out over several units.
    let t = Arc::new(common::gen_table(2 * ROWS_PER_UNIT + 1_000, 90, 4, 0x51647));
    let q = DbQuery::TopN { order_col: 1, n: 10 };
    let cores = WorkerPool::global().workers();
    let (units, groups) =
        (units(&q, &t, None, cores), groups(&q, &t, cores).map_or(1, |g| g.len()));
    let session = Session::with_defaults();
    let workers_under = |node: Option<&SpanNode>| {
        let mut workers = Vec::new();
        if let Some(node) = node {
            node.find_all("worker", &mut workers);
        }
        workers.len()
    };
    let ask = |req: QueryRequest| {
        let resp = session.run_blocking(req).unwrap();
        let tree = resp.trace.clone().expect("trace exports");
        let workers = workers_under(tree.root.find("execute"));
        let routed = tree.root.find("route").map(|r| r.attr("shards").unwrap().to_string());
        (resp, routed, workers)
    };
    let unpinned = || QueryRequest::new(q.clone(), Arc::clone(&t));

    let (first, routed, workers) = ask(unpinned());
    assert_eq!((routed, workers), (None, groups), "first sight: no route span, a worker a group");
    assert_eq!(first.breakdown.shards, 1);
    assert_eq!(first.arm.label(), "direct", "…and no switch program");

    let (second, routed, workers) = ask(unpinned());
    let shards = second.breakdown.shards as usize;
    assert!(shards >= 2 && shards == units, "the rows over the cores: {shards} of {units}");
    assert_eq!(routed, Some(shards.to_string()), "second sight routes");
    assert_eq!(workers, shards, "one worker per unit");
    let mut all_workers = Vec::new();
    second.trace.as_ref().expect("trace exports").root.find_all("worker", &mut all_workers);
    assert_eq!(all_workers.len(), shards, "…and no other run: nothing measures or decides");
    assert_eq!(session.stats().plan_misses, 1);

    for _ in 0..2 {
        let (warm, routed, workers) = ask(unpinned());
        assert_eq!((routed, workers), (None, shards), "warm: the routed layout, reused");
        assert!(warm.plan_cached);
    }
    assert_eq!(session.stats().plan_misses, 1, "routed once, at second sight");

    let mut answers = vec![second];
    for _ in 0..2 {
        let (pinned, routed, workers) = ask(unpinned().shards(SHARDS));
        assert_eq!((routed, workers), (Some(SHARDS.to_string()), SHARDS), "pinned: routed");
        answers.push(pinned);
    }
    let (warm, routed, workers) = ask(unpinned());
    assert_eq!((routed, workers), (None, shards), "the held layout is as it was");
    answers.push(warm);
    for resp in &answers {
        assert_eq!(resp.output, first.output);
    }
}

/// The trace says what ran, and that nothing decided it. An unpinned
/// request runs direct at every sight — no `rule` span anywhere, no
/// `rule.` attribute, `execute` and every `worker` span under it on the
/// direct path with no engine — and a pinned one runs the arm it names,
/// pooled, its `execute` span naming the engine. The registry counts the
/// requests that ran direct and nothing else about the arm.
#[test]
fn the_trace_carries_the_path_that_ran_and_no_decision() {
    let session = Session::with_defaults();
    let small = Arc::new(common::gen_table(400, 40, 3, 0xD12EC7));
    let keyed = Arc::new(common::gen_table(20_000, 10, 4, 0x9127));
    let mut direct_requests = 0;
    for (q, t) in
        [(DbQuery::TopN { order_col: 1, n: 25 }, &small), (DbQuery::Distinct { col: 2 }, &keyed)]
    {
        let unpinned = || QueryRequest::new(q.clone(), Arc::clone(t));
        for sight in 1..=4 {
            // The fourth sight pins the pruned arm on the held layout.
            let pinned = sight == 4;
            let req = if pinned { unpinned().path(ExecPath::BarrierPooled) } else { unpinned() };
            let resp = session.run_blocking(req).unwrap();
            let tree = resp.trace.as_ref().expect("trace exports");
            let label = format!("{} sight {sight}", q.kind());
            let mut rules = Vec::new();
            tree.root.find_all("rule", &mut rules);
            assert!(rules.is_empty(), "{label}: nothing decides");
            let respond = tree.root.find("respond").expect("lifecycle span");
            assert!(respond.attrs.iter().all(|(k, _)| !k.starts_with("rule.")), "{label}");
            let path = if pinned { "pooled" } else { "direct" };
            direct_requests += u64::from(!pinned);
            let exec = tree.root.find("execute").expect("lifecycle span");
            assert_eq!(exec.attr("path"), Some(path), "{label}");
            assert_eq!(exec.attr("backend").is_some(), pinned, "{label}: an engine ran iff pruned");
            let mut workers = Vec::new();
            exec.find_all("worker", &mut workers);
            assert_eq!(workers.len(), resp.breakdown.shards as usize, "{label}");
            assert!(workers.iter().all(|w| w.attr("path") == Some(path)), "{label}");
            let shards = workers.len();
            assert!(on_their_threads(&workers, shards), "{label}");
            assert_eq!(tree.root.attr("arm"), Some(resp.arm.label()), "{label}");
        }
    }
    let snap = session.registry().snapshot();
    assert_eq!(snap.counters["serve.direct.requests"], direct_requests);
    let direct: Vec<_> = snap.counters.keys().filter(|n| n.starts_with("serve.direct.")).collect();
    assert_eq!(direct, ["serve.direct.requests"], "no counter of keys decided direct");
}

#[test]
fn errored_requests_stay_in_the_trace_plane_and_the_latency_histogram() {
    let t = fixture(0xE220);
    let session = Session::with_defaults();
    session.run_blocking(QueryRequest::new(DbQuery::Distinct { col: 0 }, Arc::clone(&t))).unwrap();
    let traced = session.traces().pushed();

    // Reachable from tenant input: a join submitted without its right table.
    let join = DbQuery::Join { left_key: 0, right_key: 0 };
    let err = session.run_blocking(QueryRequest::new(join, t)).unwrap_err();
    let missing = cheetah_core::Error::MissingStream { stream: 1 };
    assert_eq!(err, cheetah_serve::Error::Exec(missing));

    assert_eq!(session.traces().pushed(), traced + 1, "the failed request must export its tree");
    let tree = session.traces().last().expect("just pushed");
    assert_eq!(tree.root.attr("error"), Some(err.to_string().as_str()));
    assert_eq!(tree.root.attr("query"), Some("join"));
    let snap = session.registry().snapshot();
    assert_eq!(snap.counters["serve.queries"], 2);
    assert_eq!(snap.histograms["serve.latency_seconds"].count, snap.counters["serve.queries"]);
}

#[test]
fn faulty_channel_retransmits_attribute_to_the_tracing_registry() {
    let cluster = Cluster::default();
    let t = Arc::new(common::gen_table(1_500, 60, 3, 0xBAD));
    let q = DbQuery::Distinct { col: 0 };

    let registry = Registry::new();
    let trace = Trace::new(registry.clone());
    let root = trace.span("query");
    let plan = Arc::new(ExecPlan::new(&cluster, &q, &t, None, 3).unwrap());
    let faulty = cluster.with_fault(FaultProfile::harsh(), 0xC0FFEE);
    let pooled = ChooserArm { path: ExecPath::BarrierPooled, backend: ExecBackend::Interpreted };
    let run = execute(&faulty, &plan, pooled, Some(&root.context())).unwrap();
    root.finish();
    // The carrier's resend count is a pure function of the rows, their
    // verdicts and the seed.
    assert_eq!(run.breakdown.retransmits, 78_769, "harsh channel must force resends");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["net.retransmits"], run.breakdown.retransmits,
        "registry counter must equal the breakdown's retransmit total"
    );
    // Each shard's worker span carries its own rack's counters.
    let tree = trace.export().unwrap();
    let mut workers = Vec::new();
    tree.root.find_all("worker", &mut workers);
    assert_eq!(workers.len(), 3, "one worker span per shard");
    let traced = |attr: &str| -> u64 {
        workers.iter().map(|w| w.attr(attr).unwrap().parse::<u64>().unwrap()).sum()
    };
    assert_eq!(traced("retransmits"), run.breakdown.retransmits);
    assert_eq!(traced("switch_acks"), run.breakdown.switch_acks);
}
