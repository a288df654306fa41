//! Telemetry contract gate: observability must be *complete* and
//! *reconciled*, not decorative.
//!
//! 1. **Complete span trees** — every (path × backend) combination
//!    through the session yields an exportable lifecycle tree with no
//!    orphan or unclosed spans: `query` → {`admit`, `queue`, `plan`,
//!    `choose`, `execute` → {one `worker` per shard, `merge`},
//!    `respond`}.
//! 2. **Registry ⇄ breakdown reconciliation** — the session registry's
//!    totals agree with [`SessionStats`] and with the
//!    [`ExecBreakdown`]s the same requests returned: completed counts,
//!    plan-cache hits/misses, queue times, per-shard survivor entries.
//! 3. **The layout policy, off the trees** — a layout is built for a key
//!    that comes back: first sight has no `route` span and one `worker`,
//!    second sight a `route` span and one `worker` per planned shard, the
//!    third neither `route` nor a planner call; a pinned shard count
//!    routes at first sight.
//!    And the arm policy beside it: first sight's `respond` span carries
//!    the go-direct rule's inputs and verdict (`rule.*`), `execute` and
//!    every `worker` span the path that ran, the registry the keys
//!    decided direct and the requests run so.
//! 4. **Fabric attribution** — a traced faulty-channel run lands its
//!    go-back-N resend count in the owning registry's
//!    `net.retransmits`, equal to the breakdown's field.
//! 5. **Errors are traced too** — a request that fails with a typed
//!    error still exports its tree (root attr `error`) and still counts
//!    in `serve.latency_seconds`.

mod common;

use cheetah_db::{Cluster, DbQuery, ExecBackend, ExecPath, ShardSpec, Table};
use cheetah_runtime::{execute, ExecPlan, FaultSpec, StreamSpec};
use cheetah_serve::{QueryRequest, Session};
use cheetah_telemetry::{Registry, Trace, TraceTree};
use std::sync::Arc;

const SHARDS: usize = 4;

fn fixture(seed: u64) -> Arc<Table> {
    Arc::new(common::gen_table(3_000, 90, 4, seed))
}

/// Every span name on the root's direct child list, in exported order.
fn child_names(tree: &TraceTree) -> Vec<&str> {
    tree.root.children.iter().map(|c| c.name.as_str()).collect()
}

#[test]
fn every_path_backend_combination_yields_a_complete_span_tree() {
    let t = fixture(0x7E1E);
    let session = Session::with_defaults();
    for path in [ExecPath::BarrierPooled, ExecPath::StreamedResident] {
        for backend in [ExecBackend::Interpreted, ExecBackend::Compiled] {
            let resp = session
                .run_blocking(
                    QueryRequest::new(DbQuery::Distinct { col: 0 }, Arc::clone(&t))
                        .tenant("contract")
                        .path(path)
                        .backend(backend)
                        .shards(SHARDS),
                )
                .unwrap();
            let label = format!("{}/{}", path.label(), backend.label());
            let tree = resp
                .trace
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: response carries no exported trace"));

            // The lifecycle children, all present under the one root.
            assert_eq!(tree.root.name, "query", "{label}");
            assert_eq!(tree.root.attr("tenant"), Some("contract"), "{label}");
            for required in ["admit", "queue", "plan", "choose", "execute", "respond"] {
                assert!(
                    child_names(tree).contains(&required),
                    "{label}: missing `{required}` child; got {:?}",
                    child_names(tree)
                );
            }
            let exec = tree.root.find("execute").expect("checked above");
            assert_eq!(exec.attr("path"), Some(path.label()), "{label}");
            assert_eq!(exec.attr("backend"), Some(backend.label()), "{label}");

            // One worker span per shard, deterministically ordered, and
            // a merge span closing the fan-in.
            let mut workers = Vec::new();
            exec.find_all("worker", &mut workers);
            assert_eq!(workers.len(), SHARDS, "{label}: one worker span per shard");
            for (i, w) in workers.iter().enumerate() {
                assert_eq!(w.attr("shard"), Some(i.to_string().as_str()), "{label}");
            }
            assert!(exec.find("merge").is_some(), "{label}: missing merge span");

            // The per-shard survivor counts the workers traced must sum
            // to exactly what the breakdown reports: the breakdown is a
            // view over the span tree, not a parallel ledger.
            let traced: u64 = workers
                .iter()
                .map(|w| w.attr("entries_to_master").unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(traced, resp.breakdown.entries_to_master, "{label}");

            // The breakdown's queue time is the queue span's clock.
            let queue = tree.root.find("queue").expect("checked above");
            assert!(
                (queue.duration_s() - resp.breakdown.queue_seconds).abs() < 1e-3,
                "{label}: queue span {:.6}s vs breakdown {:.6}s",
                queue.duration_s(),
                resp.breakdown.queue_seconds
            );
        }
    }
    // All four trees were retained by the ring-buffer sink.
    assert_eq!(session.traces().len(), 4);
    assert_eq!(session.traces().pushed(), 4);
}

#[test]
fn planner_path_traces_cache_misses_then_hits_and_registry_reconciles() {
    let t = fixture(0xCAFE);
    let session = Session::with_defaults();
    let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    // First sight, second sight, then the warm path: the `plan` span says
    // which: only the second consults the planner, and from the third on
    // the plan is the one the held layout carries.
    for (tenant, cache) in [
        ("alpha", "first-sight"),
        ("alpha", "miss"),
        ("beta", "hit"),
        ("beta", "hit"),
        ("beta", "hit"),
    ] {
        let resp = session
            .run_blocking(QueryRequest::new(q.clone(), Arc::clone(&t)).tenant(tenant))
            .unwrap();
        let tree = resp.trace.as_ref().unwrap();
        assert_eq!(tree.root.find("plan").unwrap().attr("cache"), Some(cache));
        assert_eq!(resp.plan_cached, cache == "hit");
        for required in ["admit", "queue", "plan", "choose", "execute", "respond"] {
            assert!(child_names(tree).contains(&required), "{cache}: missing `{required}`");
        }
    }

    // Registry totals must reconcile with the session's own stats.
    let stats = session.stats();
    let snap = session.registry().snapshot();
    assert_eq!(snap.counters["serve.queries"], stats.completed);
    assert_eq!(snap.counters["serve.plan_cache.hits"], stats.plan_hits);
    assert_eq!(snap.counters["serve.plan_cache.misses"], stats.plan_misses);
    assert_eq!(stats.plan_misses, 1);
    assert_eq!(stats.plan_hits, 3);

    // Every executed request observed exactly one queue and one latency
    // sample, globally and per tenant.
    assert_eq!(snap.histograms["serve.queue_seconds"].count, stats.completed);
    assert_eq!(snap.histograms["serve.latency_seconds"].count, stats.completed);
    assert_eq!(snap.histograms["serve.tenant.alpha.latency_seconds"].count, 2);
    assert_eq!(snap.histograms["serve.tenant.beta.latency_seconds"].count, 3);

    // Nothing in flight when idle.
    assert_eq!(snap.gauges["serve.queue_depth"], 0);
    assert_eq!(snap.gauges["serve.executing"], 0);
}

/// The layout policy, read off the span trees — no timer: a layout is
/// built only for a key that comes back. First sight routes nothing and
/// runs the table whole on one worker; second sight fits a plan and
/// routes under it, one worker per planned shard; from the third on
/// nothing is planned or routed. A pinned shard count is a layout asked
/// for by name: it is routed at first sight.
#[test]
fn a_layout_is_built_at_second_sight_and_reused_from_the_third() {
    // 20 000 spread order values: the planner fans TOP N out.
    let t = Arc::new(common::gen_table(20_000, 90, 4, 0x51647));
    let session = Session::with_defaults();
    let q = DbQuery::TopN { order_col: 1, n: 10 };
    let ask = |req: QueryRequest| {
        let resp = session.run_blocking(req).unwrap();
        let tree = resp.trace.clone().expect("trace exports");
        let mut workers = Vec::new();
        tree.root.find_all("worker", &mut workers);
        let routed = tree.root.find("route").map(|r| r.attr("shards").unwrap().to_string());
        (resp, routed, workers.len())
    };
    let unpinned = || QueryRequest::new(q.clone(), Arc::clone(&t));

    let (first, routed, workers) = ask(unpinned());
    assert_eq!((routed, workers), (None, 1), "first sight: no route span, one worker");
    assert_eq!(first.breakdown.shards, 1);

    let (second, routed, workers) = ask(unpinned());
    let shards = second.breakdown.shards as usize;
    assert!(shards >= 2, "fixture must make the planner fan out, chose {shards}");
    assert_eq!(routed, Some(shards.to_string()), "second sight routes under the fitted plan");
    assert_eq!(workers, shards, "one worker per planned shard");
    assert_eq!(session.stats().plan_misses, 1);

    for _ in 0..2 {
        let (warm, routed, workers) = ask(unpinned());
        assert_eq!((routed, workers), (None, shards), "warm: the routed layout, reused");
        assert!(warm.plan_cached);
    }
    assert_eq!(session.stats().plan_misses, 1, "the planner ran once, at second sight");

    let (pinned, routed, workers) = ask(unpinned().shards(SHARDS));
    assert_eq!((routed, workers), (Some(SHARDS.to_string()), SHARDS), "pinned: routed at once");
    for resp in [&first, &second, &pinned] {
        assert_eq!(resp.output, first.output);
    }
}

/// The trace says why a key runs where it runs. First sight's `respond`
/// span carries what the go-direct rule read and what it decided — the
/// rule re-evaluates from the traced figures — and nothing re-decides
/// later; `execute` and every `worker` span name the path that ran; the
/// registry counts the keys decided direct and the requests that ran so.
#[test]
fn the_trace_carries_the_rules_inputs_and_verdict_and_the_path_that_ran() {
    let session = Session::with_defaults();
    // A TOP N that prunes nothing goes direct; a 10-key DISTINCT over
    // 100 000 rows stays pruned (25–50× from break-even either build).
    let small = Arc::new(common::gen_table(400, 40, 3, 0xD12EC7));
    let keyed = Arc::new(common::gen_table(100_000, 10, 4, 0x9127));
    for (q, t, direct) in [
        (DbQuery::TopN { order_col: 1, n: 25 }, &small, true),
        (DbQuery::Distinct { col: 0 }, &keyed, false),
    ] {
        for sight in 1..=3 {
            let resp = session.run_blocking(QueryRequest::new(q.clone(), Arc::clone(t))).unwrap();
            let tree = resp.trace.as_ref().expect("trace exports");
            let respond = tree.root.find("respond").expect("lifecycle span");
            let label = format!("{} sight {sight}", q.kind());
            if sight == 1 {
                let figure = |key: &str| -> f64 {
                    respond
                        .attr(key)
                        .unwrap_or_else(|| panic!("{label}: no {key}"))
                        .parse()
                        .unwrap()
                };
                let (rows, survivors) = (figure("rule.rows"), figure("rule.survivors"));
                let (complete_us, busy_us) = (figure("rule.complete_us"), figure("rule.busy_us"));
                assert_eq!(rows, t.rows() as f64, "{label}");
                assert_eq!(survivors, resp.breakdown.entries_to_master as f64, "{label}");
                assert!(complete_us > 0.0 && complete_us <= busy_us, "{label}");
                // The verdict is the rule over the figures beside it.
                assert_eq!(complete_us * rows < busy_us * survivors, direct, "{label}");
                assert_eq!(respond.attr("rule.direct"), Some(direct.to_string().as_str()));
            } else {
                let rule: Vec<_> =
                    respond.attrs.iter().filter(|(k, _)| k.starts_with("rule.")).collect();
                assert!(rule.is_empty(), "{label}: a decision is written once, got {rule:?}");
            }
            // First sight is always the pruned, measuring run.
            let path = if direct && sight > 1 { "direct" } else { "pooled" };
            let exec = tree.root.find("execute").expect("lifecycle span");
            assert_eq!(exec.attr("path"), Some(path), "{label}");
            assert_eq!(exec.attr("backend").is_some(), path != "direct", "{label}: no engine ran");
            let mut workers = Vec::new();
            exec.find_all("worker", &mut workers);
            assert_eq!(workers.len(), resp.breakdown.shards as usize, "{label}");
            assert!(workers.iter().all(|w| w.attr("path") == Some(path)), "{label}");
            assert_eq!(tree.root.attr("arm"), Some(resp.arm.label().as_str()), "{label}");
        }
    }
    let snap = session.registry().snapshot();
    assert_eq!(snap.counters["serve.direct.keys"], 1);
    assert_eq!(snap.counters["serve.direct.requests"], 2);
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
    let mut spec = StreamSpec::fixed(ShardSpec::new(3, cheetah_core::ShardPartitioner::Hash));
    spec.batch = Some(4); // many small frames → many fault draws
    spec.fault = Some(FaultSpec::harsh(0xC0FFEE));

    let registry = Registry::new();
    let trace = Trace::new(registry.clone());
    let root = trace.span("query");
    let plan = ExecPlan::new(&cluster, &q, &t, None, &spec).unwrap();
    let run = {
        let _g = root.enter();
        execute(&cluster, &plan).unwrap()
    };
    root.finish();
    assert!(run.breakdown.retransmits > 0, "harsh channel must force resends");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["net.retransmits"], run.breakdown.retransmits,
        "registry counter must equal the breakdown's retransmit total"
    );
    // The master-side merge span carries one stream child per shard flow.
    let tree = trace.export().unwrap();
    let mut streams = Vec::new();
    tree.root.find_all("stream", &mut streams);
    assert_eq!(streams.len(), 3, "one stream span per shard flow");
    let traced: u64 =
        streams.iter().map(|s| s.attr("retransmits").unwrap().parse::<u64>().unwrap()).sum();
    assert_eq!(traced, run.breakdown.retransmits);
}

#[test]
fn lossless_runs_trace_no_stream_spans_and_zero_retransmits() {
    let t = fixture(0x11CE);
    let session = Session::with_defaults();
    let resp = session
        .run_blocking(
            QueryRequest::new(DbQuery::Distinct { col: 0 }, Arc::clone(&t))
                .path(ExecPath::StreamedResident)
                .shards(SHARDS),
        )
        .unwrap();
    let tree = resp.trace.as_ref().unwrap();
    let mut streams = Vec::new();
    tree.root.find_all("stream", &mut streams);
    assert!(streams.is_empty(), "lossless channels must not fabricate stream spans");
    assert_eq!(resp.breakdown.retransmits, 0);
    let snap = session.registry().snapshot();
    assert!(!snap.counters.contains_key("net.retransmits"));
}
