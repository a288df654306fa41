//! The serving plane under multi-tenant load: deterministic open- and
//! closed-loop workloads replayed through the [`Session`] front door,
//! per-tenant latency percentiles out.
//!
//! Three phases, each a row family in the report:
//!
//! * **closed** — four tenants, each keeping one request in flight over a
//!   shared mixed query bag (all seven shapes). Every response is checked
//!   bit-for-bit against a sequential no-serving-plane baseline, and the
//!   session's plan-cache hit rate is reported (the mix has seven shapes,
//!   so almost every request after warm-up should hit).
//! * **flood** — a flooding co-tenant keeps a deep backlog queued while a
//!   light tenant runs closed-loop. The light tenant's p99 is compared
//!   against its *fair-share expectation* (two active tenants ⇒ twice its
//!   measured solo mean); the deficit-round-robin scheduler must keep the
//!   ratio bounded.
//! * **open** — arrivals on a fixed jittered schedule regardless of
//!   completions, offered at roughly half the closed-loop capacity;
//!   sojourn time (completion minus *scheduled* arrival) absorbs any
//!   schedule slip, so falling behind is visible in the percentiles.
//!
//! Everything is derived from one seed: the query mix, the tables, and
//! the arrival jitter — see [`crate::workload::ServingWorkload`].

use crate::report::{frac, secs};
use crate::workload::ServingWorkload;
use crate::{skewed_tables, Report, RunCtx, Scale};
use cheetah_db::{Cluster, DbPredicate, DbQuery, IntCmp, QueryOutput, Table};
use cheetah_serve::{QueryRequest, Session, SessionConfig, SessionStats};
use cheetah_telemetry::Histogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four tenants every phase schedules.
pub const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Workload seed (query mix, tables, arrival jitter).
const SERVING_SEED: u64 = 0x5E21;

/// Outstanding requests the flooding tenant keeps queued.
const FLOOD_DEPTH: usize = 8;

/// The mixed query bag: all seven shapes, constants sized for the
/// skewed tables below.
fn serving_queries() -> Vec<DbQuery> {
    vec![
        DbQuery::FilterCount { pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 90_000 } },
        DbQuery::Distinct { col: 0 },
        DbQuery::TopN { order_col: 1, n: 64 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: 40_000 },
        DbQuery::Skyline { cols: vec![1, 2] },
        DbQuery::Join { left_key: 0, right_key: 0 },
    ]
}

fn request(q: &DbQuery, left: &Arc<Table>, right: &Arc<Table>, tenant: &str) -> QueryRequest {
    let req = QueryRequest::new(q.clone(), Arc::clone(left)).tenant(tenant);
    if q.is_binary() {
        req.with_right(Arc::clone(right))
    } else {
        req
    }
}

/// Sequential no-serving-plane ground truth, one output per mix query.
fn baselines(
    cluster: &Cluster,
    queries: &[DbQuery],
    left: &Arc<Table>,
    right: &Arc<Table>,
) -> Vec<QueryOutput> {
    queries
        .iter()
        .map(|q| {
            let r = q.is_binary().then_some(&**right);
            cluster.run_baseline(q, left, r).output
        })
        .collect()
}

/// One tenant's measurements from one phase. Latency and queue-time
/// samples go straight into telemetry histograms — the report's p50/p99
/// are histogram-snapshot quantiles, the same summaries the session
/// registry exports (the `percentiles_agree_*` test below pins the two
/// paths to within one sub-bucket of each other).
struct TenantOutcome {
    tenant: String,
    latency: Histogram,
    queue: Histogram,
    mismatches: usize,
    shed: usize,
}

impl TenantOutcome {
    fn new(tenant: impl Into<String>) -> Self {
        TenantOutcome {
            tenant: tenant.into(),
            latency: Histogram::default(),
            queue: Histogram::default(),
            mismatches: 0,
            shed: 0,
        }
    }

    fn requests(&self) -> u64 {
        self.latency.count()
    }

    fn row(&self, phase: &str) -> Vec<String> {
        let lat = self.latency.snapshot();
        vec![
            phase.to_string(),
            self.tenant.clone(),
            lat.count.to_string(),
            secs(lat.p50),
            secs(lat.p99),
            secs(self.queue.mean().unwrap_or(0.0)),
            if self.mismatches == 0 {
                "identical".into()
            } else {
                format!("{} DIVERGED", self.mismatches)
            },
        ]
    }
}

/// Closed loop: one thread per tenant, each submitting its next request
/// the moment the previous completes. Returns per-tenant outcomes and
/// the phase makespan in seconds.
fn run_closed(
    session: &Session,
    w: &ServingWorkload,
    left: &Arc<Table>,
    right: &Arc<Table>,
    truth: &[QueryOutput],
) -> (Vec<TenantOutcome>, f64) {
    let t0 = Instant::now();
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = w
            .tenants
            .iter()
            .enumerate()
            .map(|(t_idx, spec)| {
                s.spawn(move || {
                    let mut out = TenantOutcome::new(spec.name.clone());
                    for r in 0..spec.requests {
                        let q_idx = w.query_index(t_idx, r);
                        let req = request(&w.queries[q_idx], left, right, &spec.name);
                        let start = Instant::now();
                        let resp = session
                            .submit(req)
                            .expect("closed loop stays under capacity")
                            .wait()
                            .expect("admitted requests complete");
                        out.latency.observe(start.elapsed().as_secs_f64());
                        out.queue.observe(resp.breakdown.queue_seconds);
                        if resp.output != truth[q_idx] {
                            out.mismatches += 1;
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
    });
    (outcomes, t0.elapsed().as_secs_f64())
}

/// Open loop: each tenant submits on its jittered schedule without
/// waiting; a per-tenant redeemer thread measures sojourn (completion
/// minus *scheduled* arrival, so schedule slip counts against us).
fn run_open(
    session: &Session,
    w: &ServingWorkload,
    left: &Arc<Table>,
    right: &Arc<Table>,
    truth: &[QueryOutput],
) -> Vec<TenantOutcome> {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = w
            .tenants
            .iter()
            .enumerate()
            .map(|(t_idx, spec)| {
                let (tx, rx) = mpsc::channel();
                let submitter = s.spawn(move || {
                    let mut shed = 0usize;
                    for r in 0..spec.requests {
                        let due = w.arrival_seconds(t_idx, r).expect("open mode schedules");
                        let elapsed = t0.elapsed().as_secs_f64();
                        if due > elapsed {
                            std::thread::sleep(Duration::from_secs_f64(due - elapsed));
                        }
                        let q_idx = w.query_index(t_idx, r);
                        match session.submit(request(&w.queries[q_idx], left, right, &spec.name)) {
                            Ok(ticket) => tx.send((q_idx, due, ticket)).expect("redeemer alive"),
                            Err(_) => shed += 1,
                        }
                    }
                    shed
                });
                let redeemer = s.spawn(move || {
                    let mut out = TenantOutcome::new(spec.name.clone());
                    for (q_idx, due, ticket) in rx {
                        let resp = ticket.wait().expect("admitted requests complete");
                        out.latency.observe((t0.elapsed().as_secs_f64() - due).max(0.0));
                        out.queue.observe(resp.breakdown.queue_seconds);
                        if resp.output != truth[q_idx] {
                            out.mismatches += 1;
                        }
                    }
                    out
                });
                (submitter, redeemer)
            })
            .collect();
        handles
            .into_iter()
            .map(|(submitter, redeemer)| {
                let shed = submitter.join().expect("submitter thread");
                let mut out = redeemer.join().expect("redeemer thread");
                out.shed = shed;
                out
            })
            .collect()
    })
}

/// The flood phase's verdict: the light tenant's percentiles, its solo
/// mean, and the fairness ratio the gate reads.
struct FloodOutcome {
    solo_mean: f64,
    light: TenantOutcome,
    flood_served: usize,
}

impl FloodOutcome {
    /// Fair-share expectation: two active tenants share the plane, so
    /// the light tenant should see about twice its solo-mean latency.
    fn fair_share(&self) -> f64 {
        2.0 * self.solo_mean
    }

    /// p99 over fair share — the acceptance criterion bounds this at 5.
    fn fairness_ratio(&self) -> f64 {
        self.light.latency.snapshot().p99 / self.fair_share().max(1e-12)
    }
}

/// Measure the light tenant solo, then again with a flooding co-tenant
/// keeping [`FLOOD_DEPTH`] requests queued the whole time.
fn run_flood(
    cluster: &Cluster,
    left: &Arc<Table>,
    right: &Arc<Table>,
    solo_reqs: usize,
    light_reqs: usize,
) -> FloodOutcome {
    let light_q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    let flood_q = DbQuery::Distinct { col: 0 };
    let session = Session::new(cluster.clone(), SessionConfig::default());

    // Solo reference: the light tenant with the plane to itself.
    let mut solo = 0.0;
    for _ in 0..solo_reqs.max(1) {
        let start = Instant::now();
        session.run_blocking(request(&light_q, left, right, "light")).expect("solo run");
        solo += start.elapsed().as_secs_f64();
    }
    let solo_mean = solo / solo_reqs.max(1) as f64;

    let stop = AtomicBool::new(false);
    let (light, flood_served) = std::thread::scope(|s| {
        let flood = s.spawn(|| {
            let mut served = 0usize;
            let mut backlog = std::collections::VecDeque::new();
            while !stop.load(Ordering::Relaxed) {
                while backlog.len() < FLOOD_DEPTH {
                    backlog.push_back(
                        session
                            .submit(request(&flood_q, left, right, "flood"))
                            .expect("flood stays under capacity"),
                    );
                }
                let ticket = backlog.pop_front().expect("depth > 0");
                ticket.wait().expect("flood requests complete");
                served += 1;
            }
            for ticket in backlog {
                ticket.wait().expect("drained flood requests complete");
                served += 1;
            }
            served
        });
        let light = s.spawn(|| {
            let out = TenantOutcome::new("light (flooded)");
            for _ in 0..light_reqs {
                let start = Instant::now();
                let resp = session
                    .submit(request(&light_q, left, right, "light"))
                    .expect("light stays under capacity")
                    .wait()
                    .expect("light requests complete");
                out.latency.observe(start.elapsed().as_secs_f64());
                out.queue.observe(resp.breakdown.queue_seconds);
            }
            stop.store(true, Ordering::Relaxed);
            out
        });
        (light.join().expect("light thread"), flood.join().expect("flood thread"))
    });
    FloodOutcome { solo_mean, light, flood_served }
}

/// Everything one serving run produced — the report rows plus the
/// numbers the tests gate on.
struct ServingRun {
    closed: Vec<TenantOutcome>,
    closed_makespan: f64,
    closed_stats: SessionStats,
    flood: FloodOutcome,
    open: Vec<TenantOutcome>,
    open_rate: f64,
}

fn run_at(
    rows: usize,
    per_tenant: usize,
    open_per_tenant: usize,
    solo_reqs: usize,
    light_reqs: usize,
) -> ServingRun {
    let cluster = Cluster::default();
    let queries = serving_queries();
    let (left, right) = skewed_tables(rows, SERVING_SEED);
    let truth = baselines(&cluster, &queries, &left, &right);

    let closed_w = ServingWorkload::closed(&TENANTS, per_tenant, queries.clone(), SERVING_SEED);
    let session = Session::new(cluster.clone(), SessionConfig::default());
    let (closed, closed_makespan) = run_closed(&session, &closed_w, &left, &right, &truth);
    let closed_stats = session.stats();
    drop(session);

    let flood = run_flood(&cluster, &left, &right, solo_reqs, light_reqs);

    // Offer roughly half the measured closed-loop capacity, split across
    // tenants; clamped so a noisy runner can't stretch the phase.
    let throughput = closed_w.total_requests() as f64 / closed_makespan.max(1e-9);
    let open_rate = (0.5 * throughput / TENANTS.len() as f64).clamp(50.0, 20_000.0);
    let open_w =
        ServingWorkload::open(&TENANTS, open_per_tenant, queries, open_rate, SERVING_SEED ^ 1);
    let session = Session::new(cluster, SessionConfig::default());
    let open = run_open(&session, &open_w, &left, &right, &truth);

    ServingRun { closed, closed_makespan, closed_stats, flood, open, open_rate }
}

/// Run the serving-plane experiment: closed-loop, flood, and open-loop
/// phases over the four-tenant mixed workload.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let (rows, per_tenant, open_per_tenant, solo_reqs, light_reqs) = match ctx.scale {
        Scale::Quick => (3_000, 250, 24, 16, 32),
        Scale::Full => (6_000, 1_000, 96, 32, 64),
    };
    let r = run_at(rows, per_tenant, open_per_tenant, solo_reqs, light_reqs);
    let mut report = Report::new(
        "serving",
        format!(
            "Serving plane: {} tenants x {per_tenant} closed-loop mixed queries ({rows} rows)",
            TENANTS.len()
        ),
        &["phase", "tenant", "requests", "p50", "p99", "mean queue", "vs baseline"],
    );
    for t in &r.closed {
        report.row(t.row("closed"));
    }
    report.row(r.flood.light.row("flood"));
    for t in &r.open {
        report.row(t.row("open"));
    }

    let total: u64 = r.closed.iter().map(|t| t.requests()).sum();
    report.note(format!(
        "closed: {total} requests in {} ({:.0} req/s); plan-cache hit rate {} \
         ({} hits / {} misses; criterion > 90%)",
        secs(r.closed_makespan),
        total as f64 / r.closed_makespan.max(1e-9),
        frac(r.closed_stats.plan_hit_rate()),
        r.closed_stats.plan_hits,
        r.closed_stats.plan_misses,
    ));
    report.note(format!(
        "flood: light p99 {} vs fair-share expectation {} (2x solo mean {}) — \
         ratio {:.2}, criterion <= 5; flooding co-tenant served {} meanwhile",
        secs(r.flood.light.latency.snapshot().p99),
        secs(r.flood.fair_share()),
        secs(r.flood.solo_mean),
        r.flood.fairness_ratio(),
        r.flood.flood_served,
    ));
    let shed: usize = r.open.iter().map(|t| t.shed).sum();
    report.note(format!(
        "open: {:.0} req/s offered per tenant (half of measured closed capacity), \
         {shed} shed by admission control; sojourn measured from scheduled arrival",
        r.open_rate,
    ));
    vec![report]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole's acceptance shape in miniature: every concurrent
    /// response bit-identical to the sequential baseline, and repeat
    /// shapes served out of the plan cache.
    #[test]
    fn closed_loop_is_bit_identical_and_caches() {
        let cluster = Cluster::default();
        let queries = serving_queries();
        let (left, right) = skewed_tables(1_500, SERVING_SEED);
        let truth = baselines(&cluster, &queries, &left, &right);
        let w = ServingWorkload::closed(&TENANTS, 30, queries, SERVING_SEED);
        let session = Session::new(cluster, SessionConfig::default());
        let (outcomes, _) = run_closed(&session, &w, &left, &right, &truth);
        for t in &outcomes {
            assert_eq!(t.mismatches, 0, "tenant {} diverged from the baseline", t.tenant);
            assert_eq!(t.requests(), 30);
        }
        let stats = session.stats();
        assert_eq!(stats.completed, 120);
        assert_eq!(stats.rejected, 0);
        assert!(
            stats.plan_hit_rate() > 0.9,
            "7-shape mix over 120 requests must mostly hit the plan cache, got {}",
            stats.plan_hit_rate()
        );
    }

    /// The fairness criterion, retry-damped: a single attempt under a
    /// fully parallel `cargo test` can land the
    /// solo reference and the flooded phase on very different machine
    /// load, so pass if any of three attempts is within bound.
    #[test]
    fn light_tenant_p99_stays_within_the_fairness_bound() {
        let cluster = Cluster::default();
        let (left, right) = skewed_tables(2_000, SERVING_SEED);
        let mut failures = Vec::new();
        for _ in 0..3 {
            let f = run_flood(&cluster, &left, &right, 12, 24);
            if f.fairness_ratio() <= 5.0 {
                return;
            }
            failures.push(format!(
                "light p99 {} vs fair share {} (ratio {:.2})",
                secs(f.light.latency.snapshot().p99),
                secs(f.fair_share()),
                f.fairness_ratio(),
            ));
        }
        panic!("no attempt met the 5x fair-share bound:\n{}", failures.join("\n"));
    }

    /// Open-loop arrivals flow through the same identity check and the
    /// report carries one row per tenant per phase.
    #[test]
    fn report_emits_per_tenant_percentile_rows_for_every_phase() {
        let r = run_at(1_200, 12, 8, 4, 8);
        for t in r.closed.iter().chain(r.open.iter()) {
            assert_eq!(t.mismatches, 0, "tenant {} diverged", t.tenant);
        }
        assert_eq!(r.closed.len(), TENANTS.len());
        assert_eq!(r.open.len(), TENANTS.len());
        let open_served: usize = r.open.iter().map(|t| t.requests() as usize + t.shed).sum();
        assert_eq!(open_served, TENANTS.len() * 8, "every scheduled arrival accounted for");
        assert!(r.flood.solo_mean > 0.0);
    }

    /// `q`-th percentile of an unsorted sample — the hand-rolled
    /// rank-order path the report used before the switch to histogram
    /// quantiles, kept only to pin its replacement. Nearest rank
    /// `ceil(q*n)`, the same rule the histogram's bucket walk applies,
    /// so the agreement bound below is exact rather than off-by-one.
    fn percentile(samples: &[f64], q: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The agreement contract that let the report switch from exact
    /// rank-order percentiles to histogram quantiles: on a deterministic
    /// latency-shaped sample (three decades, heavy tail), the snapshot's
    /// p50/p99 must sit within one log-bucket of the exact ranks — an
    /// upper bound no more than `2^(1/8)` (~9%) above them.
    #[test]
    fn percentiles_agree_with_the_exact_ranks_they_replaced() {
        let mut samples = Vec::new();
        let mut x = 0x5E21u64;
        for _ in 0..4_000 {
            x = cheetah_switch::hash::mix64(x);
            // 100us..1s, log-uniform-ish with a deterministic heavy tail.
            let u = (x % 10_000) as f64 / 10_000.0;
            samples.push(1e-4 * 10f64.powf(4.0 * u.powi(2)));
        }
        let hist = Histogram::new();
        for &s in &samples {
            hist.observe(s);
        }
        let snap = hist.snapshot();
        let one_bucket = 2f64.powf(1.0 / cheetah_telemetry::HIST_SUB_BUCKETS as f64);
        for (q, got) in [(0.50, snap.p50), (0.99, snap.p99)] {
            let exact = percentile(&samples, q);
            assert!(
                got >= exact * (1.0 - 1e-9) && got <= exact * one_bucket * (1.0 + 1e-9),
                "p{:.0}: histogram {got} vs exact {exact} — outside one sub-bucket",
                q * 100.0
            );
        }
        assert_eq!(snap.count, samples.len() as u64);
        let exact_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((snap.mean() - exact_mean).abs() < 1e-12, "mean is exact, not bucketed");
    }
}
