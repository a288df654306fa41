//! The front door: admission and a layout built only for what comes
//! back, for concurrent [`QueryRequest`]s, each served on its caller's
//! thread.
//!
//! ```text
//!            QueryRequest
//!                 │ run_blocking
//!                 ▼
//!        ┌─────────────────┐   in-flight ≥ capacity
//!        │  admission gate  │──────────────────────▶ Error::Overloaded
//!        └────────┬────────┘
//!                 ▼ the caller's thread
//!        ┌─────────────────┐   what is held for (query, tables)? (lifecycle.rs)
//!        │  one entry per   │   absent ─▶ first sight: the tables run whole on one
//!        │  key: a sight,   │             shard — no copy, a direct run folds its
//!        │                  │             stored partitions in groups over the cores
//!        │                  │             (planner::groups); settle notes the key seen
//!        │  then a settle   │   whole ──▶ second sight claims the key's route: its
//!        │                  │             rows hashed over the cores (planner::
//!        │                  │             units: one unit per ROWS_PER_UNIT rows,
//!        │                  │             at most two per worker); settle holds
//!        │                  │             the layout while the claim stands
//!        │                  │   routed ─▶ warm: a layout the session already held
//!        └────────┬────────┘   (a pinned shard count: a layout of its own, routed
//!                 │             per request, never held; the map is not read)
//!                 ▼
//!        ┌─────────────────┐   the request's pins: a path pin's path; a backend or
//!        │       arm        │   shard pin, pooled + the pinned backend, else
//!        │                  │   compiled (interpreted where the family has no
//!        └────────┬────────┘   kernel); unpinned, `direct` — no spec, no encode, no switch
//!                 ▼
//!        ExecPlan ─▶ execute ──▶ QueryResponse (+ queue/tenant breakdown)
//!                    (one item per unit, or per group of a unit's stored
//!                     partitions on a lossless direct run: the caller +
//!                     ≤ cores − 1 pool helpers)
//! ```
//!
//! A routed layout is an investment — every row of the columns the query
//! reads copied into per-shard units — that only a repeat of the same
//! query over the same tables pays back, and the session can observe
//! exactly that: whether it has run this query over these tables before.
//! So the first run of a key runs the tables as they are and invests in
//! nothing; the second routes the key's layout and holds it; every later
//! one runs that layout. The layout is the rows over the cores, by the one
//! shard-count rule (`cheetah_db::planner::units`): a run works its units
//! on at most one thread per core, so the unit count is the key's rows over
//! `ROWS_PER_UNIT` (a key under two units' rows holds the caller's tables,
//! copying nothing), at most two per pool worker, and at least two for a
//! JOIN whose string key the load rule left plain, so routing codes it.
//! The units are routed as a pin of that count is, by the one seeded hash
//! over the key's routing keys: a layout is its shard count.
//!
//! A switch program is an investment too — a spec, a kernel and a
//! register matrix, every row encoded and judged — and the paper's claim
//! for it is conditional: pruning pays when the switch removes work the
//! master would otherwise do. Here the switch is software on the same
//! cores, so its per-entry cost is on the clock, and the arm census
//! (`cheetah-experiments census`) measures the condition on every key the
//! benchmark sends: pinned direct and pinned pruned batches on the key's
//! routed layout, by the CPU each used. On every key, in each of three
//! processes, the pruned arm used more — 2.6× to 48× the direct arm's CPU
//! on a 2-core box (README, "Win or get out of the way"). So the arm
//! is a function of the request alone: unpinned, it runs direct at every
//! sight, on whatever layout the key holds; a request asks for the switch
//! by pinning it — a path, or a backend or a shard count, which only a
//! pruned run reads.
//!
//! Every decision about a key lives in `lifecycle.rs`: a sight reads what
//! is held, claims a whole key's route and names its layout, and a settle
//! holds what the sight earned; a claim its request leaves unsettled — a
//! panic unwinding, or an error — is released by the claim's drop guard.
//! Each is one critical section under the session's one lock, and none
//! takes a lock, reads a clock, opens a span or does I/O; `serve`
//! performs what they ask for between them (route, run). The lifecycle's
//! checker explores every interleaving of racing requests over those very
//! functions: 2 keys × 3 sights, a one-entry map and an in-flight bound
//! of 2.
//!
//! The entry is all the session knows about its key, in one map under
//! one lock. Every total routing preserves the merge
//! (`Q(merge(shards(D))) = Q(D)`), so a layout's unit count costs
//! balance, never answers.
//!
//! A request runs on its caller's thread, and that thread works its own
//! run's items — its units, or on a direct run of a table past two units'
//! rows the groups of its stored partitions — beside at most `cores − 1`
//! pool helpers. `execute` never
//! waits for a free pool worker, so a session cannot deadlock the pool it
//! feeds, even when its caller is itself a pool job.

use crate::error::{Error, Result};
use crate::lifecycle::{admit, Caches, Key, Sight};
use crate::request::QueryRequest;
use cheetah_db::{ChooserArm, Cluster, ExecBackend, ExecBreakdown, ExecPath, QueryOutput, Table};
use cheetah_runtime::{ExecPlan, WorkerPool};
use cheetah_switch::ProgramStats;
use cheetah_telemetry::{ClosedTrace, Counter, Gauge, Histogram, Registry, Span, Trace, TraceSink};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Knobs of one serving session. The defaults serve a small rack: a few
/// hundred requests in flight.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Admission bound: requests executing at once. One more is refused
    /// with [`Error::Overloaded`].
    pub max_in_flight: usize,
    /// Keys the session holds an entry for — the key's layout — before
    /// evicting the oldest insertion.
    pub plan_cache_capacity: usize,
}

/// Finished query traces the session's ring-buffer sink retains (oldest
/// evicted first).
const TRACE_CAPACITY: usize = 64;

impl Default for SessionConfig {
    fn default() -> Self {
        Self { max_in_flight: 256, plan_cache_capacity: 128 }
    }
}

/// What one admitted request comes back with.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The query result — bit-identical to every other execution path's.
    pub output: QueryOutput,
    /// Phase decomposition of the run, as
    /// [`execute`](cheetah_runtime::execute) accounted it, with
    /// [`queue_seconds`] and [`tenant`] stamped by the session.
    ///
    /// [`queue_seconds`]: ExecBreakdown::queue_seconds
    /// [`tenant`]: ExecBreakdown::tenant
    pub breakdown: ExecBreakdown,
    /// Switch-side pruning counters.
    pub switch_stats: ProgramStats,
    /// The (path, backend) arm that executed the request: the path it
    /// ran on, and the engine the run recorded
    /// ([`ExecBreakdown::backend`]) — the interpreter for a family with
    /// no compiled kernel, whatever backend was asked for. The `choose`
    /// span keeps the arm that was chosen.
    pub arm: ChooserArm,
    /// Whether the request ran a layout the session already held for its
    /// (query, tables) key. Always `false` for a request that pinned a
    /// shard count — a layout of its own, routed per request, never held
    /// —, at first sight of a key — which runs the tables whole — and at
    /// the second sight, which routes the layout (and at one that raced
    /// it, running whole).
    pub plan_cached: bool,
    /// The query's lifecycle span tree
    /// (`admit → queue → plan → choose → execute{…} → respond`), when its
    /// trace closed cleanly: the records [`Session::traces`] keeps, read
    /// through a tree this response builds on first read (`trace.root`).
    pub trace: Option<ClosedTrace>,
}

/// Counters a session exposes for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Requests that completed (successfully or with an exec error).
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Warm sights: requests that ran a layout the session already held
    /// (whatever path or backend they pin; a shard pin holds nothing).
    pub plan_hits: u64,
    /// Second sights that routed their key's layout. First sights hold
    /// nothing routed yet, so they are neither.
    pub plan_misses: u64,
}

impl SessionStats {
    /// Held-layout fraction of warm and routing sights (0.0 before any).
    pub fn plan_hit_rate(&self) -> f64 {
        self.plan_hits as f64 / (self.plan_hits + self.plan_misses).max(1) as f64
    }
}

/// The row counts of a request's tables: what a returning key's layout is
/// sized by. The serving plane reads the tables themselves; the type is
/// kept for the benchmark's `plan_cache.fingerprint_us` stage, which
/// times it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsFingerprint {
    /// Left-stream row count.
    pub left_rows: u64,
    /// Right-stream row count (0 for unary queries).
    pub right_rows: u64,
}

impl StatsFingerprint {
    /// Fingerprint the inputs of a request.
    pub fn of(left: &Table, right: Option<&Table>) -> Self {
        Self { left_rows: left.rows() as u64, right_rows: right.map_or(0, |r| r.rows() as u64) }
    }
}

/// The session's always-on observability handles: one registry, one
/// trace sink, and cached handles for every hot-path metric (so the
/// per-request cost is atomic ops, not name lookups).
struct Telemetry {
    registry: Registry,
    sink: TraceSink,
    /// `serve.queries` — completed requests (success or typed error).
    queries: Counter,
    /// `serve.rejected` — admission refusals.
    rejected: Counter,
    /// `serve.plan_cache.hits` / `serve.plan_cache.misses`. These four
    /// counters are what [`SessionStats`] reports.
    plan_hits: Counter,
    plan_misses: Counter,
    /// `serve.direct.requests` — requests that ran the direct arm: every
    /// unpinned one, and those pinned to it.
    direct_requests: Counter,
    /// `serve.executing` — requests executing right now.
    executing: Gauge,
    /// `serve.queue_seconds` — per-request time from admission to start.
    queue_seconds: Histogram,
    /// `serve.latency_seconds` — per-request admission-to-response time.
    latency_seconds: Histogram,
}

impl Telemetry {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            sink: TraceSink::new(TRACE_CAPACITY),
            queries: registry.counter("serve.queries"),
            rejected: registry.counter("serve.rejected"),
            plan_hits: registry.counter("serve.plan_cache.hits"),
            plan_misses: registry.counter("serve.plan_cache.misses"),
            direct_requests: registry.counter("serve.direct.requests"),
            executing: registry.gauge("serve.executing"),
            queue_seconds: registry.histogram("serve.queue_seconds"),
            latency_seconds: registry.histogram("serve.latency_seconds"),
            registry,
        }
    }

    /// Open the lifecycle trace for one admitted request: the `query`
    /// root with a closed `admit` child and the still-open `queue` child,
    /// whose lifetime is the gap between admission and the start of work.
    fn begin(&self, req: &QueryRequest, in_flight: usize) -> (Span, Span) {
        let trace = Trace::new(self.registry.clone());
        let mut root = trace.span("query");
        root.attr("tenant", req.tenant.clone());
        root.attr("query", req.query.kind());
        root.child("admit").attr("in_flight", in_flight);
        let queue = root.child("queue");
        (root, queue)
    }
}

/// The serving plane's front door. See the [module docs](self) for the
/// request lifecycle; see [`QueryRequest`] for what a request carries.
/// It owns no thread: share it by reference across the threads that call
/// [`run_blocking`](Self::run_blocking).
pub struct Session {
    cluster: Cluster,
    cfg: SessionConfig,
    /// Requests executing right now: the admission gate's one count.
    in_flight: AtomicUsize,
    caches: Mutex<Caches>,
    telemetry: Telemetry,
}

impl Session {
    /// A session executing on `cluster` with the given knobs.
    pub fn new(cluster: Cluster, cfg: SessionConfig) -> Self {
        Session {
            cluster,
            cfg,
            in_flight: AtomicUsize::new(0),
            caches: Mutex::default(),
            telemetry: Telemetry::new(),
        }
    }

    /// A session over a default [`Cluster`] with default knobs.
    pub fn with_defaults() -> Self {
        Session::new(Cluster::default(), SessionConfig::default())
    }

    /// Admit a request and serve it on the calling thread, or refuse it
    /// right now.
    ///
    /// Admission is the only place the session says no for load reasons:
    /// with [`SessionConfig::max_in_flight`] requests executing, the call
    /// returns [`Error::Overloaded`] at once. Past this gate the request
    /// *will* execute (or report a typed execution error), with no
    /// cross-thread handoff: this thread runs the plan's items itself,
    /// beside at most `min(items, workers) − 1` pool helpers, and a
    /// one-item run (a one-shard plan whose unit is one group of stored
    /// partitions) touches no pool worker at all.
    pub fn run_blocking(&self, req: QueryRequest) -> Result<QueryResponse> {
        let slot = self.admit_slot()?;
        // Nothing waits between admission and work, so the queue span
        // closes (honestly) near-instantly.
        let (root, queue) = self.telemetry.begin(&req, slot.in_flight);
        let queue_seconds = queue.elapsed_s();
        queue.finish();
        let result = execute(self, &req, queue_seconds, root);
        self.telemetry.queries.inc();
        drop(slot);
        result
    }

    /// Take an in-flight slot, or refuse: [`Error::Overloaded`] with
    /// [`SessionConfig::max_in_flight`] requests executing.
    fn admit_slot(&self) -> Result<Slot<'_>> {
        let capacity = self.cfg.max_in_flight;
        let admitted =
            self.in_flight.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| admit(n, capacity));
        let in_flight = admitted.map_err(|in_flight| {
            self.telemetry.rejected.inc();
            Error::Overloaded { in_flight, capacity }
        })?;
        self.telemetry.executing.add(1);
        Ok(Slot { session: self, in_flight })
    }

    /// Requests executing right now.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// The session's metrics registry: queue/latency histograms,
    /// admission and plan-cache counters and the fabric's retransmit
    /// counter all land here — a fixed set of names, whatever tenants the
    /// callers send (the tenant rides each response and trace). Snapshot it
    /// ([`Registry::snapshot`]) for a deterministic, name-ordered view.
    pub fn registry(&self) -> &Registry {
        &self.telemetry.registry
    }

    /// The ring buffer of the 64 most recently completed query traces.
    /// Each entry is one request's closed trace: the flat records its
    /// response reads, shared, not a copy. A reader built from the sink
    /// builds its own tree of the full lifecycle when first read.
    pub fn traces(&self) -> &TraceSink {
        &self.telemetry.sink
    }

    /// Admission, completion, and held-layout counters — read off the
    /// registry's `serve.*` counters.
    pub fn stats(&self) -> SessionStats {
        let t = &self.telemetry;
        SessionStats {
            completed: t.queries.get(),
            rejected: t.rejected.get(),
            plan_hits: t.plan_hits.get(),
            plan_misses: t.plan_misses.get(),
        }
    }
}

/// An admitted request's in-flight slot. Dropping it gives the slot back
/// and lowers `serve.executing`, so a panic on the caller's thread past
/// admission releases it too.
struct Slot<'a> {
    session: &'a Session,
    /// Requests in flight when this one was admitted.
    in_flight: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.session.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.session.telemetry.executing.add(-1);
    }
}

/// Take the session's lock. A lock a panicking thread poisoned is taken
/// back as it stands: its critical sections run no caller code and leave
/// no entry half-written, so that panic fails no other request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serve one admitted request and close out its trace — on *both* arms:
/// a request that fails with a typed error still closes its trace into
/// the sink (root attr `error`) and still counts in
/// `serve.latency_seconds`, so the trace plane and the latency histogram
/// account for every request `serve.queries` does. Closing checks and
/// moves the records; no tree is built here. Runs on the caller's thread.
fn execute(
    session: &Session,
    req: &QueryRequest,
    queue_seconds: f64,
    mut root: Span,
) -> Result<QueryResponse> {
    let mut result = serve(session, req, queue_seconds, &mut root);
    if let Err(e) = &result {
        root.attr("error", e.to_string());
    }
    // The root span opened at admission, so its age is queue + execute —
    // exactly the client-observed latency.
    let latency = root.elapsed_s();
    session.telemetry.latency_seconds.observe(latency);
    let trace = root.trace().clone();
    root.finish();
    let trace = trace.close().ok();
    if let Some(closed) = &trace {
        session.telemetry.sink.push(closed);
    }
    if let Ok(resp) = &mut result {
        resp.trace = trace;
    }
    result
}

/// Resolve plan → arm → layout, execute on the chosen path, and
/// stamp the serving fields. The response's `trace` is filled in by the
/// caller once the root span has closed.
///
/// A layout is an investment only a key that comes back repays, so which
/// layout a request runs depends on what the session holds for its key:
/// nothing — run the tables whole, on one shard, and note the key seen;
/// the whole layout — route its rows over the cores and hold; a routed
/// layout — run it. A pinned shard count routes a layout of its own and
/// holds nothing. Each of those decisions is one critical section of
/// the [`lifecycle`](crate::lifecycle) (`sight`, then `settle`); this
/// function performs what they ask for. The arm is the request's alone
/// ([`arm_of`]).
fn serve(
    session: &Session,
    req: &QueryRequest,
    queue_seconds: f64,
    root: &mut Span,
) -> Result<QueryResponse> {
    session.telemetry.queue_seconds.observe(queue_seconds);
    let (key, capacity) = (Key::of(req), session.cfg.plan_cache_capacity);

    // 1. The layout: a pin's own, else by what the session holds for the
    // key: routed, whole or nothing; the sight that claims a whole key
    // names its routed layout.
    let mut plan_span = root.child("plan");
    let workers = WorkerPool::global().workers();
    let sight = lock(&session.caches).sight(&key, req.shards, workers);
    let claim = Claim::of(&session.caches, &key, &sight);
    plan_span.attr("cache", sight.label());
    if sight.plan_cached() {
        session.telemetry.plan_hits.inc();
    } else if matches!(sight, Sight::Routing { .. }) {
        session.telemetry.plan_misses.inc();
    }
    plan_span.finish();

    // 2. The arm: the request's pins, else direct. Nothing is learned.
    let mut choose_span = root.child("choose");
    let chosen = arm_of(req);
    choose_span.attr("arm", chosen.label());
    choose_span.finish();

    // 3. Execute: resolve the laid-out plan, then run it on the arm with
    // the `execute` span as the run's parent, so the run's items (on this
    // thread, and on pool helpers beside it for more than one item) and
    // the merge trace themselves under it.
    let mut exec_span = root.child("execute");
    exec_span.attr("path", chosen.path.label());
    if chosen.path == ExecPath::Direct {
        session.telemetry.direct_requests.inc();
    }

    // The session lays out once: both paths run off the same resident
    // units. First sight's one shard is the tables themselves — there is
    // nothing to route (a direct run folds their stored partitions in
    // groups), and nothing to hold until the run has answered. A
    // routed layout is held before it runs, so a racing sight runs it
    // rather than route it again. (A second sight cannot fail here: first
    // sight checked the request against these very tables.) A pin's layout
    // is its own: routed for this request, held by nobody.
    let right = req.right.as_ref();
    let lay = |shards| ExecPlan::new(&session.cluster, &req.query, &req.left, right, shards);
    let plan = match &sight {
        Sight::Warm(plan) | Sight::Racing(plan) => Arc::clone(plan),
        Sight::First => Arc::new(lay(1)?),
        Sight::Pinned(shards) | Sight::Routing { shards, .. } => {
            let mut route_span = exec_span.child("route");
            let plan = Arc::new(lay(*shards)?);
            route_span.attr("shards", plan.shards());
            route_span.finish();
            plan
        }
    };
    claim.settle(&plan, capacity);
    let parent = exec_span.context();
    let run = cheetah_runtime::execute(&session.cluster, &plan, chosen, Some(&parent))?;
    let (output, mut breakdown, switch_stats) = (run.output, run.breakdown, run.switch_stats);
    // The engine the run recorded — the interpreter, for a family with
    // no kernel, whatever was chosen.
    let arm = ChooserArm { backend: breakdown.backend, ..chosen };
    if arm.path != ExecPath::Direct {
        exec_span.attr("backend", arm.backend.label());
    }
    exec_span.attr("shards", breakdown.shards);
    exec_span.finish();

    // 4. Respond: at first sight, note the key seen (unless a racing
    // request already has); then stamp the serving fields the caller sees.
    let respond_span = root.child("respond");
    if matches!(sight, Sight::First) {
        lock(&session.caches).settle(&key, None, &plan, capacity);
    }
    breakdown.queue_seconds = queue_seconds;
    breakdown.tenant = req.tenant.clone();
    respond_span.finish();

    let plan_cached = sight.plan_cached();
    root.attr("arm", arm.label());
    root.attr("plan_cached", plan_cached);
    Ok(QueryResponse { output, breakdown, switch_stats, arm, plan_cached, trace: None })
}

/// A routing sight's claim on its key, held from the sight until it
/// settles. Dropped unsettled — the request unwinding from a panic, or
/// returning an error, between the two — it releases the claim
/// ([`Caches::release`]), so the key is whole again and a later sight
/// routes it, rather than racing a route nobody will finish until the key
/// is evicted. Any other sight claims nothing, and its guard does nothing.
struct Claim<'a> {
    caches: &'a Mutex<Caches>,
    key: &'a Key,
    /// The claimed whole layout, until it settles or is released.
    claim: Option<Arc<ExecPlan>>,
}

impl<'a> Claim<'a> {
    fn of(caches: &'a Mutex<Caches>, key: &'a Key, sight: &Sight) -> Self {
        let claim = match sight {
            Sight::Routing { claim, .. } => Some(Arc::clone(claim)),
            _ => None,
        };
        Claim { caches, key, claim }
    }

    /// Hold `plan`, the routed layout, while the claim stands
    /// ([`Caches::settle`]).
    fn settle(mut self, plan: &Arc<ExecPlan>, capacity: usize) {
        if let Some(claim) = self.claim.take() {
            lock(self.caches).settle(self.key, Some(&claim), plan, capacity);
        }
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if let Some(claim) = self.claim.take() {
            lock(self.caches).release(self.key, &claim);
        }
    }
}

/// The arm chosen for a request: a function of the request alone. A path
/// pin names its path. A backend pin names a pruning engine and a shard
/// pin a layout of the request's own, and either asks for the pruned arm:
/// the barrier, on the pinned backend or else the compiled one (the
/// cheapest pruned point on every benchmark workload). Anything else runs
/// direct: on every key the benchmark sends, the arm census measured the
/// switch using more CPU than it saves (see the [module docs](self)). The
/// direct arm runs no engine, so it reads `Interpreted`. This is what was
/// asked for; the response reports what ran, which for a family with no
/// kernel is the interpreter.
fn arm_of(req: &QueryRequest) -> ChooserArm {
    let pruned = req.backend.is_some() || req.shards.is_some();
    let unpinned = if pruned { ExecPath::BarrierPooled } else { ExecPath::Direct };
    let path = req.path.unwrap_or(unpinned);
    let backend = match path {
        ExecPath::Direct => ExecBackend::Interpreted,
        _ => req.backend.unwrap_or(ExecBackend::Compiled),
    };
    ChooserArm { path, backend }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{Entry, Stage};
    use cheetah_db::planner::ROWS_PER_UNIT;
    use cheetah_db::{
        Column, DataType, DbPredicate, DbQuery, Dictionary, IntCmp, LikePattern, Partition,
        TableBuilder, Value,
    };
    use std::sync::Barrier;

    fn table(rows: usize, parts: usize, seed: u64) -> Arc<Table> {
        let mut b = TableBuilder::new(
            "t",
            vec![
                ("key".into(), DataType::Str),
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Int),
            ],
            rows.div_ceil(parts).max(1),
        );
        let mut x = seed | 1;
        for i in 0..rows {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            b.push_row(vec![
                Value::Str(format!("key-{}", x % 37)),
                Value::Int((x % 10_000) as i64),
                Value::Int((i % 500) as i64),
            ]);
        }
        Arc::new(b.build())
    }

    /// One query of each family over [`table`]'s columns: the four with a
    /// compiled kernel, then TOP N, JOIN and HAVING.
    fn families() -> [DbQuery; 7] {
        [
            DbQuery::FilterCount {
                pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 9_000 },
            },
            DbQuery::Distinct { col: 0 },
            DbQuery::GroupByMax { key_col: 0, val_col: 1 },
            DbQuery::Skyline { cols: vec![1, 2] },
            DbQuery::TopN { order_col: 1, n: 17 },
            DbQuery::Join { left_key: 0, right_key: 0 },
            DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 100_000 },
        ]
    }

    /// A HAVING the switch cannot decide (`c < 0`) is refused by the
    /// request check before either arm runs, so every sight of it fails
    /// alike, typed, and the key is never held: no sight answers direct
    /// and then fails pruned for ever after.
    #[test]
    fn a_negative_having_threshold_fails_every_sight_alike_and_holds_nothing() {
        let t = table(300, 2, 9);
        let session = Session::with_defaults();
        let q = DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: -1 };
        let errors: Vec<Error> = (0..3)
            .map(|_| {
                session.run_blocking(QueryRequest::new(q.clone(), Arc::clone(&t))).unwrap_err()
            })
            .collect();
        let Error::Exec(first) = &errors[0] else { panic!("a typed refusal: {:?}", errors[0]) };
        assert!(first.to_string().contains("negative c"), "{first}");
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        assert!(session.caches.lock().unwrap().map.is_empty(), "no entry is held");
    }

    /// The response and the sink share one record set, not two copies.
    /// The sink keeps the newest [`TRACE_CAPACITY`] traces, counts every
    /// push, and a failed request pushes its trace too.
    #[test]
    fn the_response_and_the_sink_share_one_record_set_and_the_sink_is_bounded() {
        let t = table(300, 2, 3);
        let session = Session::with_defaults();
        let traces = session.traces();
        let pushes = TRACE_CAPACITY + 5;
        for i in 0..pushes {
            let req = QueryRequest::new(DbQuery::Distinct { col: 0 }, Arc::clone(&t));
            let trace = session.run_blocking(req).unwrap().trace.expect("trace closes");
            assert!(trace == traces.last().expect("pushed"), "request {i}");
        }
        assert_eq!((traces.len(), traces.pushed()), (TRACE_CAPACITY, pushes as u64));
        let q = DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: -1 };
        let error = session.run_blocking(QueryRequest::new(q, Arc::clone(&t))).unwrap_err();
        assert_eq!((traces.len(), traces.pushed()), (TRACE_CAPACITY, pushes as u64 + 1));
        let root = &traces.last().expect("a failed request pushes its tree").root;
        assert_eq!(root.attr("error"), Some(error.to_string().as_str()));
    }

    /// The layout the session holds for `req`'s key, if any.
    fn held(session: &Session, req: &QueryRequest) -> Option<Arc<ExecPlan>> {
        let caches = session.caches.lock().unwrap();
        caches.map.get(&Key::of(req)).map(|e| Arc::clone(&e.plan))
    }

    fn has_route_span(resp: &QueryResponse) -> bool {
        resp.trace.as_ref().expect("trace exports").root.find("route").is_some()
    }

    #[test]
    fn pinned_requests_run_exactly_the_requested_arm() {
        let t = table(1_500, 3, 5);
        let session = Session::with_defaults();
        let distinct = || QueryRequest::new(DbQuery::Distinct { col: 0 }, Arc::clone(&t));
        let path = ExecPath::BarrierPooled;
        for backend in [ExecBackend::Interpreted, ExecBackend::Compiled] {
            let resp =
                session.run_blocking(distinct().path(path).backend(backend).shards(4)).unwrap();
            assert_eq!(resp.arm, ChooserArm { path, backend });
            assert_eq!(resp.breakdown.shards, 4);
            assert_eq!(resp.breakdown.backend, backend);
            assert!(!resp.plan_cached, "pinned shards never consult the plan cache");
        }
        // The direct arm runs no engine, whatever backend rides along.
        let resp = session.run_blocking(distinct().path(ExecPath::Direct).shards(4)).unwrap();
        assert_eq!((resp.arm.label(), resp.breakdown.shards), ("direct", 4));
        assert_eq!(resp.switch_stats.pruned, 0);

        // Unpinned, the arm is direct at every sight — whole at the first,
        // on the routed layout from the second — with nothing measured or
        // decided: no `rule` span. The self-join, which has no kernel, runs
        // direct like the rest.
        let join = DbQuery::Join { left_key: 0, right_key: 0 };
        let join = || QueryRequest::new(join.clone(), Arc::clone(&t)).with_right(Arc::clone(&t));
        for sight in 1..=3 {
            for req in [distinct(), join()] {
                let resp = session.run_blocking(req).unwrap();
                assert_eq!(resp.arm.label(), "direct", "sight {sight}");
                assert_eq!(resp.breakdown.backend, ExecBackend::Interpreted);
                assert_eq!(resp.switch_stats.pruned, 0, "sight {sight}: no switch ran");
                let tree = resp.trace.as_ref().expect("trace exports");
                assert!(tree.root.find("rule").is_none(), "sight {sight}: nothing decides");
                assert_eq!(has_route_span(&resp), sight == 2, "sight {sight}: routed once");
            }
        }
        // A pin to the compiled backend cannot conjure a kernel either —
        // and, naming a pruning engine, it asks for a pruned arm.
        let resp = session.run_blocking(join().backend(ExecBackend::Compiled)).unwrap();
        assert_eq!(resp.arm.label(), "pooled/interp");
        assert_eq!(resp.breakdown.backend, ExecBackend::Interpreted);

        // The whole function: a path pin's path; a backend or shard pin
        // asks for pruning, on the pinned backend or else the compiled one;
        // else direct.
        for (req, arm) in [
            (distinct(), "direct"),
            (distinct().path(ExecPath::BarrierPooled), "pooled/compiled"),
            (distinct().backend(ExecBackend::Interpreted), "pooled/interp"),
            (distinct().shards(4), "pooled/compiled"),
            (distinct().shards(4).backend(ExecBackend::Interpreted), "pooled/interp"),
            (distinct().shards(4).path(ExecPath::Direct), "direct"),
            (distinct().path(ExecPath::Direct).backend(ExecBackend::Compiled), "direct"),
        ] {
            assert_eq!(arm_of(&req).label(), arm, "{req:?}");
        }
    }

    #[test]
    fn a_response_reports_the_engine_its_run_recorded() {
        // Under a compiled pin every family answers like the baseline, and
        // its arm names the engine the run recorded: the kernel where
        // `CompiledProgram::compile` has one, else the interpreter. The
        // `choose` span keeps the arm chosen; `execute` and the root say
        // what ran, as the response does.
        use ExecBackend::{Compiled, Interpreted};
        let t = table(1_500, 3, 11);
        let cluster = Cluster::default();
        let session = Session::new(cluster.clone(), SessionConfig::default());
        let engines =
            [Compiled, Compiled, Compiled, Compiled, Interpreted, Interpreted, Interpreted];
        for (q, ran) in families().into_iter().zip(engines) {
            let kind = q.kind();
            let right = q.is_binary().then(|| Arc::clone(&t));
            let want = cluster.run_baseline(&q, &t, right.as_deref()).output;
            let mut req = QueryRequest::new(q, Arc::clone(&t)).backend(Compiled);
            if let Some(right) = right {
                req = req.with_right(right);
            }
            let resp = session.run_blocking(req).unwrap();
            assert_eq!(resp.output, want, "{kind}");
            let arm = ChooserArm { path: ExecPath::BarrierPooled, backend: ran };
            assert_eq!(resp.arm, arm, "{kind}");
            assert_eq!(resp.arm.backend, resp.breakdown.backend, "{kind}");
            let root = &resp.trace.as_ref().expect("trace exports").root;
            let exec = root.find("execute").expect("lifecycle span");
            assert_eq!(exec.attr("backend"), Some(ran.label()), "{kind}");
            assert_eq!(root.attr("arm"), Some(arm.label()), "{kind}");
            let choose = root.find("choose").expect("lifecycle span");
            assert_eq!(choose.attr("arm"), Some("pooled/compiled"), "{kind}: the arm chosen");
        }
    }

    #[test]
    fn a_pinned_shard_count_past_the_cap_runs_at_the_cap() {
        // A thousand shards would be a thousand units of scratch and pool
        // jobs over forty rows; the pin is cut to `MAX_SHARDS`.
        let t = table(40, 1, 7);
        let q = DbQuery::Distinct { col: 0 };
        let want = Cluster::default().run_baseline(&q, &t, None).output;
        let session = Session::with_defaults();
        let resp = session.run_blocking(QueryRequest::new(q, t).shards(1_000)).unwrap();
        assert_eq!(resp.breakdown.shards as usize, cheetah_db::planner::MAX_SHARDS);
        assert_eq!(resp.output, want);
    }

    #[test]
    fn a_returning_keys_layout_is_its_rows_over_the_cores() {
        let cluster = Cluster::default();
        let session = Session::new(cluster.clone(), SessionConfig::default());
        let workers = WorkerPool::global().workers();
        // Under ROWS_PER_UNIT rows, one unit: the caller's table itself. Its
        // references are the caller's, the held key's two (in the map and
        // in the eviction order) and the one unit; a copied unit would hold
        // none.
        let small = table(ROWS_PER_UNIT - 1, 2, 3);
        let q = DbQuery::Distinct { col: 0 };
        for _sight in 1..=2 {
            session.run_blocking(QueryRequest::new(q.clone(), Arc::clone(&small))).unwrap();
        }
        let req = QueryRequest::new(q.clone(), Arc::clone(&small));
        let layout = held(&session, &req).expect("the second sight holds a layout");
        drop(req);
        assert_eq!(layout.shards(), 1);
        assert_eq!(Arc::strong_count(&small), 4, "the one unit is the caller's table");

        // Past two units' rows, rows / ROWS_PER_UNIT units, at most two per
        // worker, both streams counted; every family answers like the
        // baseline from it, routed and then warm.
        let big = table(2 * ROWS_PER_UNIT + 1_000, 4, 5);
        for q in families() {
            let kind = q.kind();
            let want = cluster.run_baseline(&q, &big, q.is_binary().then_some(&*big)).output;
            // A unary query's request keeps no right table.
            let req =
                || QueryRequest::new(q.clone(), Arc::clone(&big)).with_right(Arc::clone(&big));
            for sight in 1..=3 {
                assert_eq!(session.run_blocking(req()).unwrap().output, want, "{kind} {sight}");
            }
            let rows = big.rows() * if q.is_binary() { 2 } else { 1 };
            let layout = held(&session, &req()).expect("held");
            let units = (rows / ROWS_PER_UNIT).clamp(1, 2 * workers);
            assert_eq!((layout.shards(), units > 1), (units, true), "{kind}");
        }
    }

    /// A table built from a coded partition holds its string column as
    /// codes into a dictionary, and routing reads them through it: every
    /// sight, and a shard pin, answers like the baseline and leaves nothing
    /// in flight.
    #[test]
    fn a_table_loaded_as_codes_answers_at_every_sight_and_under_a_pin() {
        let rows = 3 * ROWS_PER_UNIT;
        let dict: Vec<String> = (0..97).map(|i| format!("k{i}")).collect();
        let dict = Arc::new(Dictionary::from(dict));
        let codes = (0..rows).map(|r| (r * 31 % 97) as u32).collect();
        let cols = vec![Column::Dict { codes, dict }, Column::Int((0..rows as i64).collect())];
        let fields = vec![("k".into(), DataType::Str), ("n".into(), DataType::Int)];
        let t = Arc::new(Table::from_partition("coded", fields, Partition::new(cols)));
        let q = DbQuery::Distinct { col: 0 };
        let want = Cluster::default().run_baseline(&q, &t, None).output;
        let session = Session::with_defaults();
        let req = || QueryRequest::new(q.clone(), Arc::clone(&t));
        for (sight, req) in [(1, req()), (2, req()), (3, req()), (4, req().shards(3))] {
            let resp = session.run_blocking(req).unwrap_or_else(|e| panic!("sight {sight}: {e}"));
            assert_eq!(resp.output, want, "sight {sight}");
            assert_eq!(session.in_flight(), 0, "sight {sight}");
        }
    }

    #[test]
    fn a_returning_join_on_a_plain_string_key_is_held_as_several_units() {
        // 20 000 / 10 000 rows of near-unique URLs: far under two units'
        // rows, and too distinct for the load rule to code. Held as one
        // unit, every warm sight would JOIN the caller's plain strings; the
        // served layout is at least two units, whose keys routing codes
        // (the runtime's `a_served_join_on_plain_string_keys_routes_codes`).
        let urls = |rows: usize, step: usize| {
            let fields = vec![("url".into(), DataType::Str), ("n".into(), DataType::Int)];
            let mut b = TableBuilder::new("urls", fields, 4_096);
            for i in 0..rows {
                b.push_row([Value::Str(format!("http://x/{}", i * step % 30_011)), Value::Int(1)]);
            }
            Arc::new(b.build())
        };
        let (left, right) = (urls(20_000, 1), urls(10_000, 3));
        assert!(!left.is_coded(0) && !right.is_coded(0), "fixture: the load rule leaves them");
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let cluster = Cluster::default();
        let want = cluster.run_baseline(&q, &left, Some(&*right)).output;
        let session = Session::new(cluster, SessionConfig::default());
        let req = || QueryRequest::new(q.clone(), Arc::clone(&left)).with_right(Arc::clone(&right));
        for sight in 1..=3 {
            assert_eq!(session.run_blocking(req()).unwrap().output, want, "sight {sight}");
        }
        let layout = held(&session, &req()).expect("held");
        assert!(layout.shards() >= 2, "{} units", layout.shards());
    }

    #[test]
    fn a_key_is_the_query_and_the_tables_it_reads() {
        let (t, other) = (table(10, 1, 1), table(10, 1, 2));
        let req = |q: DbQuery| QueryRequest::new(q, Arc::clone(&t));
        let gt = |col, lit| DbQuery::FilterCount {
            pred: DbPredicate::CmpInt { col, op: IntCmp::Gt, lit },
        };
        let like = |pattern| DbQuery::FilterCount {
            pred: DbPredicate::Like { col: 0, pattern: LikePattern::parse(pattern) },
        };
        let top = |n| DbQuery::TopN { order_col: 1, n };
        assert_eq!(Key::of(&req(like("key-1%"))), Key::of(&req(like("key-1%"))));
        for (a, b) in [
            (gt(1, 5), gt(1, 6)),
            (gt(1, 5), gt(2, 5)),
            (top(5), top(6)),
            (like("key-1%"), like("%key-1")),
        ] {
            assert_ne!(Key::of(&req(a.clone())), Key::of(&req(b)), "{a:?}");
        }
        // A pinned shard count is no part of the key: a pin never reads the map.
        assert_eq!(Key::of(&req(top(5)).shards(3)), Key::of(&req(top(5))));
        assert_ne!(Key::of(&req(top(5))), Key::of(&QueryRequest::new(top(5), Arc::clone(&other))));
        // A unary query reads one table, whatever rides along; JOIN reads two.
        assert_eq!(Key::of(&req(top(5)).with_right(Arc::clone(&other))), Key::of(&req(top(5))));
        let join = || req(DbQuery::Join { left_key: 0, right_key: 0 });
        assert_ne!(Key::of(&join().with_right(other)), Key::of(&join().with_right(t.clone())));
    }

    #[test]
    fn racing_second_sights_make_one_route() {
        let cluster = Cluster::default();
        let t = table(4_000, 4, 17);
        let q = DbQuery::Distinct { col: 0 };
        let want = cluster.run_baseline(&q, &t, None).output;
        let req = || QueryRequest::new(q.clone(), Arc::clone(&t));
        for round in 0..20 {
            let session = Session::new(cluster.clone(), SessionConfig::default());
            assert_eq!(session.run_blocking(req()).unwrap().output, want, "round {round}");
            // Eight threads, each sending the key's second and third sight
            // on its own thread, all started together. However they
            // interleave — claiming the key's route, racing that claim (run
            // whole) or finding the layout it held — one of them routes,
            // every one runs direct and answers, and none decides anything.
            let gate = Barrier::new(8);
            let ask = || {
                gate.wait();
                [(); 2].map(|()| session.run_blocking(req()))
            };
            let sights = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..8).map(|_| scope.spawn(ask)).collect();
                racers.into_iter().map(|r| r.join().expect("racer thread")).collect::<Vec<_>>()
            });
            let (mut routes, mut rules) = (0, 0);
            for resp in sights.into_iter().flatten().map(Result::unwrap) {
                assert_eq!((&resp.output, resp.arm.label()), (&want, "direct"), "{round}");
                routes += usize::from(has_route_span(&resp));
                rules +=
                    usize::from(resp.trace.expect("trace exports").root.find("rule").is_some());
            }
            assert_eq!((routes, rules), (1, 0), "round {round}: one route, no rule span");
            assert_eq!(session.stats().plan_misses, 1, "round {round}: one routing sight");
            let caches = session.caches.lock().unwrap();
            assert_eq!((caches.map.len(), caches.order.len()), (1, 1), "round {round}");
            let entry = caches.map.values().next().expect("one entry");
            assert_eq!(entry.stage, Stage::Routed, "round {round}");
        }
    }

    #[test]
    fn racing_sights_all_answer_and_leave_one_warm_entry_per_key() {
        // Two same-named, same-sized tables under one query: two keys,
        // whose first sights race for their entry and whose second sights
        // race for their key's route.
        let cluster = Cluster::default();
        let tables = [table(4_000, 4, 17), table(4_000, 4, 71)];
        let q = DbQuery::Distinct { col: 0 };
        let want = tables.each_ref().map(|t| cluster.run_baseline(&q, t, None).output);
        let req = |i: usize| QueryRequest::new(q.clone(), Arc::clone(&tables[i % 2]));
        for round in 0..20 {
            let session = Session::new(cluster.clone(), SessionConfig::default());
            // Each sight starts together, each request on its caller's
            // thread. However first sights interleave (all finding the key
            // absent, or some another's whole entry), and the sights after
            // them (claiming the route, racing the claim, or the key
            // already routed), all answer, and once every racer is done
            // every key is routed.
            let gate = Barrier::new(8);
            let ask = |racer: usize| {
                gate.wait();
                [(); 3].map(|()| session.run_blocking(req(racer)))
            };
            let sights = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..8).map(|racer| scope.spawn(move || ask(racer))).collect();
                racers.into_iter().map(|r| r.join().expect("racer thread")).collect::<Vec<_>>()
            });
            let mut routes = 0;
            for (racer, sights) in sights.into_iter().enumerate() {
                for resp in sights.map(Result::unwrap) {
                    assert_eq!(resp.output, want[racer % 2], "round {round}");
                    routes += usize::from(has_route_span(&resp));
                }
            }
            // Once routed, a key is never whole again: one route per key.
            assert_eq!(routes, 2, "round {round}");
            {
                let caches = session.caches.lock().unwrap();
                assert_eq!((caches.map.len(), caches.order.len()), (2, 2), "round {round}");
                assert!(caches.map.values().all(|e: &Entry| e.stage == Stage::Routed));
            }
            // A third sight may have raced its key's route and run whole; a
            // sight sent once the racers are done finds every key warm.
            for (i, want) in want.iter().enumerate() {
                let warm = session.run_blocking(req(i)).unwrap();
                assert!(warm.plan_cached && !has_route_span(&warm), "round {round}");
                assert_eq!(&warm.output, want, "round {round}");
            }
        }
    }

    /// Pins never enter the map: a session serving only `.shards(n)`
    /// requests holds nothing, and routes a layout of the request's own at
    /// every sight, whatever arm it pins.
    #[test]
    fn a_pin_routes_its_own_layout_at_every_sight_and_holds_nothing() {
        let t = table(1_500, 3, 5);
        let q = DbQuery::Distinct { col: 0 };
        let want = Cluster::default().run_baseline(&q, &t, None).output;
        let session = Session::with_defaults();
        for shards in [1, 4, 1, 4] {
            for path in [ExecPath::BarrierPooled, ExecPath::Direct] {
                let req = QueryRequest::new(q.clone(), Arc::clone(&t)).shards(shards).path(path);
                let resp = session.run_blocking(req).unwrap();
                assert_eq!((&resp.output, resp.breakdown.shards as usize), (&want, shards));
                let tree = resp.trace.as_ref().expect("trace exports");
                let route = tree.root.find("route").and_then(|r| r.attr("shards"));
                assert_eq!(route, Some(shards.to_string().as_str()), "a route at every sight");
                let plan = tree.root.find("plan").and_then(|p| p.attr("cache"));
                assert_eq!((plan, resp.plan_cached), (Some("pinned"), false));
            }
        }
        let caches = session.caches.lock().unwrap();
        assert!(caches.map.is_empty() && caches.order.is_empty(), "no entry is held");
        assert_eq!((session.stats().plan_hits, session.stats().plan_misses), (0, 0));
    }

    #[test]
    fn layout_cache_retains_its_tables_so_addresses_are_never_reused() {
        // The map is keyed on table addresses, so a held key must keep its
        // tables alive: a freed address could be handed to a *different*
        // table, which would then be served the old table's layout. A
        // self-JOIN on near-unique strings is held as several units, fresh
        // copies of its columns, so only the key holds the table.
        let urls = |rows: usize, seed: usize| {
            let fields = vec![("url".into(), DataType::Str), ("n".into(), DataType::Int)];
            let mut b = TableBuilder::new("urls", fields, 256);
            for i in 0..rows {
                b.push_row([Value::Str(format!("http://x/{}", i * seed % 1_009)), Value::Int(1)]);
            }
            Arc::new(b.build())
        };
        let cluster = Cluster::default();
        let session = Session::new(cluster.clone(), SessionConfig::default());
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let req =
            |t: &Arc<Table>| QueryRequest::new(q.clone(), Arc::clone(t)).with_right(t.clone());
        let baseline = |t: &Table| cluster.run_baseline(&q, t, Some(t)).output;

        let first = urls(1_000, 7);
        let want = baseline(&first);
        for sight in 1..=3 {
            let resp = session.run_blocking(req(&first)).unwrap();
            assert_eq!((resp.output == want, has_route_span(&resp)), (true, sight == 2));
        }
        let layout = held(&session, &req(&first)).expect("routed at second sight");
        assert!(layout.shards() >= 2, "copied units: {} of them", layout.shards());
        let held = Arc::downgrade(&first);
        drop(first);
        assert!(held.upgrade().is_some(), "the held key must retain its table");

        // A second, different table: its own entry, its own answer.
        let second = urls(700, 13);
        for sight in 1..=2 {
            let resp = session.run_blocking(req(&second)).unwrap();
            assert_eq!(has_route_span(&resp), sight == 2, "never the first table's entry");
            assert_eq!(resp.output, baseline(&second));
            assert_ne!(resp.output, want, "fixture tables must differ for the test to bite");
        }
        assert_eq!(session.caches.lock().unwrap().map.len(), 2);
    }

    #[test]
    fn layout_cache_is_bounded_and_evicting_a_key_frees_its_plan_and_its_table() {
        // Every entry pins its source tables and its layout: a session that
        // keeps seeing rebuilt tables must not grow without limit.
        let cluster = Cluster::default();
        let cfg = SessionConfig { plan_cache_capacity: 2, ..SessionConfig::default() };
        let session = Session::new(cluster.clone(), cfg);
        let q = DbQuery::Distinct { col: 1 };
        let mut first = None;
        for (rows, seed) in [(800, 3), (1_600, 99), (3_200, 1234)] {
            let t = table(rows, 2, seed);
            let req = || QueryRequest::new(q.clone(), Arc::clone(&t));
            for _sight in 1..=2 {
                let resp = session.run_blocking(req()).unwrap();
                assert_eq!(resp.output, cluster.run_baseline(&q, &t, None).output);
            }
            let layout = held(&session, &req()).expect("routed at second sight");
            first.get_or_insert_with(|| (Arc::downgrade(&t), Arc::downgrade(&layout)));
        }
        assert_eq!(session.stats().plan_misses, 3);
        assert_eq!(session.caches.lock().unwrap().map.len(), 2);
        let (table, layout) = first.unwrap();
        assert!(table.upgrade().is_none(), "the evicted entry must free its table");
        assert!(layout.upgrade().is_none(), "…and its layout");
    }

    /// A panic on the caller's thread between admission and completion
    /// unwinds through the admitted slot, which gives the slot back.
    #[test]
    fn a_panic_past_admission_gives_its_slot_back() {
        let session = Session::new(
            Cluster::default(),
            SessionConfig { max_in_flight: 1, ..SessionConfig::default() },
        );
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = session.admit_slot().expect("a free slot");
            assert_eq!(session.in_flight(), 1);
            panic!("panics past admission (expected by this test)");
        }));
        assert!(unwound.is_err());
        assert_eq!(session.in_flight(), 0);
        assert_eq!(session.registry().snapshot().gauges["serve.executing"], 0);
        // The one slot serves the next request.
        let t = table(100, 1, 5);
        session.run_blocking(QueryRequest::new(DbQuery::Distinct { col: 0 }, t)).unwrap();
    }

    /// A routing claim its request drops unsettled — a panic unwinding
    /// between sight and settle — is released: the key is whole again, and
    /// the next sight routes it and holds the layout.
    #[test]
    fn a_claim_dropped_by_unwinding_is_released_and_the_next_sight_routes() {
        let t = table(1_500, 3, 5);
        let session = Session::with_defaults();
        let req = || QueryRequest::new(DbQuery::Distinct { col: 0 }, Arc::clone(&t));
        session.run_blocking(req()).unwrap();
        let key = Key::of(&req());
        let stage = || session.caches.lock().unwrap().map.get(&key).map(|e| e.stage);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let sight = lock(&session.caches).sight(&key, None, 2);
            assert!(matches!(sight, Sight::Routing { .. }), "the second sight claims");
            let _claim = Claim::of(&session.caches, &key, &sight);
            assert_eq!(stage(), Some(Stage::Routing));
            panic!("unwinds between sight and settle (expected by this test)");
        }));
        assert!(unwound.is_err());
        assert_eq!(stage(), Some(Stage::Whole), "the claim is released");
        let resp = session.run_blocking(req()).unwrap();
        assert!(has_route_span(&resp), "the next sight routes");
        assert_eq!(stage(), Some(Stage::Routed), "and holds");
        assert!(session.run_blocking(req()).unwrap().plan_cached);
    }

    #[test]
    fn a_thread_that_panics_holding_a_session_lock_fails_no_other_request() {
        let t = table(1_500, 3, 11);
        let session = Session::with_defaults();
        let q = DbQuery::Distinct { col: 0 };
        let want = Cluster::default().run_baseline(&q, &t, None).output;
        // One thread panics holding the caches lock (the panic message on
        // stderr is expected).
        std::thread::scope(|scope| {
            let caches = scope.spawn(|| {
                let _held = session.caches.lock().unwrap();
                panic!("panics holding the caches lock (expected by this test)");
            });
            assert!(caches.join().is_err());
        });
        assert!(session.caches.is_poisoned());
        // Every sight of a key.
        let req = || QueryRequest::new(q.clone(), Arc::clone(&t));
        for sight in 1..=3 {
            assert_eq!(session.run_blocking(req()).unwrap().output, want, "sight {sight}");
        }
    }
}
