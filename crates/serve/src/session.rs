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
//!        ┌─────────────────┐   what is held for (query, tables)?
//!        │  one entry per   │   absent ─▶ first sight: the tables run whole on one
//!        │       key        │             shard, direct — no spec, no encode, no
//!        │                  │             planner, no copy; the key is noted seen
//!        │                  │   whole ──▶ second sight: a held plan for this query
//!        │                  │             over same-named tables of like size, else
//!        │                  │             the planner; route the query's columns and
//!        │                  │             hold the layout, undecided; run it pruned to
//!        │                  │             answer, then *decide* by running it direct:
//!        │                  │             the key goes direct iff that run did less
//!        │                  │             work (its jobs' busy time, plus the merge)
//!        │                  │   routed ─▶ warm: the layout, the plan it carries and
//!        └────────┬────────┘   the verdict (a pinned shard count is routed at first sight)
//!                 ▼
//!        ┌─────────────────┐   the request's pins; else `direct` — no spec, no
//!        │       arm        │   encode, no switch — at first sight and for a key
//!        │                  │   decided so, else pooled + compiled (interpreted
//!        └────────┬────────┘   where the family has no kernel)
//!                 ▼
//!        ExecPlan ─▶ execute ──▶ QueryResponse (+ queue/tenant breakdown)
//! ```
//!
//! A routed layout is an investment — a plan fitted, every row of the
//! columns the query reads copied into per-shard units — that only a
//! repeat of the same query over the same tables pays back, and the
//! session can observe exactly that: whether it has run this query over
//! these tables before. A switch program is the same kind of investment:
//! a spec, a kernel and a register matrix, every row encoded and judged.
//! So the first run of a key costs what the query costs — the operator's
//! own completion over every row, the unaccelerated plan — and invests in
//! nothing.
//!
//! The second run is where the accelerator earns its place or loses it.
//! The paper's claim is conditional — pruning pays when the switch
//! removes work the master would otherwise do — and here the switch is
//! software on the same cores, so its per-entry cost is on the clock. The
//! second sight runs pruned, on the layout the key will keep, and answers;
//! then, under a `rule` span, it runs the same layout direct, the
//! unaccelerated plan, and compares the two runs' work
//! ([`ExecRun::work_seconds`](cheetah_runtime::ExecRun::work_seconds):
//! each shard job timed from when a worker takes it up, plus the merge).
//! The key goes direct iff the direct run did less. A job's wait for a
//! pool worker is on neither clock, so a pool busy with other requests'
//! jobs cannot decide a verdict. Nothing is extrapolated, so whatever a
//! row costs on either arm — a coded scan, a sparse selection — is what
//! the verdict weighs. The decision is written once, on the key's entry;
//! every later sight runs the layout on the arm decided, and a sight that
//! finds the layout while it is being measured runs it pruned, undecided.
//!
//! The entry is all the session knows about its key — layout, fitted
//! plan, decision — in one map under one lock, so a layout
//! cannot outlive the plan it was routed under. Routing another table
//! under a held plan is correctness-free: every total routing preserves
//! the merge (`Q(merge(shards(D))) = Q(D)`), so staleness costs balance,
//! not answers, and a row-count tolerance is an acceptable test for it.
//!
//! A request runs on its caller's thread and never on a pool worker, so a
//! session cannot deadlock the pool it feeds.

use crate::error::{Error, Result};
use crate::request::QueryRequest;
use cheetah_core::plan::ShardPlan;
use cheetah_core::ShardPartitioner;
use cheetah_db::{
    ChooserArm, Cluster, DbQuery, ExecBackend, ExecBreakdown, ExecPath, QueryOutput, ShardPlanner,
    ShardSpec, Table,
};
use cheetah_runtime::{ExecPlan, ShardLayout};
use cheetah_switch::ProgramStats;
use cheetah_telemetry::{Counter, Gauge, Histogram, Registry, Span, Trace, TraceSink, TraceTree};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Knobs of one serving session. The defaults serve a small rack: a few
/// hundred requests in flight.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Admission bound: requests executing at once. One more is refused
    /// with [`Error::Overloaded`].
    pub max_in_flight: usize,
    /// Keys the session holds an entry for — a layout, and the plan it was
    /// routed under — before evicting the oldest insertion.
    pub plan_cache_capacity: usize,
}

/// Row-count drift (fractional) beyond which a held plan is never reused
/// for another table.
const STATS_TOLERANCE: f64 = 0.35;
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
    /// Whether the request ran under a shard plan the session already
    /// held. Always `false` for a request that pinned a shard count, and
    /// at first sight of a (query, tables) key — which runs the tables
    /// whole and consults no plan; `false` once more at a second sight
    /// that had to fit one (and at one that raced it, running whole).
    pub plan_cached: bool,
    /// The query's lifecycle span tree
    /// (`admit → queue → plan → choose → execute{…} → respond`), when it
    /// exported cleanly. The same tree is retained in
    /// [`Session::traces`].
    pub trace: Option<TraceTree>,
}

/// Counters a session exposes for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Requests that completed (successfully or with an exec error).
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Unpinned requests that ran under a plan the session already held.
    pub plan_hits: u64,
    /// Second sights that went on to fit a plan. First sights consult no
    /// plan, so they are neither.
    pub plan_misses: u64,
}

impl SessionStats {
    /// Held-plan fraction (0.0 before any planner-path request).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// The table statistics a plan was fitted against. Tables are immutable,
/// so "the stats moved" means the caller swapped in a rebuilt table; row
/// counts are the signal the planner's cost model actually reads.
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

    /// Do both streams' row counts agree within a factor of
    /// `1 + tolerance`? An empty stream is like only another empty one.
    pub fn within(self, other: Self, tolerance: f64) -> bool {
        let like = |a: u64, b: u64| a.max(b) as f64 <= a.min(b) as f64 * (1.0 + tolerance);
        like(self.left_rows, other.left_rows) && like(self.right_rows, other.right_rows)
    }
}

/// What a request is, to the session: the query, the tables it reads (by
/// address) and the shard count it pins (0: none). Addresses stand in for
/// content identity — tables are immutable, so a rebuilt table is a new
/// allocation — and cannot be reused while the key is held: its entry's
/// plan holds `Arc` clones of the tables. Every lookup is confirmed with
/// [`ExecPlan::is_over`] all the same.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    query: Arc<DbQuery>,
    left: usize,
    right: usize,
    shards: usize,
}

impl Key {
    fn of(req: &QueryRequest) -> Self {
        Key {
            query: Arc::clone(&req.query),
            left: Arc::as_ptr(&req.left) as usize,
            right: req.right.as_ref().map_or(0, |r| Arc::as_ptr(r) as usize),
            shards: req.shards.unwrap_or(0),
        }
    }
}

/// Everything the session holds for one key. A key that keeps coming
/// back moves absent → whole → routed:
///
/// * **whole** — first sight ran the tables themselves, direct, on one
///   shard (no spec, no encode, no planner, no copy); `plan` is that
///   one-shard layout, and the entry records only that the key was seen;
/// * **routed** — second sight invested: `plan`'s units are fresh
///   per-shard copies of the columns the query reads, laid out under the
///   fitted shard plan it carries ([`ExecPlan::shard_plan`]) — a held
///   plan for this query over same-named tables of like size
///   ([`Caches::like`]), else the planner's. It is held before it runs,
///   undecided, and that sight — pruned, then direct, on the layout the
///   key keeps — takes the key's one arm decision. Every further
///   request runs it, on either path.
///
/// A key that pins a shard count is routed at first sight, under no plan,
/// and stays undecided: no sight of it decides.
struct Entry {
    plan: Arc<ExecPlan>,
    stage: Stage,
}

/// Where a held key stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Seen once: sights run `plan`, the tables whole, direct.
    Whole,
    /// Whole, and one second sight has claimed the key's fit and route:
    /// racing sights run it whole meanwhile, so nothing is fitted or routed
    /// twice.
    Fitting,
    /// Routed and run pruned: undecided until the deciding sight's verdict
    /// writes `Direct` — and left here by a verdict for pruning, a deciding
    /// run pinned direct (it measured no pruned run) or one that failed.
    Routed,
    /// Routed, and decided direct.
    Direct,
}

/// Which visit of its key a request is, by what the session held for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    /// Nothing held, unpinned: run the tables whole, direct; note the key
    /// seen.
    First,
    /// Nothing held, a shard count pinned: route, hold undecided.
    Pinned,
    /// The whole key claimed: route under a held like plan (`like`) or the
    /// planner's, run pruned, decide.
    Deciding { like: bool },
    /// The whole key claimed by another: run it whole, direct.
    Racing,
    /// Routed: run the held layout on the key's verdict (none if pinned).
    Warm { pinned: bool, direct: bool },
}

impl Visit {
    /// The `plan` span's `cache` attribute.
    fn label(self) -> &'static str {
        match self {
            Visit::First => "first-sight",
            Visit::Racing => "whole",
            Visit::Deciding { like: false } => "miss",
            Visit::Pinned | Visit::Warm { pinned: true, .. } => "pinned",
            Visit::Deciding { like: true } | Visit::Warm { pinned: false, .. } => "hit",
        }
    }

    /// Whether the request ran under a shard plan the session already held.
    fn plan_cached(self) -> bool {
        matches!(self, Visit::Deciding { like: true } | Visit::Warm { pinned: false, .. })
    }

    /// What the key runs unpinned: direct while it is whole and once decided
    /// so, pruned while it is routed and undecided.
    fn key_direct(self) -> bool {
        matches!(self, Visit::First | Visit::Racing | Visit::Warm { direct: true, .. })
    }
}

/// What a request runs: a held plan, or one to lay out.
enum Layout {
    Held(Arc<ExecPlan>),
    Under(ShardLayout),
}

/// The session's one map. Every entry pins its source tables, and a
/// routed one a copy of the columns its query reads, so it is bounded
/// ([`SessionConfig::plan_cache_capacity`]): `order` is the keys of `map`
/// in insertion order and the oldest goes first, which costs the warm path
/// no bookkeeping.
#[derive(Default)]
struct Caches {
    map: HashMap<Key, Entry>,
    order: VecDeque<Key>,
}

impl Caches {
    /// The entry for `key`, confirmed to be over exactly these tables.
    fn get(&self, key: &Key, left: &Arc<Table>, right: Option<&Arc<Table>>) -> Option<&Entry> {
        self.map.get(key).filter(|e| e.plan.is_over(left, right))
    }

    /// What [`get`](Self::get) finds, as it was — and a whole key found is
    /// claimed ([`Stage::Fitting`]): the caller is its deciding sight.
    fn sight(
        &mut self,
        key: &Key,
        left: &Arc<Table>,
        right: Option<&Arc<Table>>,
    ) -> Option<(Arc<ExecPlan>, Stage)> {
        let e = self.map.get_mut(key).filter(|e| e.plan.is_over(left, right))?;
        let seen = (Arc::clone(&e.plan), e.stage);
        if e.stage == Stage::Whole {
            e.stage = Stage::Fitting;
        }
        Some(seen)
    }

    /// The fitted plan of the oldest routed entry for an equal query over
    /// same-named tables with both row counts within [`STATS_TOLERANCE`]
    /// of these (a whole or pinned entry carries none). Consulted at
    /// second sight only, so a tenant's table is planned once for all of
    /// its same-sized siblings.
    fn like(&self, key: &Key, left: &Table, right: Option<&Table>) -> Option<Arc<ShardPlan>> {
        let stats = StatsFingerprint::of(left, right);
        self.order.iter().filter(|k| k.query == key.query).find_map(|k| {
            let e = &self.map[k];
            let (l, r) = e.plan.tables();
            let alike = l.name() == left.name()
                && r.map(Table::name) == right.map(Table::name)
                && StatsFingerprint::of(l, r).within(stats, STATS_TOLERANCE);
            e.plan.shard_plan().filter(|_| alike).cloned()
        })
    }

    /// Hold `entry` for `key`, and at most `capacity` entries; a key moving
    /// from whole to routed keeps its place in the eviction order.
    fn insert(&mut self, key: Key, entry: Entry, capacity: usize) {
        if self.map.insert(key.clone(), entry).is_none() {
            self.order.push_back(key);
            if self.order.len() > capacity.max(1) {
                let oldest = self.order.pop_front().expect("just pushed");
                self.map.remove(&oldest);
            }
        }
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
    /// `serve.direct.keys` — (query, tables) keys whose deciding second
    /// sight decided for the direct arm; `serve.direct.requests` —
    /// requests that ran on it: first sights, pinned or decided.
    direct_keys: Counter,
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
            direct_keys: registry.counter("serve.direct.keys"),
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
        root.attr("tenant", &req.tenant);
        root.attr("query", req.query.kind());
        {
            let mut admit = root.child("admit");
            admit.attr("in_flight", in_flight);
        }
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
    /// cross-thread handoff — and for a one-shard plan none to the worker
    /// pool either.
    pub fn run_blocking(&self, req: QueryRequest) -> Result<QueryResponse> {
        let capacity = self.cfg.max_in_flight;
        let admitted = self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < capacity).then_some(n + 1));
        let in_flight = match admitted {
            Ok(before) => before,
            Err(in_flight) => {
                self.telemetry.rejected.inc();
                return Err(Error::Overloaded { in_flight, capacity });
            }
        };
        self.telemetry.executing.add(1);
        // Nothing waits between admission and work, so the queue span
        // closes (honestly) near-instantly.
        let (root, queue) = self.telemetry.begin(&req, in_flight);
        let queue_seconds = queue.elapsed_s();
        queue.finish();
        let result = execute(self, &req, queue_seconds, root);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.telemetry.executing.add(-1);
        self.telemetry.queries.inc();
        result
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
    /// Each entry is the full lifecycle span tree of one request.
    pub fn traces(&self) -> &TraceSink {
        &self.telemetry.sink
    }

    /// Admission, completion, and held-plan counters — read off the
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

/// Take the session's lock. A lock a panicking thread poisoned is taken
/// back as it stands: its critical sections run no caller code and leave
/// no entry half-written, so that panic fails no other request.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serve one admitted request and close out its trace — on *both* arms:
/// a request that fails with a typed error still exports its span tree
/// (root attr `error`) and still counts in `serve.latency_seconds`, so
/// the trace plane and the latency histogram account for every request
/// `serve.queries` does. Runs on the caller's thread.
fn execute(
    session: &Session,
    req: &QueryRequest,
    queue_seconds: f64,
    mut root: Span,
) -> Result<QueryResponse> {
    let mut result = serve(session, req, queue_seconds, &mut root);
    if let Err(e) = &result {
        root.attr("error", e);
    }
    // The root span opened at admission, so its age is queue + execute —
    // exactly the client-observed latency.
    let latency = root.elapsed_s();
    session.telemetry.latency_seconds.observe(latency);
    let trace = root.trace().clone();
    root.finish();
    let trace = trace.export().ok();
    if let Some(tree) = &trace {
        session.telemetry.sink.push(tree.clone());
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
/// A layout — and a switch program — is an investment only a key that
/// comes back repays, so what an unpinned request does depends on what
/// the session holds for its key: nothing — run the tables whole, on one
/// shard, direct, and note the key seen; the whole layout — find or fit a
/// shard plan, route, run it pruned and decide; a routed layout — run it
/// on the arm decided.
fn serve(
    session: &Session,
    req: &QueryRequest,
    queue_seconds: f64,
    root: &mut Span,
) -> Result<QueryResponse> {
    session.telemetry.queue_seconds.observe(queue_seconds);
    let right = req.right.as_ref();
    let (key, capacity) = (Key::of(req), session.cfg.plan_cache_capacity);

    // 1. The layout, by what the session holds for the key: routed,
    // whole or nothing. Only the second sight that claims a whole key —
    // its deciding sight — fits a plan, and only with no like plan held
    // does it consult the planner.
    let mut plan_span = root.child("plan");
    let fitted = |plan| Layout::Under(ShardLayout::Fitted(plan));
    let hashed = |shards| Layout::Under(ShardSpec::new(shards, ShardPartitioner::Hash).into());
    let held = lock(&session.caches).sight(&key, &req.left, right);
    let (visit, layout) = match (held, req.shards) {
        (Some((plan, stage @ (Stage::Routed | Stage::Direct))), shards) => {
            let visit = Visit::Warm { pinned: shards.is_some(), direct: stage == Stage::Direct };
            (visit, Layout::Held(plan))
        }
        (Some((plan, Stage::Fitting)), _) => (Visit::Racing, Layout::Held(plan)),
        (Some((_, Stage::Whole)), _) => {
            let right = right.map(|r| &**r);
            let like = lock(&session.caches).like(&key, &req.left, right);
            match like {
                Some(plan) => (Visit::Deciding { like: true }, fitted(plan)),
                None => {
                    // Fitted with no lock held: the claim keeps racing
                    // sights off the key's fit.
                    let seed = session.cluster.tuning.seed;
                    let plan = ShardPlanner::default().plan(&req.query, &req.left, right, seed);
                    (Visit::Deciding { like: false }, fitted(Arc::new(plan)))
                }
            }
        }
        (None, Some(shards)) => (Visit::Pinned, hashed(shards)),
        (None, None) => (Visit::First, hashed(1)),
    };
    plan_span.attr("cache", visit.label());
    if visit.plan_cached() {
        session.telemetry.plan_hits.inc();
    } else if visit == (Visit::Deciding { like: false }) {
        session.telemetry.plan_misses.inc();
    }
    plan_span.finish();

    // 2. The arm: the request's pins, else what the key's stage says.
    // Nothing is learned here and nothing re-decided.
    let mut choose_span = root.child("choose");
    let chosen = arm_of(req, visit.key_direct());
    choose_span.attr("arm", chosen.label());
    choose_span.finish();

    // 3. Execute: resolve the laid-out plan, then run it on the arm's
    // path with the span entered so the shard jobs (on this thread
    // for one shard, on the worker pool for more) and the merge plane
    // trace themselves under it.
    let mut exec_span = root.child("execute");
    exec_span.attr("path", chosen.path.label());
    if chosen.path == ExecPath::Direct {
        session.telemetry.direct_requests.inc();
    }

    let plan = match layout {
        Layout::Held(plan) => plan,
        Layout::Under(layout) => {
            // The session lays out once: both paths run off the same
            // resident units. First sight's one shard is the tables
            // themselves — there is nothing to route, and nothing to hold
            // until the run has answered. A routed layout is held before
            // it runs, undecided, so a racing sight runs it pruned rather
            // than route it again. (A deciding sight cannot fail here:
            // first sight checked the request against these very tables.)
            let route_span = (visit != Visit::First).then(|| exec_span.child("route"));
            let plan =
                Arc::new(ExecPlan::new(&session.cluster, &req.query, &req.left, right, layout)?);
            if let Some(mut route_span) = route_span {
                route_span.attr("shards", plan.shards());
                route_span.finish();
                let entry = Entry { plan: Arc::clone(&plan), stage: Stage::Routed };
                lock(&session.caches).insert(key.clone(), entry, capacity);
            }
            plan
        }
    };

    let cluster = session.cluster.clone().with_backend(chosen.backend);
    let run = {
        let _in_exec = exec_span.enter();
        cheetah_runtime::execute(&cluster, &plan, chosen.path)?
    };
    let work_s = run.work_seconds();
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
    // request already has); at its deciding sight, take the key's one
    // decision by running the same layout direct and comparing the two
    // runs' work — a run pinned direct measured no pruned run, so it
    // decides nothing and the key stays pruned — and write it only on the
    // layout it was taken on; then stamp the serving fields the caller sees.
    let respond_span = root.child("respond");
    if visit == Visit::First {
        let mut caches = lock(&session.caches);
        if caches.get(&key, &req.left, right).is_none() {
            caches.insert(key, Entry { plan, stage: Stage::Whole }, capacity);
        }
    } else if matches!(visit, Visit::Deciding { .. }) && arm.path != ExecPath::Direct {
        let mut rule_span = respond_span.child("rule");
        // The measuring run, or `None` if it failed (the key then stays
        // pruned). It must answer as the run that responded did.
        let direct_s = {
            let _in_rule = rule_span.enter();
            let run = cheetah_runtime::execute(&cluster, &plan, ExecPath::Direct).ok();
            run.map(|run| {
                debug_assert_eq!(run.output, output, "the direct run answered otherwise");
                run.work_seconds()
            })
        };
        let direct = direct_s.is_some_and(|direct_s| direct_s < work_s);
        rule_span.attr("rule.pruned_us", format_args!("{:.1}", work_s * 1e6));
        if let Some(direct_s) = direct_s {
            rule_span.attr("rule.direct_us", format_args!("{:.1}", direct_s * 1e6));
        }
        rule_span.attr("rule.direct", direct);
        rule_span.finish();
        if direct {
            let mut caches = lock(&session.caches);
            if let Some(e) = caches.map.get_mut(&key).filter(|e| Arc::ptr_eq(&e.plan, &plan)) {
                e.stage = Stage::Direct;
                session.telemetry.direct_keys.inc();
            }
        }
    }
    breakdown.queue_seconds = queue_seconds;
    breakdown.tenant = req.tenant.clone();
    respond_span.finish();

    let plan_cached = visit.plan_cached();
    root.attr("arm", arm.label());
    root.attr("plan_cached", plan_cached);
    Ok(QueryResponse { output, breakdown, switch_stats, arm, plan_cached, trace: None })
}

/// The arm chosen for a request: a function of the request and of what
/// its key runs unpinned (`key_direct`: direct while the key is whole and
/// once its deciding sight decided so; pruned at that sight and whenever
/// it is routed and undecided). Path pins are honoured —
/// `.path(BarrierPooled)` overrides a direct key, `.path(Direct)` a pruned
/// one — and a backend pin names a pruning engine, so it asks for a pruned
/// arm too. Otherwise a direct key runs direct, and every other runs the
/// barrier on the compiled backend (the cheapest pruned point on every
/// ledger workload). The direct arm runs no engine, so it reads
/// `Interpreted`. This is what was asked for; the response reports what
/// ran, which for a family with no kernel is the interpreter.
fn arm_of(req: &QueryRequest, key_direct: bool) -> ChooserArm {
    let unpinned = match req.backend {
        None if key_direct => ExecPath::Direct,
        _ => ExecPath::BarrierPooled,
    };
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
    use cheetah_db::{DataType, DbPredicate, IntCmp, LikePattern, TableBuilder, Value};
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

    /// The fitted plan the session holds for `req`'s key, if any.
    fn held_plan(session: &Session, req: &QueryRequest) -> Option<Arc<ShardPlan>> {
        let caches = session.caches.lock().unwrap();
        caches.map.get(&Key::of(req)).and_then(|e| e.plan.shard_plan().cloned())
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
        assert_eq!((resp.arm.label().as_str(), resp.breakdown.shards), ("direct", 4));
        assert_eq!(resp.switch_stats.pruned, 0);
        let pinned_both = distinct().path(ExecPath::Direct).backend(ExecBackend::Compiled);
        assert_eq!(arm_of(&pinned_both, false).label(), "direct");

        // Unpinned: the arm is a function of the request *and of its key's
        // stage* — direct at first sight, pruned at the second (which
        // measures and decides), the verdict from the third on; nothing is
        // re-decided, no warm-up plays. Both verdicts are measured on small
        // tables, so each key's later sights are held to the verdict its
        // second sight traced; the self-join, which has no kernel, decides on
        // the interpreter, and the arm and the breakdown both say what ran.
        // The outcomes are pinned on fixtures farther from break-even by
        // `serving_contract`: a key that prunes nothing goes direct, with a
        // kernel (a FILTER every row passes) or without one (a larger
        // self-join), and one the switch wins on stays pruned.
        let join = DbQuery::Join { left_key: 0, right_key: 0 };
        let join = || QueryRequest::new(join.clone(), Arc::clone(&t)).with_right(Arc::clone(&t));
        let verdict = |resp: &QueryResponse| {
            let rule = resp.trace.as_ref().and_then(|t| t.root.find("rule"));
            rule.and_then(|r| r.attr("rule.direct")).map(|v| v == "true")
        };
        let (mut distinct_decided, mut join_decided) = (None, None);
        for sight in 1..=3 {
            let resp = session.run_blocking(distinct()).unwrap();
            let direct = sight == 1 || (sight > 2 && distinct_decided == Some(true));
            let want = if direct { "direct" } else { "pooled/compiled" };
            assert_eq!(resp.arm.label(), want, "sight {sight}");
            let ran = if direct { ExecBackend::Interpreted } else { ExecBackend::Compiled };
            assert_eq!(resp.breakdown.backend, ran);
            assert_eq!(verdict(&resp).is_some(), sight == 2, "sight {sight}: decided once");
            distinct_decided = distinct_decided.or(verdict(&resp));
            let resp = session.run_blocking(join()).unwrap();
            let direct = sight == 1 || (sight > 2 && join_decided == Some(true));
            let want = if direct { "direct" } else { "pooled/interp" };
            assert_eq!(resp.arm.label(), want, "sight {sight}");
            assert_eq!(resp.breakdown.backend, ExecBackend::Interpreted);
            assert_eq!(verdict(&resp).is_some(), sight == 2, "sight {sight}: decided once");
            join_decided = join_decided.or(verdict(&resp));
        }
        // A pin to the compiled backend cannot conjure a kernel either —
        // and, naming a pruning engine, it asks for a pruned arm.
        let resp = session.run_blocking(join().backend(ExecBackend::Compiled)).unwrap();
        assert_eq!(resp.arm.label(), "pooled/interp");
        assert_eq!(resp.breakdown.backend, ExecBackend::Interpreted);

        // The whole function: pins first, then the key's decision.
        assert_eq!(
            arm_of(&distinct().backend(ExecBackend::Interpreted), true).label(),
            "pooled/interp"
        );
        assert_eq!(
            arm_of(&distinct().path(ExecPath::BarrierPooled), true).label(),
            "pooled/compiled"
        );
        assert_eq!(arm_of(&distinct(), true).label(), "direct");
        assert_eq!(arm_of(&distinct(), false).label(), "pooled/compiled");
        assert_eq!(arm_of(&distinct().path(ExecPath::Direct), false).label(), "direct");
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
        let pred = DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 9_000 };
        for (q, ran) in [
            (DbQuery::FilterCount { pred }, Compiled),
            (DbQuery::Distinct { col: 0 }, Compiled),
            (DbQuery::GroupByMax { key_col: 0, val_col: 1 }, Compiled),
            (DbQuery::Skyline { cols: vec![1, 2] }, Compiled),
            (DbQuery::TopN { order_col: 1, n: 17 }, Interpreted),
            (DbQuery::Join { left_key: 0, right_key: 0 }, Interpreted),
            (DbQuery::HavingSum { key_col: 0, val_col: 1, threshold: 100_000 }, Interpreted),
        ] {
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
            assert_eq!(root.attr("arm"), Some(arm.label().as_str()), "{kind}");
            let choose = root.find("choose").expect("lifecycle span");
            assert_eq!(choose.attr("arm"), Some("pooled/compiled"), "{kind}: the arm chosen");
        }
    }

    #[test]
    fn a_pinned_shard_count_past_the_planners_axis_runs_at_its_end() {
        // A thousand shards would be a thousand units of scratch and pool
        // jobs over forty rows; the pin is cut to the planner's axis.
        let t = table(40, 1, 7);
        let q = DbQuery::Distinct { col: 0 };
        let want = Cluster::default().run_baseline(&q, &t, None).output;
        let session = Session::with_defaults();
        let resp = session.run_blocking(QueryRequest::new(q, t).shards(1_000)).unwrap();
        assert_eq!(resp.breakdown.shards as usize, cheetah_db::planner::MAX_SHARDS);
        assert_eq!(resp.output, want);
    }

    #[test]
    fn a_sibling_table_runs_under_the_held_plan_and_a_drifted_one_gets_its_own_fit() {
        // A high-fanout join: eight keys, every row matches.
        let fanout = |name: &str, rows: i64| {
            let fields = vec![("k".into(), DataType::Int), ("v".into(), DataType::Int)];
            let mut b = TableBuilder::new(name, fields, 1_000);
            for i in 0..rows {
                b.push_row(vec![Value::Int(i % 8), Value::Int(i)]);
            }
            Arc::new(b.build())
        };
        let session = Session::with_defaults();
        let q = DbQuery::Join { left_key: 0, right_key: 0 };
        let seed = session.cluster.tuning.seed;
        // What the planner fits for these tables with nothing measured.
        let blind = |l: &Table, r: &Table| ShardPlanner::default().plan(&q, l, Some(r), seed);
        // First and second sight of a fresh pair of tables named `l` and
        // `r`: whether the second ran under a plan already held, the plan
        // now held, and whether it is the one fitted for these tables.
        let two_sights = |rows| {
            let (l, r) = (fanout("l", rows), fanout("r", rows));
            let req = || QueryRequest::new(q.clone(), Arc::clone(&l)).with_right(Arc::clone(&r));
            let first = session.run_blocking(req()).unwrap();
            assert!(!first.plan_cached, "{rows} rows: first sight consults no plan");
            assert!(held_plan(&session, &req()).is_none(), "{rows} rows: …and fits none");
            let second = session.run_blocking(req()).unwrap();
            assert_eq!(second.output, first.output);
            let plan = held_plan(&session, &req()).expect("second sight routes under a plan");
            let own = *plan == blind(&l, &r);
            (second.plan_cached, plan, own)
        };
        // Nothing held: second sight fits — blind, since no pruned run of
        // the key has been measured before it (first sight ran direct).
        let (cached, plan, own) = two_sights(3_000);
        assert!(!cached && session.stats().plan_misses == 1, "nothing held: second sight fits");
        assert!(own, "priced from the sampled keys alone");
        // Same query, same names, same sizes, other tables: the plan held
        // for the first pair is the plan the second pair is routed under.
        let (cached, sibling, _) = two_sights(3_000);
        assert!(cached && Arc::ptr_eq(&sibling, &plan));
        assert_eq!(session.stats().plan_misses, 1);
        // Twice the rows is past the tolerance, so a fit of its own, from
        // the drifted tables.
        let (cached, drifted, own) = two_sights(6_000);
        assert!(!cached && session.stats().plan_misses == 2);
        assert!(own && drifted.report.rows == 2 * plan.report.rows);
    }

    #[test]
    fn a_plan_is_never_reused_after_either_stream_moves_beyond_tolerance() {
        let fp = |left_rows, right_rows| StatsFingerprint { left_rows, right_rows };
        let tol = STATS_TOLERANCE;
        for rows in [100u64, 999, 6_000, 123_456, 10_000_000] {
            let grown = (rows as f64 * (1.0 + tol) * 1.001).ceil() as u64;
            let shrunk = (rows as f64 / (1.0 + tol) / 1.001).floor() as u64;
            for (moved, near) in [(grown, rows + rows / 4), (shrunk, rows - rows / 5)] {
                assert!(!fp(rows, 0).within(fp(moved, 0), tol), "{rows} -> {moved} rows, left");
                assert!(!fp(7, rows).within(fp(7, moved), tol), "{rows} -> {moved} rows, right");
                assert!(fp(rows, rows).within(fp(near, near), tol), "{rows} -> {near} rows");
                assert!(fp(near, 0).within(fp(rows, 0), tol), "{near} -> {rows} rows");
            }
        }
        // An empty stream is like another empty stream and nothing else.
        assert!(fp(0, 0).within(fp(0, 0), tol));
        assert!(!fp(0, 0).within(fp(1, 0), tol) && !fp(5, 1).within(fp(5, 0), tol));
    }

    #[test]
    fn a_key_is_the_query_the_tables_it_reads_and_the_pinned_shard_count() {
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
        let pinned = |shards| Key::of(&req(top(5)).shards(shards));
        assert_ne!(pinned(2), pinned(3));
        assert_ne!(pinned(1), Key::of(&req(top(5))), "a pinned single shard is still a pin");
        assert_ne!(Key::of(&req(top(5))), Key::of(&QueryRequest::new(top(5), Arc::clone(&other))));
        // A unary query reads one table, whatever rides along; JOIN reads two.
        assert_eq!(Key::of(&req(top(5)).with_right(Arc::clone(&other))), Key::of(&req(top(5))));
        let join = || req(DbQuery::Join { left_key: 0, right_key: 0 });
        assert_ne!(Key::of(&join().with_right(other)), Key::of(&join().with_right(t.clone())));
    }

    #[test]
    fn racing_sights_fit_route_and_decide_a_key_once() {
        let cluster = Cluster::default();
        let t = table(4_000, 4, 17);
        let q = DbQuery::Distinct { col: 0 };
        let want = cluster.run_baseline(&q, &t, None).output;
        let req = || QueryRequest::new(q.clone(), Arc::clone(&t));
        for round in 0..20 {
            let session = Session::new(cluster.clone(), SessionConfig::default());
            assert_eq!(session.run_blocking(req()).unwrap().output, want, "round {round}");
            // Eight threads, each sending the key's second and third sight
            // on its own thread, all started together. However they interleave —
            // claiming the key's fit, racing that claim (run whole), or
            // finding the layout it held before running (run pruned,
            // undecided, or on its verdict) — one of them fits, routes and
            // decides, and all answer. Its measuring run keeps the key
            // routed and undecided a while longer: every sight that found
            // the layout then ran pruned, never direct ahead of the verdict.
            let gate = Barrier::new(8);
            let ask = || {
                gate.wait();
                [(); 2].map(|()| session.run_blocking(req()))
            };
            let sights = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..8).map(|_| scope.spawn(ask)).collect();
                racers.into_iter().map(|r| r.join().expect("racer thread")).collect::<Vec<_>>()
            });
            let sights: Vec<_> = sights.into_iter().map(|pair| pair.map(Result::unwrap)).collect();
            let tree = |resp: &QueryResponse| resp.trace.clone().expect("trace exports").root;
            let trees: Vec<_> = sights.iter().map(|pair| pair.each_ref().map(tree)).collect();
            let (mut routes, mut rules) = (0, Vec::new());
            for (pair, trees) in sights.iter().zip(&trees) {
                for (resp, tree) in pair.iter().zip(trees) {
                    assert_eq!(resp.output, want, "round {round}");
                    routes += usize::from(has_route_span(resp));
                    tree.find_all("rule", &mut rules);
                }
            }
            assert_eq!((routes, rules.len()), (1, 1), "round {round}: one route, one rule span");
            let direct = rules[0].attr("rule.direct") == Some("true");
            let verdict = if direct { "direct" } else { "pooled/compiled" };
            for (pair, trees) in sights.iter().zip(&trees) {
                let arms = pair.each_ref().map(|resp| resp.arm.label());
                let cache = trees.each_ref().map(|t| t.find("plan").and_then(|p| p.attr("cache")));
                for (arm, cache) in arms.iter().zip(cache) {
                    match cache {
                        // Raced the claim: the tables whole, direct.
                        Some("whole") => assert_eq!(arm, "direct", "round {round}"),
                        // Found the routed layout: pruned while it was
                        // undecided, else the verdict's arm.
                        _ => assert!(arm == "pooled/compiled" || arm == verdict, "round {round}"),
                    }
                }
                // A racer that decided, or found the key decided direct,
                // runs the verdict from then on.
                let decided = trees[0].find("rule").is_some()
                    || cache[0] == Some("hit") && arms[0] == "direct";
                if decided {
                    assert_eq!(arms[1], verdict, "round {round}: the verdict holds once written");
                }
            }
            assert_eq!(session.stats().plan_misses, 1, "round {round}: one fit");
            let caches = session.caches.lock().unwrap();
            assert_eq!((caches.map.len(), caches.order.len()), (1, 1), "round {round}");
            let entry = caches.map.values().next().expect("one entry");
            assert!(entry.plan.shard_plan().is_some(), "round {round}");
            assert!(matches!(entry.stage, Stage::Routed | Stage::Direct), "round {round}");
        }
    }

    #[test]
    fn racing_sights_all_answer_and_leave_one_warm_entry_per_key() {
        // Two same-named, same-sized tables under one query: sibling keys,
        // so first sights race for their entry, and second sights for the
        // one plan as well as for their key's fit.
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
            // them (claiming the fit, finding a sibling's plan, racing the
            // claim, or the key already routed), all answer, and once every
            // racer is done every key is routed.
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
                assert!(caches.map.values().all(|e| {
                    matches!(e.stage, Stage::Routed | Stage::Direct)
                        && e.plan.shard_plan().is_some()
                }));
            }
            // A third sight may have raced its key's fit and run whole; a
            // sight sent once the racers are done finds every key warm.
            for (i, want) in want.iter().enumerate() {
                let warm = session.run_blocking(req(i)).unwrap();
                assert!(warm.plan_cached && !has_route_span(&warm), "round {round}");
                assert_eq!(&warm.output, want, "round {round}");
            }
        }
    }

    #[test]
    fn layout_cache_retains_its_tables_so_addresses_are_never_reused() {
        // The layout cache is keyed on table addresses and pinned-shard
        // entries are never invalidated, so an entry must keep its source
        // table alive: a freed address could be handed to a *different*
        // table, which would then be served the old table's shards.
        let cluster = Cluster::default();
        let session = Session::new(cluster.clone(), SessionConfig::default());
        let q = DbQuery::Distinct { col: 1 };
        let pinned = |t: &Arc<Table>| QueryRequest::new(q.clone(), Arc::clone(t)).shards(4);
        let routed = has_route_span;

        let first = table(1_000, 2, 3);
        let want = cluster.run_baseline(&q, &first, None).output;
        let resp = session.run_blocking(pinned(&first)).unwrap();
        assert!(routed(&resp), "first sight routes");
        assert_eq!(resp.output, want);
        assert!(!routed(&session.run_blocking(pinned(&first)).unwrap()), "repeat hits the cache");
        let held = Arc::downgrade(&first);
        drop(first);
        assert!(held.upgrade().is_some(), "the cached plan must retain its source table");

        // A second, different table: its own entry, its own answer.
        let second = table(700, 2, 99);
        let resp = session.run_blocking(pinned(&second)).unwrap();
        assert!(routed(&resp), "a different table never hits the first one's entry");
        assert_eq!(resp.output, cluster.run_baseline(&q, &second, None).output);
        assert_ne!(resp.output, want, "fixture tables must differ for the test to bite");
        assert_eq!(session.caches.lock().unwrap().map.len(), 2);
    }

    #[test]
    fn layout_cache_is_bounded_and_evicting_a_key_frees_its_plan_and_its_table() {
        // Every entry pins its source tables, a routed copy of their rows
        // and the plan it was routed under: a session that keeps seeing
        // rebuilt tables must not grow without limit. Each table is twice
        // the last, so each is fitted a plan of its own.
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
            let plan = held_plan(&session, &req()).expect("routed under a fitted plan");
            first.get_or_insert_with(|| (Arc::downgrade(&t), Arc::downgrade(&plan)));
        }
        assert_eq!(session.stats().plan_misses, 3);
        assert_eq!(session.caches.lock().unwrap().map.len(), 2);
        let (table, plan) = first.unwrap();
        assert!(table.upgrade().is_none(), "the evicted entry must free its table");
        assert!(plan.upgrade().is_none(), "…and the plan that governed only it");
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
