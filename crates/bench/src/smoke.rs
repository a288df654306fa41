//! The perf-smoke harness behind CI's `BENCH_smoke.json` gate.
//!
//! A tiny, fixed-seed benchmark pass over every query family — including
//! a 4-shard sharded run per mergeable family — that emits a
//! machine-readable report (ops/sec and bytes-pruned) and can compare
//! itself against a checked-in baseline. CI runs it on every push
//! (`make bench-smoke` reproduces the exact invocation locally), uploads
//! the JSON as an artifact, and fails the build on a >20 % regression.
//!
//! Two metric classes, deliberately mixed:
//!
//! * **ops/sec** is wall-clock (best of `reps` repetitions to shave
//!   scheduler noise) — it catches a hot-path slowdown but varies across
//!   machines, hence the generous default tolerance;
//! * **bytes-pruned** is *deterministic* for a fixed seed — it catches a
//!   silent pruning-quality regression even when the machine is fast
//!   enough to hide it.
//!
//! The JSON is hand-rolled (one family per line) because the vendored
//! serde stand-in has no serializer; the parser only promises to read
//! what [`SmokeReport::to_json`] writes.

use crate::run_barrier;
use cheetah_core::ShardPartitioner;
use cheetah_db::{
    Cluster, DbPredicate, DbQuery, ExecBackend, ExecPath, IntCmp, ShardPlanner, ShardSpec, Table,
};
use cheetah_net::ENTRY_WIRE_BYTES;
use cheetah_runtime::{execute, ExecPlan, ExecRun, FaultSpec, ShardLayout, StreamSpec};
use cheetah_serve::{QueryRequest, Session, SessionConfig};
use cheetah_telemetry::{Registry, Trace};
use cheetah_workloads::SkewedTableConfig;
use std::sync::Arc;
use std::time::Instant;

/// One query family's smoke metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SmokeFamily {
    /// Family id, e.g. `distinct` or `distinct@shards4`.
    pub name: String,
    /// Engine backend the run's breakdown reported (`interp` or
    /// `compiled`) — what actually executed, not what was requested.
    pub backend: String,
    /// Input rows per second of the best repetition.
    pub ops_per_sec: f64,
    /// Bytes the switch pruned off the wire (deterministic in the seed).
    pub bytes_pruned: u64,
    /// Survivor entries the master saw.
    pub entries_to_master: u64,
}

/// Cross-cutting observability numbers one smoke pass produces, read
/// from the telemetry plane rather than ad-hoc counters: the serving
/// burst's queue p99 out of the session registry, a deterministic
/// plan-cache hit rate, and the go-back-N resend count of a seeded
/// faulty-channel run. Informational (never gated — queue time is
/// wall clock on a shared runner) and absent from baselines written
/// before the telemetry plane existed.
#[derive(Debug, Clone, PartialEq)]
pub struct SmokeTelemetry {
    /// p99 of `serve.queue_seconds` over the burst session's registry.
    pub queue_p99_seconds: f64,
    /// Plan-cache hit rate of a fixed four-request planner-path quartet
    /// (one shape, repeated: 1 miss + 3 hits = 0.75, deterministic).
    pub plan_cache_hit_rate: f64,
    /// `net.retransmits` a harsh seeded faulty channel attributed to the
    /// tracing registry (equals the run breakdown's count by the
    /// telemetry contract gate).
    pub retransmits: u64,
}

/// The whole smoke report.
#[derive(Debug, Clone, PartialEq)]
pub struct SmokeReport {
    /// Workload seed.
    pub seed: u64,
    /// Rows in the (left) smoke table.
    pub rows: usize,
    /// Per-family metrics.
    pub families: Vec<SmokeFamily>,
    /// Observability block (`None` when parsed from a pre-telemetry
    /// baseline).
    pub telemetry: Option<SmokeTelemetry>,
}

/// Shard count of the sharded smoke runs.
pub const SMOKE_SHARDS: usize = 4;

/// Query families the smoke pass covers (all seven [`DbQuery`] shapes).
fn smoke_queries() -> Vec<(&'static str, DbQuery)> {
    vec![
        (
            "filter-count",
            DbQuery::FilterCount {
                pred: DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 90_000 },
            },
        ),
        ("distinct", DbQuery::Distinct { col: 0 }),
        ("topn", DbQuery::TopN { order_col: 1, n: 64 }),
        ("groupby-max", DbQuery::GroupByMax { key_col: 0, val_col: 1 }),
        ("having-sum", DbQuery::HavingSum { key_col: 0, val_col: 2, threshold: 40_000 }),
        ("skyline", DbQuery::Skyline { cols: vec![1, 2] }),
        ("join", DbQuery::Join { left_key: 0, right_key: 0 }),
    ]
}

fn smoke_tables(seed: u64, rows: usize) -> (Arc<Table>, Arc<Table>) {
    let left = SkewedTableConfig {
        rows,
        partitions: 4,
        partition_skew: 0.6,
        keys: 200,
        key_skew: 1.0,
        seed,
    }
    .build();
    let right = SkewedTableConfig {
        rows: rows / 2,
        partitions: 2,
        partition_skew: 0.4,
        keys: 200,
        key_skew: 0.8,
        seed: seed ^ 0xFACE,
    }
    .build();
    (Arc::new(left), Arc::new(right))
}

/// Time `execute` best-of-`reps` and record one family. `execute` returns
/// the run's `(pruned entries, entries to master, backend)` — the same
/// metric derivation for unsharded and sharded passes by construction,
/// and the backend is the one the breakdown *reported*, so a compiled row
/// that silently fell back to the interpreter is visible in the JSON.
fn measure_family(
    name: String,
    input_rows: usize,
    reps: usize,
    mut execute: impl FnMut() -> (u64, u64, ExecBackend),
) -> SmokeFamily {
    let mut best = f64::INFINITY;
    let mut counters = (0, 0, ExecBackend::default());
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        counters = execute();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let (pruned, entries_to_master, backend) = counters;
    SmokeFamily {
        name,
        backend: backend.label().to_string(),
        ops_per_sec: input_rows as f64 / best.max(1e-12),
        bytes_pruned: pruned * ENTRY_WIRE_BYTES,
        entries_to_master,
    }
}

/// Time two executions interleaved (A, B, A, B, …), best-of each, and
/// record both. The `@shards`/`@compiled` sibling pair is measured this
/// way because their *ratio* is itself gated
/// (`--smoke-compiled-speedup`): alternating back-to-back keeps scheduler
/// or frequency drift from landing on one side of the ratio, which
/// separate measurement windows cannot guarantee on a shared runner. The
/// pair also gets a floor of [`PAIR_REPS`] repetitions — a ratio needs
/// more samples than a lone wall-clock row.
#[allow(clippy::type_complexity)]
fn measure_pair(
    names: (String, String),
    input_rows: usize,
    reps: usize,
    mut exec_a: impl FnMut() -> (u64, u64, ExecBackend),
    mut exec_b: impl FnMut() -> (u64, u64, ExecBackend),
) -> (SmokeFamily, SmokeFamily) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    let mut counters = ((0, 0, ExecBackend::default()), (0, 0, ExecBackend::default()));
    for _ in 0..reps.max(PAIR_REPS) {
        let t0 = Instant::now();
        counters.0 = exec_a();
        best.0 = best.0.min(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        counters.1 = exec_b();
        best.1 = best.1.min(t1.elapsed().as_secs_f64());
    }
    let family = |name: String, (pruned, entries, backend): (u64, u64, ExecBackend), best: f64| {
        SmokeFamily {
            name,
            backend: backend.label().to_string(),
            ops_per_sec: input_rows as f64 / best.max(1e-12),
            bytes_pruned: pruned * ENTRY_WIRE_BYTES,
            entries_to_master: entries,
        }
    };
    (family(names.0, counters.0, best.0), family(names.1, counters.1, best.1))
}

/// Repetition floor for the interleaved sibling pair. Higher than the
/// default `reps` because a best-of *ratio* needs both sides to land a
/// clean repetition in the same window; at the smoke table's size one
/// extra rep costs well under a millisecond.
const PAIR_REPS: usize = 21;

/// Run the smoke pass: every family unsharded, plus — for three
/// representative families — a fixed [`SMOKE_SHARDS`]-shard run, a
/// planner-chosen run, *and* a streamed-runtime run; the `@planned` and
/// `@streamed` rows each gate with their own tolerance. A final
/// `burst@serving` row pushes a four-tenant closed-loop burst through the
/// `Session` front door (own tolerance again — it carries scheduler
/// threading variance on top of the pool's).
pub fn run_smoke(seed: u64, rows: usize, reps: usize) -> SmokeReport {
    let (left, right) = smoke_tables(seed, rows);
    let cluster = Cluster::default();
    let mut families = Vec::new();

    for (name, q) in smoke_queries() {
        let right_of = q.is_binary().then_some(&*right);
        let input_rows = left.rows() + right_of.map_or(0, |r| r.rows());
        families.push(measure_family(name.to_string(), input_rows, reps, || {
            let run = cluster.run_cheetah(&q, &left, right_of).expect("plan fits");
            (run.switch_stats.pruned, run.breakdown.entries_to_master, run.breakdown.backend)
        }));
    }

    // The compiled twin of the interpreted cluster: same tuning, every
    // shard routed through the plan-time fused kernels.
    let compiled = cluster.clone().with_backend(ExecBackend::Compiled);
    let counters = |run: ExecRun| {
        (run.switch_stats.pruned, run.breakdown.entries_to_master, run.breakdown.backend)
    };

    for (name, q) in [
        ("distinct", DbQuery::Distinct { col: 0 }),
        ("groupby-max", DbQuery::GroupByMax { key_col: 0, val_col: 1 }),
        ("join", DbQuery::Join { left_key: 0, right_key: 0 }),
    ] {
        let right_of = q.is_binary().then_some(&right);
        let input_rows = left.rows() + right_of.map_or(0, |r| r.rows());
        let spec = ShardSpec::new(SMOKE_SHARDS, ShardPartitioner::Hash);
        // Routing keys, the fitted sharder, and the shard split itself are
        // data layout, not execution: in the paper's deployment each worker
        // holds its slice from ingest on. Route once, outside the timed
        // region, and time `execute` over the resident plan.
        let one_round = StreamSpec { rounds: 1, ..StreamSpec::fixed(spec) };
        let resident = ExecPlan::new(&cluster, &q, &left, right_of, &one_round)
            .expect("routes")
            .for_path(ExecPath::BarrierPooled);
        // The @shards row and its @compiled twin — identical resident
        // plan, identical barrier transport, but the twin's shards run
        // the monomorphic fused kernel instead of walking the boxed stage
        // pipeline. The compiled contract gate proves the outputs and
        // counters identical; the twin's row gates the *speedup* (and its
        // own wall-clock floor, `--smoke-compiled-tolerance`), so the
        // pair is measured interleaved rather than as two windows.
        let (interp_row, compiled_row) = measure_pair(
            (format!("{name}@shards{SMOKE_SHARDS}"), format!("{name}@compiled")),
            input_rows,
            reps,
            || counters(execute(&cluster, &q, &resident).expect("plan fits")),
            || counters(execute(&compiled, &q, &resident).expect("plan fits")),
        );
        families.push(interp_row);
        families.push(compiled_row);
        // The planned counterpart of the fixed-spec row above: same
        // query, same tables, layout chosen by the sample-driven
        // planner — sampled, fitted and routed inside every rep.
        // `@planned` rows get their own gate tolerance — planning adds a
        // sampling pass and a data-dependent shard count, so their
        // wall-clock varies more than a pinned spec's.
        families.push(measure_family(format!("{name}@planned"), input_rows, reps, || {
            let layout = ShardLayout::Planned(ShardPlanner::default());
            counters(run_barrier(&cluster, &q, &left, right_of, layout))
        }));
        // The stream-transport row of the same fixed spec: survivor
        // batches over bounded channels into the incremental merge. Its
        // pruning counters are deterministic like every other row (input
        // rounds change *which* duplicates the per-round switch programs
        // see, so its floor differs from @shards — that is recorded in
        // the baseline, not excused); its wall-clock carries threading +
        // framing variance, hence its own gate tolerance. Like @shards,
        // the plan (keys, sharder fit, per-round routing) is resident:
        // the timed region pays only per-shard pruning, framing, and the
        // incremental merge.
        let streamed =
            ExecPlan::new(&cluster, &q, &left, right_of, &StreamSpec::fixed(spec)).expect("routes");
        families.push(measure_family(format!("{name}@streamed"), input_rows, reps, || {
            counters(execute(&cluster, &q, &streamed).expect("fits"))
        }));
    }

    let telemetry;
    // The serving-plane row: a four-tenant closed-loop burst pushed
    // through the `Session` front door. Every request is pinned to the
    // interpreted barrier pool at [`SMOKE_SHARDS`] — pinned requests skip
    // the plan cache and the bandit, so this row's counters stay
    // deterministic and its wall clock measures the *plane* (admission,
    // DRR scheduling, driver dispatch), not a path choice. The session is
    // resident like every layout above, and a warm-up request routes the
    // pinned shard layout before the first timed rep.
    {
        let q = DbQuery::Distinct { col: 0 };
        let session = Session::new(cluster.clone(), SessionConfig::default());
        let tenants = ["alpha", "beta", "gamma", "delta"];
        const BURST_PER_TENANT: usize = 8;
        let pinned = |tenant: &str| {
            QueryRequest::new(q.clone(), Arc::clone(&left))
                .tenant(tenant)
                .path(ExecPath::BarrierPooled)
                .backend(ExecBackend::Interpreted)
                .shards(SMOKE_SHARDS)
        };
        let warm = session.run_blocking(pinned("alpha")).expect("plan fits");
        let counters =
            (warm.switch_stats.pruned, warm.breakdown.entries_to_master, warm.breakdown.backend);
        let input_rows = left.rows() * tenants.len() * BURST_PER_TENANT;
        let session_ref = &session;
        let pinned_ref = &pinned;
        families.push(measure_family("burst@serving".to_string(), input_rows, reps, || {
            std::thread::scope(|s| {
                for tenant in tenants {
                    s.spawn(move || {
                        for _ in 0..BURST_PER_TENANT {
                            session_ref
                                .submit(pinned_ref(tenant))
                                .expect("burst stays under capacity")
                                .wait()
                                .expect("admitted requests complete");
                        }
                    });
                }
            });
            counters
        }));

        // The observability block, read from the telemetry plane the
        // burst just exercised. The pinned burst bypasses the plan
        // cache, so a fixed planner-path quartet (one shape, repeated)
        // supplies a deterministic hit rate: 1 miss + 3 hits.
        for _ in 0..4 {
            session
                .run_blocking(QueryRequest::new(q.clone(), Arc::clone(&left)).tenant("alpha"))
                .expect("plan fits");
        }
        let queue_p99_seconds = session
            .registry()
            .snapshot()
            .histograms
            .get("serve.queue_seconds")
            .map_or(0.0, |h| h.p99);
        let plan_cache_hit_rate = session.stats().plan_hit_rate();

        // One harsh seeded faulty-channel run, traced so the fabric's
        // recovery work lands in a registry we can read back.
        let registry = Registry::new();
        let trace = Trace::new(registry.clone());
        let root = trace.span("query");
        {
            let _g = root.enter();
            let mut fspec = StreamSpec::fixed(ShardSpec::new(SMOKE_SHARDS, ShardPartitioner::Hash));
            fspec.batch = Some(4);
            fspec.fault = Some(FaultSpec::harsh(seed));
            let plan = ExecPlan::new(&cluster, &q, &left, None, &fspec).expect("routes");
            execute(&cluster, &q, &plan).expect("plan fits");
        }
        root.finish();
        let retransmits = registry.snapshot().counters.get("net.retransmits").copied().unwrap_or(0);

        telemetry = Some(SmokeTelemetry { queue_p99_seconds, plan_cache_hit_rate, retransmits });
    }

    SmokeReport { seed, rows, families, telemetry }
}

impl SmokeReport {
    /// Serialize: one family object per line, stable field order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema\": 1,\n  \"seed\": {},\n  \"rows\": {},\n",
            self.seed, self.rows
        ));
        out.push_str("  \"families\": [\n");
        for (i, f) in self.families.iter().enumerate() {
            let comma = if i + 1 < self.families.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"backend\": \"{}\", \"ops_per_sec\": {:.1}, \"bytes_pruned\": {}, \"entries_to_master\": {}}}{comma}\n",
                f.name, f.backend, f.ops_per_sec, f.bytes_pruned, f.entries_to_master
            ));
        }
        match &self.telemetry {
            Some(t) => {
                out.push_str("  ],\n");
                out.push_str(&format!(
                    "  \"telemetry\": {{\"queue_p99_seconds\": {:.9}, \"plan_cache_hit_rate\": {:.6}, \"retransmits\": {}}}\n",
                    t.queue_p99_seconds, t.plan_cache_hit_rate, t.retransmits
                ));
                out.push_str("}\n");
            }
            None => out.push_str("  ]\n}\n"),
        }
        out
    }

    /// Parse what [`SmokeReport::to_json`] writes (not a general JSON
    /// parser — the build environment has no serde_json).
    pub fn parse_json(s: &str) -> Result<SmokeReport, String> {
        let num_field = |line: &str, key: &str| -> Option<f64> {
            let tag = format!("\"{key}\":");
            let at = line.find(&tag)? + tag.len();
            let rest = line[at..].trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse::<f64>().ok()
        };
        let str_field = |line: &str, key: &str| -> Option<String> {
            let tag = format!("\"{key}\": \"");
            let at = line.find(&tag)? + tag.len();
            let end = line[at..].find('"')?;
            Some(line[at..at + end].to_string())
        };
        let mut seed = None;
        let mut rows = None;
        let mut families = Vec::new();
        let mut telemetry = None;
        for line in s.lines() {
            if seed.is_none() {
                seed = num_field(line, "seed").map(|v| v as u64);
            }
            if rows.is_none() {
                rows = num_field(line, "rows").map(|v| v as usize);
            }
            // Optional: baselines written before the telemetry plane
            // simply lack the block.
            if line.contains("\"telemetry\"") {
                telemetry = Some(SmokeTelemetry {
                    queue_p99_seconds: num_field(line, "queue_p99_seconds")
                        .ok_or("telemetry block: missing queue_p99_seconds")?,
                    plan_cache_hit_rate: num_field(line, "plan_cache_hit_rate")
                        .ok_or("telemetry block: missing plan_cache_hit_rate")?,
                    retransmits: num_field(line, "retransmits")
                        .ok_or("telemetry block: missing retransmits")?
                        as u64,
                });
                continue;
            }
            if let Some(name) = str_field(line, "name") {
                let ops = num_field(line, "ops_per_sec")
                    .ok_or_else(|| format!("family {name}: missing ops_per_sec"))?;
                let bytes = num_field(line, "bytes_pruned")
                    .ok_or_else(|| format!("family {name}: missing bytes_pruned"))?;
                let entries = num_field(line, "entries_to_master")
                    .ok_or_else(|| format!("family {name}: missing entries_to_master"))?;
                // Baselines written before the backend column default to
                // the interpreter — the only engine that existed then.
                let backend = str_field(line, "backend").unwrap_or_else(|| "interp".to_string());
                families.push(SmokeFamily {
                    name,
                    backend,
                    ops_per_sec: ops,
                    bytes_pruned: bytes as u64,
                    entries_to_master: entries as u64,
                });
            }
        }
        if families.is_empty() {
            return Err("no families found in smoke JSON".to_string());
        }
        Ok(SmokeReport {
            seed: seed.ok_or("missing seed")?,
            rows: rows.ok_or("missing rows")?,
            families,
            telemetry,
        })
    }

    /// Compare against a baseline: every baseline family must still exist,
    /// its ops/sec must not have dropped by more than `tolerance`
    /// (fraction, e.g. `0.2`), and its bytes-pruned must not have shrunk
    /// by more than `tolerance` (less pruning = quality regression).
    /// `@planned`, `@streamed`, `@compiled`, and `@serving` families are
    /// gated with `tolerance` too; use
    /// [`SmokeReport::regressions_against_with`] to give them their own.
    /// Returns the violations, empty when the gate passes.
    pub fn regressions_against(&self, baseline: &SmokeReport, tolerance: f64) -> Vec<String> {
        self.regressions_against_with(
            baseline, tolerance, tolerance, tolerance, tolerance, tolerance,
        )
    }

    /// [`SmokeReport::regressions_against`] with separate *ops/sec*
    /// tolerances for the planner's `@planned` rows (a sampling pass and
    /// a data-dependent shard count), the runtime's `@streamed` rows
    /// (router/worker/merge threading and per-batch framing), the
    /// fused kernels' `@compiled` rows, and the serving plane's
    /// `@serving` rows (a multi-threaded closed-loop burst through the
    /// `Session` scheduler) — all of which carry more wall-clock variance
    /// than a pinned interpreted barrier spec. The deterministic
    /// bytes-pruned quality gate stays at the base `tolerance` for every
    /// family, suffixed rows included.
    pub fn regressions_against_with(
        &self,
        baseline: &SmokeReport,
        tolerance: f64,
        planner_tolerance: f64,
        streamed_tolerance: f64,
        compiled_tolerance: f64,
        serving_tolerance: f64,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        // The deterministic metrics only mean anything on the same
        // workload; a seed/size mismatch is a misconfigured gate, not a
        // comparable run.
        if self.seed != baseline.seed {
            violations.push(format!(
                "workload seed mismatch: run has {}, baseline has {} — not comparable",
                self.seed, baseline.seed
            ));
            return violations;
        }
        if self.rows != baseline.rows {
            violations.push(format!(
                "workload size mismatch: run has {} rows, baseline has {} — not comparable",
                self.rows, baseline.rows
            ));
            return violations;
        }
        for base in &baseline.families {
            let Some(cur) = self.families.iter().find(|f| f.name == base.name) else {
                violations.push(format!("family {} disappeared from the smoke run", base.name));
                continue;
            };
            // Only the wall-clock floor loosens for @planned/@streamed
            // rows; the plan (and therefore bytes-pruned) is
            // deterministic in (seed, data), so the quality floor stays
            // at the base tolerance for every family.
            let ops_tolerance = if base.name.ends_with("@planned") {
                planner_tolerance
            } else if base.name.ends_with("@streamed") {
                streamed_tolerance
            } else if base.name.ends_with("@compiled") {
                compiled_tolerance
            } else if base.name.ends_with("@serving") {
                serving_tolerance
            } else {
                tolerance
            };
            let ops_floor = base.ops_per_sec * (1.0 - ops_tolerance);
            if cur.ops_per_sec < ops_floor {
                violations.push(format!(
                    "{}: ops/sec regressed {:.0} -> {:.0} (floor {:.0})",
                    base.name, base.ops_per_sec, cur.ops_per_sec, ops_floor
                ));
            }
            let bytes_floor = (base.bytes_pruned as f64 * (1.0 - tolerance)) as u64;
            if cur.bytes_pruned < bytes_floor {
                violations.push(format!(
                    "{}: bytes-pruned regressed {} -> {} (floor {})",
                    base.name, base.bytes_pruned, cur.bytes_pruned, bytes_floor
                ));
            }
            // The backend is what the run *reported* executing: a
            // `@compiled` row silently falling back to the interpreter is
            // a regression even when it happens to stay above the
            // wall-clock floor.
            if cur.backend != base.backend {
                violations.push(format!(
                    "{}: backend changed {} -> {} (silent fallback?)",
                    base.name, base.backend, cur.backend
                ));
            }
        }
        violations
    }

    /// The within-run compiled speedup gate: every `X@compiled` row is
    /// compared to its interpreted `X@shardsN` sibling *in this report*
    /// (same machine, same run — no cross-host wall-clock comparison).
    /// Violations are returned when the `distinct` family fails to reach
    /// `min_speedup`, or when *no* other family reaches it — the
    /// acceptance shape "distinct plus at least one aggregate family".
    pub fn compiled_speedup_violations(&self, min_speedup: f64) -> Vec<String> {
        let mut violations = Vec::new();
        let mut others_passing = 0usize;
        let mut others_total = 0usize;
        for f in self.families.iter().filter(|f| f.name.ends_with("@compiled")) {
            let family = f.name.trim_end_matches("@compiled");
            let sibling = format!("{family}@shards{SMOKE_SHARDS}");
            let Some(interp) = self.families.iter().find(|s| s.name == sibling) else {
                violations
                    .push(format!("{}: no interpreted @shards sibling to gate against", f.name));
                continue;
            };
            let speedup = f.ops_per_sec / interp.ops_per_sec.max(1e-12);
            if family == "distinct" {
                if speedup < min_speedup {
                    violations.push(format!(
                        "{}: {speedup:.2}x over {} — the distinct family must reach {min_speedup:.2}x",
                        f.name, interp.name
                    ));
                }
            } else {
                others_total += 1;
                if speedup >= min_speedup {
                    others_passing += 1;
                }
            }
        }
        if others_total > 0 && others_passing == 0 {
            violations.push(format!(
                "no aggregate family reached {min_speedup:.2}x compiled speedup over its interpreted sibling"
            ));
        }
        violations
    }

    /// A per-row before/after table against `baseline` — what the CI
    /// gate prints when it fails, so a red build shows every family's
    /// delta at a glance instead of only the violating rows.
    pub fn comparison_table(&self, baseline: &SmokeReport) -> String {
        let name_w = baseline
            .families
            .iter()
            .chain(&self.families)
            .map(|f| f.name.len())
            .max()
            .unwrap_or(6)
            .max("family".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>8}  {:>14}  {:>14}  {:>8}  {:>16}  {:>16}\n",
            "family",
            "backend",
            "base ops/s",
            "now ops/s",
            "delta",
            "base bytes-pruned",
            "now bytes-pruned"
        ));
        for base in &baseline.families {
            match self.families.iter().find(|f| f.name == base.name) {
                Some(cur) => {
                    let delta = if base.ops_per_sec > 0.0 {
                        (cur.ops_per_sec / base.ops_per_sec - 1.0) * 100.0
                    } else {
                        0.0
                    };
                    out.push_str(&format!(
                        "{:<name_w$}  {:>8}  {:>14.0}  {:>14.0}  {:>+7.1}%  {:>17}  {:>16}\n",
                        base.name,
                        cur.backend,
                        base.ops_per_sec,
                        cur.ops_per_sec,
                        delta,
                        base.bytes_pruned,
                        cur.bytes_pruned
                    ));
                }
                None => {
                    out.push_str(&format!(
                        "{:<name_w$}  {:>8}  {:>14.0}  {:>14}  {:>8}  {:>17}  {:>16}\n",
                        base.name,
                        base.backend,
                        base.ops_per_sec,
                        "missing",
                        "-",
                        base.bytes_pruned,
                        "-"
                    ));
                }
            }
        }
        for cur in
            self.families.iter().filter(|f| baseline.families.iter().all(|b| b.name != f.name))
        {
            out.push_str(&format!(
                "{:<name_w$}  {:>8}  {:>14}  {:>14.0}  {:>8}  {:>17}  {:>16}\n",
                cur.name, cur.backend, "(new)", cur.ops_per_sec, "-", "-", cur.bytes_pruned
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_covers_all_seven_families_plus_sharded_planned_and_streamed_runs() {
        let r = run_smoke(42, 2_000, 1);
        let names: Vec<&str> = r.families.iter().map(|f| f.name.as_str()).collect();
        for want in
            ["filter-count", "distinct", "topn", "groupby-max", "having-sum", "skyline", "join"]
        {
            assert!(names.contains(&want), "missing {want}");
        }
        assert!(names.iter().filter(|n| n.contains("@shards4")).count() == 3);
        // Every fixed-spec sharded row has its planned, streamed, and
        // compiled twins.
        assert!(names.iter().filter(|n| n.ends_with("@planned")).count() == 3);
        assert!(names.iter().filter(|n| n.ends_with("@streamed")).count() == 3);
        assert!(names.iter().filter(|n| n.ends_with("@compiled")).count() == 3);
        // The serving plane contributes its burst row, served by the
        // interpreted barrier pool it pins.
        assert!(names.contains(&"burst@serving"), "missing burst@serving");
        for f in &r.families {
            assert!(f.ops_per_sec > 0.0, "{}: zero throughput", f.name);
            // Honest attribution: only @compiled rows report the fused
            // kernels, and they must never silently fall back.
            let want = if f.name.ends_with("@compiled") { "compiled" } else { "interp" };
            assert_eq!(f.backend, want, "{}", f.name);
        }
    }

    #[test]
    fn compiled_rows_prune_exactly_like_their_interpreted_siblings() {
        // The contract gate proves this on the executor; this pins the
        // harness wiring — same presplit layout, same counters.
        let r = run_smoke(11, 2_000, 1);
        for f in r.families.iter().filter(|f| f.name.ends_with("@compiled")) {
            let sibling = f.name.replace("@compiled", &format!("@shards{SMOKE_SHARDS}"));
            let interp = r.families.iter().find(|s| s.name == sibling).expect("sibling row");
            assert_eq!(f.bytes_pruned, interp.bytes_pruned, "{}", f.name);
            assert_eq!(f.entries_to_master, interp.entries_to_master, "{}", f.name);
        }
    }

    #[test]
    fn compiled_speedup_gate_reads_sibling_rows() {
        let mut r = run_smoke(5, 1_000, 1);
        // Force known ratios: distinct 2x, groupby-max 1.1x, join 1.0x.
        let fake = |r: &mut SmokeReport, name: &str, ops: f64| {
            r.families.iter_mut().find(|f| f.name == name).expect(name).ops_per_sec = ops;
        };
        fake(&mut r, "distinct@shards4", 100.0);
        fake(&mut r, "distinct@compiled", 200.0);
        fake(&mut r, "groupby-max@shards4", 100.0);
        fake(&mut r, "groupby-max@compiled", 110.0);
        fake(&mut r, "join@shards4", 100.0);
        fake(&mut r, "join@compiled", 100.0);
        // 1.5x: distinct passes but no aggregate family does.
        let v = r.compiled_speedup_violations(1.5);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no aggregate family"), "{v:?}");
        // 1.05x: distinct and groupby-max both clear it.
        assert!(r.compiled_speedup_violations(1.05).is_empty());
        // 3x: distinct itself fails too.
        let v = r.compiled_speedup_violations(3.0);
        assert!(v.iter().any(|m| m.contains("distinct@compiled")), "{v:?}");
    }

    #[test]
    fn backend_flip_is_a_regression() {
        let base = run_smoke(3, 1_000, 1);
        let mut flipped = base.clone();
        let idx = flipped
            .families
            .iter()
            .position(|f| f.name.ends_with("@compiled"))
            .expect("compiled row");
        flipped.families[idx].backend = "interp".to_string();
        let v = flipped.regressions_against(&base, 0.9);
        assert!(v.iter().any(|m| m.contains("backend changed")), "{v:?}");
    }

    #[test]
    fn bytes_pruned_is_deterministic_in_the_seed() {
        let a = run_smoke(7, 2_000, 1);
        let b = run_smoke(7, 2_000, 1);
        for (x, y) in a.families.iter().zip(&b.families) {
            assert_eq!(x.bytes_pruned, y.bytes_pruned, "{}", x.name);
            assert_eq!(x.entries_to_master, y.entries_to_master, "{}", x.name);
        }
    }

    #[test]
    fn json_round_trips() {
        let r = run_smoke(3, 1_000, 1);
        let parsed = SmokeReport::parse_json(&r.to_json()).expect("parse back");
        assert_eq!(parsed.seed, r.seed);
        assert_eq!(parsed.rows, r.rows);
        assert_eq!(parsed.families.len(), r.families.len());
        for (a, b) in parsed.families.iter().zip(&r.families) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.bytes_pruned, b.bytes_pruned);
            assert!((a.ops_per_sec - b.ops_per_sec).abs() <= 0.1);
        }
        // A pre-backend-column baseline still parses: the field defaults
        // to the interpreter.
        let json = r.to_json();
        let legacy = json.lines().map(|l| {
            if let Some(at) = l.find("\"backend\": \"") {
                let end = l[at + 12..].find('"').unwrap() + at + 12;
                format!("{}{}", &l[..at], &l[end + 3..])
            } else {
                l.to_string()
            }
        });
        let legacy = legacy.collect::<Vec<_>>().join("\n");
        let parsed = SmokeReport::parse_json(&legacy).expect("legacy baseline parses");
        assert!(parsed.families.iter().all(|f| f.backend == "interp"));
    }

    #[test]
    fn telemetry_block_round_trips_and_tolerates_absence() {
        let r = run_smoke(9, 1_000, 1);
        let t = r.telemetry.as_ref().expect("smoke pass emits a telemetry block");
        assert_eq!(t.plan_cache_hit_rate, 0.75, "1 miss + 3 hits, deterministic");
        assert!(t.retransmits > 0, "the harsh seeded channel must force resends");
        assert!(t.queue_p99_seconds >= 0.0);
        let parsed = SmokeReport::parse_json(&r.to_json()).expect("parse back");
        let pt = parsed.telemetry.expect("block survives the round trip");
        assert_eq!(pt.retransmits, t.retransmits);
        assert_eq!(pt.plan_cache_hit_rate, t.plan_cache_hit_rate);
        assert!((pt.queue_p99_seconds - t.queue_p99_seconds).abs() < 1e-8);
        // A pre-telemetry baseline (no block) still parses, to None —
        // CI's checked-in baseline predates the plane.
        let stripped: String = r
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"telemetry\""))
            .collect::<Vec<_>>()
            .join("\n")
            .replace("  ],", "  ]");
        let parsed = SmokeReport::parse_json(&stripped).expect("pre-telemetry baseline parses");
        assert!(parsed.telemetry.is_none());
    }

    #[test]
    fn regression_gate_catches_slowdowns_and_pruning_loss() {
        let base = run_smoke(3, 1_000, 1);
        // Same report: no violations.
        assert!(base.regressions_against(&base, 0.2).is_empty());
        // A 10× slowdown of one family trips the ops gate.
        let mut slow = base.clone();
        slow.families[0].ops_per_sec = base.families[0].ops_per_sec / 10.0;
        let v = slow.regressions_against(&base, 0.2);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("ops/sec regressed"));
        // Halving bytes-pruned trips the quality gate.
        let mut weak = base.clone();
        weak.families[1].bytes_pruned = base.families[1].bytes_pruned / 2;
        let v = weak.regressions_against(&base, 0.2);
        assert!(v.iter().any(|m| m.contains("bytes-pruned regressed")), "{v:?}");
        // A vanished family is always a violation.
        let mut gone = base.clone();
        gone.families.remove(0);
        assert!(!gone.regressions_against(&base, 0.2).is_empty());
        // A different workload is never comparable, even if all metrics
        // happen to sit above the floors.
        let mut reseeded = base.clone();
        reseeded.seed = 999;
        let v = reseeded.regressions_against(&base, 0.2);
        assert!(v.len() == 1 && v[0].contains("seed mismatch"), "{v:?}");
        let mut resized = base.clone();
        resized.rows += 1;
        assert!(resized.regressions_against(&base, 0.2)[0].contains("size mismatch"));
    }

    #[test]
    fn planned_and_streamed_rows_gate_with_their_own_tolerances() {
        let base = run_smoke(3, 1_000, 1);
        let planned_idx = base
            .families
            .iter()
            .position(|f| f.name.ends_with("@planned"))
            .expect("planned family present");
        let streamed_idx = base
            .families
            .iter()
            .position(|f| f.name.ends_with("@streamed"))
            .expect("streamed family present");
        // A 30% planned-row slowdown trips the default gate but passes
        // once the planner tolerance is widened…
        let mut slow = base.clone();
        slow.families[planned_idx].ops_per_sec = base.families[planned_idx].ops_per_sec * 0.7;
        assert!(!slow.regressions_against(&base, 0.2).is_empty());
        assert!(slow.regressions_against_with(&base, 0.2, 0.4, 0.2, 0.2, 0.2).is_empty());
        // …the streamed knob excuses only @streamed rows…
        let mut slow_streamed = base.clone();
        slow_streamed.families[streamed_idx].ops_per_sec =
            base.families[streamed_idx].ops_per_sec * 0.7;
        assert!(!slow_streamed.regressions_against_with(&base, 0.2, 0.9, 0.2, 0.9, 0.9).is_empty());
        assert!(slow_streamed.regressions_against_with(&base, 0.2, 0.2, 0.4, 0.2, 0.2).is_empty());
        // …the compiled knob excuses only @compiled rows…
        let compiled_idx = base
            .families
            .iter()
            .position(|f| f.name.ends_with("@compiled"))
            .expect("compiled family present");
        let mut slow_compiled = base.clone();
        slow_compiled.families[compiled_idx].ops_per_sec =
            base.families[compiled_idx].ops_per_sec * 0.7;
        assert!(!slow_compiled.regressions_against_with(&base, 0.2, 0.9, 0.9, 0.2, 0.9).is_empty());
        assert!(slow_compiled.regressions_against_with(&base, 0.2, 0.2, 0.2, 0.4, 0.2).is_empty());
        // …the serving knob excuses only @serving rows…
        let serving_idx = base
            .families
            .iter()
            .position(|f| f.name.ends_with("@serving"))
            .expect("serving family present");
        let mut slow_serving = base.clone();
        slow_serving.families[serving_idx].ops_per_sec =
            base.families[serving_idx].ops_per_sec * 0.7;
        assert!(!slow_serving.regressions_against_with(&base, 0.2, 0.9, 0.9, 0.9, 0.2).is_empty());
        assert!(slow_serving.regressions_against_with(&base, 0.2, 0.2, 0.2, 0.2, 0.4).is_empty());
        // …while a fixed-spec row is never excused by any knob.
        let fixed_idx =
            base.families.iter().position(|f| f.name.contains("@shards")).expect("fixed family");
        let mut slow_fixed = base.clone();
        slow_fixed.families[fixed_idx].ops_per_sec = base.families[fixed_idx].ops_per_sec * 0.7;
        assert!(!slow_fixed.regressions_against_with(&base, 0.2, 0.9, 0.9, 0.9, 0.9).is_empty());
        // The deterministic quality gate binds every suffixed row at the
        // *base* tolerance — wide knobs never excuse lost pruning.
        for idx in [planned_idx, streamed_idx, compiled_idx] {
            let mut weak = base.clone();
            weak.families[idx].bytes_pruned = (base.families[idx].bytes_pruned as f64 * 0.7) as u64;
            let v = weak.regressions_against_with(&base, 0.2, 0.9, 0.9, 0.9, 0.9);
            assert!(v.iter().any(|m| m.contains("bytes-pruned regressed")), "{v:?}");
        }
    }

    #[test]
    fn comparison_table_lists_every_row_with_deltas() {
        let base = run_smoke(3, 1_000, 1);
        let mut cur = base.clone();
        cur.families[0].ops_per_sec *= 0.5;
        let gone = cur.families.pop().expect("non-empty");
        cur.families.push(SmokeFamily {
            name: "brand-new".into(),
            backend: "interp".into(),
            ops_per_sec: 1.0,
            bytes_pruned: 0,
            entries_to_master: 0,
        });
        let table = cur.comparison_table(&base);
        for f in &base.families[..base.families.len() - 1] {
            assert!(table.contains(&f.name), "missing row for {}", f.name);
        }
        assert!(table.contains("-50.0%"), "halved row must show its delta:\n{table}");
        let gone_line = table.lines().find(|l| l.contains(&gone.name)).expect("vanished row");
        assert!(gone_line.contains("missing"), "{gone_line}");
        let new_line = table.lines().find(|l| l.contains("brand-new")).expect("new row");
        assert!(new_line.contains("(new)"), "{new_line}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SmokeReport::parse_json("not json at all").is_err());
        assert!(SmokeReport::parse_json("{}").is_err());
    }
}
