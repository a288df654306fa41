//! The layer pass: after the front-door phases, replay a fixed sample of
//! the workload's items stage by stage through each layer's *public*
//! functions, with a benchmark span around every call.
//!
//! Layers are this repository's modules. Per-shard execution is a pinned
//! `QueryRequest` (`.shards(1).path(..).backend(..)`) over one routed
//! slice; the pass calls none of the `doc(hidden)` `run_*` entry points,
//! `PooledExecution`/`StreamedExecution` or `finish_sharded`, which the
//! roadmap deletes.
//!
//! Every pinned response and every replayed merge is compared with the
//! oracle, and counts as an operation attempted (and failed, if it
//! differs).

use crate::frontdoor::Driver;
use crate::report::{Metrics, ARMS, FAMILIES};
use crate::spans::{Recorder, SpanId};
use crate::stats::{geomean, median};
use crate::workloads::{shapes_of, Item};
use cheetah_core::{
    CompiledProgram, DistinctConfig, DistinctPruner, GroupByConfig, GroupByPruner, QuerySpec,
    StandalonePruner, TopNDetConfig, TopNDetPruner,
};
use cheetah_db::{
    decompose_output, fixed_sharder, route_range, routing_keys, Column, DataType, DbQuery,
    ExecBackend, MergeItem, MergeState, Partition, PathChooser, PlannerConfig, QueryOutput,
    ShardPartitioner, ShardPlanner, ShardSpec, Sharder, Table, TableBuilder, Value,
};
use cheetah_net::{FrameBuilder, SurvivorBatch, MAX_BATCH_ITEMS};
use cheetah_runtime::WorkerPool;
use cheetah_serve::{QueryRequest, Session, StatsFingerprint};
use cheetah_switch::{ResourceLedger, SwitchProfile};
use cheetah_telemetry::{Histogram, Registry, Trace};
use cheetah_workloads::streams;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Entries per synthetic kernel stream.
const KERNEL_ENTRIES: usize = 100_000;
/// Timed repetitions of a millisecond-scale call.
const REPS: usize = 3;
/// A call is not repeated once its repetitions have taken this long: the
/// pass must stay under ten seconds per workload, and routing a 600 k-row
/// table takes over half a second.
const REPEAT_BUDGET_S: f64 = 0.15;

/// The route → survivors → frame → merge replay covers the first
/// `1 / part` of an item's rows, `part` chosen so the left table's share
/// is about this many rows: routing costs the program over 2 µs a row,
/// and three 600 k-row items alone would take six of the pass's ten
/// seconds.
const REPLAY_ROWS: usize = 200_000;

/// The replayed part of one item, routed by the item's own plan.
struct Routed {
    left: Vec<Arc<Table>>,
    right: Option<Vec<Arc<Table>>>,
    /// `Cluster::run_baseline` over the replayed rows.
    want: QueryOutput,
}

/// The pass and what it has measured so far.
pub struct LayerPass<'a> {
    driver: &'a Driver<'a>,
    families: &'a [Item],
    /// Index into the driver's items of the first item of each shape.
    sample: Vec<usize>,
    rec: Recorder,
    root: SpanId,
    /// Operations the pass attempted / saw fail.
    pub attempted: u64,
    /// Operations whose output differed from the oracle or came back as
    /// an error.
    pub failed: u64,
    /// Median pinned latency per sampled item and arm, milliseconds.
    pub arm_ms: Vec<[f64; 4]>,
}

impl<'a> LayerPass<'a> {
    /// A pass over `driver`'s workload, recording into `rec`.
    pub fn new(driver: &'a Driver<'a>, families: &'a [Item], mut rec: Recorder) -> Self {
        let sample = shapes_of(driver.items)
            .iter()
            .map(|s| driver.items.iter().position(|i| i.shape == *s).expect("shape has an item"))
            .collect();
        let root = rec.open("layer_pass", None, 0);
        Self { driver, families, sample, rec, root, attempted: 0, failed: 0, arm_ms: Vec::new() }
    }

    /// The shapes of the sampled items, in sample order.
    pub fn sample_shapes(&self) -> Vec<&'static str> {
        self.sampled().iter().map(|(item, _)| item.shape).collect()
    }

    /// The sampled items with their oracle outputs. The references live
    /// as long as the driver, not as long as this borrow of the pass.
    fn sampled(&self) -> Vec<(&'a Item, &'a QueryOutput)> {
        let driver = self.driver;
        self.sample.iter().map(|&i| (&driver.items[i], &driver.oracle[i])).collect()
    }

    /// Run every stage. `main` is the workload's warm session (`None`
    /// for a workload that opens a fresh session per cycle).
    pub fn run(&mut self, main: Option<&Session>, m: &mut Metrics) {
        self.serve_floor(m);
        self.fingerprint(m);
        let routed = self.plan_and_route(m);
        self.frame_and_merge(&routed, m);
        drop(routed);
        self.shard_exec(m);
        self.kernels(m);
        self.arms(main, m);
        self.pool(m);
        self.telemetry(m);
        self.baseline(m);
    }

    /// Close the pass and hand the recorder back.
    pub fn finish(mut self) -> Recorder {
        self.rec.close(self.root);
        self.rec
    }

    fn stage(&mut self, name: &str) -> SpanId {
        self.rec.open(name, Some(self.root), 0)
    }

    /// Time `call` under `parent`, returning its result and seconds.
    fn timed<T>(&mut self, name: &str, parent: SpanId, call: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = self.rec.time(name, Some(parent), 0, call);
        (out, t0.elapsed().as_secs_f64())
    }

    /// Time `call` up to [`REPS`] times, stopping early once
    /// [`REPEAT_BUDGET_S`] is spent. Returns the last result and every
    /// repetition's seconds.
    fn repeated<T>(
        &mut self,
        name: &str,
        parent: SpanId,
        mut call: impl FnMut() -> T,
    ) -> (T, Vec<f64>) {
        let (mut out, first) = self.timed(name, parent, &mut call);
        let mut secs = vec![first];
        while secs.len() < REPS && secs.iter().sum::<f64>() < REPEAT_BUDGET_S {
            let (again, s) = self.timed(name, parent, &mut call);
            out = again;
            secs.push(s);
        }
        (out, secs)
    }

    /// One front-door request, timed and checked against `want`.
    fn request(
        &mut self,
        session: &Session,
        req: QueryRequest,
        want: Option<&QueryOutput>,
        parent: SpanId,
    ) -> (Option<QueryOutput>, f64) {
        let (resp, secs) =
            self.timed("serve::session.run_blocking", parent, || session.run_blocking(req));
        self.attempted += 1;
        let out = resp.ok().map(|r| r.output);
        if out.is_none() || want.is_some_and(|w| out.as_ref() != Some(w)) {
            self.failed += 1;
        }
        (out, secs)
    }

    /// `serve::session`: what a request costs when there is no work in
    /// it — a fully pinned 1-shard DISTINCT over eight rows.
    fn serve_floor(&mut self, m: &mut Metrics) {
        let stage = self.stage("stage:serve_floor");
        let mut b = TableBuilder::new("floor", vec![("k".into(), DataType::Int)], 8);
        for i in 0..8 {
            b.push_row(vec![Value::Int(i % 4)]);
        }
        let tiny = Arc::new(b.build());
        let want = QueryOutput::values((0..4).map(Value::Int).collect());
        let session = self.driver.new_session();
        let req = || {
            QueryRequest::new(DbQuery::Distinct { col: 0 }, Arc::clone(&tiny))
                .shards(1)
                .path(cheetah_db::ExecPath::BarrierPooled)
                .backend(ExecBackend::Compiled)
        };
        let mut us = Vec::new();
        for i in 0..600 {
            let (_, secs) = self.request(&session, req(), Some(&want), stage);
            if i >= 100 {
                us.push(secs * 1e6);
            }
        }
        m.set("serve.floor_us", median(&us));
        self.rec.close(stage);
    }

    /// `serve::plan_cache`: the stats fingerprint every unpinned request
    /// computes before its cache lookup.
    fn fingerprint(&mut self, m: &mut Metrics) {
        let stage = self.stage("stage:plan_cache");
        const LOOPS: usize = 2_000;
        let mut us = Vec::new();
        for (item, _) in self.sampled() {
            let (_, secs) = self.timed("serve::plan_cache.fingerprint", stage, || {
                for _ in 0..LOOPS {
                    black_box(StatsFingerprint::of(black_box(&item.left), item.right.as_deref()));
                }
            });
            us.push(secs * 1e6 / LOOPS as f64);
        }
        m.set("plan_cache.fingerprint_us", median(&us));
        self.rec.close(stage);
    }

    /// `db::planner` and `db::sharded`: plan each sampled item, extract
    /// its routing keys, route its tables by the plan.
    fn plan_and_route(&mut self, m: &mut Metrics) -> Vec<Routed> {
        let stage = self.stage("stage:plan_route");
        let seed = self.driver.cluster.tuning.seed;
        let planner = ShardPlanner::new(PlannerConfig::default());
        let (mut plan_ms, mut keys_ns, mut route_ns, mut shards) = (vec![], vec![], vec![], vec![]);
        let mut routed = Vec::new();
        for (item, want) in self.sampled() {
            let rows = item.rows() as f64;
            let (plan, secs) = self.repeated("db::planner.plan", stage, || {
                planner.plan(&item.query, &item.left, item.right.as_deref(), seed)
            });
            plan_ms.push(median(&secs) * 1e3);
            shards.push(plan.shards() as f64);

            let (keys, secs) = self.repeated("db::planner.routing_keys", stage, || {
                let l = routing_keys(&item.query, 0, &item.left, seed);
                let r = item.right.as_ref().map(|r| routing_keys(&item.query, 1, r, seed));
                (l, r)
            });
            keys_ns.push(median(&secs) * 1e9 / rows);

            let part = (item.left.rows() / REPLAY_ROWS).max(1);
            let ((left, right), secs) = self.repeated("db::sharded.route_range", stage, || {
                route_item(item, &keys.0, keys.1.as_deref(), &plan.sharder, part)
            });
            route_ns.push(median(&secs) * 1e9 / (rows / part as f64));
            let want = if part == 1 {
                want.clone()
            } else {
                let cluster = self.driver.cluster;
                self.rec.time("ledger.replay_oracle", Some(stage), 0, || {
                    let left = head(&item.left, item.left.rows() / part);
                    let right = item.right.as_ref().map(|r| head(r, r.rows() / part));
                    cluster.run_baseline(&item.query, &left, right.as_ref()).output
                })
            };
            routed.push(Routed { left, right, want });
        }
        m.set("planner.plan_ms", geomean(&plan_ms));
        m.set("planner.routing_keys_ns_per_row", median(&keys_ns));
        m.set("planner.shards_chosen", shards.iter().sum::<f64>() / shards.len().max(1) as f64);
        m.set("route.ns_per_row", median(&route_ns));
        self.rec.close(stage);
        routed
    }

    /// `net::stream` and `db::master`: frame the workload's own per-shard
    /// survivors, parse them back, fold them into a `MergeState`.
    fn frame_and_merge(&mut self, routed: &[Routed], m: &mut Metrics) {
        let stage = self.stage("stage:frame_merge");
        const LOOPS: usize = 20;
        let session = self.driver.new_session();
        let (mut enc_s, mut parse_s, mut ingest_s, mut entries, mut bytes) =
            (0.0, 0.0, 0.0, 0u64, 0u64);
        let mut finish_ms = Vec::new();
        for (slot, (item, _)) in self.sampled().into_iter().enumerate() {
            let want = &routed[slot].want;
            // The survivors each shard would stream to the master.
            let mut survivors: Vec<Vec<MergeItem>> = Vec::new();
            for (shard, left) in routed[slot].left.iter().enumerate() {
                let mut req = QueryRequest::new(item.query.clone(), Arc::clone(left)).shards(1);
                if let Some(right) = &routed[slot].right {
                    req = req.with_right(Arc::clone(&right[shard]));
                }
                let (out, _) = self.request(&session, req, None, stage);
                survivors.push(out.map_or(Vec::new(), |o| decompose_output(&item.query, o)));
            }
            let mut builder = FrameBuilder::new();
            let mut t_finish = Vec::new();
            for _ in 0..LOOPS {
                let (frames, secs) = self.timed("net::stream.frame_builder", stage, || {
                    let mut frames = Vec::new();
                    for (shard, items) in survivors.iter().enumerate() {
                        for (seq, chunk) in items.chunks(MAX_BATCH_ITEMS).enumerate() {
                            builder.begin(shard as u32, seq as u64);
                            for it in chunk {
                                builder.push_with(|b| it.encode_into(b));
                            }
                            frames.push(builder.finish());
                        }
                    }
                    frames
                });
                enc_s += secs;
                bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
                let (batches, secs) = self.timed("net::stream.survivor_batch_parse", stage, || {
                    frames
                        .into_iter()
                        .map(|f| SurvivorBatch::parse(f).expect("a frame just built parses"))
                        .collect::<Vec<_>>()
                });
                parse_s += secs;
                entries += batches.iter().map(|b| b.len() as u64).sum::<u64>();
                let (state, secs) = self.timed("db::master.ingest_survivor_batch", stage, || {
                    let mut state = MergeState::new(&item.query);
                    for b in &batches {
                        state.ingest_survivor_batch(b).expect("well-formed items");
                    }
                    state
                });
                ingest_s += secs;
                let (out, secs) = self.timed("db::master.finish", stage, || state.finish());
                t_finish.push(secs * 1e3);
                self.attempted += 1;
                if out != *want {
                    self.failed += 1;
                }
            }
            finish_ms.push(median(&t_finish));
        }
        let per_entry = |secs: f64| secs * 1e9 / entries.max(1) as f64;
        m.set("frame.encode_ns_per_entry", per_entry(enc_s));
        m.set("frame.parse_ns_per_entry", per_entry(parse_s));
        m.set("frame.bytes_per_entry", bytes as f64 / entries.max(1) as f64);
        m.set("merge.ingest_ns_per_entry", per_entry(ingest_s));
        m.set("merge.finish_ms", geomean(&finish_ms));
        self.rec.close(stage);
    }

    /// `db::executor` + `db::operators`: one shard's execution per query
    /// family and backend, as a pinned request over one of four
    /// hash-routed slices of the first quarter of the workload's own
    /// tables (a quarter, because routing all 600 k rows for each of seven
    /// families would take the pass past its ten seconds).
    fn shard_exec(&mut self, m: &mut Metrics) {
        let stage = self.stage("stage:shard_exec");
        let seed = self.driver.cluster.tuning.seed;
        let session = self.driver.new_session();
        for family in FAMILIES {
            let item = self.families.iter().find(|f| f.shape == family).expect("seven families");
            let ((lk, rk), _) = self.timed("db::planner.routing_keys", stage, || {
                let lk = routing_keys(&item.query, 0, &item.left, seed);
                (lk, item.right.as_ref().map(|r| routing_keys(&item.query, 1, r, seed)))
            });
            let key_slices: Vec<&[u64]> =
                std::iter::once(lk.as_slice()).chain(rk.as_deref()).collect();
            let sharder =
                fixed_sharder(&ShardSpec::new(4, ShardPartitioner::Hash), seed, &key_slices);
            let ((mut left, right), _) = self.timed("db::sharded.route_range", stage, || {
                route_item(item, &lk, rk.as_deref(), &sharder, 4)
            });
            let left = left.swap_remove(0);
            let right = right.map(|mut r| r.swap_remove(0));
            let rows = (left.rows() + right.as_ref().map_or(0, |r| r.rows())).max(1) as f64;
            let mut outputs = Vec::new();
            for (backend, label) in
                [(ExecBackend::Interpreted, "interp"), (ExecBackend::Compiled, "compiled")]
            {
                let req = || {
                    let req = QueryRequest::new(item.query.clone(), Arc::clone(&left))
                        .shards(1)
                        .path(cheetah_db::ExecPath::BarrierPooled)
                        .backend(backend);
                    match &right {
                        Some(r) => req.with_right(Arc::clone(r)),
                        None => req,
                    }
                };
                // First sight routes the slice; time the repeats.
                let (first, _) = self.request(&session, req(), None, stage);
                let mut ns = Vec::new();
                for _ in 0..REPS {
                    let (_, secs) = self.request(&session, req(), first.as_ref(), stage);
                    ns.push(secs * 1e9 / rows);
                }
                m.set(&format!("shard_exec.{family}.{label}_ns_per_row"), median(&ns));
                outputs.push(first);
            }
            // The compiled kernel must agree with the interpreted oracle.
            self.attempted += 1;
            if outputs[0] != outputs[1] {
                self.failed += 1;
            }
        }
        self.rec.close(stage);
    }

    /// `core::compile` / `core::pruner`: the prune kernels alone, over
    /// seeded synthetic streams, compiled and interpreted.
    fn kernels(&mut self, m: &mut Metrics) {
        let stage = self.stage("stage:kernels");
        let seed = self.driver.seed;
        let n = KERNEL_ENTRIES;
        let distinct: Vec<[u64; 1]> =
            streams::duplicates_stream(n, 500, seed).into_iter().map(|v| [v]).collect();
        let groupby = streams::keyed_values(n, 500, 1 << 20, seed);
        let topn: Vec<[u64; 1]> =
            streams::random_values(n, 1 << 31, seed).into_iter().map(|v| [v]).collect();
        let ledger = || ResourceLedger::new(SwitchProfile::tofino2());

        let d = DistinctConfig::paper_default();
        let interp = self.interp_kernel(
            StandalonePruner::new(DistinctPruner::build(d, &mut ledger()).expect("fits")),
            &distinct,
            stage,
        );
        m.set("kernel.distinct.interp_ns_per_entry", interp);
        let compiled = self.compiled_kernel(&QuerySpec::Distinct(d), &distinct, stage);
        m.set("kernel.distinct.compiled_ns_per_entry", compiled);

        let g = GroupByConfig::paper_default();
        let interp = self.interp_kernel(
            StandalonePruner::new(GroupByPruner::build(g, &mut ledger()).expect("fits")),
            &groupby,
            stage,
        );
        m.set("kernel.groupby.interp_ns_per_entry", interp);
        let compiled = self.compiled_kernel(&QuerySpec::GroupBy(g), &groupby, stage);
        m.set("kernel.groupby.compiled_ns_per_entry", compiled);

        let t = TopNDetConfig::paper_default();
        let interp = self.interp_kernel(
            StandalonePruner::new(TopNDetPruner::build(t, &mut ledger()).expect("fits")),
            &topn,
            stage,
        );
        m.set("kernel.topn.interp_ns_per_entry", interp);
        let compiled = self.compiled_kernel(&QuerySpec::TopNDet(t), &topn, stage);
        m.set("kernel.topn.compiled_ns_per_entry", compiled);
        self.rec.close(stage);
    }

    fn interp_kernel<P: cheetah_switch::SwitchProgram, const W: usize>(
        &mut self,
        mut pruner: StandalonePruner<P>,
        entries: &[[u64; W]],
        stage: SpanId,
    ) -> f64 {
        let mut ns = Vec::new();
        for _ in 0..REPS {
            let (_, secs) = self.timed("core::pruner.offer", stage, || {
                for e in entries {
                    black_box(pruner.offer(e).expect("stream entry fits the program"));
                }
            });
            ns.push(secs * 1e9 / entries.len() as f64);
        }
        median(&ns)
    }

    fn compiled_kernel<const W: usize>(
        &mut self,
        spec: &QuerySpec,
        entries: &[[u64; W]],
        stage: SpanId,
    ) -> f64 {
        let (program, _) =
            self.timed("core::compile.compile", stage, || CompiledProgram::compile(spec));
        let mut program = program.expect("paper-default specs compile");
        let mut ns = Vec::new();
        for _ in 0..REPS {
            let (_, secs) = self.timed("core::compile.offer_run", stage, || {
                let mut forwarded = 0u64;
                program
                    .offer_run(0, entries.iter().map(|e| &e[..]), |_, v| {
                        forwarded += u64::from(v == cheetah_switch::Verdict::Forward);
                    })
                    .expect("stream entry fits the kernel");
                black_box(forwarded);
            });
            ns.push(secs * 1e9 / entries.len() as f64);
            program.reset();
        }
        median(&ns)
    }

    /// `runtime::runtime`: each of the four (path × backend) arms pinned
    /// at the front door, shard count left to the planner as for an
    /// unpinned request.
    fn arms(&mut self, main: Option<&Session>, m: &mut Metrics) {
        let stage = self.stage("stage:arms");
        const ARM_REPS: usize = 3;
        let mut per_arm: [Vec<f64>; 4] = Default::default();
        for (item, want) in self.sampled() {
            let mut row = [0.0; 4];
            for (a, arm) in PathChooser::ARMS.iter().enumerate() {
                let req = || item.request().path(arm.path).backend(arm.backend);
                let mut ms = Vec::new();
                match main {
                    // Warm workload: the caches are full, as for the
                    // unpinned requests this is compared with.
                    Some(session) => {
                        self.request(session, req(), Some(want), stage);
                        for _ in 0..ARM_REPS {
                            ms.push(self.request(session, req(), Some(want), stage).1 * 1e3);
                        }
                    }
                    // First-sight workload: every repeat on a fresh
                    // session, as in its cycles.
                    None => {
                        for _ in 0..REPS {
                            let session = self.driver.new_session();
                            ms.push(self.request(&session, req(), Some(want), stage).1 * 1e3);
                        }
                    }
                }
                row[a] = median(&ms);
                per_arm[a].push(row[a]);
            }
            self.arm_ms.push(row);
        }
        for (a, suffix) in ARMS.iter().enumerate() {
            m.set(&format!("arm.{suffix}_ms"), geomean(&per_arm[a]));
        }
        self.rec.close(stage);
    }

    /// `runtime::pool`: what waking the pool costs, and how parallel
    /// eight equal jobs really run on this machine.
    fn pool(&mut self, m: &mut Metrics) {
        let stage = self.stage("stage:pool");
        let pool = WorkerPool::global();
        let mut dispatch_us = Vec::new();
        for _ in 0..300 {
            let (_, secs) = self.timed("runtime::pool.spawn(8 no-op)", stage, || {
                let (tx, rx) = mpsc::channel();
                for _ in 0..8 {
                    let tx = tx.clone();
                    pool.spawn(move |_| {
                        tx.send(()).ok();
                    });
                }
                drop(tx);
                while rx.recv().is_ok() {}
            });
            dispatch_us.push(secs * 1e6);
        }
        m.set("pool.dispatch_us", median(&dispatch_us));
        // Eight equal jobs of fixed *work* (about 2 ms alone on a core):
        // efficiency is the speed-up over running them back to back.
        let spin = |iters: u64| {
            let mut x = 0u64;
            for i in 0..iters {
                x = black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            black_box(x);
        };
        let t0 = Instant::now();
        spin(1_000_000);
        let iters = (2e-3 / t0.elapsed().as_secs_f64() * 1e6) as u64;
        let mut efficiency = Vec::new();
        for _ in 0..15 {
            let (_, alone) = self.timed("ledger.spin(alone)", stage, || spin(iters));
            let (_, wall) = self.timed("runtime::pool.spawn(8 x 2 ms)", stage, || {
                let (tx, rx) = mpsc::channel();
                for _ in 0..8 {
                    let tx = tx.clone();
                    pool.spawn(move |_| {
                        spin(iters);
                        tx.send(()).ok();
                    });
                }
                drop(tx);
                while rx.recv().is_ok() {}
            });
            efficiency.push(8.0 * alone / wall);
        }
        m.set("pool.parallel_efficiency", median(&efficiency));
        self.rec.close(stage);
    }

    /// `telemetry`: the per-observation costs every request pays.
    fn telemetry(&mut self, m: &mut Metrics) {
        let stage = self.stage("stage:telemetry");
        const LOOPS: usize = 200_000;
        let registry = Registry::new();
        let hist: Histogram = registry.histogram("ledger.probe");
        let (_, secs) = self.timed("telemetry::metrics.observe", stage, || {
            for i in 0..LOOPS {
                hist.observe(black_box(1e-6 * (1 + i % 1000) as f64));
            }
        });
        m.set("telemetry.observe_ns", secs * 1e9 / LOOPS as f64);
        // The session looks tenant histograms up by a formatted name.
        for t in 0..8 {
            registry.histogram(&format!("serve.tenant.t{t}.latency_seconds"));
        }
        let (_, secs) = self.timed("telemetry::metrics.lookup", stage, || {
            for i in 0..LOOPS / 10 {
                black_box(registry.histogram(&format!("serve.tenant.t{}.latency_seconds", i % 8)));
            }
        });
        m.set("telemetry.lookup_ns", secs * 1e9 / (LOOPS / 10) as f64);
        let trace = Trace::new(registry.clone());
        let root = trace.span("probe");
        let (_, secs) = self.timed("telemetry::span.child", stage, || {
            for _ in 0..LOOPS / 10 {
                root.child("c").finish();
            }
        });
        root.finish();
        m.set("telemetry.span_ns", secs * 1e9 / (LOOPS / 10) as f64);
        let mut export_us = Vec::new();
        for _ in 0..200 {
            // A tree the size of one request's lifecycle trace.
            let trace = Trace::new(registry.clone());
            let root = trace.span("query");
            for name in ["admit", "queue", "plan", "choose", "respond"] {
                root.child(name).finish();
            }
            let exec = root.child("execute");
            for _ in 0..4 {
                exec.child("worker").finish();
            }
            exec.child("merge").finish();
            exec.finish();
            root.finish();
            let (tree, secs) = self.timed("telemetry::span.export", stage, || trace.export());
            assert_eq!(tree.map(|t| t.span_count()).ok(), Some(12));
            export_us.push(secs * 1e6);
        }
        m.set("telemetry.export_us", median(&export_us));
        self.rec.close(stage);
    }

    /// `db::baseline`: the Spark-like path over the same items — the
    /// paper's headline comparison, and this benchmark's oracle.
    fn baseline(&mut self, m: &mut Metrics) {
        let stage = self.stage("stage:baseline");
        let mut ms = Vec::new();
        for (item, want) in self.sampled() {
            let cluster = self.driver.cluster;
            let (run, secs) = self.repeated("db::baseline.run_baseline", stage, || {
                cluster.run_baseline(&item.query, &item.left, item.right.as_deref())
            });
            self.attempted += 1;
            if run.output != *want {
                self.failed += 1;
            }
            ms.push(median(&secs) * 1e3);
        }
        m.set("baseline.ms", geomean(&ms));
        self.rec.close(stage);
    }
}

/// Route the first `1 / part` of both sides of `item` by `sharder`.
fn route_item(
    item: &Item,
    left_keys: &[u64],
    right_keys: Option<&[u64]>,
    sharder: &Sharder,
    part: usize,
) -> (Vec<Arc<Table>>, Option<Vec<Arc<Table>>>) {
    let split = |t: &Table, keys: &[u64]| -> Vec<Arc<Table>> {
        route_range(t, keys, sharder, 0, t.rows() / part).into_iter().map(Arc::new).collect()
    };
    (split(&item.left, left_keys), item.right.as_ref().zip(right_keys).map(|(r, k)| split(r, k)))
}

/// The first `rows` rows of `table`, as one partition.
fn head(table: &Table, rows: usize) -> Table {
    let mut columns: Vec<Column> = table
        .fields()
        .iter()
        .map(|(_, ty)| match ty {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
        })
        .collect();
    let mut left = rows;
    for p in table.partitions() {
        let take = left.min(p.rows());
        for (c, out) in columns.iter_mut().enumerate() {
            match (out, p.column(c)) {
                (Column::Int(out), Column::Int(v)) => out.extend_from_slice(&v[..take]),
                (Column::Str(out), Column::Str(v)) => out.extend_from_slice(&v[..take]),
                _ => unreachable!("a partition's columns have the table's types"),
            }
        }
        left -= take;
    }
    Table::from_partition(table.name(), table.fields().to_vec(), Partition::new(columns))
}
