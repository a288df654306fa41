//! The one generated gate the contract files share: a [`Case`] drawn whole
//! from one `u64` seed, the universal check every case is held to
//! ([`check`]), the halving shrinker a failing case is reduced by, and the
//! walk ([`for_each_case`]) that enumerates the grid first and then draws
//! at random — so a schema, query-shape or axis change lands in exactly one
//! place. The fixtures beside it (`gen_table`, `all_seven`, …) feed the
//! goldens and scenarios, which stay hand-written.
// Each integration test compiles `common` separately and uses its own
// subset of these fixtures.
#![allow(dead_code)]

use cheetah_core::JoinMode;
use cheetah_db::{
    units, ChooserArm, Cluster, Column, DataType, DbPredicate, DbQuery, ExecBackend, ExecPath,
    IntCmp, LikePattern, Partition, QueryOutput, Table, TableBuilder, Value,
};
use cheetah_net::FaultProfile;
use cheetah_runtime::{execute, ExecPlan, ExecRun, WorkerPool};
use cheetah_serve::{Error, QueryRequest, QueryResponse, Session, SessionConfig};
use cheetah_switch::hash::mix64;
use cheetah_telemetry::{export_jsonl, SpanNode};
use cheetah_workloads::PlannerAdversary;
use proptest::strategy::halvings;
use proptest::test_runner::{run_one, Config, TestRng};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Deterministic random table: `rows` rows, `keys` distinct string keys,
/// two int columns with ranges derived from the seed.
pub fn gen_table(rows: usize, keys: u64, partitions: usize, seed: u64) -> Table {
    draw_table(rows, keys, partitions, seed, Ints::Narrow, [false; 2])
}

/// How a generated table draws its int columns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ints {
    /// `a` in `0..10 000`, `b` in `0..500`: inside the switch's 32-bit
    /// window, as every fixture draws.
    Narrow,
    /// The full `i64` range, half the cells at the edges [`EDGES`].
    Wide,
    /// Every cell 5: with one key, a constant table.
    Constant,
}

/// The values a wide draw favours: the ends of `i64` and the cells just
/// inside and outside the switch's 32-bit window.
pub const EDGES: [i64; 7] = [
    i64::MIN,
    i64::MIN + 1,
    -(1 << 31) - 1,
    -(1 << 31) + 1,
    (1 << 31) - 1,
    (1 << 31) + 1,
    i64::MAX,
];

fn int_cell(ints: Ints, x: u64, narrow: u64) -> i64 {
    match ints {
        Ints::Narrow => (x % narrow) as i64,
        Ints::Constant => 5,
        Ints::Wide => match x % 4 {
            0 | 1 => EDGES[(x >> 2) as usize % EDGES.len()],
            2 => x as i64,
            _ => ((x >> 2) % narrow) as i64 - narrow as i64 / 2,
        },
    }
}

/// `key, a, b` over `partitions`: the key `key-<n>` (or, `int_key`, the
/// int `n`) for `n` below `keys`, the ints per `ints`; `holes`, an empty
/// partition before the rows and one after.
fn draw_table(
    rows: usize,
    keys: u64,
    partitions: usize,
    seed: u64,
    ints: Ints,
    [int_key, holes]: [bool; 2],
) -> Table {
    let key_type = if int_key { DataType::Int } else { DataType::Str };
    let fields =
        vec![("key".into(), key_type), ("a".into(), DataType::Int), ("b".into(), DataType::Int)];
    let mut b = TableBuilder::new("t", fields, rows.div_ceil(partitions).max(1));
    if holes {
        b.cut_partition();
    }
    let mut x = seed | 1;
    for _ in 0..rows {
        x = mix64(x);
        let n = x % keys.max(1);
        let k = if int_key { Value::Int(n as i64) } else { Value::Str(format!("key-{n}")) };
        x = mix64(x);
        let a = int_cell(ints, x, 10_000);
        x = mix64(x);
        let bb = int_cell(ints, x, 500);
        b.push_row(vec![k, Value::Int(a), Value::Int(bb)]);
    }
    if holes {
        b.cut_partition();
        b.cut_partition();
    }
    b.build()
}

/// `t`'s rows as one partition, nothing coded: the same cells as the
/// table held before the load rule coded its repeating strings.
pub fn plain(t: &Table) -> Table {
    let column = |c: usize| {
        let cols = t.partitions().iter().map(move |p| p.column(c));
        match t.fields()[c].1 {
            DataType::Int => Column::Int(cols.flat_map(|c| c.as_int().unwrap()).copied().collect()),
            DataType::Str => Column::Str(cols.flat_map(|c| c.as_str().unwrap()).cloned().collect()),
        }
    };
    let cols = (0..t.fields().len()).map(column).collect();
    Table::from_partition(t.name(), t.fields().to_vec(), Partition::new(cols))
}

/// One query per [`DbQuery`] variant — all seven shapes.
pub fn all_seven(threshold: i64) -> Vec<DbQuery> {
    vec![
        DbQuery::FilterCount {
            pred: DbPredicate::Or(vec![
                DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 9_000 },
                DbPredicate::And(vec![
                    DbPredicate::CmpInt { col: 2, op: IntCmp::Lt, lit: 50 },
                    DbPredicate::Like { col: 0, pattern: LikePattern::parse("key-1%") },
                ]),
            ]),
        },
        DbQuery::Distinct { col: 0 },
        DbQuery::TopN { order_col: 1, n: 17 },
        DbQuery::GroupByMax { key_col: 0, val_col: 1 },
        DbQuery::Skyline { cols: vec![1, 2] },
        DbQuery::HavingSum { key_col: 0, val_col: 1, threshold },
        DbQuery::Join { left_key: 0, right_key: 0 },
    ]
}

/// The families whose switch program has no compiled kernel: asked for
/// the compiled backend, they run the interpreter and say so.
pub const INTERPRETER_ONLY: [&str; 3] = ["topn", "join", "having-sum"];

/// The shard count the serving plane holds a returning unpinned `q` over
/// these tables at: the one shard-count rule's.
pub fn served(q: &DbQuery, left: &Table, right: Option<&Table>) -> usize {
    units(q, left, right, WorkerPool::global().workers())
}

/// Route `q` over `shards` shards and execute it on the barrier transport.
pub fn run_barrier(
    cluster: &Cluster,
    q: &DbQuery,
    left: &Arc<Table>,
    right: Option<&Arc<Table>>,
    shards: usize,
) -> ExecRun {
    let plan = ExecPlan::new(cluster, q, left, right, shards).expect("routes");
    execute(cluster, &plan, ExecPath::BarrierPooled).expect("plan fits")
}

/// What a lossless run's accounting must satisfy, whatever the layout and
/// path: the master's time is every shard's completion plus the merge, the
/// run's wire bytes, survivors and switch arrivals are its shards' sums,
/// and nothing crossed a rack.
pub fn assert_merge_discipline(run: &ExecRun, label: &str) {
    let shards = &run.per_shard;
    let completions: f64 = shards.iter().map(|s| s.master_seconds).sum();
    assert_eq!(run.breakdown.master_seconds, completions + run.merge_seconds, "{label}");
    let bytes: u64 = shards.iter().map(|s| s.master_wire_bytes).sum();
    assert_eq!(run.breakdown.master_wire_bytes, bytes, "{label}");
    let entries: u64 = shards.iter().map(|s| s.entries_to_master).sum();
    assert_eq!(run.breakdown.entries_to_master, entries, "{label}");
    assert_eq!(run.switch_stats.seen, shards.iter().map(|s| s.seen).sum::<u64>(), "{label}");
    let rack = (run.breakdown.retransmits, run.breakdown.switch_acks);
    assert_eq!(rack, (0, 0), "{label}: a lossless run carries nothing");
}

/// Whether a run's `worker` spans name the threads a plan of `shards`
/// shards runs on: the caller beside at most `min(shards, workers) − 1`
/// pool helpers, so at most `min(shards, workers)` distinct threads, each
/// `caller` or a pool worker's index; a one-shard run's on the caller.
pub fn on_their_threads(spans: &[&SpanNode], shards: usize) -> bool {
    let workers = WorkerPool::global().workers();
    let threads: Option<BTreeSet<&str>> = spans.iter().map(|w| w.attr("thread")).collect();
    let Some(threads) = threads else { return false };
    let helper = |t: &str| t.parse::<usize>().is_ok_and(|w| w < workers);
    let named = threads.iter().all(|&t| t == "caller" || helper(t));
    let one_on_the_caller = shards > 1 || threads == BTreeSet::from(["caller"]);
    named && threads.len() <= shards.min(workers) && one_on_the_caller
}

// ---------------------------------------------------------------------
// The case
// ---------------------------------------------------------------------

/// Which tables a case reads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// [`draw_table`]'s rows: the left table, and a right one of half the
    /// rows over twice the keys.
    Gen,
    /// `PlannerAdversary::all()[i]` at the case's rows.
    Adversary(usize),
}

/// The layout a case routes under: a hand-picked shard count (one shard
/// is the tables themselves), or the one the serving plane would hold for
/// it ([`served`]). Every layout is hash-routed, so a layout is its count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Layout {
    Shards(usize),
    Served,
}

/// The grid's layouts, in walk order, before [`Layout::Served`].
const GRID_LAYOUTS: [Layout; 3] = [Layout::Shards(1), Layout::Shards(2), Layout::Shards(7)];

/// The grid's arms: the barrier on either backend, then direct.
pub const ARMS: [ChooserArm; 3] = [
    ChooserArm { path: ExecPath::BarrierPooled, backend: ExecBackend::Interpreted },
    ChooserArm { path: ExecPath::BarrierPooled, backend: ExecBackend::Compiled },
    ChooserArm { path: ExecPath::Direct, backend: ExecBackend::Interpreted },
];

/// The sights a serving case sends a fresh session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Visits {
    /// Unpinned, once: the tables whole, direct.
    First,
    /// Unpinned, twice: the second sight routes its rows over the cores
    /// and runs direct.
    Routing,
    /// Unpinned, three times: the third runs the held layout direct, warm.
    Warm,
    /// Pinned to the case's arm and shard count, twice: each routes a
    /// layout of its own.
    Pinned,
}

/// Which gate draws: what a case may vary beyond the common axes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// `ExecPlan::new` under the case's layout, `execute` on its arm.
    Exec,
    /// The same in fault mode, at [`FaultProfile::harsh`].
    Fault,
    /// A session's [`Visits`].
    Serve,
}

/// The unpinned visits the serving gate's grid walks for every family.
const UNPINNED: [Visits; 3] = [Visits::First, Visits::Routing, Visits::Warm];

impl Gate {
    /// Its grid's points: per family, every layout × arm, and for the
    /// serving gate, which pins those, the [`UNPINNED`] visits first.
    pub fn grid(self) -> u32 {
        let unpinned = if self == Gate::Serve { UNPINNED.len() } else { 0 };
        (7 * (unpinned + (GRID_LAYOUTS.len() + 1) * ARMS.len())) as u32
    }
}

/// One generated case, drawn whole from `seed` ([`Case::draw`]); its
/// `Debug` is the struct literal to paste into a test that calls
/// [`check`] to rerun it.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    pub seed: u64,
    /// Index into [`all_seven`].
    pub family: usize,
    pub source: Source,
    pub rows: usize,
    pub keys: u64,
    pub partitions: usize,
    /// The left and right tables loaded as built (repeating strings coded
    /// at load), else the same rows [`plain`].
    pub coded: [bool; 2],
    /// Generated tables with an empty partition before and after the rows.
    pub holes: bool,
    pub ints: Ints,
    /// The right table's key is an int column (a JOIN across key types).
    pub right_int_key: bool,
    pub threshold: i64,
    pub layout: Layout,
    /// Index into [`ARMS`].
    pub arm: usize,
    pub join_mode: JoinMode,
    /// Whether the run is in fault mode, seeded by [`Case::seed`].
    pub fault: bool,
    /// How a serving case visits a session; `None`, routed and executed.
    pub visits: Option<Visits>,
}

impl Case {
    /// The case `seed` names for `gate`.
    pub fn draw(seed: u64, gate: Gate) -> Case {
        Case::draw_at(seed, gate, None)
    }

    /// The case `seed` names for `gate`, on the grid's `layout`th layout
    /// (past [`GRID_LAYOUTS`]: served) if one is named.
    fn draw_at(seed: u64, gate: Gate, layout: Option<usize>) -> Case {
        let mut rng = TestRng::from_seed(seed);
        let mut next = |bound: u64| rng.below(bound);
        let pick = next(GRID_LAYOUTS.len() as u64 + 1) as usize;
        let layout = GRID_LAYOUTS.get(layout.unwrap_or(pick)).copied().unwrap_or(Layout::Served);
        let rows = match next(8) {
            0 => next(4),
            _ => 4 + next(700),
        } as usize;
        Case {
            seed,
            family: next(7) as usize,
            source: if next(4) == 0 { Source::Adversary(next(4) as usize) } else { Source::Gen },
            rows,
            keys: if next(8) == 0 { 1 } else { 1 + next(250) },
            partitions: 1 + next(5) as usize,
            coded: [next(4) != 0, next(4) != 0],
            holes: next(4) == 0,
            ints: [Ints::Narrow, Ints::Narrow, Ints::Wide, Ints::Wide, Ints::Constant]
                [next(5) as usize],
            right_int_key: next(8) == 0,
            threshold: match next(8) {
                0 => -1 - next(1_000) as i64,
                1 => i64::MAX - next(3) as i64,
                2 => 1 << 31,
                _ => rows as i64 * next(40) as i64,
            },
            layout,
            arm: next(3) as usize,
            join_mode: [JoinMode::TwoPass, JoinMode::SmallTableFirst][next(2) as usize],
            fault: gate == Gate::Fault,
            visits: (gate == Gate::Serve).then(|| match next(4) {
                3 => Visits::Pinned,
                v => UNPINNED[v as usize],
            }),
        }
    }

    /// Point `i` of `gate`'s grid ([`Gate::grid`]): family, then (on the
    /// serving gate, after the unpinned visits, pinned) layout × arm, the
    /// arm innermost; every other axis drawn from `seed`.
    pub fn grid(i: u32, seed: u64, gate: Gate) -> Case {
        let per_family = gate.grid() as usize / 7;
        let (family, j) = (i as usize / per_family, i as usize % per_family);
        let unpinned = per_family - (GRID_LAYOUTS.len() + 1) * ARMS.len();
        if j < unpinned {
            return Case { family, visits: Some(UNPINNED[j]), ..Case::draw(seed, gate) };
        }
        let (layout, arm) = ((j - unpinned) / ARMS.len(), (j - unpinned) % ARMS.len());
        let base = Case::draw_at(seed, gate, Some(layout));
        Case { family, arm, visits: base.visits.map(|_| Visits::Pinned), ..base }
    }

    /// Simpler cases to try in place of a failing one: rows, keys,
    /// partitions and shards each halved toward its least.
    pub fn shrink(&self) -> Vec<Case> {
        let halve = |v: usize, least: usize| halvings(least as i128, v as i128);
        let mut out = Vec::new();
        for rows in halve(self.rows, 0) {
            out.push(Case { rows: rows as usize, ..self.clone() });
        }
        for keys in halvings(1, self.keys as i128) {
            out.push(Case { keys: keys as u64, ..self.clone() });
        }
        for partitions in halve(self.partitions, 1) {
            out.push(Case { partitions: partitions as usize, ..self.clone() });
        }
        let layouts: Vec<Layout> = match self.layout {
            Layout::Shards(n) => halve(n, 1).iter().map(|&n| Layout::Shards(n as usize)).collect(),
            Layout::Served => vec![Layout::Shards(1), Layout::Shards(2)],
        };
        out.extend(layouts.into_iter().map(|layout| Case { layout, ..self.clone() }));
        out
    }

    pub fn query(&self) -> DbQuery {
        all_seven(self.threshold).swap_remove(self.family)
    }

    /// The shard count the case's layout names over these tables.
    pub fn shards(&self, q: &DbQuery, left: &Table, right: Option<&Table>) -> usize {
        match self.layout {
            Layout::Shards(n) => n,
            Layout::Served => served(q, left, right),
        }
    }

    /// The left and right tables (for a unary query, which reads no right
    /// table, a one-column right table that a session request attaches on
    /// every other sight: to every cache, the request without it).
    pub fn tables(&self) -> (Arc<Table>, Arc<Table>) {
        let (rows, keys, parts, seed) = (self.rows, self.keys, self.partitions, self.seed);
        let table = |rows, keys, parts, seed, side: usize, int_key| {
            let t = match self.source {
                Source::Gen => {
                    draw_table(rows, keys, parts, seed, self.ints, [int_key, self.holes])
                }
                Source::Adversary(i) => PlannerAdversary::all()[i].table(rows, parts, seed),
            };
            Arc::new(if self.coded[side] { t } else { plain(&t) })
        };
        let left = table(rows, keys, parts, seed, 0, false);
        if !self.query().is_binary() {
            // One int column: a query that read it as the left table would
            // index past it.
            let mut narrow = TableBuilder::new("narrow", vec![("only".into(), DataType::Int)], 8);
            narrow.push_row([Value::Int(1)]);
            return (left, Arc::new(narrow.build()));
        }
        let right_keys = keys.saturating_mul(2);
        (left, table(rows.div_ceil(2), right_keys, 2, seed ^ 0xFF, 1, self.right_int_key))
    }

    pub fn cluster(&self) -> Cluster {
        let mut cluster = Cluster::default();
        cluster.tuning.join_mode = self.join_mode;
        cluster
    }

    /// Does every row of the left table hold the one key?
    fn one_key(&self) -> bool {
        match self.source {
            Source::Gen => self.keys == 1,
            Source::Adversary(i) => PlannerAdversary::all()[i] == PlannerAdversary::SingleHotKey,
        }
    }
}

/// What one block of a gate's walk fixes in each grid point's case.
pub type Pin = fn(&mut Case);

/// The grid as drawn.
pub const DRAWN: Pin = |_| {};

/// The grid over no row at all.
pub const EMPTY: Pin = |c| c.rows = 0;

/// The grid over keys that repeat — at most a quarter as many as rows —
/// so a generated table's key column is coded at load.
pub const REPEATING: Pin = |c| c.keys = c.keys.min(c.rows as u64 / 4 + 1);

/// The grid as drawn, then over each edge table: no row, one row, three
/// rows (fewer than seven shards), and 500 rows of one key and constant
/// ints (TOP N tied everywhere, SKYLINE over one point, the key on one
/// shard).
pub const EDGE_TABLES: [Pin; 5] = [
    DRAWN,
    EMPTY,
    |c| c.rows = 1,
    |c| c.rows = 3,
    |c| (c.source, c.rows, c.keys, c.ints) = (Source::Gen, 500, 1, Ints::Constant),
];

/// The grid over each routing adversary: uniform, zipf(1.0), zipf(1.5),
/// single-hot-key.
pub const ADVERSARIES: [Pin; 4] = [
    |c| c.source = Source::Adversary(0),
    |c| c.source = Source::Adversary(1),
    |c| c.source = Source::Adversary(2),
    |c| c.source = Source::Adversary(3),
];

/// What a case ran, for a gate's own property on top of [`check`].
pub struct Ran {
    pub q: DbQuery,
    pub cluster: Cluster,
    pub left: Arc<Table>,
    pub right: Arc<Table>,
    pub want: QueryOutput,
    /// A routed case the request check admitted: its routed layout and
    /// its run on the case's arm.
    pub exec: Option<(ExecPlan, ExecRun)>,
}

/// The universal check. Every case answers like `run_baseline`, or is
/// refused as `DbQuery::check` refuses it, identically on every arm and
/// sight. A routed case honours the layout's shard count (a served one the
/// rule's), loses no row in routing, keeps the merge discipline
/// (lossless), co-locates a keyed family's one key, shows
/// pass-through accounting on the direct arm and the JOIN pass structure
/// the cluster asks for on a pruned one, and in fault mode answers as the
/// lossless run of the same plan does, with the same switch counters and
/// passes, a delivered set between its survivors and every row read, a
/// switch ACK for every row its program did not keep, and a resend count
/// its seed repeats. A session visit holds every sight to the lifecycle
/// and its trace to completeness.
pub fn check(case: &Case) -> Ran {
    let (q, cluster) = (case.query(), case.cluster());
    let (left, right, want) = drawn(case, &q, &cluster);
    let right_of = q.is_binary().then_some(&right);
    let refusal = q.check(&left, right_of.map(|r| &**r)).err();
    let mut ran = Ran { q, cluster, left, right, want, exec: None };
    match case.visits {
        None => ran.exec = check_plan(case, &ran, refusal),
        Some(visits) => check_session(case, visits, &ran, refusal),
    }
    ran
}

thread_local! {
    /// The last two cases' tables and baseline answer, by the case with
    /// its arm cleared: a grid point's arms share one draw, and a twin
    /// alternates with its case.
    static DRAWN_TABLES: RefCell<Vec<(Case, Drawn)>> = const { RefCell::new(Vec::new()) };
}

type Drawn = (Arc<Table>, Arc<Table>, QueryOutput);

/// `case`'s tables and `run_baseline`'s answer over them.
fn drawn(case: &Case, q: &DbQuery, cluster: &Cluster) -> Drawn {
    let key = Case { arm: 0, ..case.clone() };
    let held = DRAWN_TABLES.with_borrow(|memo| memo.iter().find(|(k, _)| *k == key).cloned());
    if let Some((_, drawn)) = held {
        return drawn;
    }
    let (left, right) = case.tables();
    let right_of = q.is_binary().then_some(&*right);
    let want = cluster.run_baseline(q, &left, right_of).output;
    let drawn = (left, right, want);
    DRAWN_TABLES.with_borrow_mut(|memo| {
        memo.insert(0, (key, drawn.clone()));
        memo.truncate(2);
    });
    drawn
}

fn check_plan(
    case: &Case,
    ran: &Ran,
    refusal: Option<cheetah_core::Error>,
) -> Option<(ExecPlan, ExecRun)> {
    let Ran { q, cluster, left, right, want, .. } = ran;
    let right_of = q.is_binary().then_some(right);
    let layout = case.shards(q, left, right_of.map(|r| &**r));
    let plan = match ExecPlan::new(cluster, q, left, right_of, layout) {
        Ok(plan) => plan,
        Err(e) => {
            assert_eq!(Some(e), refusal, "refused as the request check refuses");
            return None;
        }
    };
    assert_eq!(refusal, None, "the request check refused what routed");
    let shards = plan.shards();
    assert_eq!(shards, layout.max(1), "the layout's shard count");
    let arm = ARMS[case.arm];
    let lossless = cluster.clone().with_backend(arm.backend);
    let faulty = lossless.clone().with_fault(FaultProfile::harsh(), case.seed);
    let on = if case.fault { &faulty } else { &lossless };
    let run = execute(on, &plan, arm.path).expect("plan fits");
    assert_eq!(&run.output, want, "diverged from baseline");
    assert_eq!((run.breakdown.shards as usize, run.per_shard.len()), (shards, shards));
    let routed: u64 = run.per_shard.iter().map(|s| s.rows).sum();
    assert_eq!(routed as usize, left.rows() + right_of.map_or(0, |r| r.rows()), "rows lost");
    if case.one_key() && keyed(q) {
        let nonempty = run.per_shard.iter().filter(|s| s.rows > 0).count();
        assert!(nonempty <= 1, "keyed routing co-locates the one key: {nonempty} shards");
    }
    if shards == 1 && left.rows() == 0 && arm.path != ExecPath::Direct && !case.fault {
        // An empty unit never reaches the executor: run it there directly.
        // (A right table is empty exactly when the left one is.)
        let direct = lossless.run_cheetah(q, left, right_of.map(|r| &**r)).expect("plan fits");
        assert_eq!(&direct.output, want, "the executor over an empty input");
    }
    // The direct arm's switch passes every row through; in fault mode the
    // master holds whatever the rack delivered, so only a lossless run
    // holds it to exactly the rows seen.
    if arm.path == ExecPath::Direct {
        let (stats, entries) = (run.switch_stats, run.breakdown.entries_to_master);
        assert_eq!(stats.pruned, 0, "direct prunes nothing");
        assert_eq!(stats.seen, stats.forwarded, "pass-through");
        if !case.fault {
            assert_eq!(entries, stats.seen, "pass-through to the master");
        }
    } else if q.is_binary() && left.rows() > 0 && right.rows() > 0 && shards == 1 {
        let passes = if case.join_mode == JoinMode::TwoPass { 2 } else { 1 };
        assert_eq!(run.breakdown.passes, passes, "the JOIN pass structure");
    }
    if case.fault {
        let clean = execute(&lossless, &plan, arm.path).unwrap();
        assert_eq!(run.output, clean.output, "fault mode answers like the lossless run");
        assert_eq!(run.switch_stats, clean.switch_stats, "a lossy rack moves no counter");
        assert_eq!(run.breakdown.passes, clean.breakdown.passes, "a lossy rack adds no pass");
        // The switch forwards what the program kept — every row, on the
        // direct arm — and ACKs the rest; the master holds at least that.
        let rows = (left.rows() + right_of.map_or(0, |r| r.rows())) as u64;
        let kept =
            if arm.path == ExecPath::Direct { rows } else { clean.breakdown.entries_to_master };
        let b = &run.breakdown;
        assert_eq!(b.switch_acks, rows - kept, "the switch ACKs what the program pruned");
        let delivered = b.entries_to_master;
        assert!((clean.breakdown.entries_to_master..=rows).contains(&delivered), "{delivered}");
        let again = execute(on, &plan, arm.path).unwrap().breakdown.retransmits;
        assert_eq!(again, b.retransmits, "the seed repeats its resends");
        return Some((plan, run));
    }
    assert_merge_discipline(&run, "lossless");
    Some((plan, run))
}

/// A family whose rows route by the key column.
fn keyed(q: &DbQuery) -> bool {
    matches!(q, DbQuery::Distinct { .. } | DbQuery::GroupByMax { .. } | DbQuery::HavingSum { .. })
}

fn check_session(case: &Case, visits: Visits, ran: &Ran, refusal: Option<cheetah_core::Error>) {
    let Ran { q, cluster, left, right, want, .. } = ran;
    let session = Session::new(cluster.clone(), SessionConfig::default());
    let arm = ARMS[case.arm];
    // A pin names the arm (a backend only where an engine runs) and the
    // layout's shard count.
    let shards = case.shards(q, left, q.is_binary().then_some(&**right));
    let request = |sight: u64| {
        // A tenant per sight: the key is the query and the tables alone.
        let mut req = QueryRequest::new(q.clone(), Arc::clone(left)).tenant(format!("t{sight}"));
        if q.is_binary() || sight % 2 == 1 {
            req = req.with_right(Arc::clone(right));
        }
        match (visits, arm.path) {
            (Visits::Pinned, ExecPath::Direct) => req.path(arm.path).shards(shards),
            (Visits::Pinned, _) => req.path(arm.path).shards(shards).backend(arm.backend),
            _ => req,
        }
    };
    let sights: u64 = match visits {
        Visits::First => 1,
        Visits::Routing | Visits::Pinned => 2,
        _ => 3,
    };
    // A returning unpinned key holds its rows over the cores.
    let served = served(q, left, q.is_binary().then_some(&**right)) as u32;
    for sight in 1..=sights {
        let label = format!("sight {sight}");
        let resp = session.run_blocking(request(sight));
        assert_eq!(session.in_flight(), 0, "{label}: a slot leaked");
        let resp = match (resp, &refusal) {
            (Err(Error::Exec(e)), Some(refused)) => {
                assert_eq!(&e, refused, "{label}: refused as the request check refuses");
                let tree = session.traces().last().expect("a refusal exports its tree");
                let error = Error::Exec(e).to_string();
                assert_eq!(tree.root.attr("error"), Some(error.as_str()), "{label}: traced");
                continue;
            }
            (resp, _) => resp.unwrap_or_else(|e| panic!("{label}: {e}")),
        };
        assert_eq!(&resp.output, want, "{label}: diverged from baseline");
        let tree = resp.trace.as_ref().expect("trace exports");
        // The sink keeps this request's records: read there, they build
        // the tree the response built, timestamps and all.
        let sunk = session.traces().last().expect("the sink keeps every trace");
        assert_eq!(export_jsonl(&sunk, false), export_jsonl(tree, false), "{label}: the sink's");
        // The arm is the request's: a pin's, else direct at every sight,
        // with no switch run and nothing decided. A pin's layout is its
        // own, routed at every sight; an unpinned key routes at its second.
        let route = tree.root.find("route").is_some();
        let (want_arm, want_route) = match visits {
            Visits::Pinned => (engine(ran, arm).label(), true),
            _ => ("direct", sight == 2),
        };
        assert_eq!(resp.arm.label(), want_arm, "{label}: the arm");
        assert_eq!(route, want_route, "{label}: routed");
        assert!(tree.root.find("rule").is_none(), "{label}: nothing decides");
        let cache = match (visits, sight) {
            (Visits::Pinned, _) => "pinned",
            (_, 1) => "first-sight",
            (_, 2) => "miss",
            _ => "hit",
        };
        let plan = tree.root.find("plan").and_then(|p| p.attr("cache"));
        assert_eq!((plan, resp.plan_cached), (Some(cache), cache == "hit"), "{label}");
        if visits != Visits::Pinned {
            let stats = resp.switch_stats;
            assert_eq!((stats.seen, stats.pruned), (stats.forwarded, 0), "{label}: no switch");
            let held = if sight == 1 { 1 } else { served };
            assert_eq!(resp.breakdown.shards, held, "{label}: whole, then the rows over the cores");
        }
        assert_complete_tree(&resp, &format!("t{sight}"), &label);
    }
    // The registry reconciles with the session's stats, and every request,
    // refused or not, exported its tree and counted its latency.
    let (stats, snap) = (session.stats(), session.registry().snapshot());
    let traces = session.traces();
    assert_eq!((traces.pushed(), traces.len() as u64), (sights, sights), "every tree exported");
    assert_eq!(snap.counters["serve.queries"], sights);
    assert_eq!(snap.histograms["serve.latency_seconds"].count, sights);
    assert_eq!(snap.counters["serve.plan_cache.hits"], stats.plan_hits);
    assert_eq!(snap.counters["serve.plan_cache.misses"], stats.plan_misses);
    assert_eq!(snap.gauges["serve.executing"], 0);
    assert!(!snap.counters.contains_key("net.retransmits"), "a lossless session resends nothing");
    if refusal.is_none() {
        let unpinned = visits != Visits::Pinned;
        let fits = (unpinned && sights >= 2, unpinned && sights >= 3);
        assert_eq!((stats.plan_misses, stats.plan_hits), (fits.0 as u64, fits.1 as u64));
        assert_eq!(
            (stats.completed, snap.histograms["serve.queue_seconds"].count),
            (sights, sights)
        );
    }
}

/// The arm a response reports for `arm`: the engine that ran — the
/// interpreter where the family has no kernel, and none (so
/// `Interpreted`) on the direct arm or over tables with no row.
fn engine(ran: &Ran, arm: ChooserArm) -> ChooserArm {
    let rows = ran.left.rows() + if ran.q.is_binary() { ran.right.rows() } else { 0 };
    let interp = INTERPRETER_ONLY.contains(&ran.q.kind()) || rows == 0;
    match arm.path {
        ExecPath::BarrierPooled if !interp => arm,
        _ => ChooserArm { backend: ExecBackend::Interpreted, ..arm },
    }
}

/// A response's span tree is complete and agrees with its breakdown: the
/// lifecycle children under one `query` root, one `worker` per shard in
/// shard order on its plan's thread, a `merge` span, the workers' traced
/// survivors summing to the breakdown's, and the queue span the
/// breakdown's queue time.
pub fn assert_complete_tree(resp: &QueryResponse, tenant: &str, label: &str) {
    let tree = resp.trace.as_ref().expect("trace exports");
    assert_eq!((tree.root.name.as_str(), tree.root.attr("tenant")), ("query", Some(tenant)));
    assert_eq!(resp.breakdown.tenant, tenant, "{label}");
    let children: Vec<&str> = tree.root.children.iter().map(|c| c.name.as_str()).collect();
    for required in ["admit", "queue", "plan", "choose", "execute", "respond"] {
        assert!(children.contains(&required), "{label}: no `{required}` in {children:?}");
    }
    let exec = tree.root.find("execute").expect("checked above");
    assert_eq!(exec.attr("path"), Some(resp.arm.path.label()), "{label}");
    let engine = exec.attr("backend");
    assert_eq!(engine, (resp.arm.path != ExecPath::Direct).then(|| resp.arm.backend.label()));
    let mut workers = Vec::new();
    exec.find_all("worker", &mut workers);
    let shards = resp.breakdown.shards as usize;
    assert_eq!(workers.len(), shards, "{label}: one worker span per shard");
    for (i, w) in workers.iter().enumerate() {
        assert_eq!(w.attr("shard"), Some(i.to_string().as_str()), "{label}");
    }
    let threads: Vec<_> = workers.iter().map(|w| w.attr("thread")).collect();
    assert!(on_their_threads(&workers, shards), "{label}: threads {threads:?}");
    assert!(exec.find("merge").is_some(), "{label}: no merge span");
    let entries = |w: &&SpanNode| w.attr("entries_to_master").unwrap().parse::<u64>().unwrap();
    let traced: u64 = workers.iter().map(entries).sum();
    assert_eq!(traced, resp.breakdown.entries_to_master, "{label}");
    let queue = tree.root.find("queue").expect("checked above");
    assert!((queue.duration_s() - resp.breakdown.queue_seconds).abs() < 1e-3, "{label}");
    let carried = workers.iter().any(|w| w.attr("retransmits").is_some());
    assert!(!carried && resp.breakdown.retransmits == 0, "{label}: lossless");
}

/// Walk `gate`'s cases for the test `name`: its grid ([`Gate::grid`])
/// once per block, each point fixed by the block's [`Pin`], then `random`
/// random draws; every case seeded by its index. Every case is held to
/// [`check`] and then to the gate's own `property`; a failure is shrunk
/// and reported with its minimal case, the seed in it. The walk is split
/// over the machine's cores, a grid point's arms kept on one.
pub fn for_each_case(
    name: &str,
    gate: Gate,
    blocks: &[Pin],
    random: u32,
    property: impl Fn(&Case, &Ran) + Sync,
) {
    let (grid, arms) = (gate.grid(), ARMS.len() as u32);
    let cases = grid * blocks.len() as u32 + random;
    let walk = |i: u32| {
        let case = match blocks.get((i / grid) as usize) {
            Some(pin) => {
                // A grid point's arms (or a family's unpinned visits) share
                // one draw, so they read the same tables.
                let seed = TestRng::for_case(name, i / arms).next_u64();
                let mut case = Case::grid(i % grid, seed, gate);
                pin(&mut case);
                case
            }
            None => Case::draw(TestRng::for_case(name, i).next_u64(), gate),
        };
        let property = |case: Case| property(&case, &check(&case));
        run_one(&Config::default(), name, i, case, Case::shrink, property);
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u32;
    std::thread::scope(|scope| {
        for core in 0..cores {
            let walk = &walk;
            scope.spawn(move || (0..cases).filter(|i| i / arms % cores == core).for_each(walk));
        }
    });
}
