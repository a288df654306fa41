//! `cheetah-ledger` — the repository's front-door benchmark.
//!
//! One process, closed loop, at most two client threads. It generates
//! its inputs from `--seed`, drives the unmodified program through
//! `Session`/`QueryRequest` only, checks every response against a
//! `Cluster::run_baseline` oracle, and ends with one JSON result line.
//!
//! ```text
//! cheetah-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` measures the four end-to-end metrics with the
//! benchmark's span recording off: `--seconds` sizes a fixed request
//! count, and a yardstick (`run_baseline` over every item, every second
//! or two) is timed inside the phase so that each request's latency can
//! be reported against the machine's speed of that moment. `--trace 1` is the
//! separate traced run: a short untraced phase, the same phase with a
//! benchmark span around every call, and the layer pass; it reports the
//! per-layer metrics and prints the layer tables. See `README.md` beside
//! this package for what each metric means and which layer should move
//! it.

mod frontdoor;
mod layers;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use frontdoor::{Driver, Phase, Sample, LIFECYCLE};
use report::{Metrics, ARMS};
use stats::{chunk_rates, geomean, median, per_shape_geomean, percentile_nearest_rank};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{shapes_of, Built, Item, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    /// Divisor of every table size; 1 except in the unit tests.
    shrink: usize,
}

/// What a run measured.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: workloads::WORKLOADS[0],
        seed: 1,
        seconds: 20.0,
        trace: false,
        spans: None,
        shrink: 1,
    };
    let mut named = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = workloads::by_name(&name).ok_or(format!(
                    "unknown workload {name}; known: {}",
                    workloads::WORKLOADS.map(|w| w.name).join(", ")
                ))?;
                named = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !named {
        return Err("--workload <name> is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cheetah-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace { run_traced(&args) } else { run_end_to_end(&args) };
    out.metrics.print_all();
    // A declared metric the run did not measure counts as a failed
    // operation, so a broken measurement cannot read as a perfect score.
    // End-to-end metrics are never 0; a per-layer count may be.
    let spec = if args.trace { report::per_layer() } else { report::end_to_end() };
    let unusable = out.metrics.unusable(&spec, !args.trace);
    let failed = out.failed + unusable.len() as u64;
    println!("{}", report::result_line(&spec, &out.metrics, out.attempted, failed));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cheetah-ledger: {} operations failed or differed from the oracle; \
             metrics not measured: {unusable:?}",
            out.failed
        );
        ExitCode::FAILURE
    }
}

/// One set-up: tables, oracle, session, warm-up.
struct Setup {
    built: Built,
    oracle: Vec<cheetah_db::QueryOutput>,
    session: Option<cheetah_serve::Session>,
    /// Table generation seconds.
    gen_s: f64,
    /// Oracle seconds; 0 when the oracle was passed in.
    oracle_s: f64,
    /// Generation + `Session::new` + warm-up; the oracle is excluded.
    setup_s: f64,
    /// Warm-up requests attempted / failed.
    attempted: u64,
    failed: u64,
}

impl Setup {
    /// The closed-loop driver over this set-up.
    fn driver<'a>(&'a self, args: &Args, cluster: &'a cheetah_db::Cluster) -> Driver<'a> {
        Driver {
            workload: args.workload,
            seed: args.seed,
            items: &self.built.items,
            oracle: &self.oracle,
            cluster,
        }
    }
}

/// Set the workload up. The oracle is computed once per (query, table)
/// before any timing of the program and kept off the set-up clock; a
/// repeated set-up generates the same tables and passes the first one's
/// oracle back in.
fn set_up(
    args: &Args,
    cluster: &cheetah_db::Cluster,
    oracle: Option<Vec<cheetah_db::QueryOutput>>,
) -> Setup {
    let w = args.workload;
    let t0 = Instant::now();
    let built = w.build(args.seed, args.shrink);
    let gen_s = t0.elapsed().as_secs_f64();
    let t_oracle = Instant::now();
    let oracle = oracle.unwrap_or_else(|| {
        built
            .items
            .iter()
            .map(|i| cluster.run_baseline(&i.query, &i.left, i.right.as_deref()).output)
            .collect()
    });
    let oracle_s = t_oracle.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let driver =
        Driver { workload: w, seed: args.seed, items: &built.items, oracle: &oracle, cluster };
    let session = (!w.fresh_session).then(|| driver.new_session());
    let warm = driver.run(session.as_ref(), w.warmup_cycles, 0, None, false);
    let setup_s = gen_s + t1.elapsed().as_secs_f64();
    let (attempted, failed) = (warm.attempted(), warm.failed());
    Setup { built, oracle, session, gen_s, oracle_s, setup_s, attempted, failed }
}

/// One value per request, one list per shape.
fn by_shape(items: &[Item], phase: &Phase, value: impl Fn(&Sample) -> f64) -> Vec<Vec<f64>> {
    shapes_of(items)
        .iter()
        .map(|shape| {
            phase.samples.iter().filter(|s| items[s.item].shape == *shape).map(&value).collect()
        })
        .collect()
}

/// Client-observed latencies in milliseconds, one list per shape.
fn latencies_by_shape(items: &[Item], phase: &Phase) -> Vec<Vec<f64>> {
    by_shape(items, phase, |s| s.latency_s * 1e3)
}

fn p90(v: &[f64]) -> f64 {
    percentile_nearest_rank(v, 0.90)
}

/// The four raw time metrics and `survivor_fraction` of one untraced
/// phase. Returns the latencies by shape and the ten chunk rates.
fn time_metrics(items: &[Item], phase: &Phase, m: &mut Metrics) -> (Vec<Vec<f64>>, Vec<f64>) {
    let by_shape = latencies_by_shape(items, phase);
    let events: Vec<(f64, u64)> =
        phase.samples.iter().map(|s| (s.end_s, items[s.item].rows())).collect();
    let rows: u64 = events.iter().map(|e| e.1).sum();
    let entries: u64 = phase.samples.iter().map(|s| s.entries).sum();
    m.set("latency_p50_ms", per_shape_geomean(&by_shape, median));
    m.set("latency_p90_ms", per_shape_geomean(&by_shape, p90));
    let chunks = chunk_rates(&events, 0.0, 10, items.len());
    m.set("rows_per_s", median(&chunks));
    m.set("cpu_ms_per_mrow", phase.cpu_s * 1e3 / (rows as f64 / 1e6));
    m.set("survivor_fraction", entries as f64 / rows as f64);
    (by_shape, chunks)
}

/// `--trace 0`: the end-to-end metrics. The raw time metrics are printed
/// too, but are per-layer metrics in `BENCHMARK.json`.
fn run_end_to_end(args: &Args) -> Outcome {
    let cluster = cheetah_db::Cluster::default();
    let w = args.workload;
    let setup = set_up(args, &cluster, None);
    let (mut attempted, mut failed) = (setup.attempted, setup.failed);
    let rss_setup_mb = procfs::peak_rss_mb();
    let items = &setup.built.items;
    let driver = setup.driver(args, &cluster);
    let phase =
        driver.run(setup.session.as_ref(), w.cycles(args.seconds), w.warmup_cycles, None, true);
    let peak_rss_mb = procfs::peak_rss_mb();
    attempted += phase.attempted();
    failed += phase.failed();

    let mut m = Metrics::default();
    let (latencies, chunks) = time_metrics(items, &phase, &mut m);
    // Each request against the two yardstick passes that bracket it in
    // time, so what the machine did in those seconds divides out.
    let yard = phase.yardstick(items.len());
    let relative = by_shape(items, &phase, |s| s.latency_s / yard.around(s));
    m.set("speedup_p50", 1.0 / per_shape_geomean(&relative, median));
    m.set("speedup_p90", 1.0 / per_shape_geomean(&relative, p90));
    m.set("peak_rss_mb", peak_rss_mb);

    println!(
        "workload {} seed {} — {} requests in {:.2} s, {} clients, {} cores",
        w.name,
        args.seed,
        phase.samples.len(),
        phase.wall_s,
        w.clients,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (shape, lat) in shapes_of(items).iter().zip(&latencies) {
        println!(
            "  {shape:<14} n={:<6} p50 {:>9.3} ms  p90 {:>9.3} ms",
            lat.len(),
            median(lat),
            p90(lat)
        );
    }
    let mrows: Vec<String> = chunks.iter().map(|r| format!("{:.1}", r / 1e6)).collect();
    println!("  ten-chunk throughput, Mrows/s: {}", mrows.join(" "));
    println!(
        "  yardstick: {} passes, {} baseline calls, {:.2} s",
        yard.passes(),
        phase.baseline.iter().map(|b| u64::from(b.reps)).sum::<u64>(),
        phase.baseline.iter().map(|b| b.secs * f64::from(b.reps)).sum::<f64>()
    );
    println!(
        "  oracle {:.3} s (off the set-up clock); VmHWM {rss_setup_mb:.1} MB after set-up, \
         {peak_rss_mb:.1} MB after the measured phase",
        setup.oracle_s
    );

    // The repeat set-ups, after `VmHWM` was read.
    let mut setups = vec![setup.setup_s];
    let Setup { mut oracle, built, session, .. } = setup;
    drop((session, built));
    while setups.len() < w.setups {
        let again = set_up(args, &cluster, Some(oracle));
        setups.push(again.setup_s);
        attempted += again.attempted;
        failed += again.failed;
        oracle = again.oracle;
    }
    m.set("setup_s", median(&setups));
    let shown: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    println!("  {} set-ups, s: {} (median reported)", w.setups, shown.join(" "));
    Outcome { metrics: m, attempted, failed }
}

fn min_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `--trace 1`: the per-layer metrics and the layer tables.
fn run_traced(args: &Args) -> Outcome {
    let cluster = cheetah_db::Cluster::default();
    let setup = set_up(args, &cluster, None);
    let items = &setup.built.items;
    let w = args.workload;
    let driver = setup.driver(args, &cluster);
    let session = setup.session.as_ref();
    let epoch = Instant::now();
    // The same closed loop twice: recorder off, then on. Their
    // difference is what the benchmark's own spans cost.
    let quarter = w.cycles(args.seconds / 4.0);
    let plain = driver.run(session, quarter, w.warmup_cycles, None, false);
    let mut traced = driver.run(session, quarter, w.warmup_cycles + quarter, Some(epoch), false);
    let (mut attempted, mut failed) = (
        setup.attempted + plain.attempted() + traced.attempted(),
        setup.failed + plain.failed() + traced.failed(),
    );

    let mut m = Metrics::default();
    let shapes = shapes_of(items);
    let (plain_by_shape, _) = time_metrics(items, &plain, &mut m);
    let plain_p50 = per_shape_geomean(&plain_by_shape, median);
    let traced_p50 = per_shape_geomean(&latencies_by_shape(items, &traced), median);
    m.set("trace_overhead_share", traced_p50 / plain_p50 - 1.0);
    m.set("workloads.gen_rows_per_s", setup.built.generated_rows as f64 / setup.gen_s);

    // serve::session and serve::plan_cache, from the program's own spans.
    for (k, span) in LIFECYCLE.iter().enumerate() {
        let us: Vec<f64> = traced.samples.iter().map(|s| s.spans_s[k] * 1e6).collect();
        m.set(&format!("serve.span.{span}_us"), median(&us));
    }
    let both = || plain.samples.iter().chain(&traced.samples);
    let queue_us: Vec<f64> = both().map(|s| s.queue_s * 1e6).collect();
    m.set("serve.queue_p90_us", p90(&queue_us));
    // A warm session's counters are cumulative; a fresh-session phase
    // sums its own sessions.
    let stats = if w.fresh_session {
        cheetah_serve::SessionStats {
            rejected: plain.stats.rejected + traced.stats.rejected,
            plan_hits: plain.stats.plan_hits + traced.stats.plan_hits,
            plan_misses: plain.stats.plan_misses + traced.stats.plan_misses,
            ..traced.stats
        }
    } else {
        traced.stats
    };
    m.set("serve.rejected", stats.rejected as f64);
    m.set("plan_cache.hit_rate", stats.plan_hit_rate());
    let n = both().count().max(1) as f64;
    for (a, arm) in ARMS.iter().enumerate() {
        m.set(&format!("chooser.share.{arm}"), both().filter(|s| s.arm == a).count() as f64 / n);
    }
    let sum = |f: &dyn Fn(&Sample) -> f64| both().map(f).sum::<f64>();
    m.set("exec.parallel_efficiency", sum(&|s| s.spans_s[6]) / sum(&|s| s.spans_s[4]));
    m.set("shard_exec.worker_share", sum(&|s| s.worker_s) / sum(&|s| s.worker_s + s.master_s));

    // The model next to the measurement.
    let model_ms = per_shape_geomean(&by_shape(items, &plain, |s| s.model_s * 1e3), median);
    m.set("model.completion_ms", model_ms);
    m.set("model.gap", model_ms / plain_p50);

    // The pruning funnel of one cycle: exact counts, so totals divide.
    let cycles = (plain.attempted() + traced.attempted()) as f64 / items.len() as f64;
    let total = |f: &dyn Fn(&Sample) -> u64| both().map(f).sum::<u64>() as f64;
    m.set("funnel.rows_in", total(&|s| items[s.item].rows()) / cycles);
    m.set("funnel.entries_to_master", total(&|s| s.entries) / cycles);
    m.set("funnel.pruned_fraction", total(&|s| s.pruned) / total(&|s| s.seen));
    m.set("funnel.worker_wire_bytes", total(&|s| s.worker_wire) / cycles);
    m.set("funnel.master_wire_bytes", total(&|s| s.master_wire) / cycles);

    // The front-door table: the client's wall time, outside in.
    let mut rec = traced.recorder.take().expect("the traced phase records");
    let (rows, total_ns) = spans::wall_attribution(rec.spans(), "frontdoor");
    let self_of = |name: &str| rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.self_ns);
    let outside_lifecycle =
        self_of("frontdoor") + self_of("serve::session.run_blocking") + self_of("query");
    m.set("serve.unattributed_share", outside_lifecycle / total_ns);
    spans::print_table(
        &format!("front door, {} traced requests ({})", traced.attempted(), w.name),
        "frontdoor",
        &rows,
        total_ns,
    );

    // The layer pass.
    let t_pass = Instant::now();
    let mut pass =
        layers::LayerPass::new(&driver, &setup.built.families, spans::Recorder::new(epoch));
    pass.run(session, &mut m);
    attempted += pass.attempted;
    failed += pass.failed;
    let sample_shapes = pass.sample_shapes();
    let regret: Vec<f64> = sample_shapes
        .iter()
        .zip(&pass.arm_ms)
        .map(|(shape, arms)| {
            let k = shapes.iter().position(|s| s == shape).expect("sampled shape is a shape");
            median(&plain_by_shape[k]) / min_of(arms)
        })
        .collect();
    m.set("chooser.regret", geomean(&regret));
    m.set("speedup_vs_baseline", m.get("baseline.ms").unwrap_or(f64::NAN) / plain_p50);
    let pass_rec = pass.finish();
    let (rows, total_ns) = spans::wall_attribution(pass_rec.spans(), "layer_pass");
    spans::print_table(
        &format!("layer pass ({}, {:.2} s)", w.name, t_pass.elapsed().as_secs_f64()),
        "layer_pass",
        &rows,
        total_ns,
    );
    rec.absorb(pass_rec);

    if let Some(path) = &args.spans {
        let written = std::fs::File::create(path)
            .and_then(|f| rec.write_jsonl(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("\n{} spans written to {path}", rec.spans().len()),
            Err(e) => {
                eprintln!("cheetah-ledger: cannot write {path}: {e}");
                failed += 1;
            }
        }
    }
    println!();
    Outcome { metrics: m, attempted, failed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args { workload, seed: 1, seconds: 0.4, trace, spans: None, shrink: 50 }
    }

    /// All four workloads at a fiftieth of their size, both modes: no
    /// operation fails and every declared metric is reported.
    #[test]
    fn smoke_every_workload_reports_every_metric_without_failures() {
        for w in workloads::WORKLOADS {
            let out = run_end_to_end(&args(w, false));
            assert_eq!(out.failed, 0, "{}", w.name);
            assert!(out.attempted > 0, "{}", w.name);
            assert_eq!(out.metrics.unusable(&report::end_to_end(), true), [""; 0], "{}", w.name);
            let out = run_traced(&args(w, true));
            assert_eq!(out.failed, 0, "{} traced", w.name);
            assert_eq!(out.metrics.unusable(&report::per_layer(), false), [""; 0], "{}", w.name);
            // Exact counts: a cycle's funnel is a whole number of rows
            // and entries whichever arms the bandit happened to play.
            for name in ["funnel.rows_in", "funnel.entries_to_master"] {
                let v = out.metrics.get(name).expect("checked above");
                assert_eq!(v, v.round(), "{}: {name} = {v}", w.name);
            }
        }
    }

    /// `survivor_fraction` is a ratio of exact counts over whole cycles:
    /// two runs at one seed agree to the last digit, however many cycles
    /// each was asked for.
    #[test]
    fn survivor_fraction_repeats_exactly_at_one_seed() {
        let w = workloads::by_name("survivor_heavy").expect("known workload");
        let a = run_end_to_end(&args(w, false));
        let b = run_end_to_end(&Args { seconds: 0.7, ..args(w, false) });
        assert_eq!(a.metrics.get("survivor_fraction"), b.metrics.get("survivor_fraction"));
        let other = run_end_to_end(&Args { seed: 2, ..args(w, false) });
        assert_ne!(a.metrics.get("survivor_fraction"), other.metrics.get("survivor_fraction"));
    }
}
