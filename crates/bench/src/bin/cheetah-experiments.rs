//! CLI driver regenerating every table and figure of the paper, plus the
//! repository's own report-only experiments.
//!
//! ```text
//! cheetah-experiments [EXPERIMENT ...] [--full] [--csv DIR] [--shards LIST]
//! cheetah-experiments --trace
//!
//!   EXPERIMENT        one of the ids `--help` lists (default: all)
//!   --full            paper-scale streams (minutes) instead of quick
//!   --csv DIR         additionally write one CSV per report into DIR
//!   --shards LIST     comma-separated worker-shard axis for the sharded
//!                     sweeps, e.g. 1,2,4,8,16 (the default)
//!   --trace           run one traced sample query through the Session
//!                     front door and pretty-print its lifecycle span
//!                     tree (admit → queue → plan → choose → execute
//!                     {worker per shard, merge} → respond), followed by
//!                     the JSON-lines export and the session registry
//!                     snapshot
//! ```
//!
//! Nothing here gates: experiments print what they measured. Wall clock
//! is judged by the `cheetah-ledger` benchmark, pruning counters by the
//! `counters_contract` test.

use cheetah_bench::experiments;
use cheetah_bench::{RunCtx, Scale};
use cheetah_db::{DbQuery, ExecPath};
use cheetah_serve::{QueryRequest, Session};
use cheetah_telemetry::{export_jsonl, render};
use cheetah_workloads::SkewedTableConfig;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut csv_dir: Option<String> = None;
    let mut shards: Option<Vec<usize>> = None;
    let mut trace_mode = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    let value_of = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--full" => scale = Scale::Full,
            "--csv" => {
                i += 1;
                csv_dir = Some(value_of(&args, i, "--csv"));
            }
            "--shards" => {
                i += 1;
                let list = value_of(&args, i, "--shards");
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse::<usize>()).collect();
                match parsed {
                    Ok(v) if !v.is_empty() && v.iter().all(|&n| n > 0) => shards = Some(v),
                    _ => {
                        eprintln!("--shards needs a comma-separated list of positive ints");
                        std::process::exit(2);
                    }
                }
            }
            "--trace" => trace_mode = true,
            "--help" | "-h" => {
                println!(
                    "usage: cheetah-experiments [EXPERIMENT ...] [--full] [--csv DIR] \
                     [--shards LIST]"
                );
                println!("       cheetah-experiments --trace");
                println!("experiments:");
                for (id, _) in experiments::all() {
                    println!("  {id}");
                }
                return;
            }
            other => wanted.push(other.to_string()),
        }
        i += 1;
    }

    if trace_mode {
        run_trace_mode();
        return;
    }

    let mut ctx = RunCtx::new(scale);
    if let Some(s) = shards {
        ctx.shards = s;
    }
    let registry = experiments::all();
    let selected: Vec<_> = if wanted.is_empty() {
        registry
    } else {
        let known: Vec<&str> = registry.iter().map(|(id, _)| *id).collect();
        for w in &wanted {
            if !known.contains(&w.as_str()) {
                eprintln!("unknown experiment `{w}`; known: {known:?}");
                std::process::exit(2);
            }
        }
        registry.into_iter().filter(|(id, _)| wanted.iter().any(|w| w == id)).collect()
    };
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }
    for (id, runner) in selected {
        eprintln!("running {id} ({:?})...", ctx.scale);
        let t0 = std::time::Instant::now();
        let reports = runner(&ctx);
        for report in &reports {
            println!("{}", report.render());
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{}.csv", report.id);
                let mut f = std::fs::File::create(&path).expect("create csv");
                f.write_all(report.to_csv().as_bytes()).expect("write csv");
                eprintln!("wrote {path}");
            }
        }
        eprintln!("{id} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
}

/// The `--trace` demo: push one query through the `Session` front door
/// and show all three faces of its telemetry — the pretty-printed
/// lifecycle span tree, the JSON-lines export, and the registry
/// snapshot the same request fed. The request pins four shards and the
/// pruned arm, so the tree shows a switch program's shard jobs whatever
/// arm an unpinned sight of the key would run.
fn run_trace_mode() {
    let table = SkewedTableConfig {
        rows: 6_000,
        partitions: 4,
        partition_skew: 0.6,
        keys: 200,
        key_skew: 1.0,
        seed: 42,
    }
    .build();
    let session = Session::with_defaults();
    let q = DbQuery::GroupByMax { key_col: 0, val_col: 1 };
    let resp = session
        .run_blocking(
            QueryRequest::new(q, table.into())
                .tenant("demo")
                .shards(4)
                .path(ExecPath::BarrierPooled),
        )
        .expect("plan fits");
    let tree = resp.trace.expect("the session traces every request");
    println!("lifecycle span tree (arm {}):", resp.arm.label());
    println!("{}", render(&tree));
    println!("spans as JSON lines:");
    print!("{}", export_jsonl(&tree, false));
    println!();
    println!("session registry after the request:");
    print!("{}", session.registry().snapshot().render());
}
