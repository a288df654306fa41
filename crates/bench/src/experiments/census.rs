//! The arm census: on every key the benchmark sends, does the switch save
//! the CPU it costs?
//!
//! The paper's gain is conditional — pruning pays only when the switch
//! removes work the master would otherwise do — and here the switch is
//! software on the same cores. This census measures the condition where
//! the session serves: for every key of the four benchmark workloads
//! ([`cheetah_workloads::benchmark`], seed 1; their tables at `--full`),
//! in one [`Session`] per workload,
//!
//! 1. two unpinned sights, so the key's routed layout is held;
//! 2. pairs of batches on that layout, one pinned `.path(Direct)` and one
//!    pinned `.path(BarrierPooled)`, alternating which runs first. A batch
//!    is `b` back-to-back requests, `b` fixed per key so that a direct
//!    batch lasts at least 2 ms.
//!
//! The clock is CPU: the time every thread of this process spent on a
//! core (the first field of `/proc/self/task/*/schedstat`, summed),
//! read before and after each batch with the pool's workers parked. A
//! batch that loses its core to another process is charged only what it
//! ran, so a preempted run cannot read slow. Wall time is reported beside
//! it. Where schedstat cannot be read the census prints `cpu: unavailable`
//! and its CPU columns say so; it licenses nothing then.
//!
//! Per key the report gives each arm's median CPU and wall per request,
//! the median and IQR over the pairs of pruned CPU ÷ direct CPU (above 1:
//! the switch costs more than it saves), and how many pairs pruned won.
//! Every answer is asserted equal to `run_baseline`'s.

use crate::report::secs;
use crate::{Report, RunCtx};
use cheetah_db::{Cluster, ExecPath, QueryOutput};
use cheetah_serve::{QueryRequest, Session};
use cheetah_workloads::benchmark::{self, BenchKey};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed every workload's tables are generated from.
const SEED: u64 = 1;
/// The least wall time a direct batch lasts: `b` is sized to it.
const DIRECT_BATCH: Duration = Duration::from_millis(2);

/// CPU nanoseconds every live thread of this process has spent on a core:
/// the first field of each `/proc/self/task/<tid>/schedstat`, summed.
/// `None` when the file cannot be read or parsed.
///
/// The kernel brings a running thread's figure up to date only when it
/// leaves its core (or at a scheduler tick), so the caller's own share is
/// current only after it has yielded once; [`settled_cpu_ns`] does that.
fn cpu_ns() -> Option<u64> {
    let mut sum = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        sum += on_cpu_ns(&std::fs::read_to_string(path).ok()?)?;
    }
    Some(sum)
}

/// The first field of a `schedstat` line: nanoseconds on a core.
fn on_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// [`cpu_ns`] once every thread's figure is current: a short sleep lets
/// the pool's workers park after their last job and takes the caller off
/// its core, and each of those switches brings a thread's figure up to
/// date. The sleep is on no clock.
fn settled_cpu_ns() -> Option<u64> {
    std::thread::sleep(Duration::from_millis(1));
    cpu_ns()
}

/// The `q`-quantile of `xs` (sorted in place), by linear interpolation.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// One arm's clocks over one batch, per request: CPU (`None` if
/// unreadable) and wall seconds.
#[derive(Debug, Clone, Copy)]
struct Batch {
    cpu: Option<f64>,
    wall: f64,
}

/// The census of one key: its batch size and the pairs' clocks.
struct KeyCensus {
    batch: usize,
    /// `(direct, pruned)` per pair.
    pairs: Vec<(Batch, Batch)>,
}

impl KeyCensus {
    fn arm(&self, pruned: bool) -> impl Iterator<Item = Batch> + '_ {
        self.pairs.iter().map(move |&(d, p)| if pruned { p } else { d })
    }

    /// The median CPU per request of an arm, if every batch read its CPU.
    fn median_cpu(&self, pruned: bool) -> Option<f64> {
        let mut cpu: Vec<f64> = self.arm(pruned).map(|b| b.cpu).collect::<Option<_>>()?;
        Some(quantile(&mut cpu, 0.5))
    }

    fn median_wall(&self, pruned: bool) -> f64 {
        quantile(&mut self.arm(pruned).map(|b| b.wall).collect::<Vec<_>>(), 0.5)
    }

    /// Pruned CPU ÷ direct CPU per pair.
    fn ratios(&self) -> Option<Vec<f64>> {
        self.pairs.iter().map(|(d, p)| Some(p.cpu? / d.cpu?.max(1e-12))).collect()
    }
}

/// Run `b` requests of `key` pinned to `path` back to back, asserting each
/// answer after the clocks stop.
fn batch(session: &Session, key: &BenchKey, path: ExecPath, b: usize, want: &QueryOutput) -> Batch {
    let cpu0 = settled_cpu_ns();
    let t0 = Instant::now();
    let responses: Vec<_> = (0..b).map(|_| session.run_blocking(request(key).path(path))).collect();
    let wall = t0.elapsed().as_secs_f64();
    let cpu1 = settled_cpu_ns();
    for resp in responses {
        let resp = resp.expect("a benchmark key answers");
        assert_eq!(&resp.output, want, "{} {}: diverged from the baseline", key.shape, key.tenant);
        assert_eq!(resp.arm.path, path, "{} {}: ran another arm", key.shape, key.tenant);
    }
    let per_request = |s: f64| s / b as f64;
    Batch {
        cpu: cpu0.zip(cpu1).map(|(a, z)| per_request(z.saturating_sub(a) as f64 * 1e-9)),
        wall: per_request(wall),
    }
}

/// The key's unpinned front-door request.
fn request(key: &BenchKey) -> QueryRequest {
    let req = QueryRequest::new(key.query.clone(), Arc::clone(&key.left)).tenant(&*key.tenant);
    match &key.right {
        Some(right) => req.with_right(Arc::clone(right)),
        None => req,
    }
}

/// Census one key in `session`: hold its layout, size its batch, run the
/// pairs.
fn census_key(session: &Session, cluster: &Cluster, key: &BenchKey, pairs: usize) -> KeyCensus {
    let want = cluster.run_baseline(&key.query, &key.left, key.right.as_deref()).output;
    for sight in 1..=2 {
        let resp = session.run_blocking(request(key)).expect("a benchmark key answers");
        assert_eq!(resp.output, want, "{} {}: sight {sight} diverged", key.shape, key.tenant);
    }
    // Direct requests back to back until they last the batch's span: that
    // count is the key's `b`.
    let (t0, mut b) = (Instant::now(), 0);
    while b == 0 || t0.elapsed() < DIRECT_BATCH {
        let resp = session.run_blocking(request(key).path(ExecPath::Direct));
        assert_eq!(resp.expect("a benchmark key answers").output, want);
        b += 1;
    }
    let pairs = (0..pairs)
        .map(|i| {
            let [first, second] = if i % 2 == 0 {
                [ExecPath::Direct, ExecPath::BarrierPooled]
            } else {
                [ExecPath::BarrierPooled, ExecPath::Direct]
            };
            let (a, z) =
                (batch(session, key, first, b, &want), batch(session, key, second, b, &want));
            if first == ExecPath::Direct {
                (a, z)
            } else {
                (z, a)
            }
        })
        .collect();
    KeyCensus { batch: b, pairs }
}

fn micros(s: Option<f64>) -> String {
    s.map_or("unavailable".into(), |s| format!("{:.1}", s * 1e6))
}

/// Run the census.
pub fn run(ctx: &RunCtx) -> Vec<Report> {
    let shrink = ctx.scale.entries(50, 1);
    let pairs = ctx.scale.entries(3, 11);
    let cluster = Cluster::default();
    let mut r = Report::new(
        "census",
        format!(
            "Arm census: every benchmark key, {pairs} pairs of pinned batches, CPU per request"
        ),
        &[
            "workload",
            "key",
            "b",
            "direct cpu µs",
            "pruned cpu µs",
            "direct wall",
            "pruned wall",
            "pruned÷direct cpu",
            "ratio IQR",
            "pruned wins",
        ],
    );
    let cpu_readable = cpu_ns().is_some();
    let mut pays = Vec::new();
    for workload in benchmark::WORKLOADS {
        let keys = benchmark::keys(workload, SEED, shrink).expect("a benchmark workload");
        let session = Session::new(cluster.clone(), Default::default());
        for key in &keys {
            let c = census_key(&session, &cluster, key, pairs);
            let (direct, pruned) = (c.median_cpu(false), c.median_cpu(true));
            let ratios = c.ratios();
            let (ratio, iqr, wins) = match ratios {
                Some(mut r) => (
                    format!("{:.2}", quantile(&mut r, 0.5)),
                    format!("{:.2}", quantile(&mut r, 0.75) - quantile(&mut r, 0.25)),
                    format!("{}/{}", r.iter().filter(|&&x| x < 1.0).count(), r.len()),
                ),
                None => ("unavailable".into(), "unavailable".into(), "unavailable".into()),
            };
            let name = format!("{} {}", key.shape, key.tenant);
            if let (Some(d), Some(p)) = (direct, pruned) {
                if d >= p {
                    pays.push(format!(
                        "{workload} {name} ({:.1} µs direct, {:.1} µs pruned)",
                        d * 1e6,
                        p * 1e6
                    ));
                }
            }
            r.row(vec![
                workload.to_string(),
                name,
                c.batch.to_string(),
                micros(direct),
                micros(pruned),
                secs(c.median_wall(false)),
                secs(c.median_wall(true)),
                ratio,
                iqr,
                wins,
            ]);
        }
    }
    if !cpu_readable {
        r.note("cpu: unavailable (no /proc/self/task/*/schedstat): this census licenses nothing");
    } else if pays.is_empty() {
        r.note("every key's median direct CPU is below its median pruned CPU");
    } else {
        r.note(format!("pruned CPU at or below direct: {}", pays.join("; ")));
    }
    r.note(format!(
        "seed {SEED}, rows 1/{shrink} of the benchmark's; one Session per workload; two unpinned \
         sights hold each key's routed layout, then {pairs} pairs of batches pinned direct and \
         pinned pruned (barrier, compiled) on it, alternating which runs first; b = the direct \
         requests that last {} back to back",
        secs(DIRECT_BATCH.as_secs_f64())
    ));
    r.note(
        "cpu = every thread's time on a core (/proc/self/task/*/schedstat), read with the pool \
         parked before and after each batch, per request; wall beside it; pruned wins = pairs \
         whose pruned batch used less CPU; every answer asserted equal to run_baseline's",
    );
    vec![r]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedstat_reader_parses_a_line_and_is_monotone_across_a_busy_loop() {
        assert_eq!(on_cpu_ns("123456789 4321 17\n"), Some(123_456_789));
        assert_eq!(on_cpu_ns("garbage"), None);
        assert_eq!(on_cpu_ns(""), None);
        // A box without schedstat reads `None`, which the report prints as
        // unavailable; where it can be read, it counts a busy loop.
        let Some(before) = settled_cpu_ns() else { return };
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        let after = settled_cpu_ns().expect("readable once");
        assert!(after >= before + 5_000_000, "{before} -> {after} ns over a 20 ms busy loop");
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&mut [4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
        assert_eq!(quantile(&mut [1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&mut [7.0], 0.75), 7.0);
    }

    #[test]
    fn a_quick_census_has_a_row_per_key_of_every_workload() {
        // `run` asserts every answer against the baseline's.
        let r = run(&RunCtx::quick()).remove(0);
        let count = |w: &str| r.rows.iter().filter(|row| row[0] == w).count();
        assert_eq!(benchmark::WORKLOADS.map(count), [4, 3, 6, 32]);
        for row in &r.rows {
            assert!(row[2].parse::<usize>().is_ok_and(|b| b >= 1), "{row:?}");
            let wins = row[9].split_once('/').map(|(_, n)| n);
            assert!(row[9] == "unavailable" || wins == Some("3"), "{row:?}");
        }
    }
}
