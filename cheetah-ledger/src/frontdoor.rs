//! The closed-loop client: drives the program through
//! `Session::run_blocking` and nothing else, verifies every response
//! against the oracle, and keeps one sample per request.
//!
//! Closed loop is deliberate — the callers are analysts and dashboards
//! that wait for a reply — and requests are unpinned: the front door with
//! the bandit on is what users get.

use crate::spans::Recorder;
use crate::workloads::{Item, Workload};
use cheetah_db::{Cluster, PathChooser, QueryOutput};
use cheetah_serve::{Session, SessionConfig, SessionStats};
use cheetah_telemetry::SpanNode;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// One item's share of one yardstick pass: `Cluster::run_baseline` over
/// the item, repeated until its shape's calls add up to
/// [`YARDSTICK_SHAPE_S`], timed inside the measured phase.
#[derive(Debug, Clone)]
pub struct BaselineSample {
    /// Which pass of the phase, from 0 (taken before the first request).
    pub pass: usize,
    /// Index into the workload's items.
    pub item: usize,
    /// Mean wall seconds of one call.
    pub secs: f64,
    /// Calls made.
    pub reps: u32,
    /// Every output equalled the oracle computed before timing.
    pub ok: bool,
}

/// Wall time the calls over one *shape* add up to in a yardstick pass, at
/// least. One call per pass was tried: the 1 ms calls (top-n and filter
/// baselines, mostly thread start-up) are either hit by a busy host or
/// not, and their shapes' ratios moved ±25 % between runs while the
/// 20–200 ms calls' moved ±4 %. A mean over 20 ms of calls is a speed.
const YARDSTICK_SHAPE_S: f64 = 0.020;

/// Calls per item and pass, at most.
const YARDSTICK_MAX_REPS: u32 = 64;

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the workload's items.
    pub item: usize,
    /// Yardstick passes `block` and `block + 1` bracket the request in
    /// time (0 when the phase takes no yardstick).
    pub block: usize,
    /// Submit → verified response, seconds.
    pub latency_s: f64,
    /// Completion time, seconds of request-serving time since the phase
    /// started (the yardstick pauses are taken out).
    pub end_s: f64,
    /// Response arrived, was typed `Ok`, and equalled the oracle.
    pub ok: bool,
    /// Index of the executing arm in [`PathChooser::ARMS`].
    pub arm: usize,
    /// `breakdown.entries_to_master`.
    pub entries: u64,
    /// `switch_stats.seen`.
    pub seen: u64,
    /// `switch_stats.pruned`.
    pub pruned: u64,
    /// `breakdown.worker_wire_bytes`.
    pub worker_wire: u64,
    /// `breakdown.master_wire_bytes`.
    pub master_wire: u64,
    /// `breakdown.queue_seconds`.
    pub queue_s: f64,
    /// `breakdown.worker_seconds`.
    pub worker_s: f64,
    /// `breakdown.master_seconds`.
    pub master_s: f64,
    /// `breakdown.completion_seconds(10.0)` — the modelled completion.
    pub model_s: f64,
    /// Durations of the program's own lifecycle spans, seconds:
    /// admit, queue, plan, choose, execute, respond, Σ worker. NaN where
    /// the response carried no trace or the trace lacks the span, so the
    /// metrics built on them read as not measured.
    pub spans_s: [f64; 7],
}

/// Names of the first six entries of [`Sample::spans_s`].
pub const LIFECYCLE: [&str; 6] = ["admit", "queue", "plan", "choose", "execute", "respond"];

/// What one phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Every request, in completion order.
    pub samples: Vec<Sample>,
    /// Wall seconds from first submit to last response, yardstick
    /// pauses included.
    pub wall_s: f64,
    /// Process user + system CPU seconds the requests used.
    pub cpu_s: f64,
    /// The yardstick runs, in order.
    pub baseline: Vec<BaselineSample>,
    /// Session counters summed over every session the phase used.
    pub stats: SessionStats,
    /// The benchmark's spans, when the phase was traced.
    pub recorder: Option<Recorder>,
}

impl Phase {
    /// Requests submitted plus yardstick calls.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.baseline.iter().map(|b| u64::from(b.reps)).sum::<u64>()
    }

    /// The yardstick by pass and item, for a workload of `items` items.
    pub fn yardstick(&self, items: usize) -> YardstickTable {
        let passes = self.baseline.iter().map(|b| b.pass + 1).max().unwrap_or(0);
        let mut table = vec![vec![f64::NAN; items]; passes];
        for b in &self.baseline {
            table[b.pass][b.item] = b.secs;
        }
        YardstickTable(table)
    }

    /// Requests that came back as a typed error, a refusal, or an output
    /// that differs from the oracle, plus yardstick runs that differ.
    pub fn failed(&self) -> u64 {
        let bad = self.samples.iter().filter(|s| !s.ok).count();
        (bad + self.baseline.iter().filter(|b| !b.ok).count()) as u64
    }
}

/// The yardstick of one phase by pass and item: mean seconds of one
/// `run_baseline` call, NaN where a pass did not reach an item.
#[derive(Debug)]
pub struct YardstickTable(Vec<Vec<f64>>);

impl YardstickTable {
    /// Passes taken.
    pub fn passes(&self) -> usize {
        self.0.len()
    }

    /// The yardstick for `s`'s item while `s` ran: the mean of the pass
    /// before its block and the pass after. NaN without both, so a
    /// request the yardstick does not bracket cannot pass as measured.
    pub fn around(&self, s: &Sample) -> f64 {
        let at = |pass: usize| self.0.get(pass).map_or(f64::NAN, |p| p[s.item]);
        (at(s.block) + at(s.block + 1)) / 2.0
    }
}

/// Everything a phase needs to know about the workload it runs.
pub struct Driver<'a> {
    /// The workload definition.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// The items a cycle visits.
    pub items: &'a [Item],
    /// `Cluster::run_baseline` output per item.
    pub oracle: &'a [QueryOutput],
    /// Cluster the sessions execute on.
    pub cluster: &'a Cluster,
}

impl Driver<'_> {
    /// A session as a caller would open one: default knobs.
    pub fn new_session(&self) -> Session {
        Session::new(self.cluster.clone(), SessionConfig::default())
    }

    /// Run one closed-loop phase of exactly `cycles` cycles per client: a
    /// fixed request count, so every item is submitted equally often and
    /// exact counters repeat exactly at one seed. `session` is the
    /// long-lived session of a warm workload (`None` for `fresh_session`
    /// workloads, which open their own per cycle). Cycles are numbered
    /// from `first_cycle` so warm-up and measurement walk one schedule.
    /// With `trace` set, a benchmark span is recorded around every call,
    /// against that epoch.
    ///
    /// With `yardstick` set, before the first cycle, after every
    /// `workload.baseline_every` cycles and after the last one the clients
    /// stop at a barrier and one of them runs `Cluster::run_baseline` over
    /// every item, so every request lies between two measurements of how
    /// fast the machine was just then. (Two clients sharing a pass was
    /// tried: each call starts a thread per partition, and two at once
    /// slow each other by 80 % and spread 19 %.)
    pub fn run(
        &self,
        session: Option<&Session>,
        cycles: usize,
        first_cycle: usize,
        trace: Option<Instant>,
        yardstick: bool,
    ) -> Phase {
        let start = Instant::now();
        let cpu0 = crate::procfs::cpu_seconds();
        let yard = Yardstick {
            every: if yardstick { self.workload.baseline_every } else { 0 },
            barrier: Barrier::new(self.workload.clients),
            taken: Mutex::new((Vec::new(), 0.0)),
        };
        let clients: Vec<(Vec<Sample>, SessionStats, Option<Recorder>)> =
            std::thread::scope(|scope| {
                let yard = &yard;
                let handles: Vec<_> = (0..self.workload.clients)
                    .map(|c| {
                        scope.spawn(move || {
                            self.client(c, session, cycles, first_cycle, start, trace, yard)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
            });
        let wall_s = start.elapsed().as_secs_f64();
        let (baseline, baseline_cpu_s) = yard.taken.into_inner().expect("yardstick lock");
        let cpu_s = crate::procfs::cpu_seconds() - cpu0 - baseline_cpu_s;
        let mut samples = Vec::new();
        let mut stats = session.map(Session::stats).unwrap_or_default();
        let mut recorder = trace.map(Recorder::new);
        for (s, st, rec) in clients {
            samples.extend(s);
            add_stats(&mut stats, st);
            if let (Some(all), Some(rec)) = (recorder.as_mut(), rec) {
                all.absorb(rec);
            }
        }
        samples.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        Phase { samples, wall_s, cpu_s, baseline, stats, recorder }
    }

    // One call site; a struct for the seven would only rename them.
    #[allow(clippy::too_many_arguments)]
    fn client(
        &self,
        client: usize,
        shared: Option<&Session>,
        cycles: usize,
        first_cycle: usize,
        start: Instant,
        trace: Option<Instant>,
        yard: &Yardstick,
    ) -> (Vec<Sample>, SessionStats, Option<Recorder>) {
        let mut rec = trace.map(Recorder::new);
        let mut samples = Vec::new();
        let mut fresh_stats = SessionStats::default();
        let mut paused_s = 0.0;
        let mut passes = 0;
        let mut pass = |paused_s: &mut f64| {
            let t0 = Instant::now();
            yard.barrier.wait();
            if client == 0 {
                self.yardstick_pass(yard, passes);
            }
            yard.barrier.wait();
            passes += 1;
            *paused_s += t0.elapsed().as_secs_f64();
            passes - 1
        };
        let mut block = if yard.every > 0 { pass(&mut paused_s) } else { 0 };
        for cycle in 0..cycles {
            let fresh = shared.is_none().then(|| match rec.as_mut() {
                Some(r) => r.time("serve::session.new", None, cycle as u64, || self.new_session()),
                None => self.new_session(),
            });
            let session = shared.or(fresh.as_ref()).expect("a shared or a fresh session");
            let order =
                self.workload.schedule(self.seed, client, first_cycle + cycle, self.items.len());
            for (k, &i) in order.iter().enumerate() {
                let request_id = ((client as u64) << 48) | ((cycle * order.len() + k) as u64);
                let mut s = self.one(session, i, request_id, rec.as_mut());
                s.block = block;
                s.end_s = start.elapsed().as_secs_f64() - paused_s;
                samples.push(s);
            }
            if let Some(s) = fresh {
                add_stats(&mut fresh_stats, s.stats());
            }
            if yard.every > 0 && ((cycle + 1) % yard.every == 0 || cycle + 1 == cycles) {
                block = pass(&mut paused_s);
            }
        }
        (samples, fresh_stats, rec)
    }

    /// One yardstick pass, while no request runs: `Cluster::run_baseline`
    /// over every item, each repeated until its shape's calls add up to
    /// [`YARDSTICK_SHAPE_S`].
    fn yardstick_pass(&self, yard: &Yardstick, pass: usize) {
        let cpu0 = crate::procfs::cpu_seconds();
        let mut runs = Vec::with_capacity(self.items.len());
        for (i, item) in self.items.iter().enumerate() {
            let of_shape = self.items.iter().filter(|o| o.shape == item.shape).count();
            let enough_s = YARDSTICK_SHAPE_S / of_shape as f64;
            let (mut spent_s, mut reps, mut ok) = (0.0, 0, true);
            while reps == 0 || (spent_s < enough_s && reps < YARDSTICK_MAX_REPS) {
                let t0 = Instant::now();
                let run = self.cluster.run_baseline(&item.query, &item.left, item.right.as_deref());
                spent_s += t0.elapsed().as_secs_f64();
                reps += 1;
                ok &= run.output == self.oracle[i];
            }
            runs.push(BaselineSample { pass, item: i, secs: spent_s / f64::from(reps), reps, ok });
        }
        let mut taken = yard.taken.lock().expect("yardstick lock");
        taken.0.extend(runs);
        taken.1 += crate::procfs::cpu_seconds() - cpu0;
    }

    /// Submit item `i`, wait, verify.
    fn one(
        &self,
        session: &Session,
        i: usize,
        request_id: u64,
        rec: Option<&mut Recorder>,
    ) -> Sample {
        let item = &self.items[i];
        let req = item.request();
        let Some(rec) = rec else {
            let t0 = Instant::now();
            let resp = session.run_blocking(req);
            let ok = matches!(&resp, Ok(r) if r.output == self.oracle[i]);
            let latency_s = t0.elapsed().as_secs_f64();
            return sample(i, latency_s, ok, resp.ok().as_ref());
        };
        let t0 = Instant::now();
        let root = rec.open("frontdoor", None, request_id);
        let call = rec.open("serve::session.run_blocking", Some(root), request_id);
        let resp = session.run_blocking(req);
        rec.close(call);
        let ok = rec.time(
            "verify",
            Some(root),
            request_id,
            || matches!(&resp, Ok(r) if r.output == self.oracle[i]),
        );
        rec.close(root);
        let latency_s = t0.elapsed().as_secs_f64();
        if let Some(tree) = resp.as_ref().ok().and_then(|r| r.trace.as_ref()) {
            rec.import_tree(call, &tree.root);
        }
        sample(i, latency_s, ok, resp.ok().as_ref())
    }
}

/// What the clients of one phase share to take the yardstick.
struct Yardstick {
    /// Cycles between passes; 0 for never.
    every: usize,
    barrier: Barrier,
    /// The runs so far and the process CPU seconds they used.
    taken: Mutex<(Vec<BaselineSample>, f64)>,
}

fn add_stats(total: &mut SessionStats, st: SessionStats) {
    total.completed += st.completed;
    total.rejected += st.rejected;
    total.plan_hits += st.plan_hits;
    total.plan_misses += st.plan_misses;
}

fn sample(
    item: usize,
    latency_s: f64,
    ok: bool,
    resp: Option<&cheetah_serve::QueryResponse>,
) -> Sample {
    let mut s = Sample {
        item,
        block: 0,
        latency_s,
        end_s: 0.0,
        ok,
        arm: 0,
        entries: 0,
        seen: 0,
        pruned: 0,
        worker_wire: 0,
        master_wire: 0,
        queue_s: 0.0,
        worker_s: 0.0,
        master_s: 0.0,
        model_s: 0.0,
        spans_s: [f64::NAN; 7],
    };
    let Some(r) = resp else { return s };
    s.arm = PathChooser::ARMS.iter().position(|a| *a == r.arm).unwrap_or(0);
    s.entries = r.breakdown.entries_to_master;
    s.seen = r.switch_stats.seen;
    s.pruned = r.switch_stats.pruned;
    s.worker_wire = r.breakdown.worker_wire_bytes;
    s.master_wire = r.breakdown.master_wire_bytes;
    s.queue_s = r.breakdown.queue_seconds;
    s.worker_s = r.breakdown.worker_seconds;
    s.master_s = r.breakdown.master_seconds;
    s.model_s = r.breakdown.completion_seconds(10.0);
    if let Some(tree) = &r.trace {
        for (k, name) in LIFECYCLE.iter().enumerate() {
            s.spans_s[k] = tree.root.find(name).map_or(f64::NAN, SpanNode::duration_s);
        }
        let mut workers = Vec::new();
        tree.root.find_all("worker", &mut workers);
        s.spans_s[6] = workers.iter().map(|w| w.duration_s()).sum();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request is divided by the mean of the two passes around its
    /// block, per item; without both passes there is no yardstick.
    #[test]
    fn a_request_is_measured_against_the_passes_that_bracket_it() {
        let pass = |pass, item, secs| BaselineSample { pass, item, secs, reps: 1, ok: true };
        let phase = Phase {
            samples: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            baseline: vec![
                pass(0, 0, 1.0),
                pass(0, 1, 10.0),
                pass(1, 0, 3.0),
                pass(1, 1, 30.0),
                pass(2, 0, 5.0),
            ],
            stats: SessionStats::default(),
            recorder: None,
        };
        let yard = phase.yardstick(2);
        assert_eq!(yard.passes(), 3);
        let at = |block, item| yard.around(&Sample { block, ..sample(item, 0.0, true, None) });
        assert_eq!(at(0, 0), 2.0);
        assert_eq!(at(0, 1), 20.0);
        assert_eq!(at(1, 0), 4.0);
        // Pass 2 did not reach item 1, and no pass 3 closes block 2.
        assert!(at(1, 1).is_nan());
        assert!(at(2, 0).is_nan());
        assert_eq!(phase.attempted(), 5);
    }
}
