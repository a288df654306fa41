//! A persistent shard-worker pool, one worker per core.
//!
//! Spinning up one thread per shard per query and tearing them all down
//! at the join is a measurable slice of a multi-shard run over a few
//! thousand rows (the ledger's `pool.dispatch_us` times what replaces
//! it: eight no-op jobs through the pool). [`WorkerPool`] keeps
//! thread spin-up out of the per-query path: it owns long-lived worker
//! threads fed through one shared injector queue, so spawning a job is a
//! channel send, not a `pthread_create`. A job is handed the index of the
//! worker running it, which is all a worker owns.
//!
//! [`execute`](crate::execute) submits `min(shards, workers) − 1` helper
//! jobs to [`WorkerPool::global`] per run, whichever path the plan
//! carries, and the thread that called it works the run's shards beside
//! them: every one of them claims shards off one counter until none are
//! left. A one-shard plan never reaches the pool, so a request with
//! nothing to run in parallel pays no hand-off and no worker wake-up.
//!
//! The pool is as wide as the machine, whatever the plans it serves: the
//! shard count is a layout's unit of work (how finely a query is cut),
//! the cores are the parallelism. A run of more shards than cores works
//! them off its counter on at most one thread per core, the caller
//! counting as one — as a Spark stage's tasks queue for an executor's
//! cores — rather than time-slicing them on threads the machine cannot
//! run at once, so sibling shards do not preempt each other inside their
//! `worker` spans.
//!
//! The pool is deliberately dumb: no work stealing, no priorities, one
//! `Mutex<Receiver>` that each idle worker takes in turn (the lock is
//! released while a job runs, so jobs distribute to whichever worker is
//! free). Jobs must not depend on *which* worker runs them, and a job
//! never waits on a job still queued: a helper computes, sends each
//! result on an unbounded channel and returns, and a run's caller waits
//! only for shards a running helper claimed, so the pool cannot deadlock
//! even at one worker, even when every worker is inside an `execute`.
//! A helper catches each shard's panic itself and reports it; a job that
//! panics anyway unwinds to the worker loop and no further: whatever the
//! job owned (its channel's sender) drops, and the thread takes the next
//! job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};

/// A job, called with the index of the worker that runs it.
type Job = Box<dyn FnOnce(usize) + Send + 'static>;

/// A fixed-size pool of persistent shard workers.
///
/// Dropping a pool closes the injector; workers finish their current
/// job and exit. The [`global`](WorkerPool::global) pool is never
/// dropped — its workers live for the process.
pub struct WorkerPool {
    injector: mpsc::Sender<Job>,
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` persistent threads.
    fn new(workers: usize) -> Self {
        let (injector, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("cheetah-pool-{i}"))
                .spawn(move || {
                    loop {
                        // Take the next job while holding the lock, then
                        // release it for the duration of the job.
                        let job = match rx.lock().expect("pool injector poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped
                        };
                        // A panicking job is its submitter's failure, not
                        // the pool's: the thread lives on.
                        let _ = catch_unwind(AssertUnwindSafe(|| job(i)));
                    }
                })
                .expect("spawn pool worker");
        }
        Self { injector, workers }
    }

    /// The process-wide pool every multi-shard [`execute`](crate::execute)
    /// call submits its helper jobs to: one worker per core the
    /// machine reports (`available_parallelism`; one if it cannot say).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            WorkerPool::new(std::thread::available_parallelism().map_or(1, usize::from))
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueue a job. Returns immediately; the job runs on whichever
    /// worker next goes idle and is called with that worker's index, in
    /// `0..workers()`.
    pub fn spawn(&self, job: impl FnOnce(usize) + Send + 'static) {
        self.injector.send(Box::new(job)).expect("pool workers alive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_global_pool_is_as_wide_as_the_machine() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(WorkerPool::global().workers(), cores);
    }

    #[test]
    fn private_pool_runs_jobs_and_shuts_down_on_drop() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16u32 {
            let tx = tx.clone();
            pool.spawn(move |worker| {
                tx.send((i, worker)).ok();
            });
        }
        drop(tx);
        let mut got: Vec<(u32, usize)> = rx.iter().collect();
        assert!(got.iter().all(|&(_, worker)| worker < 2), "{got:?}");
        got.sort_unstable();
        assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), (0..16).collect::<Vec<_>>());
        drop(pool); // workers exit; nothing to assert beyond not hanging
    }

    #[test]
    fn a_job_after_a_panicking_job_runs_on_the_same_worker() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        let before = tx.clone();
        let thread = || std::thread::current().name().map(str::to_string);
        pool.spawn(move |worker| {
            before.send((worker, thread())).ok();
            panic!("job panics (expected by this test)");
        });
        pool.spawn(move |worker| {
            tx.send((worker, thread())).ok();
        });
        let on_worker_0 = Ok((0, Some("cheetah-pool-0".to_string())));
        assert_eq!(rx.recv(), on_worker_0, "the panicking job ran on worker 0");
        assert_eq!(rx.recv(), on_worker_0, "the one worker survived the panic");
        assert!(rx.recv().is_err(), "the panicked job's sender dropped with it");
    }
}
