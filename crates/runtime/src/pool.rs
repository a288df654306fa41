//! A persistent shard-worker pool.
//!
//! Spinning up one thread per shard per query and tearing them all down
//! at the join is, at smoke scale (thousands of reps over a few thousand
//! rows), a measurable slice of a multi-shard run. This module keeps
//! thread spin-up and per-run allocation churn out of the per-query path:
//!
//! * [`WorkerPool`] owns long-lived worker threads fed through one
//!   shared injector queue. Spawning a job is a channel send, not a
//!   `pthread_create`.
//! * Each worker owns a [`WorkerScratch`] whose arena allocations (the
//!   [`FrameBuilder`] behind survivor-batch framing) survive from query
//!   to query, so steady-state framing allocates nothing.
//!
//! [`execute`](crate::execute) submits one job per shard to
//! [`WorkerPool::global`], whichever transport its plan carries.
//!
//! The pool is deliberately dumb: no work stealing, no priorities, one
//! `Mutex<Receiver>` that each idle worker takes in turn (the lock is
//! released while a job runs, so jobs distribute to whichever worker is
//! free). Jobs must not depend on *which* worker runs them; anything a
//! job blocks on (e.g. a bounded survivor channel) must be drained by
//! the thread that submitted it, which keeps the pool deadlock-free
//! even at one worker. A job that panics unwinds to the worker loop and
//! no further: whatever the job owned (its channels' senders) drops, which
//! is how its submitter learns, and the thread takes the next job.

use cheetah_net::FrameBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};

/// Per-worker reusable state, handed to every job the worker runs.
///
/// The point of the pool is that this outlives queries: the frame
/// builder's arena and offset column keep their high-water-mark
/// capacity, so a steady stream of survivor batches stops allocating
/// after warm-up.
pub struct WorkerScratch {
    /// Survivor-batch frame builder; `finish()` leaves capacity behind
    /// for the next frame.
    pub frames: FrameBuilder,
}

impl WorkerScratch {
    fn new() -> Self {
        Self { frames: FrameBuilder::new() }
    }
}

type Job = Box<dyn FnOnce(&mut WorkerScratch) + Send + 'static>;

/// A fixed-size pool of persistent shard workers.
///
/// Dropping a pool closes the injector; workers finish their current
/// job and exit. The [`global`](WorkerPool::global) pool is never
/// dropped — its workers live for the process.
pub struct WorkerPool {
    injector: Mutex<mpsc::Sender<Job>>,
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` persistent threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("cheetah-pool-{i}"))
                .spawn(move || {
                    let mut scratch = WorkerScratch::new();
                    loop {
                        // Take the next job while holding the lock, then
                        // release it for the duration of the job.
                        let job = match rx.lock().expect("pool injector poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped
                        };
                        // A panicking job is its submitter's failure, not
                        // the pool's: the thread lives on, and the scratch
                        // the job may have left mid-frame is rebuilt.
                        if catch_unwind(AssertUnwindSafe(|| job(&mut scratch))).is_err() {
                            scratch = WorkerScratch::new();
                        }
                    }
                })
                .expect("spawn pool worker");
        }
        Self { injector: Mutex::new(tx), workers }
    }

    /// The process-wide pool every [`execute`](crate::execute) call routes
    /// its shard jobs through. Sized
    /// at `max(available_parallelism, 8)` so every shard count the
    /// bench sweeps exercises can be in flight at once.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            WorkerPool::new(cores.max(8))
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueue a job. Returns immediately; the job runs on whichever
    /// worker next goes idle.
    pub fn spawn(&self, job: impl FnOnce(&mut WorkerScratch) + Send + 'static) {
        self.injector
            .lock()
            .expect("pool injector poisoned")
            .send(Box::new(job))
            .expect("pool workers alive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_pool_runs_jobs_and_shuts_down_on_drop() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16u32 {
            let tx = tx.clone();
            pool.spawn(move |scratch| {
                // Exercise the per-worker scratch so reuse is covered.
                scratch.frames.begin(0, u64::from(i));
                scratch.frames.push(&i.to_be_bytes());
                let frame = scratch.frames.finish();
                tx.send((i, frame.len())).ok();
            });
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().map(|(i, _)| i).collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        drop(pool); // workers exit; nothing to assert beyond not hanging
    }

    #[test]
    fn a_job_after_a_panicking_job_runs_on_the_same_thread() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        let dropped = tx.clone();
        pool.spawn(move |scratch| {
            scratch.frames.begin(0, 0); // left mid-frame
            let _held = dropped;
            panic!("job panics (expected by this test)");
        });
        pool.spawn(move |scratch| {
            // A fresh scratch: a frame begins and finishes cleanly.
            scratch.frames.begin(0, 1);
            scratch.frames.push(b"ok");
            let thread = std::thread::current().name().map(str::to_string);
            tx.send((thread, scratch.frames.finish().len())).ok();
        });
        let (thread, len) = rx.recv().expect("the one worker survived the panic");
        assert_eq!(thread.as_deref(), Some("cheetah-pool-0"));
        assert!(len > 0);
        assert!(rx.recv().is_err(), "the panicked job's sender dropped with it");
    }
}
