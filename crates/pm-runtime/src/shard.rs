//! [`ShardPool`]: one long-lived worker thread per shard, each draining its
//! own FIFO queue.
//!
//! [`WorkerPool`](crate::WorkerPool) multiplexes anonymous jobs over a shared
//! queue — any worker may pick up any job, which is exactly wrong for
//! *sharded state*: a shard's mutations must execute **in submission order**
//! and never concurrently with each other. This pool pins every shard to a
//! dedicated thread and a dedicated `mpsc` channel, which gives the two
//! guarantees sharded engines lean on:
//!
//! - **per-shard FIFO**: jobs submitted to shard `k` run in exactly the
//!   order they were submitted (single consumer on an order-preserving
//!   channel);
//! - **per-shard exclusivity**: at most one job for shard `k` is ever
//!   running (it is the only thing shard `k`'s thread does).
//!
//! Jobs for *different* shards run concurrently, so a batch scattered over
//! the shards is processed in parallel while every shard still observes a
//! serial history. Submission is non-blocking ([`ShardPool::run`] returns a
//! receiver for the job's result); cross-shard joins are the caller's
//! choice, not the pool's.
//!
//! Workers report their shard through
//! [`current_worker`](crate::current_worker), mirroring `par_map` regions. A
//! panicking job is contained: the worker survives, and the panic surfaces
//! to the submitter as a disconnected result channel.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of single-threaded executors, one per shard. See the module
/// docs for the ordering guarantees.
pub struct ShardPool {
    senders: Vec<Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns one worker thread per shard. `shards` must be at least 1.
    pub fn new(shards: usize) -> ShardPool {
        assert!(shards >= 1, "ShardPool needs at least one shard");
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = channel::<Job>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("pm-shard-{shard}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        crate::in_worker(shard, || {
                            // Contain panics to the job: the submitter sees a
                            // disconnected result channel, the shard thread
                            // keeps serving subsequent jobs.
                            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
                        });
                    }
                })
                .expect("spawn shard worker");
            workers.push(handle);
        }
        ShardPool { senders, workers }
    }

    /// Number of shards (worker threads) in the pool.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Submits `job` to `shard`'s queue and returns a receiver for its
    /// result. Never blocks: the queue is unbounded, because shard engines
    /// apply backpressure upstream (pm-serve's bounded request queue) and a
    /// submitted mutation must not be silently dropped.
    ///
    /// Receiving `Err` means the job panicked.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn run<R, F>(&self, shard: usize, job: F) -> Receiver<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (tx, rx) = channel();
        let boxed: Job = Box::new(move || {
            // The submitter may have stopped listening; a dead receiver is
            // not the job's problem.
            let _ = tx.send(job());
        });
        self.senders[shard]
            .send(boxed)
            .expect("shard worker thread is alive while the pool exists");
        rx
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the channels lets each worker drain its queue and exit.
        self.senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn per_shard_jobs_run_in_submission_order() {
        let pool = ShardPool::new(3);
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut last = None;
        for i in 0..50 {
            let log = Arc::clone(&log);
            last = Some(pool.run(1, move || log.lock().unwrap().push(i)));
        }
        last.unwrap().recv().expect("final job");
        let seen = log.lock().unwrap().clone();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shards_run_concurrently_and_report_their_slot() {
        let pool = ShardPool::new(4);
        let results: Vec<_> = (0..4).map(|s| pool.run(s, crate::current_worker)).collect();
        for (s, rx) in results.into_iter().enumerate() {
            assert_eq!(rx.recv().expect("job"), Some(s));
        }
    }

    #[test]
    fn a_panicking_job_disconnects_its_receiver_but_not_the_shard() {
        let pool = ShardPool::new(1);
        let rx = pool.run(0, || panic!("contained"));
        assert!(rx.recv().is_err(), "panic surfaces as disconnection");
        let ok = pool.run(0, || 7);
        assert_eq!(ok.recv().expect("shard survived"), 7);
    }
}
