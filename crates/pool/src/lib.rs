//! A std-only fixed-size worker pool.
//!
//! The pool has two independent customers in this workspace, which is why it
//! lives in its own leaf crate (below `wsn-netsim` *and* `wsn-bench` in the
//! dependency order):
//!
//! * **Sweep sharding** (`wsn_bench::journal`). The paper's figures are grids
//!   of `(configuration, seed)` cells, each an independent simulation. The
//!   first parallel implementation spawned one thread per seed per cell,
//!   which serialises the grid and oversubscribes the machine as soon as the
//!   seed count exceeds the core count. [`WorkerPool`] replaces that: a
//!   fixed set of worker threads created once and shared across an entire
//!   sweep grid, so the machine runs exactly `size` simulations at a time.
//! * **Region execution** (`wsn_netsim::region`). The spatially partitioned
//!   simulator runs every region's event window of an epoch as one pool job
//!   and joins them at the epoch barrier.
//!
//! Results are returned through [`JobHandle`]s, so callers collect them in
//! whatever order they submitted — the pool's scheduling never influences
//! the aggregated output. The journaled plan runner
//! (`wsn_bench::journal::SweepJournal::run_plan`) is proven bit-identical to
//! its sequential oracle (`wsn_bench::sweep::run_averaged_sequential`) by an
//! equality test, and `tests/property_partitioned_sim.rs` proves the same
//! for the partitioned simulator.
//!
//! One rule: a job must never block on the [`JobHandle`] of another job of
//! the same pool (a worker waiting on work only a busy worker can do is a
//! deadlock). The sweep code satisfies this trivially — jobs are whole
//! simulations and only the submitting (non-worker) thread joins. The
//! partitioned simulator satisfies it by giving every simulator a dedicated
//! pool: its epoch jobs never land on the pool the sweep layer joins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_available: Condvar,
}

/// A fixed-size pool of worker threads executing submitted jobs in FIFO
/// order.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with exactly `size` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or a worker thread cannot be spawned.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "a worker pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), shutdown: false }),
            work_available: Condvar::new(),
        });
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wsn-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn a pool worker thread")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Number of jobs submitted but not yet picked up by a worker.
    pub fn queued_jobs(&self) -> usize {
        self.shared.state.lock().expect("pool lock poisoned").queue.len()
    }

    /// Submits a job and returns the handle its result will arrive on.
    ///
    /// Jobs run in submission order as workers free up; the handle's
    /// [`JobHandle::join`] blocks until this job finished (re-raising its
    /// panic, if it panicked).
    pub fn submit<T, F>(&self, job: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(JobSlot { result: Mutex::new(None), done: Condvar::new() });
        let completion = Arc::clone(&slot);
        let boxed: Job = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            *completion.result.lock().expect("job slot lock poisoned") = Some(result);
            completion.done.notify_all();
        });
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.queue.push_back(boxed);
        }
        self.shared.work_available.notify_one();
        JobHandle { slot }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Let the workers drain the queue, then exit.
        self.shared.state.lock().expect("pool lock poisoned").shutdown = true;
        self.shared.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool({} workers, {} queued)", self.size(), self.queued_jobs())
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_available.wait(state).expect("pool lock poisoned");
            }
        };
        job();
    }
}

struct JobSlot<T> {
    result: Mutex<Option<std::thread::Result<T>>>,
    done: Condvar,
}

/// The receiving end of one submitted job.
#[must_use = "dropping a JobHandle discards the job's result"]
pub struct JobHandle<T> {
    slot: Arc<JobSlot<T>>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job completed and returns its result. If the job
    /// panicked, the panic is resumed on the calling thread (mirroring
    /// [`std::thread::JoinHandle::join`] + unwrap, which the thread-per-seed
    /// implementation used).
    pub fn join(self) -> T {
        let mut guard = self.slot.result.lock().expect("job slot lock poisoned");
        while guard.is_none() {
            guard = self.slot.done.wait(guard).expect("job slot lock poisoned");
        }
        match guard.take().expect("checked above") {
            Ok(value) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// The default pool size: one worker per available hardware thread.
pub fn default_size() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The process-wide pool shared by every sweep the process runs, created
/// lazily with [`default_size`] workers. All `(configuration, seed)` cells
/// of a grid funnel through this one pool, which is what bounds the
/// process's simulation concurrency.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(default_size()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_on_the_right_handles_in_submission_order() {
        let pool = WorkerPool::new(3);
        let handles: Vec<JobHandle<usize>> = (0..32).map(|i| pool.submit(move || i * i)).collect();
        let results: Vec<usize> = handles.into_iter().map(JobHandle::join).collect();
        assert_eq!(results, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_workers_all_complete() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<JobHandle<()>> = (0..100)
            .map(|_| {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for handle in handles {
            handle.join();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn queued_jobs_drain_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..10 {
                let counter = Arc::clone(&counter);
                // Handles dropped: results discarded, jobs still run.
                let _ = pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // Drop joins the workers after the queue drained.
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panics_propagate_to_join() {
        let pool = WorkerPool::new(1);
        let bad = pool.submit(|| panic!("job exploded"));
        let good = pool.submit(|| 7);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join())).is_err());
        // The worker survives a panicking job.
        assert_eq!(good.join(), 7);
    }

    #[test]
    fn pool_introspection() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.size(), 2);
        assert!(format!("{pool:?}").contains("2 workers"));
        assert!(default_size() >= 1);
        assert!(global().size() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_sized_pools_are_rejected() {
        let _ = WorkerPool::new(0);
    }
}
