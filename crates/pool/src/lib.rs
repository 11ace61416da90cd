//! # pool — an in-tree thread pool with one shared task queue
//!
//! The suite pipeline used to spawn one OS thread per program and,
//! inside each, one more per input — 14+ threads of oversubscription
//! on a small runner, and a straggler program's inputs still ran on a
//! single core. This crate replaces all of that with one process-wide
//! pool of [`default_threads`] threads and one operation,
//! [`Pool::map`]: run a function over a list of items as pool tasks
//! and get the results back in input order. The function and the
//! items may borrow from the caller's stack.
//!
//! A pool of n is n threads: the `map` caller runs tasks too, so
//! `Pool::new(n)` spawns n − 1 workers.
//!
//! Scheduling is one FIFO queue behind a mutex: every task joins the
//! back, workers pop from the front, and idle workers sleep on a
//! condition variable until a new task or shutdown wakes them. A `map`
//! caller runs queued tasks while its own are unfinished and otherwise
//! sleeps on a second condition variable, which a queued task or a
//! finished batch signals. The queue, the shutdown flag and the count
//! of sleeping callers live under the same mutex, so no wakeup can be
//! lost, and neither an idle pool nor a waiting caller costs CPU.
//! Tasks are whole compile or profile jobs, so one lock per task is
//! noise.
//!
//! Everything is vendored — no external dependencies, no network.
//!
//! ## Determinism contract
//!
//! The pool schedules nondeterministically, but [`Pool::map`] returns
//! its results in input order, never in completion order, so any
//! caller that folds them in that order is deterministic by
//! construction. `bench::load_suite` produces byte-identical results
//! for pool sizes 1, 2, and N (asserted by
//! `crates/bench/tests/determinism.rs`), and so do `sfe reuse` and
//! `bench::corpus`, which maps its seeds in fixed chunks.
//!
//! ## Observability
//!
//! When telemetry is enabled the pool counts into two `obs` counters:
//! `pool.tasks` (tasks executed, one per item) and `pool.idle_ns`
//! (total worker sleep time). Each task's spans nest under the `map`
//! call that queued it ([`obs::run_under`]), whichever thread runs it.
//!
//! ```
//! let pool = pool::Pool::new(4);
//! let squares = pool.map(0..8u64, |i| i * i);
//! assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on the thread count of any pool: [`Pool::new`] clamps
/// its argument to `1..=MAX_THREADS`, so `--jobs` and
/// `SFE_POOL_THREADS` cannot ask for more threads than a machine can
/// usefully run.
pub const MAX_THREADS: usize = 256;

/// The type-erased unit of work.
type Task = Box<dyn FnOnce() + Send>;

/// Everything the queue mutex guards.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
    /// [`Pool::map`] callers asleep on [`Shared::progress`].
    waiters: usize,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled once per queued task, and to everyone at shutdown.
    ready: Condvar,
    /// Wakes every sleeping `map` caller when a task is queued (it may
    /// help run it) or a batch finishes (it may be theirs).
    progress: Condvar,
}

impl Shared {
    fn push(&self, task: Task) {
        let waiters = {
            let mut queue = self.queue.lock().unwrap();
            queue.tasks.push_back(task);
            queue.waiters
        };
        self.ready.notify_one();
        if waiters > 0 {
            self.progress.notify_all();
        }
    }

    /// Wakes the sleeping `map` callers. Taking the queue lock orders
    /// this after any caller that saw its batch unfinished has gone to
    /// sleep, so none misses the news.
    fn wake_waiters(&self) {
        if self.queue.lock().unwrap().waiters > 0 {
            self.progress.notify_all();
        }
    }

    /// Runs a claimed task. Panics cannot escape: every task is a
    /// [`Pool::map`] wrapper that catches its own unwind.
    fn run(&self, task: Task) {
        // Count before running: the task body itself signals its
        // batch's completion, so a count taken afterwards could land
        // after the map's caller has already read the counters.
        obs::counter_add("pool.tasks", 1);
        task();
    }
}

/// Runs queued tasks until shutdown, sleeping whenever the queue is
/// empty. Tasks still queued at shutdown run before the worker exits.
fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            shared.run(task);
            queue = shared.queue.lock().unwrap();
        } else if queue.shutdown {
            return;
        } else {
            let slept = Instant::now();
            queue = shared.ready.wait(queue).unwrap();
            let ns = u64::try_from(slept.elapsed().as_nanos()).unwrap_or(u64::MAX);
            obs::counter_add("pool.idle_ns", ns);
        }
    }
}

/// The completion state of one [`Pool::map`] call.
struct Batch {
    /// Tasks queued and not yet finished.
    pending: AtomicUsize,
    /// First task panic, resumed once every task has finished.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The pool's queue, whose waiters the last task wakes.
    shared: Arc<Shared>,
}

impl Batch {
    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.wake_waiters();
        }
    }
}

/// A thread pool with one shared FIFO task queue. See the crate docs
/// for the design; construct per-test pools with [`Pool::new`] or
/// share the process-wide [`global`] pool.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool of `threads` threads, clamped to `1..=`[`MAX_THREADS`]:
    /// the `map` caller and `threads` − 1 spawned workers.
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared::default());
        let workers = (1..threads.clamp(1, MAX_THREADS))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Number of threads, the `map` caller counted.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f` on every item as one pool task per item and returns
    /// the results in input order, whatever order the tasks finished
    /// in. `f` and the items may borrow anything that outlives the
    /// call, as with `std::thread::scope`.
    ///
    /// While waiting, the calling thread *helps*: it is one of the
    /// pool's threads and executes queued tasks instead of blocking,
    /// so a `map` inside a task cannot deadlock the pool. Each task
    /// runs under this call's span path.
    ///
    /// # Panics
    ///
    /// If `f` panics on any item, the first panic is resumed here —
    /// after every task of the call has finished (they borrow the
    /// caller's frame, so unwinding early would be unsound).
    pub fn map<T, R, F>(&self, items: impl IntoIterator<Item = T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        // Collect first: no caller code may run (and panic) between
        // queueing a task and waiting for it.
        let items: Vec<T> = items.into_iter().collect();
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        let batch = Arc::new(Batch {
            pending: AtomicUsize::new(items.len()),
            panic: Mutex::new(None),
            shared: Arc::clone(&self.shared),
        });
        let f = &f;
        let path = &obs::capture_path();
        for (item, slot) in items.into_iter().zip(slots.iter_mut()) {
            let batch = Arc::clone(&batch);
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let run = || obs::run_under(path.as_ref(), || f(item));
                match catch_unwind(AssertUnwindSafe(run)) {
                    Ok(r) => *slot = Some(r),
                    Err(payload) => {
                        batch.panic.lock().unwrap().get_or_insert(payload);
                    }
                }
                batch.finish_one();
            });
            // SAFETY: only the lifetime is erased. `map` neither
            // returns nor unwinds before `wait` has seen every task of
            // the batch finish, so the task — and everything it
            // borrows — is never used after the borrows end.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
            self.shared.push(task);
        }
        self.wait(&batch);
        if let Some(payload) = batch.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every task of the batch filled its slot"))
            .collect()
    }

    /// Blocks until every task of `batch` has finished, executing pool
    /// tasks while waiting whenever any are queued. With none queued it
    /// sleeps until a task is queued (the batch's tasks may be running
    /// on workers whose nested maps queue work it can help with) or a
    /// batch finishes.
    fn wait(&self, batch: &Batch) {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().unwrap();
        while batch.pending.load(Ordering::Acquire) != 0 {
            if let Some(task) = queue.tasks.pop_front() {
                drop(queue);
                shared.run(task);
                queue = shared.queue.lock().unwrap();
            } else {
                queue.waiters += 1;
                queue = shared.progress.wait(queue).unwrap();
                queue.waiters -= 1;
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _joined = w.join();
        }
    }
}

/// The process-wide pool of [`default_threads`] threads. Created on
/// first use and never torn down.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// Thread count of every pool not given one: `SFE_POOL_THREADS` if
/// set and parseable, else `available_parallelism`, else 1.
/// [`Pool::new`] clamps it to `1..=`[`MAX_THREADS`].
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SFE_POOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// A barrier over `n` threads that gives up after `timeout`:
    /// `wait` returns whether all `n` arrived in time, so a test
    /// that needs every worker busy at once fails instead of hanging.
    struct TimedBarrier {
        arrived: Mutex<usize>,
        all: Condvar,
        n: usize,
    }

    impl TimedBarrier {
        fn new(n: usize) -> Self {
            TimedBarrier {
                arrived: Mutex::new(0),
                all: Condvar::new(),
                n,
            }
        }

        fn wait(&self, timeout: Duration) -> bool {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all.notify_all();
            let (arrived, _) = self
                .all
                .wait_timeout_while(arrived, timeout, |a| *a < self.n)
                .unwrap();
            *arrived >= self.n
        }
    }

    #[test]
    fn map_borrows_from_the_caller() {
        let pool = Pool::new(4);
        let words: Vec<String> = (0..100).map(|i| format!("w{i}")).collect();
        let offset = 1u64;
        let out = pool.map(&words, |w| w[1..].parse::<u64>().unwrap() + offset);
        assert_eq!(out.iter().sum::<u64>(), 5050);
        assert!(pool.map(Vec::<u64>::new(), |x| x).is_empty());
    }

    #[test]
    fn map_returns_results_in_input_order() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            // Early items take longest, so completion order runs
            // roughly backwards.
            let out = pool.map(0..24u64, |i| {
                std::thread::sleep(Duration::from_micros((24 - i) % 5 * 300));
                i * 10
            });
            let want: Vec<u64> = (0..24).map(|i| i * 10).collect();
            assert_eq!(out, want, "{threads} threads");
        }
    }

    #[test]
    fn consecutive_maps_see_each_others_effects() {
        // Every task of a map completes before the call returns.
        let pool = Pool::new(2);
        let acc = AtomicU64::new(0);
        for round in 1..=10u64 {
            let before = acc.load(Ordering::Relaxed);
            pool.map([round], |r| acc.fetch_add(r, Ordering::Relaxed));
            assert_eq!(acc.load(Ordering::Relaxed), before + round);
        }
        assert_eq!(acc.load(Ordering::Relaxed), 55);
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = Pool::new(2);
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(0..16, |i| {
                if i == 5 {
                    panic!("boom");
                }
                std::thread::sleep(Duration::from_millis(1));
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must surface");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            15,
            "non-panicking tasks all ran to completion first"
        );
    }

    #[test]
    fn nested_map_on_a_one_worker_pool_does_not_deadlock() {
        // A task running a whole new map on the (only) worker thread:
        // the inner wait must help-execute instead of blocking.
        let pool = Pool::new(2);
        let out = pool.map(0..4u64, |i| {
            pool.map(0..4u64, |j| i * 4 + j).iter().sum::<u64>()
        });
        assert_eq!(out, [6, 22, 38, 54]);
    }

    #[test]
    fn stress_many_small_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        pool.map(0..5_000, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 5_000);
    }

    #[test]
    fn every_worker_wakes_for_a_queued_task() {
        // One task per thread (the helping caller counted), all held at
        // one barrier: each thread can run only one of them, so the
        // barrier opens only if every worker was woken by its task. A
        // lost wakeup leaves a worker asleep and times out here.
        for threads in [2, 3] {
            let pool = Pool::new(threads);
            for round in 0..1000u32 {
                let barrier = TimedBarrier::new(threads);
                let met = pool.map(0..threads, |_| barrier.wait(Duration::from_secs(5)));
                assert!(met.iter().all(|&m| m), "{threads} threads, round {round}");
            }
        }
    }

    #[test]
    fn a_one_thread_pool_runs_every_task_on_the_caller() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let ran = pool.map(0..16, |_| {
            let inner = pool.map(0..4, |_| std::thread::current().id());
            (std::thread::current().id(), inner)
        });
        for (outer, inner) in ran {
            assert_eq!(outer, caller);
            assert!(inner.iter().all(|&t| t == caller));
        }
    }

    #[test]
    fn a_pool_of_n_uses_at_most_n_threads() {
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
        let ran = pool.map(0..64, |_| {
            std::thread::sleep(Duration::from_micros(200));
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ran.into_iter().collect();
        assert!(distinct.len() <= 3, "{} threads ran tasks", distinct.len());
    }

    #[test]
    fn task_spans_record_under_the_map_that_queued_them() {
        // Two tasks held at one barrier, so the worker runs one and the
        // caller the other; each opens a span and a nested map. Every
        // span lands under the caller's path, whichever thread ran it.
        let pool = Pool::new(2);
        let barrier = TimedBarrier::new(2);
        obs::set_enabled(true);
        {
            let _outer = obs::span("pool-test.outer");
            pool.map(0..2, |_| {
                assert!(barrier.wait(Duration::from_secs(5)), "barrier timed out");
                let _task = obs::span("pool-test.task");
                pool.map([()], |()| {
                    let _inner = obs::span("pool-test.inner");
                });
            });
        }
        obs::set_enabled(false);
        let m = obs::snapshot();
        let ours: Vec<(&str, u64)> = m
            .spans
            .iter()
            .filter(|(path, _)| path.contains("pool-test."))
            .map(|(path, stat)| (path.as_str(), stat.count))
            .collect();
        assert_eq!(
            ours,
            [
                ("pool-test.outer", 1),
                ("pool-test.outer/pool-test.task", 2),
                ("pool-test.outer/pool-test.task/pool-test.inner", 2),
            ]
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_workers_sleep_without_polling() {
        use std::path::{Path, PathBuf};
        let pool = Pool::new(3);
        // Three tasks held at one barrier run on both workers and the
        // helping caller; each records its thread's
        // `/proc/self/task/<tid>` directory and name.
        let barrier = TimedBarrier::new(3);
        let threads = pool.map(0..3, |_| {
            let tid = std::fs::read_link("/proc/thread-self").unwrap();
            let dir = Path::new("/proc/self/task").join(tid.file_name().unwrap());
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap();
            assert!(barrier.wait(Duration::from_secs(5)), "barrier timed out");
            (dir, comm)
        });
        let dirs: Vec<PathBuf> = threads
            .into_iter()
            .filter(|(_, comm)| comm.starts_with("pool-worker-"))
            .map(|(dir, _)| dir)
            .collect();
        assert_eq!(dirs.len(), 2, "both workers ran a task");
        let read = |dir: &PathBuf, file| std::fs::read_to_string(dir.join(file)).unwrap();
        // Voluntary plus involuntary context switches of both workers.
        let switches = || -> u64 {
            let status: String = dirs.iter().map(|dir| read(dir, "status")).collect();
            let counts = status.lines().filter(|l| l.contains("ctxt_switches:"));
            counts
                .map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        // Let the workers go back to sleep, then watch them idle.
        std::thread::sleep(Duration::from_millis(50));
        let before = switches();
        std::thread::sleep(Duration::from_millis(300));
        let woke = switches() - before;
        assert!(woke < 10, "idle workers switched {woke} times in 300 ms");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_waiting_caller_sleeps_until_its_tasks_finish() {
        let voluntary_switches = || -> u64 {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find(|l| l.starts_with("voluntary_ctxt_switches:"));
            line.unwrap()
                .split_whitespace()
                .last()
                .unwrap()
                .parse()
                .unwrap()
        };
        // The two tasks meet at a barrier, so the worker runs one and
        // the caller the other; then the worker's sleeps for 300 ms
        // while the caller, its own task done, waits for it.
        let pool = Pool::new(2);
        let barrier = TimedBarrier::new(2);
        let caller = std::thread::current().id();
        let before = voluntary_switches();
        pool.map(0..2, |_| {
            assert!(barrier.wait(Duration::from_secs(5)), "barrier timed out");
            if std::thread::current().id() != caller {
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        let switched = voluntary_switches() - before;
        assert!(
            switched < 20,
            "the waiting caller switched {switched} times in 300 ms"
        );
    }

    #[test]
    fn a_waiting_caller_helps_with_work_a_nested_map_queues() {
        // As above, the worker runs one outer task while the caller,
        // its own done, waits; once the caller is asleep, the worker's
        // task queues four slow tasks, and the queueing must wake the
        // caller to help.
        let pool = Pool::new(2);
        let barrier = TimedBarrier::new(2);
        let caller = std::thread::current().id();
        let helped = AtomicU64::new(0);
        pool.map(0..2, |_| {
            assert!(barrier.wait(Duration::from_secs(5)), "barrier timed out");
            if std::thread::current().id() != caller {
                std::thread::sleep(Duration::from_millis(50));
                pool.map(0..4, |_| {
                    if std::thread::current().id() == caller {
                        helped.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                });
            }
        });
        assert!(
            helped.load(Ordering::Relaxed) > 0,
            "the caller ran no nested task"
        );
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let g1 = global();
        let g2 = global();
        assert!(std::ptr::eq(g1, g2));
        assert!(g1.threads() >= 1);
    }

    #[test]
    fn dropping_an_idle_pool_joins_cleanly() {
        let pool = Pool::new(3);
        pool.map([()], |()| {});
        drop(pool);
    }
}
