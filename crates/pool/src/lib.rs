//! # pool — an in-tree thread pool with one shared task queue
//!
//! The suite pipeline used to spawn one OS thread per program and,
//! inside each, one more per input — 14+ threads of oversubscription
//! on a small runner, and a straggler program's inputs still ran on a
//! single core. This crate replaces all of that with one process-wide
//! pool of `available_parallelism` workers executing *(program,
//! input)*-granularity tasks, and a [`Pool::scope`] API in the style
//! of `std::thread::scope` / rayon — tasks may borrow from the
//! caller's stack and may themselves spawn further tasks into the same
//! scope (compile tasks fan out profile tasks).
//!
//! Scheduling is one FIFO queue behind a mutex: every spawn pushes to
//! the back, workers pop from the front, and idle workers sleep on a
//! condition variable until a spawn or shutdown wakes them. The queue
//! and the shutdown flag live under the same mutex, so no wakeup can
//! be lost and an idle pool costs no CPU. Tasks are whole compile or
//! profile jobs, so one lock per task is noise.
//!
//! Everything is vendored — no external dependencies, no network.
//!
//! ## Determinism contract
//!
//! The pool schedules nondeterministically; callers that need
//! deterministic output write results into pre-sized slots
//! (`results[i]`) owned by the spawning stack frame, so merged output
//! is slot-indexed, never completion-ordered. `bench::load_suite`
//! produces byte-identical results for pool sizes 1, 2, and N this
//! way (asserted by `crates/bench/tests/determinism.rs`), and so do
//! `sfe reuse`, the serve database and `bench::corpus`, which runs its
//! seeds as fixed chunks of slot-writing tasks, one scope per chunk.
//!
//! ## Observability
//!
//! When telemetry is enabled the pool counts into two `obs` counters:
//! `pool.tasks` (tasks executed) and `pool.idle_ns` (total worker
//! sleep time).
//!
//! ```
//! let pool = pool::Pool::new(4);
//! let mut squares = vec![0u64; 8];
//! pool.scope(|s| {
//!     for (i, slot) in squares.iter_mut().enumerate() {
//!         s.spawn(move |_| *slot = (i as u64) * (i as u64));
//!     }
//! });
//! assert_eq!(squares[7], 49);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Upper bound on the worker count of any pool: [`Pool::new`] clamps
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
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled once per spawn, and to everyone at shutdown.
    ready: Condvar,
}

impl Shared {
    fn push(&self, task: Task) {
        self.queue.lock().unwrap().tasks.push_back(task);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<Task> {
        self.queue.lock().unwrap().tasks.pop_front()
    }

    /// Runs a claimed task. Panics cannot escape: every task is a
    /// scope wrapper that catches its own unwind.
    fn run(&self, task: Task) {
        // Count before running: the task body itself signals its
        // scope's completion, so a count taken afterwards could land
        // after the scope's owner has already read the counters.
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

/// A thread pool with one shared FIFO task queue. See the crate docs
/// for the design; construct per-test pools with [`Pool::new`] or
/// share the process-wide [`global`] pool.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool with `threads` workers, clamped to
    /// `1..=`[`MAX_THREADS`].
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared::default());
        let workers = (0..threads.clamp(1, MAX_THREADS))
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

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f` with a [`Scope`] on which tasks can be spawned, then
    /// blocks until every task spawned into the scope (transitively —
    /// tasks may spawn more tasks) has finished. Tasks may borrow
    /// anything that outlives the `scope` call, exactly as with
    /// `std::thread::scope`.
    ///
    /// While waiting, the calling thread *helps*: it executes pool
    /// tasks instead of blocking, so a nested `scope` on a worker
    /// thread cannot deadlock the pool.
    ///
    /// # Panics
    ///
    /// If `f` or any task panics, the panic is resumed here — after
    /// all tasks in the scope have completed (they may borrow the
    /// caller's frame, so unwinding early would be unsound).
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::new(ScopeState::default()),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait_done();
        match result {
            Ok(r) => {
                if let Some(payload) = scope.state.panic.lock().unwrap().take() {
                    resume_unwind(payload);
                }
                r
            }
            Err(payload) => resume_unwind(payload),
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

#[derive(Default)]
struct ScopeState {
    /// Tasks spawned into the scope and not yet finished.
    pending: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    /// First task panic, resumed when the scope closes.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.done_lock.lock().unwrap();
            self.done.notify_all();
        }
    }
}

/// Handle for spawning tasks into a [`Pool::scope`] region. Spawned
/// closures receive `&Scope` back, so a task can fan out further
/// tasks into the same scope.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant in `'scope`, as in `std::thread::scope`.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `f` onto the pool: it joins the back of the shared
    /// queue, whichever thread spawns it.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(&self.shared);
        let state = Arc::clone(&self.state);
        let wrapper: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope: Scope<'scope> = Scope {
                shared,
                state: Arc::clone(&state),
                _marker: PhantomData,
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&scope))) {
                let mut slot = state.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            state.finish_one();
        });
        // SAFETY: only the lifetime is erased. `Pool::scope` does not
        // return (or unwind) before `wait_done` has observed every
        // spawned task finished, so the closure — and everything it
        // borrows for `'scope` — is never used after `'scope` ends.
        let wrapper: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(wrapper) };
        self.shared.push(wrapper);
    }

    /// Blocks until `pending` hits zero, executing pool tasks while
    /// waiting instead of sleeping whenever any are available.
    fn wait_done(&self) {
        while self.state.pending.load(Ordering::SeqCst) != 0 {
            if let Some(task) = self.shared.pop() {
                self.shared.run(task);
                continue;
            }
            let guard = self.state.done_lock.lock().unwrap();
            if self.state.pending.load(Ordering::SeqCst) != 0 {
                // Short timeout: the tasks we are waiting on may be
                // running on workers that will spawn more work we
                // could help with.
                let _unused = self
                    .state
                    .done
                    .wait_timeout(guard, Duration::from_micros(200))
                    .unwrap();
            }
        }
    }
}

/// The process-wide pool of [`default_threads`] workers. Created on
/// first use and never torn down.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// Worker count for the global pool: `SFE_POOL_THREADS` if set and
/// parseable, else `available_parallelism`, else 1. [`Pool::new`]
/// clamps it to `1..=`[`MAX_THREADS`].
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

    #[test]
    fn scope_runs_every_task_and_borrows_slots() {
        let pool = Pool::new(4);
        let mut out = vec![0u64; 100];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move |_| *slot = i as u64 + 1);
            }
        });
        assert_eq!(out.iter().sum::<u64>(), 5050);
    }

    #[test]
    fn tasks_fan_out_nested_tasks() {
        // The load_suite shape: 8 "compile" tasks each spawn 8
        // "profile" tasks into the same scope.
        let pool = Pool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|s| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..8 {
                        s.spawn(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 + 64);
    }

    #[test]
    fn pool_size_one_completes_fanout() {
        let pool = Pool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|s| {
                    for _ in 0..4 {
                        s.spawn(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn scope_returns_value_and_sequences_scopes() {
        // Consecutive scopes on one pool see each other's effects:
        // every scope's tasks complete before the call returns.
        let pool = Pool::new(2);
        let mut acc = 0u64;
        for round in 1..=10u64 {
            let before = acc;
            let mut slot = 0u64;
            let ret = pool.scope(|s| {
                s.spawn(|_| slot = round);
                "done"
            });
            assert_eq!(ret, "done");
            acc = before + slot;
        }
        assert_eq!(acc, 55);
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = Pool::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..16 {
                    let finished = Arc::clone(&finished);
                    s.spawn(move |_| {
                        if i == 5 {
                            panic!("boom");
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
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
    fn nested_pool_scope_on_worker_thread_does_not_deadlock() {
        // A task opening a whole new Pool::scope on the (only) worker
        // thread: wait_done must help-execute instead of blocking.
        let pool = Pool::new(1);
        let done = AtomicU64::new(0);
        let pool_ref = &pool;
        let done_ref = &done;
        pool.scope(|s| {
            s.spawn(move |_| {
                pool_ref.scope(|inner| {
                    inner.spawn(move |_| {
                        done_ref.fetch_add(1, Ordering::Relaxed);
                    });
                });
                done_ref.fetch_add(10, Ordering::Relaxed);
            });
        });
        assert_eq!(done.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn stress_many_small_tasks() {
        let pool = Pool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..5_000 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5_000);
    }

    #[test]
    fn a_spawner_that_does_not_help_is_never_stranded() {
        // The spawning thread blocks on the task's result instead of
        // helping, so only a worker woken by the spawn can run it: a
        // lost wakeup leaves the worker asleep and times out here.
        for workers in [1, 2] {
            let pool = Pool::new(workers);
            for round in 0..1000u32 {
                pool.scope(|s| {
                    let (tx, rx) = std::sync::mpsc::channel();
                    s.spawn(move |_| tx.send(round).unwrap());
                    let got = rx.recv_timeout(Duration::from_secs(5));
                    assert_eq!(got, Ok(round), "{workers} workers, round {round}");
                });
            }
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_workers_sleep_without_polling() {
        use std::path::{Path, PathBuf};
        let pool = Pool::new(2);
        // Two tasks that wait for each other must run on both workers
        // (the scope's owner does not help until its closure returns);
        // each records its thread's `/proc/self/task/<tid>` directory.
        let both = std::sync::Barrier::new(2);
        let dirs = Mutex::new(Vec::new());
        pool.scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| {
                    let tid = std::fs::read_link("/proc/thread-self").unwrap();
                    let dir = Path::new("/proc/self/task").join(tid.file_name().unwrap());
                    dirs.lock().unwrap().push(dir);
                    both.wait();
                });
            }
            while dirs.lock().unwrap().len() < 2 {
                std::thread::yield_now();
            }
        });
        let dirs = dirs.into_inner().unwrap();
        let read = |dir: &PathBuf, file| std::fs::read_to_string(dir.join(file)).unwrap();
        for dir in &dirs {
            assert!(read(dir, "comm").starts_with("pool-worker-"), "{dir:?}");
        }
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
    fn global_pool_is_shared_and_sized() {
        let g1 = global();
        let g2 = global();
        assert!(std::ptr::eq(g1, g2));
        assert!(g1.workers() >= 1);
    }

    #[test]
    fn dropping_an_idle_pool_joins_cleanly() {
        let pool = Pool::new(3);
        pool.scope(|s| {
            s.spawn(|_| {});
        });
        drop(pool);
    }
}
