//! A tiny buffer pool for allocation-free inference hot paths.
//!
//! The wavefront inference engine (`qppnet::infer`) evaluates hundreds of
//! small matmuls per batch; allocating every layer activation would put the
//! allocator on the critical path (exactly what profiling shows for the
//! training-time [`crate::MlpCache`] when it is reused for serving). A
//! [`BufferPool`] keeps returned [`Matrix`] buffers and hands them back
//! resized, so steady-state serving performs zero heap allocation once
//! every buffer has grown to its high-water mark.
//!
//! ```
//! use qpp_nn::{BufferPool, Matrix};
//!
//! let mut pool = BufferPool::new();
//! let a = pool.take(4, 8);          // fresh allocation (pool is empty)
//! pool.give(a);                     // return it for reuse
//! let b = pool.take(2, 16);         // same allocation, reshaped — no malloc
//! assert_eq!((b.rows(), b.cols()), (2, 16));
//! ```
//!
//! # Threading
//!
//! A pool is deliberately **not** shared between threads — no locks, no
//! atomics. Multicore work gives each lane or shard its *own* pool
//! (`BufferPool` is [`Send`], as the compile-time assertion below pins
//! down), which keeps the hot path lock-free and each worker's buffers
//! warm in its core's cache. Sharing one pool behind a mutex would
//! serialize exactly the allocations the pool exists to avoid.
//!
//! The threads themselves come from the resident [`Executor`]: a
//! process-wide pool of parked worker threads, created once and reused
//! across runs. See [`Executor`] for the park/unpark protocol and the
//! lifetime-soundness argument.

use crate::matrix::Matrix;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A last-in-first-out pool of reusable [`Matrix`] buffers.
///
/// `take` pops the most recently returned buffer (warm in cache) and
/// [`Matrix::resize_for_overwrite`]s it to the requested shape, growing
/// its allocation only when the new shape exceeds the high-water mark;
/// `give` returns a buffer for reuse. Buffers are plain `Matrix` values —
/// leaking one (by never calling `give`) is safe, just a lost reuse
/// opportunity.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Matrix>,
}

// Multicore lanes and shards carry pools (and the matrices inside them)
// onto executor workers, and share `&Mlp`/`&Matrix` across workers.
// Pin those auto-trait facts at compile time so a future field addition
// (e.g. an Rc-cached statistic) cannot silently break `Send`-cleanliness.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<BufferPool>();
    assert_send::<Matrix>();
    assert_sync::<Matrix>();
    assert_sync::<crate::mlp::Mlp>();
    // Packed panel state is shared by reference across the same workers
    // (serving forward) and owned per training tape.
    assert_send::<crate::packed::PackedMlp>();
    assert_sync::<crate::packed::PackedMlp>();
    assert_send::<crate::packed::PackedWeights>();
    assert_sync::<crate::packed::PackedWeights>();
    // The resident executor is handed around by shared reference (the
    // global instance) and its workers outlive any one caller.
    assert_send::<Executor>();
    assert_sync::<Executor>();
};

impl BufferPool {
    /// An empty pool.
    pub fn new() -> BufferPool {
        BufferPool { free: Vec::new() }
    }

    /// Takes a `rows × cols` buffer with **unspecified contents** (the
    /// caller must overwrite every element it reads back — every write
    /// kernel in this crate's forward paths does). Reuses a pooled
    /// allocation when one is available; a fresh buffer is zeroed by
    /// construction.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        match self.free.pop() {
            Some(mut m) => {
                m.resize_for_overwrite(rows, cols);
                m
            }
            None => Matrix::zeros(rows, cols),
        }
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn give(&mut self, m: Matrix) {
        self.free.push(m);
    }

    /// Number of buffers currently available for reuse.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

/// Locks a mutex, ignoring poison: executor state stays consistent across
/// a panicking job because every transition happens *outside* the caught
/// closure (or is a plain counter), so the poisoned flag carries no
/// information here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A dispatched job: called once per participating worker with that
/// worker's index. The `'static` lifetime is a transmute-erased fiction —
/// see the safety comment in [`Executor::run`].
type Job = &'static (dyn Fn(usize) + Sync);

/// State shared between the executor handle and its resident workers,
/// guarded by one mutex (cold path only — job bodies never touch it).
struct ExecState {
    /// Bumped once per dispatched (multi-worker) run; workers use it to
    /// tell a fresh job from the one they already ran.
    epoch: u64,
    /// The job of the live epoch; `None` between runs.
    job: Option<Job>,
    /// Total workers enrolled in the live epoch, caller included: spawned
    /// workers with `index < participants` take part, the rest keep
    /// sleeping.
    participants: usize,
    /// Enrolled *spawned* workers that have not yet finished the live
    /// epoch; the caller waits for this to reach zero before returning.
    remaining: usize,
    /// First panic payload caught on a spawned worker this epoch,
    /// re-raised on the caller after the run completes.
    worker_panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set on drop; parked workers exit instead of waiting for work.
    shutdown: bool,
}

struct ExecShared {
    state: Mutex<ExecState>,
    /// Workers park here between runs.
    work_cv: Condvar,
    /// The caller parks here until `remaining` reaches zero.
    done_cv: Condvar,
    runs: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
}

/// Observability counters for a resident [`Executor`] (see
/// [`Executor::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Total `run` calls dispatched (including single-threaded fast-path
    /// runs, which never wake a worker).
    pub runs: u64,
    /// Times a resident worker went to sleep on the work condvar. An idle
    /// pool parks each worker exactly once — the counter stays flat while
    /// no runs arrive (the idle-pool-does-not-spin contract, asserted by
    /// the differential suite).
    pub parks: u64,
    /// Times a resident worker picked up a job.
    pub unparks: u64,
    /// Resident worker threads currently spawned (the caller is worker 0
    /// and is not counted).
    pub resident_workers: usize,
}

impl std::fmt::Display for ExecutorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} runs, {} resident workers, {} parks / {} unparks",
            self.runs, self.resident_workers, self.parks, self.unparks
        )
    }
}

/// A resident pool of parked worker threads for plan-lane and shard
/// runs — the replacement for spawn-per-run scoped threads, whose ~0.2 ms
/// per-thread spawn cost dwarfed the engine's microsecond-scale admissions.
///
/// # Lifecycle
///
/// Workers are spawned lazily (first run that needs them, or eagerly via
/// [`Executor::new`]), then **parked on a condvar** between runs; an idle
/// pool burns no CPU. The caller participates as worker 0. Workers own no
/// buffers: a job's lanes or shards carry their own [`BufferPool`]s.
/// [`Executor::global`] returns the process-wide instance every serving
/// and training path shares — multiple resident models are tenants of
/// the same pool.
///
/// # Dispatch protocol
///
/// [`Executor::run`]`(threads, job)` with `threads <= 1` calls `job(0)`
/// inline — no worker interaction, no condvar, just one uncontended mutex
/// acquisition (the measured dispatch floor is well under the 5 µs
/// budget). Otherwise the caller bumps the epoch, installs the job, wakes
/// the pool, runs its own share as worker 0, then sleeps until the last
/// enrolled worker checks out. Runs are serialized by the run-token lock;
/// nesting `run` inside a job deadlocks and is forbidden.
///
/// # Panics
///
/// A panic on the caller's share is re-raised after every worker finished;
/// a panic on a spawned worker is caught (the resident thread survives),
/// parked in the shared state, and re-raised on the caller when the run
/// completes. A job that waits on a barrier between phases (the training
/// tape's gradient step) keeps its own poison protocol so no worker is
/// stranded mid-barrier; barrier-free jobs (lanes, shards) need none.
///
/// ```
/// use qpp_nn::Executor;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let exec = Executor::new(1); // one resident worker, parked
/// let hits = AtomicUsize::new(0);
/// exec.run(2, &|_worker| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 2); // caller + 1 worker
/// ```
pub struct Executor {
    shared: Arc<ExecShared>,
    /// Held for the whole of a run: exactly one run is in flight per
    /// executor, so the job slot is never overwritten mid-run.
    run_token: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Executor {
    /// A fresh executor with `workers` resident (parked) worker threads.
    /// More are spawned on demand by [`Executor::run`]; most callers want
    /// [`Executor::global`] instead.
    pub fn new(workers: usize) -> Executor {
        let exec = Executor {
            shared: Arc::new(ExecShared {
                state: Mutex::new(ExecState {
                    epoch: 0,
                    job: None,
                    participants: 0,
                    remaining: 0,
                    worker_panic: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                runs: AtomicU64::new(0),
                parks: AtomicU64::new(0),
                unparks: AtomicU64::new(0),
            }),
            run_token: Mutex::new(()),
            handles: Mutex::new(Vec::new()),
        };
        exec.ensure_workers(workers);
        exec
    }

    /// The process-wide resident executor: created parked on first use,
    /// grown to the largest thread count ever requested, shared by every
    /// serving and training path (and so by every resident model — the
    /// multi-tenancy pool). Never torn down.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(0))
    }

    /// Runs `job` once per worker index `0..threads`, worker 0 on the
    /// calling thread, the rest on resident workers (spawned now if the
    /// pool is smaller than `threads - 1`). Blocks until every enrolled
    /// worker finished. `threads <= 1` is the inline fast path.
    pub fn run(&self, threads: usize, job: &(dyn Fn(usize) + Sync)) {
        let token = lock(&self.run_token);
        self.shared.runs.fetch_add(1, Ordering::Relaxed);
        if threads <= 1 {
            job(0);
            return;
        }
        self.ensure_workers(threads - 1);
        // SAFETY: the `'static` on `Job` is lifetime erasure, not a fact.
        // It is sound because this function does not return (and does not
        // clear the job slot) until `remaining == 0`, i.e. until every
        // enrolled worker has finished calling the job and can no longer
        // hold the reference; non-enrolled workers never dereference a job
        // for an epoch they are not part of.
        let job_static: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job)
        };
        {
            let mut st = lock(&self.shared.state);
            st.epoch += 1;
            st.job = Some(job_static);
            st.participants = threads;
            st.remaining = threads - 1;
            self.shared.work_cv.notify_all();
        }
        // Catch the caller's share too: unwinding past this frame while
        // workers still hold the transmuted job reference would be UB, so
        // the payload is re-raised only after the rendezvous below.
        let caller = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_payload = {
            let mut st = lock(&self.shared.state);
            while st.remaining > 0 {
                st = self.shared.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            st.worker_panic.take()
        };
        drop(token);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_payload {
            resume_unwind(payload);
        }
    }

    /// Snapshot of the run/park/unpark counters and the resident worker
    /// count.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            runs: self.shared.runs.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            unparks: self.shared.unparks.load(Ordering::Relaxed),
            resident_workers: lock(&self.handles).len(),
        }
    }

    /// Spawns resident workers until at least `want` exist.
    fn ensure_workers(&self, want: usize) {
        let mut handles = lock(&self.handles);
        if handles.len() >= want {
            return;
        }
        while handles.len() < want {
            let index = handles.len() + 1;
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("qpp-exec-{index}"))
                .spawn(move || worker_main(&shared, index))
                .expect("spawn resident executor worker");
            handles.push(handle);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        let handles = self.handles.get_mut().unwrap_or_else(|e| e.into_inner());
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A resident worker's main loop: park until a fresh epoch enrolls this
/// index, run the job, check out, repeat.
fn worker_main(shared: &ExecShared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            let mut parked = false;
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen {
                    // A fresh epoch — mark it seen either way so a stale
                    // or non-enrolled epoch is examined only once.
                    seen = st.epoch;
                    if index < st.participants {
                        if let Some(job) = st.job {
                            break job;
                        }
                    }
                }
                if !parked {
                    parked = true;
                    shared.parks.fetch_add(1, Ordering::Relaxed);
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.unparks.fetch_add(1, Ordering::Relaxed);
        // Catch panics so the resident thread survives a poisoned run; the
        // payload is re-raised on the caller (first panicking worker wins).
        let result = catch_unwind(AssertUnwindSafe(|| job(index)));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            st.worker_panic.get_or_insert(payload);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_buffers() {
        let mut pool = BufferPool::new();
        let a = pool.take(4, 8);
        assert_eq!((a.rows(), a.cols()), (4, 8));
        pool.give(a);
        assert_eq!(pool.available(), 1);
        let b = pool.take(2, 3);
        assert_eq!((b.rows(), b.cols()), (2, 3));
        assert_eq!(b.len(), 6, "length must track the requested shape");
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn fresh_buffers_are_zeroed_and_growth_is_zero_filled() {
        let mut pool = BufferPool::new();
        let a = pool.take(2, 2);
        assert!(a.as_slice().iter().all(|&v| v == 0.0), "fresh buffer");
        pool.give(a);
        // Growing past the high-water mark zero-fills the new tail; the
        // reused prefix is unspecified (and must not be read unwritten).
        let b = pool.take(3, 3);
        assert_eq!(b.len(), 9);
        assert!(b.as_slice()[4..].iter().all(|&v| v == 0.0), "grown tail is zeroed");
    }

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn run_visits_every_worker_index_exactly_once() {
        let exec = Executor::new(0);
        for threads in [1usize, 2, 3, 5] {
            let seen = Mutex::new(Vec::new());
            exec.run(threads, &|w| {
                seen.lock().unwrap().push(w);
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..threads).collect::<Vec<_>>(), "threads={threads}");
        }
        // Grown on demand to the high-water mark, never shrunk.
        assert_eq!(exec.stats().resident_workers, 4);
    }

    #[test]
    fn single_thread_fast_path_never_wakes_workers() {
        let exec = Executor::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            exec.run(1, &|w| {
                assert_eq!(w, 0, "fast path runs on the caller only");
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        let stats = exec.stats();
        assert_eq!(stats.runs, 10);
        assert_eq!(stats.unparks, 0, "t1 runs must not unpark resident workers");
    }

    #[test]
    fn worker_panic_is_reraised_on_the_caller_and_pool_survives() {
        let exec = Executor::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run(2, &|w| {
                if w == 1 {
                    panic!("boom on worker {w}");
                }
            });
        }));
        let payload = result.expect_err("worker panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("boom on worker 1"), "got: {msg}");
        // The resident worker survived its panic and still takes jobs.
        let hits = AtomicUsize::new(0);
        exec.run(2, &|_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2, "pool dead after worker panic");
    }

    #[test]
    fn caller_panic_waits_for_workers_then_unwinds() {
        let exec = Executor::new(1);
        let worker_done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run(2, &|w| {
                if w == 0 {
                    panic!("boom on caller");
                }
                worker_done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "caller panic must propagate");
        assert_eq!(worker_done.load(Ordering::Relaxed), 1, "worker share must complete");
        // Executor is still serviceable.
        exec.run(2, &|_w| {});
    }

    #[test]
    fn idle_pool_parks_and_does_not_spin() {
        let exec = Executor::new(2);
        // Both workers park once at startup; give them a moment to get
        // there, then assert the counters stay flat across an idle window.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while exec.stats().parks < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let before = exec.stats();
        assert_eq!(before.parks, 2, "both workers must park when idle");
        std::thread::sleep(std::time::Duration::from_millis(60));
        let after = exec.stats();
        assert_eq!((after.parks, after.unparks), (before.parks, before.unparks),
            "idle pool must not wake or re-park");
    }
}
