//! Vendored stand-in for the one piece of `rayon` the workspace uses:
//! [`map`], which applies an operation to every item of a vector on a
//! global pool of `std::thread` workers and returns the results in input
//! order (DESIGN.md §9). The workspace builds offline, so the crate
//! stands in under rayon's name and keeps its thread-count knobs.
//!
//! * **Ordered.** Each participant claims one item at a time with its
//!   input index, and the results are put back in index order, so the
//!   caller gets exactly what `items.into_iter().map(op).collect()`
//!   would give, whichever thread ran which item. A reduction over them
//!   runs serially, so float sums are bit-identical at any thread count.
//! * **Inline nesting.** A `map` called while the thread is running a
//!   `map`'s items (always, on a pool worker) runs serially on that
//!   thread. No job ever waits for another, so the pool cannot deadlock.
//! * **Persistent workers.** Workers start on first use, are added when
//!   a larger thread count is asked for, and live as long as the process.
//!   A process's CPU time read from its live threads' `schedstat` (as
//!   the repository benchmark reads it) would miss threads that exited.
//! * **Panics.** A panic in the operation stops further claims and is
//!   re-thrown on the caller once every participant has stopped; the
//!   pool survives it.
//!
//! Thread count: [`with_num_threads`] or [`set_num_threads`], else
//! `RAYON_NUM_THREADS`, else the hardware parallelism, capped at 64.

#![deny(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard ceiling on pool size; oversubscription beyond this is never useful
/// for the Monte-Carlo workloads this crate drives.
const MAX_THREADS: usize = 64;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Lock `mutex`, taking a poisoned lock as is: no lock here guards data
/// that a panic could leave half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Whether this thread is running a `map`'s items; a nested `map`
    /// then runs inline.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// The global pool: a job queue and the workers that drain it.
struct Pool {
    jobs: Sender<Job>,
    queue: Mutex<Receiver<Job>>,
    workers: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (jobs, queue) = mpsc::channel();
        Pool {
            jobs,
            queue: Mutex::new(queue),
            workers: Mutex::new(0),
        }
    })
}

impl Pool {
    /// Start workers until at least `n` exist. They are never joined:
    /// each runs jobs until the process exits.
    fn grow(&'static self, n: usize) {
        let mut workers = lock(&self.workers);
        while *workers < n {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{workers}"))
                .spawn(move || {
                    IN_MAP.set(true);
                    loop {
                        // The sender lives in a static, so `recv` cannot
                        // fail, and jobs catch their own panics.
                        let job = lock(&self.queue).recv();
                        job.expect("the pool's sender is never dropped")();
                    }
                })
                .expect("spawn pool worker");
            *workers += 1;
        }
    }
}

/// Per-scope thread-count override; 0 means "use the process default".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(MAX_THREADS)
    })
}

/// The number of threads [`map`] will use right now: the
/// [`with_num_threads`]/[`set_num_threads`] override if one is active,
/// else `RAYON_NUM_THREADS`, else the hardware parallelism.
pub fn current_num_threads() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Set (or with `0` clear) the process-wide thread-count override.
/// Prefer [`with_num_threads`], which scopes and restores it.
pub fn set_num_threads(n: usize) {
    OVERRIDE.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// Run `f` with the pool pinned to exactly `n` threads, restoring the
/// previous setting afterwards (panic-safe). Concurrent callers are
/// serialized by a global lock so two scopes can never interleave their
/// overrides; do not nest calls on one thread.
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static SCOPE: Mutex<()> = Mutex::new(());
    let _scope = lock(&SCOPE);
    let previous = OVERRIDE.swap(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    OVERRIDE.store(previous, Ordering::Relaxed);
    match outcome {
        Ok(value) => value,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Apply `op` to every item and return the results in input order.
/// The caller and up to `current_num_threads() - 1` pool workers claim
/// items one at a time. Runs inline with one thread, at most one item,
/// or inside another `map`. A panic in `op` is re-thrown here after
/// every participant has stopped.
pub fn map<T: Send, R: Send>(items: Vec<T>, op: impl Fn(T) -> R + Sync) -> Vec<R> {
    let len = items.len();
    let threads = current_num_threads().min(len);
    if threads <= 1 || IN_MAP.get() {
        return items.into_iter().map(op).collect();
    }
    let claims = Mutex::new(items.into_iter().enumerate());
    let stop = AtomicBool::new(false);
    let claim = || {
        if stop.load(Ordering::Relaxed) {
            None
        } else {
            lock(&claims).next()
        }
    };
    let results = Mutex::new(Vec::with_capacity(len));
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // One participant: run claimed items until none is left, then hand
    // in the results; a panic stops every participant at its next claim.
    let run = || {
        let mut done = Vec::new();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            while let Some((i, item)) = claim() {
                done.push((i, op(item)));
            }
        }));
        match outcome {
            Ok(()) => lock(&results).append(&mut done),
            Err(payload) => {
                stop.store(true, Ordering::Relaxed);
                lock(&panicked).get_or_insert(payload);
            }
        }
    };

    let pool = pool();
    pool.grow(threads - 1);
    let (sender, finished) = mpsc::channel::<()>();
    for _ in 1..threads {
        let (sender, run) = (sender.clone(), &run);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            run();
            drop(sender);
        });
        // SAFETY: the job borrows `run`, and through it this frame's
        // `claims`, `stop`, `results`, `panicked` and `op`. The frame
        // neither returns nor unwinds before `finished` reports every
        // sender dropped, that is, before every job has run or been
        // dropped unrun: `run` catches `op`'s panics, and nothing else
        // up to that wait can panic.
        #[allow(unsafe_code)]
        let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        // The queue's receiver lives in a static, so the send cannot
        // fail; if it did, the job would drop unrun and the caller
        // would run its share.
        let _ = pool.jobs.send(job);
    }
    drop(sender);
    IN_MAP.set(true);
    run();
    IN_MAP.set(false);
    // Nothing is ever sent: `recv` returns once every sender is dropped.
    let _ = finished.recv();

    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    for (i, r) in results.into_inner().unwrap_or_else(PoisonError::into_inner) {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item is claimed once"))
        .collect()
}
