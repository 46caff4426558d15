//! The global thread pool and the ordered parallel executor.
//!
//! Design (DESIGN.md §9):
//!
//! * **Lazy global pool.** Worker threads are spawned on first parallel
//!   use, never torn down, and grown on demand up to the effective
//!   thread count. Sizing comes from `RAYON_NUM_THREADS`, falling back
//!   to [`std::thread::available_parallelism`]; tests and benches can
//!   override it per scope with [`with_num_threads`].
//! * **Chunked claiming, ordered writing.** Input items live in indexed
//!   slots. Workers claim contiguous chunks from an atomic cursor and
//!   write each result into the slot of its *input* index, so the
//!   collected output is in input order regardless of which thread
//!   finished when. The caller then reduces that ordered buffer
//!   sequentially — which is what makes floating-point results
//!   bit-identical to a serial run.
//! * **Caller participation.** The submitting thread works through the
//!   same chunk cursor as the pool workers. Nested `par_iter` calls can
//!   therefore never deadlock: every level makes progress on its own
//!   thread even if all pool workers are busy elsewhere.
//! * **Panic capture.** A panicking closure aborts further chunk claims,
//!   is captured by the executing worker, and is re-thrown on the
//!   calling thread once every outstanding job has drained — the pool
//!   itself survives.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Hard ceiling on pool size; oversubscription beyond this is never useful
/// for the Monte-Carlo workloads this crate drives.
const MAX_THREADS: usize = 64;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

fn shared() -> &'static PoolShared {
    static SHARED: OnceLock<PoolShared> = OnceLock::new();
    SHARED.get_or_init(|| PoolShared {
        queue: Mutex::new(VecDeque::new()),
        job_ready: Condvar::new(),
    })
}

fn lock_queue() -> std::sync::MutexGuard<'static, VecDeque<Job>> {
    shared()
        .queue
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop() {
    loop {
        let job = {
            let mut queue = lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared()
                    .job_ready
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        // Jobs are already panic-guarded at the submission site; the extra
        // guard keeps a worker alive even if that invariant is broken.
        let _ = panic::catch_unwind(AssertUnwindSafe(job));
    }
}

/// Grow the pool so at least `n` background workers exist.
fn ensure_workers(n: usize) {
    static SPAWNED: Mutex<usize> = Mutex::new(0);
    let n = n.min(MAX_THREADS);
    let mut spawned = SPAWNED.lock().unwrap_or_else(|p| p.into_inner());
    while *spawned < n {
        std::thread::Builder::new()
            .name(format!("rayon-shim-{spawned}"))
            .spawn(worker_loop)
            .expect("spawn pool worker");
        *spawned += 1;
    }
}

fn submit(job: Job) {
    lock_queue().push_back(job);
    shared().job_ready.notify_one();
}

fn try_pop_job() -> Option<Job> {
    lock_queue().pop_front()
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

/// The number of threads parallel iterators will use right now:
/// the [`with_num_threads`]/[`set_num_threads`] override if one is
/// active, else `RAYON_NUM_THREADS`, else the hardware parallelism.
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
    let _scope = SCOPE.lock().unwrap_or_else(|p| p.into_inner());
    let previous = OVERRIDE.swap(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    OVERRIDE.store(previous, Ordering::Relaxed);
    match outcome {
        Ok(value) => value,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Raw pointer into a slot vector, shareable across worker threads.
/// Soundness: the chunk cursor hands every index to exactly one worker,
/// so all accesses through the pointer are to disjoint elements.
struct SlotPtr<T>(*mut T);
unsafe impl<T: Send> Send for SlotPtr<T> {}
unsafe impl<T: Send> Sync for SlotPtr<T> {}

impl<T> SlotPtr<T> {
    /// Pointer to slot `i`. A method (not field access) so closures
    /// capture the `Sync` wrapper, not the bare raw pointer.
    fn slot(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

/// Countdown latch: the caller blocks until every submitted job has run.
struct Latch {
    remaining: Mutex<usize>,
    drained: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            drained: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().unwrap_or_else(|p| p.into_inner());
        *remaining -= 1;
        if *remaining == 0 {
            self.drained.notify_all();
        }
    }

    /// Block until the count reaches zero — but *help* while blocked:
    /// drain and execute queued jobs instead of sleeping. Without this,
    /// nested parallelism deadlocks: every thread of an outer level can
    /// end up waiting on an inner latch whose jobs sit in the queue with
    /// nobody left to pop them. Helping guarantees global progress — a
    /// waiting thread either runs a job or (briefly) parks, and the
    /// deepest nesting level's jobs never block, so latches drain from
    /// the inside out.
    fn wait_while_helping(&self) {
        loop {
            while let Some(job) = try_pop_job() {
                // Jobs are panic-guarded at the submission site.
                let _ = panic::catch_unwind(AssertUnwindSafe(job));
            }
            let remaining = self.remaining.lock().unwrap_or_else(|p| p.into_inner());
            if *remaining == 0 {
                return;
            }
            // Short timed park: our remaining jobs are running on other
            // threads (possibly themselves helping), so re-check soon.
            let _ = self
                .drained
                .wait_timeout(remaining, std::time::Duration::from_micros(500))
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

fn record_panic(
    panic_slot: &Mutex<Option<Box<dyn Any + Send>>>,
    abort: &AtomicBool,
    payload: Box<dyn Any + Send>,
) {
    abort.store(true, Ordering::Relaxed);
    panic_slot
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get_or_insert(payload);
}

/// Apply `op` to every item, in parallel, returning the per-item results
/// **in input order**. Panics from `op` are re-thrown here after all
/// workers drain.
pub(crate) fn run_ordered<T, R, F>(items: Vec<T>, op: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    let threads = current_num_threads();
    if threads <= 1 || len <= 1 {
        return items.into_iter().map(op).collect();
    }

    // Chunks of ~1/4 of a fair share balance stragglers without
    // oversplitting. The chunk geometry affects only scheduling, never
    // results.
    let chunk = len.div_ceil(threads * 4);
    let n_chunks = len.div_ceil(chunk);
    let helpers = threads.min(n_chunks) - 1;

    let mut input: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut output: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    let input_ptr = SlotPtr(input.as_mut_ptr());
    let output_ptr = SlotPtr(output.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let latch = Latch::new(helpers);

    let work = &|| {
        while !abort.load(Ordering::Relaxed) {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            for i in start..(start + chunk).min(len) {
                let item = unsafe { (*input_ptr.slot(i)).take().expect("index claimed twice") };
                let result = op(item);
                // SAFETY: the cursor hands index `i` to this worker alone,
                // and `output` outlives every job (the latch below).
                unsafe { *output_ptr.slot(i) = Some(result) };
            }
        }
    };

    {
        let (latch, abort, panic_slot) = (&latch, &abort, &panic_slot);
        ensure_workers(threads - 1);
        for _ in 0..helpers {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(work)) {
                    record_panic(panic_slot, abort, payload);
                }
                latch.count_down();
            });
            // Lifetime erasure: the latch below blocks until every job has
            // finished, so no job can outlive the borrowed stack state.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
            };
            submit(job);
        }
        // The caller is worker #0 — guarantees progress even when every
        // pool thread is busy (e.g. nested parallelism).
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(work)) {
            record_panic(panic_slot, abort, payload);
        }
    }
    latch.wait_while_helping();

    if let Some(payload) = panic_slot.lock().unwrap_or_else(|p| p.into_inner()).take() {
        panic::resume_unwind(payload);
    }
    output
        .into_iter()
        .map(|slot| slot.expect("every index is claimed once"))
        .collect()
}
