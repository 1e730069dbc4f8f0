//! The persistent work-stealing pool behind every parallel operation in
//! this shim.
//!
//! The first parallel call builds one process-global pool sized by
//! [`crate::current_num_threads`] (so `SGDRC_THREADS` is honored **at
//! pool build**) and keeps its workers parked on a condvar between
//! calls. A parallel operation then costs one batch submission — no
//! thread spawn.
//!
//! Scheduling is work-stealing over per-worker deques: a batch of `n`
//! indexed tasks is block-partitioned across `min(workers, n)` deques;
//! each participant pops from the front of its own deque and, when that
//! runs dry, steals from the **back** of the others — contiguous blocks
//! stay with their worker while imbalance drains across the pool. The
//! submitting thread participates (deque 0 is its home), so a batch can
//! never deadlock waiting for busy workers, and nested submissions from
//! inside a pool task are safe for the same reason.
//!
//! Worker panics are caught per task, cancel the batch's unclaimed work,
//! and re-raise on the submitting thread once in-flight tasks finish —
//! the same contract as real rayon (one payload propagates; concurrent
//! panics in the same batch are swallowed after the first).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One batch of `n` indexed tasks. The erased task pointer targets a
/// closure on the submitting thread's stack; [`run_batch`] does not
/// return until `remaining` hits zero — i.e. until no worker can ever
/// dereference it again — which is what makes the erasure sound.
struct Batch {
    task: *const (dyn Fn(usize) + Sync),
    /// Per-participant index deques (block-partitioned at submit).
    queues: Box<[Mutex<VecDeque<usize>>]>,
    /// Indices not yet fully executed (claimed-and-running count too).
    remaining: AtomicUsize,
    /// First panic payload observed in this batch.
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
    panicked: AtomicBool,
    /// Completion latch for the submitter.
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `task` is only dereferenced between a successful `claim` and
// the matching `remaining` decrement, and `run_batch` keeps the pointee
// alive until `remaining == 0`. Everything else in the struct is
// already thread-safe.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims one index for participant `w`: own deque front first, then
    /// steal from the back of the others.
    fn claim(&self, w: usize) -> Option<usize> {
        let q = self.queues.len();
        if let Some(i) = self.queues[w % q].lock().unwrap().pop_front() {
            return Some(i);
        }
        for off in 1..q {
            if let Some(i) = self.queues[(w + off) % q].lock().unwrap().pop_back() {
                return Some(i);
            }
        }
        None
    }

    /// Any queued (unclaimed) work left?
    fn has_queued(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().unwrap().is_empty())
    }

    /// Runs one claimed index; on panic, records the payload and cancels
    /// every unclaimed index so the batch drains promptly.
    fn execute(&self, i: usize) {
        // SAFETY: see the `Send`/`Sync` impl note — the pointee outlives
        // every claimed index.
        let task = unsafe { &*self.task };
        let mut finished = 1usize;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                *self.panic.lock().unwrap() = Some(payload);
            }
            for q in self.queues.iter() {
                let mut q = q.lock().unwrap();
                finished += q.len();
                q.clear();
            }
        }
        if self.remaining.fetch_sub(finished, Ordering::AcqRel) == finished {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }
}

/// State shared between the pool's worker threads and submitters.
struct Shared {
    /// Batches that may still have claimable work; pushed on submit,
    /// retired by the submitter when its batch completes.
    active: Mutex<Vec<Arc<Batch>>>,
    /// Signalled on every submission.
    cv: Condvar,
}

/// The process-global pool: `workers` total participants — `workers - 1`
/// parked background threads plus whichever thread submits a batch.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    pub(crate) workers: usize,
}

/// The background worker loop: sleep until a batch with queued work
/// exists, drain what can be claimed/stolen, repeat.
fn worker_loop(shared: Arc<Shared>, w: usize) {
    loop {
        let batch = {
            let mut active = shared.active.lock().unwrap();
            loop {
                if let Some(b) = active.iter().find(|b| b.has_queued()) {
                    break Arc::clone(b);
                }
                active = shared.cv.wait(active).unwrap();
            }
        };
        while let Some(i) = batch.claim(w) {
            batch.execute(i);
        }
    }
}

/// The lazily-built global pool. `SGDRC_THREADS` (via
/// [`crate::current_num_threads`]) is read once, here; later env changes
/// affect chunk-sizing heuristics but not the pool's worker count.
pub(crate) fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = crate::current_num_threads().max(1);
        let shared = Arc::new(Shared {
            active: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        });
        for w in 1..workers {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("sgdrc-pool-{w}"))
                .spawn(move || worker_loop(s, w))
                .expect("spawn pool worker");
        }
        Pool { shared, workers }
    })
}

/// Runs `task(i)` for every `i in 0..n` across the pool and returns when
/// all have finished. Sequential inline when the batch is trivially
/// small or the pool has a single participant — a parallel call on a
/// 1-CPU box costs no synchronization at all.
pub(crate) fn run_batch(n: usize, task: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    let pool = global();
    if n == 1 || pool.workers == 1 {
        for i in 0..n {
            task(i);
        }
        return;
    }
    // Erase the closure's lifetime; `Batch` documents why this is sound.
    let task: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
    let parts = pool.workers.min(n);
    let queues: Box<[Mutex<VecDeque<usize>>]> =
        (0..parts).map(|_| Mutex::new(VecDeque::new())).collect();
    // Block-partition: participant p starts with the contiguous range
    // it would own under a static split; stealing only redistributes
    // the imbalance.
    for i in 0..n {
        queues[i * parts / n].lock().unwrap().push_back(i);
    }
    let batch = Arc::new(Batch {
        task,
        queues,
        remaining: AtomicUsize::new(n),
        panic: Mutex::new(None),
        panicked: AtomicBool::new(false),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });
    {
        let mut active = pool.shared.active.lock().unwrap();
        active.push(Arc::clone(&batch));
        pool.shared.cv.notify_all();
    }
    // The submitter participates as deque-0's home worker …
    while let Some(i) = batch.claim(0) {
        batch.execute(i);
    }
    // … then waits out whatever other workers still have in flight.
    {
        let mut done = batch.done.lock().unwrap();
        while !*done {
            done = batch.done_cv.wait(done).unwrap();
        }
    }
    {
        let mut active = pool.shared.active.lock().unwrap();
        if let Some(pos) = active.iter().position(|b| Arc::ptr_eq(b, &batch)) {
            active.remove(pos);
        }
    }
    if batch.panicked.load(Ordering::Acquire) {
        let payload = batch
            .panic
            .lock()
            .unwrap()
            .take()
            .expect("panicked batch stores its payload");
        resume_unwind(payload);
    }
}
