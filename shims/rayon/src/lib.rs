//! Offline shim for the subset of `rayon` this workspace uses — plus
//! `join`/`par_iter_mut`, rounding out the standard structured-parallel
//! surface. The workspace builds without network access, so the real
//! crate cannot be fetched. Call sites stay source-compatible
//! (`collection.into_par_iter().filter(..).map(..).collect()`,
//! `slice.par_iter().map(..).collect()`, `rayon::join(a, b)`,
//! `slice.par_chunks(n)`).
//!
//! Parallel operations execute on a lazily-built **persistent
//! work-stealing pool** ([`pool`]): per-worker deques with
//! steal-on-empty, built once per process with the worker count
//! [`current_num_threads`] reports at that moment (`SGDRC_THREADS`
//! honored at pool build), workers parked between calls, so a batch
//! costs no thread spawn. Its callers are coarse-grained: the sweep
//! engine's cell chunks and the Fig. 17 runner's cells. Tiny batches
//! (`len() <= 1`), empty inputs and 1-worker pools run sequentially
//! inline without touching the pool machinery at all. Worker panics
//! propagate to the caller, as with rayon.

mod pool;

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIterator, ParallelSlice,
    };
}

/// Environment variable overriding the worker count (like real rayon's
/// `RAYON_NUM_THREADS`): `SGDRC_THREADS=1` forces the sequential
/// fallback, `SGDRC_THREADS=8` fans out over 8 workers regardless of
/// the detected CPU count. Unset/invalid/zero falls back to
/// `std::thread::available_parallelism`. The persistent pool reads this
/// once, when the first parallel call builds it.
pub const THREADS_ENV: &str = "SGDRC_THREADS";

/// The worker count parallel maps fan out over: the [`THREADS_ENV`]
/// override when set, otherwise the detected CPU count (mirrors
/// `rayon::current_num_threads`). Benchmarks record this so a reported
/// parallel speedup is attributable to an actual worker count. Note the
/// env var is re-read on every call — chunk-sizing heuristics see env
/// changes live — while the pool itself is sized once at build; use
/// [`current_pool_workers`] for the count that actually executes.
pub fn current_num_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => detected_parallelism(),
        },
        Err(_) => detected_parallelism(),
    }
}

/// The number of participants the persistent pool executes parallel
/// calls with (builds the pool on first use). Fixed for the process
/// lifetime — unlike [`current_num_threads`], later `SGDRC_THREADS`
/// changes do not move it.
pub fn current_pool_workers() -> usize {
    pool::global().workers
}

fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Runs both closures, potentially in parallel, and returns both
/// results — rayon's structured-parallelism primitive. Either closure
/// may execute on any participant (the calling thread claims whatever
/// a pool worker has not already stolen — do not rely on thread
/// affinity). A panic in either closure propagates once both have
/// stopped running.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_pool_workers() == 1 {
        return (oper_a(), oper_b());
    }
    use std::sync::Mutex;
    let opers = (Mutex::new(Some(oper_a)), Mutex::new(Some(oper_b)));
    let out: (Mutex<Option<RA>>, Mutex<Option<RB>>) = (Mutex::new(None), Mutex::new(None));
    pool::run_batch(2, &|i| {
        if i == 0 {
            let f = opers.0.lock().unwrap().take().expect("claimed once");
            *out.0.lock().unwrap() = Some(f());
        } else {
            let f = opers.1.lock().unwrap().take().expect("claimed once");
            *out.1.lock().unwrap() = Some(f());
        }
    });
    (
        out.0.into_inner().unwrap().expect("oper_a ran"),
        out.1.into_inner().unwrap().expect("oper_b ran"),
    )
}

/// An eagerly materialized "parallel" iterator over owned items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Conversion into [`ParIter`] — covers `Vec<T>`, arrays and anything else
/// `IntoIterator`, mirroring `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<C> IntoParallelIterator for C
where
    C: IntoIterator,
    C::Item: Send,
{
    type Item = C::Item;
    fn into_par_iter(self) -> ParIter<C::Item> {
        ParIter {
            items: self.into_iter().collect(),
        }
    }
}

/// `par_iter()` on borrowed collections (`&Vec<T>`, `&[T]`).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_iter_mut()` on borrowed collections — parallel mutation of
/// disjoint elements (`&mut [T]`, `&mut Vec<T>`), mirroring
/// `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: Send + 'a;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// `par_chunks()` on slices, mirroring `rayon::slice::ParallelSlice`:
/// contiguous chunks become the parallel items.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(chunk_size.max(1)).collect(),
        }
    }
}

/// The combinator subset used by the workspace. Named like rayon's trait
/// but implemented inherently on [`ParIter`]; re-exported through
/// [`prelude`] so `use rayon::prelude::*` keeps compiling.
pub trait ParallelIterator {}

impl<T: Send> ParIter<T> {
    /// Sequential filter — predicates in this workspace are trivial
    /// (capability checks); the expensive stage is `map`.
    pub fn filter<F: Fn(&T) -> bool>(self, f: F) -> Self {
        ParIter {
            items: self.items.into_iter().filter(|t| f(t)).collect(),
        }
    }

    /// Pairs every item with its position, like rayon's
    /// `IndexedParallelIterator::enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Applies `f` to every item across the persistent pool, preserving
    /// input order in the output.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_map_vec(self.items, &f),
        }
    }

    /// Runs `f` on every item across the persistent pool, discarding
    /// results (rayon's `for_each`) — no result slots allocated, unlike
    /// [`map`](Self::map).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let n = self.items.len();
        if n == 0 {
            return;
        }
        if n == 1 || current_pool_workers() == 1 {
            self.items.into_iter().for_each(f);
            return;
        }
        run_batch_owned(self.items, &|_, t| f(t));
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Hands a `Vec`'s items to the pool through per-slot takeable cells so
/// workers can claim them by index without cloning — the one place the
/// claim protocol (lock, take, exactly-once) lives; [`ParIter::map`]
/// and [`ParIter::for_each`] both dispatch through it.
fn run_batch_owned<T: Send>(items: Vec<T>, f: &(dyn Fn(usize, T) + Sync)) {
    use std::sync::Mutex;
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    pool::run_batch(n, &|i| {
        let item = slots[i].lock().unwrap().take().expect("slot claimed once");
        f(i, item);
    });
}

/// Order-preserving parallel map over a `Vec`, dispatched through the
/// persistent pool. Empty inputs return before the pool is even built;
/// single-item inputs and 1-worker pools run sequentially inline.
fn par_map_vec<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    use std::sync::Mutex;
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 || current_pool_workers() == 1 {
        // Sequential fallback (the default on 1-CPU boxes, or forced via
        // SGDRC_THREADS=1 at pool build): no dispatch, no per-item
        // mutexes.
        return items.into_iter().map(f).collect();
    }
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_batch_owned(items, &|i, t| {
        *results[i].lock().unwrap() = Some(f(t));
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<i64> = (0..100)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x * 2)
            .collect();
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_then_map() {
        let out: Vec<i32> = vec![1, 2, 3, 4, 5, 6]
            .into_par_iter()
            .filter(|x| x % 2 == 0)
            .map(|x| x + 10)
            .collect();
        assert_eq!(out, vec![12, 14, 16]);
    }

    #[test]
    fn par_iter_borrows() {
        let v = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        let out: Vec<usize> = v.par_iter().map(|s| s.len()).collect();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<i32> = Vec::<i32>::new().into_par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut v: Vec<u64> = (0..50).collect();
        v.par_iter_mut().for_each(|x| *x *= 3);
        assert_eq!(v, (0..50).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_covers_the_slice_in_order() {
        let v: Vec<u32> = (0..103).collect();
        let sums: Vec<(usize, u32)> = v
            .par_chunks(10)
            .enumerate()
            .map(|(i, c)| (i, c.iter().sum()))
            .collect();
        assert_eq!(sums.len(), 11);
        let expected: Vec<(usize, u32)> = v
            .chunks(10)
            .enumerate()
            .map(|(i, c)| (i, c.iter().sum()))
            .collect();
        assert_eq!(sums, expected);
        assert_eq!(sums.iter().map(|&(_, s)| s).sum::<u32>(), (0..103).sum());
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = crate::join(|| 6 * 7, || "ok".to_string());
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_nests_without_deadlock() {
        // Recursive joins submitted from inside pool tasks must complete
        // (the submitter always participates in its own batch).
        fn sum(range: std::ops::Range<u64>) -> u64 {
            let len = range.end - range.start;
            if len <= 8 {
                return range.sum();
            }
            let mid = range.start + len / 2;
            let (a, b) = crate::join(|| sum(range.start..mid), || sum(mid..range.end));
            a + b
        }
        assert_eq!(sum(0..1000), 499_500);
    }

    #[test]
    fn nested_parallel_maps_complete() {
        let out: Vec<u64> = (0..8u64)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| {
                (0..x + 1)
                    .collect::<Vec<u64>>()
                    .into_par_iter()
                    .map(|y| y + 1)
                    .collect::<Vec<u64>>()
                    .into_iter()
                    .sum()
            })
            .collect();
        let expected: Vec<u64> = (0..8u64).map(|x| (1..=x + 1).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn map_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            let _: Vec<i32> = (0..64)
                .collect::<Vec<i32>>()
                .into_par_iter()
                .map(|x| {
                    if x == 33 {
                        panic!("boom at {x}");
                    }
                    x
                })
                .collect();
        });
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool survives a panicked batch: later calls still work.
        let out: Vec<i32> = (0..16)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x + 1)
            .collect();
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn join_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            crate::join(|| 1, || -> i32 { panic!("right side") });
        });
        assert!(result.is_err());
    }

    /// Serializes the tests that touch or read `SGDRC_THREADS`: env
    /// mutation is process-global, and cargo runs tests on parallel
    /// threads in one process.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn threads_env_overrides_worker_count() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Force the lazy pool build BEFORE mutating the env: another
        // test's first parallel call (they don't take ENV_LOCK) must
        // never race this test's temporary values into the pool size —
        // the process's pool has to reflect the env it started with.
        let _ = crate::current_pool_workers();
        let prior = std::env::var(crate::THREADS_ENV).ok();
        std::env::set_var(crate::THREADS_ENV, "3");
        assert_eq!(crate::current_num_threads(), 3);
        std::env::set_var(crate::THREADS_ENV, "not-a-number");
        let detected = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        assert_eq!(crate::current_num_threads(), detected);
        std::env::set_var(crate::THREADS_ENV, "3");
        // The fan-out stays order-preserving whatever the pool was built
        // with (the pool honors the env at build time, not per call).
        let out: Vec<i32> = (0..32)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x + 1)
            .collect();
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
        // Restore whatever the environment had before the test.
        match prior {
            Some(v) => std::env::set_var(crate::THREADS_ENV, v),
            None => std::env::remove_var(crate::THREADS_ENV),
        }
    }

    #[test]
    fn map_actually_runs_on_the_pool_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // Hold the env lock so the override test cannot race the pool
        // build below (the pool reads the env exactly once).
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let seen = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..64)
            .collect::<Vec<i32>>()
            .into_par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(2));
            })
            .collect();
        // Guard on the pool's *actual* participant count: with a
        // 1-worker pool the fan-out legitimately stays sequential.
        if crate::current_pool_workers() > 1 {
            assert!(seen.lock().unwrap().len() > 1, "expected >1 worker thread");
        }
    }

    #[test]
    fn pool_workers_persist_across_calls() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if crate::current_pool_workers() == 1 {
            return; // nothing to observe on a 1-worker pool
        }
        let ids = |_: ()| -> HashSet<std::thread::ThreadId> {
            let seen = Mutex::new(HashSet::new());
            let _: Vec<()> = (0..64)
                .collect::<Vec<i32>>()
                .into_par_iter()
                .map(|_| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_millis(1));
                })
                .collect();
            seen.into_inner().unwrap()
        };
        let first = ids(());
        let second = ids(());
        // The same persistent workers serve both calls — at minimum the
        // submitting thread repeats, and with >1 participants the worker
        // sets overlap rather than being freshly spawned strangers.
        assert!(
            !first.is_disjoint(&second),
            "persistent pool must reuse worker threads across calls"
        );
    }
}
