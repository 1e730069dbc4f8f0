//! Offline shim for the subset of `rayon` this workspace uses. The
//! workspace builds without network access, so the real crate cannot be
//! fetched. Call sites stay source-compatible
//! (`collection.into_par_iter().filter(..).map(..).collect()`).
//!
//! [`ParIter::map`] fans out over scoped threads (`std::thread::scope`):
//! it spawns `min(workers, n) - 1` helpers, every participant — the
//! caller included — claims item indices from one shared counter, and
//! each result lands in its item's own slot, so output order is input
//! order. The callers are coarse: the Fig. 17 runner's systems × BE
//! co-locations, each a multi-second simulation, so a thread spawn per
//! call costs nothing measurable. Empty and single-item inputs and
//! 1-worker processes run inline without spawning. Nested maps spawn
//! their own helpers. A panic in any participant propagates to the
//! caller once every participant has stopped, as with rayon.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// Environment variable overriding the worker count (like real rayon's
/// `RAYON_NUM_THREADS`): `SGDRC_THREADS=1` forces the sequential
/// fallback, `SGDRC_THREADS=8` fans out over 8 workers regardless of
/// the detected CPU count. Unset/invalid/zero falls back to
/// `std::thread::available_parallelism`. Maps read it once, through
/// [`current_pool_workers`].
pub const THREADS_ENV: &str = "SGDRC_THREADS";

/// The worker count the [`THREADS_ENV`] override or the detected CPU
/// count asks for right now (mirrors `rayon::current_num_threads`). The
/// env var is re-read on every call; use [`current_pool_workers`] for
/// the count maps actually fan out over.
pub fn current_num_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => detected_parallelism(),
        },
        Err(_) => detected_parallelism(),
    }
}

/// The number of participants parallel maps use: [`current_num_threads`]
/// as of the first call, fixed for the process lifetime — later
/// `SGDRC_THREADS` changes do not move it.
pub fn current_pool_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(current_num_threads)
}

fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
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

impl<T: Send> ParIter<T> {
    /// Sequential filter — predicates in this workspace are trivial
    /// (capability checks); the expensive stage is `map`.
    pub fn filter<F: Fn(&T) -> bool>(self, f: F) -> Self {
        ParIter {
            items: self.items.into_iter().filter(|t| f(t)).collect(),
        }
    }

    /// Applies `f` to every item across scoped worker threads,
    /// preserving input order in the output.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_map_vec(self.items, &f),
        }
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Order-preserving parallel map: the caller plus `min(workers, n) - 1`
/// scoped helpers claim indices from one counter; item `i` is taken from
/// input slot `i` and its result stored in output slot `i`.
fn par_map_vec<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    let n = items.len();
    let workers = current_pool_workers().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Relaxed suffices: the counter only hands out indices; the slot
    // mutexes and the scope's join publish the items and results.
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = inputs[i]
            .lock()
            .expect("no lock holder panics")
            .take()
            .expect("index claimed once");
        let out = f(item);
        *outputs[i].lock().expect("no lock holder panics") = Some(out);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no lock holder panics")
                .expect("every index was mapped")
        })
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
    fn empty_input_returns_empty() {
        let out: Vec<i32> = Vec::<i32>::new().into_par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
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
        // A panicked map leaves nothing behind: later calls still work.
        let out: Vec<i32> = (0..16)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|x| x + 1)
            .collect();
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    /// Serializes the tests that touch or read `SGDRC_THREADS`: env
    /// mutation is process-global, and cargo runs tests on parallel
    /// threads in one process.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn threads_env_overrides_worker_count() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Fix the worker count BEFORE mutating the env: another test's
        // first parallel call (they don't take ENV_LOCK) must never race
        // this test's temporary values into it — the process's count
        // has to reflect the env it started with.
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
        // The fan-out stays order-preserving whatever the count was fixed
        // at (maps honor the env at the first call, not per call).
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
        // Hold the env lock so the override test cannot race the first
        // read of the worker count below (it is read exactly once).
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
        // Guard on the *actual* participant count: with 1 worker the
        // fan-out legitimately stays inline.
        if crate::current_pool_workers() > 1 {
            assert!(seen.lock().unwrap().len() > 1, "expected >1 worker thread");
        }
    }
}
