//! Parallel replication of simulation runs.
//!
//! The paper runs each §V-D setting ten times and reports mean/min/max.
//! Replications are embarrassingly parallel — each one owns its RNG — so
//! they fan out across a scoped thread pool and stream results back over a
//! channel.

use crossbeam::channel;
use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

thread_local! {
    /// Set while this thread is a [`replicate_seeds`] worker. The engine's
    /// class-aggregated path, the only one that threads, consults it to
    /// resolve its thread count to 1: replication-level parallelism
    /// already owns every core, and nesting a scoped pool per replication
    /// would only add spawn churn. Purely a scheduling guard —
    /// [`crate::config::RngLayout::ClassAggregated`] outcomes are
    /// thread-count invariant, so the clamp cannot change any result.
    static IN_REPLICATION_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a thread currently executing replications for
/// [`replicate_seeds`] (the engine's nested-parallelism guard).
pub(crate) fn in_replication_worker() -> bool {
    IN_REPLICATION_WORKER.with(Cell::get)
}

/// Runs `f(i)` for every `i in 0..count`, in parallel across up to
/// `available_parallelism` threads, returning results in ascending index
/// order — the deterministic fan-out driver behind `replicate_seeds` and
/// the experiment sweep grids.
///
/// `f` must be deterministic in its index for results to be reproducible
/// (every simulator entry point in this workspace is). Workers raise the
/// replication-worker flag, so nested engine parallelism collapses to one
/// thread instead of oversubscribing the machine.
///
/// # Panics
/// If `f` panics for some index, the panic is re-raised on the calling
/// thread with its original payload (not the generic "a scoped thread
/// panicked" the scope would otherwise surface). When several indices
/// panic, the lowest one wins — the same panic a sequential run would hit
/// first, so parallelism does not change which error is reported.
pub fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(count.max(1));
    if threads <= 1 || count <= 1 {
        return (0..count).map(&f).collect();
    }

    type Payload = Box<dyn Any + Send + 'static>;
    let (tx, rx) = channel::unbounded::<(usize, Result<T, Payload>)>();
    thread::scope(|scope| {
        for worker in 0..threads {
            let tx = tx.clone();
            let f = &f;
            scope.spawn(move || {
                IN_REPLICATION_WORKER.with(|flag| flag.set(true));
                // Static stride partitioning: grid-point costs are
                // near-uniform, so striding balances without a work queue.
                for idx in (worker..count).step_by(threads) {
                    let result = catch_unwind(AssertUnwindSafe(|| f(idx)));
                    let failed = result.is_err();
                    tx.send((idx, result)).expect("collector outlives workers");
                    if failed {
                        break; // this worker's remaining indices are moot
                    }
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let mut first_panic: Option<(usize, Payload)> = None;
        for (idx, value) in rx {
            match value {
                Ok(value) => slots[idx] = Some(value),
                Err(payload) => {
                    if first_panic.as_ref().is_none_or(|(i, _)| idx < *i) {
                        first_panic = Some((idx, payload));
                    }
                }
            }
        }
        if let Some((_, payload)) = first_panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index produced"))
            .collect()
    })
}

/// Runs `f(seed)` for each seed in `seeds`, in parallel across up to
/// `available_parallelism` threads, returning outcomes in seed order.
/// A thin wrapper over [`run_indexed`].
///
/// # Panics
/// Propagates worker panics exactly as [`run_indexed`] does.
pub(crate) fn replicate_seeds<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    run_indexed(seeds.len(), |i| f(seeds[i]))
}

/// Convenience wrapper: seeds `base_seed..base_seed + runs`.
pub fn replicate<T, F>(runs: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let seeds: Vec<u64> = (0..runs as u64).map(|i| base_seed + i).collect();
    replicate_seeds(&seeds, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn workers_are_flagged_for_the_nesting_guard() {
        // The calling thread is not a worker...
        assert!(!in_replication_worker());
        let seeds: Vec<u64> = (0..8).collect();
        let flags = replicate_seeds(&seeds, |s| (s, in_replication_worker()));
        // ...but when replications actually fan out, each one sees the
        // guard raised. (On a single-core machine the sequential path
        // runs on the caller, legitimately unflagged.)
        let parallel = thread::available_parallelism().map_or(1, NonZeroUsize::get) > 1;
        for (s, flagged) in flags {
            assert_eq!(flagged, parallel, "seed {s}");
        }
        assert!(!in_replication_worker(), "flag must not leak to callers");
    }

    #[test]
    fn run_indexed_returns_ascending_index_order() {
        let out = run_indexed(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        let none: Vec<usize> = run_indexed(0, |i| i);
        assert!(none.is_empty());
    }

    #[test]
    fn run_indexed_lowest_index_panic_wins() {
        let caught = std::panic::catch_unwind(|| {
            run_indexed(32, |i| {
                if i >= 5 {
                    panic!("point {i}");
                }
                i
            })
        })
        .expect_err("must panic");
        assert_eq!(caught.downcast_ref::<String>().unwrap(), "point 5");
    }

    #[test]
    fn results_are_in_seed_order() {
        let out = replicate_seeds(&[5, 1, 9, 3], |s| s * 10);
        assert_eq!(out, vec![50, 10, 90, 30]);
    }

    #[test]
    fn every_seed_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let seeds: Vec<u64> = (0..64).collect();
        let out = replicate_seeds(&seeds, |s| {
            counter.fetch_add(1, Ordering::Relaxed);
            s
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(out, seeds);
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u64> = replicate_seeds(&[], |s| s);
        assert!(none.is_empty());
        assert_eq!(replicate(1, 42, |s| s), vec![42]);
    }

    #[test]
    fn replicate_uses_consecutive_seeds() {
        assert_eq!(replicate(3, 100, |s| s), vec![100, 101, 102]);
    }

    #[test]
    fn worker_panic_propagates_with_original_payload() {
        let seeds: Vec<u64> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            replicate_seeds(&seeds, |s| {
                if s == 7 {
                    panic!("seed {s} exploded");
                }
                s
            })
        })
        .expect_err("the worker panic must reach the caller");
        let message = caught
            .downcast_ref::<String>()
            .expect("payload must be the original formatted message");
        assert_eq!(message, "seed 7 exploded");
    }

    #[test]
    fn lowest_seed_panic_wins_when_several_fail() {
        let seeds: Vec<u64> = (0..32).collect();
        let caught = std::panic::catch_unwind(|| {
            replicate_seeds(&seeds, |s| {
                if s >= 3 {
                    panic!("seed {s}");
                }
                s
            })
        })
        .expect_err("must panic");
        // Workers race, but the collector re-raises the earliest index —
        // the panic a sequential run would have hit.
        assert_eq!(caught.downcast_ref::<String>().unwrap(), "seed 3");
    }

    #[test]
    fn sequential_path_panics_too() {
        // One seed takes the non-threaded path; the panic must still
        // escape unchanged.
        let caught =
            std::panic::catch_unwind(|| replicate_seeds(&[9], |_| -> u64 { panic!("lone seed") }))
                .expect_err("must panic");
        assert_eq!(caught.downcast_ref::<&str>().unwrap(), &"lone seed");
    }

    #[test]
    fn parallel_matches_sequential() {
        let seeds: Vec<u64> = (0..40).collect();
        let heavy = |s: u64| {
            // Deterministic pseudo-work.
            let mut acc = s;
            for _ in 0..1000 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let parallel = replicate_seeds(&seeds, heavy);
        let sequential: Vec<u64> = seeds.iter().map(|&s| heavy(s)).collect();
        assert_eq!(parallel, sequential);
    }
}
