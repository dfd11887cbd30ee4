//! Deterministic fan-out over scoped worker threads.
//!
//! One worker pool for every embarrassingly parallel loop in the workspace:
//! workers pull the next unclaimed index from a shared atomic counter and
//! drop each result into that index's slot, so the caller reads results back
//! in index order no matter which worker computed what. Whatever the worker
//! count, the output is the same vector.
//!
//! ```
//! use dscs_simcore::par::map_ordered;
//!
//! let squares = map_ordered(5, 2, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The worker count a `jobs`-style knob asks for: `0` means one per
/// available core (at least one), any other value is taken as written.
pub fn resolve_workers(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Computes `f(0), f(1), …, f(n - 1)` on up to `workers` scoped threads and
/// returns the results in index order.
///
/// Each index is computed exactly once. The pool never spawns more threads
/// than there are indices; with at most one worker (or at most one index)
/// every call runs inline on the caller's thread. A panic in `f` panics the
/// caller too, once every worker has stopped.
pub fn map_ordered<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let filled = slots[index].set(f(index)).is_ok();
                debug_assert!(filled, "index {index} claimed twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("a worker computed every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_come_back_in_index_order_for_every_worker_count() {
        for workers in [1, 2, 8] {
            for n in [0, 1, 3, 7, 64] {
                let out = map_ordered(n, workers, |i| i * 10);
                let expected: Vec<usize> = (0..n).map(|i| i * 10).collect();
                assert_eq!(out, expected, "n = {n}, workers = {workers}");
            }
        }
    }

    #[test]
    fn each_index_is_computed_exactly_once() {
        for workers in [1, 2, 8] {
            let n = 100;
            let calls: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let out = map_ordered(n, workers, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out.len(), n);
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn zero_workers_runs_inline() {
        assert_eq!(map_ordered(3, 0, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn resolve_workers_maps_zero_to_at_least_one_core() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(5), 5);
    }

    #[test]
    #[should_panic]
    fn a_panicking_index_panics_the_caller() {
        let _ = map_ordered(6, 2, |i| {
            assert_ne!(i, 3, "index {i} failed");
            i
        });
    }
}
