//! A dependency-free parallel sweep runner.
//!
//! Figure and ablation sweeps are embarrassingly parallel: every point is
//! an independent, single-threaded, bit-reproducible simulation. This
//! module fans those points out across OS threads with
//! [`std::thread::scope`] — no thread-pool crate, no work-stealing, just
//! an atomic work index over a pre-sized slot vector.
//!
//! **Determinism guarantee:** parallelism exists only *across* points.
//! Each worker claims a point index, builds that point's workload from
//! its own seed, and runs the whole simulation on its own thread; nothing
//! is shared between simulations. Results land in the slot matching their
//! index, so the caller sees the same `Vec` in the same order whatever
//! `jobs` is — `--jobs 1` and `--jobs 8` produce byte-identical tables.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the machine's available parallelism.
pub(crate) fn default_jobs() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Evaluates `f(0), f(1), ..., f(count - 1)` on up to `jobs` OS threads
/// and returns the results in index order.
///
/// With `jobs <= 1` (or a single point) this is exactly a sequential
/// `map` — no threads are spawned at all, which keeps the single-job
/// path trivially identical to the pre-parallel harness.
///
/// # Panics
///
/// Propagates a panic from any worker closure once all threads have
/// been joined (the panic surfaces at scope exit).
pub fn run_indexed<T, F>(jobs: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(count) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("slot lock poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("every index was claimed by exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for jobs in [1, 2, 8] {
            let out = run_indexed(jobs, 20, |i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_jobs_than_work_is_fine() {
        assert_eq!(run_indexed(16, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(16, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(16, 1, |i| i), vec![0]);
    }

    #[test]
    fn every_index_is_claimed_once() {
        let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(4, 50, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
