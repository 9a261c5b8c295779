//! Deterministic parallel sweep driver.
//!
//! Every `(policy, ρ)` point of the paper's evaluation is an independent
//! seeded simulation, so the sweep parallelises trivially: a pool of
//! `std::thread::scope` workers claims input indices from an atomic counter
//! and writes each result into its input's slot.  Results are returned in
//! input order regardless of worker scheduling, so figure output is
//! byte-identical to a serial run — `parallel_map` with `jobs = 1` *is* the
//! serial run (no threads are spawned).
//!
//! The worker count comes from the `--jobs` CLI flag, falling back to the
//! machine's available parallelism ([`default_jobs`]); CI runners with few
//! cores can pass `--jobs 1` for a fully deterministic single-threaded
//! schedule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count used when the caller does not specify one: the
/// machine's available parallelism, otherwise 1.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every input across `jobs` scoped worker threads,
/// returning the outputs **in input order**.
///
/// With `jobs <= 1` (or fewer than two inputs) the map runs inline on the
/// calling thread — the deterministic single-thread fallback.  Work is
/// distributed dynamically (an atomic next-index counter), so long-running
/// points do not serialise behind short ones.
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have finished.
pub fn parallel_map<I, O, F>(inputs: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let jobs = jobs.max(1).min(inputs.len());
    if jobs <= 1 {
        return inputs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(i) else {
                    break;
                };
                let output = f(input);
                *slots[i].lock().expect("result slot poisoned") = Some(output);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed slot is filled before workers exit")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let out = parallel_map(&inputs, 8, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_matches_parallel() {
        let inputs: Vec<u64> = (0..37).collect();
        let serial = parallel_map(&inputs, 1, |&i| i * i + 1);
        let parallel = parallel_map(&inputs, 4, |&i| i * i + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        assert!(parallel_map(&[] as &[u8], 4, |_| 0u8).is_empty());
        assert_eq!(parallel_map(&[7u8], 4, |&x| x + 1), vec![8]);
        assert_eq!(parallel_map(&[1u8, 2], 0, |&x| x), vec![1, 2]);
    }

    #[test]
    fn more_jobs_than_inputs_is_fine() {
        let out = parallel_map(&[1u32, 2, 3], 64, |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
