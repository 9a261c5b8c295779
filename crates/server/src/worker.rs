//! The worker-thread pool.
//!
//! Models Apache's `mpm_prefork` worker model used in the paper's testbed:
//! a fixed pool of worker threads, each either idle or busy serving exactly
//! one request.  The pool's busy count is the application state the SRLB
//! agent reads from Apache's scoreboard and exposes to the virtual router.

use serde::{Deserialize, Serialize};

/// Identifier of a worker thread within one server's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
// srlb-lint: allow(unused-pub) -- reached through srlb_server::WorkerPool::claim
pub struct WorkerId(pub usize);

/// A pool of worker threads.
///
/// The pool size is normally fixed (Apache's `mpm_prefork` model), but it
/// can be resized at runtime to model heterogeneous
/// or re-provisioned servers in dynamic-cluster scenarios.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerPool {
    /// `true` for busy workers.
    busy: Vec<bool>,
    busy_count: usize,
    /// Number of live slots still to be retired by a pending shrink; they
    /// are popped from the tail as the workers occupying it finish.
    pending_shrink: usize,
}

impl WorkerPool {
    /// Creates a pool of `n` idle workers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a worker pool needs at least one worker");
        WorkerPool {
            busy: vec![false; n],
            busy_count: 0,
            pending_shrink: 0,
        }
    }

    /// Resizes the pool to `target` workers.
    ///
    /// Growth takes effect immediately (new idle workers are appended).
    /// Shrinking never interrupts a running request: idle workers at the
    /// tail of the pool are retired immediately, and any remainder is
    /// retired lazily as busy tail workers release
    /// ([`WorkerPool::pending_shrink`] reports the backlog).
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub(crate) fn resize(&mut self, target: usize) {
        assert!(target > 0, "a worker pool needs at least one worker");
        self.pending_shrink = 0;
        if target >= self.busy.len() {
            self.busy.resize(target, false);
            return;
        }
        while self.busy.len() > target && self.busy.last() == Some(&false) {
            self.busy.pop();
        }
        self.pending_shrink = self.busy.len() - target;
    }

    /// Number of live slots still awaiting retirement by a deferred shrink.
    #[cfg(test)]
    pub(crate) fn pending_shrink(&self) -> usize {
        self.pending_shrink
    }

    /// The paper's configuration: 32 worker threads per server.
    pub fn paper_default() -> Self {
        Self::new(32)
    }

    /// Total number of workers.
    pub fn total(&self) -> usize {
        self.busy.len()
    }

    /// Number of busy workers.
    pub fn busy_count(&self) -> usize {
        self.busy_count
    }

    /// Number of idle workers.
    pub fn idle_count(&self) -> usize {
        self.total() - self.busy_count
    }

    /// Returns `true` if every worker is busy.
    pub fn is_saturated(&self) -> bool {
        self.busy_count == self.total()
    }

    /// Claims an idle worker, marking it busy.  Returns `None` if the pool is
    /// saturated.
    pub fn claim(&mut self) -> Option<WorkerId> {
        let index = self.busy.iter().position(|&b| !b)?;
        self.busy[index] = true;
        self.busy_count += 1;
        Some(WorkerId(index))
    }

    /// Releases a previously claimed worker.
    ///
    /// # Panics
    ///
    /// Panics if the worker id is out of range or the worker is already idle
    /// (both indicate a bookkeeping bug in the caller).
    pub fn release(&mut self, worker: WorkerId) {
        let slot = self
            .busy
            .get_mut(worker.0)
            .unwrap_or_else(|| panic!("worker {} out of range", worker.0));
        assert!(*slot, "releasing an idle worker {}", worker.0);
        *slot = false;
        self.busy_count -= 1;
        // Complete any deferred shrink that this release unblocks.
        while self.pending_shrink > 0 && self.busy.last() == Some(&false) {
            self.busy.pop();
            self.pending_shrink -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_and_releases_track_busy_count() {
        let mut pool = WorkerPool::new(3);
        assert_eq!(pool.total(), 3);
        assert_eq!(pool.busy_count(), 0);
        assert_eq!(pool.idle_count(), 3);
        assert!(!pool.is_saturated());

        let a = pool.claim().unwrap();
        let b = pool.claim().unwrap();
        assert_eq!(pool.busy_count(), 2);
        assert_ne!(a, b);

        let c = pool.claim().unwrap();
        assert!(pool.is_saturated());
        assert_eq!(pool.claim(), None);

        pool.release(b);
        assert_eq!(pool.busy_count(), 2);
        let d = pool.claim().unwrap();
        assert_eq!(d, b, "released worker is reused");
        pool.release(a);
        pool.release(c);
        pool.release(d);
        assert_eq!(pool.busy_count(), 0);
    }

    #[test]
    fn paper_default_has_32_idle_workers() {
        let mut pool = WorkerPool::paper_default();
        assert_eq!(pool.total(), 32);
        for _ in 0..10 {
            pool.claim();
        }
        assert_eq!(pool.busy_count(), 10);
        assert_eq!(pool.idle_count(), 22);
    }

    #[test]
    fn resize_grows_immediately() {
        let mut pool = WorkerPool::new(2);
        pool.resize(5);
        assert_eq!(pool.total(), 5);
        assert_eq!(pool.idle_count(), 5);
        assert_eq!(pool.pending_shrink(), 0);
    }

    #[test]
    fn resize_shrinks_idle_workers_immediately() {
        let mut pool = WorkerPool::new(8);
        pool.resize(3);
        assert_eq!(pool.total(), 3);
        assert_eq!(pool.pending_shrink(), 0);
    }

    #[test]
    fn resize_defers_shrink_past_busy_workers() {
        let mut pool = WorkerPool::new(4);
        let a = pool.claim().unwrap();
        let b = pool.claim().unwrap();
        let c = pool.claim().unwrap();
        let d = pool.claim().unwrap();
        // Every worker busy: shrinking to 1 retires nothing yet.
        pool.resize(1);
        assert_eq!(pool.total(), 4);
        assert_eq!(pool.pending_shrink(), 3);
        // Releasing a mid-pool worker cannot retire the busy tail.
        pool.release(b);
        assert_eq!(pool.total(), 4);
        assert_eq!(pool.pending_shrink(), 3);
        // Releasing the tail retires it; the busy slot before it stays.
        pool.release(d);
        assert_eq!(pool.total(), 3);
        assert_eq!(pool.pending_shrink(), 2);
        // Releasing c retires its slot *and* the already-idle b slot.
        pool.release(c);
        assert_eq!(pool.total(), 1);
        assert_eq!(pool.pending_shrink(), 0);
        assert!(pool.is_saturated(), "only worker a remains, and it is busy");
        pool.release(a);
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn regrowing_cancels_a_pending_shrink() {
        let mut pool = WorkerPool::new(3);
        let _a = pool.claim().unwrap();
        let _b = pool.claim().unwrap();
        let _c = pool.claim().unwrap();
        pool.resize(1);
        assert_eq!(pool.pending_shrink(), 2);
        pool.resize(6);
        assert_eq!(pool.pending_shrink(), 0);
        assert_eq!(pool.total(), 6);
        assert_eq!(pool.idle_count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        WorkerPool::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn resize_to_zero_panics() {
        WorkerPool::new(2).resize(0);
    }

    #[test]
    #[should_panic(expected = "releasing an idle worker")]
    fn double_release_panics() {
        let mut pool = WorkerPool::new(1);
        let w = pool.claim().unwrap();
        pool.release(w);
        pool.release(w);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_release_panics() {
        let mut pool = WorkerPool::new(1);
        pool.release(WorkerId(5));
    }
}
