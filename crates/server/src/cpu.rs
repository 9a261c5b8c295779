//! Processor-sharing CPU model.
//!
//! The paper's servers are 2-core VMs running Apache with 32 worker threads:
//! every busy worker thread contends for the same two cores, so when many
//! threads are busy each request progresses proportionally slower.  This is
//! the application state SRLB exploits — a server with few busy threads will
//! finish a request quickly, one with many will not — so modelling it is
//! essential to reproducing the paper's results.
//!
//! [`ProcessorSharingCpu`] implements the classic egalitarian
//! processor-sharing discipline: with `b` busy threads on `c` cores, each
//! thread receives `min(1, c/b)` of a core.  The simulation advances the
//! remaining work of every running job lazily (on each arrival or
//! completion) and exposes the next completion instant so the owning node
//! can schedule a single wake-up timer.

use std::collections::BTreeMap;

use srlb_sim::{SimDuration, SimTime};

/// Remaining-work accounting for jobs sharing a fixed number of cores.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSharingCpu {
    cores: f64,
    /// Remaining CPU demand of each running job, in seconds of dedicated-core
    /// time.  A `BTreeMap` so every traversal — the lazy work advance, the
    /// minimum-remaining scan and especially the completed-job sweep that
    /// feeds response ordering — runs in job-id order by construction,
    /// with no per-instance hash randomness to depend on.
    remaining: BTreeMap<u64, f64>,
    last_update: SimTime,
}

impl ProcessorSharingCpu {
    /// Creates a CPU with the given number of cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "at least one core is required");
        ProcessorSharingCpu {
            cores: cores as f64,
            remaining: BTreeMap::new(),
            last_update: SimTime::ZERO,
        }
    }

    /// Changes the number of cores at runtime (capacity re-provisioning in
    /// dynamic-cluster scenarios).  Work already performed is preserved:
    /// running jobs are advanced to `now` at the old rate before the new
    /// core count takes effect.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn set_cores(&mut self, cores: usize, now: SimTime) {
        assert!(cores > 0, "at least one core is required");
        self.progress_to(now);
        self.cores = cores as f64;
    }

    /// Number of jobs currently running.
    pub fn job_count(&self) -> usize {
        self.remaining.len()
    }

    /// Returns `true` if no job is running.
    pub fn is_idle(&self) -> bool {
        self.remaining.is_empty()
    }

    /// The per-job service rate (fraction of a dedicated core) at the current
    /// multiprogramming level.
    pub fn rate(&self) -> f64 {
        let n = self.remaining.len() as f64;
        if n == 0.0 {
            1.0
        } else {
            (self.cores / n).min(1.0)
        }
    }

    /// Advances every running job's remaining work to `now`.
    pub fn progress_to(&mut self, now: SimTime) {
        let elapsed = now.duration_since(self.last_update).as_secs_f64();
        if elapsed > 0.0 && !self.remaining.is_empty() {
            let rate = self.rate();
            for work in self.remaining.values_mut() {
                *work -= elapsed * rate;
            }
        }
        if now > self.last_update {
            self.last_update = now;
        }
    }

    /// Adds a job with the given CPU demand, advancing existing jobs first.
    ///
    /// # Panics
    ///
    /// Panics if a job with the same id is already running.
    pub fn add_job(&mut self, id: u64, demand: SimDuration, now: SimTime) {
        self.progress_to(now);
        let previous = self.remaining.insert(id, demand.as_secs_f64());
        assert!(previous.is_none(), "job {id} is already running");
    }

    /// Advances to `now` and removes every job whose remaining work has
    /// dropped to (approximately) zero, returning their ids sorted
    /// ascending for determinism.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<u64> {
        self.progress_to(now);
        // One microsecond of dedicated-core work: far below any meaningful
        // request cost, far above the sub-nanosecond error introduced by
        // rounding completion times to integer nanoseconds, so completions
        // are always detected by the timer scheduled from
        // [`ProcessorSharingCpu::next_completion`].
        const EPSILON: f64 = 1e-6;
        // BTreeMap iteration is id-ordered, so the returned list is sorted
        // ascending by construction.
        let done: Vec<u64> = self
            .remaining
            .iter()
            .filter(|(_, &w)| w <= EPSILON)
            .map(|(&id, _)| id)
            .collect();
        for id in &done {
            self.remaining.remove(id);
        }
        done
    }

    /// The absolute time at which the next job will complete if no further
    /// job arrives, or `None` if the CPU is idle.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let min_remaining = self
            .remaining
            .values()
            .fold(f64::INFINITY, |acc, &w| acc.min(w));
        if !min_remaining.is_finite() {
            return None;
        }
        let rate = self.rate();
        let delay_seconds = (min_remaining / rate).max(0.0);
        Some(now + SimDuration::from_secs_f64(delay_seconds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn single_job_on_idle_cpu_runs_at_full_speed() {
        let mut cpu = ProcessorSharingCpu::new(2);
        assert!(cpu.is_idle());
        cpu.add_job(1, SimDuration::from_millis(100), t(0));
        assert_eq!(cpu.job_count(), 1);
        assert_eq!(cpu.rate(), 1.0);
        assert_eq!(cpu.next_completion(t(0)), Some(t(100)));
        assert!(cpu.take_completed(t(99)).is_empty());
        assert_eq!(cpu.take_completed(t(100)), vec![1]);
        assert!(cpu.is_idle());
    }

    #[test]
    fn jobs_beyond_core_count_share_the_cpu() {
        let mut cpu = ProcessorSharingCpu::new(2);
        // Four 100 ms jobs on two cores: each runs at half speed -> 200 ms.
        for id in 0..4 {
            cpu.add_job(id, SimDuration::from_millis(100), t(0));
        }
        assert_eq!(cpu.rate(), 0.5);
        assert_eq!(cpu.next_completion(t(0)), Some(t(200)));
        let done = cpu.take_completed(t(200));
        assert_eq!(done, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fewer_jobs_than_cores_run_at_full_speed() {
        let mut cpu = ProcessorSharingCpu::new(4);
        cpu.add_job(0, SimDuration::from_millis(50), t(0));
        cpu.add_job(1, SimDuration::from_millis(80), t(0));
        assert_eq!(cpu.rate(), 1.0);
        assert_eq!(cpu.next_completion(t(0)), Some(t(50)));
        assert_eq!(cpu.take_completed(t(50)), vec![0]);
        assert_eq!(cpu.next_completion(t(50)), Some(t(80)));
        assert_eq!(cpu.take_completed(t(80)), vec![1]);
    }

    #[test]
    fn late_arrival_slows_down_the_running_job() {
        let mut cpu = ProcessorSharingCpu::new(1);
        cpu.add_job(0, SimDuration::from_millis(100), t(0));
        // After 50 ms, job 0 has 50 ms of work left; a second job arrives and
        // they now share the single core, so job 0 needs 100 ms more.
        cpu.add_job(1, SimDuration::from_millis(100), t(50));
        assert_eq!(cpu.rate(), 0.5);
        assert_eq!(cpu.next_completion(t(50)), Some(t(150)));
        assert_eq!(cpu.take_completed(t(150)), vec![0]);
        // Job 1 then has 50 ms left at full speed.
        assert_eq!(cpu.next_completion(t(150)), Some(t(200)));
        assert_eq!(cpu.take_completed(t(200)), vec![1]);
    }

    #[test]
    fn processor_sharing_trajectory_is_exact() {
        // Jobs of 50 / 100 / 250 ms on 2 cores, all present from t = 0.
        // Phase 1 (3 jobs, rate 2/3 each): job 0 finishes at 75 ms.
        // Phase 2 (2 jobs, rate 1 each): job 1 had 50 ms left -> 125 ms.
        // Phase 3 (1 job, rate 1): job 2 had 150 ms left -> 275 ms.
        let mut cpu = ProcessorSharingCpu::new(2);
        cpu.add_job(0, SimDuration::from_millis(50), t(0));
        cpu.add_job(1, SimDuration::from_millis(100), t(0));
        cpu.add_job(2, SimDuration::from_millis(250), t(0));
        let mut now = t(0);
        let mut completions = Vec::new();
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            for id in cpu.take_completed(now) {
                completions.push((id, now.as_secs_f64()));
            }
        }
        assert_eq!(completions.len(), 3);
        let expected = [(0u64, 0.075), (1, 0.125), (2, 0.275)];
        for ((id, at), (exp_id, exp_at)) in completions.iter().zip(expected) {
            assert_eq!(*id, exp_id);
            assert!(
                (at - exp_at).abs() < 1e-6,
                "job {id} completed at {at}, expected {exp_at}"
            );
        }
    }

    #[test]
    fn set_cores_preserves_progress() {
        let mut cpu = ProcessorSharingCpu::new(1);
        // Two 100 ms jobs share one core; after 100 ms each has 50 ms left.
        cpu.add_job(0, SimDuration::from_millis(100), t(0));
        cpu.add_job(1, SimDuration::from_millis(100), t(0));
        cpu.set_cores(2, t(100));
        // With two cores both now run at full speed: done 50 ms later.
        assert_eq!(cpu.rate(), 1.0);
        assert_eq!(cpu.next_completion(t(100)), Some(t(150)));
        assert_eq!(cpu.take_completed(t(150)), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn set_cores_to_zero_panics() {
        ProcessorSharingCpu::new(1).set_cores(0, t(0));
    }

    #[test]
    fn idle_cpu_has_no_completion() {
        let cpu = ProcessorSharingCpu::new(2);
        assert_eq!(cpu.next_completion(t(10)), None);
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn duplicate_job_id_panics() {
        let mut cpu = ProcessorSharingCpu::new(1);
        cpu.add_job(0, SimDuration::from_millis(10), t(0));
        cpu.add_job(0, SimDuration::from_millis(10), t(0));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        ProcessorSharingCpu::new(0);
    }
}
