//! The reference model of `FlowState`: its published semantics written as
//! linear scans over a flat entry list.
//!
//! Shared by the integration proptest (`proptest_flow_state.rs`, real flow
//! hashes) and the table's own unit tests (an index folded to two bits, so
//! every operation walks a hash chain).

use std::net::Ipv6Addr;

use srlb_metrics::{EvictionBreakdown, EvictionCause};
use srlb_net::FlowKey;
use srlb_sim::{SimDuration, SimTime};

/// Reference: the exact published semantics of `FlowState`,
/// written as linear scans over a flat entry list.
pub(crate) struct Model {
    capacity: Option<usize>,
    timeout: SimDuration,
    /// `(flow, server, last_active, touch_seq)` — `touch_seq` is unique.
    pub(crate) entries: Vec<(FlowKey, Ipv6Addr, SimTime, u64)>,
    seq: u64,
    pub(crate) inserted: u64,
    pub(crate) expired: u64,
    pub(crate) evictions: EvictionBreakdown,
    pub(crate) peak: u64,
}

impl Model {
    pub(crate) fn new(capacity: usize, timeout: SimDuration) -> Self {
        Model {
            capacity: Some(capacity),
            timeout,
            entries: Vec::new(),
            seq: 0,
            inserted: 0,
            expired: 0,
            evictions: EvictionBreakdown::default(),
            peak: 0,
        }
    }

    pub(crate) fn learn(&mut self, flow: FlowKey, server: Ipv6Addr, now: SimTime) {
        self.inserted += 1;
        self.seq += 1;
        let seq = self.seq;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == flow) {
            e.1 = server;
            e.2 = now;
            e.3 = seq;
            return;
        }
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                self.evict_lru(now);
            }
        }
        self.entries.push((flow, server, now, seq));
        self.peak = self.peak.max(self.entries.len() as u64);
    }

    fn evict_lru(&mut self, now: SimTime) {
        // Touch sequences are unique, so the minimum is unambiguous.
        let Some(pos) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.3)
            .map(|(i, _)| i)
        else {
            return;
        };
        let idle = now.duration_since(self.entries[pos].2);
        let cause = if idle > self.timeout {
            EvictionCause::Expired
        } else if idle * 2 >= self.timeout {
            EvictionCause::Idle
        } else {
            EvictionCause::Active
        };
        self.evictions.record(cause);
        self.entries.remove(pos);
    }

    pub(crate) fn lookup(&mut self, flow: &FlowKey, now: SimTime) -> Option<Ipv6Addr> {
        let e = self.entries.iter_mut().find(|e| e.0 == *flow)?;
        self.seq += 1;
        e.2 = now;
        e.3 = self.seq;
        Some(e.1)
    }

    pub(crate) fn peek(&self, flow: &FlowKey) -> Option<Ipv6Addr> {
        self.entries.iter().find(|e| e.0 == *flow).map(|e| e.1)
    }

    pub(crate) fn remove(&mut self, flow: &FlowKey) -> Option<Ipv6Addr> {
        let pos = self.entries.iter().position(|e| e.0 == *flow)?;
        Some(self.entries.remove(pos).1)
    }

    pub(crate) fn expire_idle(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        let timeout = self.timeout;
        self.entries.retain(|e| now.duration_since(e.2) <= timeout);
        let removed = before - self.entries.len();
        self.expired += removed as u64;
        removed
    }

    /// Retirement at a horizon: every entry idle for longer than `horizon`
    /// goes, and no counter moves — a retired flow is neither expired nor
    /// evicted.  `FlowState::retire_idle` is crate-private, so only the unit
    /// tests call this.
    #[allow(dead_code)]
    pub(crate) fn retire_idle(&mut self, now: SimTime, horizon: SimDuration) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| now.duration_since(e.2) <= horizon);
        before - self.entries.len()
    }

    /// A fail-over wipe: every entry goes, the counters stay.  `FlowState::wipe`
    /// is crate-private, so only the unit tests call this.
    #[allow(dead_code)]
    pub(crate) fn wipe(&mut self) -> usize {
        let lost = self.entries.len();
        self.entries.clear();
        lost
    }
}
