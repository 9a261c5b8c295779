//! Memory-bounded flow-state store.
//!
//! One load balancer is one single-threaded node keeping one table (flow →
//! accepting server, learned from the SR header of the SYN-ACK), sized for
//! the "millions of concurrent flows" regime the paper targets: one index
//! map, one intrusive recency list and one free list over one slot vector.
//!
//! * **Bounded capacity** — an optional hard bound on the number of entries.
//!   When full, learning a new flow evicts the least-recently touched entry,
//!   the head of the recency list: O(1).  Every eviction is classified
//!   ([`EvictionCause`]) and counted: an established, recently-active flow
//!   is *never* dropped silently.
//! * **Incremental expiry** — [`FlowState::expire_idle`] pops only the
//!   expired prefix of the recency list: cost is O(entries actually
//!   expired), not O(table size) as a full-scan `retain` would be.
//! * **Alloc-free steady state** — slots are recycled through the free list,
//!   so the warm learn/lookup/evict path performs no heap allocation (pinned
//!   by the counting-allocator test suite).
//!
//! Expiry exactness: the recency list orders entries by *touch* order.
//! Under monotonic timestamps — which the simulator guarantees per node —
//! touch order equals `last_active` order and prefix-popping is exact.  If a
//! caller supplies out-of-order timestamps, an entry may expire *late* (a
//! stale head shields newer-stamped entries behind it) but never early: the
//! head is only popped when it has itself exceeded the idle timeout.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use srlb_metrics::{EvictionBreakdown, EvictionCause, OccupancyGauge};
use srlb_net::{FlowKey, PassthroughHashBuilder};
use srlb_sim::{SimDuration, SimTime};

/// Sentinel index terminating the intrusive lists.
const NIL: u32 = u32::MAX;

/// Default idle timeout in seconds (a typical TCP session timeout for
/// data-centre load balancers).
pub const DEFAULT_IDLE_TIMEOUT_SECS: u64 = 300;

/// Configuration for a [`FlowState`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStateConfig {
    idle_timeout: SimDuration,
    capacity: Option<usize>,
}

impl FlowStateConfig {
    /// The default configuration: five-minute idle timeout, unbounded.
    pub fn new() -> Self {
        FlowStateConfig {
            idle_timeout: SimDuration::from_secs(DEFAULT_IDLE_TIMEOUT_SECS),
            capacity: None,
        }
    }

    /// Sets the idle timeout after which untouched entries expire.
    pub fn with_idle_timeout(mut self, idle_timeout: SimDuration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Bounds the table to at most `capacity` entries (must be ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "flow-state capacity must be at least 1");
        self.capacity = Some(capacity);
        self
    }

    /// The configured idle timeout.
    pub fn idle_timeout(&self) -> SimDuration {
        self.idle_timeout
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }
}

impl Default for FlowStateConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Lifetime counters of a [`FlowState`] table.
///
/// All counters accumulate across [`FlowState::wipe`] (a fail-over wipe loses
/// the entries, not the history).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStateStats {
    /// Total [`FlowState::learn`] calls (including refreshes of known flows).
    pub inserted: u64,
    /// Entries removed by [`FlowState::expire_idle`].
    pub expired: u64,
    /// Entries evicted under capacity pressure, by cause.
    pub evictions: EvictionBreakdown,
    /// Highest simultaneous occupancy ever reached, reported only for
    /// bounded tables (`0` for unbounded ones, so default configurations
    /// surface no new serialized fields).
    pub peak_occupancy: u64,
}

/// One stored flow entry plus its intrusive-list links.
///
/// `prev`/`next` thread the recency list while occupied and the free list
/// (via `next`) while vacant, so slot recycling never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: FlowKey,
    server: Ipv6Addr,
    last_active: SimTime,
    prev: u32,
    next: u32,
}

/// The optionally bounded flow → server stickiness table.
#[derive(Debug, Clone)]
pub struct FlowState {
    config: FlowStateConfig,
    map: HashMap<FlowKey, u32, PassthroughHashBuilder>,
    slots: Vec<Slot>,
    /// Head of the vacant-slot free list (linked through `Slot::next`).
    free_head: u32,
    /// Least-recently-touched occupied slot.
    head: u32,
    /// Most-recently-touched occupied slot.
    tail: u32,
    occupancy: OccupancyGauge,
    inserted: u64,
    expired: u64,
    evictions: EvictionBreakdown,
}

impl FlowState {
    /// Creates a table with the given configuration.
    pub fn with_config(config: FlowStateConfig) -> Self {
        FlowState {
            config,
            map: HashMap::with_hasher(PassthroughHashBuilder),
            slots: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            occupancy: OccupancyGauge::new(),
            inserted: 0,
            expired: 0,
            evictions: EvictionBreakdown::default(),
        }
    }

    /// Creates an unbounded table whose entries expire after `idle_timeout`
    /// without traffic.
    pub fn new(idle_timeout: SimDuration) -> Self {
        Self::with_config(FlowStateConfig::new().with_idle_timeout(idle_timeout))
    }

    /// A table with the default five-minute idle timeout.
    pub fn with_default_timeout() -> Self {
        Self::with_config(FlowStateConfig::new())
    }

    /// The table's configuration.
    pub fn config(&self) -> FlowStateConfig {
        self.config
    }

    /// The configured idle timeout.
    pub fn idle_timeout(&self) -> SimDuration {
        self.config.idle_timeout
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.config.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total number of insertions performed.
    pub fn inserted_total(&self) -> u64 {
        self.inserted
    }

    /// Total number of entries removed by [`FlowState::expire_idle`].
    pub fn expired_total(&self) -> u64 {
        self.expired
    }

    /// Lifetime counters (insertions, expiries, per-cause evictions, peak).
    pub fn stats(&self) -> FlowStateStats {
        FlowStateStats {
            inserted: self.inserted,
            expired: self.expired,
            evictions: self.evictions,
            peak_occupancy: if self.config.capacity.is_some() {
                self.occupancy.peak()
            } else {
                0
            },
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_tail(&mut self, idx: u32) {
        let old_tail = self.tail;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = old_tail;
            s.next = NIL;
        }
        if old_tail == NIL {
            self.head = idx;
        } else {
            self.slots[old_tail as usize].next = idx;
        }
        self.tail = idx;
    }

    /// Marks the occupied slot `idx` as touched at `now`.
    fn touch(&mut self, idx: u32, now: SimTime) {
        self.slots[idx as usize].last_active = now;
        if self.tail != idx {
            self.unlink(idx);
            self.push_tail(idx);
        }
    }

    fn alloc(&mut self, slot: Slot) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
            idx
        } else {
            assert!(self.slots.len() < NIL as usize, "slot index overflow");
            let idx = self.slots.len() as u32;
            self.slots.push(slot);
            idx
        }
    }

    /// Removes the occupied slot `idx` from map, recency list and storage.
    fn discard(&mut self, idx: u32) {
        let key = self.slots[idx as usize].key;
        self.map.remove(&key);
        self.unlink(idx);
        self.slots[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.occupancy.remove(1);
    }

    /// Records (or refreshes) the owner of `flow`.
    ///
    /// At capacity, learning a *new* flow first evicts the least-recently
    /// touched entry (see [`EvictionCause`] for how the victim's state is
    /// classified and counted).
    pub fn learn(&mut self, flow: FlowKey, server: Ipv6Addr, now: SimTime) {
        self.inserted += 1;
        if let Some(&idx) = self.map.get(&flow) {
            self.slots[idx as usize].server = server;
            self.touch(idx, now);
            return;
        }
        if self.config.capacity.is_some_and(|cap| self.len() >= cap) {
            self.evict_lru(now);
        }
        let idx = self.alloc(Slot {
            key: flow,
            server,
            last_active: now,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(flow, idx);
        self.push_tail(idx);
        self.occupancy.add(1);
    }

    /// Evicts the least-recently-touched entry: the head of the recency
    /// list.  Only called at capacity, which is at least one entry.
    fn evict_lru(&mut self, now: SimTime) {
        let idx = self.head;
        let idle = now.duration_since(self.slots[idx as usize].last_active);
        let timeout = self.config.idle_timeout;
        let cause = if idle > timeout {
            EvictionCause::Expired
        } else if idle * 2 >= timeout {
            EvictionCause::Idle
        } else {
            EvictionCause::Active
        };
        self.evictions.record(cause);
        self.discard(idx);
    }

    /// Looks up the owner of `flow`, refreshing its activity timestamp.
    pub fn lookup(&mut self, flow: &FlowKey, now: SimTime) -> Option<Ipv6Addr> {
        let &idx = self.map.get(flow)?;
        self.touch(idx, now);
        Some(self.slots[idx as usize].server)
    }

    /// Looks up the owner of `flow` without refreshing it.
    pub fn peek(&self, flow: &FlowKey) -> Option<Ipv6Addr> {
        let &idx = self.map.get(flow)?;
        Some(self.slots[idx as usize].server)
    }

    /// Removes the entry for `flow` (connection closed), returning the owner.
    pub fn remove(&mut self, flow: &FlowKey) -> Option<Ipv6Addr> {
        let &idx = self.map.get(flow)?;
        let server = self.slots[idx as usize].server;
        self.discard(idx);
        Some(server)
    }

    /// Drops every entry idle for longer than the configured timeout;
    /// returns how many were removed.
    ///
    /// Cost is O(removed): the expired prefix of the recency list is popped,
    /// stopping at the first survivor.
    pub fn expire_idle(&mut self, now: SimTime) -> usize {
        let timeout = self.config.idle_timeout;
        let mut removed = 0usize;
        while self.head != NIL {
            let idx = self.head;
            if now.duration_since(self.slots[idx as usize].last_active) <= timeout {
                break;
            }
            self.discard(idx);
            removed += 1;
        }
        self.expired += removed as u64;
        removed
    }

    /// Drops all entries (a fail-over wipe) while keeping the configuration
    /// and accumulated statistics; returns how many entries were lost.
    pub fn wipe(&mut self) -> usize {
        let lost = self.len();
        self.map.clear();
        self.slots.clear();
        self.free_head = NIL;
        self.head = NIL;
        self.tail = NIL;
        self.occupancy.clear();
        lost
    }

    /// Analytic resident-memory estimate in bytes: slot storage plus an
    /// approximation of the index map's bucket array.  Deterministic for a
    /// given operation sequence (container growth is deterministic), which is
    /// what the macro-bench's committed numbers rely on.
    pub fn resident_bytes(&self) -> u64 {
        // Per bucket, the map stores the key/value pair plus one control byte.
        let bucket = std::mem::size_of::<(FlowKey, u32)>() + 1;
        (std::mem::size_of::<Self>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.map.capacity() * bucket) as u64
    }
}

impl Default for FlowState {
    fn default() -> Self {
        Self::with_default_timeout()
    }
}

impl PartialEq for FlowState {
    /// Structural equality: same configuration, same lifetime counters and
    /// the same `flow → (server, last_active)` entries — independent of slot
    /// placement or touch history.
    fn eq(&self, other: &Self) -> bool {
        if self.config != other.config
            || self.len() != other.len()
            || self.inserted != other.inserted
            || self.expired != other.expired
            || self.evictions != other.evictions
        {
            return false;
        }
        // srlb-lint: allow(unordered-iter) -- `.all()` over every entry is order-independent; no order-sensitive value escapes
        self.map.iter().all(|(key, &idx)| {
            let slot = &self.slots[idx as usize];
            other.map.get(key).is_some_and(|&oidx| {
                let oslot = &other.slots[oidx as usize];
                oslot.server == slot.server && oslot.last_active == slot.last_active
            })
        })
    }
}

impl Eq for FlowState {}

#[cfg(test)]
mod tests {
    use super::*;
    use srlb_net::Protocol;

    fn flow(port: u16) -> FlowKey {
        FlowKey::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8:1::".parse().unwrap(),
            port,
            80,
            Protocol::Tcp,
        )
    }

    fn server(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfd00, 0, 0, 1, 0, 0, 0, n)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn bounded(capacity: usize, timeout_s: u64) -> FlowState {
        FlowState::with_config(
            FlowStateConfig::new()
                .with_idle_timeout(SimDuration::from_secs(timeout_s))
                .with_capacity(capacity),
        )
    }

    #[test]
    fn learn_lookup_remove() {
        let mut table = FlowState::with_default_timeout();
        assert!(table.is_empty());
        assert_eq!(table.lookup(&flow(1), SimTime::ZERO), None);

        table.learn(flow(1), server(3), SimTime::ZERO);
        table.learn(flow(2), server(5), SimTime::ZERO);
        assert_eq!(table.len(), 2);
        assert_eq!(table.lookup(&flow(1), SimTime::ZERO), Some(server(3)));
        assert_eq!(table.peek(&flow(2)), Some(server(5)));

        assert_eq!(table.remove(&flow(1)), Some(server(3)));
        assert_eq!(table.remove(&flow(1)), None);
        assert_eq!(table.len(), 1);
        assert_eq!(table.inserted_total(), 2);
    }

    #[test]
    fn relearning_overwrites_owner() {
        let mut table = FlowState::with_default_timeout();
        table.learn(flow(1), server(3), SimTime::ZERO);
        table.learn(flow(1), server(7), SimTime::ZERO);
        assert_eq!(table.len(), 1);
        assert_eq!(table.peek(&flow(1)), Some(server(7)));
    }

    #[test]
    fn idle_entries_expire_but_active_ones_survive() {
        let mut table = FlowState::new(SimDuration::from_secs(10));
        table.learn(flow(1), server(1), at(0));
        table.learn(flow(2), server(2), at(0));

        // Refresh flow 2 at t = 8s.
        assert_eq!(table.lookup(&flow(2), at(8)), Some(server(2)));

        // At t = 15s, flow 1 (idle 15s) expires, flow 2 (idle 7s) survives.
        assert_eq!(table.expire_idle(at(15)), 1);
        assert_eq!(table.peek(&flow(1)), None);
        assert_eq!(table.peek(&flow(2)), Some(server(2)));
        assert_eq!(table.expired_total(), 1);
    }

    #[test]
    fn expiry_at_exact_timeout_keeps_entry() {
        let mut table = FlowState::new(SimDuration::from_secs(10));
        table.learn(flow(1), server(1), SimTime::ZERO);
        assert_eq!(table.expire_idle(at(10)), 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn default_is_five_minutes() {
        let table = FlowState::default();
        assert_eq!(table.len(), 0);
        assert_eq!(table, FlowState::with_default_timeout());
        assert_eq!(table.idle_timeout(), SimDuration::from_secs(300));
    }

    #[test]
    fn capacity_bound_is_enforced_with_lru_eviction() {
        let mut table = bounded(3, 100);
        for p in 1..=3 {
            table.learn(flow(p), server(p), at(p as u64));
        }
        assert_eq!(table.len(), 3);

        // Touch flow 1 so flow 2 becomes the least-recently-touched.
        assert_eq!(table.lookup(&flow(1), at(10)), Some(server(1)));

        table.learn(flow(4), server(4), at(11));
        assert_eq!(table.len(), 3);
        assert_eq!(table.peek(&flow(2)), None, "LRU entry should be evicted");
        assert_eq!(table.peek(&flow(1)), Some(server(1)));
        assert_eq!(table.peek(&flow(3)), Some(server(3)));
        assert_eq!(table.peek(&flow(4)), Some(server(4)));
        assert_eq!(table.stats().evictions.total(), 1);
    }

    #[test]
    fn refreshing_a_known_flow_never_evicts() {
        let mut table = bounded(2, 100);
        table.learn(flow(1), server(1), at(0));
        table.learn(flow(2), server(2), at(1));
        table.learn(flow(1), server(9), at(2));
        assert_eq!(table.len(), 2);
        assert_eq!(table.stats().evictions.total(), 0);
        assert_eq!(table.peek(&flow(1)), Some(server(9)));
    }

    #[test]
    fn eviction_causes_are_classified_by_idleness() {
        // Timeout 100s: expired > 100s idle, idle ≥ 50s, active < 50s.
        let mut table = bounded(1, 100);
        table.learn(flow(1), server(1), at(0));
        table.learn(flow(2), server(2), at(150)); // victim idle 150s > 100s
        table.learn(flow(3), server(3), at(200)); // victim idle 50s, half of timeout
        table.learn(flow(4), server(4), at(210)); // victim idle 10s < 50s
        let stats = table.stats();
        assert_eq!(stats.evictions.expired, 1);
        assert_eq!(stats.evictions.idle, 1);
        assert_eq!(stats.evictions.active, 1);
        assert_eq!(stats.peak_occupancy, 1);
    }

    #[test]
    fn eviction_victim_is_globally_least_recently_touched() {
        // The victim must always be the entry touched longest ago, wherever
        // it was learned.
        let mut table = bounded(16, 1000);
        for p in 0..16 {
            table.learn(flow(p), server(p), at(p as u64));
        }
        // Touch everything except flow 5, in some scattered order.
        for (i, p) in [0u16, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
            .iter()
            .enumerate()
        {
            assert!(table.lookup(&flow(*p), at(100 + i as u64)).is_some());
        }
        table.learn(flow(99), server(99), at(200));
        assert_eq!(table.peek(&flow(5)), None, "stalest entry must be evicted");
        assert_eq!(table.len(), 16);
    }

    #[test]
    fn incremental_expiry_matches_full_scan_semantics() {
        let mut table = FlowState::new(SimDuration::from_secs(10));
        table.learn(flow(1), server(1), at(0));
        table.learn(flow(2), server(2), at(0));
        assert_eq!(table.lookup(&flow(2), at(8)), Some(server(2)));

        assert_eq!(table.expire_idle(at(15)), 1);
        assert_eq!(table.peek(&flow(1)), None);
        assert_eq!(table.peek(&flow(2)), Some(server(2)));
        assert_eq!(table.expired_total(), 1);

        // Survival at exactly the timeout, as with the old `retain`.
        assert_eq!(table.expire_idle(at(18)), 0);
        assert_eq!(table.len(), 1);
        assert_eq!(table.expire_idle(at(19)), 1);
        assert!(table.is_empty());
    }

    #[test]
    fn wipe_keeps_config_and_stats() {
        let mut table = bounded(2, 100);
        table.learn(flow(1), server(1), at(0));
        table.learn(flow(2), server(2), at(1));
        table.learn(flow(3), server(3), at(2));
        let before = table.stats();
        assert_eq!(before.evictions.total(), 1);

        assert_eq!(table.wipe(), 2);
        assert!(table.is_empty());
        assert_eq!(table.capacity(), Some(2));
        let after = table.stats();
        assert_eq!(after.inserted, before.inserted);
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(after.peak_occupancy, 2);

        // The table is fully usable after a wipe.
        table.learn(flow(9), server(9), at(3));
        assert_eq!(table.peek(&flow(9)), Some(server(9)));
    }

    #[test]
    fn slots_are_recycled_through_the_free_list() {
        // Storage never exceeds the peak occupancy, i.e. the capacity.
        let mut table = bounded(2, 100);
        for p in 0..20u16 {
            table.learn(flow(p), server(p), at(p as u64));
        }
        assert_eq!(table.len(), 2);
        assert_eq!(table.stats().evictions.total(), 18);
        assert_eq!(
            table.slots.len(),
            2,
            "churn through distinct keys must recycle slots, not allocate"
        );
    }

    #[test]
    fn peak_occupancy_is_zero_for_unbounded_tables() {
        let mut table = FlowState::with_default_timeout();
        for p in 0..10 {
            table.learn(flow(p), server(p), at(0));
        }
        assert_eq!(table.stats().peak_occupancy, 0);
        assert_eq!(table.stats().evictions.total(), 0);
    }

    #[test]
    fn resident_bytes_grows_with_occupancy_and_is_deterministic() {
        let build = || {
            let mut t = FlowState::with_default_timeout();
            for p in 0..1000 {
                t.learn(flow(p), server(p), at(0));
            }
            t
        };
        let empty = FlowState::with_default_timeout();
        let full = build();
        assert!(full.resident_bytes() > empty.resident_bytes());
        assert_eq!(full.resident_bytes(), build().resident_bytes());
    }

    #[test]
    fn structural_equality_ignores_touch_history() {
        let mut a = FlowState::new(SimDuration::from_secs(60));
        let mut b = FlowState::new(SimDuration::from_secs(60));
        a.learn(flow(1), server(1), at(0));
        a.learn(flow(2), server(2), at(1));
        // Same entries learned in the opposite order.
        b.learn(flow(2), server(2), at(1));
        b.learn(flow(1), server(1), at(0));
        assert_eq!(a, b);

        assert!(a.lookup(&flow(1), at(5)).is_some());
        assert_ne!(a, b, "a refreshed timestamp is a structural difference");
        assert!(b.lookup(&flow(1), at(5)).is_some());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        FlowStateConfig::new().with_capacity(0);
    }
}
