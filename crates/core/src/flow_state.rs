//! Memory-bounded flow-state store.
//!
//! One load balancer is one single-threaded node keeping one table (flow →
//! accepting server, learned from the SR header of the SYN-ACK), sized for
//! the "millions of concurrent flows" regime the paper targets: one index
//! map, one intrusive recency list and one free list over one slot vector.
//!
//! * **Each key stored once** — the 48 B [`FlowKey`] lives only in its
//!   slot.  The index maps the key's carried [`FlowKey::stable_hash`] to the
//!   first slot of a chain, 16 B per bucket plus a control byte; distinct
//!   keys that share a 64-bit hash are chained through the slots and told
//!   apart by key equality.  A flow costs one 88 B slot plus 17 B per index
//!   bucket, of which the map keeps between 8/7 and 16/7 per entry: 107–127
//!   B/flow (122 B in the macro-bench), where a key-indexed map (57 B
//!   buckets, 80 B slots) cost 145–210 B.
//! * **Bounded capacity** — an optional hard bound on the number of entries.
//!   When full, learning a new flow evicts the least-recently touched entry,
//!   the head of the recency list: O(1).  Every eviction is classified
//!   ([`EvictionCause`]) and counted: an established, recently-active flow
//!   is *never* dropped silently.
//! * **Incremental expiry** — [`FlowState::expire_idle`] pops only the
//!   expired prefix of the recency list: cost is O(entries actually
//!   expired), not O(table size) as a full-scan `retain` would be.
//! * **Retirement at the retransmission horizon** — an unbounded table with
//!   no sweep would otherwise hold every flow of the run.  Its load
//!   balancer retires the prefix of the recency list idle beyond the run's
//!   retransmission horizon, past which no packet of the flow can arrive,
//!   with the same O(retired) pop.  A retired entry is counted nowhere: it
//!   is neither an expiry nor an eviction, and no output can tell it from
//!   an entry kept.  Debug builds remember the retired keys and count any
//!   later learn or lookup of one, which the runner's tests require to be
//!   zero.
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
#[cfg(debug_assertions)]
use std::collections::HashSet;
use std::net::Ipv6Addr;

use srlb_metrics::{EvictionBreakdown, EvictionCause, OccupancyGauge};
use srlb_net::{FlowKey, PassthroughHashBuilder};
use srlb_sim::{SimDuration, SimTime};

/// Sentinel index terminating the intrusive lists.
const NIL: u32 = u32::MAX;

/// Default idle timeout in seconds (a typical TCP session timeout for
/// data-centre load balancers).
pub(crate) const DEFAULT_IDLE_TIMEOUT_SECS: u64 = 300;

/// Configuration for a [`FlowState`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStateConfig {
    pub(crate) idle_timeout: SimDuration,
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
/// All counters accumulate across `FlowState::wipe` (a fail-over wipe loses
/// the entries, not the history).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// srlb-lint: allow(unused-pub) -- reached through srlb_core::FlowState::stats
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
/// (via `next`) while vacant, so slot recycling never allocates.  `chain`
/// links an occupied slot to the next one whose key has the same index hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: FlowKey,
    server: Ipv6Addr,
    last_active: SimTime,
    prev: u32,
    next: u32,
    chain: u32,
}

/// The index key of `flow`: its carried hash.  The crate's own tests fold it
/// to two bits, so that distinct keys share index entries and every table
/// operation walks a hash chain.
fn index_hash(flow: &FlowKey) -> u64 {
    if cfg!(test) {
        flow.stable_hash() & 0b11
    } else {
        flow.stable_hash()
    }
}

/// Buckets behind a std `HashMap` whose `capacity()` is `capacity`: the map
/// fills 7/8 of its power-of-two bucket count (all but one below eight
/// buckets), and deletion tombstones only lower `capacity()`, so rounding the
/// inverse up to a power of two recovers the allocation.
fn index_buckets(capacity: usize) -> usize {
    match capacity {
        0 => 0,
        1..=7 => (capacity + 1).next_power_of_two().max(4),
        _ => (capacity * 8 / 7).next_power_of_two(),
    }
}

/// The optionally bounded flow → server stickiness table.
#[derive(Debug, Clone)]
pub struct FlowState {
    config: FlowStateConfig,
    /// Index hash → the first slot of its chain.
    map: HashMap<u64, u32, PassthroughHashBuilder>,
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
    /// Keys retired at the horizon, and learns or lookups of them since.
    #[cfg(debug_assertions)]
    retired: HashSet<FlowKey, PassthroughHashBuilder>,
    #[cfg(debug_assertions)]
    retired_hits: u64,
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
            #[cfg(debug_assertions)]
            retired: HashSet::with_hasher(PassthroughHashBuilder),
            #[cfg(debug_assertions)]
            retired_hits: 0,
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

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.config.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.occupancy.current() as usize
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// The occupied slot holding `flow`: the head of its index hash's chain,
    /// or a slot further down it.
    fn find(&self, flow: &FlowKey) -> Option<u32> {
        let mut idx = *self.map.get(&index_hash(flow))?;
        while self.slots[idx as usize].key != *flow {
            idx = self.slots[idx as usize].chain;
            if idx == NIL {
                return None;
            }
        }
        Some(idx)
    }

    /// Removes the occupied slot `idx` from its hash chain (and the index
    /// entry with it when it was the chain's only slot).
    fn unchain(&mut self, idx: u32) {
        let slot = &self.slots[idx as usize];
        let chain = slot.chain;
        if let Entry::Occupied(mut head) = self.map.entry(index_hash(&slot.key)) {
            if *head.get() == idx {
                if chain == NIL {
                    head.remove();
                } else {
                    head.insert(chain);
                }
            } else {
                let mut prev = *head.get();
                while self.slots[prev as usize].chain != idx {
                    prev = self.slots[prev as usize].chain;
                }
                self.slots[prev as usize].chain = chain;
            }
        }
    }

    /// Removes the occupied slot `idx` from index, recency list and storage.
    fn discard(&mut self, idx: u32) {
        self.unchain(idx);
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
        #[cfg(debug_assertions)]
        self.audit(&flow);
        if let Some(idx) = self.find(&flow) {
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
            chain: NIL,
        });
        if let Some(head) = self.map.insert(index_hash(&flow), idx) {
            self.slots[idx as usize].chain = head;
        }
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
        #[cfg(debug_assertions)]
        self.audit(flow);
        let idx = self.find(flow)?;
        self.touch(idx, now);
        Some(self.slots[idx as usize].server)
    }

    /// Looks up the owner of `flow` without refreshing it.
    pub fn peek(&self, flow: &FlowKey) -> Option<Ipv6Addr> {
        let idx = self.find(flow)?;
        Some(self.slots[idx as usize].server)
    }

    /// Removes the entry for `flow` (connection closed), returning the owner.
    pub fn remove(&mut self, flow: &FlowKey) -> Option<Ipv6Addr> {
        let idx = self.find(flow)?;
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
        let mut removed = 0usize;
        while let Some(idx) = self.idle_head(now, self.config.idle_timeout) {
            self.discard(idx);
            removed += 1;
        }
        self.expired += removed as u64;
        removed
    }

    /// Drops every entry idle for longer than `horizon` and counts it
    /// nowhere: the caller vouches that no packet of such a flow can reach
    /// the table again, so its departure is neither an expiry nor an
    /// eviction.  Returns how many entries were retired; O(retired), like
    /// [`FlowState::expire_idle`].
    pub(crate) fn retire_idle(&mut self, now: SimTime, horizon: SimDuration) -> usize {
        let mut retired = 0usize;
        while let Some(idx) = self.idle_head(now, horizon) {
            #[cfg(debug_assertions)]
            self.retired.insert(self.slots[idx as usize].key);
            self.discard(idx);
            retired += 1;
        }
        retired
    }

    /// The least-recently-touched entry, if it has been idle for longer
    /// than `limit`.
    fn idle_head(&self, now: SimTime, limit: SimDuration) -> Option<u32> {
        let idx = self.head;
        (idx != NIL && now.duration_since(self.slots[idx as usize].last_active) > limit)
            .then_some(idx)
    }

    /// Learns and lookups of keys retired earlier: zero when the horizon
    /// holds.  Counted in debug builds only.
    #[cfg(debug_assertions)]
    pub(crate) fn retired_hits(&self) -> u64 {
        self.retired_hits
    }

    /// Counts a learn or lookup of a retired key.
    #[cfg(debug_assertions)]
    fn audit(&mut self, flow: &FlowKey) {
        if self.retired.contains(flow) {
            self.retired_hits += 1;
        }
    }

    /// Drops all entries (a fail-over wipe) while keeping the configuration
    /// and accumulated statistics; returns how many entries were lost.
    pub(crate) fn wipe(&mut self) -> usize {
        let lost = self.len();
        self.map.clear();
        self.slots.clear();
        self.free_head = NIL;
        self.head = NIL;
        self.tail = NIL;
        self.occupancy.clear();
        lost
    }

    /// Analytic resident-memory estimate in bytes: slot storage plus the
    /// index map's bucket array.  Deterministic for a given operation
    /// sequence (container growth is deterministic), which is what the
    /// macro-bench's committed numbers rely on.
    pub fn resident_bytes(&self) -> u64 {
        // Per bucket, the map stores the hash/slot pair plus one control byte.
        let bucket = std::mem::size_of::<(u64, u32)>() + 1;
        (std::mem::size_of::<Self>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + index_buckets(self.map.capacity()) * bucket) as u64
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
        let mut idx = self.head;
        while idx != NIL {
            let slot = &self.slots[idx as usize];
            let same = other.find(&slot.key).is_some_and(|oidx| {
                let oslot = &other.slots[oidx as usize];
                oslot.server == slot.server && oslot.last_active == slot.last_active
            });
            if !same {
                return false;
            }
            idx = slot.next;
        }
        true
    }
}

impl Eq for FlowState {}

#[cfg(test)]
#[path = "../tests/support/flow_state_model.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        assert_eq!(table.stats().inserted, 2);
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
        assert_eq!(table.stats().expired, 1);
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
        assert_eq!(table.config().idle_timeout, SimDuration::from_secs(300));
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
        assert_eq!(table.stats().expired, 1);

        // Survival at exactly the timeout, as with the old `retain`.
        assert_eq!(table.expire_idle(at(18)), 0);
        assert_eq!(table.len(), 1);
        assert_eq!(table.expire_idle(at(19)), 1);
        assert!(table.is_empty());
    }

    #[test]
    fn retirement_counts_nothing_and_later_hits_are_audited() {
        let mut table = FlowState::new(SimDuration::from_secs(10));
        table.learn(flow(1), server(1), at(0));
        table.learn(flow(2), server(2), at(2));
        assert_eq!(table.retire_idle(at(3), SimDuration::from_secs(1)), 1);
        assert_eq!(table.peek(&flow(1)), None);
        assert_eq!(table.peek(&flow(2)), Some(server(2)));
        assert_eq!(table.stats().expired, 0);
        assert_eq!(table.stats().evictions.total(), 0);
        // Idle for exactly the horizon survives, as with expiry.
        assert_eq!(table.retire_idle(at(3), SimDuration::from_secs(1)), 0);
        #[cfg(debug_assertions)]
        {
            assert_eq!(table.retired_hits(), 0);
            assert_eq!(table.lookup(&flow(1), at(4)), None);
            assert_eq!(table.lookup(&flow(2), at(4)), Some(server(2)));
            assert_eq!(table.retired_hits(), 1, "only the retired key counts");
        }
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
    fn slot_and_index_entry_stay_small() {
        assert!(std::mem::size_of::<Slot>() <= 88);
        assert_eq!(std::mem::size_of::<(u64, u32)>(), 16);
    }

    /// Every occupied slot sits on exactly one chain — the chain of its own
    /// index hash — and every index entry heads a non-empty chain.
    fn assert_chains_partition_the_slots(table: &FlowState) {
        let mut chained = 0;
        for (&hash, &head) in &table.map {
            let mut idx = head;
            while idx != NIL {
                let slot = &table.slots[idx as usize];
                assert_eq!(index_hash(&slot.key), hash, "slot {idx} on a foreign chain");
                chained += 1;
                assert!(
                    chained <= table.len(),
                    "a chain loops or holds a freed slot"
                );
                idx = slot.chain;
            }
        }
        assert_eq!(chained, table.len());
    }

    proptest! {
        /// With the index folded to two bits (`index_hash` under
        /// `cfg(test)`), up to 96 distinct keys share four index entries, so
        /// learn, lookup, peek, remove, capacity eviction, expiry, retirement
        /// and wipe all find, push and unlink slots in the middle of hash
        /// chains.  The table must still match the flat reference model
        /// entry for entry and counter for counter; retirement removes the
        /// entries idle beyond the horizon and moves neither `expired` nor
        /// `evictions`.
        #[test]
        fn colliding_index_matches_the_model(
            ops in prop::collection::vec(
                // (op selector, client, port, server, time advance in µs)
                (0u8..13, 0u16..8, 1u16..13, 0u16..12, 0u64..2_000_000),
                1..250,
            ),
            capacity in 2usize..40,
            timeout_s in 1u64..4,
            horizon_ms in 0u64..4_000,
        ) {
            let timeout = SimDuration::from_secs(timeout_s);
            let horizon = SimDuration::from_millis(horizon_ms);
            let mut model = model::Model::new(capacity, timeout);
            let mut table = bounded(capacity, timeout_s);
            let mut now = SimTime::ZERO;
            for &(op, client, port, srv, dt) in &ops {
                now += SimDuration::from_micros(dt);
                let f = FlowKey::new(
                    Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, client + 1),
                    "2001:db8:1::".parse().unwrap(),
                    port,
                    80,
                    Protocol::Tcp,
                );
                match op {
                    0..=4 => {
                        model.learn(f, server(srv), now);
                        table.learn(f, server(srv), now);
                    }
                    5 | 6 => prop_assert_eq!(table.lookup(&f, now), model.lookup(&f, now)),
                    7 => prop_assert_eq!(table.peek(&f), model.peek(&f)),
                    8 | 9 => prop_assert_eq!(table.remove(&f), model.remove(&f)),
                    10 => prop_assert_eq!(table.expire_idle(now), model.expire_idle(now)),
                    11 => prop_assert_eq!(table.wipe(), model.wipe()),
                    _ => {
                        let before = table.stats();
                        prop_assert_eq!(
                            table.retire_idle(now, horizon),
                            model.retire_idle(now, horizon)
                        );
                        prop_assert_eq!(table.stats(), before);
                        prop_assert!(model.entries.iter().all(|e| now - e.2 <= horizon));
                    }
                }
                prop_assert_eq!(table.len(), model.entries.len());
                prop_assert!(table.map.len() <= 4);
                assert_chains_partition_the_slots(&table);
            }
            for &(f, addr, _, _) in &model.entries {
                prop_assert_eq!(table.peek(&f), Some(addr));
            }
            let stats = table.stats();
            prop_assert_eq!(stats.inserted, model.inserted);
            prop_assert_eq!(stats.expired, model.expired);
            prop_assert_eq!(stats.evictions, model.evictions);
            prop_assert_eq!(stats.peak_occupancy, model.peak);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        FlowStateConfig::new().with_capacity(0);
    }
}
