//! Sharded, memory-bounded flow-state store.
//!
//! This module replaces the original single-map flow table with a subsystem
//! designed for the "millions of concurrent flows" regime the paper targets:
//!
//! * **Sharding** — entries are spread over a power-of-two number of shards
//!   selected from the upper bits of [`FlowKey`]'s cached 64-bit hash (the
//!   map bucket index consumes the low bits), so each shard's recency list
//!   and expiry cursor stay short and independent.
//! * **Bounded capacity** — an optional hard bound on the number of entries.
//!   When full, learning a new flow evicts the globally least-recently
//!   touched entry.  Every eviction is classified ([`EvictionCause`]) and
//!   counted: an established, recently-active flow is *never* dropped
//!   silently.
//! * **Incremental expiry** — each shard keeps its entries in an intrusive
//!   least-recently-touched list, so [`FlowState::expire_idle`] pops only the
//!   expired prefix of each shard: cost is O(entries actually expired), not
//!   O(table size) as the old full-scan `retain` was.
//! * **Alloc-free steady state** — slots are recycled through an intrusive
//!   free list, so the warm learn/lookup/evict path performs no heap
//!   allocation (pinned by the counting-allocator test suite).
//!
//! Expiry exactness: the recency list orders entries by *touch* sequence.
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

/// Default shard count; a small power of two keeps per-shard lists short
/// without bloating tiny tables.
pub const DEFAULT_SHARDS: usize = 8;

/// Default idle timeout in seconds (a typical TCP session timeout for
/// data-centre load balancers).
pub const DEFAULT_IDLE_TIMEOUT_SECS: u64 = 300;

/// Configuration for a [`FlowState`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStateConfig {
    idle_timeout: SimDuration,
    capacity: Option<usize>,
    shards: usize,
}

impl FlowStateConfig {
    /// The default configuration: five-minute idle timeout, unbounded,
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        FlowStateConfig {
            idle_timeout: SimDuration::from_secs(DEFAULT_IDLE_TIMEOUT_SECS),
            capacity: None,
            shards: DEFAULT_SHARDS,
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

    /// Sets the shard count (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "flow-state shard count must be a power of two, got {shards}"
        );
        self.shards = shards;
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

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
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
/// `prev`/`next` thread the shard's recency list while occupied and the free
/// list (via `next`) while vacant, so slot recycling never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: FlowKey,
    server: Ipv6Addr,
    last_active: SimTime,
    /// Global touch sequence number; higher = touched more recently.
    seq: u64,
    prev: u32,
    next: u32,
}

/// One shard: an index map plus an intrusive recency list over `slots`.
#[derive(Debug, Clone, Default)]
struct Shard {
    map: HashMap<FlowKey, u32, PassthroughHashBuilder>,
    slots: Vec<Slot>,
    /// Head of the vacant-slot free list (linked through `Slot::next`).
    free_head: u32,
    /// Least-recently-touched occupied slot.
    head: u32,
    /// Most-recently-touched occupied slot.
    tail: u32,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::with_hasher(PassthroughHashBuilder),
            slots: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
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

    fn move_to_tail(&mut self, idx: u32) {
        if self.tail == idx {
            return;
        }
        self.unlink(idx);
        self.push_tail(idx);
    }

    fn alloc(&mut self, slot: Slot) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
            idx
        } else {
            assert!(self.slots.len() < NIL as usize, "shard slot index overflow");
            let idx = self.slots.len() as u32;
            self.slots.push(slot);
            idx
        }
    }

    fn release(&mut self, idx: u32) {
        self.slots[idx as usize].next = self.free_head;
        self.free_head = idx;
    }

    /// Removes the occupied slot `idx` from map, recency list and storage.
    fn discard(&mut self, idx: u32) {
        let key = self.slots[idx as usize].key;
        self.map.remove(&key);
        self.unlink(idx);
        self.release(idx);
    }
}

/// The sharded, optionally bounded flow → server stickiness table.
#[derive(Debug, Clone)]
pub struct FlowState {
    config: FlowStateConfig,
    shards: Vec<Shard>,
    shard_mask: usize,
    len: usize,
    /// Global monotonic touch counter, stamped on every learn/lookup.
    seq: u64,
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
            shards: (0..config.shards).map(|_| Shard::new()).collect(),
            shard_mask: config.shards - 1,
            len: 0,
            seq: 0,
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
        self.len
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    #[inline]
    fn shard_of(&self, flow: &FlowKey) -> usize {
        // The map's bucket index consumes the low hash bits; bits 32+ are
        // uniformly mixed by the SplitMix64 finaliser and independent enough
        // to pick the shard.
        ((flow.stable_hash() >> 32) as usize) & self.shard_mask
    }

    /// Records (or refreshes) the owner of `flow`.
    ///
    /// At capacity, learning a *new* flow first evicts the least-recently
    /// touched entry across all shards (see [`EvictionCause`] for how the
    /// victim's state is classified and counted).
    pub fn learn(&mut self, flow: FlowKey, server: Ipv6Addr, now: SimTime) {
        self.inserted += 1;
        self.seq += 1;
        let seq = self.seq;
        let si = self.shard_of(&flow);
        if let Some(&idx) = self.shards[si].map.get(&flow) {
            let shard = &mut self.shards[si];
            let slot = &mut shard.slots[idx as usize];
            slot.server = server;
            slot.last_active = now;
            slot.seq = seq;
            shard.move_to_tail(idx);
            return;
        }
        if let Some(cap) = self.config.capacity {
            if self.len >= cap {
                self.evict_lru(now);
            }
        }
        let shard = &mut self.shards[si];
        let idx = shard.alloc(Slot {
            key: flow,
            server,
            last_active: now,
            seq,
            prev: NIL,
            next: NIL,
        });
        shard.map.insert(flow, idx);
        shard.push_tail(idx);
        self.len += 1;
        self.occupancy.add(1);
    }

    /// Evicts the globally least-recently-touched entry.
    ///
    /// Each shard's recency list is ordered by touch sequence, so the global
    /// minimum is always one of the shard heads — victim selection is a scan
    /// over `shards` heads, independent of table size.
    fn evict_lru(&mut self, now: SimTime) {
        let mut victim: Option<(usize, u32, u64)> = None;
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.head == NIL {
                continue;
            }
            let seq = shard.slots[shard.head as usize].seq;
            if victim.is_none_or(|(_, _, best)| seq < best) {
                victim = Some((si, shard.head, seq));
            }
        }
        let Some((si, idx, _)) = victim else {
            return;
        };
        let idle = now.duration_since(self.shards[si].slots[idx as usize].last_active);
        let timeout = self.config.idle_timeout;
        let cause = if idle > timeout {
            EvictionCause::Expired
        } else if idle * 2 >= timeout {
            EvictionCause::Idle
        } else {
            EvictionCause::Active
        };
        self.evictions.record(cause);
        self.shards[si].discard(idx);
        self.len -= 1;
        self.occupancy.remove(1);
    }

    /// Looks up the owner of `flow`, refreshing its activity timestamp.
    pub fn lookup(&mut self, flow: &FlowKey, now: SimTime) -> Option<Ipv6Addr> {
        let si = self.shard_of(flow);
        let shard = &mut self.shards[si];
        let &idx = shard.map.get(flow)?;
        self.seq += 1;
        let slot = &mut shard.slots[idx as usize];
        slot.last_active = now;
        slot.seq = self.seq;
        let server = slot.server;
        shard.move_to_tail(idx);
        Some(server)
    }

    /// Looks up the owner of `flow` without refreshing it.
    pub fn peek(&self, flow: &FlowKey) -> Option<Ipv6Addr> {
        let shard = &self.shards[self.shard_of(flow)];
        let idx = *shard.map.get(flow)?;
        Some(shard.slots[idx as usize].server)
    }

    /// Removes the entry for `flow` (connection closed), returning the owner.
    pub fn remove(&mut self, flow: &FlowKey) -> Option<Ipv6Addr> {
        let si = self.shard_of(flow);
        let shard = &mut self.shards[si];
        let &idx = shard.map.get(flow)?;
        let server = shard.slots[idx as usize].server;
        shard.discard(idx);
        self.len -= 1;
        self.occupancy.remove(1);
        Some(server)
    }

    /// Drops every entry idle for longer than the configured timeout;
    /// returns how many were removed.
    ///
    /// Cost is O(removed + shards): each shard pops the expired prefix of
    /// its recency list and stops at the first survivor.
    pub fn expire_idle(&mut self, now: SimTime) -> usize {
        let timeout = self.config.idle_timeout;
        let mut removed = 0usize;
        for shard in &mut self.shards {
            while shard.head != NIL {
                let idx = shard.head;
                if now.duration_since(shard.slots[idx as usize].last_active) <= timeout {
                    break;
                }
                shard.discard(idx);
                removed += 1;
            }
        }
        self.len -= removed;
        self.occupancy.remove(removed as u64);
        self.expired += removed as u64;
        removed
    }

    /// Drops all entries (a fail-over wipe) while keeping the configuration
    /// and accumulated statistics; returns how many entries were lost.
    pub fn wipe(&mut self) -> usize {
        let lost = self.len;
        for shard in &mut self.shards {
            shard.map.clear();
            shard.slots.clear();
            shard.free_head = NIL;
            shard.head = NIL;
            shard.tail = NIL;
        }
        self.len = 0;
        self.occupancy.clear();
        lost
    }

    /// Analytic resident-memory estimate in bytes: slot storage plus an
    /// approximation of the index maps' bucket arrays.  Deterministic for a
    /// given operation sequence (container growth is deterministic), which is
    /// what the macro-bench's committed numbers rely on.
    pub fn resident_bytes(&self) -> u64 {
        let mut total = std::mem::size_of::<Self>() as u64;
        // Per bucket, the map stores the key/value pair plus one control byte.
        let bucket = std::mem::size_of::<(FlowKey, u32)>() + 1;
        for shard in &self.shards {
            total += (shard.slots.capacity() * std::mem::size_of::<Slot>()) as u64;
            total += (shard.map.capacity() * bucket) as u64;
        }
        total
    }
}

impl Default for FlowState {
    fn default() -> Self {
        Self::with_default_timeout()
    }
}

impl PartialEq for FlowState {
    /// Structural equality: same configuration, same lifetime counters and
    /// the same `flow → (server, last_active)` entries — independent of shard
    /// layout, slot placement or touch history.
    fn eq(&self, other: &Self) -> bool {
        if self.config != other.config
            || self.len != other.len
            || self.inserted != other.inserted
            || self.expired != other.expired
            || self.evictions != other.evictions
        {
            return false;
        }
        self.shards.iter().all(|shard| {
            // srlb-lint: allow(unordered-iter) -- `.all()` over every entry is order-independent; no order-sensitive value escapes
            shard.map.iter().all(|(key, &idx)| {
                let slot = &shard.slots[idx as usize];
                let other_shard = &other.shards[other.shard_of(key)];
                other_shard.map.get(key).is_some_and(|&oidx| {
                    let oslot = &other_shard.slots[oidx as usize];
                    oslot.server == slot.server && oslot.last_active == slot.last_active
                })
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
        // Many flows spread over shards; the victim must always be the entry
        // with the globally smallest touch sequence, regardless of shard.
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
        // A single shard makes the recycling bound exact: storage never
        // exceeds the shard's peak occupancy, i.e. the capacity.
        let mut table = FlowState::with_config(
            FlowStateConfig::new()
                .with_idle_timeout(SimDuration::from_secs(100))
                .with_capacity(2)
                .with_shards(1),
        );
        for p in 0..20u16 {
            table.learn(flow(p), server(p), at(p as u64));
        }
        assert_eq!(table.len(), 2);
        assert_eq!(table.stats().evictions.total(), 18);
        assert_eq!(
            table.shards[0].slots.len(),
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
    fn shard_counts_are_validated() {
        FlowStateConfig::new().with_shards(1);
        FlowStateConfig::new().with_shards(64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_panics() {
        FlowStateConfig::new().with_shards(6);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        FlowStateConfig::new().with_capacity(0);
    }
}
