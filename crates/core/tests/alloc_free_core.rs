//! Asserts that the load balancer's per-flow operations perform **zero
//! heap allocations** once steady state is reached: candidate selection
//! through every dispatcher (written into a reusable [`CandidateList`]),
//! flow-table learn/lookup of warm entries, and the request, response and
//! load-hint payloads as `srlb-server` really encodes them.
//!
//! The whole file is a single `#[test]` so the counting global allocator is
//! never polluted by a concurrently running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use srlb_core::dispatch::{
    CandidateList, ConsistentHashDispatcher, Dispatcher, MaglevDispatcher, RandomDispatcher,
};
use srlb_core::FlowState;
use srlb_net::{AddressPlan, FlowKey, Protocol};
use srlb_sim::{SimRng, SimTime};

/// Wraps the system allocator, counting every allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter has no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` and returns `(allocations performed, result)`.
fn counting_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

#[test]
fn per_flow_operations_are_allocation_free() {
    let plan = AddressPlan::default();
    let servers: Vec<_> = plan.server_addrs(12).collect();
    let keys: Vec<FlowKey> = (0..256u16)
        .map(|p| {
            FlowKey::new(
                plan.client_addr(0),
                plan.vip(0),
                1024 + p,
                80,
                Protocol::Tcp,
            )
        })
        .collect();
    let mut rng = SimRng::new(1);
    let mut out = CandidateList::new();

    let mut random = RandomDispatcher::power_of_two(servers.clone());
    let mut ring = ConsistentHashDispatcher::new(servers.clone(), 128, 2);
    let mut maglev = MaglevDispatcher::new(servers.clone(), 65_537, 2);

    let (allocs, _) = counting_allocs(|| {
        for key in &keys {
            random.candidates_into(key, &mut rng, &mut out);
            assert_eq!(out.len(), 2);
            ring.candidates_into(key, &mut rng, &mut out);
            assert_eq!(out.len(), 2);
            maglev.candidates_into(key, &mut rng, &mut out);
            assert_eq!(out.len(), 2);
        }
    });
    assert_eq!(allocs, 0, "candidate selection must not allocate per flow");

    // Flow table: warm it up (growth allocates), then learn/lookup of
    // existing entries must be allocation-free.
    let mut table = FlowState::with_default_timeout();
    for (i, key) in keys.iter().enumerate() {
        table.learn(*key, servers[i % servers.len()], SimTime::ZERO);
    }
    let (allocs, _) = counting_allocs(|| {
        for (i, key) in keys.iter().enumerate() {
            table.learn(*key, servers[i % servers.len()], SimTime::ZERO);
            assert!(table.lookup(key, SimTime::ZERO).is_some());
        }
    });
    assert_eq!(
        allocs, 0,
        "warm flow-table learn/lookup must not allocate per flow"
    );

    // Bounded table under sustained eviction pressure: cycle a fixed
    // working set twice the capacity, so every learn of a currently-absent
    // key evicts the LRU entry and recycles its slot from the free list.
    // After one warm-up lap has grown the table to its peak, the
    // steady-state learn → evict → reinsert → lookup cycle must not touch
    // the allocator.
    let mut bounded =
        srlb_core::FlowState::with_config(srlb_core::FlowStateConfig::new().with_capacity(128));
    // Two untimed laps: the first fills the table, the second cycles the
    // eviction window through every wrap-around position so the slot
    // storage and index map reach their all-time peak before timing.
    for _ in 0..2 {
        for (i, key) in keys.iter().enumerate() {
            bounded.learn(*key, servers[i % servers.len()], SimTime::ZERO);
        }
    }
    let evictions_before = bounded.stats().evictions.total();
    let (allocs, _) = counting_allocs(|| {
        for _ in 0..4 {
            for (i, key) in keys.iter().enumerate() {
                bounded.learn(*key, servers[i % servers.len()], SimTime::ZERO);
                assert!(bounded.lookup(key, SimTime::ZERO).is_some());
            }
            assert_eq!(bounded.len(), 128);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm bounded learn/evict/lookup must not allocate per flow"
    );
    // Every learn of the cycling working set evicted the LRU entry: the
    // timed section exercised the eviction path on all 4 × 256 learns.
    assert_eq!(
        bounded.stats().evictions.total(),
        evictions_before + 4 * keys.len() as u64
    );

    // The payloads every request costs: encoded, cloned, decoded, dropped.
    use srlb_server::server_node::{
        decode_load_hint, decode_request_payload, decode_response_payload, encode_load_hint,
        encode_request_payload, encode_response_payload,
    };
    let (allocs, _) = counting_allocs(|| {
        let service = srlb_sim::SimDuration::from_millis(80);
        let request = encode_request_payload(u64::MAX, service);
        assert_eq!(
            decode_request_payload(&request.clone()),
            Some((u64::MAX, service))
        );
        let response = encode_response_payload(7, 11);
        assert_eq!(decode_response_payload(&response.clone()), Some((7, 11)));
        let hint = encode_load_hint(5, 32, 17);
        assert_eq!(decode_load_hint(&hint.clone()), Some((5, 32, 17)));
    });
    assert_eq!(
        allocs, 0,
        "request/response/load-hint payloads must be inline"
    );
}
