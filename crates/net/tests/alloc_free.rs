//! Asserts that the per-packet hot path performs **zero heap allocations**:
//! SRH decode, encode into a reused buffer, `Segments Left` manipulation,
//! flow-key extraction/hashing, whole-packet decode of payload-less
//! packets (every SYN / SYN-ACK the load balancer handles), and the life of
//! the three application payloads — request, response, load hint — which
//! are at most 16 bytes and live inline in the packet.
//!
//! The whole file is a single `#[test]` so the counting global allocator is
//! never polluted by a concurrently running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use srlb_net::{
    AddressPlan, FlowKey, Packet, PacketBuilder, Payload, Protocol, SegmentRoutingHeader, ServerId,
    TcpFlags, INLINE_PAYLOAD_CAP,
};

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
fn per_packet_hot_path_is_allocation_free() {
    let plan = AddressPlan::default();
    let route = vec![
        plan.server_addr(ServerId(3)),
        plan.server_addr(ServerId(7)),
        plan.vip(0),
    ];
    let srh = SegmentRoutingHeader::from_route(&route).unwrap();
    let packet = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
        .ports(49_152, 80)
        .flags(TcpFlags::SYN)
        .segment_routing(srh.clone())
        .build();
    let srh_bytes = srh.encode();
    let wire = packet.encode();
    // Reused encode buffer, pre-grown once outside the measured region.
    let mut out = Vec::with_capacity(wire.len().max(srh_bytes.len()));

    // SRH decode: the segment list is inline, no Vec per header.
    let (allocs, decoded) = counting_allocs(|| SegmentRoutingHeader::decode(&srh_bytes).unwrap().0);
    assert_eq!(allocs, 0, "SRH decode must not allocate");
    assert_eq!(decoded, srh);

    // SRH encode into a reused buffer.
    let (allocs, ()) = counting_allocs(|| {
        out.clear();
        srh.encode_into(&mut out);
    });
    assert_eq!(allocs, 0, "SRH encode_into a warm buffer must not allocate");
    assert_eq!(out, srh_bytes);

    // Segments Left manipulation (Algorithm 1's local decisions).
    let mut walking = srh.clone();
    let (allocs, _) = counting_allocs(|| {
        walking.advance().unwrap();
        walking.set_segments_left(0).unwrap();
        walking.set_segments_left(2).unwrap();
        walking.active_segment()
    });
    assert_eq!(allocs, 0, "segments-left manipulation must not allocate");

    // Whole-packet decode of a payload-less packet (handshake traffic).
    let (allocs, decoded_packet) = counting_allocs(|| Packet::decode(&wire).unwrap());
    assert_eq!(allocs, 0, "payload-less packet decode must not allocate");
    assert_eq!(decoded_packet, packet);

    // Packet encode into a reused buffer is covered by encode_into above for
    // the SRH; whole-packet encode returns a fresh Vec by design (one
    // allocation), so just sanity-check it is exactly one.
    let (allocs, _) = counting_allocs(|| packet.encode());
    assert!(
        allocs <= 1,
        "packet encode should allocate at most the output Vec, got {allocs}"
    );

    // Flow-key extraction and hashing.
    let (allocs, _) = counting_allocs(|| {
        let key = decoded_packet.flow_key_forward();
        (key.stable_hash(), key.reversed().stable_hash())
    });
    assert_eq!(allocs, 0, "flow-key extraction/hashing must not allocate");

    // SR endpoint behaviour on the packet itself.
    let mut hunted = packet.clone();
    let (allocs, _) = counting_allocs(|| {
        hunted.advance_segment().unwrap();
        hunted.set_segments_left(0).unwrap();
        hunted.current_destination()
    });
    assert_eq!(allocs, 0, "packet SR endpoint operations must not allocate");

    // The three payloads the nodes exchange, shaped as `srlb-server` encodes
    // them (request: id + service nanos; response: id + server index; load
    // hint: busy, workers, backlog): built from a stack array, carried by a
    // packet built for its flow, cloned, read back, decoded from the wire
    // and dropped, all without touching the heap.
    let flow = FlowKey::new(plan.client_addr(0), plan.vip(0), 49_152, 80, Protocol::Tcp);
    let mut wire = Vec::with_capacity(128);
    for (kind, len) in [("request", 16usize), ("response", 12), ("load hint", 12)] {
        let (allocs, ()) = counting_allocs(|| {
            let mut buf = [0u8; INLINE_PAYLOAD_CAP];
            buf[..8].copy_from_slice(&42u64.to_be_bytes());
            let payload = Payload::copy_from_slice(&buf[..len]);
            let sent = PacketBuilder::forward(&flow)
                .flags(TcpFlags::ACK | TcpFlags::PSH)
                .payload(payload)
                .build();
            let copy = sent.clone();
            assert_eq!(copy.payload.len(), len);
            assert_eq!(&copy.payload[..], &buf[..len]);
            assert_eq!(copy.flow_key_forward(), flow);
            drop(sent);
            drop(copy);
        });
        assert_eq!(allocs, 0, "the {kind} payload must live inline");
        // Decoding such a packet does not allocate either.
        wire.clear();
        wire.extend_from_slice(
            &PacketBuilder::forward(&flow)
                .payload(Payload::copy_from_slice(&[7u8; INLINE_PAYLOAD_CAP][..len]))
                .build()
                .encode(),
        );
        let (allocs, decoded) = counting_allocs(|| Packet::decode(&wire).unwrap());
        assert_eq!(allocs, 0, "decoding a {kind} packet must not allocate");
        assert_eq!(decoded.payload.len(), len);
    }
    // One byte more goes to the heap: exactly one shared buffer, and clones
    // share it.
    let (allocs, long) =
        counting_allocs(|| Payload::copy_from_slice(&[1u8; INLINE_PAYLOAD_CAP + 1]));
    assert_eq!(allocs, 1, "a 17-byte payload takes one buffer");
    let (allocs, copy) = counting_allocs(|| long.clone());
    assert_eq!(allocs, 0, "cloning a long payload shares its buffer");
    assert_eq!(copy, long);
}
