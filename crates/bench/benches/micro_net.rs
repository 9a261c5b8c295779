//! Micro-benchmarks of the packet layer: SRH and packet encode/decode, flow
//! key hashing — the per-packet operations a real SRLB dataplane performs on
//! every SYN — and what it costs the simulator to move a packet: the
//! engine-loop ping-pong of `figures -- bench-micro`, bouncing a routed SYN.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_net::{AddressPlan, PacketBuilder, SegmentRoutingHeader, ServerId, TcpFlags};

fn bench(c: &mut Criterion) {
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
    let wire = packet.encode();

    c.bench_function("srh_encode", |b| {
        b.iter(|| criterion::black_box(srh.encode()))
    });
    c.bench_function("srh_decode", |b| {
        let bytes = srh.encode();
        b.iter(|| criterion::black_box(SegmentRoutingHeader::decode(&bytes).unwrap()))
    });
    c.bench_function("packet_encode", |b| {
        b.iter(|| criterion::black_box(packet.encode()))
    });
    c.bench_function("packet_decode", |b| {
        b.iter(|| criterion::black_box(srlb_net::Packet::decode(&wire).unwrap()))
    });
    c.bench_function("flow_key_stable_hash", |b| {
        let key = packet.flow_key_forward();
        b.iter(|| criterion::black_box(key.stable_hash()))
    });
    // 4 pairs × 251 events per iteration.
    c.bench_function("engine_loop_packet_stepwise", |b| {
        b.iter(|| criterion::black_box(srlb_bench::micro::packet_ping_pong(250, false)))
    });
    c.bench_function("engine_loop_packet_batched", |b| {
        b.iter(|| criterion::black_box(srlb_bench::micro::packet_ping_pong(250, true)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
