//! Property-based tests: wire-format round trips and SR endpoint invariants.

use std::net::Ipv6Addr;

use proptest::prelude::*;
use srlb_net::{
    FlowKey, Ipv6Header, NextHeader, Packet, PacketBuilder, Protocol, SegmentRoutingHeader,
    TcpFlags, TcpHeader,
};

fn arb_ipv6_addr() -> impl Strategy<Value = Ipv6Addr> {
    any::<[u8; 16]>().prop_map(Ipv6Addr::from)
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    any::<u8>().prop_map(TcpFlags::from_bits)
}

fn arb_tcp_header() -> impl Strategy<Value = TcpHeader> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        arb_flags(),
        any::<u16>(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(
            |(sp, dp, seq, ack, flags, window, checksum, urgent)| TcpHeader {
                source_port: sp,
                destination_port: dp,
                sequence: seq,
                acknowledgment: ack,
                flags,
                window,
                checksum,
                urgent,
            },
        )
}

fn arb_ipv6_header() -> impl Strategy<Value = Ipv6Header> {
    (
        any::<u8>(),
        0u32..=0x000f_ffff,
        any::<u16>(),
        any::<u8>(),
        any::<u8>(),
        arb_ipv6_addr(),
        arb_ipv6_addr(),
    )
        .prop_map(|(tc, fl, plen, nh, hops, src, dst)| Ipv6Header {
            traffic_class: tc,
            flow_label: fl,
            payload_length: plen,
            next_header: NextHeader::from(nh),
            hop_limit: hops,
            source: src,
            destination: dst,
        })
}

fn arb_route() -> impl Strategy<Value = Vec<Ipv6Addr>> {
    prop::collection::vec(arb_ipv6_addr(), 1..=srlb_net::MAX_SEGMENTS)
}

/// The historical `Vec<Ipv6Addr>`-backed SRH encoder, reproduced here as an
/// executable reference: the inline-array representation must emit exactly
/// these bytes for every route it accepts.
fn reference_encode(route: &[Ipv6Addr], tag: u16, flags: u8) -> Vec<u8> {
    let mut wire_order: Vec<Ipv6Addr> = route.to_vec();
    wire_order.reverse();
    let last_entry = (wire_order.len() - 1) as u8;
    let mut out = vec![
        6, // next header: TCP
        (2 * wire_order.len()) as u8,
        4, // routing type 4
        last_entry,
        last_entry,
        flags,
    ];
    out.extend_from_slice(&tag.to_be_bytes());
    for segment in &wire_order {
        out.extend_from_slice(&segment.octets());
    }
    out
}

proptest! {
    #[test]
    fn ipv6_header_roundtrip(hdr in arb_ipv6_header()) {
        let decoded = Ipv6Header::decode(&hdr.encode()).unwrap();
        prop_assert_eq!(decoded, hdr);
    }

    #[test]
    fn tcp_header_roundtrip(hdr in arb_tcp_header()) {
        let (decoded, consumed) = TcpHeader::decode(&hdr.encode()).unwrap();
        prop_assert_eq!(consumed, srlb_net::TCP_HEADER_LEN);
        prop_assert_eq!(decoded, hdr);
    }

    #[test]
    fn srh_roundtrip(route in arb_route(), tag in any::<u16>(), flags in any::<u8>()) {
        let mut srh = SegmentRoutingHeader::from_route(&route).unwrap();
        srh.tag = tag;
        srh.flags = flags;
        let bytes = srh.encode();
        let (decoded, consumed) = SegmentRoutingHeader::decode(&bytes).unwrap();
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, srh);
    }

    #[test]
    fn srh_inline_encoding_matches_vec_reference(
        route in arb_route(),
        tag in any::<u16>(),
        flags in any::<u8>(),
    ) {
        // The inline-array segment list must be byte-identical on the wire
        // to the old heap-Vec representation, for every 1..=MAX_SEGMENTS
        // route (fresh `from_route` headers have segments_left = last
        // entry, as the reference emits).
        let mut srh = SegmentRoutingHeader::from_route(&route).unwrap();
        srh.tag = tag;
        srh.flags = flags;
        prop_assert_eq!(srh.encode(), reference_encode(&route, tag, flags));
    }

    #[test]
    fn srh_route_accessor_matches_input(route in arb_route()) {
        let srh = SegmentRoutingHeader::from_route(&route).unwrap();
        prop_assert_eq!(srh.route(), route.clone());
        prop_assert_eq!(srh.active_segment(), route[0]);
        prop_assert_eq!(srh.final_segment(), *route.last().unwrap());
    }

    #[test]
    fn srh_advance_visits_route_in_order(route in arb_route()) {
        let mut srh = SegmentRoutingHeader::from_route(&route).unwrap();
        let mut visited = vec![srh.active_segment()];
        while let Ok(next) = srh.advance() {
            visited.push(next);
        }
        prop_assert_eq!(visited, route);
        prop_assert_eq!(srh.segments_left(), 0);
    }

    #[test]
    fn packet_roundtrip(
        src in arb_ipv6_addr(),
        dst in arb_ipv6_addr(),
        route in proptest::option::of(arb_route()),
        tcp in arb_tcp_header(),
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut builder = PacketBuilder::tcp(src, dst)
            .ports(tcp.source_port, tcp.destination_port)
            .flags(tcp.flags)
            .sequence(tcp.sequence)
            .acknowledgment(tcp.acknowledgment)
            .payload(payload);
        if let Some(route) = route {
            builder = builder.segment_routing(SegmentRoutingHeader::from_route(&route).unwrap());
        }
        let pkt = builder.build();
        let decoded = Packet::decode(&pkt.encode()).unwrap();
        prop_assert_eq!(decoded, pkt);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        // Must not panic; errors are fine.
        let _ = Packet::decode(&bytes);
        let _ = Ipv6Header::decode(&bytes);
        let _ = TcpHeader::decode(&bytes);
        let _ = SegmentRoutingHeader::decode(&bytes);
    }

    #[test]
    fn stable_hash_is_direction_invariant_under_flow_key_helpers(
        client in arb_ipv6_addr(),
        vip in arb_ipv6_addr(),
        cport in any::<u16>(),
        vport in any::<u16>(),
    ) {
        let req = PacketBuilder::tcp(client, vip)
            .ports(cport, vport)
            .flags(TcpFlags::SYN)
            .build();
        let reply = PacketBuilder::tcp(vip, client)
            .ports(vport, cport)
            .flags(TcpFlags::SYN_ACK)
            .build();
        prop_assert_eq!(req.flow_key_forward(), reply.flow_key_reverse());
    }

    // --- the flow hash a packet carries -----------------------------------
    //
    // Debug builds re-check the carried hash inside every extraction below,
    // so these properties also fail there if a rewrite leaves a stale hash.

    #[test]
    fn carried_hash_gives_the_same_key_as_hashing_the_tuple(
        client in arb_ipv6_addr(),
        vip in arb_ipv6_addr(),
        cport in any::<u16>(),
        vport in any::<u16>(),
        hunt in proptest::option::of(arb_route()),
        acceptance in proptest::option::of(arb_route()),
    ) {
        let flow = FlowKey::new(client, vip, cport, vport, Protocol::Tcp);
        // Client → VIP, bare or hunted along any route that ends at the VIP.
        let mut request = PacketBuilder::forward(&flow).flags(TcpFlags::SYN).build();
        if let Some(mut route) = hunt {
            *route.last_mut().unwrap() = vip;
            request.set_route(&route, 0).unwrap();
        }
        prop_assert_eq!(request.flow_key_forward(), flow);
        prop_assert_eq!(request.flow_key_forward().stable_hash(), flow.stable_hash());
        // VIP → client, bare or along any route that ends at the client.
        let mut reply = PacketBuilder::reverse(&flow).flags(TcpFlags::SYN_ACK).build();
        if let Some(mut route) = acceptance {
            *route.last_mut().unwrap() = client;
            reply.insert_srh(SegmentRoutingHeader::from_route(&route).unwrap());
        }
        prop_assert_eq!(reply.flow_key_reverse(), flow);
        prop_assert_eq!(reply.flow_key_reverse().stable_hash(), flow.stable_hash());
    }

    #[test]
    fn carried_hash_is_invisible_to_equality_and_the_wire(
        client in arb_ipv6_addr(),
        vip in arb_ipv6_addr(),
        cport in any::<u16>(),
        vport in any::<u16>(),
        route in proptest::option::of(arb_route()),
        payload in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let flow = FlowKey::new(client, vip, cport, vport, Protocol::Tcp);
        let mut with = PacketBuilder::forward(&flow)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(payload.clone())
            .build();
        let mut without = PacketBuilder::tcp(client, vip)
            .ports(cport, vport)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(payload)
            .build();
        if let Some(route) = route {
            with.set_route(&route, 0).unwrap();
            without.set_route(&route, 0).unwrap();
        }
        prop_assert_eq!(&with, &without);
        prop_assert_eq!(with.encode(), without.encode());
        // Decoding yields a packet without a hash; it still equals both, and
        // its keys are the hashed ones.
        let decoded = Packet::decode(&with.encode()).unwrap();
        prop_assert_eq!(&decoded, &with);
        prop_assert_eq!(&decoded, &without);
        prop_assert_eq!(decoded.flow_key_forward(), with.flow_key_forward());
        prop_assert_eq!(decoded.flow_key_forward(), without.flow_key_forward());
    }

    #[test]
    fn srh_rewrites_never_leave_a_stale_hash(
        client in arb_ipv6_addr(),
        vip in arb_ipv6_addr(),
        cport in any::<u16>(),
        vport in any::<u16>(),
        rewrites in prop::collection::vec((0u8..6, arb_route(), any::<u8>()), 0..12),
    ) {
        // Any sequence of SR operations, including routes that end somewhere
        // other than the VIP: the extracted key always equals the one hashed
        // from the packet's current tuple.
        let flow = FlowKey::new(client, vip, cport, vport, Protocol::Tcp);
        let mut packet = PacketBuilder::forward(&flow).flags(TcpFlags::SYN).build();
        for (kind, mut route, n) in rewrites {
            match kind {
                0 => {
                    *route.last_mut().unwrap() = vip;
                    let _ = packet.set_route(&route, usize::from(n) % route.len());
                }
                1 => {
                    let _ = packet.set_route(&route, usize::from(n) % (route.len() + 1));
                }
                2 => packet.insert_srh(SegmentRoutingHeader::from_route(&route).unwrap()),
                3 => {
                    let _ = packet.advance_segment();
                }
                4 => {
                    let _ = packet.set_segments_left(n % 9);
                }
                _ => {
                    packet.strip_srh();
                }
            }
            let hashed = FlowKey::new(
                packet.source(),
                packet.final_destination(),
                cport,
                vport,
                Protocol::Tcp,
            );
            prop_assert_eq!(packet.flow_key_forward(), hashed);
            prop_assert_eq!(packet.flow_key_forward().stable_hash(), hashed.stable_hash());
        }
    }
}
