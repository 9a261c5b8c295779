//! Integration tests: λ₀ calibration against the full cluster, and
//! wire-format interoperability between the crates (a packet built by the
//! load balancer decodes identically after a byte-level round trip).

use srlb::core::calibration::{analytic_lambda0, calibrate_lambda0, CalibrationConfig};
use srlb::core::dispatch::{CandidateList, Dispatcher, RandomDispatcher};
use srlb::net::{
    AddressPlan, FlowKey, Packet, PacketBuilder, Protocol, SegmentRoutingHeader, TcpFlags,
};
use srlb::sim::SimRng;

#[test]
fn calibrated_lambda0_is_close_to_but_below_the_analytic_capacity() {
    // A reduced cluster so the probes stay fast in debug builds.
    let config = CalibrationConfig {
        servers: 4,
        workers: 8,
        cores: 2,
        backlog: 16,
        mean_service_ms: 50.0,
        probe_queries: 800,
        iterations: 6,
        reset_tolerance: 0.0,
        seed: 7,
    };
    let result = calibrate_lambda0(&config).expect("calibration runs");
    let analytic = analytic_lambda0(4, 2, 50.0); // 160 queries/s
    assert_eq!(result.analytic_upper_bound, analytic);
    assert!(
        result.lambda0 > 0.3 * analytic,
        "lambda0 {} too low",
        result.lambda0
    );
    assert!(result.lambda0 <= analytic);
    assert_eq!(result.probes.len(), 6);
}

#[test]
fn a_hunted_syn_survives_a_wire_roundtrip() {
    // Build the exact packet the load balancer would emit, encode it to
    // bytes (RFC 8754 SRH layout) and decode it back.
    let plan = AddressPlan::default();
    let servers: Vec<_> = plan.server_addrs(12).collect();
    let mut dispatcher = RandomDispatcher::power_of_two(servers);
    let mut rng = SimRng::new(4);
    let flow = FlowKey::new(plan.client_addr(0), plan.vip(0), 50_000, 80, Protocol::Tcp);
    let mut route = CandidateList::new();
    dispatcher.candidates_into(&flow, &mut rng, &mut route);
    route.push(plan.vip(0));

    let packet = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
        .ports(50_000, 80)
        .flags(TcpFlags::SYN)
        .segment_routing(SegmentRoutingHeader::from_route(&route).unwrap())
        .build();
    let bytes = packet.encode();
    let decoded = Packet::decode(&bytes).expect("wire format round trips");
    assert_eq!(decoded, packet);

    // The decoded SRH still walks the same candidates.
    let srh = decoded.srh.expect("SRH present");
    assert_eq!(srh.route(), route.as_slice());
    assert_eq!(srh.segments_left(), 2);
    assert_eq!(srh.final_segment(), plan.vip(0));
}

#[test]
fn acceptance_syn_ack_wire_roundtrip_names_the_server() {
    use srlb::server::VirtualRouter;
    let plan = AddressPlan::default();
    let router = VirtualRouter::new(plan.server_addr(srlb::net::ServerId(5)), plan.lb_addr());
    let mut syn_ack = PacketBuilder::tcp(plan.vip(0), plan.client_addr(3))
        .ports(80, 51_000)
        .flags(TcpFlags::SYN_ACK)
        .build();
    syn_ack
        .set_route(&router.acceptance_route(plan.client_addr(3)), 1)
        .unwrap();
    let decoded = Packet::decode(&syn_ack.encode()).unwrap();
    let srh = decoded.srh.expect("SRH present");
    assert_eq!(
        srh.first_segment(),
        plan.server_addr(srlb::net::ServerId(5))
    );
    assert_eq!(srh.active_segment(), plan.lb_addr());
    assert_eq!(srh.final_segment(), plan.client_addr(3));
}
