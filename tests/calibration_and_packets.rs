//! Integration tests: λ₀ calibration against the full cluster, and
//! wire-format interoperability between the crates (a packet built by the
//! load balancer decodes identically after a byte-level round trip).

use srlb::core::calibration::{analytic_lambda0, calibrate_lambda0, CalibrationConfig};
use srlb::core::dispatch::{CandidateList, Dispatcher, RandomDispatcher};
use srlb::net::{
    AddressPlan, FlowKey, Packet, PacketBuilder, Protocol, SegmentRoutingHeader, ServerId, TcpFlags,
};
use srlb::server::{Directory, PolicyConfig, ServerConfig, ServerNode};
use srlb::sim::{Context, Network, Node, NodeId, RunUntil, SimRng, Topology};

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

/// Hands one hunted SYN to the server and keeps the SYN-ACK it answers.
#[derive(Debug)]
struct SynAckProbe {
    syn: Option<Packet>,
    syn_ack: Option<Packet>,
}

impl Node<Packet> for SynAckProbe {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        if let Some(syn) = self.syn.take() {
            ctx.send(NodeId(1), syn);
        }
    }

    fn on_message(&mut self, packet: Packet, _from: NodeId, _ctx: &mut Context<'_, Packet>) {
        self.syn_ack = Some(packet);
    }
}

#[test]
fn acceptance_syn_ack_wire_roundtrip_names_the_server() {
    let plan = AddressPlan::default();
    let server = plan.server_addr(ServerId(5));
    let mut directory = Directory::new();
    directory.register(plan.lb_addr(), NodeId(0));
    let syn = PacketBuilder::tcp(plan.client_addr(3), plan.vip(0))
        .ports(51_000, 80)
        .flags(TcpFlags::SYN)
        .segment_routing(SegmentRoutingHeader::from_route(&[server, plan.vip(0)]).unwrap())
        .build();
    let mut net: Network<Packet> = Network::new(1, Topology::datacenter());
    net.add_node(SynAckProbe {
        syn: Some(syn),
        syn_ack: None,
    });
    let config = ServerConfig::paper(5, server, plan.lb_addr(), PolicyConfig::NeverAccept);
    net.add_node(ServerNode::new(config, directory));
    net.run_until(RunUntil::Drained);
    let probe: SynAckProbe = net.take_node(NodeId(0)).unwrap();
    let syn_ack = probe
        .syn_ack
        .expect("the server answers through the load balancer");
    assert!(syn_ack.is_syn_ack());

    let decoded = Packet::decode(&syn_ack.encode()).unwrap();
    let srh = decoded.srh.expect("SRH present");
    assert_eq!(srh.first_segment(), server);
    assert_eq!(srh.active_segment(), plan.lb_addr());
    assert_eq!(srh.final_segment(), plan.client_addr(3));
}
