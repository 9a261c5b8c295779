//! Integration test: the load balancer's periodic flow-table expiry sweep.
//!
//! Long-idle flows must disappear from the flow table (so the table does not
//! grow without bound across a 24-hour replay), while the stickiness of
//! active flows is unaffected.

use srlb::core::dispatch::RandomDispatcher;
use srlb::core::{FlowState, LoadBalancerNode};
use srlb::net::{AddressPlan, Packet, PacketBuilder, ServerId, TcpFlags};
use srlb::server::server_node::encode_request_payload;
use srlb::server::{Directory, PolicyConfig, ServerConfig, ServerNode};
use srlb::sim::{Context, Network, Node, NodeId, RunUntil, SimDuration, SimTime, Topology};

/// A client that opens one connection at start-up and nothing else.
#[derive(Debug)]
struct OneShotClient {
    lb: NodeId,
    responses: u32,
}

impl Node<Packet> for OneShotClient {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        let plan = AddressPlan::default();
        let syn = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
            .ports(55_000, 80)
            .flags(TcpFlags::SYN)
            .build();
        ctx.send(self.lb, syn);
    }

    fn on_message(&mut self, packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        let plan = AddressPlan::default();
        if packet.is_syn_ack() {
            let request = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
                .ports(55_000, 80)
                .flags(TcpFlags::ACK | TcpFlags::PSH)
                .payload(encode_request_payload(1, SimDuration::from_millis(10)))
                .build();
            ctx.send(self.lb, request);
        } else if packet.tcp.flags.contains(TcpFlags::PSH) {
            self.responses += 1;
        }
    }
}

#[test]
fn idle_flows_are_swept_from_the_flow_table() {
    let plan = AddressPlan::default();
    let client_id = NodeId(0);
    let lb_id = NodeId(1);
    let server_id = NodeId(2);

    let mut directory = Directory::new();
    directory.register(plan.client_addr(0), client_id);
    directory.register(plan.lb_addr(), lb_id);
    directory.register(plan.vip(0), lb_id);
    directory.register(plan.server_addr(ServerId(0)), server_id);

    let mut net: Network<Packet> = Network::new(1, Topology::datacenter());
    net.add_node(OneShotClient {
        lb: lb_id,
        responses: 0,
    });
    // A short idle timeout and a frequent sweep so the test stays fast.
    let lb = LoadBalancerNode::new(
        plan.lb_addr(),
        plan.vip(0),
        directory.clone(),
        Box::new(RandomDispatcher::single_random(vec![
            plan.server_addr(ServerId(0))
        ])),
    )
    .with_flow_table(FlowState::new(SimDuration::from_secs(2)))
    .with_expiry_sweep(SimDuration::from_secs(1));
    net.add_node(lb);
    net.add_node(ServerNode::new(
        ServerConfig::paper(
            0,
            plan.server_addr(ServerId(0)),
            plan.lb_addr(),
            PolicyConfig::Static { threshold: 4 },
        ),
        directory,
    ));

    // Shortly after the exchange, the flow is still in the table.
    net.run_until(RunUntil::Time(SimTime::from_secs_f64(0.5)));
    let still_there = net
        .node_as::<LoadBalancerNode>(lb_id)
        .expect("lb node present")
        .flow_table_len();
    assert_eq!(
        still_there, 1,
        "the learned flow is present right after the exchange"
    );

    // Well past the idle timeout, the sweep has removed it.
    net.run_until(RunUntil::Time(SimTime::from_secs_f64(10.0)));
    let after_sweep = net
        .node_as::<LoadBalancerNode>(lb_id)
        .expect("lb node present")
        .flow_table_len();
    assert_eq!(after_sweep, 0, "the idle flow must be swept");

    // The request itself completed normally.
    let client: OneShotClient = net.take_node(client_id).unwrap();
    assert_eq!(client.responses, 1);
    let lb_node: LoadBalancerNode = net.take_node(lb_id).unwrap();
    assert_eq!(lb_node.stats().flows_learned, 1);
}
