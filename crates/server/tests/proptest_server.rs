//! Property-based tests for the server substrates: processor-sharing CPU
//! work conservation, worker-pool bookkeeping, and a server's connection
//! record living exactly as long as its retire horizon.  The backlog and
//! the acceptance policies are properties of `ServerNode` and `policy.rs`'s
//! crate-private state, tested in their unit tests.

use std::net::Ipv6Addr;

use proptest::prelude::*;
use srlb_net::{Packet, PacketBuilder, SegmentRoutingHeader, TcpFlags};
use srlb_server::cpu::ProcessorSharingCpu;
use srlb_server::server_node::{decode_response_payload, encode_request_payload};
use srlb_server::{Directory, PolicyConfig, ServerConfig, ServerNode, WorkerPool};
use srlb_sim::{
    Context, Network, Node, NodeId, RunUntil, SimDuration, SimTime, TimerToken, Topology,
};

fn t_ms(ms: u64) -> SimTime {
    SimTime::from_nanos(ms * 1_000_000)
}

fn addr(n: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, n)
}

const SERVER: u16 = 1;
const PEER: u16 = 100;
const VIP: u16 = 200;

/// Sends its script, `(milliseconds from the start, packet)`, to the server
/// and keeps the request ids of the responses it gets back: it stands in
/// for the client, the load balancer and the VIP.
#[derive(Debug)]
struct Probe {
    script: Vec<(u64, Packet)>,
    responses: Vec<u64>,
}

impl Node<Packet> for Probe {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        for (i, &(at_ms, _)) in self.script.iter().enumerate() {
            ctx.schedule_timer(SimDuration::from_millis(at_ms), TimerToken(i as u64));
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Packet>) {
        ctx.send(NodeId(1), self.script[token.0 as usize].1.clone());
    }

    fn on_message(&mut self, packet: Packet, _from: NodeId, _ctx: &mut Context<'_, Packet>) {
        if packet.srh.is_none() {
            self.responses
                .extend(decode_response_payload(&packet.payload).map(|(id, _)| id));
        }
    }
}

/// Runs `script` into one server retiring at `horizon`; returns the server
/// and the ids of the responses that came back.
fn serve(horizon: Option<SimDuration>, script: Vec<(u64, Packet)>) -> (ServerNode, Vec<u64>) {
    let mut directory = Directory::new();
    for a in [PEER, VIP] {
        directory.register(addr(a), NodeId(0));
    }
    directory.register(addr(SERVER), NodeId(1));
    let config = ServerConfig::paper(0, addr(SERVER), addr(PEER), PolicyConfig::AlwaysAccept);
    let mut server = ServerNode::new(config, directory);
    if let Some(horizon) = horizon {
        server = server.with_retire_horizon(horizon);
    }
    let mut net = Network::new(1, Topology::datacenter());
    net.add_node(Probe {
        script,
        responses: Vec::new(),
    });
    net.add_node(server);
    net.run_until(RunUntil::Drained);
    let server: ServerNode = net.take_node(NodeId(1)).unwrap();
    let probe: Probe = net.take_node(NodeId(0)).unwrap();
    (server, probe.responses)
}

/// The hunted SYN of the flow from `port`, with the server as the last
/// candidate.
fn syn(port: u16) -> Packet {
    PacketBuilder::tcp(addr(PEER), addr(VIP))
        .ports(port, 80)
        .flags(TcpFlags::SYN)
        .segment_routing(SegmentRoutingHeader::from_route(&[addr(SERVER), addr(VIP)]).unwrap())
        .build()
}

/// Request `id` for `service_ms` of CPU on the flow from `port`, steered to
/// the server.
fn request(port: u16, id: u64, service_ms: u64) -> Packet {
    let mut packet = PacketBuilder::tcp(addr(PEER), addr(VIP))
        .ports(port, 80)
        .flags(TcpFlags::ACK | TcpFlags::PSH)
        .payload(encode_request_payload(
            id,
            SimDuration::from_millis(service_ms),
        ))
        .build();
    packet.set_route(&[addr(SERVER), addr(VIP)], 0).unwrap();
    packet
}

proptest! {
    /// Under processor sharing, the total time to drain a batch of jobs that
    /// all arrive at t = 0 is bounded below by total_work / cores and bounded
    /// above by total_work (the single-core completion time), and every job
    /// completes.
    #[test]
    fn cpu_drain_time_is_bounded(
        cores in 1usize..8,
        demands_ms in prop::collection::vec(1u64..500, 1..40),
    ) {
        let mut cpu = ProcessorSharingCpu::new(cores);
        for (id, &d) in demands_ms.iter().enumerate() {
            cpu.add_job(id as u64, SimDuration::from_millis(d), t_ms(0));
        }
        let mut now = t_ms(0);
        let mut completed = 0usize;
        let mut guard = 0;
        while let Some(next) = cpu.next_completion(now) {
            now = next;
            completed += cpu.take_completed(now).len();
            guard += 1;
            prop_assert!(guard < 10_000, "completion loop did not converge");
        }
        prop_assert_eq!(completed, demands_ms.len());
        prop_assert!(cpu.is_idle());

        let total_work_s: f64 = demands_ms.iter().map(|&d| d as f64 / 1e3).sum();
        let drain_s = now.as_secs_f64();
        prop_assert!(drain_s + 1e-6 >= total_work_s / cores as f64,
            "drained faster than the cores allow: {drain_s} < {total_work_s}/{cores}");
        let max_single_ms = *demands_ms.iter().max().unwrap() as f64 / 1e3;
        prop_assert!(drain_s <= total_work_s + max_single_ms + 1e-6,
            "drained slower than a single core would: {drain_s} > {total_work_s}");
    }

    /// The per-job rate never exceeds one core and never drops below
    /// cores / jobs.
    #[test]
    fn cpu_rate_is_fair(cores in 1usize..8, jobs in 1usize..64) {
        let mut cpu = ProcessorSharingCpu::new(cores);
        for id in 0..jobs {
            cpu.add_job(id as u64, SimDuration::from_millis(100), t_ms(0));
        }
        let rate = cpu.rate();
        prop_assert!(rate <= 1.0 + 1e-12);
        prop_assert!((rate - (cores as f64 / jobs as f64).min(1.0)).abs() < 1e-12);
    }

    /// A request retransmitted within the horizon of its flow's SYN, after
    /// the response went out, is answered from the connection record; one
    /// horizon after the record's last change the server retires it, so a
    /// copy arriving later — which the horizon promises never happens — is
    /// served as a new request, and debug builds count it.  Without a
    /// horizon the record answers the late copy too.
    #[test]
    fn retransmission_inside_the_horizon_is_replayed_and_the_flow_retires_after_it(
        service_ms in 1u64..50,
        extra_ms in 3u64..200,
        retransmit_at in 0.0f64..1.0,
    ) {
        let horizon_ms = service_ms + extra_ms;
        // After the job completes, and before the horizon since the SYN.
        let retransmit_ms = service_ms + 2 + ((extra_ms - 3) as f64 * retransmit_at) as u64;
        let late_ms = 2 * horizon_ms + 10;
        let script = vec![
            (0, syn(40_000)),
            (1, request(40_000, 7, service_ms)),
            (retransmit_ms, request(40_000, 7, service_ms)),
            (late_ms, request(40_000, 7, service_ms)),
        ];
        let horizon = SimDuration::from_millis(horizon_ms);
        let (server, responses) = serve(Some(horizon), script.clone());
        let stats = server.stats();
        prop_assert_eq!((stats.completed, stats.responses_replayed), (2, 1));
        prop_assert_eq!(responses, vec![7, 7, 7]);
        #[cfg(debug_assertions)]
        prop_assert_eq!(server.retired_hits(), 1);

        let (kept, responses) = serve(None, script);
        let stats = kept.stats();
        prop_assert_eq!((stats.completed, stats.responses_replayed), (1, 2));
        prop_assert_eq!(responses, vec![7, 7, 7]);
        prop_assert_eq!(kept.connection_count(), 1);
    }

    /// Claim/release sequences never corrupt the busy count, and the pool
    /// saturates exactly at its capacity.
    #[test]
    fn worker_pool_bookkeeping(total in 1usize..64, ops in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut pool = WorkerPool::new(total);
        let mut claimed = Vec::new();
        for claim in ops {
            if claim {
                match pool.claim() {
                    Some(id) => claimed.push(id),
                    None => prop_assert_eq!(pool.busy_count(), total),
                }
            } else if let Some(id) = claimed.pop() {
                pool.release(id);
            }
            prop_assert_eq!(pool.busy_count(), claimed.len());
            prop_assert_eq!(pool.idle_count(), total - claimed.len());
            prop_assert_eq!(pool.is_saturated(), claimed.len() == total);
            prop_assert_eq!(pool.total(), total);
        }
    }
}
