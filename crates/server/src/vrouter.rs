//! The SR-aware virtual router (paper Section II and Algorithm 1).
//!
//! Each server runs a virtual router (VPP in the paper) that dispatches
//! packets between the physical NIC and the application's virtual
//! interface.  For a hunted connection the router makes a purely local
//! decision: deliver the packet to the local application instance
//! (`SegmentsLeft ← 0`) or forward it to the next candidate in the SR list
//! (`SegmentsLeft ← SegmentsLeft − 1`).  The penultimate segment (the last
//! candidate server before the VIP) must not refuse.

use std::net::Ipv6Addr;

use srlb_net::{NetError, Packet};

use crate::agent::ApplicationAgent;
use crate::worker::Scoreboard;

/// The verdict of processing a packet at the virtual router.  The packet
/// itself is rewritten in place; the verdict only says where it goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterAction {
    /// Deliver the packet to the local application instance.
    DeliverLocal,
    /// Forward the packet towards `next_hop` (its new active segment).
    Forward {
        /// The address of the next candidate.
        next_hop: Ipv6Addr,
    },
}

/// The per-server virtual router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualRouter {
    /// The server's own physical address.
    server_addr: Ipv6Addr,
    /// The load balancer's address (used when building acceptance routes).
    lb_addr: Ipv6Addr,
}

impl VirtualRouter {
    /// Creates a virtual router for the server at `server_addr`, knowing the
    /// load balancer lives at `lb_addr`.
    pub fn new(server_addr: Ipv6Addr, lb_addr: Ipv6Addr) -> Self {
        VirtualRouter {
            server_addr,
            lb_addr,
        }
    }

    /// The server's own address.
    pub fn server_addr(&self) -> Ipv6Addr {
        self.server_addr
    }

    /// Processes an inbound packet per Algorithm 1, rewriting its SRH and
    /// destination in place.
    ///
    /// * No SRH, or `SegmentsLeft == 0` — the packet is addressed to this
    ///   server directly (steered traffic of an established flow): deliver
    ///   locally.
    /// * `SegmentsLeft == 1` — this server is the last candidate before the
    ///   VIP: it must accept; deliver locally with `SegmentsLeft ← 0`.
    /// * `SegmentsLeft >= 2` — consult the agent: on accept, deliver locally
    ///   with `SegmentsLeft ← 0`; otherwise forward to the next candidate.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] if the SRH is malformed (e.g. `SegmentsLeft`
    /// manipulation fails), which cannot happen for packets built by this
    /// workspace's load balancer.
    pub fn process(
        &self,
        packet: &mut Packet,
        agent: &mut ApplicationAgent,
        scoreboard: Scoreboard,
    ) -> Result<RouterAction, NetError> {
        let Some(srh) = packet.srh.as_ref() else {
            return Ok(RouterAction::DeliverLocal);
        };
        match srh.segments_left() {
            0 => Ok(RouterAction::DeliverLocal),
            1 => {
                // Penultimate segment: the application must not refuse.
                packet.set_segments_left(0)?;
                Ok(RouterAction::DeliverLocal)
            }
            _ => {
                if agent.decide(scoreboard).is_accept() {
                    packet.set_segments_left(0)?;
                    Ok(RouterAction::DeliverLocal)
                } else {
                    let next_hop = packet.advance_segment()?;
                    Ok(RouterAction::Forward { next_hop })
                }
            }
        }
    }

    /// The route a server gives its connection-acceptance packet (SYN-ACK):
    /// `[server, load-balancer, client]`, to be installed with the first
    /// segment consumed (`packet.set_route(&route, 1)`), so that the load
    /// balancer is the active segment: it both learns which server accepted
    /// the flow (the first, already-consumed segment) and forwards the
    /// packet on to the client.
    pub fn acceptance_route(&self, client: Ipv6Addr) -> [Ipv6Addr; 3] {
        [self.server_addr, self.lb_addr, client]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticThreshold;
    use srlb_net::{PacketBuilder, SegmentRoutingHeader, TcpFlags};

    fn addr(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, n)
    }

    fn hunted_syn(candidates: &[Ipv6Addr], vip: Ipv6Addr) -> Packet {
        let mut route = candidates.to_vec();
        route.push(vip);
        PacketBuilder::tcp(addr(100), vip)
            .ports(40_000, 80)
            .flags(TcpFlags::SYN)
            .segment_routing(SegmentRoutingHeader::from_route(&route).unwrap())
            .build()
    }

    fn agent(threshold: usize) -> ApplicationAgent {
        ApplicationAgent::new(Box::new(StaticThreshold::new(threshold)))
    }

    fn sb(busy: usize) -> Scoreboard {
        Scoreboard { busy, total: 32 }
    }

    #[test]
    fn first_candidate_accepts_when_below_threshold() {
        let router = VirtualRouter::new(addr(1), addr(99));
        let mut agent = agent(4);
        let mut p = hunted_syn(&[addr(1), addr(2)], addr(200));
        let action = router.process(&mut p, &mut agent, sb(2)).unwrap();
        assert_eq!(action, RouterAction::DeliverLocal);
        assert_eq!(p.srh.as_ref().unwrap().segments_left(), 0);
        assert_eq!(p.current_destination(), addr(200), "destination is the VIP");
        assert_eq!(agent.consultations(), 1);
        assert_eq!(agent.accepted(), 1);
    }

    #[test]
    fn first_candidate_forwards_when_busy() {
        let router = VirtualRouter::new(addr(1), addr(99));
        let mut agent = agent(4);
        let mut packet = hunted_syn(&[addr(1), addr(2)], addr(200));
        let action = router.process(&mut packet, &mut agent, sb(10)).unwrap();
        assert_eq!(action, RouterAction::Forward { next_hop: addr(2) });
        assert_eq!(packet.current_destination(), addr(2));
        assert_eq!(packet.srh.as_ref().unwrap().segments_left(), 1);
        assert_eq!(agent.accepted(), 0);
    }

    #[test]
    fn last_candidate_must_accept_even_when_saturated() {
        let router = VirtualRouter::new(addr(2), addr(99));
        let mut agent = agent(4);
        let mut packet = hunted_syn(&[addr(1), addr(2)], addr(200));
        // Simulate the first candidate having passed it on.
        packet.advance_segment().unwrap();
        let action = router.process(&mut packet, &mut agent, sb(32)).unwrap();
        assert_eq!(action, RouterAction::DeliverLocal);
        // The policy must not have been consulted for the forced acceptance.
        assert_eq!(agent.consultations(), 0);
    }

    #[test]
    fn steered_packet_without_srh_is_delivered() {
        let router = VirtualRouter::new(addr(1), addr(99));
        let mut agent = agent(0); // would refuse everything if consulted
        let mut packet = PacketBuilder::tcp(addr(100), addr(1))
            .ports(40_000, 80)
            .flags(TcpFlags::ACK)
            .build();
        let action = router.process(&mut packet, &mut agent, sb(32)).unwrap();
        assert_eq!(action, RouterAction::DeliverLocal);
        assert_eq!(agent.consultations(), 0);
    }

    #[test]
    fn exhausted_srh_is_delivered() {
        let router = VirtualRouter::new(addr(1), addr(99));
        let mut agent = agent(0);
        let mut packet = hunted_syn(&[addr(5), addr(1)], addr(200));
        packet.set_segments_left(0).unwrap();
        let action = router.process(&mut packet, &mut agent, sb(0)).unwrap();
        assert_eq!(action, RouterAction::DeliverLocal);
    }

    #[test]
    fn three_candidate_hunt_walks_the_chain() {
        // Three candidates, all busy: the packet should traverse 1 -> 2 -> 3
        // and be accepted (forced) at the third.
        let vip = addr(200);
        let routers = [
            VirtualRouter::new(addr(1), addr(99)),
            VirtualRouter::new(addr(2), addr(99)),
            VirtualRouter::new(addr(3), addr(99)),
        ];
        let mut agents = [agent(1), agent(1), agent(1)];
        let mut packet = hunted_syn(&[addr(1), addr(2), addr(3)], vip);
        let mut hops = Vec::new();
        for i in 0..3 {
            match routers[i]
                .process(&mut packet, &mut agents[i], sb(16))
                .unwrap()
            {
                RouterAction::Forward { next_hop } => hops.push(next_hop),
                RouterAction::DeliverLocal => {
                    hops.push(routers[i].server_addr());
                    break;
                }
            }
        }
        assert_eq!(hops, vec![addr(2), addr(3), addr(3)]);
        assert_eq!(agents[2].consultations(), 0, "final candidate is forced");
    }

    #[test]
    fn acceptance_route_names_server_lb_and_client() {
        let router = VirtualRouter::new(addr(7), addr(99));
        let mut syn_ack = PacketBuilder::tcp(addr(200), addr(100)).build();
        let next = syn_ack
            .set_route(&router.acceptance_route(addr(100)), 1)
            .unwrap();
        assert_eq!(next, addr(99));
        let srh = syn_ack.srh.as_ref().unwrap();
        assert_eq!(srh.segments_left(), 1);
        assert_eq!(srh.active_segment(), addr(99), "LB is the active segment");
        assert_eq!(
            srh.final_segment(),
            addr(100),
            "client is the final segment"
        );
        assert_eq!(srh.first_segment(), addr(7), "server identity is recorded");
        assert_eq!(srh.route(), vec![addr(7), addr(99), addr(100)]);
    }
}
