//! The SRLB load balancer as a simulation node.
//!
//! The load balancer sits at the edge of the data centre and advertises the
//! VIPs.  Its entire job (paper Section II) is:
//!
//! 1. on a **new flow** (TCP SYN towards a VIP): pick the candidate servers,
//!    insert the Service Hunting SRH `[candidate₁, …, candidateₖ, VIP]` and
//!    forward the packet to the first candidate,
//! 2. on a **connection acceptance** (SYN-ACK carrying the server-inserted
//!    SRH, whose active segment is the load balancer): learn *flow → server*
//!    in the flow table and forward the SYN-ACK on to the client,
//! 3. on **subsequent packets** of a known flow: steer them to the owning
//!    server by inserting the SRH `[server, VIP]`,
//! 4. everything else is forwarded by plain destination routing.
//!
//! The load balancer never inspects application payloads and holds no
//! application state: all it learns is which server accepted each flow.

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use srlb_net::Packet;
use srlb_server::Directory;
use srlb_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};

use crate::dispatch::{CandidateList, Dispatcher};
use crate::flow_state::FlowState;

/// Counters exposed by the load balancer after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LbStats {
    /// New flows dispatched (SYNs that received a Service Hunting SRH).
    pub new_flows: u64,
    /// Flow-table entries learned from acceptance SYN-ACKs (including
    /// post-failover ownership adverts).
    pub flows_learned: u64,
    /// Established-flow packets steered to their owning server.
    pub steered: u64,
    /// Established-flow packets dropped because no flow entry existed.
    pub missing_flow: u64,
    /// Established-flow packets with no flow entry that were *re-hunted*
    /// through the candidate list instead of dropped (in-band flow-table
    /// reconstruction after a failover).
    pub rehunts: u64,
    /// Fail-overs applied to this load balancer (flow-table wipes).
    pub failovers: u64,
    /// Packets forwarded by plain destination routing.
    pub forwarded: u64,
    /// Flow-table entries removed by idle expiry.  Zero unless an expiry
    /// sweep is configured.  Entries retired at the retransmission horizon
    /// (unbounded tables with no sweep) are not counted anywhere.
    #[serde(default, skip_serializing_if = "flow_stat_is_zero")]
    pub flow_expired: u64,
    /// Flow-table entries evicted under capacity pressure that had already
    /// outlived the idle timeout.  Zero for unbounded tables.
    #[serde(default, skip_serializing_if = "flow_stat_is_zero")]
    pub flow_evicted_expired: u64,
    /// Flow-table entries evicted under capacity pressure after being idle
    /// for at least half the timeout.  Zero for unbounded tables.
    #[serde(default, skip_serializing_if = "flow_stat_is_zero")]
    pub flow_evicted_idle: u64,
    /// Recently-active flow-table entries evicted under capacity pressure —
    /// the evictions that can break an established connection's affinity,
    /// counted so they are never silent.  Zero for unbounded tables.
    #[serde(default, skip_serializing_if = "flow_stat_is_zero")]
    pub flow_evicted_active: u64,
    /// Highest flow-table occupancy reached.  Reported (and serialized)
    /// only for capacity-bounded tables, so default configurations keep
    /// their serialized stats byte-identical.
    #[serde(default, skip_serializing_if = "flow_stat_is_zero")]
    pub flow_peak_occupancy: u64,
}

/// Serde skip predicate for the flow-state counters of [`LbStats`], keeping
/// serialized stats of default configurations — an unbounded table with no
/// sweep, whose only departures are uncounted retirements — byte-identical
/// to the pre-flow-state form.
fn flow_stat_is_zero(n: &u64) -> bool {
    *n == 0
}

impl LbStats {
    /// Adds another counter snapshot field-wise.  `LbStats::default()` is
    /// the identity and the operation is associative (and commutative), so
    /// folding any grouping of per-instance snapshots yields the same
    /// tier-wide aggregate — the property the multi-LB runner relies on
    /// when it merges N instances' counters (and, for N = 1, exactly the
    /// single load balancer's own counters).
    ///
    /// Counters are summed; `flow_peak_occupancy` takes the maximum across
    /// instances (also associative and commutative with identity 0), which
    /// is the per-instance memory high-water mark the capacity bound is
    /// provisioned against.
    pub fn merge(&mut self, other: LbStats) {
        self.new_flows += other.new_flows;
        self.flows_learned += other.flows_learned;
        self.steered += other.steered;
        self.missing_flow += other.missing_flow;
        self.rehunts += other.rehunts;
        self.failovers += other.failovers;
        self.forwarded += other.forwarded;
        self.flow_expired += other.flow_expired;
        self.flow_evicted_expired += other.flow_evicted_expired;
        self.flow_evicted_idle += other.flow_evicted_idle;
        self.flow_evicted_active += other.flow_evicted_active;
        self.flow_peak_occupancy = self.flow_peak_occupancy.max(other.flow_peak_occupancy);
    }

    /// Folds an iterator of per-instance snapshots into the tier-wide
    /// aggregate.
    pub fn merged(stats: impl IntoIterator<Item = LbStats>) -> LbStats {
        let mut total = LbStats::default();
        for s in stats {
            total.merge(s);
        }
        total
    }
}

/// Timer token used for the periodic flow-table expiry sweep.
const EXPIRY_TIMER: TimerToken = TimerToken(u64::MAX);

/// Maximum dispatcher fan-out compatible with in-band flow recovery: a
/// re-hunt route must fit the load-balancer marker segment and the VIP
/// alongside the candidates.
pub(crate) const MAX_RECOVERY_CANDIDATES: usize = srlb_net::MAX_SEGMENTS - 2;

/// The SRLB load balancer node.
#[derive(Debug)]
pub struct LoadBalancerNode {
    addr: Ipv6Addr,
    /// The VIPs this load balancer advertises (at least one; several
    /// applications can share the same backend cluster).
    vips: Vec<Ipv6Addr>,
    directory: Directory,
    dispatcher: Box<dyn Dispatcher>,
    flow_table: FlowState,
    stats: LbStats,
    expiry_interval: Option<SimDuration>,
    /// Start of the expiry sweep's `start + k × interval` grid (the node's
    /// start time), and whether a sweep timer is currently armed.  A sweep
    /// that leaves the table empty does not re-arm — otherwise an idle load
    /// balancer would keep any run alive forever; the next `learn` re-arms
    /// on the same grid, so every sweep that could expire something still
    /// happens at the instant it always did.
    sweep_start: SimTime,
    sweep_armed: bool,
    /// The run's retransmission horizon, when set: each `learn` first
    /// retires the entries idle beyond it, which no packet can touch again.
    /// Set only on an unbounded table with no sweep, where residency
    /// reaches no output; a bounded or swept table reports its departures.
    retire_horizon: Option<SimDuration>,
    /// When `true`, an established-flow packet with no flow-table entry is
    /// re-hunted through the candidate list (and the owning server adverts
    /// itself back) instead of being dropped — the in-band SYN-ACK-style
    /// flow-table reconstruction used after a fail-over.
    recover_flows: bool,
    /// Time of the last fail-over ([`LoadBalancerNode::fail_over`]).
    failed_over_at: Option<SimTime>,
    /// Time of the last re-hunt (drives the reconstruction-latency metric).
    last_rehunt_at: Option<SimTime>,
    /// Reusable candidate/route buffer, so dispatching a new flow performs
    /// no per-packet heap allocation.
    route_scratch: CandidateList,
}

impl LoadBalancerNode {
    /// Creates a load balancer advertising `vip`, reachable at `addr`.
    pub fn new(
        addr: Ipv6Addr,
        vip: Ipv6Addr,
        directory: Directory,
        dispatcher: Box<dyn Dispatcher>,
    ) -> Self {
        LoadBalancerNode {
            addr,
            vips: vec![vip],
            directory,
            dispatcher,
            flow_table: FlowState::with_default_timeout(),
            stats: LbStats::default(),
            expiry_interval: None,
            sweep_start: SimTime::ZERO,
            sweep_armed: false,
            retire_horizon: None,
            recover_flows: false,
            failed_over_at: None,
            last_rehunt_at: None,
            route_scratch: CandidateList::new(),
        }
    }

    /// Enables a periodic flow-table expiry sweep with the given interval.
    pub fn with_expiry_sweep(mut self, interval: SimDuration) -> Self {
        self.expiry_interval = Some(interval);
        self
    }

    /// Retires flow-table entries idle beyond `horizon` on every learn:
    /// the run's retransmission horizon, past which no packet of a flow
    /// arrives.  Only for an unbounded table with no sweep.
    pub(crate) fn with_retire_horizon(mut self, horizon: SimDuration) -> Self {
        self.retire_horizon = Some(horizon);
        self
    }

    /// Replaces the flow table (e.g. to use a shorter idle timeout in tests).
    pub fn with_flow_table(mut self, table: FlowState) -> Self {
        self.flow_table = table;
        self
    }

    /// Replaces the advertised VIP set (multi-service clusters).
    ///
    /// # Panics
    ///
    /// Panics if `vips` is empty.
    pub fn with_vips(mut self, vips: Vec<Ipv6Addr>) -> Self {
        assert!(!vips.is_empty(), "at least one VIP is required");
        self.vips = vips;
        self
    }

    /// Enables in-band flow-table reconstruction: on a flow-table miss for
    /// an established flow, re-hunt the packet through the candidate list
    /// instead of dropping it, and re-learn the owner from the server's
    /// ownership advert.
    ///
    /// # Panics
    ///
    /// Panics if the dispatcher's fan-out exceeds
    /// `MAX_RECOVERY_CANDIDATES` (the re-hunt route also carries the
    /// load-balancer marker and the VIP).
    pub fn with_flow_recovery(mut self) -> Self {
        assert!(
            self.dispatcher.fanout() <= MAX_RECOVERY_CANDIDATES,
            "flow recovery supports at most {MAX_RECOVERY_CANDIDATES} candidates per flow"
        );
        self.recover_flows = true;
        self
    }

    /// The load balancer's own address.
    pub fn addr(&self) -> Ipv6Addr {
        self.addr
    }

    /// The advertised VIPs.
    pub fn vips(&self) -> &[Ipv6Addr] {
        &self.vips
    }

    /// Run counters, with the flow table's occupancy/eviction/expiry
    /// statistics folded in at read time.
    pub fn stats(&self) -> LbStats {
        let mut stats = self.stats;
        let fs = self.flow_table.stats();
        stats.flow_expired = fs.expired;
        stats.flow_evicted_expired = fs.evictions.expired;
        stats.flow_evicted_idle = fs.evictions.idle;
        stats.flow_evicted_active = fs.evictions.active;
        stats.flow_peak_occupancy = fs.peak_occupancy;
        stats
    }

    /// Number of live flow-table entries.
    pub fn flow_table_len(&self) -> usize {
        self.flow_table.len()
    }

    /// Steered packets and learns of flows the table had retired: zero
    /// when the retransmission horizon holds.  Debug builds only.
    #[cfg(debug_assertions)]
    pub(crate) fn retired_hits(&self) -> u64 {
        self.flow_table.retired_hits()
    }

    /// The dispatcher's name (for reports).
    pub fn dispatcher_name(&self) -> String {
        self.dispatcher.name()
    }

    /// The dispatcher's current backend set.
    pub fn backends(&self) -> &[Ipv6Addr] {
        self.dispatcher.backends()
    }

    /// Replaces the dispatcher, e.g. with one built over a new backend set
    /// (server churn).  Existing flow-table entries are untouched:
    /// established flows keep flowing to their owner (even one no longer in
    /// the candidate set) until they finish or expire.
    ///
    /// # Panics
    ///
    /// Panics if flow recovery is enabled and the new dispatcher's fan-out
    /// (which growth can raise back to its configured value) exceeds
    /// [`MAX_RECOVERY_CANDIDATES`].
    pub(crate) fn set_dispatcher(&mut self, dispatcher: Box<dyn Dispatcher>) {
        assert!(
            !self.recover_flows || dispatcher.fanout() <= MAX_RECOVERY_CANDIDATES,
            "flow recovery supports at most {MAX_RECOVERY_CANDIDATES} candidates per flow"
        );
        self.dispatcher = dispatcher;
    }

    /// Simulates the fail-over of this load balancer to a cold standby at
    /// the same address: all per-flow state is lost (the standby starts with
    /// an empty flow table) and must be reconstructed in-band from SYN-ACKs
    /// and ownership adverts.  The table's configuration and accumulated
    /// occupancy/eviction statistics survive the wipe.  Returns the number
    /// of entries lost.
    pub fn fail_over(&mut self, now: SimTime) -> usize {
        let lost = self.flow_table.wipe();
        self.stats.failovers += 1;
        self.failed_over_at = Some(now);
        self.last_rehunt_at = None;
        lost
    }

    /// Seconds between the last fail-over and the most recent re-hunt — an
    /// upper bound on how long the flow table kept being reconstructed.
    /// `None` until a fail-over has happened and a re-hunt has followed it.
    pub(crate) fn reconstruction_latency_seconds(&self) -> Option<f64> {
        let failed = self.failed_over_at?;
        let last = self.last_rehunt_at?;
        Some(last.duration_since(failed).as_secs_f64())
    }

    /// Returns `true` if `addr` is one of the advertised VIPs.
    fn is_vip(&self, addr: Ipv6Addr) -> bool {
        self.vips.contains(&addr)
    }

    /// Gives `packet` the Service Hunting route of its flow and returns the
    /// first candidate to forward it to.  Shared between new-flow dispatch
    /// and, with the load balancer itself as a consumed leading segment,
    /// post-failover re-hunting:
    ///
    /// * hunt — `[candidate₁, …, candidateₖ, VIP]`;
    /// * re-hunt — `[lb, candidate₁, …, candidateₖ, VIP]`, the same identity
    ///   trick acceptance SRHs use, so servers can tell a re-hunt from
    ///   steered traffic (whose first segment is the owning server itself)
    ///   for *any* candidate count, and route it by connection ownership.
    fn hunt(
        &mut self,
        packet: &mut Packet,
        rehunt: bool,
        ctx: &mut Context<'_, Packet>,
    ) -> Ipv6Addr {
        let flow = packet.flow_key_forward();
        // Dispatchers clear the buffer themselves, but the capacity
        // invariant belongs to the buffer's owner: clear defensively so a
        // third-party `Dispatcher` impl that only appends cannot overflow
        // the route scratch across flows.
        self.route_scratch.clear();
        self.dispatcher
            .candidates_into(&flow, ctx.rng(), &mut self.route_scratch);
        // The flow's own VIP terminates the route, so several VIPs can share
        // one cluster.
        let mut route = [Ipv6Addr::UNSPECIFIED; srlb_net::MAX_SEGMENTS];
        let candidates = self.route_scratch.as_slice();
        let lead = usize::from(rehunt);
        debug_assert!(!rehunt || candidates.len() <= MAX_RECOVERY_CANDIDATES);
        let len = lead + candidates.len() + 1;
        if rehunt {
            route[0] = self.addr;
        }
        route[lead..len - 1].copy_from_slice(candidates);
        route[len - 1] = flow.vip();
        packet
            .set_route(&route[..len], lead)
            // srlb-lint: allow(panic-hygiene) -- the dispatcher's fan-out (plus the marker and the VIP) is checked against MAX_SEGMENTS at construction, and `lead < len`
            .expect("marker, candidates and VIP fit one route")
    }

    /// Re-arms a dormant expiry sweep at the first grid instant after now.
    /// (Had the sweep never gone dormant, its firing *at* this instant, if
    /// any, would find nothing but the entry just learned: skipping it
    /// changes nothing.)
    fn wake_sweep(&mut self, ctx: &mut Context<'_, Packet>) {
        let Some(interval) = self.expiry_interval else {
            return;
        };
        if self.sweep_armed {
            return;
        }
        self.sweep_armed = true;
        let since_start = ctx.now().duration_since(self.sweep_start).as_nanos();
        let into_period = since_start % interval.as_nanos();
        ctx.schedule_timer(
            SimDuration::from_nanos(interval.as_nanos() - into_period),
            EXPIRY_TIMER,
        );
    }

    /// Handles a server's acceptance SYN-ACK: learn the flow and return the
    /// next hop towards the client.
    fn learn_and_forward(
        &mut self,
        packet: &mut Packet,
        ctx: &mut Context<'_, Packet>,
    ) -> Option<Ipv6Addr> {
        let server = packet.srh.as_ref()?.first_segment();
        let flow = packet.flow_key_reverse();
        if let Some(horizon) = self.retire_horizon {
            self.flow_table.retire_idle(ctx.now(), horizon);
        }
        self.flow_table.learn(flow, server, ctx.now());
        self.stats.flows_learned += 1;
        self.wake_sweep(ctx);
        // Acceptance SYN-ACKs and ownership adverts carry the server's load
        // hint; feed it to the dispatcher (a no-op for load-oblivious ones).
        if let Some((busy, workers, backlog)) =
            srlb_server::server_node::decode_load_hint(&packet.payload)
        {
            if workers > 0 {
                let load = f64::from(busy + backlog) / f64::from(workers);
                self.dispatcher
                    .observe_load(server, load, ctx.now().as_secs_f64());
            }
        }
        // Advance past our own segment; the client is next.
        packet.advance_segment().ok()
    }

    /// Handles an established-flow packet: steer it to the owning server,
    /// or — when flow recovery is enabled and the entry is missing (lost in
    /// a fail-over) — re-hunt it through the candidate list so the owner
    /// re-announces itself.
    fn steer(&mut self, packet: &mut Packet, ctx: &mut Context<'_, Packet>) -> Option<Ipv6Addr> {
        let flow = packet.flow_key_forward();
        match self.flow_table.lookup(&flow, ctx.now()) {
            Some(server) => {
                self.stats.steered += 1;
                let first_hop = packet
                    .set_route(&[server, flow.vip()], 0)
                    // srlb-lint: allow(panic-hygiene) -- a fixed two-segment route can never be empty or exceed MAX_SEGMENTS
                    .expect("two-segment steering route is valid");
                Some(first_hop)
            }
            None if self.recover_flows => {
                self.stats.rehunts += 1;
                self.last_rehunt_at = Some(ctx.now());
                Some(self.hunt(packet, true, ctx))
            }
            None => {
                self.stats.missing_flow += 1;
                None
            }
        }
    }
}

impl Node<Packet> for LoadBalancerNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        if let Some(interval) = self.expiry_interval {
            self.sweep_start = ctx.now();
            self.sweep_armed = true;
            ctx.schedule_timer(interval, EXPIRY_TIMER);
        }
    }

    fn on_message(&mut self, mut packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        // The packet is rewritten where it arrived and sent once from here;
        // the helpers only borrow it and name the next hop.
        let dest = packet.current_destination();
        let next_hop = if dest == self.addr && packet.srh.is_some() {
            // A packet whose active segment is the load balancer itself: a
            // connection-acceptance SYN-ACK (or post-failover ownership
            // advert) inserted by a server.
            self.learn_and_forward(&mut packet, ctx)
        } else if self.is_vip(dest) || self.is_vip(packet.final_destination()) {
            if packet.is_syn() {
                self.stats.new_flows += 1;
                Some(self.hunt(&mut packet, false, ctx))
            } else {
                self.steer(&mut packet, ctx)
            }
        } else {
            // Plain destination routing for anything else (e.g. return
            // traffic transiting the load balancer).
            self.stats.forwarded += 1;
            Some(dest)
        };
        if let Some(node) = next_hop.and_then(|addr| self.directory.lookup(addr)) {
            ctx.send(node, packet);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Packet>) {
        if token == EXPIRY_TIMER {
            self.flow_table.expire_idle(ctx.now());
            self.sweep_armed = !self.flow_table.is_empty();
            if let (true, Some(interval)) = (self.sweep_armed, self.expiry_interval) {
                ctx.schedule_timer(interval, EXPIRY_TIMER);
            }
        }
    }

    fn name(&self) -> String {
        "load-balancer".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::RandomDispatcher;

    fn sample_stats(seed: u64) -> LbStats {
        LbStats {
            new_flows: seed,
            flows_learned: seed.wrapping_mul(3) % 97,
            steered: seed.wrapping_mul(5) % 89,
            missing_flow: seed % 7,
            rehunts: seed % 11,
            failovers: seed % 3,
            forwarded: seed % 13,
            flow_expired: seed.wrapping_mul(7) % 83,
            flow_evicted_expired: seed % 17,
            flow_evicted_idle: seed % 19,
            flow_evicted_active: seed % 23,
            flow_peak_occupancy: seed.wrapping_mul(11) % 101,
        }
    }

    #[test]
    fn lb_stats_merge_identity() {
        for seed in [0u64, 1, 17, 123_456] {
            let s = sample_stats(seed);
            let mut left = LbStats::default();
            left.merge(s);
            assert_eq!(left, s, "default is a left identity");
            let mut right = s;
            right.merge(LbStats::default());
            assert_eq!(right, s, "default is a right identity");
        }
        assert_eq!(LbStats::merged([]), LbStats::default());
    }

    #[test]
    fn lb_stats_merge_associativity() {
        let (a, b, c) = (sample_stats(3), sample_stats(40), sample_stats(777));
        let mut ab = a;
        ab.merge(b);
        let mut ab_c = ab;
        ab_c.merge(c);
        let mut bc = b;
        bc.merge(c);
        let mut a_bc = a;
        a_bc.merge(bc);
        assert_eq!(ab_c, a_bc, "(a+b)+c == a+(b+c)");
        assert_eq!(LbStats::merged([a, b, c]), ab_c);
    }

    #[test]
    fn lb_stats_merge_takes_max_of_peak_occupancy() {
        let mut a = LbStats {
            flow_peak_occupancy: 10,
            ..LbStats::default()
        };
        a.merge(LbStats {
            flow_peak_occupancy: 7,
            flow_evicted_active: 2,
            ..LbStats::default()
        });
        assert_eq!(a.flow_peak_occupancy, 10, "peak merges as max, not sum");
        assert_eq!(a.flow_evicted_active, 2);
    }

    #[test]
    fn lb_stats_flow_counters_are_serde_skipped_when_zero() {
        let json = serde_json::to_string(&LbStats::default()).unwrap();
        assert!(
            !json.contains("flow_"),
            "zero flow-state counters must not serialize: {json}"
        );
        let full = sample_stats(123_456);
        let round: LbStats = serde_json::from_str(&serde_json::to_string(&full).unwrap()).unwrap();
        assert_eq!(round, full);
        let legacy: LbStats = serde_json::from_str(&json).unwrap();
        assert_eq!(legacy, LbStats::default(), "old stats deserialize cleanly");
    }
    use srlb_net::{AddressPlan, PacketBuilder, ServerId, TcpFlags};
    use srlb_server::{PolicyConfig, ServerConfig, ServerNode};
    use srlb_sim::{Network, RunUntil, Topology};

    /// A sink node that records every packet it receives.
    #[derive(Debug, Default)]
    struct Sink {
        received: Vec<Packet>,
    }

    impl Node<Packet> for Sink {
        fn on_message(&mut self, packet: Packet, _from: NodeId, _ctx: &mut Context<'_, Packet>) {
            self.received.push(packet);
        }
    }

    /// Builds a tiny cluster: one sink client, the LB, and `n` servers with
    /// the given policy; returns (network, client id, lb id, server ids).
    fn build_cluster(
        n: u32,
        policy: PolicyConfig,
        k: usize,
    ) -> (Network<Packet>, NodeId, NodeId, Vec<NodeId>) {
        let plan = AddressPlan::default();
        let mut directory = Directory::new();
        let client_id = NodeId(0);
        let lb_id = NodeId(1);
        let server_ids: Vec<NodeId> = (0..n).map(|i| NodeId(2 + i as usize)).collect();
        directory.register(plan.client_addr(0), client_id);
        directory.register(plan.lb_addr(), lb_id);
        directory.register(plan.vip(0), lb_id);
        for i in 0..n {
            directory.register(plan.server_addr(ServerId(i)), server_ids[i as usize]);
        }

        let mut net = Network::new(7, Topology::datacenter());
        let c = net.add_node(Sink::default());
        let servers: Vec<Ipv6Addr> = plan.server_addrs(n).collect();
        let lb = net.add_node(LoadBalancerNode::new(
            plan.lb_addr(),
            plan.vip(0),
            directory.clone(),
            Box::new(RandomDispatcher::new(servers, k)),
        ));
        let mut sids = Vec::new();
        for i in 0..n {
            let cfg = ServerConfig::paper(i, plan.server_addr(ServerId(i)), plan.lb_addr(), policy);
            sids.push(net.add_node(ServerNode::new(cfg, directory.clone())));
        }
        assert_eq!(c, client_id);
        assert_eq!(lb, lb_id);
        assert_eq!(sids, server_ids);
        (net, client_id, lb_id, server_ids)
    }

    fn syn(port: u16) -> Packet {
        let plan = AddressPlan::default();
        PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
            .ports(port, 80)
            .flags(TcpFlags::SYN)
            .build()
    }

    /// A driver node that fires one SYN towards the VIP at start-up.
    #[derive(Debug)]
    struct SynSource {
        lb: NodeId,
        port: u16,
    }

    impl Node<Packet> for SynSource {
        fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
            ctx.send(self.lb, syn(self.port));
        }
        fn on_message(&mut self, _p: Packet, _f: NodeId, _c: &mut Context<'_, Packet>) {}
    }

    #[test]
    fn syn_gets_service_hunting_srh_and_reaches_a_server() {
        let (mut net, _client, lb, _servers) =
            build_cluster(4, PolicyConfig::Static { threshold: 4 }, 2);
        // Add a driver that sends one SYN to the LB.
        net.add_node(SynSource { lb, port: 40_000 });
        net.run_until(RunUntil::Drained);

        let lb_node: LoadBalancerNode = net.take_node(lb).unwrap();
        assert_eq!(lb_node.stats().new_flows, 1);
        assert_eq!(lb_node.stats().flows_learned, 1, "SYN-ACK learned the flow");
        assert_eq!(lb_node.flow_table_len(), 1);
        assert_eq!(lb_node.dispatcher_name(), "random-2");

        // The client sink received the SYN-ACK forwarded by the LB.
        let sink: Sink = net.take_node(NodeId(0)).unwrap();
        assert_eq!(sink.received.len(), 1);
        let syn_ack = &sink.received[0];
        assert!(syn_ack.is_syn_ack());
        let srh = syn_ack.srh.as_ref().expect("acceptance SRH present");
        assert_eq!(srh.segments_left(), 0);
        let plan = AddressPlan::default();
        assert!(plan.server_of(srh.first_segment()).is_some());
    }

    #[test]
    fn rr_baseline_uses_single_candidate() {
        let (mut net, _client, lb, servers) = build_cluster(4, PolicyConfig::NeverAccept, 1);
        net.add_node(SynSource { lb, port: 41_000 });
        net.run_until(RunUntil::Drained);
        let lb_node: LoadBalancerNode = net.take_node(lb).unwrap();
        assert_eq!(lb_node.stats().new_flows, 1);
        assert_eq!(lb_node.stats().flows_learned, 1);
        // Exactly one server saw a forced accept (single candidate), and no
        // server passed the connection on.
        let mut forced = 0;
        let mut passed = 0;
        for sid in servers {
            let s: ServerNode = net.take_node(sid).unwrap();
            forced += s.stats().forced_accepts;
            passed += s.stats().passed_on;
        }
        assert_eq!(forced, 1);
        assert_eq!(passed, 0);
    }

    #[test]
    fn non_syn_packet_without_flow_entry_is_dropped() {
        let plan = AddressPlan::default();
        let (mut net, _client, lb, _servers) =
            build_cluster(2, PolicyConfig::Static { threshold: 4 }, 2);

        #[derive(Debug)]
        struct AckSource {
            lb: NodeId,
        }
        impl Node<Packet> for AckSource {
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                let plan = AddressPlan::default();
                let ack = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
                    .ports(42_000, 80)
                    .flags(TcpFlags::ACK)
                    .build();
                ctx.send(self.lb, ack);
            }
            fn on_message(&mut self, _p: Packet, _f: NodeId, _c: &mut Context<'_, Packet>) {}
        }
        net.add_node(AckSource { lb });
        net.run_until(RunUntil::Drained);
        let lb_node: LoadBalancerNode = net.take_node(lb).unwrap();
        assert_eq!(lb_node.stats().missing_flow, 1);
        assert_eq!(lb_node.stats().new_flows, 0);
        let _ = plan;
    }

    /// A driver node that fires one established-flow request (ACK|PSH with a
    /// service payload) towards the VIP at start-up.
    #[derive(Debug)]
    struct RequestSource {
        lb: NodeId,
        port: u16,
    }

    impl Node<Packet> for RequestSource {
        fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
            let plan = AddressPlan::default();
            let request = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
                .ports(self.port, 80)
                .flags(TcpFlags::ACK | TcpFlags::PSH)
                .payload(srlb_server::server_node::encode_request_payload(
                    0,
                    srlb_sim::SimDuration::from_millis(5),
                ))
                .build();
            ctx.send(self.lb, request);
        }
        fn on_message(&mut self, _p: Packet, _f: NodeId, _c: &mut Context<'_, Packet>) {}
    }

    #[test]
    fn failover_recovery_relearns_from_ownership_advert() {
        // Same wiring as build_cluster, but with a deterministic
        // consistent-hash dispatcher and in-band flow recovery enabled.
        let plan = AddressPlan::default();
        let n = 4u32;
        let mut directory = Directory::new();
        let client_id = NodeId(0);
        let lb_id = NodeId(1);
        directory.register(plan.client_addr(0), client_id);
        directory.register(plan.lb_addr(), lb_id);
        directory.register(plan.vip(0), lb_id);
        for i in 0..n {
            directory.register(plan.server_addr(ServerId(i)), NodeId(2 + i as usize));
        }
        let mut net = Network::new(7, srlb_sim::Topology::datacenter());
        net.add_node(Sink::default());
        let servers: Vec<Ipv6Addr> = plan.server_addrs(n).collect();
        let lb = net.add_node(
            LoadBalancerNode::new(
                plan.lb_addr(),
                plan.vip(0),
                directory.clone(),
                Box::new(crate::dispatch::ConsistentHashDispatcher::new(
                    servers, 64, 2,
                )),
            )
            .with_flow_recovery(),
        );
        for i in 0..n {
            let cfg = ServerConfig::paper(
                i,
                plan.server_addr(ServerId(i)),
                plan.lb_addr(),
                PolicyConfig::Static { threshold: 4 },
            );
            net.add_node(ServerNode::new(cfg, directory.clone()));
        }

        // Establish one connection.
        net.add_node(SynSource { lb, port: 50_000 });
        net.run_until(RunUntil::Drained);
        assert_eq!(
            net.node_as::<LoadBalancerNode>(lb)
                .unwrap()
                .flow_table_len(),
            1
        );

        // Fail over: the standby starts with an empty flow table.
        let lost = net
            .control::<LoadBalancerNode, _>(lb, |l, ctx| l.fail_over(ctx.now()))
            .unwrap();
        assert_eq!(lost, 1);
        assert_eq!(
            net.node_as::<LoadBalancerNode>(lb)
                .unwrap()
                .flow_table_len(),
            0
        );

        // The request packet of the established flow arrives at the fresh
        // table: it is re-hunted, the owner adverts itself, the table is
        // reconstructed, and the request is served.
        net.add_node(RequestSource { lb, port: 50_000 });
        net.run_until(RunUntil::Drained);
        let lb_node: LoadBalancerNode = net.take_node(lb).unwrap();
        assert_eq!(lb_node.stats().failovers, 1);
        assert_eq!(lb_node.stats().rehunts, 1);
        assert_eq!(lb_node.stats().missing_flow, 0);
        assert_eq!(lb_node.flow_table_len(), 1, "table reconstructed in-band");
        assert!(lb_node.reconstruction_latency_seconds().unwrap() >= 0.0);

        // The client received the SYN-ACK, the forwarded ownership advert
        // and the served response; exactly one candidate advertised.
        let sink: Sink = net.take_node(NodeId(0)).unwrap();
        assert!(sink
            .received
            .iter()
            .any(|p| p.tcp.flags.contains(TcpFlags::PSH)));
        let mut adverts = 0;
        for i in 0..4usize {
            let s: ServerNode = net.take_node(NodeId(2 + i)).unwrap();
            adverts += s.stats().ownership_adverts;
            assert_eq!(s.stats().orphaned, 0);
        }
        assert_eq!(adverts, 1);
    }

    #[test]
    fn multiple_vips_share_the_cluster() {
        let plan = AddressPlan::default();
        let (mut net, _client, lb, _servers) =
            build_cluster(4, PolicyConfig::Static { threshold: 4 }, 2);
        // Advertise a second VIP on the same load balancer.
        let lb_vips = vec![plan.vip(0), plan.vip(1)];
        net.control::<LoadBalancerNode, _>(lb, move |l, _| {
            l.vips = lb_vips;
        })
        .unwrap();

        #[derive(Debug)]
        struct SecondVipSyn {
            lb: NodeId,
        }
        impl Node<Packet> for SecondVipSyn {
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                let plan = AddressPlan::default();
                let syn = PacketBuilder::tcp(plan.client_addr(0), plan.vip(1))
                    .ports(44_000, 80)
                    .flags(TcpFlags::SYN)
                    .build();
                ctx.send(self.lb, syn);
            }
            fn on_message(&mut self, _p: Packet, _f: NodeId, _c: &mut Context<'_, Packet>) {}
        }
        net.add_node(SynSource { lb, port: 43_500 });
        net.add_node(SecondVipSyn { lb });
        net.run_until(RunUntil::Drained);
        let lb_node: LoadBalancerNode = net.take_node(lb).unwrap();
        assert_eq!(lb_node.stats().new_flows, 2);
        assert_eq!(lb_node.stats().flows_learned, 2);
        assert_eq!(lb_node.vips().len(), 2);
        // Both flows (one per VIP) are live in the same flow table.
        assert_eq!(lb_node.flow_table_len(), 2);
    }

    #[test]
    fn unrelated_destination_is_forwarded() {
        let plan = AddressPlan::default();
        let (mut net, client, lb, _servers) =
            build_cluster(2, PolicyConfig::Static { threshold: 4 }, 2);

        #[derive(Debug)]
        struct StraySource {
            lb: NodeId,
        }
        impl Node<Packet> for StraySource {
            fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
                let plan = AddressPlan::default();
                // A packet addressed directly to the client, transiting the LB.
                let stray = PacketBuilder::tcp(plan.server_addr(ServerId(0)), plan.client_addr(0))
                    .ports(80, 43_000)
                    .flags(TcpFlags::ACK)
                    .build();
                ctx.send(self.lb, stray);
            }
            fn on_message(&mut self, _p: Packet, _f: NodeId, _c: &mut Context<'_, Packet>) {}
        }
        net.add_node(StraySource { lb });
        net.run_until(RunUntil::Drained);
        let lb_node: LoadBalancerNode = net.take_node(lb).unwrap();
        assert_eq!(lb_node.stats().forwarded, 1);
        let sink: Sink = net.take_node(client).unwrap();
        assert_eq!(sink.received.len(), 1);
        let _ = plan;
    }
}
