//! The traffic generator / measurement client.
//!
//! The client replays a time-ordered request stream as an *open-loop*
//! source (arrivals do not depend on completions, as with the paper's
//! Poisson generator and trace replayer), performs the TCP exchange for each
//! request, and records per-request response times and outcomes into a
//! [`ResponseTimeCollector`].
//!
//! Requests are **pulled on demand** from a streaming
//! [`Workload`](srlb_workload::Workload): the client holds at most one
//! not-yet-sent request, so a 24-hour replay never needs the whole trace in
//! memory ([`ClientNode::new`] keeps the old eager `Vec<Request>` entry
//! point as a wrapper).
//!
//! Each request gets a unique `(client address, source port)` pair so flows
//! never collide; the mapping is arithmetic (request id → address index and
//! port), so no per-request lookup table is needed.

use std::net::Ipv6Addr;

use rand::RngCore;
use srlb_metrics::{RequestClass, RequestOutcome, RequestRecord, ResponseTimeCollector};
use srlb_net::{AddressPlan, FlowKey, Packet, PacketBuilder, Protocol, RetransmitPolicy, TcpFlags};
use srlb_server::server_node::encode_request_payload;
use srlb_server::Directory;
use srlb_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};
use srlb_workload::{requests_into_stream, BoxedWorkload, Request};

use crate::id_window::IdWindow;

/// Timer-token bit marking a deferred-request timer (the low bits carry the
/// request id); SYN timers use the plain request id, which never reaches
/// this bit.
const REQUEST_TIMER_BIT: u64 = 1 << 63;

/// Timer-token bit marking a retransmission timeout (the low bits carry the
/// request id).  Only armed when a [`RetransmitPolicy`] is configured, so
/// fault-free runs schedule exactly the same timers as before the fault
/// layer existed.
const RETX_TIMER_BIT: u64 = 1 << 62;

/// Number of source ports used per client address before moving to the next
/// address (keeps ports in the dynamic range 1024–61023).
pub const PORTS_PER_ADDR: u64 = 60_000;
/// First source port used.
pub const BASE_PORT: u16 = 1024;
/// Destination (service) port of the VIP.
pub const VIP_PORT: u16 = 80;

/// Derives the `(client address, source port)` pair for request `id`.
pub fn request_endpoint(plan: &AddressPlan, id: u64) -> (Ipv6Addr, u16) {
    let addr_index = (id / PORTS_PER_ADDR) as u32;
    let port = BASE_PORT + (id % PORTS_PER_ADDR) as u16;
    (plan.client_addr(addr_index), port)
}

/// Inverse of [`request_endpoint`]: recovers the request id from the client
/// address and source port of a packet.  Returns `None` for addresses or
/// ports outside the generator's ranges.
pub fn request_id_of(plan: &AddressPlan, addr: Ipv6Addr, port: u16) -> Option<u64> {
    let addr_index = plan.client_of(addr)? as u64;
    if port < BASE_PORT {
        return None;
    }
    Some(addr_index * PORTS_PER_ADDR + (port - BASE_PORT) as u64)
}

/// Number of distinct client addresses needed for a trace of `n` requests.
pub fn client_addr_count(n: usize) -> u32 {
    (n as u64 / PORTS_PER_ADDR) as u32 + 1
}

/// Which transmission a request is currently waiting on, for deciding what
/// to resend when a retransmission timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Awaiting {
    /// SYN sent, waiting for the SYN-ACK.
    SynSent,
    /// Handshake done, think timer armed; nothing is on the wire, so a
    /// retransmission timer firing in this state is stale.
    Thinking,
    /// HTTP request sent, waiting for the response.
    RequestSent,
}

/// Per-request in-flight bookkeeping.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// The request's flow, hashed once when the request is born: every
    /// packet of the request is built from it (and carries its hash), and
    /// the load-balancer tier is steered by it.
    flow: FlowKey,
    sent_at: SimTime,
    class: RequestClass,
    /// CPU service demand carried in the HTTP request payload once the
    /// handshake completes (the trace itself is streamed, not retained).
    service: SimDuration,
    /// What the request currently waits on.
    awaiting: Awaiting,
    /// Retransmissions performed so far.
    retries: u32,
    /// Fire time of the armed retransmission timer.  A timer is honored
    /// only if it fires exactly at this instant; re-arming or a state
    /// change moves the deadline and thereby cancels older timers (the
    /// engine has no timer cancellation).  [`SimTime::ZERO`] means "none
    /// armed" — no timer scheduled strictly after time zero can fire at it.
    deadline: SimTime,
}

/// The open-loop client node.
#[derive(Debug)]
pub struct ClientNode {
    plan: AddressPlan,
    /// The VIPs requests are spread over (request id modulo the VIP count),
    /// so several applications can share one cluster.  Always non-empty.
    vips: Vec<Ipv6Addr>,
    /// Client think time between the handshake completing and the HTTP
    /// request being sent.  Zero (the default) sends the request
    /// immediately, as the paper's closed HTTP exchange does; dynamic-cluster
    /// scenarios use a non-zero delay so connections are *established but
    /// quiescent* for a realistic window — the state a load-balancer
    /// failover actually disrupts.
    request_delay: SimDuration,
    directory: Directory,
    /// The request stream, pulled one request at a time.
    source: BoxedWorkload,
    /// The next request to send: pulled from the stream, timer armed.
    pending: Option<Request>,
    /// Outstanding requests by id, in id order: requests are sent in
    /// increasing id order and mostly finish soon after, so they form a
    /// sliding window.  Every traversal — most importantly the leftover
    /// drain in [`ClientNode::into_collector`], which feeds the committed
    /// reports — is ordered by request id by construction, with no
    /// per-instance hash randomness to depend on.
    in_flight: IdWindow<InFlight>,
    collector: ResponseTimeCollector,
    sent: u64,
    completed: u64,
    resets: u64,
    /// End-to-end recovery policy.  `None` (the default) reproduces the
    /// legacy fire-and-forget behavior exactly: no retransmission timers
    /// are armed and no extra randomness is drawn, so fault-free runs stay
    /// byte-identical to pre-fault-layer builds.
    retransmit: Option<RetransmitPolicy>,
    aborted: u64,
    retransmits: u64,
}

impl ClientNode {
    /// Creates a client that will replay `requests` (must be sorted by
    /// arrival time) against `vip`.
    ///
    /// Eager-trace convenience over [`ClientNode::from_workload`].
    ///
    /// # Panics
    ///
    /// Panics if the requests are not sorted by arrival time.
    pub fn new(
        plan: AddressPlan,
        vip: Ipv6Addr,
        directory: Directory,
        requests: Vec<Request>,
    ) -> Self {
        assert!(
            srlb_workload::request::is_well_formed(&requests),
            "requests must be sorted by arrival time with increasing ids"
        );
        Self::from_workload(
            plan,
            vip,
            directory,
            Box::new(requests_into_stream(requests)),
        )
    }

    /// Creates a client that pulls requests on demand from a streaming
    /// workload (which yields them sorted by arrival time with increasing
    /// ids, as the [`srlb_workload::Workload`] contract requires).
    pub fn from_workload(
        plan: AddressPlan,
        vip: Ipv6Addr,
        directory: Directory,
        source: BoxedWorkload,
    ) -> Self {
        ClientNode {
            plan,
            vips: vec![vip],
            request_delay: SimDuration::ZERO,
            directory,
            source,
            pending: None,
            in_flight: IdWindow::new(),
            collector: ResponseTimeCollector::new(),
            sent: 0,
            completed: 0,
            resets: 0,
            retransmit: None,
            aborted: 0,
            retransmits: 0,
        }
    }

    /// Replaces the VIP set; requests are assigned round-robin by id.
    ///
    /// # Panics
    ///
    /// Panics if `vips` is empty.
    pub fn with_vips(mut self, vips: Vec<Ipv6Addr>) -> Self {
        assert!(!vips.is_empty(), "at least one VIP is required");
        self.vips = vips;
        self
    }

    /// The VIP request `id` is (deterministically) sent to.
    pub fn vip_of(&self, id: u64) -> Ipv6Addr {
        self.vips[(id % self.vips.len() as u64) as usize]
    }

    /// Sets the think time between handshake completion and the HTTP
    /// request (default: zero, i.e. immediately).
    pub fn with_request_delay(mut self, delay: SimDuration) -> Self {
        self.request_delay = delay;
        self
    }

    /// Enables end-to-end recovery: each outstanding transmission (SYN or
    /// HTTP request) is guarded by a retransmission timer with exponential
    /// backoff and jitter, and the request is aborted — surfaced as
    /// [`RequestOutcome::Aborted`] rather than hanging forever — once the
    /// policy's retry budget is spent.
    pub fn with_retransmit(mut self, policy: RetransmitPolicy) -> Self {
        self.retransmit = Some(policy);
        self
    }

    /// Number of requests sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Number of completed requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of reset requests.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Number of requests aborted after exhausting the retransmission
    /// budget.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Total retransmissions performed across all requests.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Number of requests still awaiting a response.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// Consumes the client and returns its measurement collector, marking
    /// any still-outstanding requests as unfinished.
    pub fn into_collector(mut self) -> ResponseTimeCollector {
        // The window yields its entries in request-id order by
        // construction — leftover records land in the report
        // deterministically with nothing left to sort.
        let leftover = std::mem::take(&mut self.in_flight);
        for info in leftover.into_values() {
            self.collector.push(RequestRecord {
                sent_at_seconds: info.sent_at.as_secs_f64(),
                response_time_ms: None,
                class: info.class,
                outcome: RequestOutcome::Unfinished,
                served_by: None,
                retransmits: info.retries,
            });
        }
        self.collector
    }

    /// A read-only view of the collector (outstanding requests excluded).
    pub fn collector(&self) -> &ResponseTimeCollector {
        &self.collector
    }

    /// The client's routing table, for re-advertising an ECMP tier between
    /// run segments.
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.directory
    }

    /// The load-balancer instance a VIP-bound packet of `flow` goes to: the
    /// VIP is anycast to the load-balancer tier, so the packet is
    /// ECMP-steered by its flow's 5-tuple hash — the simulator's model of
    /// the routers in front of the LB fleet.  With a single load balancer
    /// the steering degenerates to that instance and runs are identical to
    /// the pre-tier client.
    fn lb_of(&self, flow: &FlowKey) -> Option<NodeId> {
        self.directory.lookup_flow(flow.vip(), flow.stable_hash())
    }

    /// Pulls the next request from the stream (if none is already pending)
    /// and arms its arrival timer.
    fn schedule_next(&mut self, ctx: &mut Context<'_, Packet>) {
        if self.pending.is_none() {
            self.pending = self.source.next_request();
        }
        if let Some(request) = &self.pending {
            let delay = request.arrival.duration_since(ctx.now());
            ctx.schedule_timer(delay, TimerToken(request.id));
        }
    }

    /// Builds the SYN of `flow` (identical bytes on every
    /// (re)transmission, so the LB's hunt is keyed by the same flow).
    fn syn_packet(flow: &FlowKey) -> Packet {
        PacketBuilder::forward(flow).flags(TcpFlags::SYN).build()
    }

    /// Builds the HTTP request (ACK|PSH) of request `id` on `flow`, carrying
    /// `service`.
    fn http_packet(flow: &FlowKey, id: u64, service: SimDuration) -> Packet {
        PacketBuilder::forward(flow)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(encode_request_payload(id, service))
            .build()
    }

    /// Arms the retransmission timer for request `id`'s current
    /// transmission: `timeout_ms × backoff^retries` plus a uniform jitter
    /// from the client's own forked random stream.  No-op without a policy,
    /// so fault-free runs neither schedule timers nor draw randomness here.
    fn arm_retransmit(&mut self, id: u64, ctx: &mut Context<'_, Packet>) {
        let Some(policy) = self.retransmit else {
            return;
        };
        let Some(info) = self.in_flight.get_mut(id) else {
            return;
        };
        let mut timeout = policy.timeout_nanos(info.retries);
        let max_jitter = policy.max_jitter_nanos(info.retries);
        if max_jitter > 0 {
            timeout += ctx.rng().next_u64() % (max_jitter + 1);
        }
        let delay = SimDuration::from_nanos(timeout);
        info.deadline = ctx.now() + delay;
        ctx.schedule_timer(delay, TimerToken(id | RETX_TIMER_BIT));
    }

    fn send_request_syn(&mut self, request: Request, ctx: &mut Context<'_, Packet>) {
        let (addr, port) = request_endpoint(&self.plan, request.id);
        let flow = FlowKey::new(addr, self.vip_of(request.id), port, VIP_PORT, Protocol::Tcp);
        self.in_flight.insert(
            request.id,
            InFlight {
                flow,
                sent_at: ctx.now(),
                class: request.class,
                service: request.service,
                awaiting: Awaiting::SynSent,
                retries: 0,
                deadline: SimTime::ZERO,
            },
        );
        self.sent += 1;
        if let Some(lb) = self.lb_of(&flow) {
            ctx.send(lb, Self::syn_packet(&flow));
        }
        self.arm_retransmit(request.id, ctx);
    }

    fn handle_syn_ack(&mut self, packet: &Packet, ctx: &mut Context<'_, Packet>) {
        // The SYN-ACK is addressed to the per-request client endpoint; recover
        // the request id and send the HTTP request itself — immediately, or
        // after the configured think time.
        let Some(id) = request_id_of(
            &self.plan,
            packet.current_destination(),
            packet.tcp.destination_port,
        ) else {
            return;
        };
        // A duplicate SYN-ACK (a retransmitted SYN accepted by a second
        // server, or the original acceptance racing a retransmission) must
        // not re-send the request or arm a second think timer.
        match self.in_flight.get_mut(id) {
            Some(info) if info.awaiting == Awaiting::SynSent => {
                if !self.request_delay.is_zero() {
                    info.awaiting = Awaiting::Thinking;
                    info.deadline = SimTime::ZERO;
                }
            }
            _ => return,
        }
        if self.request_delay.is_zero() {
            self.send_http_request(id, ctx);
        } else {
            ctx.schedule_timer(self.request_delay, TimerToken(id | REQUEST_TIMER_BIT));
        }
    }

    fn send_http_request(&mut self, id: u64, ctx: &mut Context<'_, Packet>) {
        // The service demand travels with the in-flight record; a flow that
        // already finished (or was never sent) has nothing to request.
        let Some(info) = self.in_flight.get_mut(id) else {
            return;
        };
        info.awaiting = Awaiting::RequestSent;
        let (flow, service) = (info.flow, info.service);
        if let Some(lb) = self.lb_of(&flow) {
            ctx.send(lb, Self::http_packet(&flow, id, service));
        }
        self.arm_retransmit(id, ctx);
    }

    /// A retransmission timer fired for request `id`.  Honored only when it
    /// matches the armed deadline exactly (older timers keep firing because
    /// the engine has no cancellation; the moved deadline invalidates
    /// them) and the request is actually waiting on the wire.
    fn on_retransmit_timeout(&mut self, id: u64, ctx: &mut Context<'_, Packet>) {
        let Some(policy) = self.retransmit else {
            return;
        };
        let Some(info) = self.in_flight.get_mut(id) else {
            return; // already finished
        };
        if info.awaiting == Awaiting::Thinking || info.deadline != ctx.now() {
            return; // stale timer
        }
        if info.retries >= policy.max_retries {
            // Budget spent: give up gracefully instead of hanging.  The
            // request was transmitted `1 + max_retries` times in total.
            self.finish(id, RequestOutcome::Aborted, None, ctx);
            return;
        }
        info.retries += 1;
        self.retransmits += 1;
        let (flow, awaiting, service) = (info.flow, info.awaiting, info.service);
        if let Some(lb) = self.lb_of(&flow) {
            match awaiting {
                // The LB treats every SYN as new and re-hunts, so the retry
                // may land on a different (healthier) server.
                Awaiting::SynSent => ctx.send(lb, Self::syn_packet(&flow)),
                // An established flow: the LB's flow table steers the copy
                // to the server that accepted the connection.
                Awaiting::RequestSent => ctx.send(lb, Self::http_packet(&flow, id, service)),
                Awaiting::Thinking => unreachable!("checked above"),
            }
        }
        self.arm_retransmit(id, ctx);
    }

    fn finish(
        &mut self,
        id: u64,
        outcome: RequestOutcome,
        served_by: Option<u32>,
        ctx: &Context<'_, Packet>,
    ) {
        let Some(info) = self.in_flight.remove(id) else {
            return;
        };
        let response_time_ms = match outcome {
            RequestOutcome::Completed => {
                Some(ctx.now().duration_since(info.sent_at).as_millis_f64())
            }
            _ => None,
        };
        match outcome {
            RequestOutcome::Completed => self.completed += 1,
            RequestOutcome::Reset => self.resets += 1,
            RequestOutcome::Aborted => self.aborted += 1,
            RequestOutcome::Unfinished => {}
        }
        self.collector.push(RequestRecord {
            sent_at_seconds: info.sent_at.as_secs_f64(),
            response_time_ms,
            class: info.class,
            outcome,
            served_by,
            retransmits: info.retries,
        });
    }
}

impl Node<Packet> for ClientNode {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        self.schedule_next(ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Packet>) {
        if token.0 & REQUEST_TIMER_BIT != 0 {
            // Think time elapsed: send the HTTP request of an established
            // connection.
            self.send_http_request(token.0 & !REQUEST_TIMER_BIT, ctx);
            return;
        }
        if token.0 & RETX_TIMER_BIT != 0 {
            // Must be checked before the pending-request branch below: a
            // retransmission timer is not the arrival timer of `pending`.
            self.on_retransmit_timeout(token.0 & !RETX_TIMER_BIT, ctx);
            return;
        }
        // The timer for request `token.0` fired: send it, then pull and arm
        // the next request in the stream.
        let request = self
            .pending
            .take()
            // srlb-lint: allow(panic-hygiene) -- timer tokens without RETX_TIMER_BIT are armed only in schedule_next, which always sets `pending` first
            .expect("a request timer only fires for the pending request");
        debug_assert_eq!(request.id, token.0);
        self.send_request_syn(request, ctx);
        self.schedule_next(ctx);
    }

    fn on_message(&mut self, packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        let Some(id) = request_id_of(
            &self.plan,
            packet.current_destination(),
            packet.tcp.destination_port,
        ) else {
            return;
        };
        if packet.is_syn_ack() {
            self.handle_syn_ack(&packet, ctx);
        } else if packet.is_rst() {
            self.finish(id, RequestOutcome::Reset, None, ctx);
        } else if packet.tcp.flags.contains(TcpFlags::PSH) {
            // The response payload names the serving server, so completions
            // are attributable (per-phase fairness in scenario runs).
            let served_by =
                srlb_server::server_node::decode_response_payload(&packet.payload).map(|(_, s)| s);
            self.finish(id, RequestOutcome::Completed, served_by, ctx);
        }
    }

    fn name(&self) -> String {
        "client".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srlb_metrics::RequestClass;
    use srlb_sim::SimDuration;
    use srlb_workload::Request;

    #[test]
    fn endpoint_mapping_is_invertible() {
        let plan = AddressPlan::default();
        for id in [0u64, 1, 59_999, 60_000, 60_001, 180_000, 1_000_000] {
            let (addr, port) = request_endpoint(&plan, id);
            assert_eq!(request_id_of(&plan, addr, port), Some(id));
            assert!(port >= BASE_PORT);
        }
    }

    #[test]
    fn endpoint_mapping_rejects_foreign_addresses() {
        let plan = AddressPlan::default();
        assert_eq!(request_id_of(&plan, plan.lb_addr(), 2000), None);
        let (addr, _) = request_endpoint(&plan, 0);
        assert_eq!(request_id_of(&plan, addr, 100), None);
    }

    #[test]
    fn client_addr_count_covers_the_trace() {
        assert_eq!(client_addr_count(0), 1);
        assert_eq!(client_addr_count(59_999), 1);
        assert_eq!(client_addr_count(60_000), 2);
        assert_eq!(client_addr_count(1_000_000), 17);
    }

    #[test]
    fn unsorted_trace_is_rejected() {
        let plan = AddressPlan::default();
        let requests = vec![
            Request::new(
                0,
                SimTime::from_secs_f64(2.0),
                RequestClass::Synthetic,
                SimDuration::from_millis(1),
            ),
            Request::new(
                1,
                SimTime::from_secs_f64(1.0),
                RequestClass::Synthetic,
                SimDuration::from_millis(1),
            ),
        ];
        let result = std::panic::catch_unwind(|| {
            ClientNode::new(plan.clone(), plan.vip(0), Directory::new(), requests)
        });
        assert!(result.is_err());
    }

    /// An in-flight record for request `id`, with the id encoded into
    /// `sent_at` so the drain order is observable from the outside.
    fn in_flight_record(plan: &AddressPlan, id: u64) -> InFlight {
        let (addr, port) = request_endpoint(plan, id);
        InFlight {
            flow: FlowKey::new(addr, plan.vip(0), port, VIP_PORT, Protocol::Tcp),
            sent_at: SimTime::from_secs_f64(id as f64),
            class: RequestClass::Synthetic,
            service: SimDuration::from_millis(1),
            awaiting: Awaiting::SynSent,
            retries: 0,
            deadline: SimTime::ZERO,
        }
    }

    #[test]
    fn into_collector_drains_leftovers_in_request_id_order() {
        // Regression for the PR 6 nondeterminism bug: `in_flight` used to
        // be a HashMap whose drain order was randomized per instance, so
        // leftover records could land in the report in any order.  The
        // field is an id-ordered window now; an adversarial completion
        // order must not be observable in the drained records.
        let plan = AddressPlan::default();
        let mut client = ClientNode::new(plan.clone(), plan.vip(0), Directory::new(), vec![]);
        for id in 0..10u64 {
            client.in_flight.insert(id, in_flight_record(&plan, id));
        }
        for finished in [4u64, 1, 8, 6] {
            assert!(client.in_flight.remove(finished).is_some());
        }
        let collector = client.into_collector();
        let drained: Vec<f64> = collector
            .records()
            .iter()
            .map(|r| r.sent_at_seconds)
            .collect();
        assert_eq!(drained, vec![0.0, 2.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn into_collector_marks_outstanding_as_unfinished() {
        let plan = AddressPlan::default();
        let mut client = ClientNode::new(plan.clone(), plan.vip(0), Directory::new(), vec![]);
        client.in_flight.insert(3, in_flight_record(&plan, 3));
        let collector = client.into_collector();
        assert_eq!(collector.len(), 1);
        assert_eq!(collector.records()[0].outcome, RequestOutcome::Unfinished);
    }
}
