//! The backend server as a simulation node.
//!
//! A [`ServerNode`] combines the virtual router, the application agent, the
//! worker pool, the processor-sharing CPU and the accept backlog into one
//! [`srlb_sim::Node`], and speaks the simple TCP-over-SRv6 protocol of the
//! experiments:
//!
//! 1. a hunted **SYN** arrives with the Service Hunting SRH; the virtual
//!    router decides locally (accept / pass on) from the scoreboard,
//! 2. on acceptance the server answers with a **SYN-ACK** carrying the
//!    acceptance SRH `[server, load-balancer, client]` so the load balancer
//!    learns the owner of the flow,
//! 3. the client then sends the **request** (an ACK/PSH packet whose payload
//!    encodes the request id and its CPU service demand), steered by the
//!    load balancer to the owning server,
//! 4. the request claims an idle worker thread and its CPU demand is served
//!    by the processor-sharing CPU (all busy threads contend for the
//!    configured cores, as Apache's 32 prefork workers contend for the
//!    paper's 2-core VMs); if no worker thread is idle the request waits in
//!    the backlog, and if the backlog is full the connection is **reset**
//!    (`tcp_abort_on_overflow`),
//! 5. when service completes the server sends the **response** directly to
//!    the client and pulls the next request from the backlog.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use srlb_net::{FlowKey, Packet, PacketBuilder, PassthroughHashBuilder, Payload, TcpFlags};
use srlb_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};

use crate::agent::ApplicationAgent;
use crate::backlog::Backlog;
use crate::cpu::ProcessorSharingCpu;
use crate::directory::Directory;
use crate::policy::PolicyConfig;
use crate::vrouter::{RouterAction, VirtualRouter};
use crate::worker::{WorkerId, WorkerPool};

/// Static configuration of one backend server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Index of the server in the cluster.
    pub server_index: u32,
    /// The server's physical IPv6 address.
    pub addr: Ipv6Addr,
    /// The load balancer's address.
    pub lb_addr: Ipv6Addr,
    /// Number of worker threads (the paper uses 32).
    pub workers: usize,
    /// Number of CPU cores shared by busy worker threads (the paper's VMs
    /// have 2).
    pub cores: usize,
    /// TCP backlog capacity (the paper uses 128).
    pub backlog: usize,
    /// Connection acceptance policy.
    pub policy: PolicyConfig,
    /// Whether to record per-change load samples (needed for Figure 4).
    pub record_load: bool,
}

impl ServerConfig {
    /// The paper's server configuration with the given policy: a 2-core VM
    /// running 32 worker threads with a backlog of 128.
    pub fn paper(
        server_index: u32,
        addr: Ipv6Addr,
        lb_addr: Ipv6Addr,
        policy: PolicyConfig,
    ) -> Self {
        ServerConfig {
            server_index,
            addr,
            lb_addr,
            workers: 32,
            cores: 2,
            backlog: 128,
            policy,
            record_load: false,
        }
    }
}

/// Counters exposed by a server after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Hunted connections accepted by the local policy (as a non-final
    /// candidate).
    pub accepted_by_policy: u64,
    /// Hunted connections passed on to the next candidate.
    pub passed_on: u64,
    /// Connections accepted because this server was the final candidate.
    pub forced_accepts: u64,
    /// Requests that started service immediately.
    pub served_immediately: u64,
    /// Requests that had to wait in the backlog.
    pub queued: u64,
    /// Requests reset because the backlog was full.
    pub resets: u64,
    /// Requests completed (responses sent).
    pub completed: u64,
    /// Ownership adverts sent to the load balancer for re-hunted packets of
    /// flows this server owns (in-band flow-table reconstruction after a
    /// load-balancer failover).
    pub ownership_adverts: u64,
    /// Re-hunted packets that reached this server as the last candidate
    /// without any candidate owning the flow: the connection is
    /// unrecoverable and was reset.
    pub orphaned: u64,
    /// Retransmitted requests ignored because the same `(flow, request)`
    /// was already running or backlogged — the duplicate-segment
    /// suppression real TCP performs by sequence number.  Zero on
    /// fault-free runs.
    #[serde(default, skip_serializing_if = "duplicate_count_is_zero")]
    pub duplicates_ignored: u64,
    /// Responses replayed from lingering connection state for a
    /// retransmitted request whose original response was lost.  Zero on
    /// fault-free runs.
    #[serde(default, skip_serializing_if = "duplicate_count_is_zero")]
    pub responses_replayed: u64,
}

/// Serde skip predicate for [`ServerStats::duplicates_ignored`], keeping
/// fault-free serialized stats byte-identical to the pre-fault-layer form.
fn duplicate_count_is_zero(n: &u64) -> bool {
    *n == 0
}

impl ServerStats {
    /// Adds another stats snapshot field-wise (used by scenario runs to
    /// merge the counters of successive incarnations of the same server
    /// index across a remove/re-add cycle).
    pub fn absorb(&mut self, other: ServerStats) {
        self.accepted_by_policy += other.accepted_by_policy;
        self.passed_on += other.passed_on;
        self.forced_accepts += other.forced_accepts;
        self.served_immediately += other.served_immediately;
        self.queued += other.queued;
        self.resets += other.resets;
        self.completed += other.completed;
        self.ownership_adverts += other.ownership_adverts;
        self.orphaned += other.orphaned;
        self.duplicates_ignored += other.duplicates_ignored;
        self.responses_replayed += other.responses_replayed;
    }
}

/// Per-flow connection state.
///
/// An entry is created when the hunted SYN is accepted and lives until the
/// peer closes (RST/FIN) — **including after the response was sent**: the
/// completed request's id is retained so a retransmitted request whose
/// response was lost on the way back is answered from this state instead of
/// being re-served (or, after a load-balancer failover wiped the flow
/// table, orphaned as unrecoverable).  Flows are never reused within a run
/// (each request gets a unique client `(address, port)` pair), so a
/// retained entry can only ever match its own request's retransmissions.
#[derive(Debug, Clone, Copy)]
struct Connection {
    /// Id of the request this connection completed, once the response has
    /// been sent.
    completed: Option<u64>,
}

/// A request waiting in the backlog for a worker thread.
#[derive(Debug, Clone)]
struct PendingJob {
    flow: FlowKey,
    request_id: u64,
    service: SimDuration,
}

/// A request currently being served by a worker thread.
#[derive(Debug, Clone)]
struct RunningJob {
    worker: WorkerId,
    flow: FlowKey,
    request_id: u64,
}

/// Encodes a request's id and CPU service demand into a packet payload.
///
/// The experiment's client encodes the per-request CPU demand (drawn from the
/// workload's service-time distribution) in the request payload; this stands
/// in for the PHP script / wiki page the paper's clients request, whose cost
/// the server only discovers by executing it.
///
/// Sixteen bytes, assembled on the stack and stored inline in the packet:
/// no allocation.
pub fn encode_request_payload(request_id: u64, service: SimDuration) -> Payload {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&request_id.to_be_bytes());
    buf[8..].copy_from_slice(&service.as_nanos().to_be_bytes());
    Payload::copy_from_slice(&buf)
}

/// Decodes a payload produced by [`encode_request_payload`].
///
/// Returns `None` if the payload is too short.
pub fn decode_request_payload(payload: &[u8]) -> Option<(u64, SimDuration)> {
    if payload.len() < 16 {
        return None;
    }
    let id = u64::from_be_bytes(payload[0..8].try_into().ok()?);
    let nanos = u64::from_be_bytes(payload[8..16].try_into().ok()?);
    Some((id, SimDuration::from_nanos(nanos)))
}

/// Encodes a response payload: the request id plus the index of the server
/// that served it, so the measurement client can attribute completions to
/// servers (per-phase fairness in dynamic-cluster scenarios).  Twelve bytes,
/// inline like the request's.
pub fn encode_response_payload(request_id: u64, server_index: u32) -> Payload {
    let mut buf = [0u8; 12];
    buf[..8].copy_from_slice(&request_id.to_be_bytes());
    buf[8..].copy_from_slice(&server_index.to_be_bytes());
    Payload::copy_from_slice(&buf)
}

/// Decodes a payload produced by [`encode_response_payload`].
///
/// Returns `None` if the payload is too short.
pub fn decode_response_payload(payload: &[u8]) -> Option<(u64, u32)> {
    if payload.len() < 12 {
        return None;
    }
    let id = u64::from_be_bytes(payload[0..8].try_into().ok()?);
    let server = u32::from_be_bytes(payload[8..12].try_into().ok()?);
    Some((id, server))
}

/// Encodes the server-load hint a server attaches to its acceptance SYN-ACK
/// (and ownership adverts): busy worker threads, configured worker threads
/// and current backlog depth, each as a big-endian `u32` — twelve bytes,
/// inline in the packet.
///
/// The load balancer's load-aware dispatcher smooths
/// `(busy + backlog) / workers` into a per-server EWMA; load-oblivious
/// dispatchers (the default) ignore the hint entirely, and the measurement
/// client ignores payloads on SYN-ACKs, so attaching it is invisible to every
/// existing configuration.
pub fn encode_load_hint(busy: u32, workers: u32, backlog: u32) -> Payload {
    let mut buf = [0u8; 12];
    buf[..4].copy_from_slice(&busy.to_be_bytes());
    buf[4..8].copy_from_slice(&workers.to_be_bytes());
    buf[8..].copy_from_slice(&backlog.to_be_bytes());
    Payload::copy_from_slice(&buf)
}

/// Decodes a payload produced by [`encode_load_hint`], returning
/// `(busy, workers, backlog)`.
///
/// Returns `None` if the payload is too short.
pub fn decode_load_hint(payload: &[u8]) -> Option<(u32, u32, u32)> {
    if payload.len() < 12 {
        return None;
    }
    let busy = u32::from_be_bytes(payload[0..4].try_into().ok()?);
    let workers = u32::from_be_bytes(payload[4..8].try_into().ok()?);
    let backlog = u32::from_be_bytes(payload[8..12].try_into().ok()?);
    Some((busy, workers, backlog))
}

/// One backend server of the simulated cluster.
#[derive(Debug)]
pub struct ServerNode {
    config: ServerConfig,
    directory: Directory,
    router: VirtualRouter,
    agent: ApplicationAgent,
    pool: WorkerPool,
    cpu: ProcessorSharingCpu,
    backlog: Backlog<PendingJob>,
    /// Keyed by the flow key's cached hash (no re-hashing per packet).
    connections: HashMap<FlowKey, Connection, PassthroughHashBuilder>,
    /// Keyed by this server's own sequential job tokens.
    running: HashMap<u64, RunningJob, PassthroughHashBuilder>,
    next_job_token: u64,
    /// Generation counter for the single CPU completion timer: any timer
    /// whose token does not match the current generation is stale and
    /// ignored.
    cpu_timer_generation: u64,
    stats: ServerStats,
    load_samples: Vec<(f64, usize)>,
}

impl ServerNode {
    /// Creates a server node.
    pub fn new(config: ServerConfig, directory: Directory) -> Self {
        let router = VirtualRouter::new(config.addr, config.lb_addr);
        let agent = ApplicationAgent::new(config.policy.build());
        let pool = WorkerPool::new(config.workers);
        let cpu = ProcessorSharingCpu::new(config.cores);
        let backlog = Backlog::new(config.backlog);
        ServerNode {
            config,
            directory,
            router,
            agent,
            pool,
            cpu,
            backlog,
            connections: HashMap::default(),
            running: HashMap::default(),
            next_job_token: 0,
            cpu_timer_generation: 0,
            stats: ServerStats::default(),
            load_samples: Vec::new(),
        }
    }

    /// The server's address.
    pub fn addr(&self) -> Ipv6Addr {
        self.config.addr
    }

    /// The server's index in the cluster.
    pub fn server_index(&self) -> u32 {
        self.config.server_index
    }

    /// Run counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Number of busy worker threads right now.
    pub fn busy_workers(&self) -> usize {
        self.pool.busy_count()
    }

    /// The application agent (for acceptance-ratio and threshold inspection).
    pub fn agent(&self) -> &ApplicationAgent {
        &self.agent
    }

    /// Per-change `(time_seconds, busy_workers)` samples (empty unless
    /// `record_load` was enabled in the configuration).
    pub fn load_samples(&self) -> &[(f64, usize)] {
        &self.load_samples
    }

    /// Number of requests currently waiting in the backlog.
    pub fn backlog_depth(&self) -> usize {
        self.backlog.len()
    }

    /// The server's routing table, for re-advertising an ECMP tier between
    /// run segments.
    pub fn directory_mut(&mut self) -> &mut Directory {
        &mut self.directory
    }

    /// Re-provisions the server's capacity at runtime (dynamic-cluster
    /// scenarios with heterogeneous or re-provisioned backends).  Worker
    /// growth takes effect immediately; shrinking drains gracefully (running
    /// requests are never interrupted).  The CPU's core count changes after
    /// in-flight work is advanced at the old rate, and the completion timer
    /// is rescheduled for the new rate.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `cores` is zero.
    pub fn set_capacity(&mut self, workers: usize, cores: usize, ctx: &mut Context<'_, Packet>) {
        self.config.workers = workers;
        self.config.cores = cores;
        self.pool.resize(workers);
        self.cpu.set_cores(cores, ctx.now());
        self.record_load(ctx.now());
        self.reschedule_cpu_timer(ctx);
    }

    fn record_load(&mut self, now: SimTime) {
        if self.config.record_load {
            self.load_samples
                .push((now.as_secs_f64(), self.pool.busy_count()));
        }
    }

    /// The load-balancer tier instance serving `flow`: ECMP-steered by the
    /// flow's canonical (client → VIP) hash, so a packet sent there reaches
    /// the same instance the client's own packets are steered to.  With a
    /// single load balancer (`lb_addr` registered unicast) this degenerates
    /// to a plain lookup.
    fn lb_of(&self, flow: &FlowKey) -> Option<NodeId> {
        self.directory
            .lookup_flow(self.config.lb_addr, flow.stable_hash())
    }

    /// The load hint describing this server's instantaneous state, attached
    /// to acceptance SYN-ACKs and ownership adverts.
    fn load_hint(&self) -> Payload {
        encode_load_hint(
            self.pool.busy_count() as u32,
            self.config.workers as u32,
            self.backlog.len() as u32,
        )
    }

    /// Bumps the timer generation and schedules a wake-up at the CPU's next
    /// completion instant (if any).  Must be called after every change to the
    /// set of running jobs.
    fn reschedule_cpu_timer(&mut self, ctx: &mut Context<'_, Packet>) {
        self.cpu_timer_generation += 1;
        if let Some(at) = self.cpu.next_completion(ctx.now()) {
            let delay = at.duration_since(ctx.now());
            ctx.schedule_timer(delay, TimerToken(self.cpu_timer_generation));
        }
    }

    /// Handles a hunted SYN delivered locally: the connection is established
    /// on this server and the SYN-ACK (with the acceptance SRH) is sent back
    /// through the load balancer.
    fn accept_connection(&mut self, packet: &Packet, ctx: &mut Context<'_, Packet>) {
        let flow = packet.flow_key_forward();
        let client = flow.client();
        self.connections
            .insert(flow, Connection { completed: None });

        // The active segment of the acceptance route is the load balancer —
        // specifically the tier instance this flow is ECMP-steered to, so
        // the flow table that learns the owner is the one that will steer
        // the flow's subsequent packets.
        let Some(lb) = self.lb_of(&flow) else {
            return;
        };
        // Built from the key, so the SYN-ACK carries the flow's hash to the
        // load balancer that learns from it.
        let mut syn_ack = PacketBuilder::reverse(&flow)
            .flags(TcpFlags::SYN_ACK)
            .payload(self.load_hint())
            .build();
        syn_ack
            .set_route(&self.router.acceptance_route(client), 1)
            .expect("a 3-segment acceptance route is valid");
        ctx.send(lb, syn_ack);
    }

    /// Handles an established-flow request packet: serve, queue or reset.
    fn handle_request(&mut self, packet: &Packet, ctx: &mut Context<'_, Packet>) {
        let flow = packet.flow_key_forward();
        let Some((request_id, service)) = decode_request_payload(&packet.payload) else {
            return; // bare ACK / FIN of the handshake: nothing to do
        };
        // A retransmitted request for an already-completed connection means
        // the response was lost on the way back: replay it from connection
        // state instead of re-serving the job.
        if let Some(done) = self.connections.get(&flow).and_then(|c| c.completed) {
            if done == request_id {
                self.stats.responses_replayed += 1;
                self.send_response(&flow, request_id, ctx);
            }
            return;
        }
        // Duplicate-segment suppression: a retransmitted request whose
        // original is already running or backlogged (a spurious client
        // timeout, or a drop between here and the client while the job is
        // still in service) must not be served twice — the in-flight job's
        // response answers the retransmission.  Without this, spurious
        // retransmits under load feed back into longer queues and collapse
        // the server, exactly the storm TCP's sequence numbers prevent.
        if self
            .running
            // srlb-lint: allow(unordered-iter) -- `.any()` over an existence predicate is order-independent; no order-sensitive value escapes
            .values()
            .any(|j| j.flow == flow && j.request_id == request_id)
            || self
                .backlog
                .iter()
                .any(|j| j.flow == flow && j.request_id == request_id)
        {
            self.stats.duplicates_ignored += 1;
            return;
        }
        let job = PendingJob {
            flow,
            request_id,
            service,
        };
        if self.pool.is_saturated() {
            match self.backlog.push(job) {
                Ok(()) => {
                    self.stats.queued += 1;
                }
                Err(job) => {
                    // tcp_abort_on_overflow: reset the connection.
                    self.stats.resets += 1;
                    self.connections.remove(&job.flow);
                    self.send_reset(&job.flow, ctx);
                }
            }
        } else {
            self.stats.served_immediately += 1;
            self.start_service(job, ctx.now());
            self.record_load(ctx.now());
            self.reschedule_cpu_timer(ctx);
        }
    }

    /// Claims a worker thread and adds the job's CPU demand to the shared
    /// CPU.  The caller is responsible for rescheduling the CPU timer.
    fn start_service(&mut self, job: PendingJob, now: SimTime) {
        let worker = self
            .pool
            .claim()
            .expect("start_service is only called with an idle worker");
        let token = self.next_job_token;
        self.next_job_token += 1;
        self.cpu.add_job(token, job.service, now);
        self.running.insert(
            token,
            RunningJob {
                worker,
                flow: job.flow,
                request_id: job.request_id,
            },
        );
    }

    /// Completes one finished job: frees its worker thread, sends the
    /// response to the client, and admits the next backlogged request if any.
    fn complete_job(&mut self, token: u64, ctx: &mut Context<'_, Packet>) {
        let Some(job) = self.running.remove(&token) else {
            return;
        };
        self.pool.release(job.worker);
        self.stats.completed += 1;
        // The connection lingers with the completed request id recorded, so
        // a retransmission of the request (lost response) can be answered
        // from state; the entry is dropped when the peer closes (RST/FIN).
        self.connections.insert(
            job.flow,
            Connection {
                completed: Some(job.request_id),
            },
        );
        self.send_response(&job.flow, job.request_id, ctx);

        // Pull the next waiting request onto the freed worker thread.
        if let Some(next) = self.backlog.pop() {
            self.start_service(next, ctx.now());
        }
    }

    /// Sends the response for `request_id` directly to the flow's client
    /// (direct server return); the payload names this server so completions
    /// are attributable.
    fn send_response(&self, flow: &FlowKey, request_id: u64, ctx: &mut Context<'_, Packet>) {
        let client = flow.client();
        let Some(node) = self.directory.lookup(client) else {
            return;
        };
        let response = PacketBuilder::tcp(flow.vip(), client)
            .ports(flow.vip_port(), flow.client_port())
            .flags(TcpFlags::PSH | TcpFlags::ACK)
            .payload(encode_response_payload(
                request_id,
                self.config.server_index,
            ))
            .build();
        ctx.send(node, response);
    }

    /// Resets `flow`'s connection towards its client.
    fn send_reset(&self, flow: &FlowKey, ctx: &mut Context<'_, Packet>) {
        let client = flow.client();
        let Some(node) = self.directory.lookup(client) else {
            return;
        };
        let rst = PacketBuilder::tcp(flow.vip(), client)
            .ports(flow.vip_port(), flow.client_port())
            .flags(TcpFlags::RST)
            .build();
        ctx.send(node, rst);
    }

    /// Handles a *re-hunted* packet: a non-SYN packet carrying a Service
    /// Hunting SRH, which only happens when a (recovered) load balancer had
    /// no flow-table entry for an established flow and fell back to the
    /// candidate list.  Unlike connection establishment, the decision here
    /// is by **ownership**, not instantaneous load:
    ///
    /// * this server owns the *live* connection — deliver locally and send
    ///   an ownership advert (an acceptance-style SRH) to the load balancer
    ///   so its flow table is reconstructed in-band,
    /// * the connection completed and only lingers for response replay — a
    ///   retransmission of the completed request is answered from state,
    ///   anything else falls through as if the flow were unknown (a dead
    ///   flow must not be resurrected into the flow table),
    /// * another candidate may own it — forward along the SR list,
    /// * last candidate and nobody owned it — the connection is
    ///   unrecoverable: reset it so the client learns immediately.
    ///
    /// Returns the next hop when the packet must travel on along its SR list
    /// (already advanced); every other outcome is handled here.
    fn handle_rehunted(
        &mut self,
        packet: &mut Packet,
        ctx: &mut Context<'_, Packet>,
    ) -> Option<Ipv6Addr> {
        let flow = packet.flow_key_forward();
        let segments_left = packet.srh.as_ref().map_or(0, |s| s.segments_left());
        match self.connections.get(&flow).copied() {
            Some(conn) if conn.completed.is_none() => {
                if packet.set_segments_left(0).is_err() {
                    return None;
                }
                self.stats.ownership_adverts += 1;
                self.send_ownership_advert(&flow, ctx);
                self.deliver_established(packet, ctx);
                return None;
            }
            Some(conn) => {
                // The connection completed and lingers only to answer
                // retransmissions: replay a matching request, but never
                // advert ownership — the flow is dead, and a re-hunt must
                // not re-install it in the load balancer's table.
                if let Some((request_id, _)) = decode_request_payload(&packet.payload) {
                    if conn.completed == Some(request_id) {
                        self.stats.responses_replayed += 1;
                        self.send_response(&flow, request_id, ctx);
                        return None;
                    }
                }
                if packet.is_rst() || packet.is_fin() {
                    self.connections.remove(&flow);
                    return None;
                }
            }
            None => {}
        }
        if segments_left >= 2 {
            packet.advance_segment().ok()
        } else {
            self.stats.orphaned += 1;
            self.send_reset(&flow, ctx);
            None
        }
    }

    /// Re-announces ownership of `flow` to the load balancer with the same
    /// acceptance SRH a SYN-ACK carries, so the (recovered) load balancer
    /// re-learns *flow → server* purely in-band.
    fn send_ownership_advert(&self, flow: &FlowKey, ctx: &mut Context<'_, Packet>) {
        let Some(lb) = self.lb_of(flow) else {
            return;
        };
        let mut advert = PacketBuilder::reverse(flow)
            .flags(TcpFlags::ACK)
            .payload(self.load_hint())
            .build();
        advert
            .set_route(&self.router.acceptance_route(flow.client()), 1)
            .expect("a 3-segment acceptance route is valid");
        ctx.send(lb, advert);
    }

    /// A non-SYN packet whose SRH leads with a *foreign* first segment is a
    /// re-hunt (flow-table reconstruction after load-balancer failover): the
    /// load balancer marks re-hunt routes with itself as the
    /// already-consumed first segment, whereas steered traffic always
    /// arrives as `[self, VIP]`.  Re-hunts are routed by connection
    /// ownership, not load.
    fn is_rehunt(&self, packet: &Packet) -> bool {
        !packet.is_syn()
            && packet.srh.as_ref().is_some_and(|srh| {
                srh.segments_left() >= 1 && srh.first_segment() != self.config.addr
            })
    }

    /// Runs the virtual router on an inbound packet and acts on its verdict:
    /// a locally delivered packet is consumed here (connection accepted, or
    /// request served); for one passed on, the next candidate is returned.
    fn route_hunted(
        &mut self,
        packet: &mut Packet,
        ctx: &mut Context<'_, Packet>,
    ) -> Option<Ipv6Addr> {
        let scoreboard = self.pool.scoreboard();
        let accepted_before = self.agent.accepted();
        // A malformed SRH drops the packet.
        match self
            .router
            .process(packet, &mut self.agent, scoreboard)
            .ok()?
        {
            RouterAction::Forward { next_hop } => {
                self.stats.passed_on += 1;
                Some(next_hop)
            }
            RouterAction::DeliverLocal => {
                if packet.is_syn() {
                    // A SYN accepted without consulting the agent was a
                    // forced acceptance (this server was the last candidate).
                    if self.agent.accepted() > accepted_before {
                        self.stats.accepted_by_policy += 1;
                    } else {
                        self.stats.forced_accepts += 1;
                    }
                    self.accept_connection(packet, ctx);
                } else {
                    self.deliver_established(packet, ctx);
                }
                None
            }
        }
    }

    /// Handles a locally delivered non-SYN packet of an established flow.
    fn deliver_established(&mut self, packet: &Packet, ctx: &mut Context<'_, Packet>) {
        if packet.is_rst() || packet.is_fin() {
            // Connection aborted or closed by the peer.
            self.connections.remove(&packet.flow_key_forward());
        } else {
            self.handle_request(packet, ctx);
        }
    }
}

impl Node<Packet> for ServerNode {
    fn on_message(&mut self, mut packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        // The packet is rewritten where it arrived and, if it travels on,
        // sent once from here; the helpers only borrow it.
        let next_hop = if self.is_rehunt(&packet) {
            self.handle_rehunted(&mut packet, ctx)
        } else {
            self.route_hunted(&mut packet, ctx)
        };
        if let Some(node) = next_hop.and_then(|addr| self.directory.lookup(addr)) {
            ctx.send(node, packet);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Packet>) {
        if token.0 != self.cpu_timer_generation {
            return; // stale wake-up from before the last CPU change
        }
        let finished = self.cpu.take_completed(ctx.now());
        for job_token in finished {
            self.complete_job(job_token, ctx);
        }
        self.record_load(ctx.now());
        self.reschedule_cpu_timer(ctx);
    }

    fn name(&self) -> String {
        format!("server-{}", self.config.server_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let payload = encode_request_payload(42, SimDuration::from_millis(100));
        assert_eq!(payload.len(), 16);
        let (id, service) = decode_request_payload(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(service, SimDuration::from_millis(100));
    }

    #[test]
    fn response_payload_roundtrip() {
        let payload = encode_response_payload(42, 7);
        assert_eq!(payload.len(), 12);
        assert_eq!(decode_response_payload(&payload), Some((42, 7)));
        assert_eq!(decode_response_payload(&payload[..8]), None);
    }

    #[test]
    fn stats_absorb_sums_fieldwise() {
        let mut a = ServerStats {
            completed: 3,
            resets: 1,
            ..ServerStats::default()
        };
        let b = ServerStats {
            completed: 2,
            orphaned: 4,
            ownership_adverts: 5,
            ..ServerStats::default()
        };
        a.absorb(b);
        assert_eq!(a.completed, 5);
        assert_eq!(a.resets, 1);
        assert_eq!(a.orphaned, 4);
        assert_eq!(a.ownership_adverts, 5);
    }

    #[test]
    fn short_payload_is_rejected() {
        assert_eq!(decode_request_payload(&[1, 2, 3]), None);
        assert_eq!(decode_request_payload(&[]), None);
    }

    #[test]
    fn load_hint_roundtrip() {
        let payload = encode_load_hint(5, 32, 17);
        assert_eq!(payload.len(), 12);
        assert_eq!(decode_load_hint(&payload), Some((5, 32, 17)));
        assert_eq!(decode_load_hint(&payload[..8]), None);
        assert_eq!(decode_load_hint(&[]), None);
    }

    #[test]
    fn server_config_paper_defaults() {
        let cfg = ServerConfig::paper(
            3,
            "fd00::3".parse().unwrap(),
            "fd00::1b".parse().unwrap(),
            PolicyConfig::Static { threshold: 4 },
        );
        assert_eq!(cfg.workers, 32);
        assert_eq!(cfg.cores, 2);
        assert_eq!(cfg.backlog, 128);
        assert!(!cfg.record_load);
        let node = ServerNode::new(cfg, Directory::new());
        assert_eq!(node.busy_workers(), 0);
        assert_eq!(node.backlog_depth(), 0);
        assert_eq!(node.server_index(), 3);
        assert_eq!(node.addr(), "fd00::3".parse::<Ipv6Addr>().unwrap());
        assert_eq!(node.stats(), ServerStats::default());
        assert_eq!(Node::<Packet>::name(&node), "server-3");
    }
}
