//! The backend server as a simulation node.
//!
//! A [`ServerNode`] combines the virtual router's Algorithm 1, the
//! acceptance policy, the worker pool, the processor-sharing CPU and the
//! accept backlog into one [`srlb_sim::Node`], and speaks the simple
//! TCP-over-SRv6 protocol of the experiments:
//!
//! 1. a hunted **SYN** arrives with the Service Hunting SRH; the server
//!    decides locally (accept / pass on) from its busy worker count,
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

use std::collections::hash_map::Entry;
#[cfg(debug_assertions)]
use std::collections::HashSet;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use srlb_net::{FlowKey, Packet, PacketBuilder, PassthroughHashBuilder, Payload, TcpFlags};
use srlb_sim::{Context, Node, NodeId, SimDuration, SimTime, TimerToken};

use crate::cpu::ProcessorSharingCpu;
use crate::directory::Directory;
use crate::policy::{Acceptance, PolicyConfig};
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

/// Per-flow connection state: the one record of a flow on its server.
///
/// An entry is created when the hunted SYN is accepted (or a request
/// arrives) and outlives the response: the completed request's id is
/// retained so a retransmitted request whose response was lost on the way
/// back is answered from this state instead of being re-served (or, after a
/// load-balancer failover wiped the flow table, orphaned as
/// unrecoverable).  Flows are never reused within a run (each request gets
/// a unique client `(address, port)` pair), so a retained entry can only
/// ever match its own request's retransmissions.
///
/// The entry ends with a backlog-overflow reset, or once the run's
/// retransmission horizon has passed since the connection opened or
/// completed: no segment of the flow can arrive after that, so an entry
/// that is not serving a request is retired (see
/// [`ServerNode::with_retire_horizon`]).  Without a horizon it stays for
/// the rest of the run.
#[derive(Debug, Clone, Copy)]
enum Connection {
    /// Accepted; no request admitted yet.
    Open,
    /// The request is running or waiting in the backlog.
    Serving {
        /// Id of the admitted request.
        request_id: u64,
    },
    /// The response has been sent.
    Done {
        /// Id of the completed request.
        request_id: u64,
    },
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
    acceptance: Acceptance,
    pool: WorkerPool,
    cpu: ProcessorSharingCpu,
    /// The TCP accept queue, bounded by `config.backlog`.  A request that
    /// finds it full resets its connection (`tcp_abort_on_overflow`, which
    /// the paper enables so that overflow shows at once instead of hiding
    /// behind the client's retransmissions).
    backlog: VecDeque<PendingJob>,
    /// Keyed by the flow key's cached hash (no re-hashing per packet).
    connections: HashMap<FlowKey, Connection, PassthroughHashBuilder>,
    /// How long after a connection opened or completed a segment of its
    /// flow can still arrive; `None` keeps every connection for the run.
    retire_horizon: Option<SimDuration>,
    /// `(time, flow)` of every connection opened or completed, oldest
    /// first: the flows to retire once the horizon has passed.
    retiring: VecDeque<(SimTime, FlowKey)>,
    /// Flows retired so far, and segments of them that arrived since.
    #[cfg(debug_assertions)]
    retired: HashSet<FlowKey, PassthroughHashBuilder>,
    #[cfg(debug_assertions)]
    retired_hits: u64,
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
        ServerNode {
            acceptance: Acceptance::new(config.policy),
            pool: WorkerPool::new(config.workers),
            cpu: ProcessorSharingCpu::new(config.cores),
            backlog: VecDeque::new(),
            config,
            directory,
            connections: HashMap::default(),
            retire_horizon: None,
            retiring: VecDeque::new(),
            #[cfg(debug_assertions)]
            retired: HashSet::default(),
            #[cfg(debug_assertions)]
            retired_hits: 0,
            running: HashMap::default(),
            next_job_token: 0,
            cpu_timer_generation: 0,
            stats: ServerStats::default(),
            load_samples: Vec::new(),
        }
    }

    /// Retires connections once `horizon` has passed since they opened or
    /// completed.  The horizon must bound how long after a flow's first
    /// segment its last one can reach this server (the runner derives it
    /// from the client's retransmission budget, think time and path
    /// latency); retirement then changes no output.  A connection still
    /// serving a request is kept, and retired after it completes.
    /// Retirement rides on the events the server handles anyway: it adds no
    /// timer.
    pub fn with_retire_horizon(mut self, horizon: SimDuration) -> Self {
        self.retire_horizon = Some(horizon);
        self
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

    /// The share of policy consultations that accepted the connection (0.0
    /// if the policy was never consulted).
    pub fn acceptance_ratio(&self) -> f64 {
        let consulted = self.stats.accepted_by_policy + self.stats.passed_on;
        if consulted == 0 {
            0.0
        } else {
            self.stats.accepted_by_policy as f64 / consulted as f64
        }
    }

    /// Connection records currently held.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Segments that arrived for flows this server had retired: zero when
    /// the retransmission horizon holds.  Debug builds only.
    #[cfg(debug_assertions)]
    pub fn retired_hits(&self) -> u64 {
        self.retired_hits
    }

    /// Per-change `(time_seconds, busy_workers)` samples (empty unless
    /// `record_load` was enabled in the configuration).
    pub fn load_samples(&self) -> &[(f64, usize)] {
        &self.load_samples
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

    /// The route a connection-acceptance packet (SYN-ACK or ownership
    /// advert) carries: `[server, load-balancer, client]`, installed with
    /// the first segment consumed, so the load balancer is the active
    /// segment and learns the owner from the consumed one.
    fn acceptance_route(&self, client: Ipv6Addr) -> [Ipv6Addr; 3] {
        [self.config.addr, self.config.lb_addr, client]
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

    /// Queues `flow` for retirement one horizon after `now`.
    fn retire_later(&mut self, flow: FlowKey, now: SimTime) {
        if self.retire_horizon.is_some() {
            self.retiring.push_back((now, flow));
        }
    }

    /// Retires the connections queued more than one horizon ago, unless
    /// they are serving a request (whose completion queues them again).
    fn retire_connections(&mut self, now: SimTime) {
        let Some(horizon) = self.retire_horizon else {
            return;
        };
        while let Some(&(since, flow)) = self.retiring.front() {
            if now.duration_since(since) <= horizon {
                break;
            }
            self.retiring.pop_front();
            if let Entry::Occupied(conn) = self.connections.entry(flow) {
                if !matches!(conn.get(), Connection::Serving { .. }) {
                    conn.remove();
                    #[cfg(debug_assertions)]
                    self.retired.insert(flow);
                }
            }
        }
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
        // A duplicate SYN must not forget a request already admitted; any
        // other SYN (re)opens the connection.
        let conn = self.connections.entry(flow).or_insert(Connection::Open);
        if !matches!(conn, Connection::Serving { .. }) {
            *conn = Connection::Open;
            self.retire_later(flow, ctx.now());
        }

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
            .set_route(&self.acceptance_route(client), 1)
            .expect("a 3-segment acceptance route is valid");
        ctx.send(lb, syn_ack);
    }

    /// Handles an established-flow request packet: serve, queue or reset.
    fn handle_request(&mut self, packet: &Packet, ctx: &mut Context<'_, Packet>) {
        let flow = packet.flow_key_forward();
        let Some((request_id, service)) = decode_request_payload(&packet.payload) else {
            return; // bare ACK / FIN of the handshake: nothing to do
        };
        match self.connections.get(&flow) {
            // A retransmitted request for an already-completed connection
            // means the response was lost on the way back: replay it from
            // connection state instead of re-serving the job.
            Some(&Connection::Done { request_id: done }) => {
                if done == request_id {
                    self.stats.responses_replayed += 1;
                    self.send_response(&flow, request_id, ctx);
                }
                return;
            }
            // Duplicate-segment suppression: a retransmitted request whose
            // original is already running or backlogged (a spurious client
            // timeout, or a drop between here and the client while the job
            // is still in service) must not be served twice — the in-flight
            // job's response answers the retransmission.  Without this,
            // spurious retransmits under load feed back into longer queues
            // and collapse the server, exactly the storm TCP's sequence
            // numbers prevent.
            Some(&Connection::Serving {
                request_id: serving,
            }) if serving == request_id => {
                self.stats.duplicates_ignored += 1;
                return;
            }
            _ => {}
        }
        let job = PendingJob {
            flow,
            request_id,
            service,
        };
        if !self.pool.is_saturated() {
            self.stats.served_immediately += 1;
            self.start_service(job, ctx.now());
            self.record_load(ctx.now());
            self.reschedule_cpu_timer(ctx);
        } else if self.backlog.len() < self.config.backlog {
            self.stats.queued += 1;
            self.backlog.push_back(job);
        } else {
            // tcp_abort_on_overflow: reset the connection.
            self.stats.resets += 1;
            self.connections.remove(&flow);
            self.send_reset(&flow, ctx);
            return;
        }
        self.connections
            .insert(flow, Connection::Serving { request_id });
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
        // from state, until the horizon has passed.
        self.connections.insert(
            job.flow,
            Connection::Done {
                request_id: job.request_id,
            },
        );
        self.retire_later(job.flow, ctx.now());
        self.send_response(&job.flow, job.request_id, ctx);

        // Pull the next waiting request onto the freed worker thread.
        if let Some(next) = self.backlog.pop_front() {
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
            Some(Connection::Open | Connection::Serving { .. }) => {
                if packet.set_segments_left(0).is_err() {
                    return None;
                }
                self.stats.ownership_adverts += 1;
                self.send_ownership_advert(&flow, ctx);
                self.handle_request(packet, ctx);
                return None;
            }
            // The connection completed and lingers only to answer
            // retransmissions: replay a matching request, but never advert
            // ownership — the flow is dead, and a re-hunt must not
            // re-install it in the load balancer's table.
            Some(Connection::Done { request_id })
                if decode_request_payload(&packet.payload)
                    .is_some_and(|(id, _)| id == request_id) =>
            {
                self.stats.responses_replayed += 1;
                self.send_response(&flow, request_id, ctx);
                return None;
            }
            Some(Connection::Done { .. }) | None => {}
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
            .set_route(&self.acceptance_route(flow.client()), 1)
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

    /// Algorithm 1, the virtual router's local decision, and its outcome:
    ///
    /// * no SRH, or `SegmentsLeft == 0` — steered traffic addressed to this
    ///   server: deliver locally,
    /// * `SegmentsLeft == 1` — the last candidate before the VIP must
    ///   accept: deliver locally with `SegmentsLeft ← 0`,
    /// * `SegmentsLeft >= 2` — the policy decides from the busy worker count:
    ///   deliver locally with `SegmentsLeft ← 0`, or pass the packet on to
    ///   the next candidate.
    ///
    /// A locally delivered packet is consumed here (connection accepted, or
    /// request served); for one passed on, the next candidate is returned.
    /// A malformed SRH drops the packet.
    fn route_hunted(
        &mut self,
        packet: &mut Packet,
        ctx: &mut Context<'_, Packet>,
    ) -> Option<Ipv6Addr> {
        let by_policy = match packet.srh.as_ref().map_or(0, |srh| srh.segments_left()) {
            0 => false,
            1 => {
                packet.set_segments_left(0).ok()?;
                false
            }
            _ => {
                if !self
                    .acceptance
                    .accepts(self.pool.busy_count(), self.pool.total())
                {
                    let next_hop = packet.advance_segment().ok()?;
                    self.stats.passed_on += 1;
                    return Some(next_hop);
                }
                packet.set_segments_left(0).ok()?;
                true
            }
        };
        if packet.is_syn() {
            if by_policy {
                self.stats.accepted_by_policy += 1;
            } else {
                self.stats.forced_accepts += 1;
            }
            self.accept_connection(packet, ctx);
        } else {
            self.handle_request(packet, ctx);
        }
        None
    }
}

impl Node<Packet> for ServerNode {
    fn on_message(&mut self, mut packet: Packet, _from: NodeId, ctx: &mut Context<'_, Packet>) {
        self.retire_connections(ctx.now());
        #[cfg(debug_assertions)]
        if self.retired.contains(&packet.flow_key_forward()) {
            self.retired_hits += 1;
        }
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
        self.retire_connections(ctx.now());
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
    use srlb_net::SegmentRoutingHeader;
    use srlb_sim::{Network, RunUntil, Topology};

    fn addr(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, n)
    }

    const LB: u16 = 99;
    const CLIENT: u16 = 100;
    const VIP: u16 = 200;

    /// Sends its script, `(milliseconds from the start, packet)`, to the
    /// first server and records every packet that leaves the servers: it
    /// stands in for the client, the load balancer and the VIP.
    #[derive(Debug)]
    struct Probe {
        script: Vec<(u64, Packet)>,
        seen: Vec<Packet>,
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
            self.seen.push(packet);
        }
    }

    /// Runs `packet` into servers at `addr(1)`, `addr(2)`, … with the given
    /// policies; returns the servers and what reached the probe.
    fn run(policies: &[PolicyConfig], packet: Packet) -> (Vec<ServerNode>, Vec<Packet>) {
        let configs = policies
            .iter()
            .enumerate()
            .map(|(i, &policy)| ServerConfig::paper(i as u32, addr(i as u16 + 1), addr(LB), policy))
            .collect();
        run_script(configs, vec![(0, packet)])
    }

    /// Runs `script` into servers built from `configs` (the i-th at
    /// `addr(i + 1)`); returns the servers and what reached the probe.
    fn run_script(
        configs: Vec<ServerConfig>,
        script: Vec<(u64, Packet)>,
    ) -> (Vec<ServerNode>, Vec<Packet>) {
        let probe = NodeId(0);
        let mut directory = Directory::new();
        for a in [LB, CLIENT, VIP] {
            directory.register(addr(a), probe);
        }
        for i in 0..configs.len() {
            directory.register(addr(i as u16 + 1), NodeId(i + 1));
        }
        let mut net = Network::new(1, Topology::datacenter());
        net.add_node(Probe {
            script,
            seen: Vec::new(),
        });
        let servers = configs.len();
        for config in configs {
            net.add_node(ServerNode::new(config, directory.clone()));
        }
        net.run_until(RunUntil::Drained);
        let servers = (1..=servers)
            .map(|i| net.take_node(NodeId(i)).unwrap())
            .collect();
        let probe: Probe = net.take_node(probe).unwrap();
        (servers, probe.seen)
    }

    /// A client SYN towards the VIP, hunting `candidates` in order.
    fn hunted_syn(candidates: &[u16]) -> Packet {
        let mut route: Vec<Ipv6Addr> = candidates.iter().map(|&c| addr(c)).collect();
        route.push(addr(VIP));
        PacketBuilder::tcp(addr(CLIENT), addr(VIP))
            .ports(40_000, 80)
            .flags(TcpFlags::SYN)
            .segment_routing(SegmentRoutingHeader::from_route(&route).unwrap())
            .build()
    }

    /// Request `id` for `service_ms` of CPU from the client's `port`,
    /// steered by the load balancer to the first server (`[server, VIP]`).
    fn request(port: u16, id: u64, service_ms: u64) -> Packet {
        let mut packet = PacketBuilder::tcp(addr(CLIENT), addr(VIP))
            .ports(port, 80)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(encode_request_payload(
                id,
                SimDuration::from_millis(service_ms),
            ))
            .build();
        packet.set_route(&[addr(1), addr(VIP)], 0).unwrap();
        packet
    }

    /// A single server with `workers` threads and a backlog of `backlog`.
    fn small_server(workers: usize, backlog: usize) -> Vec<ServerConfig> {
        let mut config = ServerConfig::paper(0, addr(1), addr(LB), PolicyConfig::AlwaysAccept);
        config.workers = workers;
        config.backlog = backlog;
        vec![config]
    }

    /// The request ids of the responses that reached the probe, in order
    /// (SYN-ACKs and adverts carry a load hint and an SRH; responses don't).
    fn responses(seen: &[Packet]) -> Vec<u64> {
        seen.iter()
            .filter(|p| p.srh.is_none())
            .filter_map(|p| decode_response_payload(&p.payload))
            .map(|(id, _)| id)
            .collect()
    }

    const NEVER: PolicyConfig = PolicyConfig::NeverAccept;

    /// The one SYN-ACK that reached the probe.
    fn syn_ack(seen: &[Packet]) -> &Packet {
        match seen {
            [p] if p.is_syn_ack() => p,
            _ => panic!("one SYN-ACK expected, got {seen:?}"),
        }
    }

    #[test]
    fn first_candidate_accepts_when_below_threshold() {
        let policy = PolicyConfig::Static { threshold: 4 };
        let (servers, seen) = run(&[policy, policy], hunted_syn(&[1, 2]));
        let stats = servers[0].stats();
        assert_eq!(
            (
                stats.accepted_by_policy,
                stats.passed_on,
                stats.forced_accepts
            ),
            (1, 0, 0)
        );
        assert_eq!(servers[0].acceptance_ratio(), 1.0);
        assert_eq!(servers[1].stats(), ServerStats::default());
        assert_eq!(decode_load_hint(&syn_ack(&seen).payload), Some((0, 32, 0)));
    }

    #[test]
    fn acceptance_route_names_server_lb_and_client() {
        let (_, seen) = run(&[PolicyConfig::AlwaysAccept], hunted_syn(&[1, 2]));
        let srh = syn_ack(&seen).srh.as_ref().unwrap();
        assert_eq!(srh.route(), vec![addr(1), addr(LB), addr(CLIENT)]);
        assert_eq!(srh.segments_left(), 1);
        assert_eq!(srh.active_segment(), addr(LB), "LB is the active segment");
    }

    #[test]
    fn first_candidate_forwards_when_busy() {
        let (servers, seen) = run(&[NEVER, NEVER], hunted_syn(&[1, 2]));
        assert_eq!(servers[0].stats().passed_on, 1);
        assert_eq!(servers[0].stats().accepted_by_policy, 0);
        assert_eq!(servers[0].acceptance_ratio(), 0.0);
        assert_eq!(
            syn_ack(&seen).srh.as_ref().unwrap().first_segment(),
            addr(2)
        );
    }

    #[test]
    fn last_candidate_must_accept_without_consulting_its_policy() {
        let mut syn = hunted_syn(&[5, 1]);
        syn.advance_segment().unwrap(); // candidate 5 passed it on
        let (servers, seen) = run(&[NEVER], syn);
        let stats = servers[0].stats();
        assert_eq!(
            (
                stats.forced_accepts,
                stats.passed_on,
                stats.accepted_by_policy
            ),
            (1, 0, 0)
        );
        syn_ack(&seen);
    }

    #[test]
    fn three_candidate_hunt_walks_the_chain() {
        let (servers, seen) = run(&[NEVER, NEVER, NEVER], hunted_syn(&[1, 2, 3]));
        let passed: Vec<u64> = servers.iter().map(|s| s.stats().passed_on).collect();
        assert_eq!(passed, vec![1, 1, 0]);
        assert_eq!(
            servers[2].stats().forced_accepts,
            1,
            "final candidate is forced"
        );
        assert_eq!(
            syn_ack(&seen).srh.as_ref().unwrap().first_segment(),
            addr(3)
        );
    }

    #[test]
    fn steered_request_without_srh_is_served() {
        let mut bare = request(40_000, 7, 1);
        bare.strip_srh();
        let (servers, seen) = run(&[NEVER], bare);
        assert_eq!(servers[0].stats().completed, 1);
        assert_eq!(servers[0].stats().passed_on, 0);
        assert_eq!(decode_response_payload(&seen[0].payload), Some((7, 0)));
    }

    #[test]
    fn exhausted_srh_is_delivered() {
        let mut syn = hunted_syn(&[5, 1]);
        syn.set_segments_left(0).unwrap();
        let (servers, seen) = run(&[NEVER], syn);
        assert_eq!(servers[0].stats().forced_accepts, 1);
        assert_eq!(servers[0].stats().passed_on, 0);
        syn_ack(&seen);
    }

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
        assert_eq!(node.server_index(), 3);
        assert_eq!(node.addr(), "fd00::3".parse::<Ipv6Addr>().unwrap());
        assert_eq!(node.stats(), ServerStats::default());
        assert_eq!(Node::<Packet>::name(&node), "server-3");
    }

    #[test]
    fn retransmitted_request_is_ignored_while_its_original_runs() {
        let script = vec![
            (0, hunted_syn(&[1])),
            (1, request(40_000, 7, 10)),
            (2, request(40_000, 7, 10)),
        ];
        let (servers, seen) = run_script(small_server(32, 128), script);
        let stats = servers[0].stats();
        assert_eq!(
            (
                stats.served_immediately,
                stats.duplicates_ignored,
                stats.completed
            ),
            (1, 1, 1)
        );
        assert_eq!(responses(&seen), vec![7]);
    }

    #[test]
    fn retransmitted_request_is_ignored_while_its_original_is_backlogged() {
        let script = vec![
            (0, request(40_001, 1, 10)),
            (1, request(40_000, 7, 1)),
            (2, request(40_000, 7, 1)),
        ];
        let (servers, seen) = run_script(small_server(1, 4), script);
        let stats = servers[0].stats();
        assert_eq!(
            (stats.queued, stats.duplicates_ignored, stats.completed),
            (1, 1, 2)
        );
        assert_eq!(responses(&seen), vec![1, 7]);
    }

    #[test]
    fn request_retransmitted_after_completion_gets_one_replayed_response() {
        let script = vec![
            (0, hunted_syn(&[1])),
            (1, request(40_000, 7, 1)),
            (10, request(40_000, 7, 1)),
        ];
        let (servers, seen) = run_script(small_server(32, 128), script);
        let stats = servers[0].stats();
        assert_eq!(
            (
                stats.completed,
                stats.responses_replayed,
                stats.duplicates_ignored
            ),
            (1, 1, 0)
        );
        assert_eq!(responses(&seen), vec![7, 7]);
    }

    #[test]
    fn rehunted_packet_of_a_completed_flow_is_replayed_without_an_advert() {
        let mut rehunted = request(40_000, 7, 1);
        rehunted
            .set_route(&[addr(LB), addr(1), addr(VIP)], 1)
            .unwrap();
        let script = vec![
            (0, hunted_syn(&[1])),
            (1, request(40_000, 7, 1)),
            (10, rehunted),
        ];
        let (servers, seen) = run_script(small_server(32, 128), script);
        let stats = servers[0].stats();
        assert_eq!(
            (
                stats.responses_replayed,
                stats.ownership_adverts,
                stats.orphaned
            ),
            (1, 0, 0)
        );
        assert_eq!(responses(&seen), vec![7, 7]);
        let routed: Vec<&Packet> = seen.iter().filter(|p| p.srh.is_some()).collect();
        assert!(
            matches!(routed[..], [p] if p.is_syn_ack()),
            "only the SYN-ACK carries an SRH: {routed:?}"
        );
    }

    #[test]
    fn backlog_overflow_resets_the_connection() {
        let script = vec![
            (0, request(40_001, 1, 10)),
            (1, request(40_002, 2, 10)),
            (2, hunted_syn(&[1])),
            (3, request(40_000, 7, 10)),
        ];
        let (servers, seen) = run_script(small_server(1, 1), script);
        let stats = servers[0].stats();
        assert_eq!(
            (
                stats.served_immediately,
                stats.queued,
                stats.resets,
                stats.completed
            ),
            (1, 1, 1, 2)
        );
        assert_eq!(responses(&seen), vec![1, 2]);
        let resets: Vec<u16> = seen
            .iter()
            .filter(|p| p.is_rst())
            .map(|p| p.tcp.destination_port)
            .collect();
        assert_eq!(resets, vec![40_000]);
    }

    proptest::proptest! {
        /// The backlog holds at most its capacity and loses or duplicates
        /// no request: of `n` requests reaching a one-worker server back to
        /// back, the first is served, the next `backlog` wait, the rest are
        /// reset, and every admitted one is answered in arrival order.
        #[test]
        fn backlog_is_bounded_and_lossless(backlog in 0usize..16, n in 1usize..40) {
            let script = (0..n)
                .map(|i| (0, request(40_000 + i as u16, i as u64, 5)))
                .collect();
            let (servers, seen) = run_script(small_server(1, backlog), script);
            let stats = servers[0].stats();
            let admitted = n.min(backlog + 1);
            proptest::prop_assert_eq!(
                (stats.served_immediately, stats.queued, stats.resets, stats.completed),
                (1, admitted as u64 - 1, (n - admitted) as u64, admitted as u64)
            );
            proptest::prop_assert_eq!(responses(&seen), (0..admitted as u64).collect::<Vec<_>>());
            proptest::prop_assert_eq!(seen.iter().filter(|p| p.is_rst()).count(), n - admitted);
        }
    }
}
