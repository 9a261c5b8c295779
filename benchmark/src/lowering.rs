//! The `Runner`'s static lowering, rebuilt from public constructors so that
//! every node can be wrapped in a [`Traced`] probe.
//!
//! [`run`] mirrors `srlb_core::Runner::run` for a cluster without scheduled
//! events: same id ↔ address layout, same directory, same node
//! construction order, same drain budget.  It runs either [`Bare`] (nodes
//! added as they are) or [`Timed`] (each node wrapped); both must reproduce
//! the `Runner`'s event count and outcome digest, which is what lets the
//! traced budget stand for the real run.

use std::hash::{Hash, Hasher};
use std::net::Ipv6Addr;
use std::time::Instant;

use srlb_core::client::client_addr_count;
use srlb_core::spec::ExperimentSpec;
use srlb_core::{ClientNode, LbStats, LoadBalancerNode, RunOutcome};
use srlb_metrics::{RequestRecord, ResponseTimeCollector};
use srlb_net::{AddressPlan, Packet, ServerId};
use srlb_server::{tier_members, Directory, ServerConfig, ServerNode, ServerStats};
use srlb_sim::{
    Context, ExecMode, Node, NodeId, PoolPolicy, RunUntil, ShardPlan, ShardedNetwork, SimDuration,
    SimStats, TimerToken,
};

/// What one node (or one layer, once absorbed) did during a run: a single
/// aggregated span whose parent is the engine loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// `on_start` callbacks (one per node; not simulation events).
    pub starts: u64,
    /// `on_message` plus `on_timer` callbacks — one per dispatched event.
    pub events: u64,
    /// Host time spent inside all callbacks, as read from `Instant`.
    pub busy_ns: u64,
}

impl Span {
    /// Adds another span.
    pub fn absorb(&mut self, other: Span) {
        self.starts += other.starts;
        self.events += other.events;
        self.busy_ns += other.busy_ns;
    }

    /// Every timed callback.
    pub fn calls(&self) -> u64 {
        self.starts + self.events
    }
}

/// A node wrapped so each callback is timed and counted.
#[derive(Debug)]
pub struct Traced<N> {
    inner: N,
    span: Span,
}

impl<N: Node<Packet>> Node<Packet> for Traced<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        self.span.busy_ns += start.elapsed().as_nanos() as u64;
        self.span.starts += 1;
    }

    fn on_message(&mut self, msg: Packet, from: NodeId, ctx: &mut Context<'_, Packet>) {
        let start = Instant::now();
        self.inner.on_message(msg, from, ctx);
        self.span.busy_ns += start.elapsed().as_nanos() as u64;
        self.span.events += 1;
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Packet>) {
        let start = Instant::now();
        self.inner.on_timer(token, ctx);
        self.span.busy_ns += start.elapsed().as_nanos() as u64;
        self.span.events += 1;
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// How the lowering adds nodes to the network: as they are, or wrapped.
pub trait Probe {
    /// The type actually added for a node of type `N`.
    type Node<N: Node<Packet> + Send + 'static>: Node<Packet> + Send + 'static;
    /// Prepares a node for the network.
    fn attach<N: Node<Packet> + Send + 'static>(node: N) -> Self::Node<N>;
    /// Recovers the node and what was recorded about it.
    fn detach<N: Node<Packet> + Send + 'static>(probed: Self::Node<N>) -> (N, Span);
}

/// No wrapper: the lowering exactly as the `Runner` builds it.
#[derive(Debug)]
pub struct Bare;

impl Probe for Bare {
    type Node<N: Node<Packet> + Send + 'static> = N;
    fn attach<N: Node<Packet> + Send + 'static>(node: N) -> N {
        node
    }
    fn detach<N: Node<Packet> + Send + 'static>(probed: N) -> (N, Span) {
        (probed, Span::default())
    }
}

/// Every node wrapped in [`Traced`].
#[derive(Debug)]
pub struct Timed;

impl Probe for Timed {
    type Node<N: Node<Packet> + Send + 'static> = Traced<N>;
    fn attach<N: Node<Packet> + Send + 'static>(node: N) -> Traced<N> {
        Traced {
            inner: node,
            span: Span::default(),
        }
    }
    fn detach<N: Node<Packet> + Send + 'static>(probed: Traced<N>) -> (N, Span) {
        (probed.inner, probed.span)
    }
}

/// The part of a run's result that must not depend on how it was executed.
#[derive(Debug)]
pub struct Observed {
    /// Per-request records.
    pub collector: ResponseTimeCollector,
    /// Per-instance load-balancer counters.
    pub per_lb_stats: Vec<LbStats>,
    /// Per-server counters.
    pub server_stats: Vec<ServerStats>,
    /// Simulation events processed.
    pub events_processed: u64,
}

impl From<RunOutcome> for Observed {
    fn from(outcome: RunOutcome) -> Self {
        Observed {
            collector: outcome.collector,
            per_lb_stats: outcome.per_lb_stats,
            server_stats: outcome.server_stats,
            events_processed: outcome.events_processed,
        }
    }
}

fn record_hash(record: &RequestRecord) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    record.sent_at_seconds.to_bits().hash(&mut h);
    record.response_time_ms.map(f64::to_bits).hash(&mut h);
    record.class.hash(&mut h);
    record.outcome.hash(&mut h);
    record.served_by.hash(&mut h);
    record.retransmits.hash(&mut h);
    h.finish()
}

impl Observed {
    /// One number over the sorted request records, the load-balancer and
    /// server counters and the event count.  Equal digests mean equal
    /// outcomes, whatever order the records were collected in.
    pub fn digest(&self) -> u64 {
        let mut records: Vec<u64> = self.collector.records().iter().map(record_hash).collect();
        records.sort_unstable();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        records.hash(&mut h);
        // The counter structs are plain serde data; their JSON form is the
        // one stable, field-complete view of them.
        for stats in &self.per_lb_stats {
            serde_json::to_string(stats)
                .expect("LbStats serialises")
                .hash(&mut h);
        }
        for stats in &self.server_stats {
            serde_json::to_string(stats)
                .expect("ServerStats serialises")
                .hash(&mut h);
        }
        self.events_processed.hash(&mut h);
        h.finish()
    }

    /// Tier-wide load-balancer counters.
    pub fn lb_stats(&self) -> LbStats {
        LbStats::merged(self.per_lb_stats.iter().copied())
    }

    /// All servers' counters summed.
    pub fn server_totals(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for stats in &self.server_stats {
            total.absorb(*stats);
        }
        total
    }
}

/// One run of the benchmark's own lowering.
#[derive(Debug)]
pub struct Lowered {
    /// The execution-independent result.
    pub observed: Observed,
    /// Engine counters (merged over shards).
    pub sim: SimStats,
    /// Host seconds to build the network (everything before the loop).
    pub lowering_s: f64,
    /// Host seconds inside `ShardedNetwork::run_until`.
    pub loop_wall_s: f64,
    /// Shards actually in use.
    pub shards: usize,
    /// The client's span.
    pub client: Span,
    /// All load balancers' spans, summed.
    pub lb: Span,
    /// All servers' spans, summed.
    pub server: Span,
    /// Node busy time per shard, in nanoseconds.
    pub shard_busy_ns: Vec<u64>,
}

/// Lowers `spec` like the `Runner` does, runs it to completion and harvests
/// the nodes.
///
/// # Errors
///
/// Rejects invalid specs and the spec features the benchmark's workloads
/// do not use (scheduled events, slow nodes, reserved server slots).
pub fn run<P: Probe>(
    spec: &ExperimentSpec,
    exec: ExecMode,
    pool: PoolPolicy,
) -> Result<Lowered, String> {
    spec.validate().map_err(|e| e.to_string())?;
    let cluster = &spec.cluster;
    if !spec.scenario.is_empty()
        || !spec.faults.slow_nodes.is_empty()
        || cluster.max_servers != cluster.initial_servers
    {
        return Err("the benchmark lowering covers static clusters only".to_string());
    }
    let build_start = Instant::now();
    let plan = AddressPlan::default();

    let source = spec.workload.stream(spec.seed, cluster);
    let total_requests = source.remaining();

    let lb_count = cluster.lb_count;
    let client_id = NodeId(0);
    let lb_ids: Vec<NodeId> = (0..lb_count).map(|j| NodeId(1 + j)).collect();
    let server_ids: Vec<NodeId> = (0..cluster.max_servers)
        .map(|i| NodeId(1 + lb_count + i))
        .collect();

    let tier = tier_members(lb_ids.clone());
    let mut directory = Directory::new();
    for a in 0..client_addr_count(total_requests) {
        directory.register(plan.client_addr(a), client_id);
    }
    directory.register_tier(plan.lb_addr(), tier.clone());
    let vips: Vec<Ipv6Addr> = (0..cluster.vips).map(|v| plan.vip(v)).collect();
    for &vip in &vips {
        directory.register_tier(vip, tier.clone());
    }
    let server_addrs: Vec<Ipv6Addr> = (0..cluster.max_servers)
        .map(|i| plan.server_addr(ServerId(i as u32)))
        .collect();
    for (&addr, &sid) in server_addrs.iter().zip(&server_ids) {
        directory.register(addr, sid);
    }

    let topology = spec.topology.build(client_id, &lb_ids, &server_ids);
    let shard_plan = ShardPlan::topology_aware(
        &spec.topology,
        lb_count,
        cluster.max_servers,
        exec.threads(),
    );
    let mut network: ShardedNetwork<Packet> =
        ShardedNetwork::with_pool_policy(spec.seed, topology, shard_plan, pool);
    if spec.faults.injects_faults() {
        network.set_faults(&spec.faults.to_fault_config(client_id, &lb_ids, &server_ids));
    }

    let mut client = ClientNode::from_workload(plan.clone(), vips[0], directory.clone(), source)
        .with_vips(vips.clone())
        .with_request_delay(SimDuration::from_millis_f64(spec.request_delay_ms));
    if !spec.faults.is_empty() {
        client = client.with_retransmit(spec.faults.effective_recovery());
    }
    network.add_node(P::attach(client));

    for _ in 0..lb_count {
        let mut lb = LoadBalancerNode::new(
            plan.lb_addr(),
            vips[0],
            directory.clone(),
            spec.policy.dispatcher().build(server_addrs.clone()),
        )
        .with_vips(vips.clone())
        .with_flow_table(cluster.flow_table.build());
        if let Some(interval) = cluster.flow_table.sweep_interval() {
            lb = lb.with_expiry_sweep(interval);
        }
        if cluster.recover_flows {
            lb = lb.with_flow_recovery();
        }
        network.add_node(P::attach(lb));
    }

    let acceptance = spec.policy.acceptance_policy();
    for (i, &addr) in server_addrs.iter().enumerate() {
        let (workers, cores) = cluster.capacity_of(i as u32);
        let config = ServerConfig {
            server_index: i as u32,
            addr,
            lb_addr: plan.lb_addr(),
            workers,
            cores,
            backlog: cluster.backlog,
            policy: acceptance,
            record_load: cluster.record_load,
        };
        network.add_node(P::attach(ServerNode::new(config, directory.clone())));
    }
    let lowering_s = build_start.elapsed().as_secs_f64();

    // The Runner's drain budget.
    let per_request: u64 = if spec.faults.is_empty() {
        96
    } else {
        96 * (1 + u64::from(spec.faults.effective_recovery().max_retries))
    };
    let limit = RunUntil::Events((total_requests as u64).saturating_mul(per_request) + 10_000);
    let loop_start = Instant::now();
    let sim = network.run_until(limit);
    let loop_wall_s = loop_start.elapsed().as_secs_f64();

    let shards = network.shards();
    // Shard of every node, read before the nodes are taken out.
    let shard_of: Vec<usize> = (0..network.node_count())
        .map(|i| match shards {
            1 => 0,
            _ => network.plan().shard_of(NodeId(i)),
        })
        .collect();
    let mut shard_busy_ns = vec![0u64; shards];

    let missing = |what: &str| format!("{what} missing after the run");
    let mut server = Span::default();
    let mut server_stats = Vec::with_capacity(server_ids.len());
    for &id in &server_ids {
        let probed: P::Node<ServerNode> = network.take_node(id).ok_or_else(|| missing("server"))?;
        let (node, span) = P::detach(probed);
        server.absorb(span);
        shard_busy_ns[shard_of[id.index()]] += span.busy_ns;
        server_stats.push(node.stats());
    }
    let mut lb = Span::default();
    let mut per_lb_stats = Vec::with_capacity(lb_count);
    for &id in &lb_ids {
        let probed: P::Node<LoadBalancerNode> = network
            .take_node(id)
            .ok_or_else(|| missing("load balancer"))?;
        let (node, span) = P::detach(probed);
        lb.absorb(span);
        shard_busy_ns[shard_of[id.index()]] += span.busy_ns;
        per_lb_stats.push(node.stats());
    }
    let probed: P::Node<ClientNode> = network
        .take_node(client_id)
        .ok_or_else(|| missing("client"))?;
    let (client_node, client) = P::detach(probed);
    shard_busy_ns[shard_of[client_id.index()]] += client.busy_ns;

    Ok(Lowered {
        observed: Observed {
            collector: client_node.into_collector(),
            per_lb_stats,
            server_stats,
            events_processed: sim.events_processed,
        },
        sim,
        lowering_s,
        loop_wall_s,
        shards,
        client,
        lb,
        server,
        shard_busy_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The heart of the traced budget's validity: on every workload, the
    /// benchmark's lowering — bare and wrapped — is the `Runner`'s run.
    #[test]
    fn bare_and_timed_lowerings_reproduce_the_runner_on_every_workload() {
        for w in &WORKLOADS {
            let spec = w.spec(11, true).expect("tiny spec parses");
            let outcome = w.runner(spec.clone()).expect("valid spec").run();
            let reference = Observed::from(outcome);
            let bare = run::<Bare>(&spec, w.exec, w.pool).expect("bare lowering runs");
            let timed = run::<Timed>(&spec, w.exec, w.pool).expect("timed lowering runs");
            for lowered in [&bare, &timed] {
                assert_eq!(
                    lowered.observed.events_processed, reference.events_processed,
                    "{}",
                    w.name
                );
                assert_eq!(lowered.observed.digest(), reference.digest(), "{}", w.name);
            }
            assert_eq!(bare.client, Span::default());
            let traced_events = timed.client.events + timed.lb.events + timed.server.events;
            assert_eq!(
                traced_events,
                timed.sim.events_processed - timed.sim.messages_dropped,
                "{}: one traced callback per delivered event",
                w.name
            );
            assert_eq!(
                timed.shard_busy_ns.iter().sum::<u64>(),
                timed.client.busy_ns + timed.lb.busy_ns + timed.server.busy_ns
            );
            if w.is_sharded() {
                assert_eq!(timed.shards, 2, "{} must run on two shards", w.name);
            }
        }
    }

    #[test]
    fn digest_ignores_record_order_but_not_content() {
        let w = &WORKLOADS[0];
        let spec = w.spec(3, true).expect("tiny spec parses");
        let mut a = run::<Bare>(&spec, w.exec, w.pool).expect("runs").observed;
        let digest = a.digest();
        let mut reversed = ResponseTimeCollector::new();
        reversed.extend(a.collector.records().iter().rev().cloned());
        a.collector = reversed;
        assert_eq!(a.digest(), digest);
        a.events_processed += 1;
        assert_ne!(a.digest(), digest);
    }

    #[test]
    fn unsupported_spec_features_are_rejected() {
        let mut spec = WORKLOADS[0].spec(1, true).expect("tiny spec parses");
        spec.cluster.max_servers += 1;
        assert!(run::<Bare>(&spec, ExecMode::Batched, PoolPolicy::Never).is_err());
    }
}
