//! The unified experiment runner.
//!
//! [`Runner`] executes an [`ExperimentSpec`] end to end: it lays out node
//! ids and addresses for the *whole potential cluster* (`max_servers`
//! backends behind an `lb_count`-instance load-balancer tier) up front — so
//! adding a backend later never perturbs the id ↔ address mapping and runs
//! stay deterministic — pulls the workload on demand from its
//! [`Workload`](srlb_workload::Workload) stream, and advances the
//! simulation in **segments**: up to each scheduled control event's
//! timestamp, apply the event through the simulator's control-delivery
//! primitives, continue.  A static cluster is simply the degenerate
//! single-segment case with an empty schedule.
//!
//! The load-balancer tier is fronted by deterministic resilient ECMP
//! steering ([`srlb_sim::ecmp_steer`]): every instance advertises the same
//! anycast address and VIPs, registered in the [`Directory`] as a tier.
//! The runner owns the tier's membership; on `AddLb` / `RemoveLb` events —
//! route advertisement and withdrawal — it changes it and re-registers it
//! between segments in its own directory and in the client's and every live
//! server's, so every node steers by the new membership from the next
//! segment on.  With `lb_count = 1` the tier degenerates to the single load
//! balancer of the paper's testbed and runs are byte-identical to the
//! pre-tier runner.
//!
//! This is the only way an experiment runs: the figure harness, the
//! scenario sweep, the examples and the repository's benchmark all build an
//! [`ExperimentSpec`], hand it here, and read the [`RunOutcome`].
//!
//! # Execution modes
//!
//! The runner drives the simulation through [`srlb_sim::Network`]
//! under an [`ExecMode`]: the reference per-event loop, the single-threaded
//! same-timestamp batched loop (default), or conservative-window sharding
//! across worker threads.  All three produce **byte-identical** outcomes —
//! event ordering keys and per-node RNG streams are interleaving-independent
//! by construction — so the mode is a pure throughput knob.  The default is
//! [`ExecMode::Batched`]; callers choose another per runner with
//! [`Runner::with_exec`] (the bench CLI's `--sim-threads` flag does).
//!
//! Shard *placement* defaults to [`ShardPlanning::TopologyAware`]: under a
//! rack/zone topology each rack's servers and its attached LB instances are
//! kept on one shard, so the only cross-shard links are cross-rack (or
//! client) links — maximising the conservative lookahead window and
//! minimising cross-shard event volume.  Placement is a pure throughput
//! knob: any plan produces byte-identical outcomes (pinned by proptest), so
//! [`ShardPlanning::RoundRobin`] exists only as the comparison baseline.
//! The chosen plan is recorded in [`RunOutcome::shard_plan`].

use std::net::Ipv6Addr;

use srlb_metrics::{
    Cdf, DisruptionCollector, PhaseStats, RequestClass, RequestOutcome, ResponseTimeCollector,
};
use srlb_net::{AddressPlan, Packet, ServerId};
use srlb_server::{tier_members, Directory, ServerConfig, ServerNode, ServerStats};
use srlb_sim::{
    ExecMode, Network, NodeId, PoolPolicy, RunUntil, ShardPlan, SimDuration, SimStats, SimTime,
    Steering,
};

use crate::client::{client_addr_count, ClientNode};
use crate::dispatch::DispatcherConfig;
use crate::lb_node::{LbStats, LoadBalancerNode};
use crate::spec::{ExperimentSpec, ScenarioEvent};
use crate::CoreError;

/// Everything measured during one experiment run, plus the projections
/// the figures and reports are built from.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The spec's name.
    pub name: String,
    /// Policy label (`"RR"`, `"SR4"`, `"SRdyn"`, `"explicit-…"`, …).
    pub label: String,
    /// The dispatcher's report name (over the initial backend set).
    pub dispatcher_name: String,
    /// Per-request records collected by the client.
    pub collector: ResponseTimeCollector,
    /// Tier-wide load-balancer counters: the [`LbStats::merge`] of every
    /// instance's counters (for `lb_count = 1`, exactly that instance's
    /// own counters).
    pub lb_stats: LbStats,
    /// Per-instance load-balancer counters, indexed by LB instance.
    pub per_lb_stats: Vec<LbStats>,
    /// Per-server counters indexed by server (over `max_servers`), merged
    /// across remove/re-add incarnations.
    pub server_stats: Vec<ServerStats>,
    /// Per-server `(time_seconds, busy_workers)` samples (empty unless
    /// `record_load` was enabled), merged across incarnations.
    pub load_series: Vec<Vec<(f64, usize)>>,
    /// Per-server first-candidate acceptance ratios: the latest
    /// incarnation's ratio — as of removal time for servers that ended the
    /// run down, `0.0` for reserved slots that never came up.
    pub acceptance_ratios: Vec<f64>,
    /// Per-phase disruption statistics (phases delimited by the scenario
    /// events; a single phase for static runs).
    pub phases: Vec<PhaseStats>,
    /// Seconds between the fail-over and the last re-hunt, if any (the
    /// maximum across LB instances that reconstructed state).
    pub reconstruction_latency_s: Option<f64>,
    /// Simulated duration of the run in seconds.
    pub duration_seconds: f64,
    /// Total simulation events processed.
    pub events_processed: u64,
    /// Messages dropped by injected faults (probabilistic loss and
    /// one-shot drops); zero on fault-free runs.
    pub dropped_injected: u64,
    /// Messages tail-dropped by bounded per-link queues.
    pub dropped_queue: u64,
    /// Messages dropped inside link down windows.
    pub dropped_link_down: u64,
    /// Total client retransmissions across all requests.
    pub retransmits: u64,
    /// Requests the client aborted after exhausting its retransmission
    /// budget.
    pub aborted: u64,
    /// Human-readable description of the shard plan the run executed on
    /// (`None` when it ran on a single core — one-shard plan, zero
    /// lookahead, or the pool policy collapsed a multi-shard plan).  Purely
    /// informational: placement never affects any other field.
    pub shard_plan: Option<String>,
}

impl RunOutcome {
    /// Mean completed response time in seconds (how Figure 2 reports it).
    pub fn mean_response_seconds(&self) -> f64 {
        self.collector.summary(None).mean() / 1e3
    }

    /// CDF of completed response times in seconds, optionally filtered by
    /// request class (Figures 3, 5 and 8).
    pub fn cdf_seconds(&self, class: Option<RequestClass>) -> Cdf {
        Cdf::from_samples(
            self.collector
                .response_times_ms(class)
                .into_iter()
                .map(|ms| ms / 1e3),
        )
    }

    /// Fraction of sent requests whose connection was reset.
    pub fn reset_fraction(&self) -> f64 {
        match self.collector.len() {
            0 => 0.0,
            sent => self.collector.reset_count() as f64 / sent as f64,
        }
    }

    /// Per-server completed-request counts.
    pub fn per_server_completed(&self) -> Vec<u64> {
        self.server_stats.iter().map(|s| s.completed).collect()
    }

    /// Connections reset by a failed in-band reconstruction (no candidate
    /// owned the flow).
    pub fn orphaned(&self) -> u64 {
        self.server_stats.iter().map(|s| s.orphaned).sum()
    }

    /// Ownership adverts sent by servers during reconstruction.
    pub fn ownership_adverts(&self) -> u64 {
        self.server_stats.iter().map(|s| s.ownership_adverts).sum()
    }

    /// Requests that never finished (e.g. their connection was established
    /// on a backend that was removed, or a packet was black-holed).
    pub fn unfinished(&self) -> u64 {
        self.collector
            .records()
            .iter()
            .filter(|r| r.outcome == RequestOutcome::Unfinished)
            .count() as u64
    }

    /// Established connections broken by the scenario's control events:
    /// reconstruction orphans plus never-finished requests.  Load-induced
    /// backlog resets are *not* counted here (they also occur in a static
    /// cluster).
    pub fn broken_established(&self) -> u64 {
        self.orphaned() + self.unfinished()
    }
}

/// How the runner assigns nodes to shards under [`ExecMode::Sharded`].
///
/// Placement is a pure throughput knob — every plan produces byte-identical
/// outcomes — but it bounds the conservative lookahead: the window length is
/// the minimum cross-shard link latency, so a plan that splits a rack
/// across shards is stuck synchronising at the intra-rack latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPlanning {
    /// Group each rack's servers with their attached LB instances
    /// ([`ShardPlan::topology_aware`]); degenerates to round-robin on
    /// uniform topologies, where placement cannot change the lookahead.
    #[default]
    TopologyAware,
    /// Stripe LBs and servers modulo the thread count
    /// ([`ShardPlan::round_robin`]) — the pre-placement baseline, kept as
    /// the comparison arm for the plan-equivalence tests.
    RoundRobin,
}

/// Builds one dispatcher over `servers` and gives every tier instance a
/// clone of it.  Server churn is tier-wide: withdrawn instances get one too,
/// so a later re-advertisement steers correctly.
fn rebuild_tier(
    network: &mut Network<Packet>,
    lb_ids: &[NodeId],
    config: DispatcherConfig,
    servers: Vec<Ipv6Addr>,
) {
    let dispatcher = config.build(servers);
    for &lb in lb_ids {
        network
            .node_as_mut::<LoadBalancerNode>(lb)
            // srlb-lint: allow(panic-hygiene) -- lb_ids come from the layout the runner built; a missing node is a setup bug worth aborting on
            .expect("load balancer present")
            .set_dispatcher(dispatcher.boxed_clone());
    }
}

/// Executes [`ExperimentSpec`]s.
#[derive(Debug, Clone)]
pub struct Runner {
    spec: ExperimentSpec,
    exec: ExecMode,
    planning: ShardPlanning,
    pool: PoolPolicy,
}

impl Runner {
    /// Creates a runner for a validated spec.
    ///
    /// The execution mode defaults to [`ExecMode::Batched`], the
    /// single-threaded loop.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if
    /// [`ExperimentSpec::validate`] rejects the spec.
    pub fn new(spec: ExperimentSpec) -> Result<Self, CoreError> {
        spec.validate()?;
        Ok(Runner {
            spec,
            exec: ExecMode::default(),
            planning: ShardPlanning::default(),
            pool: PoolPolicy::default(),
        })
    }

    /// Overrides the execution mode.  Every mode produces byte-identical
    /// outcomes; this is a throughput knob only.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Overrides the shard placement strategy (throughput knob only; see
    /// [`ShardPlanning`]).
    #[must_use]
    pub fn with_shard_planning(mut self, planning: ShardPlanning) -> Self {
        self.planning = planning;
        self
    }

    /// Overrides the worker-pool policy ([`PoolPolicy::Force`] lets tests
    /// exercise the threaded window protocol on single-core hosts).
    #[must_use]
    pub fn with_pool_policy(mut self, pool: PoolPolicy) -> Self {
        self.pool = pool;
        self
    }

    /// The execution mode this runner will use.
    pub fn exec(&self) -> ExecMode {
        self.exec
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The shard layout for this spec, per the configured
    /// [`ShardPlanning`].  Every LB instance lives whole on one shard
    /// either way (keeping its flow table and its ECMP-steered flows
    /// together); the strategies differ in how racks map onto shards.
    fn shard_plan(&self) -> ShardPlan {
        let lb_count = self.spec.cluster.lb_count;
        let max_servers = self.spec.cluster.max_servers;
        let threads = self.exec.threads();
        match self.planning {
            ShardPlanning::TopologyAware => {
                ShardPlan::topology_aware(&self.spec.topology, lb_count, max_servers, threads)
            }
            ShardPlanning::RoundRobin => ShardPlan::round_robin(lb_count, max_servers, threads),
        }
    }

    /// Advances the network under `policy` using the configured execution
    /// mode's loop.
    fn drive(&self, network: &mut Network<Packet>, policy: RunUntil) -> SimStats {
        match self.exec {
            ExecMode::SerialStep => network.run_until_stepwise(policy),
            ExecMode::Batched | ExecMode::Sharded { .. } => network.run_until(policy),
        }
    }

    /// Runs the experiment to completion.  Deterministic: the same spec
    /// always produces the same outcome.
    pub fn run(&self) -> RunOutcome {
        let spec = &self.spec;
        let cluster = &spec.cluster;
        let plan = AddressPlan::default();

        let source = spec.workload.stream(spec.seed, cluster);
        let total_requests = source.remaining();

        // Fixed id ↔ address layout over the whole potential cluster: the
        // client, then the LB tier, then every backend slot.  With
        // `lb_count = 1` this is exactly the pre-tier layout.
        let lb_count = cluster.lb_count;
        let client_id = NodeId(0);
        let lb_node_id = |j: usize| NodeId(1 + j);
        let lb_ids: Vec<NodeId> = (0..lb_count).map(lb_node_id).collect();
        let server_node_id = |i: usize| NodeId(1 + lb_count + i);
        let server_ids: Vec<NodeId> = (0..cluster.max_servers).map(server_node_id).collect();

        // The whole tier advertises one anycast LB address and the VIPs;
        // `tier` is the runner's model of the ECMP routing table, changed on
        // AddLb/RemoveLb events below and re-advertised to every directory
        // that steers by it.
        let mut tier = tier_members(lb_ids.clone());
        let vips: Vec<Ipv6Addr> = (0..cluster.vips).map(|v| plan.vip(v)).collect();
        let advertise = |directory: &mut Directory, tier: &Steering| {
            directory.register_tier(plan.lb_addr(), tier.clone());
            for &vip in &vips {
                directory.register_tier(vip, tier.clone());
            }
        };
        let mut directory = Directory::new();
        for a in 0..client_addr_count(total_requests) {
            directory.register(plan.client_addr(a), client_id);
        }
        advertise(&mut directory, &tier);
        for (i, &sid) in server_ids.iter().enumerate() {
            directory.register(plan.server_addr(ServerId(i as u32)), sid);
        }

        // Slow-node latency multipliers are folded into the topology before
        // the network is built, so conservative-window lookahead is computed
        // from the slowed links and sharding stays byte-identical.
        let mut topology = spec.topology.build(client_id, &lb_ids, &server_ids);
        let node_count = 1 + lb_count + cluster.max_servers;
        for slow in &spec.faults.slow_nodes {
            topology.scale_links_of(
                slow.node.resolve(client_id, &lb_ids, &server_ids),
                slow.multiplier,
                node_count,
            );
        }
        let mut network: Network<Packet> =
            Network::with_pool_policy(spec.seed, topology, self.shard_plan(), self.pool);
        // Describe the plan actually in effect (after any single-core
        // collapse).  Informational only — it must never enter serialized
        // run reports, which are byte-diffed across `--sim-threads` values.
        let shard_plan_summary = (network.shards() > 1).then(|| {
            format!(
                "{}: {} shards {:?}, lookahead {} µs",
                match self.planning {
                    ShardPlanning::TopologyAware => "topology-aware",
                    ShardPlanning::RoundRobin => "round-robin",
                },
                network.shards(),
                network.plan().shard_sizes(),
                network.lookahead().as_nanos() / 1_000,
            )
        });
        if spec.faults.injects_faults() {
            network.set_faults(&spec.faults.to_fault_config(client_id, &lb_ids, &server_ids));
        }

        let mut client =
            ClientNode::from_workload(plan.clone(), vips[0], directory.clone(), source)
                .with_vips(vips.clone())
                .with_request_delay(SimDuration::from_millis_f64(spec.request_delay_ms));
        if !spec.faults.is_empty() {
            client = client.with_retransmit(spec.faults.effective_recovery());
        }
        let added_client = network.add_node(client);
        debug_assert_eq!(added_client, client_id);

        let mut alive: Vec<bool> = (0..cluster.max_servers)
            .map(|i| i < cluster.initial_servers)
            .collect();
        let alive_addrs = |alive: &[bool]| -> Vec<Ipv6Addr> {
            alive
                .iter()
                .enumerate()
                .filter(|(_, &up)| up)
                .map(|(i, _)| plan.server_addr(ServerId(i as u32)))
                .collect()
        };

        // Every instance of the tier: same anycast address, same VIPs, its
        // own flow table, and a clone of one dispatcher — the tables are
        // built once per membership and shared.
        let dispatcher_config = spec.policy.dispatcher();
        let dispatcher = dispatcher_config.build(alive_addrs(&alive));
        let dispatcher_name = dispatcher.name();
        for j in 0..lb_count {
            let mut lb = LoadBalancerNode::new(
                plan.lb_addr(),
                vips[0],
                directory.clone(),
                dispatcher.boxed_clone(),
            )
            .with_vips(vips.clone())
            .with_flow_table(cluster.flow_table.build());
            if let Some(interval) = cluster.flow_table.sweep_interval() {
                lb = lb.with_expiry_sweep(interval);
            }
            if cluster.recover_flows {
                lb = lb.with_flow_recovery();
            }
            let added_lb = network.add_node(lb);
            debug_assert_eq!(added_lb, lb_node_id(j));
        }

        let acceptance = spec.policy.acceptance_policy();
        let server_config = |i: usize| -> ServerConfig {
            let (workers, cores) = cluster.capacity_of(i as u32);
            ServerConfig {
                server_index: i as u32,
                addr: plan.server_addr(ServerId(i as u32)),
                lb_addr: plan.lb_addr(),
                workers,
                cores,
                backlog: cluster.backlog,
                policy: acceptance,
                record_load: cluster.record_load,
            }
        };
        for (i, up) in alive.iter().enumerate() {
            if *up {
                let added = network.add_node(ServerNode::new(server_config(i), directory.clone()));
                debug_assert_eq!(added, server_node_id(i));
            } else {
                let reserved = network.reserve_node();
                debug_assert_eq!(reserved, server_node_id(i));
            }
        }

        // Per-server accumulators, merged across remove/re-add incarnations.
        let mut merged_stats = vec![ServerStats::default(); cluster.max_servers];
        let mut load_series: Vec<Vec<(f64, usize)>> = vec![Vec::new(); cluster.max_servers];
        let mut acceptance_ratios = vec![0.0f64; cluster.max_servers];
        let mut harvest = |node: ServerNode, i: usize| {
            merged_stats[i].absorb(node.stats());
            load_series[i].extend_from_slice(node.load_samples());
            acceptance_ratios[i] = node.agent().acceptance_ratio();
        };

        // Re-advertises `tier` in the runner's own directory (which later
        // servers are built from), the client's and every live server's:
        // the only nodes that steer by it.  Runs between segments, so every
        // node switches membership at the same instant.
        let readvertise =
            |network: &mut Network<Packet>, directory: &mut Directory, tier: &Steering| {
                advertise(directory, tier);
                if let Some(client) = network.node_as_mut::<ClientNode>(client_id) {
                    advertise(client.directory_mut(), tier);
                }
                for &sid in &server_ids {
                    if let Some(server) = network.node_as_mut::<ServerNode>(sid) {
                        advertise(server.directory_mut(), tier);
                    }
                }
            };

        // Segment the run at each control event's timestamp.
        let mut boundaries: Vec<(String, f64)> = Vec::with_capacity(spec.scenario.len());
        for timed in &spec.scenario {
            self.drive(
                &mut network,
                RunUntil::Time(SimTime::from_secs_f64(timed.at_seconds)),
            );
            boundaries.push((timed.event.label(), timed.at_seconds));
            match timed.event {
                ScenarioEvent::AddServer { server } => {
                    let i = server as usize;
                    network.insert_node(
                        server_node_id(i),
                        ServerNode::new(server_config(i), directory.clone()),
                    );
                    alive[i] = true;
                    rebuild_tier(
                        &mut network,
                        &lb_ids,
                        dispatcher_config,
                        alive_addrs(&alive),
                    );
                }
                ScenarioEvent::RemoveServer { server } => {
                    let i = server as usize;
                    let node: ServerNode = network
                        .take_node(server_node_id(i))
                        // srlb-lint: allow(panic-hygiene) -- ExperimentSpec::validate rejects schedules that remove a dead server before the run starts
                        .expect("validated schedule removes only live servers");
                    harvest(node, i);
                    alive[i] = false;
                    rebuild_tier(
                        &mut network,
                        &lb_ids,
                        dispatcher_config,
                        alive_addrs(&alive),
                    );
                }
                ScenarioEvent::LbFailover => {
                    // Fail over every *advertised* instance; the tier is
                    // the single source of truth for advertisement.
                    for j in (0..lb_count).filter(|&j| tier.contains(lb_node_id(j))) {
                        network
                            .control::<LoadBalancerNode, _>(lb_node_id(j), |lb, ctx| {
                                lb.fail_over(ctx.now())
                            })
                            // srlb-lint: allow(panic-hygiene) -- every tier instance is created up front and withdrawal never removes the node
                            .expect("load balancer present");
                    }
                }
                ScenarioEvent::AddLb { lb } => {
                    tier.add(lb_node_id(lb as usize));
                    readvertise(&mut network, &mut directory, &tier);
                }
                ScenarioEvent::RemoveLb { lb } => {
                    // A route withdrawal, not a node removal: packets
                    // already in the fabric still deliver, subsequent
                    // packets of the instance's flows re-steer to peers.
                    tier.remove(lb_node_id(lb as usize));
                    readvertise(&mut network, &mut directory, &tier);
                }
                ScenarioEvent::SetCapacity {
                    server,
                    workers,
                    cores,
                } => {
                    network
                        .control::<ServerNode, _>(server_node_id(server as usize), |s, ctx| {
                            s.set_capacity(workers, cores, ctx)
                        })
                        // srlb-lint: allow(panic-hygiene) -- ExperimentSpec::validate rejects schedules that resize a dead server before the run starts
                        .expect("validated schedule resizes only live servers");
                }
            }
        }

        // Drain the remaining events.  Each request generates a small,
        // bounded number of simulation events (SYN, hunt hops, SYN-ACK,
        // request, service timer, response, …); 96 per request is a
        // generous safety margin that also covers post-failover re-hunts
        // and ownership adverts.
        // Retransmitting clients re-send whole requests: scale the budget
        // by the retry allowance so lossy runs drain fully.
        let per_request: u64 = if self.spec.faults.is_empty() {
            96
        } else {
            96 * (1 + u64::from(self.spec.faults.effective_recovery().max_retries))
        };
        let limit = RunUntil::Events((total_requests as u64).saturating_mul(per_request) + 10_000);
        let stats = self.drive(&mut network, limit);

        for (i, up) in alive.iter().enumerate() {
            if *up {
                let node: ServerNode = network
                    .take_node(server_node_id(i))
                    // srlb-lint: allow(panic-hygiene) -- `alive[i]` tracks exactly which server nodes the runner inserted and never removed
                    .expect("live server present after run");
                harvest(node, i);
            }
        }
        // Every tier instance still exists (withdrawal keeps the node so
        // in-fabric packets deliver); the tier-wide aggregate is the merge
        // of the per-instance counters.
        let mut per_lb_stats = Vec::with_capacity(lb_count);
        let mut reconstruction_latency_s: Option<f64> = None;
        for j in 0..lb_count {
            let lb_node: LoadBalancerNode = network
                .take_node(lb_node_id(j))
                // srlb-lint: allow(panic-hygiene) -- every tier instance is created up front and withdrawal never removes the node
                .expect("load balancer present after run");
            if let Some(latency) = lb_node.reconstruction_latency_seconds() {
                reconstruction_latency_s =
                    Some(reconstruction_latency_s.map_or(latency, |best| best.max(latency)));
            }
            per_lb_stats.push(lb_node.stats());
        }
        let client_node: ClientNode = network
            .take_node(client_id)
            // srlb-lint: allow(panic-hygiene) -- the client node is inserted at setup and nothing in the run removes it
            .expect("client present after run");
        let collector = client_node.into_collector();

        let phases =
            DisruptionCollector::new(boundaries, cluster.max_servers).stats(collector.records());

        RunOutcome {
            name: spec.name.clone(),
            label: spec.policy.label(),
            dispatcher_name,
            reconstruction_latency_s,
            lb_stats: LbStats::merged(per_lb_stats.iter().copied()),
            per_lb_stats,
            server_stats: merged_stats,
            load_series,
            acceptance_ratios,
            phases,
            duration_seconds: stats.last_event_time.as_secs_f64(),
            events_processed: stats.events_processed,
            dropped_injected: stats.dropped_injected,
            dropped_queue: stats.dropped_queue,
            dropped_link_down: stats.dropped_link_down,
            retransmits: collector.retransmit_total(),
            aborted: collector.aborted_count() as u64,
            collector,
            shard_plan: shard_plan_summary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, FaultPlan, PolicyKind, WorkloadSpec};
    use srlb_server::PolicyConfig;
    use srlb_sim::TopologyModel;
    use srlb_workload::{PoissonWorkload, Request, ServiceTime};

    fn quick_spec(rho: f64, policy: PolicyKind) -> ExperimentSpec {
        ExperimentSpec::poisson_paper(rho, policy).with_queries(400)
    }

    #[test]
    fn static_run_completes_and_reports() {
        let outcome = Runner::new(quick_spec(0.5, PolicyKind::Static { threshold: 4 }))
            .unwrap()
            .run();
        assert_eq!(outcome.label, "SR4");
        assert_eq!(outcome.collector.len(), 400);
        assert!(outcome.collector.completed_count() > 0);
        assert_eq!(outcome.server_stats.len(), 12);
        assert_eq!(outcome.phases.len(), 1, "static run is a single phase");
        assert!(outcome.duration_seconds > 0.0);
        assert!(outcome.events_processed > 400);
        // The projections the figures are built from.
        assert!(outcome.mean_response_seconds() > 0.0);
        assert!(outcome.reset_fraction() < 0.5);
        assert_eq!(outcome.per_server_completed().len(), 12);
        assert_eq!(
            outcome.cdf_seconds(None).count(),
            outcome.collector.completed_count()
        );
        assert_eq!(outcome.broken_established(), 0, "static runs break nothing");
    }

    #[test]
    fn invalid_spec_is_rejected_at_construction() {
        let mut spec = quick_spec(0.5, PolicyKind::RoundRobin);
        spec.cluster.initial_servers = 0;
        assert!(Runner::new(spec).is_err());
    }

    #[test]
    fn identical_specs_give_identical_outcomes() {
        let spec = quick_spec(0.7, PolicyKind::Dynamic).with_seed(11);
        let a = Runner::new(spec.clone()).unwrap().run();
        let b = Runner::new(spec).unwrap().run();
        assert_eq!(a.collector.records(), b.collector.records());
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn scenario_events_segment_the_run() {
        let spec = quick_spec(
            0.6,
            PolicyKind::Explicit {
                dispatcher: crate::dispatch::DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
                acceptance: srlb_server::PolicyConfig::Static { threshold: 4 },
            },
        )
        .at(1.0, ScenarioEvent::LbFailover);
        let mut spec = spec;
        spec.cluster.recover_flows = true;
        let outcome = Runner::new(spec).unwrap().run();
        assert_eq!(outcome.lb_stats.failovers, 1);
        assert_eq!(outcome.phases.len(), 2);
        assert!(outcome.dispatcher_name.contains("consistent"));
    }

    #[test]
    fn multi_lb_tier_spreads_flows_and_completes() {
        let spec = quick_spec(
            0.5,
            PolicyKind::Explicit {
                dispatcher: crate::dispatch::DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
                acceptance: srlb_server::PolicyConfig::Static { threshold: 4 },
            },
        )
        .with_lb_count(4);
        let outcome = Runner::new(spec).unwrap().run();
        assert_eq!(outcome.collector.len(), 400);
        assert_eq!(outcome.collector.completed_count(), 400);
        assert_eq!(outcome.per_lb_stats.len(), 4);
        // ECMP spreads new flows across every instance, and the tier-wide
        // aggregate is the merge of the per-instance counters.
        for (j, stats) in outcome.per_lb_stats.iter().enumerate() {
            assert!(stats.new_flows > 0, "LB {j} received no flows");
        }
        assert_eq!(
            outcome.lb_stats,
            LbStats::merged(outcome.per_lb_stats.iter().copied())
        );
        assert_eq!(outcome.lb_stats.new_flows, 400);
        assert_eq!(outcome.lb_stats.flows_learned, 400);
    }

    #[test]
    fn server_churn_deals_one_dispatcher_to_every_tier_instance() {
        let plan = AddressPlan::default();
        let config = DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 };
        let alive_addrs = |alive: &[bool]| -> Vec<Ipv6Addr> {
            (0..alive.len())
                .filter(|&i| alive[i])
                .map(|i| plan.server_addr(ServerId(i as u32)))
                .collect()
        };
        let mut alive = [true, true, true, true, false, false];
        let mut network: Network<Packet> = Network::new(1, srlb_sim::Topology::datacenter());
        let first = config.build(alive_addrs(&alive));
        let lb_ids: Vec<NodeId> = (0..4)
            .map(|_| {
                network.add_node(LoadBalancerNode::new(
                    plan.lb_addr(),
                    plan.vip(0),
                    Directory::new(),
                    first.boxed_clone(),
                ))
            })
            .collect();
        // AddServer 4, RemoveServer 1, AddServer 5, RemoveServer 4.
        for (server, up) in [(4, true), (1, false), (5, true), (4, false)] {
            alive[server] = up;
            rebuild_tier(&mut network, &lb_ids, config, alive_addrs(&alive));
            let backends = |lb: NodeId| network.node_as::<LoadBalancerNode>(lb).unwrap().backends();
            for &lb in &lb_ids {
                assert_eq!(backends(lb), &alive_addrs(&alive)[..]);
                assert!(
                    std::ptr::eq(backends(lb), backends(lb_ids[0])),
                    "every instance reads one shared table"
                );
            }
        }
    }

    #[test]
    fn multi_lb_run_is_deterministic() {
        let spec = quick_spec(0.6, PolicyKind::Static { threshold: 4 })
            .with_lb_count(2)
            .with_seed(5);
        let a = Runner::new(spec.clone()).unwrap().run();
        let b = Runner::new(spec).unwrap().run();
        assert_eq!(a.collector.records(), b.collector.records());
        assert_eq!(a.per_lb_stats, b.per_lb_stats);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn lb_withdrawal_re_steers_onto_peers_without_breaking_flows() {
        // Two-instance tier with consistent-hash candidates and in-band
        // flow recovery: withdrawing one instance mid-run re-steers its
        // established flows onto a peer that has never seen them; the peer
        // re-hunts and every connection survives.
        let mut spec = ExperimentSpec {
            name: "remove-lb-test".to_string(),
            seed: 3,
            workload: WorkloadSpec::PoissonRate {
                rate_qps: 150.0,
                queries: 600,
                mean_service_ms: 20.0,
            },
            cluster: crate::spec::ClusterSpec::paper(),
            topology: TopologyModel::paper(),
            scenario: Vec::new(),
            policy: PolicyKind::Explicit {
                dispatcher: crate::dispatch::DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
                acceptance: srlb_server::PolicyConfig::Static { threshold: 4 },
            },
            request_delay_ms: 100.0,
            faults: FaultPlan::default(),
        };
        spec.cluster.lb_count = 2;
        spec.cluster.recover_flows = true;
        let spec = spec.at(2.0, ScenarioEvent::RemoveLb { lb: 1 });
        let outcome = Runner::new(spec).unwrap().run();

        assert_eq!(outcome.collector.len(), 600);
        assert_eq!(outcome.collector.completed_count(), 600, "zero loss");
        assert_eq!(outcome.phases.len(), 2);
        // The withdrawn instance saw flows before the reshuffle; the
        // survivor re-hunted the re-steered ones.
        assert!(outcome.per_lb_stats[1].new_flows > 0);
        assert!(outcome.per_lb_stats[0].rehunts > 0, "re-hunts expected");
        assert_eq!(outcome.lb_stats.missing_flow, 0);
    }

    #[test]
    fn a_server_added_after_a_withdrawal_steers_only_to_the_remaining_lb() {
        // Two bursts of traffic with a quiet gap between them: LB 1 is
        // withdrawn in the gap and server 4 joins after it, so the second
        // burst must reach LB 0 alone — including the SYN-ACKs of the new
        // server, whose directory is cloned from the runner's own.  A stale
        // copy would teach LB 1 flows it never hunted and leave LB 0, which
        // steers their requests, without an entry (no flow recovery here).
        let service = ServiceTime::Constant { ms: 10.0 };
        let early = PoissonWorkload::new(100.0, 60, service).generate(1);
        let late = PoissonWorkload::new(100.0, 60, service).generate(2);
        let shift = SimDuration::from_secs(3);
        let requests: Vec<Request> = early
            .into_iter()
            .chain(
                late.into_iter()
                    .map(|r| Request::new(r.id + 60, r.arrival + shift, r.class, r.service)),
            )
            .collect();
        let mut spec = trace_spec(requests, PolicyConfig::Static { threshold: 2 }, 2)
            .at(2.0, ScenarioEvent::RemoveLb { lb: 1 })
            .at(2.5, ScenarioEvent::AddServer { server: 4 });
        spec.cluster.lb_count = 2;
        spec.cluster.max_servers = 5;

        let batched = Runner::new(spec.clone()).unwrap().run();
        let sharded = Runner::new(spec)
            .unwrap()
            .with_exec(ExecMode::Sharded { threads: 2 })
            .with_pool_policy(PoolPolicy::Force)
            .with_shard_planning(ShardPlanning::RoundRobin)
            .run();
        assert!(sharded.shard_plan.is_some(), "two shards actually ran");
        assert_eq!(sharded.collector.records(), batched.collector.records());
        for outcome in [&batched, &sharded] {
            assert_eq!(
                outcome.collector.completed_count(),
                120,
                "every request completes"
            );
            assert!(
                outcome.server_stats[4].completed > 0,
                "the new server took flows"
            );
            let [lb0, lb1] = [outcome.per_lb_stats[0], outcome.per_lb_stats[1]];
            assert!(
                lb1.new_flows > 0 && lb1.new_flows < 60,
                "LB 1 shared the first burst"
            );
            // Each instance learned exactly the flows it hunted: nothing
            // reached LB 1 after its withdrawal.
            assert_eq!(lb1.flows_learned, lb1.new_flows);
            assert_eq!(lb0.flows_learned, lb0.new_flows);
            assert_eq!(lb0.new_flows + lb1.new_flows, 120);
            assert_eq!(outcome.lb_stats.missing_flow, 0);
        }
    }

    #[test]
    fn every_exec_mode_produces_identical_outcomes() {
        // The full matrix on a churny spec: serial reference loop, batched
        // loop, and 2/4-way sharding must agree event for event.
        let spec = quick_spec(0.6, PolicyKind::Dynamic)
            .with_lb_count(2)
            .with_seed(9)
            .at(0.5, ScenarioEvent::RemoveServer { server: 3 })
            .at(1.0, ScenarioEvent::AddServer { server: 3 });
        let reference = Runner::new(spec.clone())
            .unwrap()
            .with_exec(ExecMode::SerialStep)
            .run();
        for exec in [
            ExecMode::Batched,
            ExecMode::Sharded { threads: 2 },
            ExecMode::Sharded { threads: 4 },
        ] {
            // Force the worker pool so sharded modes exercise the real
            // window protocol even on single-core test hosts.
            let outcome = Runner::new(spec.clone())
                .unwrap()
                .with_exec(exec)
                .with_pool_policy(PoolPolicy::Force)
                .run();
            assert_eq!(
                outcome.collector.records(),
                reference.collector.records(),
                "{exec:?} diverged from the serial loop"
            );
            assert_eq!(outcome.events_processed, reference.events_processed);
            assert_eq!(outcome.per_lb_stats, reference.per_lb_stats);
            assert_eq!(outcome.server_stats, reference.server_stats);
            assert_eq!(outcome.duration_seconds, reference.duration_seconds);
        }
    }

    #[test]
    fn shard_planning_strategies_produce_identical_outcomes() {
        // Placement is a throughput knob only: on a rack/zone topology the
        // topology-aware and round-robin plans differ (different shard
        // count and lookahead at 3 threads) yet must agree byte for byte.
        let mut spec = quick_spec(0.6, PolicyKind::Dynamic).with_seed(23);
        spec.topology = TopologyModel::rack_zone_default();
        let run = |planning: ShardPlanning| {
            Runner::new(spec.clone())
                .unwrap()
                .with_exec(ExecMode::Sharded { threads: 3 })
                .with_pool_policy(PoolPolicy::Force)
                .with_shard_planning(planning)
                .run()
        };
        let aware = run(ShardPlanning::TopologyAware);
        let rr = run(ShardPlanning::RoundRobin);
        assert_ne!(
            aware.shard_plan, rr.shard_plan,
            "the two strategies must actually produce different plans here"
        );
        assert_eq!(aware.collector.records(), rr.collector.records());
        assert_eq!(aware.events_processed, rr.events_processed);
        assert_eq!(aware.per_lb_stats, rr.per_lb_stats);
        assert_eq!(aware.server_stats, rr.server_stats);
        assert!(
            aware
                .shard_plan
                .as_deref()
                .is_some_and(|p| p.starts_with("topology-aware")),
            "plan summary records the strategy: {:?}",
            aware.shard_plan
        );
    }

    #[test]
    fn bounded_flow_table_run_evicts_and_stays_deterministic() {
        use crate::spec::FlowTableSpec;
        // A table far smaller than the flow count: the run must complete
        // under eviction pressure, report every eviction by cause, and stay
        // byte-identical across execution modes.
        let spec = quick_spec(0.6, PolicyKind::Static { threshold: 4 })
            .with_seed(13)
            .with_flow_table(FlowTableSpec {
                idle_timeout_s: 30.0,
                capacity: Some(32),
                sweep_interval_s: Some(5.0),
            });
        let outcome = Runner::new(spec.clone()).unwrap().run();
        assert_eq!(outcome.collector.len(), 400);
        let evicted = outcome.lb_stats.flow_evicted_expired
            + outcome.lb_stats.flow_evicted_idle
            + outcome.lb_stats.flow_evicted_active;
        assert!(evicted > 0, "32 slots for 400 flows must evict");
        assert!(outcome.lb_stats.flow_peak_occupancy > 0);
        assert!(outcome.lb_stats.flow_peak_occupancy <= 32);
        for exec in [ExecMode::SerialStep, ExecMode::Sharded { threads: 2 }] {
            let again = Runner::new(spec.clone())
                .unwrap()
                .with_exec(exec)
                .with_pool_policy(PoolPolicy::Force)
                .run();
            assert_eq!(again.collector.records(), outcome.collector.records());
            assert_eq!(again.lb_stats, outcome.lb_stats);
            assert_eq!(again.events_processed, outcome.events_processed);
        }
    }

    #[test]
    fn default_flow_table_surfaces_no_new_counters() {
        // The unbounded default table must keep `LbStats` free of the new
        // flow counters (they are serde-skipped at zero), so committed
        // artifacts stay byte-stable.
        let outcome = Runner::new(quick_spec(0.5, PolicyKind::Dynamic))
            .unwrap()
            .run();
        assert_eq!(outcome.lb_stats.flow_evicted_expired, 0);
        assert_eq!(outcome.lb_stats.flow_evicted_idle, 0);
        assert_eq!(outcome.lb_stats.flow_evicted_active, 0);
        assert_eq!(outcome.lb_stats.flow_peak_occupancy, 0);
    }

    #[test]
    fn load_aware_policy_runs_end_to_end_deterministically() {
        let spec = quick_spec(
            0.7,
            PolicyKind::LoadAware {
                pool: 4,
                threshold: 4,
            },
        )
        .with_seed(17);
        let outcome = Runner::new(spec.clone()).unwrap().run();
        assert_eq!(outcome.label, "SRla-p4c4");
        assert!(outcome.dispatcher_name.contains("load-aware"));
        assert_eq!(outcome.collector.len(), 400);
        assert!(outcome.collector.completed_count() > 0);
        for exec in [ExecMode::SerialStep, ExecMode::Sharded { threads: 2 }] {
            let again = Runner::new(spec.clone())
                .unwrap()
                .with_exec(exec)
                .with_pool_policy(PoolPolicy::Force)
                .run();
            assert_eq!(again.collector.records(), outcome.collector.records());
            assert_eq!(again.events_processed, outcome.events_processed);
        }
    }

    #[test]
    fn rack_zone_topology_runs_end_to_end() {
        let spec = quick_spec(0.4, PolicyKind::Static { threshold: 4 })
            .with_topology(TopologyModel::rack_zone_default());
        let outcome = Runner::new(spec).unwrap().run();
        assert_eq!(outcome.collector.len(), 400);
        assert!(outcome.collector.completed_count() > 0);
    }

    #[test]
    fn asymmetric_topology_changes_response_times_but_not_determinism() {
        let uniform = Runner::new(quick_spec(0.4, PolicyKind::RoundRobin))
            .unwrap()
            .run();
        let spec = quick_spec(0.4, PolicyKind::RoundRobin).with_topology(TopologyModel::RackZone {
            racks: 3,
            intra_rack_us: 50,
            cross_rack_us: 50,
            client_link_us: 5_000,
        });
        let remote = Runner::new(spec.clone()).unwrap().run();
        let remote2 = Runner::new(spec).unwrap().run();
        assert_eq!(remote.collector.records(), remote2.collector.records());
        // A 5 ms client edge adds ≥ 10 ms round trip to every response.
        let u = uniform.collector.summary(None).mean();
        let r = remote.collector.summary(None).mean();
        assert!(r > u + 10.0, "uniform mean {u} ms vs remote mean {r} ms");
    }

    #[test]
    fn lossy_run_recovers_every_request_via_retransmission() {
        use crate::spec::{FaultLink, LossSpec};
        // 2% loss on every link; default recovery policy.  Retransmission
        // must complete every request with no established-flow remaps.
        let spec = quick_spec(
            0.5,
            PolicyKind::Explicit {
                dispatcher: crate::dispatch::DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
                acceptance: srlb_server::PolicyConfig::Static { threshold: 4 },
            },
        )
        .with_seed(7)
        .with_faults(FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink::default(),
                probability: 0.02,
            }],
            ..FaultPlan::default()
        });
        let outcome = Runner::new(spec.clone()).unwrap().run();
        assert_eq!(outcome.collector.len(), 400);
        assert_eq!(outcome.collector.completed_count(), 400, "zero give-ups");
        assert!(outcome.dropped_injected > 0, "losses must actually occur");
        assert!(outcome.retransmits > 0, "recovery must actually retransmit");
        assert_eq!(outcome.aborted, 0);
        assert_eq!(outcome.dropped_queue, 0);
        assert_eq!(outcome.dropped_link_down, 0);

        // And the lossy run is byte-identical across execution modes.
        for exec in [ExecMode::SerialStep, ExecMode::Sharded { threads: 2 }] {
            let again = Runner::new(spec.clone())
                .unwrap()
                .with_exec(exec)
                .with_pool_policy(PoolPolicy::Force)
                .run();
            assert_eq!(again.collector.records(), outcome.collector.records());
            assert_eq!(again.dropped_injected, outcome.dropped_injected);
            assert_eq!(again.retransmits, outcome.retransmits);
            assert_eq!(again.events_processed, outcome.events_processed);
        }
    }

    #[test]
    fn total_loss_aborts_gracefully_instead_of_hanging() {
        use crate::spec::{FaultLink, FaultNode, LossSpec};
        use srlb_net::RetransmitPolicy;
        // The client → LB direction loses everything: no SYN ever arrives,
        // every request must abort after exactly max_retries retransmits.
        let spec = quick_spec(0.5, PolicyKind::Static { threshold: 4 })
            .with_queries(50)
            .with_faults(FaultPlan {
                loss: vec![LossSpec {
                    link: FaultLink {
                        from: Some(FaultNode::Client),
                        to: None,
                    },
                    probability: 1.0,
                }],
                recovery: Some(RetransmitPolicy {
                    max_retries: 3,
                    ..RetransmitPolicy::default()
                }),
                ..FaultPlan::default()
            });
        let outcome = Runner::new(spec).unwrap().run();
        assert_eq!(outcome.collector.len(), 50);
        assert_eq!(outcome.aborted, 50, "every request gives up");
        assert_eq!(outcome.collector.completed_count(), 0);
        // 1 original + 3 retransmits per request, all lost.
        assert_eq!(outcome.retransmits, 150);
        assert_eq!(outcome.dropped_injected, 200);
    }

    #[test]
    fn slow_node_multiplier_stretches_response_times_deterministically() {
        use crate::spec::{FaultNode, SlowNodeSpec};
        let base = Runner::new(quick_spec(0.4, PolicyKind::RoundRobin))
            .unwrap()
            .run();
        // A 20× slower client edge adds latency to every round trip.
        let spec = quick_spec(0.4, PolicyKind::RoundRobin).with_faults(FaultPlan {
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Client,
                multiplier: 20.0,
            }],
            ..FaultPlan::default()
        });
        let slow = Runner::new(spec.clone()).unwrap().run();
        let again = Runner::new(spec).unwrap().run();
        assert_eq!(slow.collector.records(), again.collector.records());
        assert_eq!(slow.collector.completed_count(), 400);
        let b = base.collector.summary(None).mean();
        let s = slow.collector.summary(None).mean();
        assert!(s > b, "slowed client mean {s} ms vs baseline {b} ms");
    }

    #[test]
    fn empty_fault_plan_reproduces_the_fault_free_run_exactly() {
        // The zero-fault equivalence guard at the runner level: a spec
        // whose plan is empty must not perturb a single byte of the
        // outcome relative to a spec with no fault axis at all.
        let spec = quick_spec(0.6, PolicyKind::Dynamic).with_seed(11);
        let baseline = Runner::new(spec.clone()).unwrap().run();
        let with_empty_plan = Runner::new(spec.with_faults(FaultPlan::default()))
            .unwrap()
            .run();
        assert_eq!(
            baseline.collector.records(),
            with_empty_plan.collector.records()
        );
        assert_eq!(baseline.events_processed, with_empty_plan.events_processed);
        assert_eq!(baseline.dropped_injected, 0);
        assert_eq!(baseline.retransmits, 0);
    }

    /// A 4-server × 4-worker cluster (backlog 16, load recording on)
    /// replaying `requests` under `k` random candidates and the given
    /// acceptance policy.
    fn trace_spec(requests: Vec<Request>, acceptance: PolicyConfig, k: usize) -> ExperimentSpec {
        let mut spec = quick_spec(
            0.5,
            PolicyKind::Explicit {
                dispatcher: DispatcherConfig::Random { k },
                acceptance,
            },
        )
        .with_seed(42);
        spec.workload = WorkloadSpec::Trace { requests };
        spec.cluster = ClusterSpec {
            initial_servers: 4,
            max_servers: 4,
            workers: 4,
            backlog: 16,
            record_load: true,
            ..ClusterSpec::paper()
        };
        spec
    }

    fn sum_over_servers(outcome: &RunOutcome, field: impl Fn(&ServerStats) -> u64) -> u64 {
        outcome.server_stats.iter().map(field).sum()
    }

    #[test]
    fn trace_workload_replays_explicit_requests() {
        let requests =
            PoissonWorkload::new(50.0, 100, ServiceTime::Exponential { mean_ms: 10.0 }).generate(3);
        let mut spec = quick_spec(0.5, PolicyKind::RoundRobin);
        spec.workload = WorkloadSpec::Trace { requests };
        let outcome = Runner::new(spec).unwrap().run();
        assert_eq!(outcome.collector.len(), 100);
        assert_eq!(outcome.label, "RR");
    }

    #[test]
    fn every_trace_request_completes_under_light_load() {
        let requests =
            PoissonWorkload::new(50.0, 300, ServiceTime::Exponential { mean_ms: 20.0 }).generate(3);
        let spec = trace_spec(requests, PolicyConfig::Static { threshold: 2 }, 2);
        let outcome = Runner::new(spec).unwrap().run();
        assert_eq!(outcome.collector.len(), 300);
        assert_eq!(outcome.collector.completed_count(), 300);
        assert_eq!(outcome.collector.reset_count(), 0);
        assert_eq!(sum_over_servers(&outcome, |s| s.completed), 300);
        assert_eq!(outcome.lb_stats.new_flows, 300);
        assert_eq!(outcome.lb_stats.flows_learned, 300);
        assert!(outcome.duration_seconds > 0.0);
        assert!(outcome.events_processed > 300);
        // Load was recorded on every server that served something.
        assert!(outcome.load_series.iter().any(|s| !s.is_empty()));
    }

    #[test]
    fn response_times_include_service_and_network() {
        let requests =
            PoissonWorkload::new(10.0, 50, ServiceTime::Constant { ms: 30.0 }).generate(1);
        let spec = trace_spec(requests, PolicyConfig::Static { threshold: 2 }, 2);
        let summary = Runner::new(spec).unwrap().run().collector.summary(None);
        // Every response takes at least the 30 ms service time plus a few
        // network hops, and under this trivial load not much more.
        assert!(summary.min().unwrap() >= 30.0);
        assert!(summary.max().unwrap() < 100.0);
    }

    #[test]
    fn backlog_overflow_resets_are_the_servers_resets() {
        // 2 servers x 2 workers with tiny backlogs and a service time far
        // beyond what the offered load allows: most requests must be reset.
        let requests =
            PoissonWorkload::new(200.0, 400, ServiceTime::Constant { ms: 500.0 }).generate(2);
        let mut spec = trace_spec(requests, PolicyConfig::Static { threshold: 2 }, 2).with_seed(7);
        spec.cluster = ClusterSpec {
            initial_servers: 2,
            max_servers: 2,
            workers: 2,
            cores: 1,
            backlog: 2,
            ..ClusterSpec::paper()
        };
        let outcome = Runner::new(spec).unwrap().run();
        assert!(
            outcome.collector.reset_count() > 0,
            "backlog overflow must reset"
        );
        assert_eq!(
            outcome.collector.len(),
            400,
            "every request is accounted for"
        );
        assert_eq!(
            sum_over_servers(&outcome, |s| s.resets) as usize,
            outcome.collector.reset_count()
        );
    }

    #[test]
    fn rr_baseline_never_consults_the_policy() {
        let requests =
            PoissonWorkload::new(50.0, 200, ServiceTime::Exponential { mean_ms: 10.0 }).generate(9);
        let spec = trace_spec(requests, PolicyConfig::NeverAccept, 1);
        let outcome = Runner::new(spec).unwrap().run();
        assert_eq!(outcome.collector.completed_count(), 200);
        assert_eq!(sum_over_servers(&outcome, |s| s.forced_accepts), 200);
        assert_eq!(sum_over_servers(&outcome, |s| s.accepted_by_policy), 0);
        assert!(outcome.acceptance_ratios.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn every_pass_on_lands_on_the_final_candidate() {
        let requests = PoissonWorkload::new(400.0, 600, ServiceTime::Exponential { mean_ms: 40.0 })
            .generate(11);
        let spec = trace_spec(requests, PolicyConfig::Static { threshold: 1 }, 2);
        let outcome = Runner::new(spec).unwrap().run();
        let passed = sum_over_servers(&outcome, |s| s.passed_on);
        let forced = sum_over_servers(&outcome, |s| s.forced_accepts);
        assert!(passed > 0, "a threshold of 1 under load must pass some on");
        assert_eq!(passed, forced, "every pass-on lands on the final candidate");
    }

    #[test]
    fn invalid_trace_clusters_are_rejected() {
        let static2 = PolicyConfig::Static { threshold: 2 };
        let mut spec = trace_spec(Vec::new(), static2, 2);
        spec.cluster.initial_servers = 0;
        assert!(Runner::new(spec).is_err());

        let mut spec = trace_spec(Vec::new(), static2, 2);
        spec.cluster.workers = 0;
        assert!(Runner::new(spec).is_err());

        // More candidates than servers.
        assert!(matches!(
            Runner::new(trace_spec(Vec::new(), static2, 10)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn identical_seeds_replay_a_trace_identically() {
        let workload = PoissonWorkload::new(80.0, 150, ServiceTime::Exponential { mean_ms: 25.0 });
        let run = |seed: u64| {
            let spec = trace_spec(
                workload.generate(5),
                PolicyConfig::Static { threshold: 2 },
                2,
            );
            Runner::new(spec.with_seed(seed)).unwrap().run()
        };
        assert_eq!(run(1).collector.records(), run(1).collector.records());
    }
}
