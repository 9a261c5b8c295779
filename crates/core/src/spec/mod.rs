//! The unified, declarative experiment schema.
//!
//! An [`ExperimentSpec`] is the single description every SRLB experiment
//! runs from: a *workload* (streamed, never pre-materialised), a *cluster*,
//! a *topology* model, an optional *scenario* (a time-ordered schedule of
//! control events), and a *policy*.  It is plain serde data, so any
//! experiment — a paper figure point, a dynamic-cluster scenario, or a
//! cross product of both — can be committed as JSON and replayed
//! bit-for-bit with [`Runner`](crate::runner::Runner) (see
//! `examples/specs/` at the workspace root).
//!
//! The module is split by concern: this file is the schema and its
//! builders, `validate` the consistency checks behind
//! [`ExperimentSpec::validate`], `lower` the conversions to runtime objects
//! (request streams, flow tables, simulator fault configuration), and
//! `presets` the canned constructors ([`ExperimentSpec::poisson_paper`],
//! [`ExperimentSpec::lb_failover`], …).

use serde::{Deserialize, Serialize};

use srlb_server::PolicyConfig;
use srlb_sim::TopologyModel;
use srlb_workload::Request;

use crate::dispatch::DispatcherConfig;
use crate::flow_state::DEFAULT_IDLE_TIMEOUT_SECS;

mod lower;
mod presets;
mod validate;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// The load-balancing policy under test, named as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// `RR`: each query is assigned to one random server, no Service
    /// Hunting.
    RoundRobin,
    /// `SRc`: Service Hunting over two random candidates with the static
    /// acceptance threshold `c`.
    Static {
        /// The busy-thread threshold `c`.
        threshold: usize,
    },
    /// `SRdyn`: Service Hunting with the dynamic threshold policy.
    Dynamic,
    /// Service Hunting over the two least-loaded of `pool` hash-derived
    /// candidates, ranked by the EWMA of the load hints servers piggyback
    /// on acceptance SYN-ACKs and ownership adverts, with the static
    /// acceptance threshold as the server-side backstop.
    LoadAware {
        /// Number of hash-derived candidates ranked by load (at most
        /// [`MAX_CANDIDATES`](crate::dispatch::MAX_CANDIDATES)).
        pool: usize,
        /// The busy-thread threshold servers still enforce.
        threshold: usize,
    },
    /// Fully explicit pairing of a candidate-selection dispatcher and a
    /// per-server acceptance policy — the form the dynamic-cluster
    /// scenarios use (consistent-hash / Maglev selection).
    Explicit {
        /// Candidate-selection policy at the load balancer.
        dispatcher: DispatcherConfig,
        /// Per-server acceptance policy.
        acceptance: PolicyConfig,
    },
}

impl PolicyKind {
    /// The display name used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::RoundRobin => "RR".to_string(),
            PolicyKind::Static { threshold } => format!("SR{threshold}"),
            PolicyKind::Dynamic => "SRdyn".to_string(),
            PolicyKind::LoadAware { pool, threshold } => format!("SRla-p{pool}c{threshold}"),
            PolicyKind::Explicit {
                dispatcher,
                acceptance,
            } => format!("explicit-k{}-{}", dispatcher.fanout(), acceptance.name()),
        }
    }

    /// The dispatcher this policy requires.
    pub fn dispatcher(&self) -> DispatcherConfig {
        match self {
            PolicyKind::RoundRobin => DispatcherConfig::Random { k: 1 },
            PolicyKind::Static { .. } | PolicyKind::Dynamic => DispatcherConfig::Random { k: 2 },
            PolicyKind::LoadAware { pool, .. } => DispatcherConfig::LoadAware {
                vnodes: 64,
                pool: *pool,
                k: 2,
            },
            PolicyKind::Explicit { dispatcher, .. } => *dispatcher,
        }
    }

    /// The per-server acceptance policy this policy requires.
    pub fn acceptance_policy(&self) -> PolicyConfig {
        match self {
            // With a single candidate the policy is never consulted.
            PolicyKind::RoundRobin => PolicyConfig::AlwaysAccept,
            PolicyKind::Static { threshold } | PolicyKind::LoadAware { threshold, .. } => {
                PolicyConfig::Static {
                    threshold: *threshold,
                }
            }
            PolicyKind::Dynamic => PolicyConfig::paper_dynamic(),
            PolicyKind::Explicit { acceptance, .. } => *acceptance,
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario schedule
// ---------------------------------------------------------------------------

/// A control action injected into a running experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScenarioEvent {
    /// Brings up the backend with the given index (fresh state), which must
    /// currently be down, and rebuilds the dispatcher over the grown set.
    AddServer {
        /// Index of the server (must be `< max_servers`).
        server: u32,
    },
    /// Removes the backend with the given index abruptly (its established
    /// connections are lost) and rebuilds the dispatcher over the shrunk
    /// set.
    RemoveServer {
        /// Index of the server to remove.
        server: u32,
    },
    /// Fails every advertised load-balancer instance over to a cold standby
    /// at the same address: the flow tables are lost and must be
    /// reconstructed in-band.  (With `lb_count = 1` this is the classic
    /// single-LB failover.)
    LbFailover,
    /// Advertises load-balancer instance `lb` (which must currently be
    /// withdrawn) back into the ECMP tier: it resumes receiving the flows
    /// it wins under resilient hashing, stealing them from peers.
    AddLb {
        /// Index of the instance (must be `< lb_count`).
        lb: u32,
    },
    /// Withdraws load-balancer instance `lb` from the ECMP tier — the
    /// reshuffle event: packets already in the fabric still deliver, but
    /// every subsequent packet of the flows it carried is re-steered to a
    /// surviving peer that has never seen them (and must re-hunt them when
    /// flow recovery is enabled).
    RemoveLb {
        /// Index of the instance to withdraw.
        lb: u32,
    },
    /// Re-provisions a live backend's capacity (workers and cores) without
    /// interrupting running requests.
    SetCapacity {
        /// Index of the server to re-provision.
        server: u32,
        /// New worker-thread count.
        workers: usize,
        /// New CPU core count.
        cores: usize,
    },
}

impl ScenarioEvent {
    /// A short label naming the event (used for phase labels in reports).
    pub fn label(&self) -> String {
        match self {
            ScenarioEvent::AddServer { server } => format!("add-server-{server}"),
            ScenarioEvent::RemoveServer { server } => format!("remove-server-{server}"),
            ScenarioEvent::LbFailover => "lb-failover".to_string(),
            ScenarioEvent::AddLb { lb } => format!("add-lb-{lb}"),
            ScenarioEvent::RemoveLb { lb } => format!("remove-lb-{lb}"),
            ScenarioEvent::SetCapacity {
                server,
                workers,
                cores,
            } => format!("set-capacity-{server}-{workers}w{cores}c"),
        }
    }
}

/// A [`ScenarioEvent`] scheduled at an absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// When the event fires, in seconds since the start of the run.  All
    /// packet events at or before this instant are delivered first.
    pub at_seconds: f64,
    /// The control action.
    pub event: ScenarioEvent,
}

/// Initial capacity override for one backend (heterogeneous clusters).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityOverride {
    /// Index of the server.
    pub server: u32,
    /// Worker threads (instead of the cluster-wide default).
    pub workers: usize,
    /// CPU cores (instead of the cluster-wide default).
    pub cores: usize,
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

/// Serde default for [`ClusterSpec::lb_count`]: the paper's single load
/// balancer.
fn default_lb_count() -> usize {
    1
}

/// Serde skip predicate for [`ClusterSpec::lb_count`]: the degenerate
/// single-LB tier is not serialised, keeping committed specs byte-stable.
fn lb_count_is_one(n: &usize) -> bool {
    *n == 1
}

fn default_idle_timeout_s() -> f64 {
    DEFAULT_IDLE_TIMEOUT_SECS as f64
}

fn idle_timeout_is_default(s: &f64) -> bool {
    *s == DEFAULT_IDLE_TIMEOUT_SECS as f64
}

/// Serde skip predicate for [`ClusterSpec::flow_table`]: the unbounded
/// default table is not serialised, so committed specs written before the
/// flow-state subsystem existed parse and re-serialise byte-identically
/// (the [`lb_count_is_one`] precedent).
fn flow_table_is_default(ft: &FlowTableSpec) -> bool {
    *ft == FlowTableSpec::default()
}

/// Configuration of each load balancer's flow-stickiness table.
///
/// The default — the 5-minute idle timeout, no capacity bound, no periodic
/// sweep — matches the table every spec ran with before this axis existed
/// and is omitted from serialised specs entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowTableSpec {
    /// Idle timeout in seconds after which an entry expires.
    #[serde(
        default = "default_idle_timeout_s",
        skip_serializing_if = "idle_timeout_is_default"
    )]
    pub idle_timeout_s: f64,
    /// Hard bound on live entries per load balancer; `None` is unbounded.
    /// When full, learning a new flow evicts the least-recently-touched
    /// entry (preferring expired, then long-idle ones), and every eviction
    /// is counted by cause in [`crate::lb_node::LbStats`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub capacity: Option<usize>,
    /// Interval of the amortised incremental expiry sweep, in seconds;
    /// `None` expires lazily on access only.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sweep_interval_s: Option<f64>,
}

impl Default for FlowTableSpec {
    fn default() -> Self {
        FlowTableSpec {
            idle_timeout_s: default_idle_timeout_s(),
            capacity: None,
            sweep_interval_s: None,
        }
    }
}

/// Static description of the cluster an experiment runs on.
///
/// The candidate-selection and acceptance policies live in
/// [`ExperimentSpec::policy`], not here: the cluster is the *capacity*
/// axis, the policy is the *algorithm* axis, and specs sweep them
/// independently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Backends alive when the run starts.
    pub initial_servers: usize,
    /// Upper bound on the backend count (fixes the address/node-id layout;
    /// `AddServer` events may only name indices below this).
    pub max_servers: usize,
    /// Default worker threads per backend.
    pub workers: usize,
    /// Default CPU cores per backend.
    pub cores: usize,
    /// TCP backlog per backend.
    pub backlog: usize,
    /// Per-backend initial capacity overrides (heterogeneous clusters).
    pub capacity_overrides: Vec<CapacityOverride>,
    /// Number of VIPs sharing the cluster (requests are assigned
    /// round-robin by request id).
    pub vips: u32,
    /// Number of load-balancer instances in the ECMP-steered tier fronting
    /// the cluster.  All instances advertise the same anycast address and
    /// VIPs; flows are spread across them by deterministic resilient ECMP
    /// hashing of the 5-tuple ([`srlb_sim::ecmp_steer`]).  `1` — the
    /// paper's single-LB testbed — is the serde default and is omitted
    /// from serialised specs, so committed spec JSONs stay byte-stable.
    #[serde(default = "default_lb_count", skip_serializing_if = "lb_count_is_one")]
    pub lb_count: usize,
    /// Per-LB flow-stickiness table configuration (idle timeout, capacity
    /// bound, shard count, sweep interval).  The unbounded default is
    /// omitted from serialised specs, so committed spec JSONs stay
    /// byte-stable.
    #[serde(default, skip_serializing_if = "flow_table_is_default")]
    pub flow_table: FlowTableSpec,
    /// Whether the load balancers reconstruct lost flow-table entries
    /// in-band (re-hunt on miss + server ownership adverts).
    pub recover_flows: bool,
    /// Whether servers record per-change load samples (Figure 4).
    pub record_load: bool,
}

impl ClusterSpec {
    /// The paper's testbed: 12 servers × 32 workers × 2 cores, backlog 128.
    pub fn paper() -> Self {
        ClusterSpec {
            initial_servers: 12,
            max_servers: 12,
            workers: 32,
            cores: 2,
            backlog: 128,
            capacity_overrides: Vec::new(),
            vips: 1,
            lb_count: 1,
            flow_table: FlowTableSpec::default(),
            recover_flows: false,
            record_load: false,
        }
    }

    /// The initial `(workers, cores)` of server `index`, honouring
    /// overrides.
    pub fn capacity_of(&self, index: u32) -> (usize, usize) {
        self.capacity_overrides
            .iter()
            .find(|o| o.server == index)
            .map_or((self.workers, self.cores), |o| (o.workers, o.cores))
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::paper()
    }
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// The workload driven through the cluster, streamed on demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The Poisson workload of Section V, parameterised by the normalised
    /// rate ρ.
    Poisson {
        /// Normalised request rate ρ = λ/λ₀.
        rho: f64,
        /// Maximum sustainable rate λ₀ in queries per second; `None` uses
        /// the analytic capacity of the configured cluster.
        lambda0: Option<f64>,
        /// Number of queries (the paper uses 20 000).
        queries: usize,
        /// Mean (exponential) service time in milliseconds (the paper uses
        /// 100 ms).
        mean_service_ms: f64,
    },
    /// A Poisson workload at an explicit arrival rate (the form the
    /// dynamic-cluster scenarios use).
    PoissonRate {
        /// Arrival rate in queries per second.
        rate_qps: f64,
        /// Total number of queries.
        queries: usize,
        /// Mean (exponential) service time in milliseconds.
        mean_service_ms: f64,
    },
    /// The synthetic Wikipedia replay of Section VI.
    Wikipedia {
        /// Trace duration in hours (the paper replays 24 hours).
        hours: f64,
        /// Fraction of the peak load to replay (the paper uses 50%).
        load_fraction: f64,
    },
    /// An explicit, pre-generated trace.
    Trace {
        /// The requests to replay.
        requests: Vec<Request>,
    },
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// A role-based endpoint in a [`FaultPlan`]: specs name the client, a
/// load-balancer instance or a backend rather than raw simulator node ids,
/// and the runner lowers these to `NodeId`s once the layout is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultNode {
    /// The traffic-generating client.
    Client,
    /// Load-balancer instance `index` (must be `< lb_count`).
    Lb {
        /// Index into the LB tier.
        index: usize,
    },
    /// Backend server `index` (must be `< max_servers`).
    Server {
        /// Index into the backend set.
        index: usize,
    },
}

/// A directed link pattern between role-based endpoints; `None` endpoints
/// are wildcards (and are omitted from serialised specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultLink {
    /// Sending endpoint (`None` matches any sender).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub from: Option<FaultNode>,
    /// Receiving endpoint (`None` matches any receiver).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub to: Option<FaultNode>,
}

impl FaultLink {
    /// `true` for the double-wildcard pattern (the `Default`), which is
    /// omitted from serialised specs so defaulted and explicit
    /// match-anything links produce identical bytes.
    pub fn is_any(&self) -> bool {
        self.from.is_none() && self.to.is_none()
    }
}

/// Independent per-message loss on matching links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossSpec {
    /// Which links the rule applies to.
    #[serde(default, skip_serializing_if = "FaultLink::is_any")]
    pub link: FaultLink,
    /// Per-message drop probability in `[0, 1]`.
    pub probability: f64,
}

/// Deterministically drops the `packet`-th message delivered over one
/// concrete link, once (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneShotDropSpec {
    /// Sending endpoint.
    pub from: FaultNode,
    /// Receiving endpoint.
    pub to: FaultNode,
    /// 1-based index of the doomed message among the link's deliveries.
    pub packet: u64,
}

/// Matching links drop every message inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DownWindowSpec {
    /// Which links go down.
    #[serde(default, skip_serializing_if = "FaultLink::is_any")]
    pub link: FaultLink,
    /// Start of the outage, in seconds since the start of the run
    /// (inclusive).
    pub from_seconds: f64,
    /// End of the outage, in seconds (exclusive).
    pub until_seconds: f64,
}

/// A bounded FIFO on one concrete link: finite capacity, tail drop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueSpec {
    /// Sending endpoint.
    pub from: FaultNode,
    /// Receiving endpoint.
    pub to: FaultNode,
    /// Maximum number of queued messages before tail drop.
    pub capacity: u64,
    /// Drain rate in packets per second.
    pub drain_pps: f64,
}

/// Multiplies the latency of every link touching one node — a degraded NIC
/// or an oversubscribed hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowNodeSpec {
    /// The slowed node.
    pub node: FaultNode,
    /// Latency multiplier (must be positive; values below 1 speed the node
    /// up, which is occasionally useful for asymmetry experiments).
    pub multiplier: f64,
}

/// The fault-injection axis of an experiment: what the network does to the
/// experiment's packets, and how the client recovers.
///
/// The default (empty) plan injects nothing, enables no retransmission and
/// is omitted from serialised specs entirely — committed spec JSONs written
/// before the fault layer existed parse and re-serialise byte-identically
/// (the [`ClusterSpec::lb_count`] precedent).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probabilistic per-link loss rules.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub loss: Vec<LossSpec>,
    /// Deterministic one-shot drops.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub drops: Vec<OneShotDropSpec>,
    /// Link down/up windows.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub down: Vec<DownWindowSpec>,
    /// Per-link bounded queues.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub queues: Vec<QueueSpec>,
    /// Slow-node latency multipliers.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub slow_nodes: Vec<SlowNodeSpec>,
    /// End-to-end recovery policy.  `None` with faults present uses the
    /// default [`RetransmitPolicy`](srlb_net::RetransmitPolicy); on an empty
    /// plan no retransmission machinery is enabled at all.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recovery: Option<srlb_net::RetransmitPolicy>,
}

/// Serde skip predicate for [`ExperimentSpec::faults`].
fn fault_plan_is_empty(plan: &FaultPlan) -> bool {
    plan.is_empty()
}

impl FaultPlan {
    /// Whether the plan injects nothing and configures no recovery.
    pub fn is_empty(&self) -> bool {
        self.loss.is_empty()
            && self.drops.is_empty()
            && self.down.is_empty()
            && self.queues.is_empty()
            && self.slow_nodes.is_empty()
            && self.recovery.is_none()
    }

    /// Whether the plan can actually lose or delay packets (as opposed to
    /// only configuring recovery).
    pub fn injects_faults(&self) -> bool {
        !self.loss.is_empty()
            || !self.drops.is_empty()
            || !self.down.is_empty()
            || !self.queues.is_empty()
            || !self.slow_nodes.is_empty()
    }

    /// The retransmission policy a non-empty plan runs with: the explicit
    /// `recovery` policy, or the default.
    pub fn effective_recovery(&self) -> srlb_net::RetransmitPolicy {
        self.recovery.unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// The spec itself
// ---------------------------------------------------------------------------

/// A complete, declarative experiment:
/// `workload × cluster × topology × scenario × policy`.
///
/// Every axis is independent, so the spec space is a cross product rather
/// than a set of hand-wired pairs — e.g. a Wikipedia replay through an
/// LB-failover schedule on a rack-asymmetric topology is just a spec, not
/// new driver code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Name used in reports and file names.
    pub name: String,
    /// Random seed (workload generation and candidate selection).
    pub seed: u64,
    /// The workload, streamed on demand.
    pub workload: WorkloadSpec,
    /// The cluster description.
    pub cluster: ClusterSpec,
    /// The link-latency model.
    pub topology: TopologyModel,
    /// Control events, sorted by time; empty for a static cluster (the
    /// degenerate single-segment run).
    pub scenario: Vec<TimedEvent>,
    /// The load-balancing policy under test.
    pub policy: PolicyKind,
    /// Client think time between the handshake completing and the HTTP
    /// request, in milliseconds.  Non-zero values keep connections
    /// *established but quiescent* for a realistic window — the state a
    /// load-balancer failover actually disrupts.
    pub request_delay_ms: f64,
    /// The fault-injection axis: what the network does to the experiment's
    /// packets, and how the client recovers.  The empty default is skipped
    /// when serialising, so fault-free specs are byte-identical to those
    /// written before the fault layer existed.
    #[serde(default, skip_serializing_if = "fault_plan_is_empty")]
    pub faults: FaultPlan,
}

impl ExperimentSpec {
    /// Overrides the name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Overrides the random seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the query count of Poisson workloads (builder style); no
    /// effect on other workloads.
    pub fn with_queries(mut self, n: usize) -> Self {
        match &mut self.workload {
            WorkloadSpec::Poisson { queries, .. } | WorkloadSpec::PoissonRate { queries, .. } => {
                *queries = n;
            }
            _ => {}
        }
        self
    }

    /// Overrides the Wikipedia trace duration in hours (builder style); no
    /// effect on other workloads.
    pub fn with_hours(mut self, h: f64) -> Self {
        if let WorkloadSpec::Wikipedia { hours, .. } = &mut self.workload {
            *hours = h;
        }
        self
    }

    /// Overrides the cluster size, keeping `max_servers` in lock-step when
    /// it matched (builder style).
    pub fn with_servers(mut self, servers: usize) -> Self {
        if self.cluster.max_servers == self.cluster.initial_servers {
            self.cluster.max_servers = servers;
        }
        self.cluster.initial_servers = servers;
        self
    }

    /// Overrides the load-balancer tier size (builder style).
    pub fn with_lb_count(mut self, lb_count: usize) -> Self {
        self.cluster.lb_count = lb_count;
        self
    }

    /// Overrides the flow-table configuration (builder style).
    pub fn with_flow_table(mut self, flow_table: FlowTableSpec) -> Self {
        self.cluster.flow_table = flow_table;
        self
    }

    /// Overrides the topology model (builder style).
    pub fn with_topology(mut self, topology: TopologyModel) -> Self {
        self.topology = topology;
        self
    }

    /// Enables per-server load recording (builder style).
    pub fn with_load_recording(mut self) -> Self {
        self.cluster.record_load = true;
        self
    }

    /// Sets the client think time in milliseconds (builder style).
    pub fn with_request_delay_ms(mut self, ms: f64) -> Self {
        self.request_delay_ms = ms;
        self
    }

    /// Sets the fault-injection plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Appends a control event at `at_seconds` (builder style).  Events
    /// must be appended in chronological order.
    pub fn at(mut self, at_seconds: f64, event: ScenarioEvent) -> Self {
        self.scenario.push(TimedEvent { at_seconds, event });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::MAX_CANDIDATES;

    #[test]
    fn policy_kind_labels_and_mappings() {
        assert_eq!(PolicyKind::RoundRobin.label(), "RR");
        assert_eq!(PolicyKind::Static { threshold: 4 }.label(), "SR4");
        assert_eq!(PolicyKind::Dynamic.label(), "SRdyn");
        assert_eq!(
            PolicyKind::RoundRobin.dispatcher(),
            DispatcherConfig::Random { k: 1 }
        );
        assert_eq!(
            PolicyKind::Static { threshold: 8 }.dispatcher(),
            DispatcherConfig::Random { k: 2 }
        );
        assert_eq!(
            PolicyKind::Static { threshold: 8 }.acceptance_policy(),
            PolicyConfig::Static { threshold: 8 }
        );
        assert_eq!(
            PolicyKind::Dynamic.acceptance_policy(),
            PolicyConfig::paper_dynamic()
        );
        let explicit = PolicyKind::Explicit {
            dispatcher: DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 },
            acceptance: PolicyConfig::Static { threshold: 4 },
        };
        assert_eq!(
            explicit.dispatcher(),
            DispatcherConfig::ConsistentHash { vnodes: 64, k: 2 }
        );
        assert_eq!(
            explicit.acceptance_policy(),
            PolicyConfig::Static { threshold: 4 }
        );
        assert!(explicit.label().contains("k2"));
    }

    #[test]
    fn builders_override_fields() {
        let spec = ExperimentSpec::wikipedia_paper(PolicyKind::Dynamic)
            .with_hours(0.5)
            .with_servers(6)
            .with_seed(9)
            .with_name("renamed")
            .with_topology(TopologyModel::rack_zone_default())
            .with_request_delay_ms(50.0)
            .with_load_recording();
        assert_eq!(spec.cluster.initial_servers, 6);
        assert_eq!(spec.cluster.max_servers, 6);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.name, "renamed");
        assert!(spec.cluster.record_load);
        assert_eq!(spec.request_delay_ms, 50.0);
        assert_eq!(spec.topology, TopologyModel::rack_zone_default());
        match spec.workload {
            WorkloadSpec::Wikipedia { hours, .. } => assert_eq!(hours, 0.5),
            _ => panic!("expected wikipedia workload"),
        }
        spec.validate().unwrap();
    }

    #[test]
    fn capacity_overrides_apply_per_server() {
        let mut cluster = ClusterSpec::paper();
        cluster.capacity_overrides.push(CapacityOverride {
            server: 2,
            workers: 4,
            cores: 1,
        });
        assert_eq!(cluster.capacity_of(2), (4, 1));
        assert_eq!(cluster.capacity_of(0), (32, 2));
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = ExperimentSpec::poisson_paper(0.61, PolicyKind::Static { threshold: 4 })
            .with_queries(500)
            .at(1.0, ScenarioEvent::LbFailover);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn lb_count_serde_is_byte_stable_and_defaulted() {
        // The degenerate single-LB tier is omitted from the JSON entirely,
        // so committed specs written before the multi-LB refactor parse
        // and re-serialise byte-identically.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(!json.contains("lb_count"), "lb_count = 1 must be skipped");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cluster.lb_count, 1);
        assert_eq!(back, spec);

        // A multi-LB tier round-trips explicitly.
        let spec = spec.with_lb_count(4);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"lb_count\":4"));
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn load_aware_policy_maps_to_dispatcher_and_acceptance() {
        let policy = PolicyKind::LoadAware {
            pool: 4,
            threshold: 4,
        };
        assert_eq!(policy.label(), "SRla-p4c4");
        assert_eq!(
            policy.dispatcher(),
            DispatcherConfig::LoadAware {
                vnodes: 64,
                pool: 4,
                k: 2,
            }
        );
        assert_eq!(
            policy.acceptance_policy(),
            PolicyConfig::Static { threshold: 4 }
        );
        ExperimentSpec::poisson_paper(0.89, policy)
            .validate()
            .unwrap();
        // Pool 0 and pools beyond the SRH candidate budget are rejected.
        let spec = ExperimentSpec::poisson_paper(
            0.5,
            PolicyKind::LoadAware {
                pool: 0,
                threshold: 4,
            },
        );
        assert!(spec.validate().is_err());
        let spec = ExperimentSpec::poisson_paper(
            0.5,
            PolicyKind::LoadAware {
                pool: MAX_CANDIDATES + 1,
                threshold: 4,
            },
        );
        assert!(spec.validate().is_err());
    }

    #[test]
    fn flow_table_serde_is_byte_stable_and_defaulted() {
        // The unbounded default table is omitted from the JSON entirely, so
        // committed specs written before the flow-state subsystem existed
        // parse and re-serialise byte-identically (the `lb_count`
        // precedent).
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(
            !json.contains("flow_table"),
            "the default table must be skipped: {json}"
        );
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cluster.flow_table, FlowTableSpec::default());
        assert_eq!(back, spec);

        // A bounded table round-trips, serialising only non-default fields.
        let spec = spec.with_flow_table(FlowTableSpec {
            idle_timeout_s: 30.0,
            capacity: Some(256),
            sweep_interval_s: Some(5.0),
        });
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"capacity\":256"), "{json}");
        assert!(json.contains("\"idle_timeout_s\":30.0"), "{json}");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        spec.validate().unwrap();

        // The retired `shards` knob never changed an output; a spec that
        // still carries it parses to the same experiment.
        let old = json.replace("\"capacity\":256", "\"capacity\":256,\"shards\":4");
        assert_ne!(old, json);
        assert_eq!(serde_json::from_str::<ExperimentSpec>(&old).unwrap(), spec);
    }

    #[test]
    fn fault_plan_serde_is_byte_stable_and_defaulted() {
        // An empty fault plan is omitted from the JSON entirely, so
        // committed specs written before the fault layer existed parse and
        // re-serialise byte-identically (the `lb_count` precedent).
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(!json.contains("faults"), "an empty plan must be skipped");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert!(back.faults.is_empty());
        assert_eq!(back, spec);

        // A lossy plan round-trips explicitly, and empty rule classes stay
        // out of the JSON.
        let spec = spec.with_faults(FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink::default(),
                probability: 0.01,
            }],
            recovery: Some(srlb_net::RetransmitPolicy::default()),
            ..FaultPlan::default()
        });
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"probability\":0.01"), "{json}");
        assert!(!json.contains("\"drops\""), "{json}");
        assert!(!json.contains("\"slow_nodes\""), "{json}");
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        assert!(back.faults.injects_faults());
        spec.validate().unwrap();
    }

    #[test]
    fn event_labels_are_descriptive() {
        assert_eq!(
            ScenarioEvent::AddServer { server: 3 }.label(),
            "add-server-3"
        );
        assert_eq!(ScenarioEvent::LbFailover.label(), "lb-failover");
        assert_eq!(ScenarioEvent::AddLb { lb: 1 }.label(), "add-lb-1");
        assert_eq!(ScenarioEvent::RemoveLb { lb: 2 }.label(), "remove-lb-2");
        assert!(ScenarioEvent::SetCapacity {
            server: 1,
            workers: 8,
            cores: 4
        }
        .label()
        .contains("8w4c"));
    }
}
