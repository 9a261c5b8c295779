//! Canned experiment specs: the paper's two evaluations, and the
//! dynamic-cluster and fault-injection schedules the paper's static testbed
//! leaves out (load-balancer failover, rolling upgrades, scale-out under
//! load, correlated failures, an ECMP reshuffle, lossy and congested
//! fabrics).  Each is an ordinary [`ExperimentSpec`]: adjust it with the
//! builders, serialise it, or hand it to [`Runner`](crate::runner::Runner).

use srlb_server::PolicyConfig;
use srlb_sim::TopologyModel;

use crate::dispatch::DispatcherConfig;

use super::{
    ClusterSpec, ExperimentSpec, FaultLink, FaultNode, FaultPlan, LossSpec, PolicyKind, QueueSpec,
    ScenarioEvent, SlowNodeSpec, WorkloadSpec,
};

/// Arrival rate of the schedule presets' workload, in queries per second.
const PRESET_RATE_QPS: f64 = 96.0;

/// Approximate time at which a schedule preset sends its last request, in
/// seconds; control events are placed at fractions of this window.
fn send_window_seconds(queries: usize) -> f64 {
    queries as f64 / PRESET_RATE_QPS
}

impl ExperimentSpec {
    /// The paper's Poisson experiment at normalised rate `rho` with the
    /// given policy: 12 servers × 32 workers, 20 000 queries, exp(100 ms)
    /// service.
    pub fn poisson_paper(rho: f64, policy: PolicyKind) -> Self {
        ExperimentSpec {
            name: format!("poisson-rho{rho:.2}-{}", policy.label()),
            seed: 1,
            workload: WorkloadSpec::Poisson {
                rho,
                lambda0: None,
                queries: 20_000,
                mean_service_ms: 100.0,
            },
            cluster: ClusterSpec::paper(),
            topology: TopologyModel::paper(),
            scenario: Vec::new(),
            policy,
            request_delay_ms: 0.0,
            faults: FaultPlan::default(),
        }
    }

    /// The paper's Wikipedia replay (24 hours at 50% of peak) with the
    /// given policy.
    pub fn wikipedia_paper(policy: PolicyKind) -> Self {
        ExperimentSpec {
            name: format!("wikipedia-{}", policy.label()),
            seed: 1,
            workload: WorkloadSpec::Wikipedia {
                hours: 24.0,
                load_fraction: 0.5,
            },
            cluster: ClusterSpec::paper(),
            topology: TopologyModel::paper(),
            scenario: Vec::new(),
            policy,
            request_delay_ms: 0.0,
            faults: FaultPlan::default(),
        }
    }

    /// The cluster and workload every schedule preset below starts from: 8
    /// servers × 16 workers × 2 cores with backlog 64 behind one load
    /// balancer with in-band flow recovery, uniform 50 µs links, `dispatcher`
    /// paired with the `SR4` acceptance policy, and `queries` Poisson
    /// arrivals at 96 queries/s with exp(100 ms) service.  The 200 ms client
    /// think time keeps connections *established but quiescent* for a
    /// realistic window — the state a control event actually disrupts.
    fn schedule_base(name: &str, dispatcher: DispatcherConfig, queries: usize) -> Self {
        ExperimentSpec {
            name: name.to_string(),
            seed: 1,
            workload: WorkloadSpec::PoissonRate {
                rate_qps: PRESET_RATE_QPS,
                queries,
                mean_service_ms: 100.0,
            },
            cluster: ClusterSpec {
                initial_servers: 8,
                max_servers: 8,
                workers: 16,
                backlog: 64,
                recover_flows: true,
                ..ClusterSpec::paper()
            },
            topology: TopologyModel::Uniform { latency_us: 50 },
            scenario: Vec::new(),
            policy: PolicyKind::Explicit {
                dispatcher,
                acceptance: PolicyConfig::Static { threshold: 4 },
            },
            request_delay_ms: 200.0,
            faults: FaultPlan::default(),
        }
    }

    /// Load-balancer failover at the midpoint of the send window, with
    /// in-band flow-table reconstruction enabled: established connections
    /// must survive with a deterministic (consistent-hash / Maglev)
    /// dispatcher.
    pub fn lb_failover(dispatcher: DispatcherConfig, queries: usize) -> Self {
        Self::schedule_base("lb_failover", dispatcher, queries).at(
            send_window_seconds(queries) * 0.5,
            ScenarioEvent::LbFailover,
        )
    }

    /// A rolling upgrade of one backend: server 0 is removed under load and
    /// a fresh instance re-joins later.  Connections established on it while
    /// it was up are disrupted; the dispatcher's remapping bounds limit the
    /// impact on everything else.
    pub fn rolling_upgrade(dispatcher: DispatcherConfig, queries: usize) -> Self {
        let window = send_window_seconds(queries);
        Self::schedule_base("rolling_upgrade", dispatcher, queries)
            .at(window * 0.35, ScenarioEvent::RemoveServer { server: 0 })
            .at(window * 0.70, ScenarioEvent::AddServer { server: 0 })
    }

    /// Doubles the cluster under load: 4 initial backends, 4 more joining at
    /// the midpoint of the send window.
    pub fn scale_out_2x(dispatcher: DispatcherConfig, queries: usize) -> Self {
        let mut spec = Self::schedule_base("scale_out_2x", dispatcher, queries);
        spec.cluster.initial_servers = 4;
        let mid = send_window_seconds(queries) * 0.5;
        for server in 4..8 {
            spec = spec.at(mid, ScenarioEvent::AddServer { server });
        }
        spec
    }

    /// ECMP reshuffle across a multi-LB tier: `lb_count` load-balancer
    /// instances share the anycast VIP behind deterministic resilient ECMP
    /// steering, and at the midpoint of the send window the last instance
    /// is *withdrawn* from the tier (crash or drain — route withdrawal
    /// either way).  Every live flow it carried is re-steered onto peers
    /// that have never seen it, so its next packet hits a flow table with
    /// no entry: with in-band recovery (on by default here) a
    /// deterministic dispatcher re-hunts the owner back and no established
    /// connection is lost, while random candidates orphan the re-steered
    /// flows.
    ///
    /// With `lb_count = 1` there is no peer to withdraw to, so the
    /// schedule is empty: the degenerate control run showing the tier
    /// preserves single-LB behaviour.
    pub fn ecmp_reshuffle(dispatcher: DispatcherConfig, lb_count: usize, queries: usize) -> Self {
        let spec =
            Self::schedule_base("ecmp_reshuffle", dispatcher, queries).with_lb_count(lb_count);
        if lb_count <= 1 {
            return spec;
        }
        spec.at(
            send_window_seconds(queries) * 0.5,
            ScenarioEvent::RemoveLb {
                lb: lb_count as u32 - 1,
            },
        )
    }

    /// Correlated failures: two backends (servers 2 and 5) die at the *same
    /// instant* at the midpoint of the send window — the multi-failure case
    /// a single rolling upgrade never exercises.  Consistent-hash and
    /// Maglev dispatchers must keep their remapping bounds: only flows
    /// owned by the failed pair move (see
    /// `crates/core/tests/proptest_churn.rs` and the two-removal probes in
    /// `srlb-bench`).
    pub fn correlated_failures(dispatcher: DispatcherConfig, queries: usize) -> Self {
        let mid = send_window_seconds(queries) * 0.5;
        Self::schedule_base("correlated_failures", dispatcher, queries)
            .at(mid, ScenarioEvent::RemoveServer { server: 2 })
            .at(mid, ScenarioEvent::RemoveServer { server: 5 })
    }

    /// The [`lb_failover`](ExperimentSpec::lb_failover) schedule under a
    /// lossy fabric: 1% independent loss on *every* link, with the default
    /// retransmission policy recovering end to end.  A deterministic
    /// dispatcher must still complete every request — retransmitted SYNs
    /// re-hunt at the rebuilt flow table, retransmitted requests steer
    /// through learned entries — with zero established-connection remaps.
    pub fn lossy_lb_failover(dispatcher: DispatcherConfig, queries: usize) -> Self {
        Self::lb_failover(dispatcher, queries)
            .with_name("lossy_lb_failover")
            .with_faults(FaultPlan {
                loss: vec![LossSpec {
                    link: FaultLink::default(),
                    probability: 0.01,
                }],
                ..FaultPlan::default()
            })
    }

    /// Incast into one hot server: server 0 runs 4× slower than its peers
    /// and the load balancer's link to it is a shallow bounded queue, so
    /// synchronized arrivals tail-drop.  The client's retransmissions
    /// absorb the drops; what survives to the application is the queue's
    /// admission rate, not a hang.
    pub fn incast(dispatcher: DispatcherConfig, queries: usize) -> Self {
        Self::schedule_base("incast", dispatcher, queries).with_faults(FaultPlan {
            queues: vec![QueueSpec {
                from: FaultNode::Lb { index: 0 },
                to: FaultNode::Server { index: 0 },
                capacity: 4,
                drain_pps: 20.0,
            }],
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Server { index: 0 },
                multiplier: 4.0,
            }],
            ..FaultPlan::default()
        })
    }

    /// A saturated load-balancer uplink: the client → LB link is a bounded
    /// FIFO draining just below the offered SYN/request rate, so bursts
    /// overflow and tail-drop on ingress.  Every request must still
    /// complete through retransmission.
    pub fn saturated_uplink(dispatcher: DispatcherConfig, queries: usize) -> Self {
        Self::schedule_base("saturated_uplink", dispatcher, queries).with_faults(FaultPlan {
            queues: vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 8,
                drain_pps: 180.0,
            }],
            ..FaultPlan::default()
        })
    }
}
