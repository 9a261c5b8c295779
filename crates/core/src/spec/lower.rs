//! Lowering of the declarative schema to the runtime objects the
//! [`Runner`](crate::runner::Runner) drives: request streams, flow tables,
//! simulator node ids and fault configuration.

use srlb_workload::{
    requests_into_stream, BoxedWorkload, PoissonWorkload, ServiceTime, WikipediaWorkload,
};

use crate::calibration::analytic_lambda0;
use crate::flow_state::{FlowState, FlowStateConfig};

use super::{ClusterSpec, FaultLink, FaultNode, FaultPlan, FlowTableSpec, WorkloadSpec};

impl FlowTableSpec {
    /// Builds the configured [`FlowState`] table.
    pub fn build(&self) -> FlowState {
        let mut config = FlowStateConfig::new()
            .with_idle_timeout(srlb_sim::SimDuration::from_secs_f64(self.idle_timeout_s));
        if let Some(capacity) = self.capacity {
            config = config.with_capacity(capacity);
        }
        FlowState::with_config(config)
    }

    /// The periodic sweep interval, if configured.
    pub fn sweep_interval(&self) -> Option<srlb_sim::SimDuration> {
        self.sweep_interval_s
            .map(srlb_sim::SimDuration::from_secs_f64)
    }
}

impl WorkloadSpec {
    /// The λ₀ a `Poisson` workload resolves against `cluster` (explicit
    /// value or the analytic cluster capacity); `None` for other variants.
    pub(crate) fn effective_lambda0(&self, cluster: &ClusterSpec) -> Option<f64> {
        match self {
            WorkloadSpec::Poisson {
                lambda0,
                mean_service_ms,
                ..
            } => Some(lambda0.unwrap_or_else(|| {
                analytic_lambda0(cluster.initial_servers, cluster.cores, *mean_service_ms)
            })),
            _ => None,
        }
    }

    /// Opens the workload as a request stream seeded with `seed`.
    /// `cluster` resolves the analytic λ₀ of normalised-rate Poisson
    /// workloads.
    ///
    /// The generator variants hold O(1) state; the `Trace` variant clones
    /// its materialised request list so the spec stays reusable — prefer a
    /// generator variant for very long traces.
    pub fn stream(&self, seed: u64, cluster: &ClusterSpec) -> BoxedWorkload {
        match self {
            WorkloadSpec::Poisson {
                rho,
                queries,
                mean_service_ms,
                ..
            } => {
                let lambda0 = self
                    .effective_lambda0(cluster)
                    // srlb-lint: allow(panic-hygiene) -- effective_lambda0 returns Some for every Poisson variant, and this arm only matches Poisson
                    .expect("poisson workload has a lambda0");
                Box::new(
                    PoissonWorkload::paper(*rho, lambda0)
                        .with_queries(*queries)
                        .with_service(ServiceTime::Exponential {
                            mean_ms: *mean_service_ms,
                        })
                        .stream(seed),
                )
            }
            WorkloadSpec::PoissonRate {
                rate_qps,
                queries,
                mean_service_ms,
            } => Box::new(
                PoissonWorkload::new(
                    *rate_qps,
                    *queries,
                    ServiceTime::Exponential {
                        mean_ms: *mean_service_ms,
                    },
                )
                .stream(seed),
            ),
            WorkloadSpec::Wikipedia {
                hours,
                load_fraction,
            } => Box::new(
                WikipediaWorkload::paper()
                    .with_duration_hours(*hours)
                    .with_load_fraction(*load_fraction)
                    .stream(seed),
            ),
            WorkloadSpec::Trace { requests } => Box::new(requests_into_stream(requests.clone())),
        }
    }
}

impl FaultNode {
    /// The simulator node id of this endpoint under the runner's layout.
    pub(crate) fn resolve(
        &self,
        client: srlb_sim::NodeId,
        lbs: &[srlb_sim::NodeId],
        servers: &[srlb_sim::NodeId],
    ) -> srlb_sim::NodeId {
        match *self {
            FaultNode::Client => client,
            FaultNode::Lb { index } => lbs[index],
            FaultNode::Server { index } => servers[index],
        }
    }
}

impl FaultPlan {
    /// Lowers the role-based plan to the simulator's
    /// [`FaultConfig`](srlb_sim::FaultConfig) under the runner's node
    /// layout.  Slow nodes are not part of the delivery-path config — the
    /// runner folds them into the topology before the network is built —
    /// and `recovery` configures the client, not the network.
    pub fn to_fault_config(
        &self,
        client: srlb_sim::NodeId,
        lbs: &[srlb_sim::NodeId],
        servers: &[srlb_sim::NodeId],
    ) -> srlb_sim::FaultConfig {
        let link = |l: &FaultLink| srlb_sim::LinkMatch {
            from: l.from.map(|n| n.resolve(client, lbs, servers)),
            to: l.to.map(|n| n.resolve(client, lbs, servers)),
        };
        srlb_sim::FaultConfig {
            loss: self
                .loss
                .iter()
                .map(|r| srlb_sim::LossRule {
                    link: link(&r.link),
                    probability: r.probability,
                })
                .collect(),
            drops: self
                .drops
                .iter()
                .map(|d| srlb_sim::OneShotDrop {
                    from: d.from.resolve(client, lbs, servers),
                    to: d.to.resolve(client, lbs, servers),
                    packet: d.packet,
                })
                .collect(),
            down: self
                .down
                .iter()
                .map(|w| srlb_sim::DownWindow {
                    link: link(&w.link),
                    down_from: srlb_sim::SimTime::from_secs_f64(w.from_seconds),
                    down_until: srlb_sim::SimTime::from_secs_f64(w.until_seconds),
                })
                .collect(),
            queues:
                self.queues
                    .iter()
                    .map(|q| srlb_sim::QueueRule {
                        from: q.from.resolve(client, lbs, servers),
                        to: q.to.resolve(client, lbs, servers),
                        capacity: q.capacity,
                        service: srlb_sim::SimDuration::from_nanos(
                            (1.0e9 / q.drain_pps).round() as u64
                        ),
                    })
                    .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::*;

    #[test]
    fn paper_specs_validate_and_resolve_lambda0() {
        let spec = ExperimentSpec::poisson_paper(0.89, PolicyKind::Dynamic);
        spec.validate().unwrap();
        // 12 servers × 2 cores / 0.1 s = 240 queries/s.
        let lambda0 = spec.workload.effective_lambda0(&spec.cluster).unwrap();
        assert!((lambda0 - 240.0).abs() < 1e-9);
        let wiki = ExperimentSpec::wikipedia_paper(PolicyKind::Static { threshold: 4 });
        wiki.validate().unwrap();
        assert_eq!(wiki.workload.effective_lambda0(&wiki.cluster), None);
    }

    #[test]
    fn flow_table_spec_builds_the_configured_table() {
        let table = FlowTableSpec {
            idle_timeout_s: 30.0,
            capacity: Some(256),
            sweep_interval_s: Some(5.0),
        };
        let state = table.build();
        assert_eq!(
            state.config().idle_timeout,
            srlb_sim::SimDuration::from_secs_f64(30.0)
        );
        assert_eq!(state.capacity(), Some(256));
        assert_eq!(
            table.sweep_interval(),
            Some(srlb_sim::SimDuration::from_secs_f64(5.0))
        );
        let default = FlowTableSpec::default();
        assert_eq!(default.build().capacity(), None);
        assert_eq!(default.sweep_interval(), None);
    }

    #[test]
    fn fault_plan_lowers_roles_to_node_ids() {
        use srlb_sim::NodeId;
        let plan = FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink {
                    from: Some(FaultNode::Client),
                    to: Some(FaultNode::Lb { index: 1 }),
                },
                probability: 0.5,
            }],
            drops: vec![OneShotDropSpec {
                from: FaultNode::Lb { index: 0 },
                to: FaultNode::Server { index: 2 },
                packet: 7,
            }],
            queues: vec![QueueSpec {
                from: FaultNode::Server { index: 0 },
                to: FaultNode::Client,
                capacity: 16,
                drain_pps: 1.0e9, // 1 ns service time
            }],
            ..FaultPlan::default()
        };
        let client = NodeId(0);
        let lbs = [NodeId(1), NodeId(2)];
        let servers = [NodeId(3), NodeId(4), NodeId(5)];
        let config = plan.to_fault_config(client, &lbs, &servers);
        assert_eq!(config.loss[0].link.from, Some(NodeId(0)));
        assert_eq!(config.loss[0].link.to, Some(NodeId(2)));
        assert_eq!(config.drops[0].from, NodeId(1));
        assert_eq!(config.drops[0].to, NodeId(5));
        assert_eq!(config.drops[0].packet, 7);
        assert_eq!(config.queues[0].from, NodeId(3));
        assert_eq!(config.queues[0].to, NodeId(0));
        assert_eq!(config.queues[0].service.as_nanos(), 1);
        assert!(config.down.is_empty());
        config.validate().unwrap();
    }
}
