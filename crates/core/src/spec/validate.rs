//! Consistency checks of an [`ExperimentSpec`] and its axes.

use srlb_server::PolicyConfig;

use crate::dispatch::{DispatcherConfig, MAX_BACKENDS, MAX_CANDIDATES};
use crate::lb_node::MAX_RECOVERY_CANDIDATES;
use crate::CoreError;

use super::{
    ClusterSpec, ExperimentSpec, FaultNode, FaultPlan, FlowTableSpec, PolicyKind, ScenarioEvent,
    WorkloadSpec,
};

impl DispatcherConfig {
    /// Checks the parameters against every backend set the dispatcher can
    /// be built over (up to `max_servers` backends), so no build during a
    /// run can panic.
    fn validate(&self, max_servers: usize) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        if max_servers > MAX_BACKENDS {
            return bad(format!(
                "max_servers {max_servers} exceeds the {MAX_BACKENDS} backends a dispatcher indexes"
            ));
        }
        let (vnodes, widths) = match *self {
            DispatcherConfig::Random { k } | DispatcherConfig::Maglev { k, .. } => (None, [k, k]),
            DispatcherConfig::ConsistentHash { vnodes, k } => (Some(vnodes), [k, k]),
            DispatcherConfig::LoadAware { vnodes, pool, k } => (Some(vnodes), [pool, k]),
        };
        if vnodes == Some(0) {
            return bad("a hash ring needs at least one virtual node per server".into());
        }
        if widths.contains(&0) {
            return bad("dispatcher fan-out and pool must be at least 1".into());
        }
        if let Some(width) = widths.into_iter().find(|&w| w > MAX_CANDIDATES) {
            return bad(format!(
                "{width} candidates exceed the {MAX_CANDIDATES}-candidate SRH budget"
            ));
        }
        if let DispatcherConfig::Maglev { table_size, .. } = *self {
            let min = max_servers.max(2);
            if table_size < min {
                return bad(format!(
                    "maglev table size {table_size} is below {min} (max_servers, and at least 2)"
                ));
            }
        }
        Ok(())
    }
}

impl FlowTableSpec {
    /// Checks the table parameters.
    fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        if !self.idle_timeout_s.is_finite() || self.idle_timeout_s <= 0.0 {
            return bad(format!(
                "flow-table idle timeout {} s must be positive",
                self.idle_timeout_s
            ));
        }
        if self.capacity == Some(0) {
            return bad("a bounded flow table needs capacity for at least one flow".into());
        }
        if let Some(sweep) = self.sweep_interval_s {
            if !sweep.is_finite() || sweep <= 0.0 {
                return bad(format!(
                    "flow-table sweep interval {sweep} s must be positive"
                ));
            }
        }
        Ok(())
    }
}

impl WorkloadSpec {
    /// Checks the workload's parameters.
    fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        match self {
            WorkloadSpec::Poisson {
                rho,
                lambda0,
                queries,
                mean_service_ms,
            } => {
                if !rho.is_finite() || *rho <= 0.0 {
                    return bad(format!("poisson rho {rho} must be positive"));
                }
                if let Some(l0) = lambda0 {
                    if !l0.is_finite() || *l0 <= 0.0 {
                        return bad(format!("poisson lambda0 {l0} must be positive"));
                    }
                }
                if *queries == 0 {
                    return bad("the workload needs at least one query".into());
                }
                if !mean_service_ms.is_finite() || *mean_service_ms <= 0.0 {
                    return bad("poisson mean service time must be positive".into());
                }
                Ok(())
            }
            WorkloadSpec::PoissonRate {
                rate_qps,
                queries,
                mean_service_ms,
            } => {
                if *queries == 0 || !rate_qps.is_finite() || *rate_qps <= 0.0 {
                    return bad("the workload needs at least one query at a positive rate".into());
                }
                if !mean_service_ms.is_finite() || *mean_service_ms <= 0.0 {
                    return bad("poisson mean service time must be positive".into());
                }
                Ok(())
            }
            WorkloadSpec::Wikipedia {
                hours,
                load_fraction,
            } => {
                if !hours.is_finite() || *hours <= 0.0 {
                    return bad("wikipedia trace duration must be positive".into());
                }
                if !load_fraction.is_finite() || *load_fraction <= 0.0 {
                    return bad("wikipedia load fraction must be positive".into());
                }
                Ok(())
            }
            WorkloadSpec::Trace { requests } => {
                // The guard the eager client constructor used to enforce:
                // without it an unsorted or gap-id trace would run to
                // completion with silently dropped packets (ids map to
                // client addresses the directory never registered).
                if !srlb_workload::request::is_well_formed(requests) {
                    return bad(
                        "trace requests must be sorted by arrival time with increasing ids".into(),
                    );
                }
                if let Some(last) = requests.last() {
                    if last.id >= requests.len() as u64 {
                        return bad(format!(
                            "trace ids must be contiguous from 0 (last id {} for {} requests)",
                            last.id,
                            requests.len()
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

impl FaultNode {
    /// Validates the endpoint's index against the cluster shape.
    fn check(&self, cluster: &ClusterSpec) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        match *self {
            FaultNode::Client => Ok(()),
            FaultNode::Lb { index } if index >= cluster.lb_count => bad(format!(
                "fault endpoint names unknown load balancer {index}"
            )),
            FaultNode::Server { index } if index >= cluster.max_servers => {
                bad(format!("fault endpoint names unknown server {index}"))
            }
            _ => Ok(()),
        }
    }
}

impl FaultPlan {
    /// Checks the plan's parameters against the cluster shape.
    fn validate(&self, cluster: &ClusterSpec) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        for rule in &self.loss {
            if !rule.probability.is_finite() || !(0.0..=1.0).contains(&rule.probability) {
                return bad(format!(
                    "loss probability {} must be within [0, 1]",
                    rule.probability
                ));
            }
            for end in [rule.link.from, rule.link.to].into_iter().flatten() {
                end.check(cluster)?;
            }
        }
        for drop in &self.drops {
            if drop.packet == 0 {
                return bad("one-shot drop indices are 1-based; 0 names no packet".into());
            }
            drop.from.check(cluster)?;
            drop.to.check(cluster)?;
        }
        for window in &self.down {
            if !window.from_seconds.is_finite()
                || !window.until_seconds.is_finite()
                || window.from_seconds < 0.0
                || window.until_seconds <= window.from_seconds
            {
                return bad(format!(
                    "down window [{}, {}) s is empty or inverted",
                    window.from_seconds, window.until_seconds
                ));
            }
            for end in [window.link.from, window.link.to].into_iter().flatten() {
                end.check(cluster)?;
            }
        }
        for queue in &self.queues {
            if queue.capacity == 0 {
                return bad("a bounded queue needs capacity for at least one message".into());
            }
            if !queue.drain_pps.is_finite() || queue.drain_pps <= 0.0 {
                return bad(format!(
                    "queue drain rate {} pps must be positive",
                    queue.drain_pps
                ));
            }
            queue.from.check(cluster)?;
            queue.to.check(cluster)?;
        }
        for slow in &self.slow_nodes {
            if !slow.multiplier.is_finite() || slow.multiplier <= 0.0 {
                return bad(format!(
                    "slow-node multiplier {} must be positive",
                    slow.multiplier
                ));
            }
            slow.node.check(cluster)?;
        }
        if let Some(recovery) = &self.recovery {
            recovery.validate().map_err(CoreError::InvalidConfig)?;
        }
        Ok(())
    }
}

impl ExperimentSpec {
    /// Checks the spec for consistency: cluster and workload parameters,
    /// topology model, dispatcher fan-out, and the scenario schedule
    /// (sorted events, only live servers removed/resized, only dead servers
    /// added, only advertised LBs withdrawn and vice versa, neither the
    /// cluster nor the LB tier ever left empty).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), CoreError> {
        let bad = |msg: String| Err(CoreError::InvalidConfig(msg));
        let c = &self.cluster;
        if c.initial_servers == 0 {
            return bad("at least one initial server is required".into());
        }
        if c.max_servers < c.initial_servers {
            return bad(format!(
                "max_servers {} is below initial_servers {}",
                c.max_servers, c.initial_servers
            ));
        }
        if c.workers == 0 || c.cores == 0 || c.backlog == 0 {
            return bad("workers, cores and backlog must all be at least 1".into());
        }
        if c.vips == 0 {
            return bad("at least one VIP is required".into());
        }
        if c.lb_count == 0 {
            return bad("at least one load balancer is required".into());
        }
        for o in &c.capacity_overrides {
            if o.server as usize >= c.max_servers {
                return bad(format!("capacity override for unknown server {}", o.server));
            }
            if o.workers == 0 || o.cores == 0 {
                return bad("capacity overrides must keep at least 1 worker / 1 core".into());
            }
        }
        c.flow_table.validate()?;
        self.topology.validate().map_err(CoreError::InvalidConfig)?;
        if let PolicyKind::LoadAware { threshold: 0, .. } = self.policy {
            return bad("load-aware threshold must be at least 1".into());
        }
        if let PolicyConfig::Dynamic {
            window_size,
            low_ratio,
            high_ratio,
            ..
        } = self.policy.acceptance_policy()
        {
            if window_size == 0 {
                return bad("SRdyn window size must be at least 1".into());
            }
            let unit = 0.0..=1.0;
            if !(unit.contains(&low_ratio) && unit.contains(&high_ratio) && low_ratio <= high_ratio)
            {
                return bad(format!(
                    "SRdyn ratios {low_ratio} and {high_ratio} must satisfy 0 <= low <= high <= 1"
                ));
            }
        }
        let dispatcher = self.policy.dispatcher();
        dispatcher.validate(c.max_servers)?;
        if dispatcher.fanout() > c.initial_servers {
            return bad(format!(
                "dispatcher fan-out {} exceeds the initial server count {}",
                dispatcher.fanout(),
                c.initial_servers
            ));
        }
        if c.recover_flows && dispatcher.fanout() > MAX_RECOVERY_CANDIDATES {
            return bad(format!(
                "flow recovery supports at most {MAX_RECOVERY_CANDIDATES} candidates per flow \
                 (re-hunt routes also carry the load-balancer marker and the VIP)"
            ));
        }
        self.workload.validate()?;
        if !self.request_delay_ms.is_finite() || self.request_delay_ms < 0.0 {
            return bad("request delay must be finite and non-negative".into());
        }
        self.faults.validate(c)?;

        // The schedule: replay it against the alive server and LB sets.
        let mut alive: Vec<bool> = (0..c.max_servers).map(|i| i < c.initial_servers).collect();
        let mut lb_alive: Vec<bool> = vec![true; c.lb_count];
        let mut last_at = 0.0f64;
        for timed in &self.scenario {
            if !timed.at_seconds.is_finite() || timed.at_seconds < 0.0 {
                return bad(format!("event time {} is invalid", timed.at_seconds));
            }
            if timed.at_seconds < last_at {
                return bad("events must be sorted by time".into());
            }
            last_at = timed.at_seconds;
            match timed.event {
                ScenarioEvent::AddServer { server } => {
                    let i = server as usize;
                    if i >= c.max_servers {
                        return bad(format!("add-server index {server} is out of range"));
                    }
                    if alive[i] {
                        return bad(format!("server {server} is already up"));
                    }
                    alive[i] = true;
                }
                ScenarioEvent::RemoveServer { server } => {
                    let i = server as usize;
                    if i >= c.max_servers || !alive[i] {
                        return bad(format!("server {server} is not up"));
                    }
                    alive[i] = false;
                    if !alive.iter().any(|&a| a) {
                        return bad("the schedule leaves the cluster empty".into());
                    }
                }
                ScenarioEvent::LbFailover => {}
                ScenarioEvent::AddLb { lb } => {
                    let j = lb as usize;
                    if j >= c.lb_count {
                        return bad(format!("add-lb index {lb} is out of range"));
                    }
                    if lb_alive[j] {
                        return bad(format!("load balancer {lb} is already advertised"));
                    }
                    lb_alive[j] = true;
                }
                ScenarioEvent::RemoveLb { lb } => {
                    let j = lb as usize;
                    if j >= c.lb_count || !lb_alive[j] {
                        return bad(format!("load balancer {lb} is not advertised"));
                    }
                    lb_alive[j] = false;
                    if !lb_alive.iter().any(|&a| a) {
                        return bad("the schedule leaves the LB tier empty".into());
                    }
                }
                ScenarioEvent::SetCapacity {
                    server,
                    workers,
                    cores,
                } => {
                    let i = server as usize;
                    if i >= c.max_servers || !alive[i] {
                        return bad(format!("server {server} is not up"));
                    }
                    if workers == 0 || cores == 0 {
                        return bad("capacity must stay at least 1 worker / 1 core".into());
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use srlb_server::PolicyConfig;

    use crate::CoreError;

    use crate::spec::*;

    #[test]
    fn validation_rejects_inconsistent_specs() {
        // Zero servers.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.initial_servers = 0;
        assert!(spec.validate().is_err());
        // max below initial.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.max_servers = 4;
        assert!(spec.validate().is_err());
        // Fan-out above server count.
        let spec = ExperimentSpec::poisson_paper(
            0.5,
            PolicyKind::Explicit {
                dispatcher: DispatcherConfig::Random { k: 50 },
                acceptance: PolicyConfig::Static { threshold: 2 },
            },
        );
        assert!(spec.validate().is_err());
        // Unsorted schedule.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(5.0, ScenarioEvent::LbFailover)
            .at(1.0, ScenarioEvent::LbFailover);
        assert!(spec.validate().is_err());
        // Removing a server that is not up.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(1.0, ScenarioEvent::RemoveServer { server: 99 });
        assert!(spec.validate().is_err());
        // Adding a server that is already up.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(1.0, ScenarioEvent::AddServer { server: 0 });
        assert!(spec.validate().is_err());
        // Emptying the cluster.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.initial_servers = 1;
        spec.cluster.max_servers = 1;
        let spec = spec.at(1.0, ScenarioEvent::RemoveServer { server: 0 });
        assert!(spec.validate().is_err());
        // Simultaneous removals of *different* live servers are fine
        // (correlated failures).
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(1.0, ScenarioEvent::RemoveServer { server: 2 })
            .at(1.0, ScenarioEvent::RemoveServer { server: 5 });
        spec.validate().unwrap();
        // Invalid workload.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.workload = WorkloadSpec::Wikipedia {
            hours: 0.0,
            load_fraction: 0.5,
        };
        assert!(spec.validate().is_err());
        // Invalid capacity override.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.capacity_overrides.push(CapacityOverride {
            server: 99,
            workers: 1,
            cores: 1,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn dispatcher_validation_rejects_parameters_a_run_would_panic_on() {
        use crate::dispatch::{MAX_BACKENDS, MAX_CANDIDATES};
        // 12 servers (initial and max) unless a case says otherwise.
        let with = |dispatcher| {
            ExperimentSpec::poisson_paper(
                0.5,
                PolicyKind::Explicit {
                    dispatcher,
                    acceptance: PolicyConfig::Static { threshold: 2 },
                },
            )
        };
        // vnodes below 1, on either ring.
        assert!(with(DispatcherConfig::ConsistentHash { vnodes: 0, k: 2 })
            .validate()
            .is_err());
        assert!(with(DispatcherConfig::LoadAware {
            vnodes: 0,
            pool: 3,
            k: 2
        })
        .validate()
        .is_err());
        // k (or the load-aware pool) above MAX_CANDIDATES, though not above
        // the server count; a zero pool.
        assert!(with(DispatcherConfig::Random {
            k: MAX_CANDIDATES + 1
        })
        .validate()
        .is_err());
        for pool in [0, MAX_CANDIDATES + 1] {
            assert!(with(DispatcherConfig::LoadAware {
                vnodes: 16,
                pool,
                k: 2
            })
            .validate()
            .is_err());
        }
        // A Maglev table below max(2, max_servers): one slot (the skip
        // draw divides by table_size - 1), or too small for a later
        // AddServer to fit.
        let mut one_slot = with(DispatcherConfig::Maglev {
            table_size: 1,
            k: 1,
        });
        one_slot.cluster.initial_servers = 1;
        one_slot.cluster.max_servers = 1;
        assert!(one_slot.validate().is_err());
        let maglev = |table_size| {
            let mut spec = with(DispatcherConfig::Maglev { table_size, k: 2 });
            spec.cluster.max_servers = 24;
            spec
        };
        assert!(maglev(13).validate().is_err());
        maglev(29).validate().unwrap();
        // More backends than the u16 table indices address.
        let mut huge = with(DispatcherConfig::Random { k: 2 });
        huge.cluster.max_servers = MAX_BACKENDS + 1;
        assert!(huge.validate().is_err());
        huge.cluster.max_servers = MAX_BACKENDS;
        huge.validate().unwrap();
    }

    #[test]
    fn dynamic_policy_validation_rejects_bad_windows_and_ratios() {
        let with = |window_size, low_ratio, high_ratio| {
            ExperimentSpec::poisson_paper(
                0.5,
                PolicyKind::Explicit {
                    dispatcher: DispatcherConfig::Random { k: 2 },
                    acceptance: PolicyConfig::Dynamic {
                        initial_threshold: 1,
                        window_size,
                        low_ratio,
                        high_ratio,
                    },
                },
            )
            .validate()
        };
        with(50, 0.4, 0.6).unwrap();
        with(1, 0.0, 1.0).unwrap();
        with(50, 0.5, 0.5).unwrap();
        // An empty window.
        assert!(matches!(
            with(0, 0.4, 0.6),
            Err(CoreError::InvalidConfig(_))
        ));
        // A ratio that is not a number.
        assert!(matches!(
            with(50, f64::NAN, 0.6),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            with(50, 0.4, f64::NAN),
            Err(CoreError::InvalidConfig(_))
        ));
        // Ratios outside [0, 1].
        assert!(matches!(
            with(50, -0.1, 0.6),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            with(50, 0.4, 1.5),
            Err(CoreError::InvalidConfig(_))
        ));
        // An inverted band.
        assert!(matches!(
            with(50, 0.7, 0.3),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn flow_table_validation_rejects_bad_parameters() {
        let with_table = |flow_table| {
            ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic).with_flow_table(flow_table)
        };
        // Non-positive idle timeout.
        assert!(with_table(FlowTableSpec {
            idle_timeout_s: 0.0,
            ..FlowTableSpec::default()
        })
        .validate()
        .is_err());
        // Zero capacity.
        assert!(with_table(FlowTableSpec {
            capacity: Some(0),
            ..FlowTableSpec::default()
        })
        .validate()
        .is_err());
        // Non-positive sweep interval.
        assert!(with_table(FlowTableSpec {
            sweep_interval_s: Some(0.0),
            ..FlowTableSpec::default()
        })
        .validate()
        .is_err());
    }

    #[test]
    fn fault_plan_validation_rejects_bad_rules() {
        let base = || ExperimentSpec::poisson_paper(0.5, PolicyKind::Dynamic).with_lb_count(2);
        let with_plan = |faults| base().with_faults(faults);
        // Probability out of range.
        assert!(with_plan(FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink::default(),
                probability: 1.5,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // One-shot drop with a zero (0-based) packet index.
        assert!(with_plan(FaultPlan {
            drops: vec![OneShotDropSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                packet: 0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Inverted down window.
        assert!(with_plan(FaultPlan {
            down: vec![DownWindowSpec {
                link: FaultLink::default(),
                from_seconds: 5.0,
                until_seconds: 1.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Zero-capacity queue and non-positive drain rate.
        assert!(with_plan(FaultPlan {
            queues: vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 0,
                drain_pps: 100.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        assert!(with_plan(FaultPlan {
            queues: vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 8,
                drain_pps: 0.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Non-positive slow-node multiplier.
        assert!(with_plan(FaultPlan {
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Server { index: 0 },
                multiplier: 0.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Endpoint indices out of range for the cluster shape.
        assert!(with_plan(FaultPlan {
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Lb { index: 7 },
                multiplier: 2.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        assert!(with_plan(FaultPlan {
            drops: vec![OneShotDropSpec {
                from: FaultNode::Server { index: 99 },
                to: FaultNode::Client,
                packet: 1,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // Broken recovery policy.
        assert!(with_plan(FaultPlan {
            recovery: Some(srlb_net::RetransmitPolicy {
                timeout_ms: -1.0,
                ..srlb_net::RetransmitPolicy::default()
            }),
            ..FaultPlan::default()
        })
        .validate()
        .is_err());
        // A well-formed plan over the same shape passes.
        with_plan(FaultPlan {
            loss: vec![LossSpec {
                link: FaultLink {
                    from: Some(FaultNode::Lb { index: 1 }),
                    to: None,
                },
                probability: 0.02,
            }],
            queues: vec![QueueSpec {
                from: FaultNode::Client,
                to: FaultNode::Lb { index: 0 },
                capacity: 64,
                drain_pps: 10_000.0,
            }],
            slow_nodes: vec![SlowNodeSpec {
                node: FaultNode::Server { index: 0 },
                multiplier: 4.0,
            }],
            ..FaultPlan::default()
        })
        .validate()
        .unwrap();
    }

    #[test]
    fn validation_checks_the_lb_tier_schedule() {
        // Zero LBs.
        let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
        spec.cluster.lb_count = 0;
        assert!(spec.validate().is_err());
        // Withdraw + re-advertise round trip is valid.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .with_lb_count(3)
            .at(1.0, ScenarioEvent::RemoveLb { lb: 2 })
            .at(2.0, ScenarioEvent::AddLb { lb: 2 });
        spec.validate().unwrap();
        // Withdrawing an instance that is not advertised.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .with_lb_count(2)
            .at(1.0, ScenarioEvent::RemoveLb { lb: 1 })
            .at(2.0, ScenarioEvent::RemoveLb { lb: 1 });
        assert!(spec.validate().is_err());
        // Advertising an instance that is already advertised.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .with_lb_count(2)
            .at(1.0, ScenarioEvent::AddLb { lb: 0 });
        assert!(spec.validate().is_err());
        // Out-of-range index.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .with_lb_count(2)
            .at(1.0, ScenarioEvent::RemoveLb { lb: 7 });
        assert!(spec.validate().is_err());
        // Emptying the tier.
        let spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin)
            .at(1.0, ScenarioEvent::RemoveLb { lb: 0 });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        use srlb_sim::{SimDuration, SimTime};
        let req = |id: u64, at: f64| {
            srlb_workload::Request::new(
                id,
                SimTime::from_secs_f64(at),
                srlb_metrics::RequestClass::Synthetic,
                SimDuration::from_millis(1),
            )
        };
        let with_trace = |requests| {
            let mut spec = ExperimentSpec::poisson_paper(0.5, PolicyKind::RoundRobin);
            spec.workload = WorkloadSpec::Trace { requests };
            spec
        };
        // Unsorted arrivals.
        assert!(with_trace(vec![req(0, 2.0), req(1, 1.0)])
            .validate()
            .is_err());
        // Gap in the id space (ids map to unregistered client endpoints).
        assert!(with_trace(vec![req(0, 1.0), req(5, 2.0)])
            .validate()
            .is_err());
        // A well-formed, zero-based trace passes (empty traces too).
        with_trace(vec![req(0, 1.0), req(1, 2.0)])
            .validate()
            .unwrap();
        with_trace(Vec::new()).validate().unwrap();
    }
}
