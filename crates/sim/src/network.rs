//! The single-threaded simulation engine frontend.
//!
//! [`Network`] is now a thin driver over [`SimCore`]: the node registry,
//! clock, event queue and dispatch logic live in the core, and this type
//! only decides *how far* to run it (the [`RunUntil`] policy) and *how* to
//! step it (batched by default, per-event via
//! [`Network::run_until_stepwise`]).  The multi-threaded frontend over the
//! same core is [`crate::ShardedNetwork`].

use std::fmt;

use crate::core::{SimCore, SimStats, StepOutcome};
use crate::link::Topology;
use crate::node::{Context, Node, NodeId};
use crate::time::SimTime;
use crate::trace::TraceLog;

/// How far a run segment should advance the simulation.
///
/// This collapses the historical unbounded-run / limit-struct / stop flag
/// trio into one policy value.  All variants additionally end early if
/// the queue drains or a node calls [`Context::stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunUntil {
    /// Run until the event queue drains.
    Drained,
    /// Run until a node requests a stop (or the queue drains).  Semantically
    /// identical to [`RunUntil::Drained`] — every policy honours stop
    /// requests — but states the intent that a node is expected to end the
    /// run; combinators normalise it to `Drained`.
    Stopped,
    /// Run until simulated time would exceed this value.
    Time(SimTime),
    /// Run for at most this many events.
    Events(u64),
    /// Run until the time bound **or** the event budget is hit, whichever
    /// comes first.
    TimeOrEvents {
        /// Stop once simulated time would exceed this value.
        until: SimTime,
        /// Stop after processing this many events.
        max_events: u64,
    },
}

impl RunUntil {
    /// The `(time bound, event budget)` pair this policy imposes.
    pub fn bounds(self) -> (Option<SimTime>, Option<u64>) {
        match self {
            RunUntil::Drained | RunUntil::Stopped => (None, None),
            RunUntil::Time(t) => (Some(t), None),
            RunUntil::Events(n) => (None, Some(n)),
            RunUntil::TimeOrEvents { until, max_events } => (Some(until), Some(max_events)),
        }
    }

    fn from_bounds(until: Option<SimTime>, max_events: Option<u64>) -> Self {
        match (until, max_events) {
            (None, None) => RunUntil::Drained,
            (Some(t), None) => RunUntil::Time(t),
            (None, Some(n)) => RunUntil::Events(n),
            (Some(t), Some(n)) => RunUntil::TimeOrEvents {
                until: t,
                max_events: n,
            },
        }
    }

    /// Additionally bounds the policy by simulated time; the tighter of two
    /// time bounds wins.
    pub fn or_time(self, t: SimTime) -> Self {
        let (until, max_events) = self.bounds();
        Self::from_bounds(Some(until.map_or(t, |u| u.min(t))), max_events)
    }

    /// Additionally bounds the policy by an event budget; the tighter of two
    /// budgets wins.
    pub fn or_events(self, n: u64) -> Self {
        let (until, max_events) = self.bounds();
        Self::from_bounds(until, Some(max_events.map_or(n, |m| m.min(n))))
    }
}

/// Drives `core` under `policy`, either batched (same-timestamp bursts) or
/// one event at a time.  Returns the number of events processed by this
/// call.  Shared by [`Network`] and the single-shard fast path of
/// [`crate::ShardedNetwork`].
pub(crate) fn drive_core<M>(core: &mut SimCore<M>, policy: RunUntil, batched: bool) -> u64 {
    // Clear before start() so a stop issued from an on_start callback still
    // ends this segment before any event is processed.
    core.clear_stop_request();
    core.start();
    let (until, max_events) = policy.bounds();
    let mut processed = 0u64;
    if batched {
        loop {
            if core.stop_requested() {
                break;
            }
            let Some(next_time) = core.peek_time() else {
                break;
            };
            if until.is_some_and(|u| next_time > u) {
                break;
            }
            if max_events.is_some_and(|m| processed >= m) {
                break;
            }
            // One call runs whole same-timestamp groups with every policy
            // check hoisted to the group boundary; the outer loop re-checks
            // the exit conditions and terminates on the next pass.
            let budget = max_events.map_or(u64::MAX, |m| m - processed);
            processed += core.run_segment(until, budget);
        }
    } else {
        // The reference per-event loop, with the same fused peek/pop the
        // batched path enjoys: the time bound rides the pop, so each event
        // costs one queue operation plus the stop/budget re-checks.  The
        // remaining throughput delta vs batched is the held-node
        // amortisation and group-level policy hoisting `run_segment` adds.
        while !core.stop_requested() && max_events.is_none_or(|m| processed < m) {
            match core.step_within(until) {
                StepOutcome::Processed { .. } => processed += 1,
                StepOutcome::Idle => break,
            }
        }
    }
    processed
}

/// The single-threaded discrete-event simulation engine.
///
/// `M` is the message type exchanged by nodes (for SRLB experiments this is
/// the packet/message enum defined in `srlb-core`).
pub struct Network<M> {
    core: SimCore<M>,
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network").field("core", &self.core).finish()
    }
}

impl<M> Network<M> {
    /// Creates an empty network with the given seed and topology.
    pub fn new(seed: u64, topology: Topology) -> Self {
        Network {
            core: SimCore::new(seed, topology),
        }
    }

    /// The underlying [`SimCore`] (for drivers that want to step manually).
    pub fn core(&self) -> &SimCore<M> {
        &self.core
    }

    /// Mutable access to the underlying [`SimCore`].
    pub fn core_mut(&mut self) -> &mut SimCore<M> {
        &mut self.core
    }

    /// Adds a node and returns its id.
    ///
    /// Nodes added before the first run segment receive their `on_start`
    /// callback when the run begins; a node added to an already-started
    /// network (e.g. a backend brought up mid-experiment by a scenario
    /// schedule) is started immediately at the current simulated time.
    pub fn add_node(&mut self, node: impl Node<M> + Send + 'static) -> NodeId {
        self.core.add_node(node)
    }

    /// Reserves an empty node slot and returns its id; see
    /// [`SimCore::reserve_node`].
    pub fn reserve_node(&mut self) -> NodeId {
        self.core.reserve_node()
    }

    /// Fills an empty node slot with `node`; see [`SimCore::insert_node`].
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the slot is occupied.
    pub fn insert_node(&mut self, id: NodeId, node: impl Node<M> + Send + 'static) {
        self.core.insert_node(id, node)
    }

    /// Enables tracing of message deliveries, using `describe` to render each
    /// message for the trace log.
    pub fn enable_trace(&mut self, describe: impl Fn(&M) -> String + Send + 'static) {
        self.core.enable_trace(describe)
    }

    /// The trace log (empty unless [`Network::enable_trace`] was called).
    pub fn trace(&self) -> &TraceLog {
        self.core.trace()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.core.stats()
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.core.node_count()
    }

    /// The topology used for link latencies.
    pub fn topology(&self) -> &Topology {
        self.core.topology()
    }

    /// Delivery time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.core.peek_time()
    }

    /// Pops and dispatches the single next event; see [`SimCore::step`].
    pub fn step(&mut self) -> StepOutcome {
        self.core.step()
    }

    /// Immutable access to a node as a `dyn Node<M>`; see
    /// [`SimCore::with_node`].
    pub fn with_node<R>(&self, id: NodeId, f: impl FnOnce(&dyn Node<M>) -> R) -> Option<R> {
        self.core.with_node(id, f)
    }

    /// Immutable, downcast access to a node of concrete type `T`; see
    /// [`SimCore::node_as`].
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.core.node_as(id)
    }

    /// Mutable, downcast access to a node of concrete type `T`; see
    /// [`SimCore::node_as_mut`].
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.core.node_as_mut(id)
    }

    /// Delivers a **control event** to the node in slot `id`; see
    /// [`SimCore::control`].
    pub fn control<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_, M>) -> R,
    ) -> Option<R> {
        self.core.control(id, f)
    }

    /// Runs under the given policy using the **batched** stepper (all events
    /// sharing a timestamp dispatch in one pass).  Returns the statistics of
    /// the whole run so far.
    ///
    /// A [`Context::stop`] request only ends the run segment it was issued
    /// in (including one issued from an `on_start` of this call); a
    /// subsequent run call resumes processing (scenario drivers alternate
    /// run segments with control events).
    pub fn run_until(&mut self, policy: RunUntil) -> SimStats {
        drive_core(&mut self.core, policy, true);
        self.core.stats()
    }

    /// Runs under the given policy one event at a time — the reference
    /// execution the batched and sharded modes are checked against.
    pub fn run_until_stepwise(&mut self, policy: RunUntil) -> SimStats {
        drive_core(&mut self.core, policy, false);
        self.core.stats()
    }

    /// Consumes the network and returns the node with id `id`, downcast to
    /// `T`, so results accumulated inside nodes can be extracted after a run.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the node is not of type `T`.
    pub fn into_node<T: 'static>(mut self, id: NodeId) -> T
    where
        M: 'static,
    {
        self.take_node(id)
            // srlb-lint: allow(panic-hygiene) -- documented panic contract of into_node; take_node is the fallible alternative
            .unwrap_or_else(|| panic!("node {id} is missing or not of the requested type"))
    }

    /// Removes the node with id `id` from the network and returns it,
    /// downcast to `T`; see [`SimCore::take_node`].
    pub fn take_node<T: 'static>(&mut self, id: NodeId) -> Option<T>
    where
        M: 'static,
    {
        self.core.take_node(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TimerToken;
    use crate::time::SimDuration;

    /// A node that echoes numbers back until a cap, counting what it saw.
    struct Echo {
        peer: Option<NodeId>,
        cap: u32,
        seen: Vec<u32>,
    }

    impl Node<u32> for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, 0);
            }
        }
        fn on_message(&mut self, msg: u32, from: NodeId, ctx: &mut Context<'_, u32>) {
            self.seen.push(msg);
            if msg < self.cap {
                ctx.send(from, msg + 1);
            }
        }
    }

    #[test]
    fn ping_pong_terminates_and_counts() {
        let mut net = Network::new(1, Topology::uniform(SimDuration::from_micros(100)));
        let a = net.add_node(Echo {
            peer: None,
            cap: 10,
            seen: vec![],
        });
        let b = net.add_node(Echo {
            peer: Some(a),
            cap: 10,
            seen: vec![],
        });
        let stats = net.run_until(RunUntil::Drained);
        assert_eq!(stats.messages_delivered, 11); // msgs 0..=10
        assert_eq!(stats.timers_fired, 0);
        assert_eq!(stats.messages_dropped, 0);
        // one-way latency 100us, 11 hops
        assert_eq!(
            stats.last_event_time,
            SimTime::ZERO + SimDuration::from_micros(1100)
        );
        let a_node: Echo = {
            let _ = b;
            net.into_node(a)
        };
        assert_eq!(a_node.seen, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn run_until_respects_time_limit() {
        let mut net = Network::new(1, Topology::uniform(SimDuration::from_millis(1)));
        let a = net.add_node(Echo {
            peer: None,
            cap: 1_000,
            seen: vec![],
        });
        let _b = net.add_node(Echo {
            peer: Some(a),
            cap: 1_000,
            seen: vec![],
        });
        let stats = net.run_until(RunUntil::Time(SimTime::from_secs_f64(0.0105)));
        assert!(stats.messages_delivered <= 11);
        assert!(net.now() <= SimTime::from_secs_f64(0.0105));
    }

    #[test]
    fn run_respects_event_limit() {
        let mut net = Network::new(1, Topology::uniform(SimDuration::from_micros(1)));
        let a = net.add_node(Echo {
            peer: None,
            cap: u32::MAX,
            seen: vec![],
        });
        let _b = net.add_node(Echo {
            peer: Some(a),
            cap: u32::MAX,
            seen: vec![],
        });
        let stats = net.run_until(RunUntil::Events(50));
        assert_eq!(stats.events_processed, 50);
    }

    #[test]
    fn run_until_combinators_normalise_and_tighten() {
        let t5 = SimTime::from_nanos(5);
        let t9 = SimTime::from_nanos(9);
        assert_eq!(RunUntil::Drained.or_time(t5), RunUntil::Time(t5));
        assert_eq!(RunUntil::Stopped.or_events(3), RunUntil::Events(3));
        assert_eq!(RunUntil::Time(t9).or_time(t5), RunUntil::Time(t5));
        assert_eq!(RunUntil::Time(t5).or_time(t9), RunUntil::Time(t5));
        assert_eq!(RunUntil::Events(7).or_events(9), RunUntil::Events(7));
        assert_eq!(
            RunUntil::Time(t5).or_events(7),
            RunUntil::TimeOrEvents {
                until: t5,
                max_events: 7
            }
        );
        assert_eq!(
            RunUntil::TimeOrEvents {
                until: t9,
                max_events: 9
            }
            .or_time(t5)
            .or_events(7),
            RunUntil::TimeOrEvents {
                until: t5,
                max_events: 7
            }
        );
        assert_eq!(RunUntil::Stopped.bounds(), (None, None));
    }

    #[test]
    fn stepwise_and_batched_runs_agree() {
        fn outcome(batched: bool) -> (SimStats, Vec<u32>) {
            let mut net = Network::new(1, Topology::uniform(SimDuration::from_micros(100)));
            let a = net.add_node(Echo {
                peer: None,
                cap: 20,
                seen: vec![],
            });
            let _b = net.add_node(Echo {
                peer: Some(a),
                cap: 20,
                seen: vec![],
            });
            if batched {
                net.run_until(RunUntil::Drained);
            } else {
                net.run_until_stepwise(RunUntil::Drained);
            }
            let stats = net.stats();
            (stats, net.into_node::<Echo>(a).seen)
        }
        assert_eq!(outcome(true), outcome(false));
    }

    /// A node that schedules a periodic timer and stops the run after 5 fires.
    struct Ticker {
        fired: u32,
    }

    impl Node<u32> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.schedule_timer(SimDuration::from_millis(10), TimerToken(1));
        }
        fn on_message(&mut self, _msg: u32, _from: NodeId, _ctx: &mut Context<'_, u32>) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, u32>) {
            assert_eq!(token, TimerToken(1));
            self.fired += 1;
            if self.fired >= 5 {
                ctx.stop();
            } else {
                ctx.schedule_timer(SimDuration::from_millis(10), TimerToken(1));
            }
        }
    }

    #[test]
    fn timers_fire_and_stop_works() {
        let mut net = Network::new(7, Topology::datacenter());
        let t = net.add_node(Ticker { fired: 0 });
        let stats = net.run_until(RunUntil::Drained);
        assert_eq!(stats.timers_fired, 5);
        assert_eq!(net.now(), SimTime::from_secs_f64(0.05));
        let ticker: Ticker = net.into_node(t);
        assert_eq!(ticker.fired, 5);
    }

    struct Lost;
    impl Node<u32> for Lost {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            // send to a node id that does not exist
            ctx.send(NodeId(99), 1);
        }
        fn on_message(&mut self, _msg: u32, _from: NodeId, _ctx: &mut Context<'_, u32>) {}
    }

    #[test]
    fn messages_to_unknown_nodes_are_dropped_and_counted() {
        let mut net = Network::new(7, Topology::datacenter());
        net.add_node(Lost);
        let stats = net.run_until(RunUntil::Drained);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.dropped_unroutable, 1);
        assert_eq!(stats.dropped_vacant, 0);
        assert_eq!(stats.messages_delivered, 0);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run_once(seed: u64) -> Vec<u32> {
            struct RandomSender {
                peer: Option<NodeId>,
                got: Vec<u32>,
            }
            impl Node<u32> for RandomSender {
                fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                    if let Some(peer) = self.peer {
                        for _ in 0..20 {
                            let v = ctx.random_index(1000) as u32;
                            ctx.send(peer, v);
                        }
                    }
                }
                fn on_message(&mut self, msg: u32, _from: NodeId, _ctx: &mut Context<'_, u32>) {
                    self.got.push(msg);
                }
            }
            let mut net = Network::new(seed, Topology::datacenter());
            let sink = net.add_node(RandomSender {
                peer: None,
                got: vec![],
            });
            let _src = net.add_node(RandomSender {
                peer: Some(sink),
                got: vec![],
            });
            net.run_until(RunUntil::Drained);
            let sink_node: RandomSender = net.into_node(sink);
            sink_node.got
        }
        assert_eq!(run_once(5), run_once(5));
        assert_ne!(run_once(5), run_once(6));
    }

    #[test]
    fn trace_records_deliveries_when_enabled() {
        let mut net = Network::new(1, Topology::datacenter());
        let a = net.add_node(Echo {
            peer: None,
            cap: 2,
            seen: vec![],
        });
        let _b = net.add_node(Echo {
            peer: Some(a),
            cap: 2,
            seen: vec![],
        });
        net.enable_trace(|m| format!("msg {m}"));
        net.run_until(RunUntil::Drained);
        assert_eq!(net.trace().len(), 3);
        assert!(net.trace().entries()[0].description.contains("msg 0"));
    }

    #[test]
    fn with_node_gives_read_access() {
        let mut net = Network::new(1, Topology::datacenter());
        let a = net.add_node(Echo {
            peer: None,
            cap: 0,
            seen: vec![],
        });
        let name = net.with_node(a, |n| n.name()).unwrap();
        assert_eq!(name, "");
        assert!(net.with_node(NodeId(42), |_| ()).is_none());
    }

    #[test]
    fn reserved_slots_drop_messages_until_filled() {
        let mut net = Network::new(1, Topology::datacenter());
        let reserved = net.reserve_node();

        #[derive(Debug)]
        struct To {
            target: NodeId,
        }
        impl Node<u32> for To {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(self.target, 5);
            }
            fn on_message(&mut self, _m: u32, _f: NodeId, _c: &mut Context<'_, u32>) {}
        }
        net.add_node(To { target: reserved });
        let stats = net.run_until(RunUntil::Drained);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.dropped_vacant, 1);
        assert_eq!(stats.dropped_unroutable, 0);
        assert_eq!(stats.messages_delivered, 0);

        // Filling the slot mid-run starts the node and delivers to it.
        net.insert_node(
            reserved,
            Echo {
                peer: None,
                cap: 0,
                seen: vec![],
            },
        );
        net.add_node(To { target: reserved });
        net.run_until(RunUntil::Drained);
        let echo: Echo = net.take_node(reserved).unwrap();
        assert_eq!(echo.seen, vec![5]);
    }

    #[test]
    fn late_added_nodes_are_started_immediately() {
        let mut net = Network::new(7, Topology::datacenter());
        net.add_node(Ticker { fired: 0 });
        net.run_until(RunUntil::Drained);
        // The network has already started and stopped once; a node added now
        // receives on_start right away and its timers are delivered by the
        // next run segment.
        let t2 = net.add_node(Ticker { fired: 0 });
        net.run_until(RunUntil::Drained);
        let ticker: Ticker = net.into_node(t2);
        assert_eq!(ticker.fired, 5);
    }

    #[test]
    fn control_runs_with_a_context_and_node_as_mut_mutates() {
        let mut net = Network::new(1, Topology::datacenter());
        let a = net.add_node(Echo {
            peer: None,
            cap: 0,
            seen: vec![],
        });
        net.run_until(RunUntil::Drained);
        // A control event can both mutate the node and send messages.
        let sent = net
            .control::<Echo, _>(a, |echo, ctx| {
                echo.seen.push(99);
                ctx.send(a, 1);
                echo.seen.len()
            })
            .unwrap();
        assert_eq!(sent, 1);
        net.run_until(RunUntil::Drained);
        net.node_as_mut::<Echo>(a).unwrap().cap = 7;
        let echo: Echo = net.into_node(a);
        assert_eq!(echo.seen, vec![99, 1]);
        assert_eq!(echo.cap, 7);
    }

    #[test]
    fn stop_from_on_start_ends_the_segment_before_any_event() {
        struct StopImmediately {
            got: u32,
        }
        impl Node<u32> for StopImmediately {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let me = ctx.self_id();
                ctx.send(me, 1);
                ctx.stop();
            }
            fn on_message(&mut self, msg: u32, _f: NodeId, _c: &mut Context<'_, u32>) {
                self.got += msg;
            }
        }
        let mut net = Network::new(1, Topology::datacenter());
        let a = net.add_node(StopImmediately { got: 0 });
        let stats = net.run_until(RunUntil::Drained);
        assert_eq!(stats.events_processed, 0, "stop from on_start is honoured");
        // The stop only ended that segment: a further run delivers normally.
        net.run_until(RunUntil::Drained);
        let node: StopImmediately = net.into_node(a);
        assert_eq!(node.got, 1);
    }

    #[test]
    fn control_on_wrong_type_or_empty_slot_is_none() {
        let mut net: Network<u32> = Network::new(1, Topology::datacenter());
        let a = net.add_node(Lost);
        let reserved = net.reserve_node();
        assert!(net.control::<Echo, _>(a, |_, _| ()).is_none());
        assert!(net.control::<Lost, _>(reserved, |_, _| ()).is_none());
        assert!(net.control::<Lost, _>(NodeId(99), |_, _| ()).is_none());
        assert!(net.node_as_mut::<Echo>(a).is_none());
    }
}
