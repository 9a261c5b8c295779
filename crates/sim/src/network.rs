//! The engine frontend: the one public way to build and drive a simulation.
//!
//! [`Network`] owns one engine core per shard of its [`ShardPlan`], and
//! decides *how far* to run them (the [`RunUntil`] policy) and *how*: a
//! single shard — what [`Network::new`] builds, and what every multi-shard
//! plan collapses to when windows cannot pay off — is driven on the calling
//! thread, batched by default and per-event via
//! [`Network::run_until_stepwise`]; several shards advance in conservative
//! time windows on a lazily spawned worker pool (see `crate::shard` for
//! the model and [`crate::pool`] for the protocol).  The core itself (clock,
//! event queue, node registry, dispatch) is private to the crate; a run is
//! watched through [`Network::set_observer`], which gives every shard its
//! own clone of an [`Observer`] and works the same in every mode.

use std::fmt;
use std::sync::Arc;

use crate::core::{SimCore, SimStats, StepOutcome};
use crate::event::Mail;
use crate::faults::FaultConfig;
use crate::link::Topology;
use crate::node::{Context, Node, NodeId};
use crate::observe::Observer;
use crate::pool::WorkerPool;
use crate::shard::{PoolPolicy, ShardPlan};
use crate::time::{SimDuration, SimTime};

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
    pub(crate) fn bounds(self) -> (Option<SimTime>, Option<u64>) {
        match self {
            RunUntil::Drained | RunUntil::Stopped => (None, None),
            RunUntil::Time(t) => (Some(t), None),
            RunUntil::Events(n) => (None, Some(n)),
            RunUntil::TimeOrEvents { until, max_events } => (Some(until), Some(max_events)),
        }
    }
}

/// Drives a started single `core` under `policy`, either batched
/// (same-timestamp bursts) or one event at a time.
fn drive_core<M>(core: &mut SimCore<M>, policy: RunUntil, batched: bool) {
    let (until, max_events) = policy.bounds();
    let budget = max_events.unwrap_or(u64::MAX);
    if batched {
        core.run_segment(until, budget);
    } else {
        // The reference per-event loop, with the same fused peek/pop the
        // batched path enjoys: the time bound rides the pop, so each event
        // costs one queue operation plus the stop/budget re-checks.  The
        // remaining throughput delta vs batched is the held-node
        // amortisation `run_segment` adds.
        let mut processed = 0u64;
        while !core.stop_requested() && processed < budget {
            match core.step_within(until) {
                StepOutcome::Processed { .. } => processed += 1,
                StepOutcome::Idle => break,
            }
        }
    }
}

/// The discrete-event simulation engine.
///
/// `M` is the message type exchanged by nodes (for SRLB experiments this is
/// the packet/message enum defined in `srlb-core`).
///
/// With a single shard this is the serial engine and no thread is ever
/// spawned; with `S > 1` shards, a persistent pool of `S - 1` worker threads
/// plus the calling thread each drive one core.  Either way the run output
/// is byte-identical on the same seed and node layout.
pub struct Network<M> {
    cores: Vec<SimCore<M>>,
    plan: ShardPlan,
    lookahead: SimDuration,
    /// Lazily spawned on the first multi-shard run segment; reused (workers
    /// parked, buffers warm) for every segment after.
    pool: Option<WorkerPool<M>>,
    /// Cross-shard events awaiting ingestion, per destination shard (from
    /// barrier-time `control` / `on_start` callbacks).
    pending: Vec<Mail<M>>,
    next_slot: usize,
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("shards", &self.cores.len())
            .field("lookahead", &self.lookahead)
            .field("nodes", &self.next_slot)
            .finish()
    }
}

impl<M> Network<M> {
    /// Creates an empty single-shard network with the given seed and
    /// topology: everything runs on the calling thread.
    pub fn new(seed: u64, topology: Topology) -> Self {
        Self::with_pool_policy(seed, topology, ShardPlan::single(0), PoolPolicy::Never)
    }

    /// Creates an empty network partitioned by `plan`.
    ///
    /// A multi-shard plan *collapses* to one shard (the batched single-core
    /// engine, byte-identical outputs) when the cross-shard lookahead is
    /// zero (some cross-shard link has no latency, so conservative windows
    /// would permit no parallelism), when the plan has one shard, or when
    /// `policy` resolves against worker threads (no second core available,
    /// or [`PoolPolicy::Never`]).
    pub fn with_pool_policy(
        seed: u64,
        topology: Topology,
        plan: ShardPlan,
        policy: PoolPolicy,
    ) -> Self {
        let lookahead = plan.lookahead(&topology);
        let (plan, lookahead) = match lookahead {
            Some(l) if l > SimDuration::ZERO && plan.shards() > 1 && policy.threaded() => (plan, l),
            _ => (ShardPlan::single(plan.slots()), SimDuration::ZERO),
        };
        let shards = plan.shards();
        let shard_of: Arc<[u32]> = Arc::from(plan.shard_of.clone().into_boxed_slice());
        let cores = (0..shards)
            .map(|s| {
                let mut core = SimCore::new(seed, topology.clone());
                if shards > 1 {
                    core.set_router(Arc::clone(&shard_of), s as u32, shards);
                }
                core
            })
            .collect();
        Network {
            cores,
            plan,
            lookahead,
            pool: None,
            pending: (0..shards).map(|_| Mail::default()).collect(),
            next_slot: 0,
        }
    }

    /// The shard plan in effect (after any collapse).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Installs a fault-injection layer on every core (see
    /// [`crate::faults`]); an empty config removes it.  Must be called
    /// before any node is started so all execution modes see the same fault
    /// state from the first delivery on.
    ///
    /// Each core compiles its own copy of the config; the stateless rules
    /// are pure functions of event keys and the stateful rules are per
    /// directed link, whose deliveries all land on the destination's owning
    /// core in global key order — so per-shard copies evolve exactly like
    /// the single serial copy would.
    pub fn set_faults(&mut self, config: &FaultConfig) {
        for core in &mut self.cores {
            core.set_faults(config);
        }
    }

    /// Number of shards actually in use (after any collapse).
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// The conservative lookahead window length (zero on a single shard).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    fn owner_of(&self, id: NodeId) -> usize {
        if self.cores.len() == 1 {
            0
        } else {
            self.plan.shard_of(id)
        }
    }

    /// Adds a node (owned by the shard its slot is planned onto) and returns
    /// its id.
    ///
    /// Nodes added before the first run segment receive their `on_start`
    /// callback when the run begins; a node added to an already-started
    /// network (e.g. a backend brought up mid-experiment by a scenario
    /// schedule) is started immediately at the current simulated time.
    pub fn add_node(&mut self, node: impl Node<M> + Send + 'static) -> NodeId {
        let id = self.reserve_node();
        self.insert_node(id, node);
        id
    }

    /// Reserves an empty node slot (on every shard, keeping the tables
    /// aligned) and returns its id, so a scenario can fix the id ↔ address
    /// layout of backends that only join the cluster later (via
    /// [`Network::insert_node`]).  Events addressed to a reserved but
    /// unfilled slot are dropped and counted in
    /// [`SimStats::dropped_vacant`].
    pub fn reserve_node(&mut self) -> NodeId {
        let expected = NodeId(self.next_slot);
        for core in &mut self.cores {
            let id = core.reserve_node();
            debug_assert_eq!(id, expected, "core node tables must stay aligned");
        }
        self.next_slot += 1;
        expected
    }

    /// Fills an empty node slot (from [`Network::reserve_node`] or a
    /// [`Network::take_node`] removal) on its owning shard.  On an
    /// already-started network the node's `on_start` runs immediately at
    /// the current simulated time.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the slot is occupied.
    pub fn insert_node(&mut self, id: NodeId, node: impl Node<M> + Send + 'static) {
        let owner = self.owner_of(id);
        self.cores[owner].insert_node(id, node);
    }

    /// Attaches a clone of `observer` to every shard (see
    /// [`crate::observe`]), replacing any observer attached before.  It is
    /// shown every event from the next dispatch on.
    pub fn set_observer<O: Observer<M> + Clone + 'static>(&mut self, observer: O) {
        for core in &mut self.cores {
            core.set_observer(Box::new(observer.clone()));
        }
    }

    /// Detaches the observers, one per shard in shard order.  Empty if no
    /// observer is attached or it is not an `O`.
    pub fn take_observers<O: Observer<M> + 'static>(&mut self) -> Vec<O> {
        self.cores
            .iter_mut()
            .filter_map(SimCore::take_observer)
            .filter_map(|observer| observer.into_any().downcast::<O>().ok())
            .map(|observer| *observer)
            .collect()
    }

    /// Current simulated time: the furthest any shard has processed.
    pub fn now(&self) -> SimTime {
        self.cores
            .iter()
            .map(SimCore::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Run statistics so far, merged across shards (counts add,
    /// `last_event_time` is the maximum).
    pub fn stats(&self) -> SimStats {
        let mut merged = SimStats::default();
        for core in &self.cores {
            merged.absorb(core.stats());
        }
        merged
    }

    /// Number of node slots (occupied or not).
    pub fn node_count(&self) -> usize {
        self.next_slot
    }

    /// The topology used for link latencies.
    pub fn topology(&self) -> &Topology {
        self.cores[0].topology()
    }

    /// Immutable, downcast access to a node of concrete type `T`.
    ///
    /// Returns `None` if the id is out of range or the node has a different
    /// type.  Useful for peeking at node state (e.g. a server's scoreboard)
    /// while the simulation is paused between run segments.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.cores[self.owner_of(id)].node_as(id)
    }

    /// Mutable, downcast access to a node of concrete type `T`.
    ///
    /// Returns `None` if the id is out of range or the node has a different
    /// type.  Intended for applying out-of-band state changes between run
    /// segments; prefer [`Network::control`] when the change needs to
    /// schedule timers or send messages.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let owner = self.owner_of(id);
        self.cores[owner].node_as_mut(id)
    }

    /// Delivers a **control event** to the node in slot `id`, on its owning
    /// shard: runs `f` with mutable access to the node (downcast to `T`) and
    /// a [`Context`] at the current simulated time, exactly as if the engine
    /// were delivering a callback.  This is how a scenario schedule applies
    /// out-of-band changes — failing a load balancer, resizing a server —
    /// that may need to reschedule timers or emit messages.  Cross-shard
    /// messages emitted by the callback are exchanged when the next run
    /// segment begins.
    ///
    /// Returns `None` (without running `f`) if the id is out of range, the
    /// slot is empty, or the node is not of type `T`.
    pub fn control<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_, M>) -> R,
    ) -> Option<R> {
        let owner = self.owner_of(id);
        self.cores[owner].control(id, f)
    }

    /// Removes the node with id `id` from the network and returns it,
    /// downcast to `T`, so results accumulated inside nodes can be
    /// extracted after a run.  Returns `None` if the id is out of range, the
    /// node was already taken, or it has a different concrete type.
    ///
    /// The engine simply drops any further events addressed to the removed
    /// node, counting them in [`SimStats::dropped_vacant`].
    pub fn take_node<T: 'static>(&mut self, id: NodeId) -> Option<T>
    where
        M: 'static,
    {
        let owner = self.owner_of(id);
        self.cores[owner].take_node(id)
    }

    /// Moves every event sitting in a core outbox (from `on_start` or
    /// barrier-time `control` callbacks) into its destination core's queue.
    fn collect_outboxes(&mut self) {
        let pending = &mut self.pending;
        for core in &mut self.cores {
            core.publish_outboxes(|dest, outbox| outbox.append_to(&mut pending[dest]));
        }
        for (core, mail) in self.cores.iter_mut().zip(&mut self.pending) {
            core.ingest(mail);
        }
    }

    /// Runs under the given policy using the **batched** stepper (all events
    /// sharing a timestamp dispatch in one pass; conservative windows when
    /// more than one shard is in use).  Returns the statistics of the whole
    /// run so far.
    ///
    /// A [`Context::stop`] request only ends the run segment it was issued
    /// in (one issued from an `on_start` of this call ends it before any
    /// event); a subsequent run call resumes processing (scenario drivers
    /// alternate run segments with control events).
    pub fn run_until(&mut self, policy: RunUntil) -> SimStats
    where
        M: Send + 'static,
    {
        self.run_internal(policy, true)
    }

    /// Runs under the given policy one event at a time — the reference
    /// execution the batched and sharded modes are checked against.  Only
    /// meaningful on a single shard; with multiple shards the workers still
    /// step batched (the result is identical either way).
    pub fn run_until_stepwise(&mut self, policy: RunUntil) -> SimStats
    where
        M: Send + 'static,
    {
        self.run_internal(policy, false)
    }

    fn run_internal(&mut self, policy: RunUntil, batched: bool) -> SimStats
    where
        M: Send + 'static,
    {
        // The one place a segment begins: requests left over from the last
        // segment are cleared *before* the nodes start, so a stop issued
        // from an `on_start` callback survives to end this one.
        for core in &mut self.cores {
            core.clear_stop_request();
        }
        // Start all cores first, then exchange: an on_start callback may
        // have queued cross-shard messages into the outboxes.
        for core in &mut self.cores {
            core.start();
        }
        self.collect_outboxes();

        if self.cores.iter().any(SimCore::stop_requested) {
            // Stopped from `on_start`: the segment ends before any event.
            return self.stats();
        }
        if let [core] = &mut self.cores[..] {
            drive_core(core, policy, batched);
        } else {
            // All cross-shard events are exchanged and ingested by the time
            // the pool returns, so between segments the only
            // coordinator-held state is `pending`.
            let (until, max_events) = policy.bounds();
            let lookahead = self.lookahead.as_nanos();
            let shards = self.cores.len();
            self.pool
                .get_or_insert_with(|| WorkerPool::new(shards, lookahead))
                .run_segment(&mut self.cores, until, max_events);
            // At a time-bounded barrier the serial engine's clock reads the
            // time of the last processed event *globally*; align every shard
            // so barrier-time control callbacks observe the identical `now`.
            let global_now = self.now();
            for core in &mut self.cores {
                core.align_clock(global_now);
            }
        }
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TimerToken;

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
        let _ = b;
        let a_node: Echo = net.take_node(a).unwrap();
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
    fn run_until_bounds_name_each_limit() {
        let t5 = SimTime::from_nanos(5);
        assert_eq!(RunUntil::Drained.bounds(), (None, None));
        assert_eq!(RunUntil::Stopped.bounds(), (None, None));
        assert_eq!(RunUntil::Time(t5).bounds(), (Some(t5), None));
        assert_eq!(RunUntil::Events(7).bounds(), (None, Some(7)));
        assert_eq!(
            RunUntil::TimeOrEvents {
                until: t5,
                max_events: 7
            }
            .bounds(),
            (Some(t5), Some(7))
        );
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
            (stats, net.take_node::<Echo>(a).unwrap().seen)
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
        let ticker: Ticker = net.take_node(t).unwrap();
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
                            let v = (rand::RngCore::next_u64(ctx.rng()) % 1000) as u32;
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
            let sink_node: RandomSender = net.take_node(sink).unwrap();
            sink_node.got
        }
        assert_eq!(run_once(5), run_once(5));
        assert_ne!(run_once(5), run_once(6));
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
        let ticker: Ticker = net.take_node(t2).unwrap();
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
        let echo: Echo = net.take_node(a).unwrap();
        assert_eq!(echo.seen, vec![99, 1]);
        assert_eq!(echo.cap, 7);
    }

    /// Sends itself one message from `on_start`; the first of a pair also
    /// asks for a stop there.
    struct SelfSender {
        stop: bool,
        got: u32,
    }

    impl Node<u32> for SelfSender {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            let me = ctx.self_id();
            ctx.send(me, 1);
            if self.stop {
                ctx.stop();
            }
        }
        fn on_message(&mut self, msg: u32, _f: NodeId, _c: &mut Context<'_, u32>) {
            self.got += msg;
        }
    }

    /// Room for two nodes, one per shard, on real worker threads whatever
    /// the host.
    fn two_shard_network() -> Network<u32> {
        let topology = Topology::uniform(SimDuration::from_micros(100));
        let plan = ShardPlan::from_assignments(vec![0, 1], 2);
        Network::with_pool_policy(1, topology, plan, PoolPolicy::Force)
    }

    #[test]
    fn stop_from_on_start_ends_the_segment_before_any_event() {
        // One contract, three ways to run a segment.  The stopping node and
        // a peer with work of its own sit on different shards of the forced
        // plan, so there the peer's shard must hold still as well.
        fn check(shape: &str, mut net: Network<u32>, batched: bool) {
            let run = |net: &mut Network<u32>| {
                if batched {
                    net.run_until(RunUntil::Drained)
                } else {
                    net.run_until_stepwise(RunUntil::Drained)
                }
            };
            let stopper = net.add_node(SelfSender { stop: true, got: 0 });
            let peer = net.add_node(SelfSender {
                stop: false,
                got: 0,
            });
            let stats = run(&mut net);
            assert_eq!(stats.events_processed, 0, "{shape}: stop from on_start");
            // The stop only ended that segment: a further run delivers normally.
            let stats = run(&mut net);
            assert_eq!(stats.events_processed, 2, "{shape}: next segment");
            for id in [stopper, peer] {
                assert_eq!(net.take_node::<SelfSender>(id).unwrap().got, 1, "{shape}");
            }
        }
        let single = || Network::new(1, Topology::datacenter());
        check("single shard, batched", single(), true);
        check("single shard, stepwise", single(), false);
        check("two forced shards", two_shard_network(), true);
    }

    /// Records every dispatch it is shown.
    #[derive(Debug, Clone, Default)]
    struct Log(Vec<(crate::EventKey, NodeId, Option<u32>)>);

    impl Observer<u32> for Log {
        fn observe(&mut self, key: crate::EventKey, target: NodeId, seen: crate::Seen<'_, u32>) {
            let msg = match seen {
                crate::Seen::Message(msg) => Some(*msg),
                crate::Seen::Timer(_) => None,
            };
            self.0.push((key, target, msg));
        }
    }

    #[test]
    fn observers_see_every_dispatch_in_one_order_in_every_mode() {
        type Walk = Vec<(crate::EventKey, NodeId, Option<u32>)>;
        // Two ping-pong pairs, so with four shards every node owns one.
        fn walk(mut net: Network<u32>, stepwise: bool) -> Walk {
            for cap in [9, 10] {
                let peer = Some(net.add_node(Echo {
                    peer: None,
                    cap,
                    seen: vec![],
                }));
                net.add_node(Echo {
                    peer,
                    cap,
                    seen: vec![],
                });
            }
            net.set_observer(Log::default());
            for policy in [
                RunUntil::Time(SimTime::from_nanos(500_000)),
                RunUntil::Drained,
            ] {
                if stepwise {
                    net.run_until_stepwise(policy);
                } else {
                    net.run_until(policy);
                }
            }
            let logs: Vec<Log> = net.take_observers();
            assert_eq!(logs.len(), net.shards(), "one observer per shard");
            assert!(net.take_observers::<Log>().is_empty(), "taken = detached");
            let mut events: Walk = logs.into_iter().flat_map(|log| log.0).collect();
            events.sort_unstable_by_key(|&(key, _, _)| key);
            events
        }
        let topology = || Topology::uniform(SimDuration::from_micros(100));
        let reference = walk(Network::new(1, topology()), true);
        assert_eq!(reference.len(), 10 + 11, "every delivery seen once");
        let (key, to, msg) = reference[0];
        assert_eq!((key.src, to, msg), (NodeId(1), NodeId(0), Some(0)));
        assert_eq!(walk(Network::new(1, topology()), false), reference);
        for shards in [2u32, 4] {
            let plan = ShardPlan::from_assignments((0..4).map(|i| i % shards).collect(), shards);
            let net = Network::with_pool_policy(1, topology(), plan, PoolPolicy::Force);
            assert_eq!(net.shards(), shards as usize);
            assert_eq!(walk(net, false), reference, "{shards} forced shards");
        }
    }

    #[test]
    fn new_is_the_single_shard_plan_and_never_spawns_a_worker() {
        let mut net = Network::new(1, Topology::datacenter());
        assert_eq!(net.shards(), 1);
        assert_eq!(net.plan().shards(), 1);
        assert_eq!(net.lookahead(), SimDuration::ZERO);
        let a = net.add_node(Echo {
            peer: None,
            cap: 4,
            seen: vec![],
        });
        net.add_node(Echo {
            peer: Some(a),
            cap: 4,
            seen: vec![],
        });
        net.run_until(RunUntil::Drained);
        net.run_until_stepwise(RunUntil::Drained);
        assert_eq!(net.stats().messages_delivered, 5);
        assert!(net.pool.is_none(), "a single shard runs on the caller");
        // The forced plan, for contrast, spawns its pool on the first run.
        let mut sharded = two_shard_network();
        sharded.add_node(SelfSender {
            stop: false,
            got: 0,
        });
        sharded.run_until(RunUntil::Drained);
        assert!(sharded.pool.is_some());
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
