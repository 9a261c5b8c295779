//! The engine core: clock + event queue + node registry + statistics.
//!
//! [`SimCore`] owns the dispatch logic once; [`crate::Network`] holds one
//! core per shard and drives it on the calling thread
//! ([`SimCore::run_segment`], or [`SimCore::step_within`] for the reference
//! per-event loop) or lends it to a pool worker ([`SimCore::run_window`]).
//! Private to the crate: everything a driver needs is on the frontend.

use std::fmt;
use std::sync::Arc;

use crate::event::{EventHead, EventQueue, HeadKind, Mail};
use crate::faults::{DropCause, FaultConfig, FaultState};
use crate::link::Topology;
use crate::node::{Context, Node, NodeId, ShardRouter};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::{TraceEntry, TraceKind, TraceLog};

/// Counters describing a finished (or paused) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Events popped from the queue and dispatched.
    pub events_processed: u64,
    /// Messages delivered to nodes.
    pub messages_delivered: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Total messages dropped for any reason; always equals
    /// `dropped_unroutable + dropped_vacant + dropped_injected +
    /// dropped_queue + dropped_link_down`.
    pub messages_dropped: u64,
    /// Messages addressed to a node id outside the node table (dropped).
    pub dropped_unroutable: u64,
    /// Messages addressed to a valid slot that holds no node — reserved but
    /// never filled, or removed via `take_node` (dropped).
    pub dropped_vacant: u64,
    /// Messages consumed by the fault layer's injected faults: a
    /// probabilistic loss rule or a deterministic one-shot drop.
    pub dropped_injected: u64,
    /// Messages tail-dropped by a full per-link bounded queue.
    pub dropped_queue: u64,
    /// Messages lost to a link down window.
    pub dropped_link_down: u64,
    /// Simulated time of the last processed event.
    pub last_event_time: SimTime,
}

impl SimStats {
    /// Folds another core's counters into this one (used to merge per-shard
    /// statistics): counts add, `last_event_time` takes the maximum.
    pub fn absorb(&mut self, other: SimStats) {
        self.events_processed += other.events_processed;
        self.messages_delivered += other.messages_delivered;
        self.timers_fired += other.timers_fired;
        self.messages_dropped += other.messages_dropped;
        self.dropped_unroutable += other.dropped_unroutable;
        self.dropped_vacant += other.dropped_vacant;
        self.dropped_injected += other.dropped_injected;
        self.dropped_queue += other.dropped_queue;
        self.dropped_link_down += other.dropped_link_down;
        self.last_event_time = self.last_event_time.max(other.last_event_time);
    }
}

/// What a single [`SimCore::step_within`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// One event was dispatched; the clock now reads `time`.
    Processed {
        /// Delivery time of the dispatched event.
        time: SimTime,
    },
    /// The event queue is empty; nothing was done.
    Idle,
}

/// Boxed callback that renders a message for the trace log.
type DescribeFn<M> = Box<dyn Fn(&M) -> String + Send>;

/// Per-slot engine state that must survive node removal/re-insertion.
///
/// The scheduling counter in particular may never reset: event keys are
/// `(time, src, seq)` and a reset would let a re-inserted node reuse a key,
/// breaking the global-uniqueness property the deterministic ordering
/// depends on.
#[derive(Debug)]
struct SlotMeta {
    rng: SimRng,
    send_seq: u64,
}

/// A node held out of its registry slot while (a batch of) its events are
/// dispatched.
type HeldNode<M> = Option<(NodeId, Box<dyn AnyNode<M>>)>;

/// The reusable discrete-event simulation core.
///
/// `M` is the message type exchanged by nodes (for SRLB experiments this is
/// the packet/message enum defined in `srlb-core`).
pub(crate) struct SimCore<M> {
    nodes: Vec<Option<Box<dyn AnyNode<M>>>>,
    meta: Vec<SlotMeta>,
    queue: EventQueue<M>,
    topology: Topology,
    /// Root generator that node streams are forked from; a pure function of
    /// the run seed, so every core built from the same seed derives the same
    /// per-node streams.
    rng_root: SimRng,
    now: SimTime,
    started: bool,
    stop_requested: bool,
    stats: SimStats,
    trace: TraceLog,
    trace_describe: Option<DescribeFn<M>>,
    router: Option<ShardRouter<M>>,
    /// Run seed, kept so a fault layer installed later can salt its
    /// interleaving-independent loss coin.
    seed: u64,
    /// Fault-injection state; `None` (the default) costs one branch per
    /// delivery and changes nothing else.
    faults: Option<Box<FaultState>>,
}

impl<M> fmt::Debug for SimCore<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCore")
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<M> SimCore<M> {
    /// Creates an empty core with the given seed and topology.
    pub(crate) fn new(seed: u64, topology: Topology) -> Self {
        SimCore {
            nodes: Vec::new(),
            meta: Vec::new(),
            queue: EventQueue::new(),
            topology,
            rng_root: SimRng::new(seed).fork_named("node"),
            now: SimTime::ZERO,
            started: false,
            stop_requested: false,
            stats: SimStats::default(),
            trace: TraceLog::disabled(),
            trace_describe: None,
            router: None,
            seed,
            faults: None,
        }
    }

    /// Installs a fault-injection layer compiled from `config` (see
    /// [`crate::faults`]).  An empty config removes the layer.  Must be
    /// called before any node is started so every execution mode sees the
    /// same fault state from the first delivery on.
    pub(crate) fn set_faults(&mut self, config: &FaultConfig) {
        debug_assert!(!self.started, "faults must be installed before start");
        self.faults = if config.is_empty() {
            None
        } else {
            Some(Box::new(FaultState::new(config, self.seed)))
        };
    }

    /// Installs the cross-shard router (sharded execution only).  Must be
    /// called before any node is started.
    pub(crate) fn set_router(&mut self, shard_of: Arc<[u32]>, my_shard: u32, shards: usize) {
        debug_assert!(!self.started, "router must be installed before start");
        self.router = Some(ShardRouter::new(shard_of, my_shard, shards));
    }

    /// Appends a fresh slot (node table + per-slot engine state) and returns
    /// its id.
    fn push_slot(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(None);
        self.meta.push(SlotMeta {
            rng: self.rng_root.fork(id.0 as u64),
            send_seq: 0,
        });
        id
    }

    /// Reserves an empty node slot and returns its id, so a scenario can fix
    /// the id ↔ address layout of backends that only join the cluster later
    /// (via [`SimCore::insert_node`]).  Events addressed to a reserved but
    /// unfilled slot are dropped and counted in [`SimStats::dropped_vacant`].
    pub(crate) fn reserve_node(&mut self) -> NodeId {
        self.push_slot()
    }

    /// Fills an empty node slot (from [`SimCore::reserve_node`] or a
    /// [`SimCore::take_node`] removal) with `node`.  On an already-started
    /// core the node's `on_start` runs immediately at the current simulated
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the slot is occupied.
    pub(crate) fn insert_node(&mut self, id: NodeId, node: impl Node<M> + Send + 'static) {
        let slot = self
            .nodes
            .get_mut(id.index())
            // srlb-lint: allow(panic-hygiene) -- documented panic contract of insert_node: an out-of-range id is caller error
            .unwrap_or_else(|| panic!("node slot {id} out of range"));
        assert!(slot.is_none(), "node slot {id} is already occupied");
        *slot = Some(Box::new(node));
        if self.started {
            self.start_node(id);
        }
    }

    /// Runs `on_start` on the node in slot `id` (which must be occupied).
    fn start_node(&mut self, id: NodeId) {
        let mut node = self.nodes[id.index()].take().expect("node present"); // srlb-lint: allow(panic-hygiene) -- private helper; both callers check occupancy before calling
        let meta = &mut self.meta[id.index()];
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            from: None,
            queue: &mut self.queue,
            send_seq: &mut meta.send_seq,
            router: self.router.as_mut(),
            topology: &self.topology,
            rng: &mut meta.rng,
            stop_requested: &mut self.stop_requested,
        };
        node.on_start(&mut ctx);
        self.nodes[id.index()] = Some(node);
    }

    /// Runs `on_start` on every node (idempotent; only the first call does
    /// anything).
    pub(crate) fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for index in 0..self.nodes.len() {
            if self.nodes[index].is_some() {
                self.start_node(NodeId(index));
            }
        }
    }

    /// Enables tracing of message deliveries, using `describe` to render each
    /// message for the trace log.
    pub(crate) fn enable_trace(&mut self, describe: impl Fn(&M) -> String + Send + 'static) {
        self.trace = TraceLog::new();
        self.trace_describe = Some(Box::new(describe));
    }

    /// The trace log (empty unless [`SimCore::enable_trace`] was called).
    pub(crate) fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Current simulated time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `t` without processing events (never moves it
    /// backwards).  The sharded driver uses this at window barriers so that
    /// control callbacks observe the same `now` on every shard as they would
    /// on the serial engine.
    pub(crate) fn align_clock(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Run statistics so far.
    pub(crate) fn stats(&self) -> SimStats {
        self.stats
    }

    /// The topology used for link latencies.
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether a node requested a stop that has not been cleared yet.
    pub(crate) fn stop_requested(&self) -> bool {
        self.stop_requested
    }

    /// Clears a pending stop request (drivers call this when a new run
    /// segment begins).
    pub(crate) fn clear_stop_request(&mut self) {
        self.stop_requested = false;
    }

    /// Delivery time of the next pending event, if any — the driver's view
    /// for deciding whether stepping is worthwhile under a time bound.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Ingests the messages other shards scheduled for nodes owned by this
    /// core, leaving `mail` empty.
    pub(crate) fn ingest(&mut self, mail: &mut Mail<M>) {
        mail.deliver_into(&mut self.queue);
    }

    /// Whether any cross-shard outbox holds an undelivered event.
    pub(crate) fn outbound_pending(&self) -> bool {
        self.router.as_ref().is_some_and(ShardRouter::has_outbound)
    }

    /// Visits every per-destination-shard outbox (including empty ones, so
    /// callers can reset per-destination state) with `(dst, &mut outbox)`.
    /// The pool swaps non-empty outboxes against its mailbox buffers.
    pub(crate) fn publish_outboxes(&mut self, mut f: impl FnMut(usize, &mut Mail<M>)) {
        if let Some(router) = self.router.as_mut() {
            for (dst, outbox) in router.outbound_mut().iter_mut().enumerate() {
                f(dst, outbox);
            }
        }
    }

    /// One sharded compute phase: processes local events strictly below
    /// `below` (and at or below `until`), at most `budget` of them.
    ///
    /// `below = None` means the coordinator proved every other shard idle —
    /// run freely, but stop after the time-group that emits the first
    /// cross-shard send: a reply routed back through another shard could
    /// otherwise arrive in this core's processed past.
    pub(crate) fn run_window(
        &mut self,
        below: Option<SimTime>,
        until: Option<SimTime>,
        budget: u64,
    ) -> u64 {
        match below {
            Some(h) => {
                // `below` is exclusive; `run_segment`'s bound is inclusive.
                let Some(h) = h.as_nanos().checked_sub(1) else {
                    return 0;
                };
                let mut bound = SimTime::from_nanos(h);
                if let Some(u) = until {
                    bound = bound.min(u);
                }
                self.run_segment(Some(bound), budget)
            }
            None => {
                let mut processed = 0u64;
                while processed < budget && !self.stop_requested {
                    match self.queue.peek_time() {
                        Some(t) if until.is_none_or(|u| t <= u) => {}
                        _ => break,
                    }
                    processed += self.step_batch(budget - processed);
                    if self.outbound_pending() {
                        break;
                    }
                }
                processed
            }
        }
    }

    /// Puts a held node back into its registry slot.
    fn put_back(&mut self, held: HeldNode<M>) {
        if let Some((id, node)) = held {
            self.nodes[id.index()] = Some(node);
        }
    }

    /// Makes `held` hold the node in slot `target` (putting back whichever
    /// node it held before) and returns that node.  Returns `None` —
    /// counting the drop — when the slot does not exist or is empty.
    fn hold<'h>(
        &mut self,
        target: NodeId,
        held: &'h mut HeldNode<M>,
    ) -> Option<&'h mut Box<dyn AnyNode<M>>> {
        if held.as_ref().is_none_or(|(id, _)| *id != target) {
            self.put_back(held.take());
            let Some(slot) = self.nodes.get_mut(target.index()) else {
                self.stats.messages_dropped += 1;
                self.stats.dropped_unroutable += 1;
                return None;
            };
            let Some(node) = slot.take() else {
                self.stats.messages_dropped += 1;
                self.stats.dropped_vacant += 1;
                return None;
            };
            *held = Some((target, node));
        }
        held.as_mut().map(|(_, node)| node)
    }

    /// Dispatches one already-popped event.  `held` carries the most
    /// recently used node between consecutive dispatches so a burst of
    /// events for one target pays the registry take/put only once.  A
    /// message's body leaves the queue's slab right at the `on_message`
    /// call; one that is dropped instead is destroyed in place.
    fn dispatch(&mut self, event: EventHead, held: &mut HeldNode<M>) {
        self.now = event.key.time;
        self.stats.events_processed += 1;
        self.stats.last_event_time = self.now;
        let target = event.target;

        match event.kind {
            HeadKind::Message { from, body } => {
                // Fault layer: only messages traverse links (timers are
                // node-local), and the verdict is taken before target
                // resolution so a doomed message costs no registry traffic.
                // `event.key.src` is the sender.
                if let Some(faults) = self.faults.as_mut() {
                    if let Some(cause) = faults.judge(event.key, target, self.now) {
                        self.stats.messages_dropped += 1;
                        match cause {
                            DropCause::Injected => self.stats.dropped_injected += 1,
                            DropCause::Queue => self.stats.dropped_queue += 1,
                            DropCause::LinkDown => self.stats.dropped_link_down += 1,
                        }
                        self.queue.discard_body(body);
                        return;
                    }
                }
                let Some(node) = self.hold(target, held) else {
                    self.queue.discard_body(body);
                    return;
                };
                let meta = &mut self.meta[target.index()];
                self.stats.messages_delivered += 1;
                if let Some(describe) = &self.trace_describe {
                    self.trace.record(TraceEntry {
                        time: self.now,
                        kind: TraceKind::MessageDelivered,
                        target,
                        from: Some(from),
                        description: describe(self.queue.body(&body)),
                    });
                }
                // Taken only now, and borrowed by nothing else: the body's
                // one move out of the slab lands in the callback's argument.
                let msg = self.queue.take_body(body);
                let mut ctx = Context {
                    now: self.now,
                    self_id: target,
                    from: Some(from),
                    queue: &mut self.queue,
                    send_seq: &mut meta.send_seq,
                    router: self.router.as_mut(),
                    topology: &self.topology,
                    rng: &mut meta.rng,
                    stop_requested: &mut self.stop_requested,
                };
                node.on_message(msg, from, &mut ctx);
            }
            HeadKind::Timer { token } => {
                let Some(node) = self.hold(target, held) else {
                    return;
                };
                let meta = &mut self.meta[target.index()];
                self.stats.timers_fired += 1;
                if self.trace.is_enabled() {
                    self.trace.record(TraceEntry {
                        time: self.now,
                        kind: TraceKind::TimerFired,
                        target,
                        from: None,
                        description: format!("timer {}", token.0),
                    });
                }
                let mut ctx = Context {
                    now: self.now,
                    self_id: target,
                    from: None,
                    queue: &mut self.queue,
                    send_seq: &mut meta.send_seq,
                    router: self.router.as_mut(),
                    topology: &self.topology,
                    rng: &mut meta.rng,
                    stop_requested: &mut self.stop_requested,
                };
                node.on_timer(token, &mut ctx);
            }
        }
    }

    /// Pops and dispatches the single next event, if its time is at or
    /// below `until` (`None` bounds nothing); the bound rides the pop, so a
    /// step is one queue operation.
    ///
    /// This is the reference entry point: every other execution mode is
    /// defined as "produces exactly the per-event effects of repeated
    /// `step_within` calls in key order".
    pub(crate) fn step_within(&mut self, until: Option<SimTime>) -> StepOutcome {
        let Some(event) = self.queue.pop_head(until) else {
            return StepOutcome::Idle;
        };
        let time = event.key.time;
        let mut held = None;
        self.dispatch(event, &mut held);
        self.put_back(held);
        StepOutcome::Processed { time }
    }

    /// Dispatches every event sharing the next pending timestamp (at most
    /// `budget` of them), amortising registry take/put across consecutive
    /// events for the same node.  Returns the number of events processed.
    ///
    /// Equivalence with the serial loop is preserved even when a callback
    /// schedules *new* events at the current timestamp: events are popped
    /// one at a time, and the queue always yields the globally smallest key,
    /// so dispatch order is exactly ascending key order.  If a stop request
    /// or the budget interrupts the batch, the remaining ties simply stay
    /// queued with their keys intact.
    pub(crate) fn step_batch(&mut self, budget: u64) -> u64 {
        if budget == 0 || self.stop_requested {
            return 0;
        }
        let Some(batch_time) = self.queue.peek_time() else {
            return 0;
        };
        let mut held = None;
        let processed = self.drain_time_group(batch_time, budget, &mut held);
        self.put_back(held);
        processed
    }

    /// Dispatches events straight off the queue while the head's timestamp
    /// equals `batch_time` (at most `budget` of them).  The queue always
    /// yields the globally smallest key, so a callback scheduling *new*
    /// events at the current timestamp has them interleaved in exact key
    /// order automatically; a stop request or an exhausted budget simply
    /// leaves the remaining ties in the queue.
    fn drain_time_group(
        &mut self,
        batch_time: SimTime,
        budget: u64,
        held: &mut HeldNode<M>,
    ) -> u64 {
        let mut processed = 0u64;
        while processed < budget && !self.stop_requested {
            // `batch_time` is the head's own timestamp, so bounding the pop
            // by it takes exactly the events of this time group.
            let Some(event) = self.queue.pop_head(Some(batch_time)) else {
                break;
            };
            self.dispatch(event, held);
            processed += 1;
        }
        processed
    }

    /// Runs events in key order until the queue drains, an event at a time
    /// later than `until` surfaces, `budget` events have been dispatched, or
    /// a callback requests a stop — the batched engine loop.  Exactly
    /// equivalent to driving [`SimCore::step_within`] under the same bounds, but
    /// with the target node staying out of the registry across consecutive
    /// events that hit it.  Returns the number of events processed.
    pub(crate) fn run_segment(&mut self, until: Option<SimTime>, budget: u64) -> u64 {
        let mut processed = 0u64;
        let mut held: HeldNode<M> = None;
        while processed < budget && !self.stop_requested {
            let Some(event) = self.queue.pop_head(until) else {
                break;
            };
            self.dispatch(event, &mut held);
            processed += 1;
        }
        self.put_back(held);
        processed
    }

    /// Immutable access to a node as a `dyn Node<M>`.
    ///
    /// Returns `None` if the id is out of range.
    pub(crate) fn with_node<R>(&self, id: NodeId, f: impl FnOnce(&dyn Node<M>) -> R) -> Option<R> {
        self.nodes
            .get(id.index())
            .and_then(|slot| slot.as_ref())
            .map(|node| f(node.as_node()))
    }

    /// Immutable, downcast access to a node of concrete type `T`.
    ///
    /// Returns `None` if the id is out of range or the node has a different
    /// type.  Useful for peeking at node state (e.g. a server's scoreboard)
    /// while the simulation is paused between run segments.
    pub(crate) fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.nodes
            .get(id.index())
            .and_then(|slot| slot.as_ref())
            .and_then(|node| node.as_any().downcast_ref::<T>())
    }

    /// Mutable, downcast access to a node of concrete type `T`.
    ///
    /// Returns `None` if the id is out of range or the node has a different
    /// type.  Intended for applying out-of-band state changes between run
    /// segments; prefer [`SimCore::control`] when the change needs to
    /// schedule timers or send messages.
    pub(crate) fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes
            .get_mut(id.index())
            .and_then(|slot| slot.as_mut())
            .and_then(|node| node.as_any_mut().downcast_mut::<T>())
    }

    /// Delivers a **control event** to the node in slot `id`: runs `f` with
    /// mutable access to the node (downcast to `T`) and a [`Context`] at the
    /// current simulated time, exactly as if the engine were delivering a
    /// callback.  This is how a scenario schedule applies out-of-band
    /// changes — failing a load balancer, resizing a server — that may need
    /// to reschedule timers or emit messages.
    ///
    /// Returns `None` (without running `f`) if the id is out of range, the
    /// slot is empty, or the node is not of type `T`.
    pub(crate) fn control<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Context<'_, M>) -> R,
    ) -> Option<R> {
        let slot = self.nodes.get_mut(id.index())?;
        if !slot.as_ref()?.as_any().is::<T>() {
            return None;
        }
        let mut node = slot.take()?;
        let meta = &mut self.meta[id.index()];
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            from: None,
            queue: &mut self.queue,
            send_seq: &mut meta.send_seq,
            router: self.router.as_mut(),
            topology: &self.topology,
            rng: &mut meta.rng,
            stop_requested: &mut self.stop_requested,
        };
        let result = node
            .as_any_mut()
            .downcast_mut::<T>()
            .map(|typed| f(typed, &mut ctx));
        self.nodes[id.index()] = Some(node);
        result
    }

    /// Removes the node with id `id` from the core and returns it, downcast
    /// to `T`.  Returns `None` if the id is out of range, the node was
    /// already taken, or it has a different concrete type.
    ///
    /// Use this after a run to extract results from several nodes (the
    /// engine will simply drop any further events addressed to the removed
    /// node, counting them in [`SimStats::dropped_vacant`]).
    pub(crate) fn take_node<T: 'static>(&mut self, id: NodeId) -> Option<T>
    where
        M: 'static,
    {
        let slot = self.nodes.get_mut(id.index())?;
        if !slot.as_ref()?.as_any().is::<T>() {
            return None;
        }
        let node = slot.take()?;
        node.into_any().downcast::<T>().ok().map(|boxed| *boxed)
    }
}

/// Object-safe combination of [`Node`], `Any` and `Send`, so concrete node
/// types can be recovered after a run (used by the experiment driver to
/// extract collected measurements) and node tables can move across worker
/// threads.
pub(crate) trait AnyNode<M>: Node<M> + Send {
    fn as_node(&self) -> &dyn Node<M>;
    fn as_any(&self) -> &dyn std::any::Any;
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

impl<M, T: Node<M> + Send + 'static> AnyNode<M> for T {
    fn as_node(&self) -> &dyn Node<M> {
        self
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TimerToken;
    use crate::time::SimDuration;

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

    fn add(core: &mut SimCore<u32>, node: impl Node<u32> + Send + 'static) -> NodeId {
        let id = core.reserve_node();
        core.insert_node(id, node);
        id
    }

    fn drained(core: &mut SimCore<u32>) -> u64 {
        core.start();
        let mut n = 0;
        while let StepOutcome::Processed { .. } = core.step_within(None) {
            n += 1;
        }
        n
    }

    #[test]
    fn step_processes_one_event_and_reports_time() {
        let mut core = SimCore::new(1, Topology::uniform(SimDuration::from_micros(100)));
        let a = add(
            &mut core,
            Echo {
                peer: None,
                cap: 2,
                seen: vec![],
            },
        );
        let _b = add(
            &mut core,
            Echo {
                peer: Some(a),
                cap: 2,
                seen: vec![],
            },
        );
        core.start();
        assert_eq!(core.peek_time(), Some(SimTime::from_nanos(100_000)));
        let outcome = core.step_within(None);
        assert_eq!(
            outcome,
            StepOutcome::Processed {
                time: SimTime::from_nanos(100_000)
            }
        );
        assert_eq!(core.stats().events_processed, 1);
    }

    #[test]
    fn idle_step_on_empty_queue() {
        let mut core: SimCore<u32> = SimCore::new(1, Topology::datacenter());
        core.start();
        assert_eq!(core.step_within(None), StepOutcome::Idle);
        assert_eq!(core.stats().events_processed, 0);
    }

    #[test]
    fn drop_counters_distinguish_unroutable_from_vacant() {
        struct Sprayer {
            vacant: NodeId,
        }
        impl Node<u32> for Sprayer {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(NodeId(99), 1); // no such slot
                ctx.send(self.vacant, 2); // reserved, never filled
                ctx.send(NodeId(99), 3); // no such slot, again
            }
            fn on_message(&mut self, _m: u32, _f: NodeId, _c: &mut Context<'_, u32>) {}
        }
        let mut core = SimCore::new(1, Topology::datacenter());
        let vacant = core.reserve_node();
        add(&mut core, Sprayer { vacant });
        drained(&mut core);
        let stats = core.stats();
        assert_eq!(stats.dropped_unroutable, 2);
        assert_eq!(stats.dropped_vacant, 1);
        assert_eq!(
            stats.messages_dropped,
            stats.dropped_unroutable + stats.dropped_vacant,
            "the legacy total stays the sum of the split counters"
        );
        assert_eq!(stats.messages_delivered, 0);
    }

    #[test]
    fn step_batch_matches_stepwise_execution() {
        // A fan-out node whose messages all land at the same timestamp; the
        // batched loop must deliver them in the same order as step().
        struct Fan {
            peers: Vec<NodeId>,
        }
        impl Node<u32> for Fan {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                for (i, &p) in self.peers.iter().enumerate() {
                    ctx.send(p, i as u32);
                }
            }
            fn on_message(&mut self, _m: u32, _f: NodeId, _c: &mut Context<'_, u32>) {}
        }
        fn build(batched: bool) -> (SimStats, Vec<Vec<u32>>) {
            let mut core = SimCore::new(9, Topology::uniform(SimDuration::from_micros(10)));
            let sinks: Vec<NodeId> = (0..4)
                .map(|_| {
                    add(
                        &mut core,
                        Echo {
                            peer: None,
                            cap: 0,
                            seen: vec![],
                        },
                    )
                })
                .collect();
            add(
                &mut core,
                Fan {
                    peers: sinks.clone(),
                },
            );
            core.start();
            if batched {
                while core.step_batch(u64::MAX) > 0 {}
            } else {
                while let StepOutcome::Processed { .. } = core.step_within(None) {}
            }
            let seen = sinks
                .iter()
                .map(|&s| core.take_node::<Echo>(s).unwrap().seen)
                .collect();
            (core.stats(), seen)
        }
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn step_batch_interleaves_same_time_events_in_key_order() {
        // Node 0's timer callback schedules another timer at the *same*
        // timestamp (zero delay).  Its key (src 0) sorts before the buffered
        // tie from node 1, so the batched loop must interleave it first —
        // exactly like the serial loop would.
        struct ZeroDelay {
            fired: Vec<u64>,
            chain: bool,
        }
        impl Node<u32> for ZeroDelay {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.schedule_timer(SimDuration::from_micros(5), TimerToken(1));
            }
            fn on_message(&mut self, _m: u32, _f: NodeId, _c: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, u32>) {
                self.fired.push(token.0);
                if self.chain && token == TimerToken(1) {
                    ctx.schedule_timer(SimDuration::ZERO, TimerToken(2));
                }
            }
        }
        fn order(batched: bool) -> Vec<(usize, u64)> {
            let mut core = SimCore::new(3, Topology::datacenter());
            let a = add(
                &mut core,
                ZeroDelay {
                    fired: vec![],
                    chain: true,
                },
            );
            let b = add(
                &mut core,
                ZeroDelay {
                    fired: vec![],
                    chain: false,
                },
            );
            core.start();
            if batched {
                while core.step_batch(u64::MAX) > 0 {}
            } else {
                while let StepOutcome::Processed { .. } = core.step_within(None) {}
            }
            let mut log = vec![];
            for (idx, id) in [a, b].into_iter().enumerate() {
                for t in core.take_node::<ZeroDelay>(id).unwrap().fired {
                    log.push((idx, t));
                }
            }
            log
        }
        assert_eq!(order(true), order(false));
    }

    #[test]
    fn same_time_senders_out_of_id_order_deliver_in_key_order() {
        // The trigger (highest id) messages node 2 and then node 1 over the
        // same link, so both callbacks run at one timestamp, node 2's first;
        // each forwards to the sink over the same link again.  Node 1's key
        // `(2L, 1, 0)` is scheduled second and sorts first: whatever the
        // queue does with equal-latency messages, the sink hears node 1
        // before node 2, in every loop.
        struct Trigger {
            first: NodeId,
            second: NodeId,
        }
        impl Node<u32> for Trigger {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(self.first, 0);
                ctx.send(self.second, 0);
            }
            fn on_message(&mut self, _m: u32, _f: NodeId, _c: &mut Context<'_, u32>) {}
        }
        struct Forward {
            sink: NodeId,
        }
        impl Node<u32> for Forward {
            fn on_message(&mut self, _m: u32, _f: NodeId, ctx: &mut Context<'_, u32>) {
                let me = ctx.self_id().index() as u32;
                ctx.send(self.sink, me);
            }
        }
        fn heard(run: impl FnOnce(&mut SimCore<u32>)) -> Vec<u32> {
            let mut core = SimCore::new(1, Topology::uniform(SimDuration::from_micros(50)));
            let sink = add(
                &mut core,
                Echo {
                    peer: None,
                    cap: 0,
                    seen: vec![],
                },
            );
            let one = add(&mut core, Forward { sink });
            let two = add(&mut core, Forward { sink });
            add(
                &mut core,
                Trigger {
                    first: two,
                    second: one,
                },
            );
            core.start();
            run(&mut core);
            assert_eq!(core.stats().messages_delivered, 4);
            core.take_node::<Echo>(sink).unwrap().seen
        }
        let stepwise = heard(|core| while core.step_within(None) != StepOutcome::Idle {});
        let batched = heard(|core| while core.step_batch(u64::MAX) > 0 {});
        let segment = heard(|core| {
            core.run_segment(None, u64::MAX);
        });
        assert_eq!(stepwise, vec![1, 2]);
        assert_eq!(batched, stepwise);
        assert_eq!(segment, stepwise);
    }

    #[test]
    fn step_batch_respects_budget_and_keeps_ties_queued() {
        struct Fan {
            peers: Vec<NodeId>,
        }
        impl Node<u32> for Fan {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                for &p in &self.peers {
                    ctx.send(p, 1);
                }
            }
            fn on_message(&mut self, _m: u32, _f: NodeId, _c: &mut Context<'_, u32>) {}
        }
        let mut core = SimCore::new(9, Topology::uniform(SimDuration::from_micros(10)));
        let sinks: Vec<NodeId> = (0..6)
            .map(|_| {
                add(
                    &mut core,
                    Echo {
                        peer: None,
                        cap: 0,
                        seen: vec![],
                    },
                )
            })
            .collect();
        add(
            &mut core,
            Fan {
                peers: sinks.clone(),
            },
        );
        core.start();
        assert_eq!(core.step_batch(2), 2);
        assert_eq!(core.queue.len(), 4, "unprocessed ties stay queued");
        assert_eq!(core.step_batch(u64::MAX), 4);
        assert_eq!(core.stats().messages_delivered, 6);
    }

    #[test]
    fn align_clock_never_moves_backwards() {
        let mut core: SimCore<u32> = SimCore::new(1, Topology::datacenter());
        core.align_clock(SimTime::from_nanos(50));
        assert_eq!(core.now(), SimTime::from_nanos(50));
        core.align_clock(SimTime::from_nanos(10));
        assert_eq!(core.now(), SimTime::from_nanos(50));
    }

    #[test]
    fn stats_absorb_sums_counts_and_maxes_time() {
        let mut a = SimStats {
            events_processed: 2,
            messages_delivered: 1,
            timers_fired: 1,
            messages_dropped: 2,
            dropped_unroutable: 1,
            dropped_vacant: 0,
            dropped_injected: 1,
            dropped_queue: 0,
            dropped_link_down: 0,
            last_event_time: SimTime::from_nanos(10),
        };
        let b = SimStats {
            events_processed: 3,
            messages_delivered: 2,
            timers_fired: 0,
            messages_dropped: 5,
            dropped_unroutable: 0,
            dropped_vacant: 2,
            dropped_injected: 1,
            dropped_queue: 1,
            dropped_link_down: 1,
            last_event_time: SimTime::from_nanos(7),
        };
        a.absorb(b);
        assert_eq!(a.events_processed, 5);
        assert_eq!(a.messages_dropped, 7);
        assert_eq!(a.dropped_unroutable, 1);
        assert_eq!(a.dropped_vacant, 2);
        assert_eq!(a.dropped_injected, 2);
        assert_eq!(a.dropped_queue, 1);
        assert_eq!(a.dropped_link_down, 1);
        assert_eq!(a.last_event_time, SimTime::from_nanos(10));
    }

    #[test]
    fn fault_layer_drops_messages_but_never_timers() {
        use crate::faults::{FaultConfig, LinkMatch, LossRule};

        struct Talker {
            peer: NodeId,
            timer_fired: bool,
        }
        impl Node<u32> for Talker {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(self.peer, 7);
                ctx.schedule_timer(SimDuration::from_micros(5), TimerToken(1));
            }
            fn on_message(&mut self, _m: u32, _f: NodeId, _c: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<'_, u32>) {
                self.timer_fired = true;
            }
        }
        let mut core = SimCore::new(5, Topology::datacenter());
        let config = FaultConfig {
            loss: vec![LossRule {
                link: LinkMatch::default(),
                probability: 1.0,
            }],
            ..FaultConfig::default()
        };
        core.set_faults(&config);
        let sink = add(
            &mut core,
            Echo {
                peer: None,
                cap: 0,
                seen: vec![],
            },
        );
        let talker = add(
            &mut core,
            Talker {
                peer: sink,
                timer_fired: false,
            },
        );
        drained(&mut core);
        let stats = core.stats();
        assert_eq!(stats.messages_delivered, 0);
        assert_eq!(stats.dropped_injected, 1);
        assert_eq!(stats.messages_dropped, 1);
        assert_eq!(stats.timers_fired, 1, "timers are exempt from faults");
        assert!(core.take_node::<Talker>(talker).unwrap().timer_fired);
    }

    #[test]
    fn empty_fault_config_clears_the_layer() {
        let mut core: SimCore<u32> = SimCore::new(5, Topology::datacenter());
        core.set_faults(&crate::faults::FaultConfig::default());
        assert!(core.faults.is_none());
    }
}
