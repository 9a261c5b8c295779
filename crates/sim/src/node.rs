//! The [`Node`] trait implemented by every simulated component, and the
//! [`Context`] handed to nodes during callbacks.

use std::fmt;
use std::mem::ManuallyDrop;
use std::sync::Arc;

use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::event::{EventKey, EventQueue, Mail};
use crate::link::Topology;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a node inside a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Raw index of the node in the network's node table.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Opaque token a node attaches to a timer so it can recognise it when it
/// fires.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimerToken(pub u64);

/// A simulated component: a traffic source, the load balancer, a server, …
///
/// Nodes communicate exclusively by exchanging messages of type `M` through
/// the [`Context`]; the engine delivers each message after the link latency
/// configured in the [`Topology`].
///
/// Nodes must be `Send` so the sharded engine can drive disjoint node
/// partitions from worker threads; a node is only ever touched by one thread
/// at a time, so no `Sync` bound is needed.
pub trait Node<M> {
    /// Called once when the simulation starts, before any message is
    /// delivered.  The default implementation does nothing.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message sent by `from` arrives at this node.
    fn on_message(&mut self, msg: M, from: NodeId, ctx: &mut Context<'_, M>);

    /// Called when a timer scheduled by this node fires.  The default
    /// implementation does nothing.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, M>) {
        let _ = (token, ctx);
    }

    /// A short human-readable name used in traces; defaults to the node id.
    fn name(&self) -> String {
        String::new()
    }
}

/// Routes freshly scheduled events either into the local event queue or into
/// per-destination-shard outboxes, depending on which shard owns the target
/// node.  Outboxes are exchanged at conservative time-window boundaries by
/// the sharded driver.
pub(crate) struct ShardRouter<M> {
    shard_of: Arc<[u32]>,
    my_shard: u32,
    outbound: Vec<Mail<M>>,
}

impl<M> fmt::Debug for ShardRouter<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRouter")
            .field("my_shard", &self.my_shard)
            .field("shards", &self.outbound.len())
            .finish()
    }
}

impl<M> ShardRouter<M> {
    pub(crate) fn new(shard_of: Arc<[u32]>, my_shard: u32, shards: usize) -> Self {
        ShardRouter {
            shard_of,
            my_shard,
            outbound: (0..shards).map(|_| Mail::default()).collect(),
        }
    }

    /// The destination shard if `to` is owned by a *different* shard.  Ids
    /// outside the shard plan resolve to `None` (treated as local, so the
    /// owning core drops them exactly as the serial engine would).
    fn remote_shard(&self, to: NodeId) -> Option<usize> {
        let shard = *self.shard_of.get(to.index())?;
        (shard != self.my_shard).then_some(shard as usize)
    }

    /// Whether any outbox holds an undelivered cross-shard event.
    pub(crate) fn has_outbound(&self) -> bool {
        self.outbound.iter().any(|mail| !mail.is_empty())
    }

    /// Direct access to the per-destination-shard outboxes, for the pool's
    /// swap-based (allocation-free) exchange.
    pub(crate) fn outbound_mut(&mut self) -> &mut [Mail<M>] {
        &mut self.outbound
    }
}

/// The API available to a node while it handles a callback.
///
/// A `Context` borrows the engine's event queue and topology plus the node's
/// *private* random-number generator and scheduling counter.  Everything a
/// node schedules through it carries an [`EventKey`] derived purely from the
/// node's own history, so event ordering — and therefore the whole run — is
/// identical whether the engine executes serially, in same-timestamp
/// batches, or across worker shards.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) from: Option<NodeId>,
    pub(crate) queue: &'a mut EventQueue<M>,
    pub(crate) send_seq: &'a mut u64,
    pub(crate) router: Option<&'a mut ShardRouter<M>>,
    pub(crate) topology: &'a Topology,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) stop_requested: &'a mut bool,
}

impl<'a, M> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called back.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// The sender of the message currently being handled, if any
    /// (`None` inside `on_start` and `on_timer`).
    pub fn sender(&self) -> Option<NodeId> {
        self.from
    }

    /// Sends `msg` to node `to`; it will be delivered after the link latency
    /// between this node and `to`.
    ///
    /// `msg` is copied exactly once, from the caller's value into its queue
    /// slot.  Three things keep it that way, and each was measured (an
    /// `LD_PRELOAD` `memcpy` counter around a `Packet` ping-pong): the
    /// function is not inlined, so the optimizer can prove the argument is
    /// only read and drop the call-site copy; the slot is claimed first and
    /// written with `replace` (whose old value is always `None` and is
    /// forgotten, not dropped), so no drop glue sits between building
    /// `Some(msg)` and storing it; and `msg` is held in a `ManuallyDrop`
    /// while the slot is claimed, so no unwind path needs its own copy of
    /// it.  The price of the last one: if claiming panics (a capacity
    /// overflow, i.e. a dying run) the message is leaked instead of dropped.
    #[inline(never)]
    pub fn send(&mut self, to: NodeId, msg: M) {
        let msg = ManuallyDrop::new(msg);
        let slot = self.claim(to);
        std::mem::forget(slot.replace(ManuallyDrop::into_inner(msg)));
    }

    /// Schedules a message to `to` — in the local queue (on the lane of the
    /// link's latency, when its key allows), or in the outbox of the shard
    /// that owns `to` — and returns its (empty) body slot.
    fn claim(&mut self, to: NodeId) -> &mut Option<M> {
        let latency = self.topology.latency(self.self_id, to);
        let key = self.next_key(self.now + latency);
        if let Some(router) = self.router.as_deref_mut() {
            if let Some(shard) = router.remote_shard(to) {
                return router.outbound[shard].claim(key, to, self.self_id);
            }
        }
        self.queue
            .claim_message_after(key, to, self.self_id, latency)
    }

    /// Claims the next ordering key from this node's private scheduling
    /// counter.
    fn next_key(&mut self, deliver_at: SimTime) -> EventKey {
        let seq = *self.send_seq;
        *self.send_seq += 1;
        EventKey {
            time: deliver_at,
            src: self.self_id,
            seq,
        }
    }

    /// Schedules a timer for this node to fire after `delay`, carrying
    /// `token`.  Timers are always local to the shard owning the node, and
    /// never touch a message-body slot.
    pub fn schedule_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let key = self.next_key(self.now + delay);
        self.queue.push_timer(key, self.self_id, token);
    }

    /// Requests that the simulation stop after the current callback returns.
    ///
    /// In sharded execution the request is honoured at the next conservative
    /// time-window boundary rather than at the next event; the SRLB
    /// experiment nodes never call `stop`, so run outputs stay identical
    /// across execution modes.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Mutable access to this **node's** deterministic random number
    /// generator.  Each node owns an independent stream forked from the run
    /// seed and the node id, so one node's draws never perturb another's —
    /// regardless of how the engine interleaves callbacks.
    pub fn rng(&mut self) -> &mut impl RngCore {
        &mut *self.rng
    }

    /// Draws a uniformly random index in `0..n` (convenience wrapper used by
    /// random candidate selection).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn random_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "random_index requires a non-empty range");
        (self.rng.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "node-3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn timer_token_is_ordered() {
        assert!(TimerToken(1) < TimerToken(2));
        assert_eq!(TimerToken::default(), TimerToken(0));
    }

    #[test]
    fn router_routes_only_foreign_ids() {
        let shard_of: Arc<[u32]> = Arc::from(vec![0u32, 1, 0].into_boxed_slice());
        let router: ShardRouter<u32> = ShardRouter::new(shard_of, 0, 2);
        assert_eq!(router.remote_shard(NodeId(0)), None);
        assert_eq!(router.remote_shard(NodeId(1)), Some(1));
        assert_eq!(router.remote_shard(NodeId(2)), None);
        // Out-of-plan ids are treated as local so the owning core drops them.
        assert_eq!(router.remote_shard(NodeId(99)), None);
        assert!(!format!("{router:?}").is_empty());
    }
}
