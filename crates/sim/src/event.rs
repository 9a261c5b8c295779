//! The event queue.
//!
//! Events are ordered by an [`EventKey`]: delivery time first, then the
//! *scheduling* node's id, then a per-source sequence number.  Unlike a
//! global push counter, this key is a pure function of the scheduling node's
//! own history — two runs that deliver the same callbacks to each node in the
//! same order produce bit-identical keys no matter how the engine interleaves
//! work across batches or worker shards.  That property is what lets the
//! batched and sharded execution modes reproduce the serial loop exactly.
//!
//! ## Layout: one move in, one move out
//!
//! A queued event lives in up to three places, so that the only thing ever
//! copied at message size is the message itself, and only twice:
//!
//! * an **ordering structure** holds its key — the binary **heap** (32-byte
//!   `(key, slot)` entries; sift operations never see a payload) or one of a
//!   few FIFO **lanes** (see below);
//! * a **record** slab holds, per slot, the small `Copy` part of a *heap*
//!   event (`target` plus `Message { from }` or `Timer { token }`); a lane
//!   entry carries `target` and `from` inline and never touches its record;
//! * a **body** slab holds, per slot, the message — written once, straight
//!   from the sender's value into the slot [`EventQueue::claim_message`] /
//!   [`EventQueue::claim_message_after`] hands out, and moved out once by
//!   [`EventQueue::take_body`] right at the node callback.
//!
//! [`EventQueue::pop_head`] returns only the small parts; a timer never
//! touches the body slab on a warm queue, and a message the fault layer
//! drops is destroyed in place by [`EventQueue::discard_body`].  The by-value
//! [`EventQueue::push`] / [`EventQueue::pop`] family ([`EventPayload`],
//! [`ScheduledEvent`]) is a thin convenience layer over those primitives.
//!
//! ## Lanes: the messages that arrive already sorted
//!
//! Almost every message of a run is scheduled at `now + L` for one of a
//! handful of constant link latencies `L` (the paper's bridged L2 segment has
//! one; the rack/zone model three), and `now` never decreases, so the
//! messages of one latency are scheduled in nearly the order they will be
//! delivered in.  A sender that knows the latency passes it along
//! ([`EventQueue::claim_message_after`], which is what
//! [`Context::send`](crate::Context::send) uses); the queue keeps one FIFO
//! lane per latency — the first [`LANES`] distinct values it is shown, a
//! constant, not an option — and appends the message to that lane in O(1)
//! instead of sifting it through the heap.  The earliest event is then the
//! smallest key among the heap's top and the lanes' fronts: the same queue,
//! the same total order, every pop a handful of comparisons.
//!
//! **The guard.**  A message is appended to its lane *iff its key is greater
//! than the key at the lane's back*; everything else — the check failing, a
//! latency beyond the lane count, all timers, everything pushed without a
//! latency (cross-shard mail, the by-value family) — goes to the heap.  The
//! guard, not the latency, is what makes every lane sorted by key, and that
//! is all the minimum-of-fronts pop needs to be exact.  It cannot be dropped
//! on the grounds that "the latency is constant": a lane of constant latency
//! is sorted by *time*, not by *key*.  Keys order ties by the **scheduling**
//! node, while ties are dispatched in the order of the node that scheduled
//! *them* — so two callbacks at one `now` can run on node X and then on node
//! Y < X, and schedule `(now + L, X, ·)` before `(now + L, Y, ·)`.  The second
//! key is the smaller one; appended blindly it would sit behind the first
//! and pop after it.  With the guard it takes the heap and pops first.

use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::node::{NodeId, TimerToken};
use crate::time::{SimDuration, SimTime};

/// What an event delivers to its target node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventPayload<M> {
    /// A message from another node.
    Message {
        /// The sending node.
        from: NodeId,
        /// The message itself.
        msg: M,
    },
    /// A timer scheduled by the target node itself.
    Timer {
        /// The token the node attached when scheduling the timer.
        token: TimerToken,
    },
}

/// Globally unique, interleaving-independent ordering key of a scheduled
/// event.
///
/// Ordering is lexicographic: `(time, src, seq)`.  `src` is the node that
/// *scheduled* the event and `seq` is that node's private scheduling counter,
/// so the key depends only on the scheduling node's own callback history —
/// never on how the engine happened to interleave other nodes' work.  Keys
/// are globally unique because each node's counter never repeats a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Delivery time.
    pub time: SimTime,
    /// The node that scheduled the event (tie-break #1).
    pub src: NodeId,
    /// The scheduling node's private sequence counter (tie-break #2; FIFO
    /// per source).
    pub seq: u64,
}

/// A whole event by value, as [`EventQueue::pop`] returns it.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<M> {
    /// Ordering key (delivery time + scheduling source + per-source seq).
    pub key: EventKey,
    /// Node the event is delivered to.
    pub target: NodeId,
    /// The payload.
    pub payload: EventPayload<M>,
}

/// A heap entry: the ordering key plus the slab slot holding the rest of the
/// event.  Entries are small (32 bytes) and `Copy`, so heap sift operations
/// move fixed-size keys instead of message payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    key: EventKey,
    slot: u32,
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest key pops first.
        // Keys are globally unique; the slot tie-break only keeps the order
        // total for hypothetical duplicates.
        (other.key, other.slot).cmp(&(self.key, self.slot))
    }
}

/// The small, `Copy` part of a heap event that is not its ordering key.
#[derive(Debug, Clone, Copy)]
struct SlotRecord {
    target: NodeId,
    kind: RecordKind,
}

#[derive(Debug, Clone, Copy)]
enum RecordKind {
    Message { from: NodeId },
    Timer { token: TimerToken },
}

/// What a freshly grown record slot holds until a heap event writes it (a
/// lane message never does).
const UNWRITTEN: SlotRecord = SlotRecord {
    target: NodeId(0),
    kind: RecordKind::Timer {
        token: TimerToken(0),
    },
};

/// How many distinct link latencies get a FIFO lane of their own — the
/// first ones the queue is shown; messages of any further latency take the
/// heap.  The paper's topology has one latency and the rack/zone model three
/// (plus the zero-latency self link), and every pop compares one key per
/// lane in use, so a larger number buys nothing.
pub const LANES: usize = 4;

/// A lane entry: everything [`EventQueue::pop_head`] returns for a message
/// (only messages ride lanes), so neither scheduling nor popping it touches
/// the record slab.  The body waits in body slot `slot`.
#[derive(Debug, Clone, Copy)]
struct LaneEntry {
    key: EventKey,
    target: NodeId,
    from: NodeId,
    slot: u32,
}

/// Where the earliest pending event sits.
#[derive(Debug, Clone, Copy)]
enum Earliest {
    Heap,
    Lane(usize),
}

/// Claim on the body of a popped message, still sitting in the queue's body
/// slab.  Redeem it exactly once, with [`EventQueue::take_body`] or
/// [`EventQueue::discard_body`], on the queue that issued it; it is neither
/// `Copy` nor `Clone`, so it cannot be redeemed twice.  Dropping it without
/// redeeming leaks the slot until the queue is dropped.
#[derive(Debug)]
pub struct BodySlot(u32);

/// What a popped event delivers, without the message body.
#[derive(Debug)]
pub enum HeadKind {
    /// A message from `from`; the body waits behind `body`.
    Message {
        /// The sending node.
        from: NodeId,
        /// Claim on the message body.
        body: BodySlot,
    },
    /// A timer scheduled by the target node itself.
    Timer {
        /// The token the node attached when scheduling the timer.
        token: TimerToken,
    },
}

/// A popped event's small parts, as [`EventQueue::pop_head`] returns them.
#[derive(Debug)]
pub struct EventHead {
    /// Ordering key.
    pub key: EventKey,
    /// Node the event is delivered to.
    pub target: NodeId,
    /// Message or timer.
    pub kind: HeadKind,
}

/// A key-ordered queue of events.
///
/// See the [module docs](self) for the heap / lanes / record / body split.
/// No per-event `Box` is involved and freed slots are reused, so pushing and
/// popping events on a warm queue (one whose heap, lanes and slabs have
/// already grown to their high-water mark) performs no heap allocation at
/// all.  This property is pinned by the counting-allocator test in
/// `tests/alloc_free_sim.rs`.
///
/// Because [`EventKey`]s are globally unique, the pop order is a pure
/// function of the *set* of pending events — independent of insertion order
/// and of which events happened to ride a lane — which is what makes
/// cross-shard event exchange deterministic.
pub struct EventQueue<M> {
    heap: BinaryHeap<HeapEntry>,
    /// `lanes[i]` holds, sorted by key and front first, messages scheduled
    /// `lane_latency[i]` ahead; only the first `lanes_in_use` have a latency.
    lanes: [VecDeque<LaneEntry>; LANES],
    lane_latency: [SimDuration; LANES],
    lanes_in_use: usize,
    /// Per-slot record; `records.len() == bodies.len()` always.
    records: Vec<SlotRecord>,
    /// Per-slot message body: `Some` exactly while a message occupies the
    /// slot (queued, or popped and not yet redeemed).
    bodies: Vec<Option<M>>,
    free: Vec<u32>,
    admitted: u64,
}

impl<M> fmt::Debug for EventQueue<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lanes: Vec<_> = (0..self.lanes_in_use)
            .map(|i| (self.lane_latency[i], self.lanes[i].len()))
            .collect();
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("in_heap", &self.heap.len())
            .field("in_lanes", &lanes)
            .field("admitted", &self.admitted)
            .finish()
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events, so
    /// the first `capacity` pushes never touch the allocator.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            lanes: std::array::from_fn(|_| VecDeque::with_capacity(capacity)),
            lane_latency: [SimDuration::ZERO; LANES],
            lanes_in_use: 0,
            records: Vec::with_capacity(capacity),
            bodies: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            admitted: 0,
        }
    }

    /// Number of pending events the queue can hold without reallocating,
    /// wherever they land — the heap or any one lane.
    pub fn capacity(&self) -> usize {
        self.lanes
            .iter()
            .map(VecDeque::capacity)
            .chain([
                self.heap.capacity(),
                self.records.capacity(),
                self.bodies.capacity(),
            ])
            .min()
            .unwrap_or(0)
    }

    /// Reserves room for at least `additional` more pending events, wherever
    /// they land.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        for lane in &mut self.lanes {
            lane.reserve(additional);
        }
        self.records.reserve(additional);
        self.bodies.reserve(additional);
        self.free.reserve(additional);
    }

    /// A free slot — reused if one exists, freshly grown otherwise — whose
    /// body is `None`.
    #[inline]
    fn free_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.bodies[slot as usize].is_none());
                slot
            }
            None => {
                let slot = u32::try_from(self.records.len()).expect("fewer than 2^32 pending"); // srlb-lint: allow(panic-hygiene) -- 2^32 pending events exceeds any feasible memory budget; overflow is unreachable in practice
                self.records.push(UNWRITTEN);
                self.bodies.push(None);
                slot
            }
        }
    }

    /// Queues `record` under `key` on the heap and returns its slot.
    #[inline]
    fn insert(&mut self, key: EventKey, record: SlotRecord) -> u32 {
        let slot = self.free_slot();
        self.records[slot as usize] = record;
        self.heap.push(HeapEntry { key, slot });
        slot
    }

    /// The lane that carries messages scheduled `latency` ahead: the one
    /// already assigned to it, or the next unassigned one; `None` once
    /// [`LANES`] other latencies have taken them all.
    #[inline]
    fn lane_of(&mut self, latency: SimDuration) -> Option<usize> {
        let in_use = self.lanes_in_use;
        if let Some(lane) = self.lane_latency[..in_use]
            .iter()
            .position(|&l| l == latency)
        {
            return Some(lane);
        }
        (in_use < LANES).then(|| {
            self.lane_latency[in_use] = latency;
            self.lanes_in_use += 1;
            in_use
        })
    }

    /// Schedules a message from `from` for delivery to `target`, ordered by
    /// `key`, and returns its body slot for the caller to fill: the message
    /// is written straight from the sender's value into the slab,
    /// `*queue.claim_message(..) = Some(msg)`, with no by-value hop between.
    /// The slot must be filled before the event is popped.
    #[inline]
    pub fn claim_message(&mut self, key: EventKey, target: NodeId, from: NodeId) -> &mut Option<M> {
        self.admitted += 1;
        let record = SlotRecord {
            target,
            kind: RecordKind::Message { from },
        };
        let slot = self.insert(key, record);
        &mut self.bodies[slot as usize]
    }

    /// [`EventQueue::claim_message`] for a sender that knows the message is
    /// scheduled `latency` after its current time (`key.time = now +
    /// latency`): the message rides the FIFO lane of that latency when its
    /// key is greater than the lane's back key, and takes the heap otherwise
    /// (see the [module docs](self)).  `latency` only picks the lane; the
    /// pop order depends on `key` alone, whatever is passed here.
    #[inline]
    pub fn claim_message_after(
        &mut self,
        key: EventKey,
        target: NodeId,
        from: NodeId,
        latency: SimDuration,
    ) -> &mut Option<M> {
        let Some(lane) = self.lane_of(latency) else {
            return self.claim_message(key, target, from);
        };
        // The guard: a lane stays sorted by key because nothing is appended
        // that is not greater than its back.
        if self.lanes[lane].back().is_some_and(|back| back.key >= key) {
            return self.claim_message(key, target, from);
        }
        self.admitted += 1;
        let slot = self.free_slot();
        self.lanes[lane].push_back(LaneEntry {
            key,
            target,
            from,
            slot,
        });
        &mut self.bodies[slot as usize]
    }

    /// Schedules `msg` from `from` for delivery to `target`, ordered by
    /// `key`.
    #[inline]
    pub fn push_message(&mut self, key: EventKey, target: NodeId, from: NodeId, msg: M) {
        let slot = self.claim_message(key, target, from);
        *slot = Some(msg);
    }

    /// Schedules a timer carrying `token` for `target`, ordered by `key`.
    /// On a warm queue no message-body slot is touched.
    #[inline]
    pub fn push_timer(&mut self, key: EventKey, target: NodeId, token: TimerToken) {
        self.admitted += 1;
        let record = SlotRecord {
            target,
            kind: RecordKind::Timer { token },
        };
        self.insert(key, record);
    }

    /// Key and whereabouts of the earliest pending event: the smallest key
    /// among the heap's top and the front of every lane in use.
    #[inline]
    fn earliest(&self) -> Option<(EventKey, Earliest)> {
        let mut best = self.heap.peek().map(|top| (top.key, Earliest::Heap));
        for (index, lane) in self.lanes[..self.lanes_in_use].iter().enumerate() {
            if let Some(front) = lane.front() {
                if best.is_none_or(|(key, _)| front.key < key) {
                    best = Some((front.key, Earliest::Lane(index)));
                }
            }
        }
        best
    }

    /// Pops the earliest event's small parts if its delivery time is at or
    /// before `bound` (no bound = always): a single fused peek-and-pop, the
    /// engine loop's per-event queue operation.  A message's body stays in
    /// the slab until its [`BodySlot`] is redeemed.
    #[inline]
    pub fn pop_head(&mut self, bound: Option<SimTime>) -> Option<EventHead> {
        let (key, earliest) = self.earliest()?;
        if bound.is_some_and(|u| key.time > u) {
            return None;
        }
        match earliest {
            Earliest::Heap => {
                let HeapEntry { key, slot } = self.heap.pop()?;
                let record = self.records[slot as usize];
                let kind = match record.kind {
                    RecordKind::Message { from } => HeadKind::Message {
                        from,
                        body: BodySlot(slot),
                    },
                    RecordKind::Timer { token } => {
                        self.free.push(slot);
                        HeadKind::Timer { token }
                    }
                };
                Some(EventHead {
                    key,
                    target: record.target,
                    kind,
                })
            }
            Earliest::Lane(lane) => {
                let entry = self.lanes[lane].pop_front()?;
                Some(EventHead {
                    key: entry.key,
                    target: entry.target,
                    kind: HeadKind::Message {
                        from: entry.from,
                        body: BodySlot(entry.slot),
                    },
                })
            }
        }
    }

    /// A popped message's body, still in the slab (for tracing it before the
    /// hand-off).
    pub fn body(&self, body: &BodySlot) -> &M {
        self.bodies[body.0 as usize]
            .as_ref()
            // srlb-lint: allow(panic-hygiene) -- slab invariant: a BodySlot is issued only for a slot holding a message and is redeemed at most once, so the body is still there
            .expect("an unredeemed body slot holds its message")
    }

    /// Moves a popped message's body out of the slab and frees its slot.
    #[inline]
    pub fn take_body(&mut self, body: BodySlot) -> M {
        // Freed first, so that nothing stands between the move out of the
        // slab and the return: anything in between costs a second copy.
        self.free.push(body.0);
        self.bodies[body.0 as usize]
            .take()
            // srlb-lint: allow(panic-hygiene) -- slab invariant: a BodySlot is issued only for a slot holding a message and is redeemed at most once, so the body is still there
            .expect("an unredeemed body slot holds its message")
    }

    /// Destroys a popped message's body in place (no copy out) and frees its
    /// slot — what the engine does with a message the fault layer drops or
    /// whose target does not exist.
    pub fn discard_body(&mut self, body: BodySlot) {
        debug_assert!(self.bodies[body.0 as usize].is_some());
        self.bodies[body.0 as usize] = None;
        self.free.push(body.0);
    }

    /// Schedules `payload` for delivery to `target`, ordered by `key`.
    #[inline]
    pub fn push(&mut self, key: EventKey, target: NodeId, payload: EventPayload<M>) {
        match payload {
            EventPayload::Message { from, msg } => self.push_message(key, target, from, msg),
            EventPayload::Timer { token } => self.push_timer(key, target, token),
        }
    }

    /// Admits an already-built event (first entry into this queue — counted
    /// in [`EventQueue::scheduled_total`]).
    pub fn admit(&mut self, event: ScheduledEvent<M>) {
        self.push(event.key, event.target, event.payload);
    }

    /// Re-inserts an event that was previously popped from **this** queue,
    /// preserving its key.  Unlike [`EventQueue::admit`] this does not count
    /// towards [`EventQueue::scheduled_total`].
    pub fn restore(&mut self, event: ScheduledEvent<M>) {
        self.admit(event);
        self.admitted -= 1;
    }

    /// [`EventQueue::pop_head`] plus [`EventQueue::take_body`]: the whole
    /// event by value.  (Inlined, like `push` and `pop`, so the intermediate
    /// head dissolves in the caller; out of line the round trip through it
    /// measured ~7 ns per pop.)
    #[inline]
    pub fn pop_within(&mut self, bound: Option<SimTime>) -> Option<ScheduledEvent<M>> {
        let head = self.pop_head(bound)?;
        let payload = match head.kind {
            HeadKind::Message { from, body } => EventPayload::Message {
                from,
                msg: self.take_body(body),
            },
            HeadKind::Timer { token } => EventPayload::Timer { token },
        };
        Some(ScheduledEvent {
            key: head.key,
            target: head.target,
            payload,
        })
    }

    /// Removes and returns the event with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<M>> {
        self.pop_within(None)
    }

    /// Delivery time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|key| key.time)
    }

    /// Ordering key of the earliest event, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.earliest().map(|(key, _)| key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slab slots created so far, in use or free: the high-water mark of
    /// events held at once (pending, or popped with the body not yet
    /// redeemed).  It stops growing once freed slots cover every push.
    pub fn slot_count(&self) -> usize {
        self.records.len()
    }

    /// Total number of events ever scheduled on (or ingested into) this
    /// queue.  Re-insertions via [`EventQueue::restore`] are not counted.
    pub fn scheduled_total(&self) -> u64 {
        self.admitted
    }
}

/// Cross-shard messages in transit (an outbox, a mailbox, or the
/// coordinator's pending set).  Only messages cross shards — timers are
/// always local to their node — so heads and bodies sit in parallel vectors
/// and a body is moved once in (the sender fills the slot [`Mail::claim`]
/// returns) and once out, into the destination queue's slab
/// ([`Mail::deliver_into`]).
pub(crate) struct Mail<M> {
    /// `(key, target, from)` per held message.
    heads: Vec<(EventKey, NodeId, NodeId)>,
    /// Body slots: `bodies[i]` belongs to `heads[i]`.  Slots past
    /// `heads.len()` are spent ones kept (as `None`) for reuse, so a warm
    /// mailbox never pushes a message-sized `None`.
    bodies: Vec<Option<M>>,
}

impl<M> Default for Mail<M> {
    fn default() -> Self {
        Mail {
            heads: Vec::new(),
            bodies: Vec::new(),
        }
    }
}

impl<M> Mail<M> {
    /// Adds a message head and returns its (empty) body slot for the caller
    /// to fill, exactly like [`EventQueue::claim_message`].
    #[inline]
    pub(crate) fn claim(&mut self, key: EventKey, target: NodeId, from: NodeId) -> &mut Option<M> {
        let index = self.heads.len();
        self.heads.push((key, target, from));
        if index == self.bodies.len() {
            self.bodies.push(None);
        }
        &mut self.bodies[index]
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Earliest delivery time among the held messages, if any.
    pub(crate) fn min_time(&self) -> Option<SimTime> {
        self.heads.iter().map(|(key, _, _)| key.time).min()
    }

    /// Moves every held message onto the end of `other`.
    pub(crate) fn append_to(&mut self, other: &mut Mail<M>) {
        for ((key, target, from), body) in self.heads.drain(..).zip(&mut self.bodies) {
            std::mem::swap(other.claim(key, target, from), body);
        }
    }

    /// Admits every held message into `queue` (counted in its
    /// [`EventQueue::scheduled_total`]), leaving this mail empty with its
    /// buffers intact.
    pub(crate) fn deliver_into(&mut self, queue: &mut EventQueue<M>) {
        for ((key, target, from), body) in self.heads.drain(..).zip(&mut self.bodies) {
            // The claimed slot is `None`: the swap moves the body in and
            // leaves this slot spent, with no temporary in between.
            std::mem::swap(queue.claim_message(key, target, from), body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, src: usize, seq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_nanos(t),
            src: NodeId(src),
            seq,
        }
    }

    fn msg(queue: &mut EventQueue<u32>, k: EventKey, target: usize, m: u32) {
        queue.push(
            k,
            NodeId(target),
            EventPayload::Message {
                from: k.src,
                msg: m,
            },
        );
    }

    fn drain(q: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop())
            .filter_map(|e| match e.payload {
                EventPayload::Message { msg, .. } => Some(msg),
                EventPayload::Timer { .. } => None,
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        msg(&mut q, key(30, 0, 0), 1, 3);
        msg(&mut q, key(10, 0, 1), 1, 1);
        msg(&mut q, key(20, 0, 2), 1, 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn same_source_ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            msg(&mut q, key(5, 0, i as u64), 0, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cross_source_ties_order_by_source_then_seq() {
        let mut q = EventQueue::new();
        msg(&mut q, key(5, 2, 0), 0, 20);
        msg(&mut q, key(5, 1, 1), 0, 11);
        msg(&mut q, key(5, 1, 0), 0, 10);
        assert_eq!(drain(&mut q), vec![10, 11, 20]);
    }

    #[test]
    fn pop_order_is_independent_of_insertion_order() {
        // The same *set* of events pops identically no matter the push order
        // — the property cross-shard ingestion relies on.
        let keys = [key(5, 3, 0), key(5, 1, 7), key(4, 9, 2), key(5, 1, 6)];
        let mut forward = EventQueue::new();
        let mut backward = EventQueue::new();
        for (i, &k) in keys.iter().enumerate() {
            msg(&mut forward, k, 0, i as u32);
        }
        for (i, &k) in keys.iter().enumerate().rev() {
            msg(&mut backward, k, 0, i as u32);
        }
        assert_eq!(drain(&mut forward), drain(&mut backward));
    }

    #[test]
    fn heads_pop_without_bodies_and_slots_are_reused() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_message(key(1, 0, 0), NodeId(4), NodeId(9), 70);
        q.push_timer(key(2, 0, 1), NodeId(5), TimerToken(3));
        q.push_message(key(3, 0, 2), NodeId(6), NodeId(9), 90);
        assert_eq!(q.records.len(), 3);

        // A dropped message: the body is destroyed in place, the slot freed.
        let head = q.pop_head(None).unwrap();
        assert_eq!((head.key, head.target), (key(1, 0, 0), NodeId(4)));
        let HeadKind::Message { from, body } = head.kind else {
            panic!("expected a message head");
        };
        assert_eq!(from, NodeId(9));
        q.discard_body(body);

        // A timer frees its slot at the pop and never holds a body.
        let head = q.pop_head(None).unwrap();
        assert!(matches!(
            head.kind,
            HeadKind::Timer {
                token: TimerToken(3)
            }
        ));
        assert_eq!(q.free.len(), 2);
        assert!(
            q.pop_head(Some(SimTime::from_nanos(2))).is_none(),
            "bounded"
        );

        // Both freed slots are reused before the slabs grow.
        q.push_message(key(4, 0, 3), NodeId(7), NodeId(9), 40);
        q.push_timer(key(5, 0, 4), NodeId(7), TimerToken(8));
        assert_eq!(q.records.len(), 3);
        assert_eq!(q.bodies.len(), 3);
        assert_eq!(drain(&mut q), vec![90, 40], "bodies stay paired with keys");
        assert_eq!(q.scheduled_total(), 5);
    }

    #[test]
    fn what_the_queue_moves_stays_small() {
        // Sift operations move heap entries, a lane append and pop move a
        // lane entry, and every heap pop copies a record; none may silently
        // grow towards message size.
        assert!(std::mem::size_of::<HeapEntry>() <= 32);
        assert!(std::mem::size_of::<LaneEntry>() <= 48);
        assert!(std::mem::size_of::<SlotRecord>() <= 32);
        assert!(std::mem::size_of::<EventHead>() <= 64);
    }

    /// Claims a message scheduled `latency` ahead and fills its body.
    fn after(queue: &mut EventQueue<u32>, k: EventKey, latency: u64, m: u32) {
        let slot = queue.claim_message_after(k, NodeId(0), k.src, SimDuration::from_nanos(latency));
        *slot = Some(m);
    }

    #[test]
    fn same_time_sources_out_of_id_order_pop_in_key_order() {
        // Two callbacks at one `now`, on node 5 and then on node 2 (a tie
        // dispatches in the order of whoever scheduled *it*), each send over
        // the same 50 ns link: the second key is the smaller one.  Appended
        // blindly to the lane it would pop second.
        let mut q: EventQueue<u32> = EventQueue::new();
        after(&mut q, key(150, 5, 0), 50, 55);
        after(&mut q, key(150, 2, 0), 50, 22);
        assert_eq!(q.lanes[0].len(), 1, "the inverted key took the heap");
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.peek_key(), Some(key(150, 2, 0)));
        // Later keys of either source ride the lane again.
        after(&mut q, key(150, 5, 1), 50, 56);
        after(&mut q, key(151, 2, 1), 50, 23);
        assert_eq!(q.lanes[0].len(), 3);
        assert_eq!(drain(&mut q), vec![22, 55, 56, 23]);
    }

    #[test]
    fn lanes_count_in_every_view_of_the_queue() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(8);
        assert_eq!(q.capacity(), 8, "a lane bounds the capacity like the heap");
        after(&mut q, key(70, 1, 0), 30, 1);
        after(&mut q, key(60, 1, 1), 20, 2);
        q.push_timer(key(65, 1, 2), NodeId(1), TimerToken(0));
        assert_eq!(
            (q.lanes[0].len(), q.lanes[1].len(), q.heap.len()),
            (1, 1, 1)
        );
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(
            q.peek_key(),
            Some(key(60, 1, 1)),
            "a lane front is the head"
        );
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(60)));
        assert!(
            q.pop_head(Some(SimTime::from_nanos(59))).is_none(),
            "bounded"
        );
        let shown = format!("{q:?}");
        assert!(
            shown.contains("len: 3") && shown.contains("in_heap: 1"),
            "{shown}"
        );
        assert_eq!(drain(&mut q), vec![2, 1]);
        assert!(q.is_empty());

        // Reserving makes room wherever the events land.
        q.reserve(100);
        assert!(q.capacity() >= 100);
    }

    #[test]
    fn latencies_beyond_the_lane_count_take_the_heap() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for latency in 1..=LANES as u64 + 2 {
            after(
                &mut q,
                key(100 + latency, 0, latency),
                latency,
                latency as u32,
            );
        }
        assert_eq!(q.lanes_in_use, LANES);
        assert_eq!(q.heap.len(), 2);
        // Lane messages never wrote their record; heap ones did.
        assert_eq!(q.len(), LANES + 2);
        assert_eq!(drain(&mut q), (1..=LANES as u32 + 2).collect::<Vec<_>>());
    }

    #[test]
    fn restore_preserves_key_and_is_not_recounted() {
        let mut q = EventQueue::new();
        msg(&mut q, key(5, 0, 0), 0, 1);
        msg(&mut q, key(6, 0, 1), 0, 2);
        let first = q.pop().unwrap();
        q.restore(first);
        assert_eq!(q.scheduled_total(), 2, "restore does not re-count");
        assert_eq!(drain(&mut q), vec![1, 2]);
    }

    #[test]
    fn len_and_peek() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.peek_key(), None);
        msg(&mut q, key(42, 7, 3), 0, 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.peek_key(), Some(key(42, 7, 3)));
        assert_eq!(q.scheduled_total(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn timers_and_messages_share_the_queue() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(
            key(1, 0, 0),
            NodeId(0),
            EventPayload::Timer {
                token: TimerToken(9),
            },
        );
        msg(&mut q, key(2, 0, 1), 0, 7);
        assert!(matches!(
            q.pop().unwrap().payload,
            EventPayload::Timer {
                token: TimerToken(9)
            }
        ));
        assert!(matches!(
            q.pop().unwrap().payload,
            EventPayload::Message { msg: 7, .. }
        ));
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u32> = EventQueue::default();
        assert!(q.is_empty());
        assert!(!format!("{q:?}").is_empty());
    }
}
