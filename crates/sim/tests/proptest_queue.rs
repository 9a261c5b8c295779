//! Property-based test of the event queue's split layout (heap entries,
//! latency lanes, per-slot records, per-slot bodies) against a sort-by-key
//! reference model.
//!
//! Random interleavings of message pushes, latency-hinted claims, timer
//! pushes, pops (by value, by head, bounded), `restore`, `admit` and
//! fault-style body discards must agree with the model on pop order, on
//! which body and target belong to which key, on `len` and on
//! `scheduled_total` — and must never create more slots than were ever
//! pending at once: freed slots (also a discarded body's) are reused.
//!
//! The model knows nothing of lanes: a latency hint may only change where
//! the queue keeps an event, never when it pops.  The hinted claims cover
//! what the engine does (`key.time = now + latency`, so a lane's keys mostly
//! rise) and what it never does (a hint unrelated to the key, so keys fall
//! below the lane's back key all the time), over more distinct latencies
//! than there are lanes and in no particular order.

use proptest::prelude::*;
use srlb_sim::event::{EventPayload, HeadKind, ScheduledEvent};
use srlb_sim::{EventKey, EventQueue, NodeId, SimDuration, SimTime, TimerToken};

/// Pending events never exceed this, so neither may the slab's slot count.
const CAPACITY: usize = 16;

/// A message body with a heap allocation of its own, so a body dropped
/// twice, leaked into the wrong event, or read after its slot was reused
/// shows up as a wrong value (or under Miri/ASan, as more).
type Body = Vec<u64>;

/// One step of the interleaving: `(operation, time, source, target, value)`.
type Op = (u8, u64, usize, usize, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..18, 0u64..40, 0usize..4, 0usize..8, any::<u64>()),
        300..301,
    )
}

/// Link latencies the hinted claims draw from: more than the queue has lanes
/// (`srlb_sim::event::LANES`), the zero-latency self link among them.
const LATENCIES: [u64; 7] = [0, 1, 2, 3, 5, 8, 13];
const _: () = assert!(LATENCIES.len() > srlb_sim::event::LANES);

/// The reference: pending events in a plain vector, popped by scanning for
/// the smallest key.
#[derive(Default)]
struct Model {
    pending: Vec<ScheduledEvent<Body>>,
    admitted: u64,
}

impl Model {
    fn pop_within(&mut self, bound: Option<SimTime>) -> Option<ScheduledEvent<Body>> {
        let (index, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, event)| event.key)?;
        if bound.is_some_and(|b| self.pending[index].key.time > b) {
            return None;
        }
        Some(self.pending.swap_remove(index))
    }
}

fn same_event(got: &Option<ScheduledEvent<Body>>, want: &Option<ScheduledEvent<Body>>) -> bool {
    match (got, want) {
        (None, None) => true,
        (Some(g), Some(w)) => g.key == w.key && g.target == w.target && g.payload == w.payload,
        _ => false,
    }
}

proptest! {
    #[test]
    fn queue_agrees_with_a_sort_by_key_model(ops in ops()) {
        let mut queue: EventQueue<Body> = EventQueue::with_capacity(CAPACITY);
        let capacity = queue.capacity();
        let mut model = Model::default();
        // Keys are globally unique in the engine (per-source counters); a
        // single counter gives the same guarantee here.
        let mut seq = 0u64;
        // The engine's clock: the time of the latest pop.
        let mut now = 0u64;

        for (op, time, src, target, value) in ops {
            let latency = LATENCIES[(value % LATENCIES.len() as u64) as usize];
            // Ops 15.. schedule like a node callback does, `latency` after
            // the clock; every other op at an arbitrary time.
            let time = if op >= 15 { now + latency } else { time };
            let key = EventKey { time: SimTime::from_nanos(time), src: NodeId(src), seq };
            seq += 1;
            let target = NodeId(target);
            let from = NodeId(src + 100);
            let message = EventPayload::Message { from, msg: vec![value, seq] };
            let timer = EventPayload::Timer { token: TimerToken(value) };
            // A full pending set turns every push into a pop.
            let pushes = !(6..12).contains(&op);
            let op = if model.pending.len() == CAPACITY && pushes { 6 } else { op };
            match op {
                // Latency-hinted claims, filled in place like `Context::send`.
                12.. => {
                    let hint = SimDuration::from_nanos(latency);
                    *queue.claim_message_after(key, target, from, hint) = Some(vec![value, seq]);
                    model.pending.push(ScheduledEvent { key, target, payload: message });
                    model.admitted += 1;
                }
                // In-place pushes.
                0 | 1 => {
                    queue.push_message(key, target, from, vec![value, seq]);
                    model.pending.push(ScheduledEvent { key, target, payload: message });
                    model.admitted += 1;
                }
                2 => {
                    queue.push_timer(key, target, TimerToken(value));
                    model.pending.push(ScheduledEvent { key, target, payload: timer });
                    model.admitted += 1;
                }
                // By-value pushes: `push` and `admit` count, `restore`
                // (after a pop of the same event) does not.
                3 => {
                    let payload = if value % 2 == 0 { message } else { timer };
                    queue.push(key, target, payload.clone());
                    model.pending.push(ScheduledEvent { key, target, payload });
                    model.admitted += 1;
                }
                4 => {
                    let event = ScheduledEvent { key, target, payload: message };
                    queue.admit(event.clone());
                    model.pending.push(event);
                    model.admitted += 1;
                }
                5 => {
                    let got = queue.pop();
                    prop_assert!(same_event(&got, &model.pop_within(None)));
                    if let Some(event) = got {
                        now = now.max(event.key.time.as_nanos());
                        queue.restore(event.clone());
                        model.pending.push(event);
                    }
                }
                // By-value pops, unbounded and bounded.
                6..=9 => {
                    let bound = (op >= 8).then(|| SimTime::from_nanos(time));
                    let got = queue.pop_within(bound);
                    prop_assert!(same_event(&got, &model.pop_within(bound)));
                    if let Some(event) = got {
                        now = now.max(event.key.time.as_nanos());
                    }
                }
                // Head pops: the body is taken, or — the fault layer's drop —
                // destroyed in place.
                _ => {
                    let bound = (value % 3 == 0).then(|| SimTime::from_nanos(time));
                    let want = model.pop_within(bound);
                    let got = queue.pop_head(bound);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(head), Some(want)) = (got, want) {
                        now = now.max(head.key.time.as_nanos());
                        prop_assert_eq!(head.key, want.key);
                        prop_assert_eq!(head.target, want.target);
                        match (head.kind, want.payload) {
                            (HeadKind::Timer { token }, EventPayload::Timer { token: t }) => {
                                prop_assert_eq!(token, t);
                            }
                            (
                                HeadKind::Message { from, body },
                                EventPayload::Message { from: f, msg },
                            ) => {
                                prop_assert_eq!(from, f);
                                prop_assert_eq!(queue.body(&body), &msg);
                                if op == 10 {
                                    queue.discard_body(body);
                                } else {
                                    prop_assert_eq!(queue.take_body(body), msg);
                                }
                            }
                            _ => prop_assert!(false, "message and timer confused"),
                        }
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.pending.len());
            prop_assert_eq!(queue.is_empty(), model.pending.is_empty());
            prop_assert_eq!(queue.scheduled_total(), model.admitted);
            // Every freed slot — a popped timer's, a taken body's, a
            // discarded body's — is reused before the slab grows.
            prop_assert!(queue.slot_count() <= CAPACITY);
            let earliest = model.pending.iter().map(|event| event.key).min();
            prop_assert_eq!(queue.peek_key(), earliest);
            prop_assert_eq!(queue.peek_time(), earliest.map(|key| key.time));
        }

        // What is left drains in key order, every body with its own key.
        while !model.pending.is_empty() {
            prop_assert!(same_event(&queue.pop(), &model.pop_within(None)));
        }
        prop_assert!(queue.pop().is_none());
        prop_assert_eq!(queue.capacity(), capacity, "the queue never grew");
    }
}
