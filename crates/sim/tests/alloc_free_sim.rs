//! Asserts that the simulator's event queue performs **zero heap
//! allocations** per event in steady state: events are stored inline in the
//! backing binary heap and latency lanes (no per-event `Box` or other
//! indirection), so once those have grown to their high-water mark,
//! scheduling and delivering events never touches the allocator.  The ECMP
//! steering fast path is pinned alloc-free the same way.
//!
//! The counter is **per-thread**: the libtest harness runs its own
//! bookkeeping (progress output, timeouts) on other threads whose
//! allocations would otherwise race into a counted section on a loaded
//! machine, so only allocations made by the measuring thread itself are
//! counted.  Every assertion is a strict single-pass `== 0` — a lazily
//! allocated structure on the first warm operation fails immediately.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use srlb_sim::{
    Context, EventKey, EventQueue, Network, Node, NodeId, RunUntil, SimDuration, SimTime,
    TimerToken, Topology,
};

/// Wraps the system allocator, counting every allocation of the current
/// thread.
struct CountingAllocator;

std::thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the current thread's allocation count; `try_with` so allocations
/// during thread teardown (after TLS destruction) stay safe to count-skip.
fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter has no
// effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` and returns `(allocations performed by this thread, result)`.
fn counting_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// A ping-pong node holding no growable state, so a running network's only
/// possible allocation source is the engine itself.
struct Counter {
    peer: Option<NodeId>,
    bounces: u32,
    received: u64,
}

impl Node<u64> for Counter {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, 0);
        }
    }
    fn on_message(&mut self, msg: u64, from: NodeId, ctx: &mut Context<'_, u64>) {
        self.received += 1;
        if msg < self.bounces as u64 {
            ctx.send(from, msg + 1);
        }
    }
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<'_, u64>) {}
}

#[test]
fn event_scheduling_is_allocation_free_in_steady_state() {
    // --- EventQueue: warm push/pop cycles never allocate -------------------
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(64);
    let capacity = queue.capacity();
    assert!(capacity >= 64);

    let (allocs, ()) = counting_allocs(|| {
        // Interleave pushes and pops, keeping the queue within its initial
        // capacity: 10 000 events through a warm queue, zero allocations.
        for round in 0..1_000u64 {
            for i in 0..10u64 {
                queue.push(
                    EventKey {
                        time: SimTime::from_nanos(round * 100 + i),
                        src: NodeId(0),
                        seq: round * 10 + i,
                    },
                    NodeId((i % 3) as usize),
                    srlb_sim::event::EventPayload::Message {
                        from: NodeId(0),
                        msg: round ^ i,
                    },
                );
            }
            for _ in 0..10 {
                queue.pop().expect("queue holds the events just pushed");
            }
        }
    });
    assert_eq!(allocs, 0, "warm EventQueue push/pop must not allocate");
    assert_eq!(queue.capacity(), capacity, "heap never grew");
    assert_eq!(queue.scheduled_total(), 10_000);

    // --- EventQueue, lane path: latency-hinted claims never allocate -------
    // What `Context::send` does: the key is `latency` after a rising clock,
    // so every message rides the lane of its latency (three of them here).
    let lane_round = |queue: &mut EventQueue<u64>, round: u64| {
        for i in 0..9u64 {
            let latency = [50, 15, 300][(i % 3) as usize];
            let key = EventKey {
                time: SimTime::from_nanos(1_000_000 + round * 10 + latency),
                src: NodeId(0),
                seq: 10_000 + round * 9 + i,
            };
            let hint = SimDuration::from_nanos(latency);
            *queue.claim_message_after(key, NodeId(1), NodeId(0), hint) = Some(round ^ i);
        }
    };
    lane_round(&mut queue, 0);
    let shown = format!("{queue:?}");
    assert!(
        shown.contains("len: 9") && shown.contains("in_heap: 0"),
        "hinted claims with rising keys ride the lanes: {shown}"
    );
    let (allocs, ()) = counting_allocs(|| {
        for round in 1..=1_000u64 {
            for _ in 0..9 {
                queue.pop().expect("queue holds the events just claimed");
            }
            lane_round(&mut queue, round);
        }
    });
    assert_eq!(
        allocs, 0,
        "warm EventQueue lane claim/pop must not allocate"
    );
    assert_eq!(queue.capacity(), capacity, "no lane ever grew");
    assert_eq!(queue.len(), 9);

    // --- Network: a warmed-up engine delivers events without allocating ----
    let mut net: Network<u64> = Network::new(1, Topology::datacenter());
    let a = net.add_node(Counter {
        peer: None,
        bounces: u32::MAX,
        received: 0,
    });
    // Warm-up segment: grows the event heap (and any lazy engine state) to
    // its steady-state footprint.
    net.add_node(Counter {
        peer: Some(a),
        bounces: 200,
        received: 0,
    });
    net.run_until(RunUntil::Drained);

    // Steady state: another ping-pong burst through the same engine.
    let b2 = net.add_node(Counter {
        peer: Some(a),
        bounces: 200,
        received: 0,
    });
    let (allocs, stats) = counting_allocs(|| net.run_until(RunUntil::Drained));
    assert_eq!(
        allocs, 0,
        "steady-state event delivery must not allocate (got {allocs})"
    );
    assert!(stats.messages_delivered >= 400);
    let b2_node: Counter = net.take_node(b2).expect("counter present");
    assert!(b2_node.received > 0);

    // --- Batched loop: same-timestamp bursts stay alloc-free ---------------
    // A fan node delivers 8 messages per round at one shared timestamp, so
    // every round exercises the same-time group draining and held-node reuse
    // paths of the batched loop.  After a warm-up segment grew the event
    // heap to its high-water mark, steady-state batching must never
    // allocate.
    struct Fan {
        sinks: Vec<NodeId>,
        remaining: u32,
    }
    impl Node<u64> for Fan {
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.schedule_timer(SimDuration::from_micros(100), TimerToken(0));
        }
        fn on_message(&mut self, _m: u64, _f: NodeId, _c: &mut Context<'_, u64>) {}
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, u64>) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            for &sink in &self.sinks {
                ctx.send(sink, u64::from(self.remaining));
            }
            ctx.schedule_timer(SimDuration::from_micros(100), TimerToken(0));
        }
    }
    let mut net: Network<u64> = Network::new(2, Topology::datacenter());
    let sinks: Vec<NodeId> = (0..8)
        .map(|_| {
            net.add_node(Counter {
                peer: None,
                bounces: 0,
                received: 0,
            })
        })
        .collect();
    let fan = net.add_node(Fan {
        sinks,
        remaining: 50,
    });
    net.run_until(RunUntil::Drained); // warm-up: grows heap + batch scratch
    net.control::<Fan, _>(fan, |f, ctx| {
        f.remaining = 50;
        ctx.schedule_timer(SimDuration::from_micros(100), TimerToken(0));
    })
    .expect("fan node present");
    let (allocs, stats) = counting_allocs(|| net.run_until(RunUntil::Drained));
    assert_eq!(
        allocs, 0,
        "steady-state batched delivery must not allocate (got {allocs})"
    );
    assert!(stats.messages_delivered >= 800);

    // --- Fault layer: a warm lossy delivery path never allocates -----------
    // Every fault-rule class is armed at once — wildcard probabilistic loss,
    // a one-shot drop, a down window and a bounded queue on the fan's first
    // sink — so each delivery runs the full judge path (coin hash, link
    // state lookup, queue drain).  Timer-driven fan rounds keep the event
    // chain alive through drops; after a warm-up segment populated the lazy
    // link-state table, steady-state judged delivery must be alloc-free.
    let mut net: Network<u64> = Network::new(4, Topology::datacenter());
    let sinks: Vec<NodeId> = (0..8)
        .map(|_| {
            net.add_node(Counter {
                peer: None,
                bounces: 0,
                received: 0,
            })
        })
        .collect();
    let first_sink = sinks[0];
    let fan = net.add_node(Fan {
        sinks,
        remaining: 50,
    });
    net.set_faults(&srlb_sim::FaultConfig {
        loss: vec![srlb_sim::LossRule {
            link: srlb_sim::LinkMatch {
                from: None,
                to: None,
            },
            probability: 0.3,
        }],
        drops: vec![srlb_sim::OneShotDrop {
            from: fan,
            to: first_sink,
            packet: 3,
        }],
        down: vec![srlb_sim::DownWindow {
            link: srlb_sim::LinkMatch {
                from: Some(fan),
                to: Some(first_sink),
            },
            down_from: SimTime::from_nanos(1_000_000),
            down_until: SimTime::from_nanos(2_000_000),
        }],
        queues: vec![srlb_sim::QueueRule {
            from: fan,
            to: first_sink,
            capacity: 2,
            service: SimDuration::from_micros(400),
        }],
    });
    net.run_until(RunUntil::Drained); // warm-up: grows heap + link states
    net.control::<Fan, _>(fan, |f, ctx| {
        f.remaining = 50;
        ctx.schedule_timer(SimDuration::from_micros(100), TimerToken(0));
    })
    .expect("fan node present");
    let (allocs, stats) = counting_allocs(|| net.run_until(RunUntil::Drained));
    assert_eq!(
        allocs, 0,
        "steady-state lossy delivery must not allocate (got {allocs})"
    );
    let dropped = stats.dropped_injected + stats.dropped_queue + stats.dropped_link_down;
    assert!(dropped > 0, "the armed fault rules actually fired");
    assert!(stats.messages_delivered > 0);

    // --- ECMP steering: per-packet tier selection never allocates ----------
    let members: Vec<NodeId> = (1..=4).map(NodeId).collect();
    let (allocs, picked) = counting_allocs(|| {
        let mut picked = 0usize;
        for h in 0..10_000u64 {
            picked += srlb_sim::ecmp_steer(h.wrapping_mul(0x9e37_79b9_7f4a_7c15), &members)
                .expect("tier is non-empty")
                .0;
        }
        picked
    });
    assert_eq!(allocs, 0, "ecmp_steer must not allocate");
    assert!(picked > 0);
}
