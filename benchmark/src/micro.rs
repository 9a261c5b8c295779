//! Isolated per-layer floors: single operations of each crate, timed in a
//! loop.  These sit *under* the traced per-callback figures — an operation
//! that gets faster here should show up inside the busy time of the node
//! that calls it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use srlb_core::dispatch::{CandidateList, ConsistentHashDispatcher, Dispatcher};
use srlb_core::{FlowState, FlowStateConfig};
use srlb_metrics::{RequestClass, RequestOutcome, RequestRecord, ResponseTimeCollector};
use srlb_net::{
    AddressPlan, FlowKey, PacketBuilder, Protocol, SegmentRoutingHeader, ServerId, TcpFlags,
};
use srlb_server::server_node::encode_request_payload;
use srlb_server::{tier_members, Directory, ProcessorSharingCpu, WorkerPool};
use srlb_sim::event::EventPayload;
use srlb_sim::{
    Context, EventKey, EventQueue, Network, Node, NodeId, RunUntil, SimDuration, SimRng, SimTime,
    TimerToken, TopologyModel,
};
use srlb_workload::{PoissonWorkload, ServiceTime, WikipediaWorkload, Workload};

use crate::stats::median;

/// Median per-iteration time of `routine` in nanoseconds: batches sized so
/// one sample spans at least 200 µs, median of 15 samples.
pub fn median_ns<O>(mut routine: impl FnMut() -> O) -> f64 {
    black_box(routine());
    let target = Duration::from_micros(200);
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        if start.elapsed() >= target || iters >= 1 << 22 {
            break;
        }
        iters = iters.saturating_mul(4);
    }
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median over 7 samples of `sample`, which returns one sample's
/// per-operation nanoseconds — for operations that consume their input
/// (streams, growing collections) and so cannot loop forever.
fn median_of_samples(mut sample: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..7).map(|_| sample()).collect();
    median(&samples)
}

/// The cost of the probe itself: `(pair_ns, inside_ns)`, where `pair_ns`
/// is the full cost of one `Instant::now()` + `elapsed()` pair and
/// `inside_ns` the part of it that the pair itself reads as elapsed.
pub fn instant_pair_ns() -> (f64, f64) {
    const PAIRS: u64 = 200_000;
    let mut outcomes: Vec<(f64, f64)> = (0..7)
        .map(|_| {
            let mut inside = 0u64;
            let start = Instant::now();
            for _ in 0..PAIRS {
                let t = Instant::now();
                inside += black_box(t.elapsed().as_nanos() as u64);
            }
            let total = start.elapsed().as_nanos() as f64;
            (total / PAIRS as f64, inside as f64 / PAIRS as f64)
        })
        .collect();
    outcomes.sort_by(|a, b| a.0.total_cmp(&b.0));
    outcomes[outcomes.len() / 2]
}

fn flow_keys(n: usize) -> Vec<FlowKey> {
    let plan = AddressPlan::default();
    (0..n)
        .map(|i| {
            FlowKey::new(
                plan.client_addr((i / 60_000) as u32),
                plan.vip(0),
                1024 + (i % 60_000) as u16,
                80,
                Protocol::Tcp,
            )
        })
        .collect()
}

/// A node that bounces every message back: callbacks do nothing, so a run
/// of these is all engine.
struct Pinger {
    peer: Option<NodeId>,
    bounces: u64,
}

impl Node<u64> for Pinger {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, 0);
        }
    }
    fn on_message(&mut self, msg: u64, from: NodeId, ctx: &mut Context<'_, u64>) {
        if msg < self.bounces {
            ctx.send(from, msg + 1);
        }
    }
}

/// Nanoseconds per event of the batched loop over four ping-pong pairs.
fn engine_loop_ns_per_event() -> f64 {
    median_of_samples(|| {
        let topology = srlb_sim::Topology::uniform(SimDuration::from_micros(5));
        let mut net: Network<u64> = Network::new(1, topology);
        let mut previous = None;
        for i in 0..8 {
            // Odd nodes open a ping-pong with the even node before them.
            let peer = if i % 2 == 1 { previous } else { None };
            previous = Some(net.add_node(Pinger {
                peer,
                bounces: 50_000,
            }));
        }
        let start = Instant::now();
        let stats = net.run_until(RunUntil::Drained);
        start.elapsed().as_nanos() as f64 / stats.events_processed as f64
    })
}

/// One pop of the earliest event plus one push of a later one, with the
/// queue held at `depth` entries (the classic hold model).
fn queue_push_pop_ns(depth: usize) -> f64 {
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
    let mut seq = 0u64;
    // Delivery times spread pseudo-randomly over the next millisecond.
    let mut push = |queue: &mut EventQueue<u64>, base: u64| {
        let key = EventKey {
            time: SimTime::from_nanos(base + srlb_net::mix64(seq) % 1_000_000),
            src: NodeId((seq % 393) as usize),
            seq,
        };
        seq += 1;
        let token = TimerToken(seq);
        queue.push(key, key.src, EventPayload::Timer { token });
    };
    for _ in 0..depth {
        push(&mut queue, 0);
    }
    median_ns(|| {
        let event = queue.pop().expect("queue holds `depth` events");
        push(&mut queue, event.key.time.as_nanos());
        event.target
    })
}

/// Runs every isolated measurement; `name → value` in the metric's unit
/// (nanoseconds throughout).
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let plan = AddressPlan::default();
    let mut out = BTreeMap::new();

    // --- srlb-sim ---------------------------------------------------------
    out.insert("sim.engine_loop_ns_per_event", engine_loop_ns_per_event());
    out.insert("sim.queue_push_pop_ns_d64", queue_push_pop_ns(64));
    out.insert("sim.queue_push_pop_ns_d65536", queue_push_pop_ns(65_536));

    // The rackzone workload's 393-node topology: per-pair latency lookup.
    let client = NodeId(0);
    let lbs: Vec<NodeId> = (1..=8).map(NodeId).collect();
    let servers: Vec<NodeId> = (9..393).map(NodeId).collect();
    let topology = TopologyModel::RackZone {
        racks: 8,
        intra_rack_us: 15,
        cross_rack_us: 80,
        client_link_us: 300,
    }
    .build(client, &lbs, &servers);
    let mut i = 0usize;
    out.insert(
        "sim.topology_latency_ns",
        median_ns(|| {
            i = (i + 7) % 393;
            topology.latency(NodeId(i), NodeId((i * 31 + 5) % 393))
        }),
    );

    let keys = flow_keys(65_536);
    let mut i = 0usize;
    out.insert(
        "sim.ecmp_steer_ns",
        median_ns(|| {
            i = (i + 1) % keys.len();
            srlb_sim::ecmp_steer(keys[i].stable_hash(), &lbs)
        }),
    );

    // Two-party barrier round: what every conservative window pays.  The
    // thread spawn is amortised over the rounds.
    const ROUNDS: u64 = 20_000;
    out.insert(
        "sim.barrier_round_ns",
        median_of_samples(|| {
            let start = Instant::now();
            srlb_sim::pool::barrier_rounds(2, ROUNDS);
            start.elapsed().as_nanos() as f64 / ROUNDS as f64
        }),
    );

    // --- srlb-core: dispatch, flow state ------------------------------------
    let mut rng = SimRng::new(1);
    let mut candidates = CandidateList::new();
    for (name, backends) in [
        ("dispatch.candidates_into_ns_12", 12u32),
        ("dispatch.candidates_into_ns_384", 384),
    ] {
        let mut ring = ConsistentHashDispatcher::new(plan.server_addrs(backends).collect(), 128, 2);
        let mut i = 0usize;
        out.insert(
            name,
            median_ns(|| {
                i = (i + 1) % keys.len();
                ring.candidates_into(&keys[i], &mut rng, &mut candidates);
                candidates.len()
            }),
        );
    }

    // Unbounded table over a one-million-flow working set: far beyond any
    // cache, as a long replay's table is.
    let million = flow_keys(1_000_000);
    let server = plan.server_addr(ServerId(3));
    let mut table = FlowState::with_config(FlowStateConfig::new());
    for key in &million {
        table.learn(*key, server, SimTime::ZERO);
    }
    let mut i = 0usize;
    out.insert(
        "flow_state.learn_lookup_ns",
        median_ns(|| {
            // A large odd stride visits the working set without locality.
            i = (i + 611_953) % million.len();
            table.learn(million[i], server, SimTime::ZERO);
            table.lookup(&million[i], SimTime::ZERO)
        }),
    );
    drop(table);

    // The lossy_bounded table: 256 entries under a cycling 1024-flow set,
    // so every learn misses and evicts.
    let mut bounded = FlowState::with_config(FlowStateConfig::new().with_capacity(256));
    let mut i = 0usize;
    out.insert(
        "flow_state.bounded_learn_evict_ns",
        median_ns(|| {
            i = (i + 1) % 1024;
            bounded.learn(million[i], server, SimTime::ZERO);
            bounded.len()
        }),
    );
    drop(million);

    // --- srlb-server --------------------------------------------------------
    let mut directory = Directory::new();
    directory.register_tier(plan.vip(0), tier_members(lbs.clone()));
    let mut i = 0usize;
    out.insert(
        "directory.lookup_flow_ns",
        median_ns(|| {
            i = (i + 1) % keys.len();
            directory.lookup_flow(plan.vip(0), keys[i].stable_hash())
        }),
    );

    let mut workers = WorkerPool::new(32);
    out.insert(
        "server.worker_claim_release_ns",
        median_ns(|| {
            let worker = workers.claim().expect("a worker is idle");
            workers.release(worker);
            worker
        }),
    );

    // Processor sharing with 8 resident jobs (a loaded paper server): add a
    // job, advance to the next completion, collect it.
    let mut cpu = ProcessorSharingCpu::new(2);
    let mut now = SimTime::ZERO;
    let mut next_job = 0u64;
    for _ in 0..8 {
        cpu.add_job(next_job, SimDuration::from_millis(100 + next_job), now);
        next_job += 1;
    }
    out.insert(
        "server.cpu_add_complete_ns",
        median_ns(|| {
            cpu.add_job(next_job, SimDuration::from_millis(100), now);
            next_job += 1;
            now = cpu.next_completion(now).expect("jobs are running");
            cpu.take_completed(now).len()
        }),
    );

    // --- srlb-net -------------------------------------------------------------
    let route = [
        plan.server_addr(ServerId(3)),
        plan.server_addr(ServerId(7)),
        plan.vip(0),
    ];
    out.insert(
        "net.packet_build_srh_ns",
        median_ns(|| {
            let srh = SegmentRoutingHeader::from_route(&route).expect("3-segment route is valid");
            PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
                .ports(49_152, 80)
                .flags(TcpFlags::SYN)
                .segment_routing(srh)
                .build()
        }),
    );
    let request = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
        .ports(49_152, 80)
        .flags(TcpFlags::ACK | TcpFlags::PSH)
        .segment_routing(SegmentRoutingHeader::from_route(&route).expect("valid route"))
        .payload(encode_request_payload(7, SimDuration::from_millis(100)))
        .build();
    out.insert("net.packet_clone_ns", median_ns(|| request.clone()));

    // --- srlb-workload ---------------------------------------------------------
    const PULLS: usize = 100_000;
    let pull = |stream: &mut dyn Workload| {
        let start = Instant::now();
        for _ in 0..PULLS {
            black_box(stream.next_request().expect("stream outlasts the sample"));
        }
        start.elapsed().as_nanos() as f64 / PULLS as f64
    };
    let poisson = PoissonWorkload::new(1_000.0, PULLS, ServiceTime::Exponential { mean_ms: 100.0 });
    out.insert(
        "workload.poisson_next_ns",
        median_of_samples(|| pull(&mut poisson.stream(5))),
    );
    // Half an hour of the replay is ~210 k requests.
    let wikipedia = WikipediaWorkload::paper().with_duration_hours(0.5);
    out.insert(
        "workload.wikipedia_next_ns",
        median_of_samples(|| pull(&mut wikipedia.stream(5))),
    );

    // --- srlb-metrics ------------------------------------------------------------
    out.insert(
        "metrics.collector_push_ns",
        median_of_samples(|| {
            let mut collector = ResponseTimeCollector::new();
            let start = Instant::now();
            for i in 0..PULLS {
                collector.push(RequestRecord {
                    sent_at_seconds: i as f64 * 1e-3,
                    response_time_ms: Some(120.0),
                    class: RequestClass::Synthetic,
                    outcome: RequestOutcome::Completed,
                    served_by: Some((i % 12) as u32),
                    retransmits: 0,
                });
            }
            let ns = start.elapsed().as_nanos() as f64 / PULLS as f64;
            black_box(collector.len());
            ns
        }),
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_measures_something_plausible() {
        let mut x = 0u64;
        let ns = median_ns(|| {
            x = black_box(x.wrapping_add(1));
            x
        });
        assert!((0.0..1e6).contains(&ns), "implausible median: {ns}");
    }

    #[test]
    fn the_probe_cost_is_positive_and_its_inside_part_is_smaller() {
        let (pair, inside) = instant_pair_ns();
        assert!(pair > 0.0);
        assert!(inside <= pair, "inside {inside} ns > pair {pair} ns");
    }

    #[test]
    fn the_hold_model_keeps_the_queue_at_its_depth() {
        assert!(queue_push_pop_ns(64) > 0.0);
    }
}
