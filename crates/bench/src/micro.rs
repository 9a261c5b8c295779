//! Machine-readable micro-benchmarks of the per-flow hot path.
//!
//! The one micro harness: every per-flow and per-packet operation is timed
//! here and the medians are written as JSON (`BENCH_micro.json` at the
//! repository root), so successive PRs can diff the perf trajectory
//! mechanically instead of eyeballing bench logs.  Invoke with:
//!
//! ```text
//! cargo run -p srlb-bench --release --bin figures -- bench-micro
//! ```
//!
//! The committed `BENCH_micro.json` is the baseline recorded on the machine
//! that produced it; regenerate alongside perf-sensitive changes and compare
//! the relative movement, not absolute nanoseconds across machines.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use srlb_core::dispatch::{
    CandidateList, ConsistentHashDispatcher, Dispatcher, DispatcherConfig, MaglevDispatcher,
    RandomDispatcher,
};
use srlb_core::spec::{ExperimentSpec, PolicyKind};
use srlb_core::Runner;
use srlb_core::{FlowState, FlowStateConfig, IdWindow};
use srlb_net::{
    AddressPlan, FlowKey, Packet, PacketBuilder, Protocol, SegmentRoutingHeader, ServerId, TcpFlags,
};
use srlb_server::{tier_members, Directory};
use srlb_sim::event::HeadKind;
use srlb_sim::{
    Context, EventKey, EventQueue, ExecMode, Network, Node, NodeId, RunUntil, SimDuration, SimRng,
    SimTime, Topology,
};

/// Default output file name, written to the workspace root (see
/// [`workspace_root`]).
pub const BENCH_MICRO_FILE: &str = "BENCH_micro.json";

/// The workspace root directory, resolved from this crate's manifest
/// location (`crates/bench` → two levels up) so the report lands next to
/// the committed baseline regardless of the invocation directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

/// Measures `routine`'s median per-iteration time in nanoseconds:
/// batch-calibrated median of samples (batches sized so one sample spans
/// ≥ 50 µs, median of 10 samples).
fn median_ns<O, R: FnMut() -> O>(mut routine: R) -> f64 {
    black_box(routine());
    let target = Duration::from_micros(50);
    let mut iters_per_sample: u64 = 1;
    loop {
        let start = Instant::now(); // srlb-lint: allow(ambient-time) -- wall-clock is the quantity being measured by this micro-bench harness
        for _ in 0..iters_per_sample {
            black_box(routine());
        }
        if start.elapsed() >= target || iters_per_sample >= 1 << 20 {
            break;
        }
        iters_per_sample = iters_per_sample.saturating_mul(4);
    }
    let samples = 10;
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now(); // srlb-lint: allow(ambient-time) -- wall-clock is the quantity being measured by this micro-bench harness
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / iters_per_sample as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    times[times.len() / 2]
}

fn flows(n: u16) -> Vec<FlowKey> {
    let plan = AddressPlan::default();
    (0..n)
        .map(|p| {
            FlowKey::new(
                plan.client_addr(0),
                plan.vip(0),
                1024 + p,
                80,
                Protocol::Tcp,
            )
        })
        .collect()
}

/// Runs every micro-bench and returns `name → median ns/iter` in a stable
/// (sorted) order.
pub fn run_all() -> BTreeMap<String, f64> {
    let plan = AddressPlan::default();
    let servers: Vec<_> = plan.server_addrs(12).collect();
    let keys = flows(1024);
    let mut rng = SimRng::new(1);
    let mut results = BTreeMap::new();
    let mut record = |name: &str, ns: f64| {
        results.insert(name.to_string(), ns);
    };

    // --- per-flow load-balancer operations ---------------------------------
    let mut out = CandidateList::new();

    let mut random = RandomDispatcher::power_of_two(servers.clone());
    let mut i = 0;
    record(
        "dispatch_random_two_choice",
        median_ns(|| {
            i = (i + 1) % keys.len();
            random.candidates_into(&keys[i], &mut rng, &mut out);
            out.as_slice().len()
        }),
    );

    let mut ring = ConsistentHashDispatcher::new(servers.clone(), 128, 2);
    let mut i = 0;
    record(
        "dispatch_consistent_hash",
        median_ns(|| {
            i = (i + 1) % keys.len();
            ring.candidates_into(&keys[i], &mut rng, &mut out);
            out.as_slice().len()
        }),
    );

    // The rackzone tier: 8 load-balancer instances over a 384-backend ×
    // 128-vnode ring, built the way the runner builds them (one dispatcher,
    // a clone per instance sharing its tables) and queried round-robin, over
    // enough distinct flows that the lookups do not all stay in cache.
    let tier_ring = DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 }
        .build(plan.server_addrs(384).collect());
    let mut tier: Vec<Box<dyn Dispatcher>> = (0..8).map(|_| tier_ring.boxed_clone()).collect();
    let many_keys = flows(16_384);
    let mut i = 0;
    record(
        "dispatch_consistent_hash_384x128_tier8",
        median_ns(|| {
            i = (i + 1) % many_keys.len();
            tier[i % 8].candidates_into(&many_keys[i], &mut rng, &mut out);
            out.as_slice().len()
        }),
    );

    let mut maglev = MaglevDispatcher::new(servers.clone(), 65_537, 2);
    let mut i = 0;
    record(
        "dispatch_maglev",
        median_ns(|| {
            i = (i + 1) % keys.len();
            maglev.candidates_into(&keys[i], &mut rng, &mut out);
            out.as_slice().len()
        }),
    );

    // Resilient ECMP steering across a 4-instance LB tier: the per-packet
    // cost the multi-LB refactor adds to every VIP-bound send.  Target:
    // alloc-free and the same order as `dispatch_maglev`.
    let tier: Vec<srlb_sim::NodeId> = (1..=4).map(srlb_sim::NodeId).collect();
    let mut i = 0;
    record(
        "steer_ecmp_tier4",
        median_ns(|| {
            i = (i + 1) % keys.len();
            srlb_sim::ecmp_steer(keys[i].stable_hash(), &tier)
        }),
    );

    let mut table = FlowState::with_default_timeout();
    let mut i = 0;
    record(
        "flow_table_learn_and_lookup",
        median_ns(|| {
            i = (i + 1) % keys.len();
            table.learn(keys[i], servers[i % servers.len()], SimTime::ZERO);
            table.lookup(&keys[i], SimTime::ZERO)
        }),
    );

    // The eviction path: a table half the size of the cycling working set,
    // so (after warm-up) every learn is a miss that evicts the
    // least-recently-touched entry.
    let mut bounded = FlowState::with_config(FlowStateConfig::new().with_capacity(512));
    let mut i = 0;
    record(
        "flow_table_bounded_learn_evict",
        median_ns(|| {
            i = (i + 1) % keys.len();
            bounded.learn(keys[i], servers[i % servers.len()], SimTime::ZERO);
            bounded.len()
        }),
    );

    // --- per-packet wire operations ----------------------------------------
    let route = vec![
        plan.server_addr(ServerId(3)),
        plan.server_addr(ServerId(7)),
        plan.vip(0),
    ];
    let srh = SegmentRoutingHeader::from_route(&route).expect("3-segment route is valid");
    let packet = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
        .ports(49_152, 80)
        .flags(TcpFlags::SYN)
        .segment_routing(srh.clone())
        .build();
    let wire = packet.encode();
    let srh_bytes = srh.encode();

    record("srh_encode", median_ns(|| srh.encode()));
    record(
        "srh_decode",
        median_ns(|| SegmentRoutingHeader::decode(&srh_bytes).expect("bench SRH decodes")),
    );
    record("packet_encode", median_ns(|| packet.encode()));
    record(
        "packet_decode",
        median_ns(|| Packet::decode(&wire).expect("bench packet decodes")),
    );
    let key = packet.flow_key_forward();
    record("flow_key_stable_hash", median_ns(|| key.stable_hash()));

    // What every hop does first: the flow key of the packet in hand.  A
    // packet built by hand (or decoded) hashes its 5-tuple; one built for
    // its flow carries the hash.  Same hunted SYN either way.
    record(
        "flow_key_from_packet",
        median_ns(|| black_box(&packet).flow_key_forward()),
    );
    let mut stamped = PacketBuilder::forward(&key).flags(TcpFlags::SYN).build();
    stamped.insert_srh(srh.clone());
    assert_eq!(stamped, packet);
    record(
        "flow_key_from_stamped_packet",
        median_ns(|| black_box(&stamped).flow_key_forward()),
    );

    // The request payload (16 bytes: id + service demand), built on the
    // stack and stored inline.
    let service = SimDuration::from_millis(80);
    let mut id = 0u64;
    record(
        "payload_build_inline",
        median_ns(|| {
            id += 1;
            srlb_server::server_node::encode_request_payload(id, service)
        }),
    );

    // --- client: the in-flight window ---------------------------------------
    // One request's worth of bookkeeping in steady state with `live`
    // outstanding: a new id in, one in the middle looked up, the oldest out.
    for live in [64u64, 4096] {
        let mut window = IdWindow::new();
        let mut next = 0u64;
        while next < live {
            window.insert(next, [next; 10]);
            next += 1;
        }
        record(
            &format!("client_inflight_window_{live}"),
            median_ns(|| {
                window.insert(next, [next; 10]);
                next += 1;
                if let Some(entry) = window.get_mut(next - live / 2) {
                    entry[0] += 1;
                }
                window.remove(next - 1 - live)
            }),
        );
        assert_eq!(window.len() as u64, live);
    }

    // --- engine: the event queue's lane path --------------------------------
    // The hold model (pop the earliest, schedule one later) at 64 pending,
    // the way `Context::send` schedules: every key one link latency after the
    // popped one, so every message rides its latency's lane.  The heap path's
    // counterpart is `sim.queue_push_pop_ns_d64` in `benchmark/`.
    let link = SimDuration::from_micros(50);
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(64);
    let mut seq = 0u64;
    let mut schedule = |queue: &mut EventQueue<u64>, now: SimTime| {
        let key = EventKey {
            time: now + link,
            src: NodeId((seq % 13) as usize),
            seq,
        };
        seq += 1;
        *queue.claim_message_after(key, NodeId(0), key.src, link) = Some(seq);
    };
    for i in 0..64 {
        schedule(&mut queue, SimTime::from_nanos(i * 781));
    }
    record(
        "queue_lane_push_pop_d64",
        median_ns(|| {
            let head = queue.pop_head(None).expect("queue holds 64 events");
            schedule(&mut queue, head.key.time);
            match head.kind {
                HeadKind::Message { body, .. } => queue.take_body(body),
                HeadKind::Timer { .. } => 0,
            }
        }),
    );

    // --- server: the steer path ---------------------------------------------
    // What every VIP-bound packet pays: the tier entry and the rendezvous
    // hash over its membership (1 and 8 instances).
    for tier_size in [1usize, 8] {
        let mut directory = Directory::new();
        let lbs: Vec<NodeId> = (1..=tier_size).map(NodeId).collect();
        directory.register_tier(plan.vip(0), tier_members(lbs));
        let mut i = 0;
        record(
            &format!("directory_lookup_flow_tier{tier_size}"),
            median_ns(|| {
                i = (i + 1) % keys.len();
                directory.lookup_flow(plan.vip(0), keys[i].stable_hash())
            }),
        );
    }

    // --- parallel engine: synchronisation primitive cost -------------------
    record("barrier_overhead_ns", barrier_overhead_ns());

    results
}

/// Per-round cost of the worker pool's sense-reversing barrier with two
/// parties, in nanoseconds — the synchronisation floor every conservative
/// window pays twice.  Thread spawn/join is amortised over the rounds; the
/// minimum across repeats is reported (interference only adds time).
fn barrier_overhead_ns() -> f64 {
    const ROUNDS: u64 = 4096;
    (0..5)
        .map(|_| {
            let start = Instant::now(); // srlb-lint: allow(ambient-time) -- wall-clock barrier cost is the quantity being measured
            srlb_sim::pool::barrier_rounds(2, ROUNDS);
            start.elapsed().as_nanos() as f64 / ROUNDS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The fixed end-to-end spec driven through every execution mode by
/// [`engine_events_per_sec`]: a paper-shaped cluster under a Poisson
/// workload, large enough that a run spans hundreds of thousands of
/// simulation events.
fn engine_spec() -> ExperimentSpec {
    ExperimentSpec::poisson_paper(0.7, PolicyKind::Static { threshold: 4 })
        .with_queries(10_000)
        .with_seed(7)
}

/// What the pure-engine-loop ping-pong bounces: anything that can count
/// its own bounces.  A `u64` shows the loop with nothing to move; a
/// [`Packet`] shows the same loop moving what the SRLB nodes really send.
trait Bounce: Send + 'static {
    fn first() -> Self;
    fn bounces(&self) -> u64;
    fn bounce(&mut self);
}

impl Bounce for u64 {
    fn first() -> Self {
        0
    }
    fn bounces(&self) -> u64 {
        *self
    }
    fn bounce(&mut self) {
        *self += 1;
    }
}

/// A hunted SYN (3-segment SRH, 232 bytes in memory) counting bounces in its
/// TCP sequence number.
impl Bounce for Packet {
    fn first() -> Self {
        let plan = AddressPlan::default();
        let mut syn = PacketBuilder::tcp(plan.client_addr(0), plan.vip(0))
            .ports(49_152, 80)
            .flags(TcpFlags::SYN)
            .build();
        let route = [
            plan.server_addr(ServerId(3)),
            plan.server_addr(ServerId(7)),
            plan.vip(0),
        ];
        syn.set_route(&route, 0).expect("3-segment route is valid");
        syn
    }
    fn bounces(&self) -> u64 {
        u64::from(self.tcp.sequence)
    }
    fn bounce(&mut self) {
        self.tcp.sequence += 1;
    }
}

/// A trivial ping-pong node for the pure-engine-loop entries: callbacks do
/// nothing but bounce the message back, so the measured time is all engine
/// (queue, dispatch, loop structure, and moving the message).
struct Pinger {
    bounces: u64,
}

impl<M: Bounce> Node<M> for Pinger {
    fn on_message(&mut self, mut msg: M, from: NodeId, ctx: &mut Context<'_, M>) {
        if msg.bounces() < self.bounces {
            msg.bounce();
            ctx.send(from, msg);
        }
    }
}

/// Runs four concurrent ping-pong pairs of `bounces` bounces each to
/// completion and returns the number of events processed.
fn ping_pong<M: Bounce>(bounces: u64, batched: bool) -> u64 {
    let mut net: Network<M> = Network::new(1, Topology::uniform(SimDuration::from_micros(5)));
    let ids: Vec<NodeId> = (0..8).map(|_| net.add_node(Pinger { bounces })).collect();
    for pair in ids.chunks(2) {
        let (a, b) = (pair[0], pair[1]);
        net.control::<Pinger, _>(a, move |_, ctx| ctx.send(b, M::first()))
            .expect("pinger present");
    }
    let stats = if batched {
        net.run_until(RunUntil::Drained)
    } else {
        net.run_until_stepwise(RunUntil::Drained)
    };
    stats.events_processed
}

/// Events per wall-clock second of a million-bounce [`ping_pong`] with
/// empty callbacks — the engine's loop overhead in isolation, without any
/// load-balancer or server logic on top.
fn engine_loop_rate<M: Bounce>(batched: bool) -> f64 {
    let start = Instant::now(); // srlb-lint: allow(ambient-time) -- wall-clock events/sec is the quantity this engine bench reports
    let events = ping_pong::<M>(1_000_000, batched);
    events as f64 / start.elapsed().as_secs_f64()
}

/// Measures whole-engine throughput (simulation events per wall-clock
/// second), median of three runs per entry.
///
/// The `engine_loop_*` entries drive a trivial ping-pong workload where the
/// event loop is all that is measured — bouncing a `u64`, and
/// (`engine_loop_packet_*`) bouncing a 232-byte [`Packet`], so the gap
/// between the two is what moving the message costs; the `engine_*` entries drive the
/// full SRLB experiment runner under each execution mode of the sharded
/// event core.  All modes execute the identical event sequence — outcomes
/// are byte-identical by construction — so every pair compares nothing but
/// the engine loop: the reference one-event-at-a-time stepper, the batched
/// loop, and conservative-window sharding at 1, 2, 4 and 8 worker threads.
///
/// The stepwise loop intentionally trails the batched loop by a few percent:
/// its per-event time-bound check is already fused into the queue pop
/// (`Network::run_until_stepwise`), but only the batched loop can amortise the
/// node-registry take/put across a same-timestamp burst and hoist the bound
/// check to once per time group.  Closing the rest would mean making the
/// reference stepper batch — at which point it no longer cross-checks
/// anything.
///
/// Sharded entries run under the default pool policy, which nothing outside
/// the code can override: on a host without at least two available cores a
/// multi-shard plan collapses to the single-core batched engine (windows
/// cannot beat serial without real parallelism), so the recorded number
/// reflects what that machine would actually get.
pub fn engine_events_per_sec() -> BTreeMap<String, f64> {
    let modes: [(&str, ExecMode); 6] = [
        ("engine_serial_step", ExecMode::SerialStep),
        ("engine_batched", ExecMode::Batched),
        ("engine_sharded_1", ExecMode::Sharded { threads: 1 }),
        ("engine_sharded_2", ExecMode::Sharded { threads: 2 }),
        ("engine_sharded_4", ExecMode::Sharded { threads: 4 }),
        ("engine_sharded_8", ExecMode::Sharded { threads: 8 }),
    ];
    let spec = engine_spec();
    // Rounds are interleaved (each round measures every entry once) so slow
    // drift in machine load hits all entries evenly instead of biasing
    // whichever mode happened to run last.  The *best* round is reported —
    // the max rate is the min-time statistic: external interference only
    // ever subtracts throughput, so the best observed rate is the least
    // contaminated estimate of each mode's capability.
    const ROUNDS: usize = 7;
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..ROUNDS {
        for (name, rate) in [
            ("engine_loop_stepwise", engine_loop_rate::<u64>(false)),
            ("engine_loop_batched", engine_loop_rate::<u64>(true)),
            (
                "engine_loop_packet_stepwise",
                engine_loop_rate::<Packet>(false),
            ),
            (
                "engine_loop_packet_batched",
                engine_loop_rate::<Packet>(true),
            ),
        ] {
            samples.entry(name).or_default().push(black_box(rate));
        }
        for (name, exec) in modes {
            let runner = Runner::new(spec.clone())
                .expect("engine bench spec is valid")
                .with_exec(exec);
            let start = Instant::now(); // srlb-lint: allow(ambient-time) -- wall-clock events/sec is the quantity this engine bench reports
            let outcome = black_box(runner.run());
            samples
                .entry(name)
                .or_default()
                .push(outcome.events_processed as f64 / start.elapsed().as_secs_f64());
        }
    }
    samples
        .into_iter()
        .map(|(name, rates)| {
            let best = rates
                .into_iter()
                .max_by(|a, b| a.partial_cmp(b).expect("rates are finite"))
                .expect("at least one round ran");
            (name.to_string(), best)
        })
        .collect()
}

/// CI perf guard: drives a small fixed spec through the serial reference
/// loop and 2-way sharding (interleaved best-of rounds, like
/// [`engine_events_per_sec`]) and fails if sharding falls below
/// `tolerance × serial` throughput.  Under the default pool policy the
/// sharded run collapses to the batched single-core engine on a one-core
/// host, where the guard passes, and uses real worker threads wherever two
/// cores are available — where, at this 12-server scale, it currently
/// **fails**: measured ratios on 2-core hosts are 0.23–0.28 against the 0.7
/// tolerance, because a window's barrier hand-offs cost more than the few
/// events it holds.  The guard is kept red on purpose (in a CI job of its
/// own, so it gates nothing else) until `PoolPolicy::Auto` learns a
/// cluster-size threshold or the sharded engine wins at paper scale.
///
/// # Errors
///
/// Returns a description of the failing comparison when the sharded rate is
/// below the tolerated fraction of the serial rate.
pub fn check_sharded_throughput() -> Result<String, String> {
    const TOLERANCE: f64 = 0.7;
    const ROUNDS: usize = 5;
    let spec = ExperimentSpec::poisson_paper(0.7, PolicyKind::Static { threshold: 4 })
        .with_queries(1_500)
        .with_seed(7);
    let mut best = [0f64; 2];
    for _ in 0..ROUNDS {
        for (slot, exec) in [
            (0, ExecMode::SerialStep),
            (1, ExecMode::Sharded { threads: 2 }),
        ] {
            let runner = Runner::new(spec.clone())
                .expect("guard spec is valid")
                .with_exec(exec);
            let start = Instant::now(); // srlb-lint: allow(ambient-time) -- wall-clock events/sec is the quantity this guard compares
            let outcome = black_box(runner.run());
            let rate = outcome.events_processed as f64 / start.elapsed().as_secs_f64();
            best[slot] = best[slot].max(rate);
        }
    }
    let [serial, sharded] = best;
    let summary = format!(
        "serial_step {serial:.0} ev/s vs sharded_2 {sharded:.0} ev/s \
         (ratio {:.2}, tolerance {TOLERANCE})",
        sharded / serial
    );
    if sharded >= TOLERANCE * serial {
        Ok(summary)
    } else {
        Err(format!("sharded throughput regressed: {summary}"))
    }
}

/// JSON document written to [`BENCH_MICRO_FILE`].
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct BenchReport {
    /// Schema version of this report.
    pub schema: u32,
    /// `bench name → median ns/iter`.
    pub median_ns: BTreeMap<String, f64>,
    /// `execution mode → simulation events per wall-clock second` for the
    /// fixed end-to-end engine spec (schema ≥ 2; see
    /// [`engine_events_per_sec`]).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub events_per_sec: BTreeMap<String, f64>,
    /// `std::thread::available_parallelism()` of the host that measured
    /// (schema ≥ 3): with one core, the `engine_sharded_*` entries say
    /// nothing about parallel speed-up.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub available_parallelism: Option<usize>,
    /// The [`srlb_sim::PoolPolicy`] the `engine_sharded_*` entries ran under
    /// (schema ≥ 3).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pool_policy: Option<String>,
}

/// Runs every micro-bench and writes the JSON report to `dir`, returning
/// the path written.
///
/// # Errors
///
/// Returns any I/O error from writing the file.
pub fn write_bench_micro(dir: &Path) -> std::io::Result<PathBuf> {
    let report = BenchReport {
        schema: 3,
        median_ns: run_all(),
        events_per_sec: engine_events_per_sec(),
        available_parallelism: std::thread::available_parallelism()
            .ok()
            .map(std::num::NonZero::get),
        pool_policy: Some(format!("{:?}", srlb_sim::PoolPolicy::default())),
    };
    let json = serde_json::to_string(&report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let path = dir.join(BENCH_MICRO_FILE);
    let mut file = std::fs::File::create(&path)?;
    writeln!(file, "{json}")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_measures_something() {
        let mut x = 0u64;
        let ns = median_ns(|| {
            x = black_box(x.wrapping_add(1));
            x
        });
        assert!((0.0..1e6).contains(&ns), "implausible median: {ns}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut median_ns = BTreeMap::new();
        median_ns.insert("op".to_string(), 42.5);
        let mut events_per_sec = BTreeMap::new();
        events_per_sec.insert("engine_batched".to_string(), 1.5e6);
        let report = BenchReport {
            schema: 3,
            median_ns,
            events_per_sec,
            available_parallelism: Some(2),
            pool_policy: Some("Auto".to_string()),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, 3);
        assert_eq!(back.available_parallelism, Some(2));
        assert_eq!(back.pool_policy.as_deref(), Some("Auto"));
        assert_eq!(back.median_ns.get("op"), Some(&42.5));
        assert_eq!(back.events_per_sec.get("engine_batched"), Some(&1.5e6));
    }

    #[test]
    fn schema_1_reports_without_throughput_still_parse() {
        let back: BenchReport =
            serde_json::from_str(r#"{"schema":1,"median_ns":{"op":1.0}}"#).unwrap();
        assert!(back.events_per_sec.is_empty());
        assert_eq!(back.available_parallelism, None, "pre-stamp reports parse");
    }

    #[test]
    fn packet_ping_pong_bounces_a_routed_syn() {
        assert_eq!(<Packet as Bounce>::first().srh.unwrap().num_segments(), 3);
        // Four pairs: the opening message plus `bounces` returns each.
        assert_eq!(ping_pong::<Packet>(10, true), 4 * 11);
        assert_eq!(ping_pong::<Packet>(10, false), ping_pong::<u64>(10, false));
    }
}
