//! Sharded execution: how a [`Network`](crate::Network) is partitioned
//! ([`ShardPlan`]), when it really uses threads ([`PoolPolicy`]) and which
//! loop a driver asks for ([`ExecMode`]).  Several shards advance in
//! conservative time windows — byte-identical to the serial loop.
//!
//! # Model
//!
//! The node table is partitioned by a [`ShardPlan`]; each shard owns one
//! engine core holding the nodes assigned to it (foreign slots stay vacant so
//! ids line up).  A classic conservative (Chandy–Misra–Bryant-style) window
//! protocol synchronises the shards: with `lookahead` = the minimum link
//! latency between any cross-shard node pair, every event a shard processes
//! before time `t` can only schedule cross-shard arrivals at `≥ t +
//! lookahead`, so each shard may run ahead of its peers by the lookahead
//! without ever receiving a "past" event.  Cross-shard messages accumulate in
//! per-destination outboxes and are exchanged at window barriers.
//!
//! Windows are driven by a persistent [`WorkerPool`](crate::pool): the main
//! thread is the coordinator plus the worker for shard 0, and `S - 1`
//! long-lived threads (parked between run segments) drive the rest.  Each
//! window, the coordinator **fast-forwards** the window start to the global
//! minimum next-event time `t0` (empty windows cost one barrier round, not
//! one round per lookahead of simulated time), hands each shard its own
//! horizon `h[d] = lookahead + min(min over s != d of next[s],
//! t0 + lookahead)` — the cap accounts for reaction chains triggered by this
//! window's own sends; see [`crate::pool`] for the full soundness argument —
//! (a shard whose peers are all provably idle **coalesces** arbitrarily many
//! windows, stopping at its first cross-shard send), and workers exchange
//! outboxes by swapping double-buffered mailbox vectors — no channels, no
//! per-window allocation.
//!
//! On hosts with a single available core — or under
//! [`PoolPolicy::Never`] — a multi-shard plan *collapses* to the single-core
//! batched engine: conservative windows only pay off when shards actually
//! run in parallel, and outputs are identical either way by construction.
//!
//! # Why the result is byte-identical to the serial loop
//!
//! Event order is defined by globally unique
//! [`EventKey`](crate::event::EventKey)s `(time, src, seq)` that are pure
//! functions of each *scheduling* node's own history, and every node draws
//! randomness from its private stream.  By induction over windows, each node
//! therefore observes exactly the callback sequence it would observe under
//! the serial engine and emits exactly the same events with the same keys —
//! regardless of shard count, shard plan, or thread interleaving.  One
//! caveat (not exercised by the SRLB experiment drivers): a
//! [`Context::stop`](crate::Context::stop) request is honoured at the next
//! window boundary — the start of the segment included — rather than the
//! next event.
//!
//! # `RunUntil::Events` overshoot contract
//!
//! A pure event budget of `n` stops the run at the first window barrier
//! where the cumulative processed count reaches `n`.  Every window carries a
//! per-shard cap equal to the remaining budget `r`, so with `S` shards the
//! run processes at most `n + (S - 1) · r` events, where `r` is the
//! remainder at the final window's start — and **exactly** `n` (matching
//! the serial engine) whenever no window processes more than one event
//! globally, or more generally whenever the budget does not expire mid
//! window.  The contract is pinned by unit tests below.

use crate::link::{Topology, TopologyModel};
use crate::node::NodeId;
use crate::time::SimDuration;

/// How an experiment driver executes the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Single-threaded, one event at a time — the reference loop.
    SerialStep,
    /// Single-threaded, same-timestamp batched loop (the default).
    #[default]
    Batched,
    /// Multi-threaded conservative-window sharding across `threads` worker
    /// shards.  `threads <= 1` degenerates to [`ExecMode::Batched`].
    Sharded {
        /// Number of worker shards (and threads).
        threads: usize,
    },
}

impl ExecMode {
    /// The number of worker shards this mode drives.
    pub fn threads(self) -> usize {
        match self {
            ExecMode::SerialStep | ExecMode::Batched => 1,
            ExecMode::Sharded { threads } => threads.max(1),
        }
    }
}

/// Whether a multi-shard plan actually runs on worker threads.
///
/// Conservative-window sharding is a pure throughput knob: outputs are
/// byte-identical either way, so on a host without at least two available
/// cores the threaded protocol can only lose to the batched single-core loop
/// (every window still costs barrier hand-offs, with no parallel work to pay
/// for them).  The default policy therefore collapses to a single core when
/// the host cannot run two shards at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// Use worker threads iff `std::thread::available_parallelism() >= 2`.
    #[default]
    Auto,
    /// Always run the threaded pool (tests use this to exercise the full
    /// window protocol regardless of host shape).
    Force,
    /// Never spawn workers: collapse to the single-core batched engine.
    Never,
}

impl PoolPolicy {
    /// Whether a multi-shard plan should run on the threaded pool.
    pub(crate) fn threaded(self) -> bool {
        match self {
            PoolPolicy::Force => true,
            PoolPolicy::Never => false,
            PoolPolicy::Auto => std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2),
        }
    }
}

/// Assignment of node-table slots to shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    pub(crate) shard_of: Vec<u32>,
    shards: u32,
}

impl ShardPlan {
    /// Everything on one shard (serial execution).
    pub fn single(slots: usize) -> Self {
        ShardPlan {
            shard_of: vec![0; slots],
            shards: 1,
        }
    }

    /// Builds a plan from explicit per-slot assignments.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or any assignment is out of range.
    pub(crate) fn from_assignments(shard_of: Vec<u32>, shards: u32) -> Self {
        assert!(shards > 0, "a shard plan needs at least one shard");
        assert!(
            shard_of.iter().all(|&s| s < shards),
            "shard assignment out of range"
        );
        ShardPlan { shard_of, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Number of planned node slots.
    pub fn slots(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning slot `id` (0 for ids beyond the plan).
    pub fn shard_of(&self, id: NodeId) -> usize {
        self.shard_of.get(id.index()).copied().unwrap_or(0) as usize
    }

    /// Round-robin placement over the experiment layout `client | lbs |
    /// servers` (node 0 is the client, then `lb_count` load balancers, then
    /// `max_servers` backends): the client on shard 0, every other tier
    /// striped modulo `threads`.  Placement never affects outputs, only the
    /// achievable lookahead — see [`ShardPlan::topology_aware`].
    pub fn round_robin(lb_count: usize, max_servers: usize, threads: usize) -> Self {
        let total = 1 + lb_count + max_servers;
        let threads = threads.clamp(1, total);
        if threads <= 1 {
            return ShardPlan::single(total);
        }
        let mut shard_of = vec![0u32; total];
        for j in 0..lb_count {
            shard_of[1 + j] = (j % threads) as u32;
        }
        for i in 0..max_servers {
            shard_of[1 + lb_count + i] = (i % threads) as u32;
        }
        ShardPlan::from_assignments(shard_of, threads as u32)
    }

    /// Topology-aware placement over the same layout: keeps each rack's
    /// servers *and* its attached load balancers on one shard so the only
    /// cross-shard links are cross-rack (or client) links.
    ///
    /// Under [`TopologyModel::RackZone`] this lifts the conservative
    /// lookahead from the intra-rack latency (the minimum link anywhere) to
    /// the cross-rack latency — e.g. 15 µs → 80 µs on the default rack/zone
    /// model, >5× fewer barriers for the same simulated time — and shrinks
    /// cross-shard event volume to the request/response legs that actually
    /// cross racks.  Racks are grouped modulo `min(threads, racks)`: more
    /// threads than racks cannot help (any rack split re-introduces an
    /// intra-rack cross-shard link), so the plan caps the shard count
    /// instead.  For [`TopologyModel::Uniform`] every placement yields the
    /// same lookahead and this degenerates to round-robin.
    pub fn topology_aware(
        model: &TopologyModel,
        lb_count: usize,
        max_servers: usize,
        threads: usize,
    ) -> Self {
        let total = 1 + lb_count + max_servers;
        let threads = threads.clamp(1, total);
        match model {
            TopologyModel::Uniform { .. } => ShardPlan::round_robin(lb_count, max_servers, threads),
            TopologyModel::RackZone { racks, .. } => {
                let shards = threads.min((*racks).max(1));
                if shards <= 1 {
                    return ShardPlan::single(total);
                }
                let mut shard_of = vec![0u32; total];
                for j in 0..lb_count {
                    shard_of[1 + j] = (model.rack_of(j) % shards) as u32;
                }
                for i in 0..max_servers {
                    shard_of[1 + lb_count + i] = (model.rack_of(i) % shards) as u32;
                }
                ShardPlan::from_assignments(shard_of, shards as u32)
            }
        }
    }

    /// Node-slot counts per shard (index = shard).
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards as usize];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// The minimum link latency between any two slots on *different* shards
    /// — the conservative lookahead.  `None` when no cross-shard pair
    /// exists (single shard).
    pub(crate) fn lookahead(&self, topology: &Topology) -> Option<SimDuration> {
        let n = self.shard_of.len();
        let mut min: Option<SimDuration> = None;
        for a in 0..n {
            for b in 0..n {
                if a != b && self.shard_of[a] != self.shard_of[b] {
                    let lat = topology.latency(NodeId(a), NodeId(b));
                    min = Some(min.map_or(lat, |m| m.min(lat)));
                }
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SimStats;
    use crate::network::{Network, RunUntil};
    use crate::node::{Context, Node, TimerToken};
    use crate::time::SimTime;

    /// Ping-pong across a uniform-latency link, counting what each side saw.
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

    /// A node that periodically fires a timer and sprays random-valued
    /// messages at all peers — exercises timers, fan-out and per-node RNG.
    struct Sprayer {
        peers: Vec<NodeId>,
        rounds: u32,
        got: Vec<(usize, u32)>,
    }

    impl Node<u32> for Sprayer {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.schedule_timer(SimDuration::from_micros(30), TimerToken(0));
        }
        fn on_message(&mut self, msg: u32, from: NodeId, _ctx: &mut Context<'_, u32>) {
            self.got.push((from.index(), msg));
        }
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, u32>) {
            for &peer in &self.peers {
                let v = (rand::RngCore::next_u64(ctx.rng()) % 1_000) as u32;
                ctx.send(peer, v);
            }
            self.rounds -= 1;
            if self.rounds > 0 {
                ctx.schedule_timer(SimDuration::from_micros(30), TimerToken(0));
            }
        }
    }

    fn spray_fleet(net_add: &mut dyn FnMut(Sprayer) -> NodeId, n: usize) -> Vec<NodeId> {
        // First allocate ids 0..n, wiring everyone to everyone (ids are
        // deterministic because slots allocate sequentially).
        let all: Vec<NodeId> = (0..n).map(NodeId).collect();
        (0..n)
            .map(|i| {
                let peers: Vec<NodeId> = all.iter().copied().filter(|p| p.index() != i).collect();
                net_add(Sprayer {
                    peers,
                    rounds: 5,
                    got: vec![],
                })
            })
            .collect()
    }

    /// Harvested per-node message logs plus merged stats — the full
    /// observable outcome of a spray run.
    type SprayOutcome = (SimStats, Vec<Vec<(usize, u32)>>);

    fn spray_serial(n: usize) -> SprayOutcome {
        let mut net = Network::new(11, Topology::uniform(SimDuration::from_micros(50)));
        let ids = spray_fleet(&mut |s| net.add_node(s), n);
        net.run_until_stepwise(RunUntil::Drained);
        let stats = net.stats();
        let logs = ids
            .iter()
            .map(|&id| net.take_node::<Sprayer>(id).unwrap().got)
            .collect();
        (stats, logs)
    }

    fn spray_sharded(n: usize, shards: u32) -> SprayOutcome {
        let plan = ShardPlan::from_assignments((0..n).map(|i| i as u32 % shards).collect(), shards);
        // Force the worker pool so the full window protocol runs even when
        // the test host reports a single available core.
        let mut net = Network::with_pool_policy(
            11,
            Topology::uniform(SimDuration::from_micros(50)),
            plan,
            PoolPolicy::Force,
        );
        let ids = spray_fleet(&mut |s| net.add_node(s), n);
        net.run_until(RunUntil::Drained);
        let stats = net.stats();
        let logs = ids
            .iter()
            .map(|&id| net.take_node::<Sprayer>(id).unwrap().got)
            .collect();
        (stats, logs)
    }

    #[test]
    fn sharded_runs_match_the_serial_loop_exactly() {
        let reference = spray_serial(6);
        for shards in [1, 2, 3, 4] {
            assert_eq!(
                spray_sharded(6, shards),
                reference,
                "{shards}-shard run must be byte-identical to serial"
            );
        }
    }

    #[test]
    fn ping_pong_across_shards_matches_serial() {
        fn serial() -> (SimStats, Vec<u32>) {
            let mut net = Network::new(1, Topology::uniform(SimDuration::from_micros(100)));
            let a = net.add_node(Echo {
                peer: None,
                cap: 40,
                seen: vec![],
            });
            let _b = net.add_node(Echo {
                peer: Some(a),
                cap: 40,
                seen: vec![],
            });
            net.run_until_stepwise(RunUntil::Drained);
            let stats = net.stats();
            (stats, net.take_node::<Echo>(a).unwrap().seen)
        }
        fn sharded() -> (SimStats, Vec<u32>) {
            let plan = ShardPlan::from_assignments(vec![0, 1], 2);
            let mut net = Network::with_pool_policy(
                1,
                Topology::uniform(SimDuration::from_micros(100)),
                plan,
                PoolPolicy::Force,
            );
            let a = net.add_node(Echo {
                peer: None,
                cap: 40,
                seen: vec![],
            });
            let _b = net.add_node(Echo {
                peer: Some(a),
                cap: 40,
                seen: vec![],
            });
            assert_eq!(net.shards(), 2);
            assert_eq!(net.lookahead(), SimDuration::from_micros(100));
            net.run_until(RunUntil::Drained);
            let stats = net.stats();
            (stats, net.take_node::<Echo>(a).unwrap().seen)
        }
        assert_eq!(sharded(), serial());
    }

    #[test]
    fn time_bounded_segments_and_controls_match_serial() {
        // Alternate run segments with control events (like the scenario
        // engine does) and check clocks and outputs agree.
        fn drive(sharded: bool) -> (SimStats, SimTime, Vec<u32>) {
            let topo = Topology::uniform(SimDuration::from_micros(100));
            let bound = RunUntil::Time(SimTime::from_secs_f64(0.001));
            if sharded {
                let plan = ShardPlan::from_assignments(vec![0, 1], 2);
                let mut net = Network::with_pool_policy(3, topo, plan, PoolPolicy::Force);
                let a = net.add_node(Echo {
                    peer: None,
                    cap: 1_000,
                    seen: vec![],
                });
                let b = net.add_node(Echo {
                    peer: Some(a),
                    cap: 1_000,
                    seen: vec![],
                });
                net.run_until(bound);
                let t = net.now();
                net.control::<Echo, _>(b, |echo, ctx| {
                    echo.cap = 0;
                    ctx.send(a, 7_000);
                });
                net.run_until(RunUntil::Drained);
                (net.stats(), t, net.take_node::<Echo>(a).unwrap().seen)
            } else {
                let mut net = Network::new(3, topo);
                let a = net.add_node(Echo {
                    peer: None,
                    cap: 1_000,
                    seen: vec![],
                });
                let b = net.add_node(Echo {
                    peer: Some(a),
                    cap: 1_000,
                    seen: vec![],
                });
                net.run_until_stepwise(bound);
                let t = net.now();
                net.control::<Echo, _>(b, |echo, ctx| {
                    echo.cap = 0;
                    ctx.send(a, 7_000);
                });
                net.run_until_stepwise(RunUntil::Drained);
                (net.stats(), t, net.take_node::<Echo>(a).unwrap().seen)
            }
        }
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn zero_lookahead_collapses_to_one_shard() {
        let plan = ShardPlan::from_assignments(vec![0, 1], 2);
        let net: Network<u32> = Network::with_pool_policy(
            1,
            Topology::uniform(SimDuration::ZERO),
            plan,
            PoolPolicy::Force,
        );
        assert_eq!(net.shards(), 1);
        assert_eq!(net.lookahead(), SimDuration::ZERO);
    }

    #[test]
    fn reserved_and_late_inserted_nodes_work_across_shards() {
        let plan = ShardPlan::from_assignments(vec![0, 1, 1], 2);
        let mut net = Network::with_pool_policy(
            5,
            Topology::uniform(SimDuration::from_micros(10)),
            plan,
            PoolPolicy::Force,
        );
        let a = net.add_node(Echo {
            peer: None,
            cap: 0,
            seen: vec![],
        });
        let reserved = net.reserve_node(); // slot 1 on shard 1

        struct To {
            target: NodeId,
        }
        impl Node<u32> for To {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.send(self.target, 5);
            }
            fn on_message(&mut self, _m: u32, _f: NodeId, _c: &mut Context<'_, u32>) {}
        }
        net.add_node(To { target: reserved }); // slot 2 on shard 1
        net.run_until(RunUntil::Drained);
        let stats = net.stats();
        assert_eq!(stats.dropped_vacant, 1, "reserved slot dropped the send");

        net.insert_node(
            reserved,
            Echo {
                peer: None,
                cap: 0,
                seen: vec![],
            },
        );
        // A control on shard 0 sends cross-shard to the just-inserted node.
        net.control::<Echo, _>(a, |_echo, ctx| ctx.send(reserved, 9))
            .unwrap();
        net.run_until(RunUntil::Drained);
        let echo = net.take_node::<Echo>(reserved).unwrap();
        assert_eq!(echo.seen, vec![9]);
    }

    #[test]
    fn exec_mode_defaults_and_thread_counts() {
        assert_eq!(ExecMode::default(), ExecMode::Batched);
        assert_eq!(ExecMode::SerialStep.threads(), 1);
        assert_eq!(ExecMode::Batched.threads(), 1);
        assert_eq!(ExecMode::Sharded { threads: 4 }.threads(), 4);
        assert_eq!(ExecMode::Sharded { threads: 0 }.threads(), 1);
    }

    #[test]
    fn shard_plan_accessors() {
        let plan = ShardPlan::from_assignments(vec![0, 1, 0], 2);
        assert_eq!(plan.shards(), 2);
        assert_eq!(plan.slots(), 3);
        assert_eq!(plan.shard_of(NodeId(1)), 1);
        assert_eq!(plan.shard_of(NodeId(99)), 0);
        let single = ShardPlan::single(4);
        assert_eq!(single.shards(), 1);
        assert_eq!(single.slots(), 4);
    }

    #[test]
    #[should_panic(expected = "shard assignment out of range")]
    fn shard_plan_rejects_out_of_range_assignments() {
        let _ = ShardPlan::from_assignments(vec![0, 2], 2);
    }

    #[test]
    fn pool_policy_never_collapses_to_one_shard() {
        let plan = ShardPlan::from_assignments(vec![0, 1], 2);
        let net: Network<u32> = Network::with_pool_policy(
            1,
            Topology::uniform(SimDuration::from_micros(100)),
            plan,
            PoolPolicy::Never,
        );
        assert_eq!(net.shards(), 1);
        assert_eq!(net.lookahead(), SimDuration::ZERO);
    }

    /// `RunUntil::Events` contract, exact half: when no window processes
    /// more than one event globally (a ping-pong has exactly one in-flight
    /// message), a budget stop lands on exactly the serial count — for any
    /// budget.
    #[test]
    fn event_budget_is_exact_when_windows_hold_single_events() {
        for budget in [1u64, 2, 3, 7, 20] {
            let plan = ShardPlan::from_assignments(vec![0, 1], 2);
            let mut net = Network::with_pool_policy(
                1,
                Topology::uniform(SimDuration::from_micros(100)),
                plan,
                PoolPolicy::Force,
            );
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
            net.run_until(RunUntil::Events(budget));
            assert_eq!(
                net.stats().events_processed,
                budget,
                "budget {budget} must stop exactly on the serial count"
            );
        }
    }

    /// `RunUntil::Events` contract, bound half: with `S` shards and
    /// remainder `r` at the final window's start, the run processes at most
    /// `n + (S - 1) · r ≤ S · n` events — and never more than the serial
    /// engine has available.  Also pins that the overshoot is deterministic
    /// (same spec, same budget → same count).
    #[test]
    fn event_budget_overshoot_stays_within_documented_bound() {
        let serial_total = spray_serial(6).0.events_processed;
        for shards in [2u32, 3] {
            for budget in [5u64, 17, 50] {
                let run = || {
                    let plan = ShardPlan::from_assignments(
                        (0..6).map(|i| i as u32 % shards).collect(),
                        shards,
                    );
                    let mut net = Network::with_pool_policy(
                        11,
                        Topology::uniform(SimDuration::from_micros(50)),
                        plan,
                        PoolPolicy::Force,
                    );
                    spray_fleet(&mut |s| net.add_node(s), 6);
                    net.run_until(RunUntil::Events(budget));
                    net.stats().events_processed
                };
                let processed = run();
                let available = serial_total.min(budget * u64::from(shards));
                assert!(
                    processed >= budget.min(serial_total) && processed <= available,
                    "{shards} shards, budget {budget}: processed {processed} \
                     outside [{}, {available}]",
                    budget.min(serial_total)
                );
                assert_eq!(processed, run(), "overshoot must be deterministic");
            }
        }
    }

    /// A shard whose peers are idle runs to completion in one coalesced
    /// window instead of one barrier round per lookahead of simulated time.
    #[test]
    fn isolated_shard_work_drains_without_cross_shard_traffic() {
        // Two echo pairs, each pair entirely on one shard: after on_start
        // neither shard ever sends cross-shard, so every window is
        // unbounded and the run must still terminate (and match serial).
        fn build(net_add: &mut dyn FnMut(Echo) -> NodeId) {
            let a = net_add(Echo {
                peer: None,
                cap: 30,
                seen: vec![],
            });
            net_add(Echo {
                peer: Some(a),
                cap: 30,
                seen: vec![],
            });
            let c = net_add(Echo {
                peer: None,
                cap: 50,
                seen: vec![],
            });
            net_add(Echo {
                peer: Some(c),
                cap: 50,
                seen: vec![],
            });
        }
        let mut serial = Network::new(9, Topology::uniform(SimDuration::from_micros(40)));
        build(&mut |e| serial.add_node(e));
        serial.run_until_stepwise(RunUntil::Drained);

        let plan = ShardPlan::from_assignments(vec![0, 0, 1, 1], 2);
        let mut sharded = Network::with_pool_policy(
            9,
            Topology::uniform(SimDuration::from_micros(40)),
            plan,
            PoolPolicy::Force,
        );
        build(&mut |e| sharded.add_node(e));
        sharded.run_until(RunUntil::Drained);
        assert_eq!(sharded.stats(), serial.stats());
    }

    /// A node with a far-future timer that instantly acks anything it is
    /// sent — bait for an unsound horizon: its shard looks idle until the
    /// timer, but a message can wake it this very window.
    struct SleepyRelay {
        acked: u32,
    }

    impl Node<u32> for SleepyRelay {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.schedule_timer(SimDuration::from_secs_f64(1.0), TimerToken(0));
        }
        fn on_message(&mut self, msg: u32, from: NodeId, ctx: &mut Context<'_, u32>) {
            self.acked += 1;
            ctx.send(from, msg + 1);
        }
        fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<'_, u32>) {}
    }

    /// A node ticking a fast local timer; on one designated tick it pings
    /// the relay, and it logs every callback so the ack's position in its
    /// history is observable.
    struct Ticker {
        relay: NodeId,
        ticks_left: u32,
        ping_on_tick: u32,
        log: Vec<(u64, u32)>,
    }

    impl Node<u32> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.schedule_timer(SimDuration::from_micros(10), TimerToken(0));
        }
        fn on_message(&mut self, msg: u32, _from: NodeId, ctx: &mut Context<'_, u32>) {
            self.log.push((ctx.now().as_nanos(), msg));
        }
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, u32>) {
            self.log.push((ctx.now().as_nanos(), u32::MAX));
            if self.ticks_left == self.ping_on_tick {
                ctx.send(self.relay, 0);
            }
            self.ticks_left -= 1;
            if self.ticks_left > 0 {
                ctx.schedule_timer(SimDuration::from_micros(10), TimerToken(0));
            }
        }
    }

    /// Regression: the per-shard horizon must cap at `t0 + lookahead` for
    /// reaction chains.  Shard 1's only queued work is a timer one second
    /// out, so `next[1]` alone would let shard 0 run its whole fast timer
    /// train in one window — but shard 0's ping wakes the relay *this*
    /// window and the ack must land mid-train, exactly as in serial.
    #[test]
    fn reaction_chain_from_idle_shard_cannot_be_overtaken() {
        fn run(sharded: bool) -> (SimStats, Vec<(u64, u32)>, u32) {
            let topo = Topology::uniform(SimDuration::from_micros(50));
            let (stats, log, acked);
            if sharded {
                let plan = ShardPlan::from_assignments(vec![0, 1], 2);
                let mut net = Network::with_pool_policy(7, topo, plan, PoolPolicy::Force);
                let relay = NodeId(1);
                let t = net.add_node(Ticker {
                    relay,
                    ticks_left: 100,
                    ping_on_tick: 95,
                    log: vec![],
                });
                let r = net.add_node(SleepyRelay { acked: 0 });
                net.run_until(RunUntil::Drained);
                stats = net.stats();
                log = net.take_node::<Ticker>(t).unwrap().log;
                acked = net.take_node::<SleepyRelay>(r).unwrap().acked;
            } else {
                let mut net = Network::new(7, topo);
                let relay = NodeId(1);
                let t = net.add_node(Ticker {
                    relay,
                    ticks_left: 100,
                    ping_on_tick: 95,
                    log: vec![],
                });
                let r = net.add_node(SleepyRelay { acked: 0 });
                net.run_until_stepwise(RunUntil::Drained);
                stats = net.stats();
                log = net.take_node::<Ticker>(t).unwrap().log;
                acked = net.take_node::<SleepyRelay>(r).unwrap().acked;
            }
            (stats, log, acked)
        }
        let serial = run(false);
        assert_eq!(serial.2, 1, "the relay saw exactly one ping");
        let ack_pos = serial.1.iter().position(|&(_, m)| m != u32::MAX);
        assert!(
            ack_pos.is_some_and(|p| p < serial.1.len() - 1),
            "the ack must land mid-train in serial, or the test is inert"
        );
        assert_eq!(run(true), serial);
    }

    #[test]
    fn topology_aware_plan_groups_racks_and_caps_shards() {
        let model = TopologyModel::rack_zone_default(); // 4 racks
                                                        // 2 LBs, 8 servers: rack r holds servers {r, r+4} and LB r % 2.
        let plan = ShardPlan::topology_aware(&model, 2, 8, 4);
        assert_eq!(plan.shards(), 4);
        // Same-rack nodes always share a shard.
        for i in 0..8 {
            for j in 0..8 {
                if model.rack_of(i) == model.rack_of(j) {
                    assert_eq!(
                        plan.shard_of(NodeId(1 + 2 + i)),
                        plan.shard_of(NodeId(1 + 2 + j)),
                        "servers {i} and {j} share a rack, must share a shard"
                    );
                }
            }
        }
        // LB j rides with rack j % racks.
        for j in 0..2 {
            assert_eq!(
                plan.shard_of(NodeId(1 + j)),
                plan.shard_of(NodeId(1 + 2 + (j % 4))),
                "LB {j} must be co-sharded with its rack's servers"
            );
        }
        // More threads than racks cannot help: shard count caps at racks.
        assert_eq!(ShardPlan::topology_aware(&model, 2, 8, 8).shards(), 4);
        // The grouped plan's lookahead is the cross-rack latency, not the
        // intra-rack minimum a rack-splitting plan would be stuck with.
        let client = NodeId(0);
        let lbs = [NodeId(1), NodeId(2)];
        let servers: Vec<NodeId> = (0..8).map(|i| NodeId(3 + i)).collect();
        let topo = model.build(client, &lbs, &servers);
        assert_eq!(
            plan.lookahead(&topo),
            Some(SimDuration::from_micros(80)),
            "rack-grouped lookahead must be the cross-rack latency"
        );
        // A 3-thread round-robin plan splits racks and pays the intra-rack
        // minimum instead.
        let rr = ShardPlan::round_robin(2, 8, 3);
        assert_eq!(rr.lookahead(&topo), Some(SimDuration::from_micros(15)));
        // ... while the topology-aware 3-thread plan keeps racks whole.
        let aware = ShardPlan::topology_aware(&model, 2, 8, 3);
        assert_eq!(aware.shards(), 3);
        assert_eq!(aware.lookahead(&topo), Some(SimDuration::from_micros(80)));
    }

    #[test]
    fn topology_aware_plan_degenerates_to_round_robin_on_uniform() {
        let model = TopologyModel::paper();
        let aware = ShardPlan::topology_aware(&model, 2, 6, 3);
        let rr = ShardPlan::round_robin(2, 6, 3);
        assert_eq!(aware.shard_of, rr.shard_of);
        assert_eq!(ShardPlan::topology_aware(&model, 2, 6, 1).shards(), 1);
    }

    #[test]
    fn shard_sizes_counts_slots_per_shard() {
        let plan = ShardPlan::from_assignments(vec![0, 1, 0, 1, 1], 2);
        assert_eq!(plan.shard_sizes(), vec![2, 3]);
    }
}
