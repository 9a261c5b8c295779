//! # srlb-sim — deterministic discrete-event network simulator
//!
//! This crate is the evaluation substrate of the SRLB reproduction.  The
//! original paper evaluates its load balancer on a physical testbed (a VPP
//! load balancer and twelve Apache VMs bridged on one link); this simulator
//! replaces that testbed with a deterministic discrete-event model so that
//! the same queueing dynamics can be reproduced on a laptop with controlled
//! randomness.
//!
//! The building blocks are:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time,
//! * [`Node`] — the trait implemented by every simulated component (clients,
//!   the load balancer, servers); nodes exchange messages of a user-chosen
//!   type `M` and receive timer callbacks,
//! * [`Context`] — the API a node uses during a callback to send messages,
//!   schedule timers and draw random numbers,
//! * [`Topology`] — per-link one-way latencies,
//! * [`Steering`] — resilient ECMP hashing across a tier of equal-cost
//!   nodes (the model of the routers in front of a load-balancer fleet),
//! * [`Network`] — the engine frontend, the one way to build and drive a
//!   simulation, run under a [`RunUntil`] policy: [`Network::new`] is the
//!   single-threaded engine, and [`Network::with_pool_policy`] partitions the
//!   node table by a [`ShardPlan`] into worker-thread shards synchronised by
//!   conservative time windows, byte-identical to the serial loop,
//! * [`SimRng`] — a seeded random number generator that can be forked into
//!   independent, reproducible streams.
//!
//! Determinism rests on two properties: every event is ordered by a
//! globally unique key `(time, scheduling node, per-node seq)` that depends
//! only on the scheduling node's own history, and every node draws
//! randomness from a private stream forked from the run seed.  Any
//! execution order that respects the keys therefore reproduces the same
//! run, bit for bit.
//!
//! The engine core behind the frontend (clock, slab-backed event queue, node
//! registry, dispatch — `SimCore` in `core.rs`) is private to this crate: a
//! driver adds nodes, delivers control events and runs segments through
//! [`Network`], and reads the counters back as [`SimStats`].
//!
//! ## Example
//!
//! ```
//! use srlb_sim::{Context, Network, Node, NodeId, RunUntil, SimDuration, Topology};
//!
//! struct Counter { peer: Option<NodeId>, received: u32 }
//!
//! impl Node<u32> for Counter {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, 1);
//!         }
//!     }
//!     fn on_message(&mut self, msg: u32, from: NodeId, ctx: &mut Context<'_, u32>) {
//!         self.received += msg;
//!         if msg < 3 {
//!             ctx.send(from, msg + 1);
//!         }
//!     }
//! }
//!
//! let mut net = Network::new(42, Topology::uniform(SimDuration::from_micros(50)));
//! let a = net.add_node(Counter { peer: None, received: 0 });
//! let _b = net.add_node(Counter { peer: Some(a), received: 0 });
//! net.run_until(RunUntil::Drained);
//! assert_eq!(net.stats().messages_delivered, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod core;
pub mod event;
pub mod faults;
pub mod link;
pub mod network;
pub mod node;
pub mod pool;
pub mod rng;
pub mod shard;
pub mod steering;
pub mod time;
pub mod trace;

pub use crate::core::SimStats;
pub use event::{EventKey, EventQueue};
pub use faults::{DownWindow, DropCause, FaultConfig, LinkMatch, LossRule, OneShotDrop, QueueRule};
pub use link::{Topology, TopologyModel};
pub use network::{Network, RunUntil};
pub use node::{Context, Node, NodeId, TimerToken};
pub use rng::SimRng;
pub use shard::{ExecMode, PoolPolicy, ShardPlan};
pub use steering::{ecmp_steer, Steering};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEntry, TraceKind, TraceLog};

// The one line of debt this crate carries: `benchmark/`, frozen outside
// benchmark-only PRs, still spells the general constructor's type this way.
// Leaves with the next benchmark-only PR; CI fails on any other use.
pub use network::Network as ShardedNetwork;
