//! # srlb-server — the backend server model
//!
//! This crate models the application servers of the SRLB testbed: in the
//! paper, twelve 2-core VMs each running an Apache HTTP server
//! (`mpm_prefork`, 32 worker threads, TCP backlog of 128,
//! `tcp_abort_on_overflow` enabled) behind a VPP virtual router with the
//! SRLB *server agent* plugin.  Here each server is a single simulation node
//! composed of:
//!
//! * [`WorkerPool`] — the fixed pool of worker threads; its [`Scoreboard`]
//!   (busy/idle counts) is the application state the paper's agent reads
//!   from Apache's scoreboard shared memory,
//! * [`ProcessorSharingCpu`] — the 2-core CPU every busy worker thread
//!   contends for; this contention is what makes a loaded server slow and is
//!   the signal the acceptance policies exploit,
//! * [`Backlog`] — the TCP accept queue; when it overflows the connection is
//!   reset, mirroring `tcp_abort_on_overflow`,
//! * [`AcceptPolicy`] — the connection acceptance policies of Section III:
//!   the static [`policy::StaticThreshold`] (SRc) and the dynamic
//!   [`policy::DynamicThreshold`] (SRdyn), plus always/never baselines,
//! * [`VirtualRouter`] — the SR endpoint behaviour of Algorithm 1: decide
//!   locally whether to deliver a hunted connection to the application or to
//!   forward it to the next candidate,
//! * [`ServerNode`] — the [`srlb_sim::Node`] tying it all together: TCP
//!   handshakes, request service with per-request CPU demand, backlog
//!   queueing, RST on overflow, and response generation,
//! * [`Directory`] — the mapping between data-plane IPv6 addresses and
//!   simulation node ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod backlog;
pub mod cpu;
pub mod directory;
pub mod policy;
pub mod server_node;
pub mod vrouter;
pub mod worker;

pub use agent::ApplicationAgent;
pub use backlog::Backlog;
pub use cpu::ProcessorSharingCpu;
pub use directory::{tier_members, Directory};
pub use policy::{AcceptDecision, AcceptPolicy, PolicyConfig};
pub use server_node::{ServerConfig, ServerNode, ServerStats};
pub use vrouter::{RouterAction, VirtualRouter};
pub use worker::{Scoreboard, WorkerId, WorkerPool};
