//! # srlb-server — the backend server model
//!
//! This crate models the application servers of the SRLB testbed: in the
//! paper, twelve 2-core VMs each running an Apache HTTP server
//! (`mpm_prefork`, 32 worker threads, TCP backlog of 128,
//! `tcp_abort_on_overflow` enabled) behind a VPP virtual router with the
//! SRLB *server agent* plugin.  Here each server is a single simulation node
//! composed of:
//!
//! * [`WorkerPool`] — the fixed pool of worker threads; its busy count is
//!   the application state the paper's agent reads from Apache's
//!   scoreboard shared memory,
//! * [`ProcessorSharingCpu`] — the 2-core CPU every busy worker thread
//!   contends for; this contention is what makes a loaded server slow and is
//!   the signal the acceptance policies exploit,
//! * [`PolicyConfig`] — the connection acceptance policies of Section III:
//!   the static threshold `SRc` (Algorithm 1) and the dynamic `SRdyn`
//!   (Algorithm 2), plus always/never baselines,
//! * [`ServerNode`] — the [`srlb_sim::Node`] tying it all together: the SR
//!   endpoint behaviour of Algorithm 1 (deliver a hunted connection to the
//!   application or forward it to the next candidate, as the policy
//!   decides), TCP handshakes, one connection record per flow (kept until
//!   no retransmission of the flow can arrive any more), request
//!   service with per-request CPU demand, the TCP accept backlog and its
//!   RST on overflow (`tcp_abort_on_overflow`), and response generation,
//! * [`Directory`] — the mapping between data-plane IPv6 addresses and
//!   simulation node ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub mod cpu;
pub mod directory;
pub mod policy;
pub mod server_node;
pub mod worker;

pub use cpu::ProcessorSharingCpu;
pub use directory::{tier_members, Directory};
pub use policy::PolicyConfig;
pub use server_node::{ServerConfig, ServerNode, ServerStats};
pub use worker::{WorkerId, WorkerPool};
