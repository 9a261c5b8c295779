//! # srlb-net — IPv6 / SRv6 / TCP packet model for SRLB
//!
//! This crate provides the packet-level substrate on which the SRLB load
//! balancer ([paper: *SRLB: The Power of Choices in Load Balancing with
//! Segment Routing*, ICDCS 2017]) operates:
//!
//! * [`Ipv6Header`] — the fixed IPv6 header (RFC 8200),
//! * [`SegmentRoutingHeader`] — the IPv6 Segment Routing extension header
//!   (RFC 8754), the mechanism behind *Service Hunting*,
//! * [`TcpHeader`] / [`TcpFlags`] — enough of TCP to model connection
//!   establishment (SYN / SYN-ACK / ACK / RST / FIN),
//! * [`Packet`] — the composition of the above, with byte-accurate
//!   encoding/decoding,
//! * [`FlowKey`] — 5-tuple flow identification used by the load balancer's
//!   flow table,
//! * [`AddressPlan`] — the addressing scheme of the simulated data centre
//!   (VIPs, server physical addresses, client addresses).
//!
//! The simulator passes [`Packet`] values around in structured form for
//! speed; the wire encoding exists so that the SR behaviour is validated
//! against the actual RFC 8754 format (and is exercised by round-trip
//! property tests).
//!
//! ## Example
//!
//! ```
//! use srlb_net::{AddressPlan, PacketBuilder, SegmentRoutingHeader, TcpFlags};
//!
//! # fn main() -> Result<(), srlb_net::NetError> {
//! let plan = AddressPlan::default();
//! let client = plan.client_addr(0);
//! let vip = plan.vip(0);
//! let candidates = vec![plan.server_addr(3), plan.server_addr(7), vip];
//!
//! // The load balancer builds a SYN carrying a Service Hunting SRH.
//! let packet = PacketBuilder::tcp(client, vip)
//!     .ports(49152, 80)
//!     .flags(TcpFlags::SYN)
//!     .segment_routing(SegmentRoutingHeader::from_route(&candidates)?)
//!     .build();
//!
//! let bytes = packet.encode();
//! let decoded = srlb_net::Packet::decode(&bytes)?;
//! assert_eq!(decoded, packet);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod error;
pub mod flow;
pub mod ipv6;
pub mod packet;
pub mod payload;
pub mod srh;
pub mod tcp;

pub use addr::{AddressPlan, ServerId, Vip};
pub use error::NetError;
pub use flow::{mix64, FlowKey, PassthroughHashBuilder, PassthroughHasher, Protocol};
pub use ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
pub use packet::{Packet, PacketBuilder};
pub use payload::{Payload, INLINE_PAYLOAD_CAP};
pub use srh::{SegmentRoutingHeader, MAX_SEGMENTS, SRH_FIXED_LEN};
pub use tcp::{RetransmitPolicy, TcpFlags, TcpHeader, TCP_HEADER_LEN};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetError>;
