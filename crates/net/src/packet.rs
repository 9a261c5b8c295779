//! Full packet composition: IPv6 header, optional SRH, TCP header, payload.

use std::fmt;
use std::net::Ipv6Addr;
use std::num::NonZeroU64;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::flow::{FlowKey, Protocol};
use crate::ipv6::{Ipv6Header, NextHeader, IPV6_HEADER_LEN};
use crate::payload::Payload;
use crate::srh::SegmentRoutingHeader;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::Result;

/// A structured IPv6/TCP packet, optionally carrying a Segment Routing
/// header.
///
/// The simulator passes packets around in this structured form;
/// [`Packet::encode`] / [`Packet::decode`] provide the byte-accurate wire
/// representation (validated by round-trip property tests).
///
/// A packet built for a flow its sender already holds the [`FlowKey`] of
/// ([`PacketBuilder::forward`] / [`PacketBuilder::reverse`]) also carries
/// that flow's [`FlowKey::stable_hash`], the way a switch pipeline hashes
/// the 5-tuple once at ingress and hands the result to every later stage:
/// [`Packet::flow_key_forward`] / [`Packet::flow_key_reverse`] then rebuild
/// the key without hashing.  The hash is metadata about the packet, not part
/// of it — it is not compared, not encoded, not serialized, and a decoded or
/// deserialized packet has none (its keys are hashed on extraction).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Packet {
    /// Fixed IPv6 header.
    pub ipv6: Ipv6Header,
    /// Optional segment routing header.
    pub srh: Option<SegmentRoutingHeader>,
    /// TCP header.
    pub tcp: TcpHeader,
    /// Application payload carried by the packet (inline up to 16 bytes,
    /// zero-copy shared bytes beyond).
    #[serde(with = "payload_serde")]
    pub payload: Payload,
    /// The client → VIP [`FlowKey::stable_hash`] of the flow this packet
    /// belongs to, when its builder knew it.  Valid for as long as the
    /// source address, the final destination and the ports are what they
    /// were built as, and for the extraction that matches the direction it
    /// was built in: the SRH mutators below keep it so (dropping it if a
    /// new route ends elsewhere), and debug builds re-check it on every
    /// extraction.  A hash of exactly zero is stored as "none".
    #[serde(skip)]
    flow_hash: Option<NonZeroU64>,
}

mod payload_serde {
    //! Serde helpers so the payload round-trips through serde as a byte
    //! vector.
    use serde::{Deserialize, Deserializer, Serializer};

    use crate::payload::Payload;

    pub fn serialize<S: Serializer>(payload: &Payload, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(payload)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<Payload, D::Error> {
        let v = Vec::<u8>::deserialize(deserializer)?;
        Ok(Payload::from(v))
    }
}

/// Equality of what is on the wire; the carried flow hash is not part of it.
impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.ipv6 == other.ipv6
            && self.srh == other.srh
            && self.tcp == other.tcp
            && self.payload == other.payload
    }
}

impl Eq for Packet {}

impl Packet {
    /// The address the network will deliver this packet to next (the IPv6
    /// destination address).
    pub fn current_destination(&self) -> Ipv6Addr {
        self.ipv6.destination
    }

    /// The source address of the packet.
    pub fn source(&self) -> Ipv6Addr {
        self.ipv6.source
    }

    /// The final destination of the packet: the last SRH segment if an SRH is
    /// present, the IPv6 destination otherwise.
    pub fn final_destination(&self) -> Ipv6Addr {
        match &self.srh {
            Some(srh) => srh.final_segment(),
            None => self.ipv6.destination,
        }
    }

    /// Returns `true` for a pure SYN (new connection request).
    pub fn is_syn(&self) -> bool {
        self.tcp.is_syn()
    }

    /// Returns `true` for a SYN-ACK (connection acceptance).
    pub fn is_syn_ack(&self) -> bool {
        self.tcp.is_syn_ack()
    }

    /// Returns `true` if the RST flag is set.
    pub fn is_rst(&self) -> bool {
        self.tcp.is_rst()
    }

    /// Returns `true` if the FIN flag is set.
    pub fn is_fin(&self) -> bool {
        self.tcp.is_fin()
    }

    /// Extracts the flow key in the client → VIP direction, assuming this
    /// packet travels client → VIP (i.e. as seen by the load balancer on the
    /// way in).
    pub fn flow_key_forward(&self) -> FlowKey {
        self.flow_key(
            self.ipv6.source,
            self.final_destination(),
            self.tcp.source_port,
            self.tcp.destination_port,
        )
    }

    /// Extracts the flow key in the client → VIP direction, assuming this
    /// packet travels VIP/server → client (i.e. a return packet).
    pub fn flow_key_reverse(&self) -> FlowKey {
        self.flow_key(
            self.final_destination(),
            self.ipv6.source,
            self.tcp.destination_port,
            self.tcp.source_port,
        )
    }

    /// The TCP flow key of the given client → VIP tuple, with the carried
    /// hash if there is one and a freshly computed one otherwise.
    #[inline]
    fn flow_key(
        &self,
        client: Ipv6Addr,
        vip: Ipv6Addr,
        client_port: u16,
        vip_port: u16,
    ) -> FlowKey {
        match self.flow_hash {
            Some(hash) => FlowKey::with_hash(
                client,
                vip,
                client_port,
                vip_port,
                Protocol::Tcp,
                hash.get(),
            ),
            None => FlowKey::new(client, vip, client_port, vip_port, Protocol::Tcp),
        }
    }

    /// Whether a carried flow hash stays valid under a new route ending at
    /// `new_final`: only if that is where the packet was bound for already.
    #[inline]
    fn keeps_flow_hash(&self, new_final: Option<&Ipv6Addr>) -> bool {
        self.flow_hash.is_some() && new_final == Some(&self.final_destination())
    }

    /// Advances the SRH to the next segment and rewrites the IPv6 destination
    /// address accordingly (the standard SR endpoint "End" behaviour).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::MissingSegmentRoutingHeader`] if no SRH is present
    /// or [`NetError::NoSegmentsLeft`] if the header is exhausted.
    pub fn advance_segment(&mut self) -> Result<Ipv6Addr> {
        let srh = self
            .srh
            .as_mut()
            .ok_or(NetError::MissingSegmentRoutingHeader)?;
        let next = srh.advance()?;
        self.ipv6.destination = next;
        Ok(next)
    }

    /// Sets `Segments Left` on the SRH and rewrites the IPv6 destination to
    /// the segment it now designates.  Used to express the paper's
    /// `SegmentsLeft ← 0` (deliver locally / jump to VIP) and
    /// `SegmentsLeft ← 1` (forward to second candidate) operations.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::MissingSegmentRoutingHeader`] if no SRH is present
    /// or [`NetError::SegmentsLeftOutOfRange`] for an invalid index.
    pub fn set_segments_left(&mut self, value: u8) -> Result<Ipv6Addr> {
        let srh = self
            .srh
            .as_mut()
            .ok_or(NetError::MissingSegmentRoutingHeader)?;
        srh.set_segments_left(value)?;
        let active = srh.active_segment();
        self.ipv6.destination = active;
        Ok(active)
    }

    /// Inserts (or replaces) a segment routing header, pointing the IPv6
    /// destination at its active segment.
    pub fn insert_srh(&mut self, srh: SegmentRoutingHeader) {
        if !self.keeps_flow_hash(Some(&srh.final_segment())) {
            self.flow_hash = None;
        }
        self.ipv6.destination = srh.active_segment();
        self.srh = Some(srh);
        self.normalize();
    }

    /// Routes the packet along `route` (traversal order) with its first
    /// `consumed` segments already visited: the SRH is written in place —
    /// over the existing one, or straight into the packet if it had none —
    /// and the IPv6 destination becomes the active segment
    /// `route[consumed]`, which is returned.  Equivalent to
    /// [`Packet::insert_srh`] of a freshly built header, without building
    /// it aside and moving it in.
    ///
    /// # Errors
    ///
    /// Those of [`SegmentRoutingHeader::set_route`]; the packet is unchanged
    /// on error.
    pub fn set_route(&mut self, route: &[Ipv6Addr], consumed: usize) -> Result<Ipv6Addr> {
        let keeps_flow_hash = self.keeps_flow_hash(route.last());
        let had_srh = self.srh.is_some();
        let srh = self.srh.get_or_insert(SegmentRoutingHeader::BLANK);
        if let Err(e) = srh.set_route(route, consumed) {
            if !had_srh {
                self.srh = None;
            }
            return Err(e);
        }
        let active = srh.active_segment();
        self.ipv6.destination = active;
        if !keeps_flow_hash {
            self.flow_hash = None;
        }
        self.normalize();
        Ok(active)
    }

    /// Removes the SRH, if any, setting the IPv6 destination to the final
    /// segment (the behaviour of penultimate-segment decapsulation).
    pub fn strip_srh(&mut self) -> Option<SegmentRoutingHeader> {
        let srh = self.srh.take();
        if let Some(ref h) = srh {
            self.ipv6.destination = h.final_segment();
        }
        self.normalize();
        srh
    }

    /// Recomputes the IPv6 `payload_length` and `next_header` fields (and the
    /// SRH `next_header`) so that the structured form matches what
    /// [`Packet::encode`] will emit.  Called automatically by
    /// [`PacketBuilder::build`] and the SRH mutators.
    pub fn normalize(&mut self) {
        self.ipv6.payload_length = (self.encoded_len() - IPV6_HEADER_LEN) as u16;
        self.ipv6.next_header = if self.srh.is_some() {
            NextHeader::Routing
        } else {
            NextHeader::Tcp
        };
        if let Some(srh) = &mut self.srh {
            srh.next_header = NextHeader::Tcp;
        }
    }

    /// Total length of the encoded packet in bytes.
    pub fn encoded_len(&self) -> usize {
        IPV6_HEADER_LEN
            + self.srh.as_ref().map_or(0, |s| s.encoded_len())
            + crate::tcp::TCP_HEADER_LEN
            + self.payload.len()
    }

    /// Encodes the packet to its wire representation.
    ///
    /// The IPv6 `payload_length` and `next_header` fields, and the SRH
    /// `next_header` field, are set consistently regardless of the values
    /// stored in the structured form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        let payload_after_ipv6 = self.encoded_len() - IPV6_HEADER_LEN;

        let mut ipv6 = self.ipv6.clone();
        ipv6.payload_length = payload_after_ipv6 as u16;
        ipv6.next_header = if self.srh.is_some() {
            NextHeader::Routing
        } else {
            NextHeader::Tcp
        };
        ipv6.encode_into(&mut out);

        if let Some(srh) = &self.srh {
            let mut srh = srh.clone();
            srh.next_header = NextHeader::Tcp;
            srh.encode_into(&mut out);
        }
        self.tcp.encode_into(&mut out);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes a packet from its wire representation.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] for truncated input, a non-IPv6 version, an
    /// unknown routing header type, or an upper-layer protocol other than
    /// TCP.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let ipv6 = Ipv6Header::decode(bytes)?;
        let mut offset = IPV6_HEADER_LEN;
        let declared_end = IPV6_HEADER_LEN + ipv6.payload_length as usize;
        if bytes.len() < declared_end {
            return Err(NetError::Truncated {
                what: "ipv6 payload",
                needed: declared_end,
                available: bytes.len(),
            });
        }
        let mut next = ipv6.next_header;
        let mut srh = None;
        if next == NextHeader::Routing {
            let (parsed, consumed) = SegmentRoutingHeader::decode(&bytes[offset..declared_end])?;
            next = parsed.next_header;
            srh = Some(parsed);
            offset += consumed;
        }
        if next != NextHeader::Tcp {
            return Err(NetError::UnsupportedProtocol(next.number()));
        }
        let (tcp, consumed) = TcpHeader::decode(&bytes[offset..declared_end])?;
        offset += consumed;
        // Payloads up to 16 bytes are inline, so decoding a handshake or
        // request/response packet performs no heap allocation at all.
        let payload = Payload::copy_from_slice(&bytes[offset..declared_end]);
        Ok(Packet {
            ipv6,
            srh,
            tcp,
            payload,
            flow_hash: None,
        })
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] -> [{}]",
            self.tcp.flags, self.ipv6.source, self.ipv6.destination
        )?;
        if let Some(srh) = &self.srh {
            write!(f, " {srh}")?;
        }
        if !self.payload.is_empty() {
            write!(f, " +{}B", self.payload.len())?;
        }
        Ok(())
    }
}

/// Builder for [`Packet`] values.
///
/// # Example
///
/// ```
/// use srlb_net::{PacketBuilder, TcpFlags};
///
/// let pkt = PacketBuilder::tcp("2001:db8::1".parse().unwrap(), "2001:db8::2".parse().unwrap())
///     .ports(49152, 80)
///     .flags(TcpFlags::SYN)
///     .payload(b"GET / HTTP/1.1".as_slice())
///     .build();
/// assert!(pkt.is_syn());
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    packet: Packet,
}

impl PacketBuilder {
    /// Starts building a TCP packet from `source` to `destination`.
    #[inline]
    pub fn tcp(source: Ipv6Addr, destination: Ipv6Addr) -> Self {
        PacketBuilder {
            packet: Packet {
                ipv6: Ipv6Header::new(source, destination, NextHeader::Tcp),
                srh: None,
                tcp: TcpHeader::new(0, 0, TcpFlags::EMPTY),
                payload: Payload::new(),
                flow_hash: None,
            },
        }
    }

    /// Starts building a packet of `flow` travelling client → VIP: addresses
    /// and ports are the flow's, and the packet carries the flow's hash, so
    /// [`Packet::flow_key_forward`] on it (at any hop) does not hash.
    #[inline]
    pub fn forward(flow: &FlowKey) -> Self {
        Self::tcp(flow.client(), flow.vip())
            .ports(flow.client_port(), flow.vip_port())
            .carrying_hash_of(flow)
    }

    /// Starts building a packet of `flow` travelling VIP → client, the
    /// counterpart of [`PacketBuilder::forward`] for
    /// [`Packet::flow_key_reverse`].
    #[inline]
    pub fn reverse(flow: &FlowKey) -> Self {
        Self::tcp(flow.vip(), flow.client())
            .ports(flow.vip_port(), flow.client_port())
            .carrying_hash_of(flow)
    }

    /// Packets are TCP, so only a TCP flow's hash is theirs to carry.
    fn carrying_hash_of(mut self, flow: &FlowKey) -> Self {
        if flow.protocol() == Protocol::Tcp {
            self.packet.flow_hash = NonZeroU64::new(flow.stable_hash());
        }
        self
    }

    /// Sets source and destination ports (a different flow from the one
    /// the builder may have been started for, so a carried hash is dropped).
    #[inline]
    pub fn ports(mut self, source: u16, destination: u16) -> Self {
        self.packet.tcp.source_port = source;
        self.packet.tcp.destination_port = destination;
        self.packet.flow_hash = None;
        self
    }

    /// Sets the TCP flags.
    #[inline]
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.packet.tcp.flags = flags;
        self
    }

    /// Sets the TCP sequence number.
    #[inline]
    pub fn sequence(mut self, seq: u32) -> Self {
        self.packet.tcp.sequence = seq;
        self
    }

    /// Sets the TCP acknowledgment number.
    #[inline]
    pub fn acknowledgment(mut self, ack: u32) -> Self {
        self.packet.tcp.acknowledgment = ack;
        self
    }

    /// Attaches a segment routing header; the IPv6 destination is rewritten
    /// to the SRH's active segment.
    #[inline]
    pub fn segment_routing(mut self, srh: SegmentRoutingHeader) -> Self {
        self.packet.insert_srh(srh);
        self
    }

    /// Sets the payload.
    #[inline]
    pub fn payload(mut self, payload: impl Into<Payload>) -> Self {
        self.packet.payload = payload.into();
        self
    }

    /// Sets the hop limit.
    #[inline]
    pub fn hop_limit(mut self, hops: u8) -> Self {
        self.packet.ipv6.hop_limit = hops;
        self
    }

    /// Finishes building the packet, normalising the length and next-header
    /// fields so the structured form agrees with the wire encoding.
    #[inline]
    pub fn build(self) -> Packet {
        let mut packet = self.packet;
        packet.normalize();
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, n)
    }

    fn syn_with_srh() -> Packet {
        let srh = SegmentRoutingHeader::from_route(&[a(1), a(2), a(100)]).unwrap();
        PacketBuilder::tcp(a(10), a(100))
            .ports(50000, 80)
            .flags(TcpFlags::SYN)
            .segment_routing(srh)
            .build()
    }

    #[test]
    fn builder_sets_destination_to_active_segment() {
        let pkt = syn_with_srh();
        assert_eq!(pkt.current_destination(), a(1));
        assert_eq!(pkt.final_destination(), a(100));
        assert!(pkt.is_syn());
    }

    #[test]
    fn advance_segment_rewrites_destination() {
        let mut pkt = syn_with_srh();
        assert_eq!(pkt.advance_segment().unwrap(), a(2));
        assert_eq!(pkt.current_destination(), a(2));
        assert_eq!(pkt.advance_segment().unwrap(), a(100));
        assert_eq!(pkt.advance_segment().unwrap_err(), NetError::NoSegmentsLeft);
    }

    #[test]
    fn set_segments_left_rewrites_destination() {
        let mut pkt = syn_with_srh();
        assert_eq!(pkt.set_segments_left(0).unwrap(), a(100));
        assert_eq!(pkt.current_destination(), a(100));
    }

    #[test]
    fn operations_without_srh_fail() {
        let mut pkt = PacketBuilder::tcp(a(1), a(2)).build();
        assert_eq!(
            pkt.advance_segment().unwrap_err(),
            NetError::MissingSegmentRoutingHeader
        );
        assert_eq!(
            pkt.set_segments_left(0).unwrap_err(),
            NetError::MissingSegmentRoutingHeader
        );
        assert!(pkt.strip_srh().is_none());
    }

    #[test]
    fn strip_srh_restores_final_destination() {
        let mut pkt = syn_with_srh();
        let srh = pkt.strip_srh().unwrap();
        assert_eq!(srh.num_segments(), 3);
        assert_eq!(pkt.current_destination(), a(100));
        assert!(pkt.srh.is_none());
    }

    #[test]
    fn set_route_equals_inserting_a_fresh_header() {
        let route = [a(1), a(2), a(100)];
        let bare = PacketBuilder::tcp(a(10), a(100))
            .ports(50000, 80)
            .flags(TcpFlags::SYN)
            .build();
        for consumed in 0..2 {
            let mut expected = bare.clone();
            let mut srh = SegmentRoutingHeader::from_route(&route).unwrap();
            srh.set_segments_left((2 - consumed) as u8).unwrap();
            expected.insert_srh(srh);
            // Into a packet without an SRH, and over an existing one.
            let mut fresh = bare.clone();
            assert_eq!(fresh.set_route(&route, consumed).unwrap(), route[consumed]);
            assert_eq!(fresh, expected);
            let mut rerouted = syn_with_srh();
            rerouted.set_route(&[a(7), a(8)], 0).unwrap();
            rerouted.set_route(&route, consumed).unwrap();
            assert_eq!(rerouted, expected);
            assert_eq!(fresh.encode(), expected.encode());
        }
        // A bad route leaves the packet as it was, SRH or not.
        let mut untouched = bare.clone();
        assert!(untouched.set_route(&[], 0).is_err());
        assert_eq!(untouched, bare);
        let mut routed = syn_with_srh();
        assert!(routed.set_route(&route, 3).is_err());
        assert_eq!(routed, syn_with_srh());
    }

    #[test]
    fn packet_stays_within_its_size_budget() {
        // Every simulated hop moves a `Packet` into the event queue and out
        // again; growing it makes every event dearer.  232 = 200 bytes of
        // headers (IPv6 44, optional SRH 136, TCP 20) + 24 of payload (16
        // inline bytes, a length and a tag — 8 more than a bare `Bytes`
        // pointer pair) + 8 for the carried flow hash.
        assert_eq!(std::mem::size_of::<Packet>(), 232);
        assert_eq!(std::mem::size_of::<Option<Packet>>(), 232, "niche kept");
    }

    #[test]
    fn builders_for_a_flow_carry_its_hash_in_both_directions() {
        let flow = FlowKey::new(a(10), a(100), 50000, 80, Protocol::Tcp);
        let request = PacketBuilder::forward(&flow).flags(TcpFlags::SYN).build();
        assert_eq!(
            request.flow_hash.map(NonZeroU64::get),
            Some(flow.stable_hash())
        );
        assert_eq!(request.flow_key_forward(), flow);
        let reply = PacketBuilder::reverse(&flow)
            .flags(TcpFlags::SYN_ACK)
            .build();
        assert_eq!(reply.flow_key_reverse(), flow);
        // Same bytes as the by-hand builder, and equal to it: the hash is
        // not part of the packet.
        let by_hand = PacketBuilder::tcp(a(10), a(100))
            .ports(50000, 80)
            .flags(TcpFlags::SYN)
            .build();
        assert_eq!(by_hand.flow_hash, None);
        assert_eq!(request, by_hand);
        assert_eq!(request.encode(), by_hand.encode());
        assert_eq!(Packet::decode(&request.encode()).unwrap().flow_hash, None);
        // A UDP flow's hash is not a TCP packet's to carry.
        let udp = FlowKey::new(a(10), a(100), 50000, 80, Protocol::Udp);
        assert_eq!(PacketBuilder::forward(&udp).build().flow_hash, None);
        assert_ne!(PacketBuilder::forward(&udp).build().flow_key_forward(), udp);
    }

    #[test]
    fn carried_hash_survives_hunting_and_is_dropped_by_a_foreign_route() {
        let flow = FlowKey::new(a(10), a(100), 50000, 80, Protocol::Tcp);
        let mut pkt = PacketBuilder::forward(&flow).flags(TcpFlags::SYN).build();
        // The load balancer's hunt, a server passing on, local delivery and
        // decapsulation all end at the same VIP.
        pkt.set_route(&[a(1), a(2), a(100)], 0).unwrap();
        pkt.advance_segment().unwrap();
        pkt.set_segments_left(0).unwrap();
        assert!(pkt.flow_hash.is_some());
        assert_eq!(pkt.flow_key_forward(), flow);
        pkt.strip_srh();
        assert_eq!(pkt.flow_key_forward(), flow);
        // A rejected route changes nothing.
        assert!(pkt.set_route(&[], 0).is_err());
        assert!(pkt.flow_hash.is_some());
        // A route that ends elsewhere makes it another flow's packet.
        pkt.set_route(&[a(1), a(200)], 0).unwrap();
        assert_eq!(pkt.flow_hash, None);
        assert_eq!(
            pkt.flow_key_forward(),
            FlowKey::new(a(10), a(200), 50000, 80, Protocol::Tcp)
        );
        let mut other = PacketBuilder::forward(&flow).build();
        other.insert_srh(SegmentRoutingHeader::from_route(&[a(1), a(200)]).unwrap());
        assert_eq!(other.flow_hash, None);
        // So do other ports on the builder.
        assert_eq!(
            PacketBuilder::forward(&flow).ports(1, 2).build().flow_hash,
            None
        );
    }

    #[test]
    fn serialized_form_has_exactly_the_four_wire_fields() {
        let flow = FlowKey::new(a(10), a(100), 50000, 80, Protocol::Tcp);
        let pkt = PacketBuilder::forward(&flow)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .payload(vec![1u8, 2, 3])
            .build();
        let value = serde::to_value(&pkt).unwrap();
        match &value {
            serde::Value::Map(fields) => {
                let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
                assert_eq!(names, ["ipv6", "srh", "tcp", "payload"]);
            }
            other => panic!("expected map, got {other:?}"),
        }
        let back: Packet = serde::from_value(value).unwrap();
        assert_eq!(back, pkt);
        assert_eq!(back.flow_hash, None);
        assert_eq!(back.flow_key_forward(), flow);
    }

    #[test]
    fn flow_keys_are_symmetric() {
        let pkt = syn_with_srh();
        let forward = pkt.flow_key_forward();
        assert_eq!(forward.client(), a(10));
        assert_eq!(forward.vip(), a(100));
        assert_eq!(forward.client_port(), 50000);
        assert_eq!(forward.vip_port(), 80);

        // A reply from the VIP to the client maps to the same key.
        let reply = PacketBuilder::tcp(a(100), a(10))
            .ports(80, 50000)
            .flags(TcpFlags::SYN_ACK)
            .build();
        assert_eq!(reply.flow_key_reverse(), forward);
    }

    #[test]
    fn encode_decode_roundtrip_with_srh() {
        let pkt = syn_with_srh();
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), pkt.encoded_len());
        let decoded = Packet::decode(&bytes).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn encode_decode_roundtrip_without_srh() {
        let pkt = PacketBuilder::tcp(a(1), a(2))
            .ports(1234, 80)
            .flags(TcpFlags::ACK)
            .payload(vec![1u8, 2, 3, 4, 5])
            .build();
        let decoded = Packet::decode(&pkt.encode()).unwrap();
        assert_eq!(decoded, pkt);
        assert_eq!(decoded.payload.as_ref(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn encode_sets_consistent_lengths_and_next_headers() {
        let pkt = syn_with_srh();
        let bytes = pkt.encode();
        // payload length covers SRH + TCP
        let payload_len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        assert_eq!(payload_len, bytes.len() - IPV6_HEADER_LEN);
        // next header after IPv6 is routing (43), after SRH is TCP (6)
        assert_eq!(bytes[6], 43);
        assert_eq!(bytes[IPV6_HEADER_LEN], 6);
    }

    #[test]
    fn decode_rejects_non_tcp_payload() {
        let mut pkt = PacketBuilder::tcp(a(1), a(2)).build();
        pkt.ipv6.next_header = NextHeader::Udp;
        let mut bytes = pkt.encode();
        // encode() normalises next_header, so corrupt it after the fact
        bytes[6] = 17;
        assert_eq!(
            Packet::decode(&bytes).unwrap_err(),
            NetError::UnsupportedProtocol(17)
        );
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let pkt = syn_with_srh();
        let bytes = pkt.encode();
        assert!(matches!(
            Packet::decode(&bytes[..bytes.len() - 4]).unwrap_err(),
            NetError::Truncated { .. }
        ));
    }

    #[test]
    fn display_mentions_flags_and_addresses() {
        let pkt = syn_with_srh();
        let text = pkt.to_string();
        assert!(text.contains("SYN"));
        assert!(text.contains("SRH"));
    }
}
