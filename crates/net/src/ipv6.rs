//! Fixed IPv6 header (RFC 8200) encoding and decoding.

use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::Result;

/// Length in bytes of the fixed IPv6 header.
pub(crate) const IPV6_HEADER_LEN: usize = 40;

/// Value of the IPv6 `Next Header` field (also used by extension headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NextHeader {
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// IPv6 Routing extension header (protocol number 43); used for the SRH.
    Routing,
    /// No next header (59).
    NoNextHeader,
    /// Any other protocol number.
    Other(u8),
}

impl NextHeader {
    /// Protocol number carried on the wire.
    pub fn number(self) -> u8 {
        match self {
            NextHeader::Tcp => 6,
            NextHeader::Udp => 17,
            NextHeader::Routing => 43,
            NextHeader::NoNextHeader => 59,
            NextHeader::Other(n) => n,
        }
    }
}

impl From<u8> for NextHeader {
    fn from(value: u8) -> Self {
        match value {
            6 => NextHeader::Tcp,
            17 => NextHeader::Udp,
            43 => NextHeader::Routing,
            59 => NextHeader::NoNextHeader,
            other => NextHeader::Other(other),
        }
    }
}

impl From<NextHeader> for u8 {
    fn from(value: NextHeader) -> Self {
        value.number()
    }
}

/// The fixed 40-byte IPv6 header.
///
/// Only the fields that matter to the load balancer model are given dedicated
/// accessors; the header still encodes and decodes every field faithfully.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ipv6Header {
    /// Traffic class (DSCP + ECN).
    pub traffic_class: u8,
    /// 20-bit flow label; the upper 12 bits are ignored on encode.
    pub flow_label: u32,
    /// Payload length in bytes (everything after the fixed header).
    pub payload_length: u16,
    /// Next header selector.
    pub next_header: NextHeader,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub source: Ipv6Addr,
    /// Destination address.
    pub destination: Ipv6Addr,
}

impl Ipv6Header {
    /// Creates a header with sensible defaults (hop limit 64, empty payload).
    pub fn new(source: Ipv6Addr, destination: Ipv6Addr, next_header: NextHeader) -> Self {
        Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            payload_length: 0,
            next_header,
            hop_limit: 64,
            source,
            destination,
        }
    }

    /// Encodes the header into `out` (appends exactly `IPV6_HEADER_LEN` bytes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let flow = self.flow_label & 0x000f_ffff;
        let first = (6u32 << 28) | ((self.traffic_class as u32) << 20) | flow;
        out.extend_from_slice(&first.to_be_bytes());
        out.extend_from_slice(&self.payload_length.to_be_bytes());
        out.push(self.next_header.number());
        out.push(self.hop_limit);
        out.extend_from_slice(&self.source.octets());
        out.extend_from_slice(&self.destination.octets());
    }

    /// Encodes the header into a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(IPV6_HEADER_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a header from the start of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] if fewer than 40 bytes are available and
    /// [`NetError::InvalidVersion`] if the version nibble is not 6.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < IPV6_HEADER_LEN {
            return Err(NetError::Truncated {
                what: "ipv6 header",
                needed: IPV6_HEADER_LEN,
                available: bytes.len(),
            });
        }
        let first = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let version = (first >> 28) as u8;
        if version != 6 {
            return Err(NetError::InvalidVersion(version));
        }
        let traffic_class = ((first >> 20) & 0xff) as u8;
        let flow_label = first & 0x000f_ffff;
        let payload_length = u16::from_be_bytes([bytes[4], bytes[5]]);
        let next_header = NextHeader::from(bytes[6]);
        let hop_limit = bytes[7];
        let mut src = [0u8; 16];
        src.copy_from_slice(&bytes[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&bytes[24..40]);
        Ok(Ipv6Header {
            traffic_class,
            flow_label,
            payload_length,
            next_header,
            hop_limit,
            source: Ipv6Addr::from(src),
            destination: Ipv6Addr::from(dst),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv6Header {
        Ipv6Header {
            traffic_class: 0x2e,
            flow_label: 0xabcde,
            payload_length: 1234,
            next_header: NextHeader::Tcp,
            hop_limit: 57,
            source: "2001:db8::1".parse().unwrap(),
            destination: "fd00::42".parse().unwrap(),
        }
    }

    #[test]
    fn encode_is_forty_bytes() {
        assert_eq!(sample().encode().len(), IPV6_HEADER_LEN);
    }

    #[test]
    fn roundtrip_preserves_all_fields() {
        let hdr = sample();
        let decoded = Ipv6Header::decode(&hdr.encode()).unwrap();
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn version_nibble_is_six() {
        let bytes = sample().encode();
        assert_eq!(bytes[0] >> 4, 6);
    }

    #[test]
    fn flow_label_is_masked_to_20_bits() {
        let mut hdr = sample();
        hdr.flow_label = 0xfff_fffff;
        let decoded = Ipv6Header::decode(&hdr.encode()).unwrap();
        assert_eq!(decoded.flow_label, 0x000f_ffff);
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let bytes = sample().encode();
        let err = Ipv6Header::decode(&bytes[..20]).unwrap_err();
        assert!(matches!(err, NetError::Truncated { needed: 40, .. }));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = 0x45; // IPv4-looking version nibble
        assert_eq!(
            Ipv6Header::decode(&bytes).unwrap_err(),
            NetError::InvalidVersion(4)
        );
    }

    #[test]
    fn next_header_number_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(NextHeader::from(n).number(), n);
            assert_eq!(u8::from(NextHeader::from(n)), n);
        }
        assert_eq!(NextHeader::Tcp.number(), 6);
        assert_eq!(NextHeader::Routing.number(), 43);
        assert_eq!(NextHeader::Udp.number(), 17);
        assert_eq!(NextHeader::NoNextHeader.number(), 59);
    }

    #[test]
    fn new_sets_defaults() {
        let hdr = Ipv6Header::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            NextHeader::Routing,
        );
        assert_eq!(hdr.hop_limit, 64);
        assert_eq!(hdr.payload_length, 0);
        assert_eq!(hdr.next_header, NextHeader::Routing);
    }
}
