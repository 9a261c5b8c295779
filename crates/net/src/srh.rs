//! IPv6 Segment Routing Header (SRH, RFC 8754).
//!
//! The SRH is the mechanism behind *Service Hunting*: the load balancer
//! inserts an SRH listing candidate servers followed by the VIP, and each
//! candidate's virtual router either delivers the packet locally or advances
//! the header to the next candidate.
//!
//! ## Wire format
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | Next Header   |  Hdr Ext Len  | Routing Type=4| Segments Left |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |  Last Entry   |     Flags     |              Tag              |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |  Segment List[0] (128 bits, the FINAL segment of the path)    |
//! |  ...                                                          |
//! |  Segment List[n-1] (128 bits, the FIRST segment of the path)  |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! The segment list is stored in *reverse* traversal order: `Segment List[0]`
//! is the last segment and `Segment List[Last Entry]` the first.  The active
//! segment is `Segment List[Segments Left]`.
//!
//! ## Allocation-free representation
//!
//! SRLB routes are short — `k` candidates plus the VIP, with `k + 1 ≤`
//! [`MAX_SEGMENTS`] — so the segment list is stored inline as a
//! fixed-capacity array rather than a heap `Vec`.  Decoding, encoding into a
//! reused buffer and `Segments Left` manipulation therefore never touch the
//! allocator (asserted by the `alloc_free` integration test).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::ipv6::NextHeader;
use crate::Result;

/// Length in bytes of the fixed (non segment-list) part of the SRH.
pub const SRH_FIXED_LEN: usize = 8;

/// Maximum number of segments an SRH can carry in this workspace.
///
/// SRLB Service Hunting routes are `[candidate₁, …, candidateₖ, VIP]` with
/// `k ≤ 7`, so eight inline slots cover every route the load balancer or a
/// server ever builds while keeping the header a fixed-size, allocation-free
/// value.
pub const MAX_SEGMENTS: usize = 8;

/// The SRH's segment list: a fixed-capacity inline array of IPv6 addresses.
///
/// Equality, hashing, ordering of serialization and the `Debug` output all
/// consider only the live prefix, so scratch space beyond `len` can never
/// influence observable behaviour.
#[derive(Clone, Copy)]
struct SegmentList {
    segments: [Ipv6Addr; MAX_SEGMENTS],
    len: u8,
}

impl SegmentList {
    const EMPTY: SegmentList = SegmentList {
        segments: [Ipv6Addr::UNSPECIFIED; MAX_SEGMENTS],
        len: 0,
    };

    /// Checks that `n` segments fit a list.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptySegmentList`] for zero and
    /// [`NetError::SegmentListTooLong`] for more than [`MAX_SEGMENTS`].
    fn check_len(n: usize) -> Result<()> {
        match n {
            0 => Err(NetError::EmptySegmentList),
            n if n > MAX_SEGMENTS => Err(NetError::SegmentListTooLong(n)),
            _ => Ok(()),
        }
    }

    /// Overwrites the list with `segments` (at most [`MAX_SEGMENTS`], checked
    /// by the caller), in the same order or reversed.
    fn fill(&mut self, segments: &[Ipv6Addr], reversed: bool) {
        let n = segments.len();
        if reversed {
            for (slot, segment) in self.segments[..n].iter_mut().zip(segments.iter().rev()) {
                *slot = *segment;
            }
        } else {
            self.segments[..n].copy_from_slice(segments);
        }
        self.len = n as u8;
    }

    fn as_slice(&self) -> &[Ipv6Addr] {
        &self.segments[..self.len as usize]
    }

    fn len(&self) -> usize {
        self.len as usize
    }
}

impl PartialEq for SegmentList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SegmentList {}

impl Hash for SegmentList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for SegmentList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Serialize for SegmentList {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        // Serializes exactly like the historical `Vec<Ipv6Addr>` field: a
        // sequence of address strings, live prefix only.
        self.as_slice().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SegmentList {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let segments = Vec::<Ipv6Addr>::deserialize(deserializer)?;
        SegmentList::check_len(segments.len())
            .map_err(|e| <D::Error as serde::de::Error>::custom(e.to_string()))?;
        let mut list = SegmentList::EMPTY;
        list.fill(&segments, false);
        Ok(list)
    }
}

/// An IPv6 Segment Routing extension header.
///
/// Segments are stored in wire order (`segment_list[0]` is the final
/// segment); most callers should use the traversal-order constructors and
/// accessors ([`SegmentRoutingHeader::from_route`],
/// [`SegmentRoutingHeader::route`], [`SegmentRoutingHeader::active_segment`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SegmentRoutingHeader {
    /// Protocol of the header following the SRH (normally TCP).
    pub next_header: NextHeader,
    /// Index of the active segment in the wire-order segment list.
    segments_left: u8,
    /// Flags field (unused by SRLB, carried for fidelity).
    pub flags: u8,
    /// Tag field (unused by SRLB, carried for fidelity).
    pub tag: u16,
    /// Segment list in wire order: `[0]` is the final segment.
    segment_list: SegmentList,
}

impl SegmentRoutingHeader {
    /// Builds an SRH from a route given in traversal order: the first element
    /// is the first segment to visit, the last element the final destination
    /// (for Service Hunting: `[candidate1, candidate2, VIP]`).
    ///
    /// `Segments Left` is initialised to point at the first segment, matching
    /// what an SR source node emits.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptySegmentList`] for an empty route and
    /// [`NetError::SegmentListTooLong`] for more than [`MAX_SEGMENTS`]
    /// segments.
    pub fn from_route(route: &[Ipv6Addr]) -> Result<Self> {
        let mut srh = Self::BLANK;
        srh.set_route(route, 0)?;
        Ok(srh)
    }

    /// A header with no segments yet: only ever a value about to be
    /// overwritten by [`SegmentRoutingHeader::set_route`], so that a route
    /// is written once, where it will live, instead of being built aside
    /// and moved there.
    pub(crate) const BLANK: SegmentRoutingHeader = SegmentRoutingHeader {
        next_header: NextHeader::Tcp,
        segments_left: 0,
        flags: 0,
        tag: 0,
        segment_list: SegmentList::EMPTY,
    };

    /// Rewrites the header in place to `route` (traversal order, as in
    /// [`SegmentRoutingHeader::from_route`]) with the first `consumed`
    /// segments already visited, so `route[consumed]` becomes the active
    /// segment.  Everything else is reset as in a freshly built header.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptySegmentList`],
    /// [`NetError::SegmentListTooLong`], or [`NetError::NoSegmentsLeft`] if
    /// `consumed` covers the whole route; the header is unchanged on error.
    pub fn set_route(&mut self, route: &[Ipv6Addr], consumed: usize) -> Result<()> {
        SegmentList::check_len(route.len())?;
        if consumed >= route.len() {
            return Err(NetError::NoSegmentsLeft);
        }
        self.next_header = NextHeader::Tcp;
        self.flags = 0;
        self.tag = 0;
        self.segment_list.fill(route, true);
        self.segments_left = (route.len() - 1 - consumed) as u8;
        Ok(())
    }

    /// Builds an SRH directly from a wire-order segment list and an explicit
    /// `Segments Left` value.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptySegmentList`], [`NetError::SegmentListTooLong`]
    /// or [`NetError::SegmentsLeftOutOfRange`] on invalid input.
    pub fn from_wire_order(segment_list: &[Ipv6Addr], segments_left: u8) -> Result<Self> {
        SegmentList::check_len(segment_list.len())?;
        if segments_left as usize >= segment_list.len() {
            return Err(NetError::SegmentsLeftOutOfRange {
                segments_left,
                segments: segment_list.len(),
            });
        }
        let mut srh = Self::BLANK;
        srh.segment_list.fill(segment_list, false);
        srh.segments_left = segments_left;
        Ok(srh)
    }

    /// Number of segments in the list.
    pub fn num_segments(&self) -> usize {
        self.segment_list.len()
    }

    /// Current `Segments Left` value.
    pub fn segments_left(&self) -> u8 {
        self.segments_left
    }

    /// The currently active segment, `Segment List[Segments Left]`.
    pub fn active_segment(&self) -> Ipv6Addr {
        self.segment_list.as_slice()[self.segments_left as usize]
    }

    /// The final segment of the path (`Segment List[0]`); for Service Hunting
    /// this is the VIP.
    pub fn final_segment(&self) -> Ipv6Addr {
        self.segment_list.as_slice()[0]
    }

    /// The first segment of the path (`Segment List[Last Entry]`).
    pub fn first_segment(&self) -> Ipv6Addr {
        *self
            .segment_list
            .as_slice()
            .last()
            // srlb-lint: allow(panic-hygiene) -- from_route rejects empty routes, so a constructed SRH always has ≥ 1 segment
            .expect("segment list is never empty")
    }

    /// The `Last Entry` field (index of the last element of the list).
    pub fn last_entry(&self) -> u8 {
        (self.segment_list.len() - 1) as u8
    }

    /// The route in traversal order (first segment first).
    ///
    /// Allocates; intended for reporting and tests.  Fast-path code should
    /// use [`SegmentRoutingHeader::segment_list`] (wire order) or the
    /// positional accessors instead.
    pub fn route(&self) -> Vec<Ipv6Addr> {
        let mut r = self.segment_list.as_slice().to_vec();
        r.reverse();
        r
    }

    /// Wire-order segment list (`[0]` is the final segment).
    pub fn segment_list(&self) -> &[Ipv6Addr] {
        self.segment_list.as_slice()
    }

    /// Advances to the next segment: decrements `Segments Left` and returns
    /// the new active segment, which the forwarder must copy into the IPv6
    /// destination address.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoSegmentsLeft`] if `Segments Left` is already 0.
    pub fn advance(&mut self) -> Result<Ipv6Addr> {
        if self.segments_left == 0 {
            return Err(NetError::NoSegmentsLeft);
        }
        self.segments_left -= 1;
        Ok(self.active_segment())
    }

    /// Sets `Segments Left` to an arbitrary valid value.
    ///
    /// This is how the paper's Algorithm 1 expresses local delivery
    /// (`SegmentsLeft ← 0`) and hand-off to the second candidate
    /// (`SegmentsLeft ← 1`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::SegmentsLeftOutOfRange`] if `value` does not index
    /// into the segment list.
    pub fn set_segments_left(&mut self, value: u8) -> Result<()> {
        if value as usize >= self.segment_list.len() {
            return Err(NetError::SegmentsLeftOutOfRange {
                segments_left: value,
                segments: self.segment_list.len(),
            });
        }
        self.segments_left = value;
        Ok(())
    }

    /// Length of the encoded header in bytes.
    pub fn encoded_len(&self) -> usize {
        SRH_FIXED_LEN + 16 * self.segment_list.len()
    }

    /// The `Hdr Ext Len` field: header length in 8-octet units, not counting
    /// the first 8 octets.
    pub fn hdr_ext_len(&self) -> u8 {
        (2 * self.segment_list.len()) as u8
    }

    /// Encodes the SRH into `out` (appends [`Self::encoded_len`] bytes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.next_header.number());
        out.push(self.hdr_ext_len());
        out.push(4); // routing type 4 = segment routing
        out.push(self.segments_left);
        out.push(self.last_entry());
        out.push(self.flags);
        out.extend_from_slice(&self.tag.to_be_bytes());
        for segment in self.segment_list.as_slice() {
            out.extend_from_slice(&segment.octets());
        }
    }

    /// Encodes the SRH into a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes an SRH from the start of `bytes`, returning the header and the
    /// number of bytes consumed.  Performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] if the buffer is truncated, the routing type is
    /// not 4, the length fields are inconsistent, or the segment list exceeds
    /// [`MAX_SEGMENTS`] entries.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize)> {
        if bytes.len() < SRH_FIXED_LEN {
            return Err(NetError::Truncated {
                what: "segment routing header",
                needed: SRH_FIXED_LEN,
                available: bytes.len(),
            });
        }
        let next_header = NextHeader::from(bytes[0]);
        let hdr_ext_len = bytes[1];
        let routing_type = bytes[2];
        if routing_type != 4 {
            return Err(NetError::InvalidRoutingType(routing_type));
        }
        let segments_left = bytes[3];
        let last_entry = bytes[4];
        let flags = bytes[5];
        let tag = u16::from_be_bytes([bytes[6], bytes[7]]);

        let total_len = SRH_FIXED_LEN + 8 * hdr_ext_len as usize;
        if bytes.len() < total_len {
            return Err(NetError::Truncated {
                what: "segment routing header segment list",
                needed: total_len,
                available: bytes.len(),
            });
        }
        let n_segments = last_entry as usize + 1;
        if n_segments > MAX_SEGMENTS {
            return Err(NetError::SegmentListTooLong(n_segments));
        }
        if 16 * n_segments != 8 * hdr_ext_len as usize {
            return Err(NetError::InvalidLength {
                what: "segment routing header",
                detail: format!(
                    "hdr ext len {hdr_ext_len} inconsistent with last entry {last_entry}"
                ),
            });
        }
        if segments_left as usize >= n_segments {
            return Err(NetError::SegmentsLeftOutOfRange {
                segments_left,
                segments: n_segments,
            });
        }
        let mut segment_list = SegmentList {
            segments: [Ipv6Addr::UNSPECIFIED; MAX_SEGMENTS],
            len: n_segments as u8,
        };
        for i in 0..n_segments {
            let start = SRH_FIXED_LEN + 16 * i;
            let mut octets = [0u8; 16];
            octets.copy_from_slice(&bytes[start..start + 16]);
            segment_list.segments[i] = Ipv6Addr::from(octets);
        }
        Ok((
            SegmentRoutingHeader {
                next_header,
                segments_left,
                flags,
                tag,
                segment_list,
            },
            total_len,
        ))
    }
}

impl fmt::Display for SegmentRoutingHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SRH(sl={}, route=[", self.segments_left)?;
        for (i, seg) in self.segment_list.as_slice().iter().rev().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{seg}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<Ipv6Addr> {
        (0..n)
            .map(|i| Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, i as u16 + 1))
            .collect()
    }

    #[test]
    fn from_route_points_at_first_segment() {
        let route = addrs(3);
        let srh = SegmentRoutingHeader::from_route(&route).unwrap();
        assert_eq!(srh.segments_left(), 2);
        assert_eq!(srh.active_segment(), route[0]);
        assert_eq!(srh.final_segment(), route[2]);
        assert_eq!(srh.first_segment(), route[0]);
        assert_eq!(srh.route(), route);
        assert_eq!(srh.num_segments(), 3);
        assert_eq!(srh.last_entry(), 2);
    }

    #[test]
    fn empty_route_is_rejected() {
        assert_eq!(
            SegmentRoutingHeader::from_route(&[]).unwrap_err(),
            NetError::EmptySegmentList
        );
    }

    #[test]
    fn oversized_route_is_rejected() {
        let route = addrs(MAX_SEGMENTS + 1);
        assert_eq!(
            SegmentRoutingHeader::from_route(&route).unwrap_err(),
            NetError::SegmentListTooLong(MAX_SEGMENTS + 1)
        );
    }

    #[test]
    fn max_segments_route_roundtrips() {
        let route = addrs(MAX_SEGMENTS);
        let srh = SegmentRoutingHeader::from_route(&route).unwrap();
        assert_eq!(srh.num_segments(), MAX_SEGMENTS);
        assert_eq!(srh.route(), route);
        let (decoded, consumed) = SegmentRoutingHeader::decode(&srh.encode()).unwrap();
        assert_eq!(consumed, srh.encoded_len());
        assert_eq!(decoded, srh);
    }

    #[test]
    fn advance_walks_the_route_in_order() {
        let route = addrs(4);
        let mut srh = SegmentRoutingHeader::from_route(&route).unwrap();
        assert_eq!(srh.active_segment(), route[0]);
        assert_eq!(srh.advance().unwrap(), route[1]);
        assert_eq!(srh.advance().unwrap(), route[2]);
        assert_eq!(srh.advance().unwrap(), route[3]);
        assert_eq!(srh.advance().unwrap_err(), NetError::NoSegmentsLeft);
    }

    #[test]
    fn set_segments_left_models_service_hunting_decisions() {
        let route = addrs(3); // [candidate1, candidate2, vip]
        let mut srh = SegmentRoutingHeader::from_route(&route).unwrap();
        // Candidate 1 refuses: SegmentsLeft <- 1 (second candidate).
        srh.set_segments_left(1).unwrap();
        assert_eq!(srh.active_segment(), route[1]);
        // Candidate 2 accepts: SegmentsLeft <- 0 (deliver to application/VIP).
        srh.set_segments_left(0).unwrap();
        assert_eq!(srh.active_segment(), route[2]);
        // Out-of-range values are rejected.
        assert!(matches!(
            srh.set_segments_left(3),
            Err(NetError::SegmentsLeftOutOfRange { .. })
        ));
    }

    #[test]
    fn encode_matches_rfc8754_layout() {
        let route = addrs(2);
        let srh = SegmentRoutingHeader::from_route(&route).unwrap();
        let bytes = srh.encode();
        assert_eq!(bytes.len(), 8 + 32);
        assert_eq!(bytes[0], 6); // next header: TCP
        assert_eq!(bytes[1], 4); // hdr ext len: 2 segments * 2
        assert_eq!(bytes[2], 4); // routing type 4
        assert_eq!(bytes[3], 1); // segments left
        assert_eq!(bytes[4], 1); // last entry
                                 // Segment List[0] must be the FINAL segment of the path.
        assert_eq!(&bytes[8..24], &route[1].octets());
        assert_eq!(&bytes[24..40], &route[0].octets());
    }

    #[test]
    fn decode_roundtrip() {
        for n in 1..=MAX_SEGMENTS {
            let route = addrs(n);
            let mut srh = SegmentRoutingHeader::from_route(&route).unwrap();
            srh.tag = 0xbeef;
            srh.flags = 0x08;
            let bytes = srh.encode();
            let (decoded, consumed) = SegmentRoutingHeader::decode(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, srh);
        }
    }

    #[test]
    fn decode_rejects_wrong_routing_type() {
        let mut bytes = SegmentRoutingHeader::from_route(&addrs(2))
            .unwrap()
            .encode();
        bytes[2] = 0;
        assert_eq!(
            SegmentRoutingHeader::decode(&bytes).unwrap_err(),
            NetError::InvalidRoutingType(0)
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = SegmentRoutingHeader::from_route(&addrs(2))
            .unwrap()
            .encode();
        assert!(matches!(
            SegmentRoutingHeader::decode(&bytes[..4]).unwrap_err(),
            NetError::Truncated { .. }
        ));
        assert!(matches!(
            SegmentRoutingHeader::decode(&bytes[..20]).unwrap_err(),
            NetError::Truncated { .. }
        ));
    }

    #[test]
    fn decode_rejects_inconsistent_lengths() {
        let mut bytes = SegmentRoutingHeader::from_route(&addrs(2))
            .unwrap()
            .encode();
        bytes[4] = 0; // last entry says 1 segment but hdr ext len says 2
        assert!(matches!(
            SegmentRoutingHeader::decode(&bytes).unwrap_err(),
            NetError::InvalidLength { .. }
        ));
    }

    #[test]
    fn decode_rejects_segments_left_out_of_range() {
        let mut bytes = SegmentRoutingHeader::from_route(&addrs(2))
            .unwrap()
            .encode();
        bytes[3] = 7;
        assert!(matches!(
            SegmentRoutingHeader::decode(&bytes).unwrap_err(),
            NetError::SegmentsLeftOutOfRange { .. }
        ));
    }

    #[test]
    fn decode_rejects_oversized_segment_list() {
        // A syntactically plausible SRH announcing 16 segments: more than
        // the inline capacity, so it must be rejected (SRLB never emits
        // routes this long).
        let n = 16u8;
        let mut bytes = vec![6u8, 2 * n, 4, 0, n - 1, 0, 0, 0];
        bytes.extend(std::iter::repeat_n(0u8, 16 * n as usize));
        assert_eq!(
            SegmentRoutingHeader::decode(&bytes).unwrap_err(),
            NetError::SegmentListTooLong(16)
        );
    }

    #[test]
    fn from_wire_order_validates() {
        let list = addrs(3);
        let srh = SegmentRoutingHeader::from_wire_order(&list, 1).unwrap();
        assert_eq!(srh.segments_left(), 1);
        assert_eq!(srh.active_segment(), list[1]);
        assert!(SegmentRoutingHeader::from_wire_order(&[], 0).is_err());
        assert!(SegmentRoutingHeader::from_wire_order(&list, 3).is_err());
    }

    #[test]
    fn set_route_rewrites_in_place_like_a_fresh_header() {
        let long = addrs(5);
        let short = addrs(3);
        let mut srh = SegmentRoutingHeader::from_route(&long).unwrap();
        srh.tag = 0xbeef;
        srh.flags = 0x08;
        // Over a longer, decorated header: equal to a freshly built one,
        // stale scratch segments notwithstanding.
        srh.set_route(&short, 0).unwrap();
        assert_eq!(srh, SegmentRoutingHeader::from_route(&short).unwrap());
        // With a consumed first segment, the second one is active.
        srh.set_route(&short, 1).unwrap();
        assert_eq!(srh.segments_left(), 1);
        assert_eq!(srh.active_segment(), short[1]);
        assert_eq!(srh.first_segment(), short[0]);
        // Invalid routes leave the header untouched.
        let before = srh.clone();
        assert_eq!(srh.set_route(&[], 0), Err(NetError::EmptySegmentList));
        assert_eq!(
            srh.set_route(&addrs(MAX_SEGMENTS + 1), 0),
            Err(NetError::SegmentListTooLong(MAX_SEGMENTS + 1))
        );
        assert_eq!(srh.set_route(&short, 3), Err(NetError::NoSegmentsLeft));
        assert_eq!(srh, before);
    }

    #[test]
    fn equality_ignores_scratch_capacity() {
        // Two SRHs with the same live segments compare equal regardless of
        // how their inline scratch space was produced.
        let route = addrs(2);
        let a = SegmentRoutingHeader::from_route(&route).unwrap();
        let b = SegmentRoutingHeader::decode(&a.encode()).unwrap().0;
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn display_lists_route_in_traversal_order() {
        let route = addrs(2);
        let srh = SegmentRoutingHeader::from_route(&route).unwrap();
        let text = srh.to_string();
        assert!(text.contains("sl=1"));
        let first = text.find(&route[0].to_string()).unwrap();
        let second = text.find(&route[1].to_string()).unwrap();
        assert!(first < second);
    }
}
