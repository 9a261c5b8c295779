//! Error type for packet parsing and construction.

use std::error::Error;
use std::fmt;

/// Errors produced when parsing or constructing packets.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
// srlb-lint: allow(unused-pub) -- reached through srlb_net::Packet::decode
pub enum NetError {
    /// The byte buffer ended before the structure was complete.
    Truncated {
        /// What was being parsed when the buffer ran out.
        what: &'static str,
        /// Number of bytes that would have been needed.
        needed: usize,
        /// Number of bytes actually available.
        available: usize,
    },
    /// The IPv6 version field was not 6.
    InvalidVersion(u8),
    /// The routing header type was not 4 (Segment Routing).
    InvalidRoutingType(u8),
    /// A length field was inconsistent with the data present.
    InvalidLength {
        /// What carried the inconsistent length.
        what: &'static str,
        /// Explanation of the inconsistency.
        detail: String,
    },
    /// `Segments Left` points outside the segment list.
    SegmentsLeftOutOfRange {
        /// The offending `Segments Left` value.
        segments_left: u8,
        /// Number of segments present in the list.
        segments: usize,
    },
    /// A segment list was empty where at least one segment is required.
    EmptySegmentList,
    /// A segment list exceeded the inline maximum
    /// ([`MAX_SEGMENTS`](crate::srh::MAX_SEGMENTS) entries).
    SegmentListTooLong(usize),
    /// An upper-layer protocol that this model does not understand.
    UnsupportedProtocol(u8),
    /// Attempted an SR endpoint operation on a packet without an SRH.
    MissingSegmentRoutingHeader,
    /// Attempted to advance an SRH whose `Segments Left` is already zero.
    NoSegmentsLeft,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated {what}: needed {needed} bytes, only {available} available"
            ),
            NetError::InvalidVersion(v) => write!(f, "invalid IP version {v}, expected 6"),
            NetError::InvalidRoutingType(t) => {
                write!(f, "invalid routing header type {t}, expected 4 (SRH)")
            }
            NetError::InvalidLength { what, detail } => {
                write!(f, "invalid length in {what}: {detail}")
            }
            NetError::SegmentsLeftOutOfRange {
                segments_left,
                segments,
            } => write!(
                f,
                "segments left {segments_left} out of range for a list of {segments} segments"
            ),
            NetError::EmptySegmentList => write!(f, "segment list must not be empty"),
            NetError::SegmentListTooLong(n) => {
                write!(
                    f,
                    "segment list of {n} entries exceeds the supported maximum of {}",
                    crate::srh::MAX_SEGMENTS
                )
            }
            NetError::UnsupportedProtocol(p) => write!(f, "unsupported upper-layer protocol {p}"),
            NetError::MissingSegmentRoutingHeader => {
                write!(f, "packet carries no segment routing header")
            }
            NetError::NoSegmentsLeft => write!(f, "segments left is already zero"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let samples = [
            NetError::Truncated {
                what: "ipv6 header",
                needed: 40,
                available: 12,
            },
            NetError::InvalidVersion(4),
            NetError::InvalidRoutingType(2),
            NetError::InvalidLength {
                what: "srh",
                detail: "hdr ext len 3 does not cover 2 segments".to_string(),
            },
            NetError::SegmentsLeftOutOfRange {
                segments_left: 9,
                segments: 2,
            },
            NetError::EmptySegmentList,
            NetError::SegmentListTooLong(300),
            NetError::UnsupportedProtocol(132),
            NetError::MissingSegmentRoutingHeader,
            NetError::NoSegmentsLeft,
        ];
        for err in samples {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(
                text.chars().next().unwrap().is_lowercase(),
                "error message should start lowercase: {text}"
            );
            assert!(!format!("{err:?}").is_empty());
        }
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }

    #[test]
    fn error_source_is_none() {
        assert!(NetError::EmptySegmentList.source().is_none());
    }
}
