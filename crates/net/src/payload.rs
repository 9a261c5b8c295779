//! The application payload a [`Packet`](crate::Packet) carries.
//!
//! Everything the simulated nodes say to each other above TCP — the
//! request (id + service demand, 16 B), the response (id + server index,
//! 12 B) and the load hint on acceptance SYN-ACKs (3 × `u32`, 12 B) — fits
//! sixteen bytes.  [`Payload`] keeps payloads of that size inside the
//! packet, so building, cloning and dropping one never touches the heap;
//! anything longer (a decoded wire packet with a real body, a test's byte
//! string) is held as shared [`Bytes`], exactly as before.

use std::fmt;
use std::ops::Deref;

use bytes::Bytes;

/// Longest payload stored inline: the request payload.
pub const INLINE_PAYLOAD_CAP: usize = 16;

/// An immutable byte string, stored inline when it is at most
/// [`INLINE_PAYLOAD_CAP`] bytes long and as shared, cheaply clonable
/// [`Bytes`] otherwise.
///
/// The representation is not observable: two payloads are equal when their
/// bytes are, and every constructor picks the inline form whenever the
/// bytes fit.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [u8; INLINE_PAYLOAD_CAP],
    },
    Shared(Bytes),
}

impl Payload {
    /// The empty payload.
    pub const fn new() -> Self {
        Payload(Repr::Inline {
            len: 0,
            buf: [0; INLINE_PAYLOAD_CAP],
        })
    }

    /// A payload holding a copy of `data`; allocation-free when `data` is
    /// at most [`INLINE_PAYLOAD_CAP`] bytes.
    #[inline]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.len() <= INLINE_PAYLOAD_CAP {
            let mut buf = [0; INLINE_PAYLOAD_CAP];
            buf[..data.len()].copy_from_slice(data);
            Payload(Repr::Inline {
                len: data.len() as u8,
                buf,
            })
        } else {
            Payload(Repr::Shared(Bytes::copy_from_slice(data)))
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::new()
    }
}

impl Deref for Payload {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Self {
        Payload::copy_from_slice(data)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Self {
        if data.len() <= INLINE_PAYLOAD_CAP {
            Payload::copy_from_slice(&data)
        } else {
            Payload(Repr::Shared(Bytes::from(data)))
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Payload {
        fn is_inline(&self) -> bool {
            matches!(self.0, Repr::Inline { .. })
        }
    }

    #[test]
    fn short_payloads_are_inline_and_long_ones_shared() {
        assert!(Payload::new().is_inline());
        assert!(Payload::new().is_empty());
        let request = Payload::copy_from_slice(&[7; INLINE_PAYLOAD_CAP]);
        assert!(request.is_inline());
        assert_eq!(&*request, &[7; INLINE_PAYLOAD_CAP]);
        let long = Payload::from(vec![9; INLINE_PAYLOAD_CAP + 1]);
        assert!(!long.is_inline());
        assert_eq!(long.len(), INLINE_PAYLOAD_CAP + 1);
        assert_eq!(long.clone(), long);
        // A short Vec is copied inline; its buffer is not kept.
        assert!(Payload::from(vec![1, 2, 3]).is_inline());
    }

    #[test]
    fn equality_is_by_content() {
        assert_eq!(
            Payload::from(&b"abc"[..]),
            Payload::from(vec![b'a', b'b', b'c'])
        );
        assert_ne!(Payload::from(&b"abc"[..]), Payload::from(&b"abd"[..]));
        assert_ne!(Payload::from(&b"abc"[..]), Payload::from(&b"abc\0"[..]));
        assert_eq!(Payload::default(), Payload::from(Vec::new()));
    }

    #[test]
    fn payload_is_three_words() {
        assert!(std::mem::size_of::<Payload>() <= 24);
    }

    #[test]
    fn debug_escapes_non_printable_bytes() {
        assert_eq!(format!("{:?}", Payload::from(&b"a\x00"[..])), "b\"a\\x00\"");
    }
}
