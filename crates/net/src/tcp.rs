//! Minimal TCP header model: enough to represent connection establishment
//! (SYN / SYN-ACK / ACK), teardown (FIN) and rejection (RST), which is all the
//! load-balancer control logic observes.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::Result;

/// Length in bytes of the TCP header as encoded by this crate (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// TCP control flags.
///
/// Implemented as a transparent bit set (rather than an enum) because flags
/// combine freely (`SYN | ACK`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub(crate) const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender has finished sending.
    pub(crate) const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronise sequence numbers (connection request).
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// The SYN-ACK combination used for connection acceptance.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);

    /// Builds a flag set from the raw wire bits.
    pub fn from_bits(bits: u8) -> Self {
        TcpFlags(bits)
    }

    /// Raw wire bits.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Returns `true` if every flag in `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if no flags are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for TcpFlags {
    type Output = TcpFlags;
    fn bitand(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 & rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        if self.contains(TcpFlags::SYN) {
            names.push("SYN");
        }
        if self.contains(TcpFlags::ACK) {
            names.push("ACK");
        }
        if self.contains(TcpFlags::RST) {
            names.push("RST");
        }
        if self.contains(TcpFlags::FIN) {
            names.push("FIN");
        }
        if self.contains(TcpFlags::PSH) {
            names.push("PSH");
        }
        if names.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", names.join("|"))
        }
    }
}

/// A (simplified) TCP header: ports, sequence numbers, flags and window.
///
/// Options are not modelled; the data offset always encodes 5 words.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TcpHeader {
    /// Source port.
    pub source_port: u16,
    /// Destination port.
    pub destination_port: u16,
    /// Sequence number.
    pub sequence: u32,
    /// Acknowledgment number.
    pub acknowledgment: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum (carried verbatim; the simulator does not verify it).
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
}

impl TcpHeader {
    /// Creates a header with the given ports and flags and zeroed counters.
    pub fn new(source_port: u16, destination_port: u16, flags: TcpFlags) -> Self {
        TcpHeader {
            source_port,
            destination_port,
            sequence: 0,
            acknowledgment: 0,
            flags,
            window: 65535,
            checksum: 0,
            urgent: 0,
        }
    }

    /// Returns `true` for a pure SYN (connection request).
    pub fn is_syn(&self) -> bool {
        self.flags.contains(TcpFlags::SYN) && !self.flags.contains(TcpFlags::ACK)
    }

    /// Returns `true` for a SYN-ACK (connection acceptance).
    pub fn is_syn_ack(&self) -> bool {
        self.flags.contains(TcpFlags::SYN) && self.flags.contains(TcpFlags::ACK)
    }

    /// Returns `true` if the RST flag is set.
    pub fn is_rst(&self) -> bool {
        self.flags.contains(TcpFlags::RST)
    }

    /// Encodes the header into `out` (appends exactly [`TCP_HEADER_LEN`] bytes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.source_port.to_be_bytes());
        out.extend_from_slice(&self.destination_port.to_be_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.acknowledgment.to_be_bytes());
        out.push(5 << 4); // data offset: 5 words, no options
        out.push(self.flags.bits());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&self.checksum.to_be_bytes());
        out.extend_from_slice(&self.urgent.to_be_bytes());
    }

    /// Encodes the header into a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TCP_HEADER_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a header from the start of `bytes`, returning the header and
    /// the number of bytes consumed (the encoded data offset).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] if the buffer is shorter than the data
    /// offset announces, or [`NetError::InvalidLength`] for a data offset
    /// below the minimum of 5 words.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize)> {
        if bytes.len() < TCP_HEADER_LEN {
            return Err(NetError::Truncated {
                what: "tcp header",
                needed: TCP_HEADER_LEN,
                available: bytes.len(),
            });
        }
        let data_offset_words = bytes[12] >> 4;
        if data_offset_words < 5 {
            return Err(NetError::InvalidLength {
                what: "tcp header",
                detail: format!("data offset {data_offset_words} below minimum of 5"),
            });
        }
        let header_len = data_offset_words as usize * 4;
        if bytes.len() < header_len {
            return Err(NetError::Truncated {
                what: "tcp header options",
                needed: header_len,
                available: bytes.len(),
            });
        }
        Ok((
            TcpHeader {
                source_port: u16::from_be_bytes([bytes[0], bytes[1]]),
                destination_port: u16::from_be_bytes([bytes[2], bytes[3]]),
                sequence: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
                acknowledgment: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
                flags: TcpFlags::from_bits(bytes[13]),
                window: u16::from_be_bytes([bytes[14], bytes[15]]),
                checksum: u16::from_be_bytes([bytes[16], bytes[17]]),
                urgent: u16::from_be_bytes([bytes[18], bytes[19]]),
            },
            header_len,
        ))
    }
}

/// End-to-end retransmission parameters: how long a sender waits for the
/// reply to a SYN or request before sending it again, and when it gives up.
///
/// The timeout for attempt `n` (0-based: the wait after the `n`-th
/// transmission) is `timeout_ms × backoff^n`, optionally spread by up to
/// `jitter` (a fraction of the computed timeout) drawn by the caller from
/// its own random stream to avoid synchronized retry storms.  After
/// `max_retries` retransmissions the request is aborted, so a request is
/// transmitted at most `1 + max_retries` times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetransmitPolicy {
    /// Base retransmission timeout in milliseconds.
    // srlb-lint: allow(serde-no-skip) -- always serialised in full so committed fault specs stay self-describing even when a field happens to equal its default
    #[serde(default = "default_timeout_ms")]
    pub timeout_ms: f64,
    /// Exponential backoff factor applied per retry.
    // srlb-lint: allow(serde-no-skip) -- always serialised in full so committed fault specs stay self-describing even when a field happens to equal its default
    #[serde(default = "default_backoff")]
    pub backoff: f64,
    /// Maximum jitter as a fraction of the computed timeout (`0.1` adds up
    /// to 10%).
    // srlb-lint: allow(serde-no-skip) -- always serialised in full so committed fault specs stay self-describing even when a field happens to equal its default
    #[serde(default = "default_jitter")]
    pub jitter: f64,
    /// Number of retransmissions before the request is aborted.
    // srlb-lint: allow(serde-no-skip) -- always serialised in full so committed fault specs stay self-describing even when a field happens to equal its default
    #[serde(default = "default_max_retries")]
    pub max_retries: u32,
}

fn default_timeout_ms() -> f64 {
    200.0
}
fn default_backoff() -> f64 {
    2.0
}
fn default_jitter() -> f64 {
    0.1
}
fn default_max_retries() -> u32 {
    5
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            timeout_ms: default_timeout_ms(),
            backoff: default_backoff(),
            jitter: default_jitter(),
            max_retries: default_max_retries(),
        }
    }
}

impl RetransmitPolicy {
    /// The timeout before retry `retries + 1`, in integer nanoseconds
    /// (before jitter): `timeout_ms × backoff^retries`.
    pub fn timeout_nanos(&self, retries: u32) -> u64 {
        let ms = self.timeout_ms * self.backoff.powi(retries as i32);
        (ms * 1_000_000.0).round() as u64
    }

    /// The largest jitter (in nanoseconds) that may be added to the timeout
    /// for the given retry count.
    pub fn max_jitter_nanos(&self, retries: u32) -> u64 {
        (self.timeout_nanos(retries) as f64 * self.jitter).round() as u64
    }

    /// Checks the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid parameter: a non-positive
    /// timeout, a backoff below 1, or a jitter fraction outside `[0, 1]`.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !self.timeout_ms.is_finite() || self.timeout_ms <= 0.0 {
            return Err(format!(
                "retransmit timeout {} ms must be positive",
                self.timeout_ms
            ));
        }
        if !self.backoff.is_finite() || self.backoff < 1.0 {
            return Err(format!(
                "retransmit backoff {} must be at least 1",
                self.backoff
            ));
        }
        if !self.jitter.is_finite() || !(0.0..=1.0).contains(&self.jitter) {
            return Err(format!(
                "retransmit jitter {} must be within [0, 1]",
                self.jitter
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_combine_and_query() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert_eq!(f, TcpFlags::SYN_ACK);
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::RST));
        assert!(!f.is_empty());
        assert!(TcpFlags::EMPTY.is_empty());
        assert_eq!((f & TcpFlags::SYN), TcpFlags::SYN);
        let mut g = TcpFlags::EMPTY;
        g |= TcpFlags::FIN;
        assert!(g.contains(TcpFlags::FIN));
    }

    #[test]
    fn flags_display_names_each_bit() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::RST.to_string(), "RST");
        assert_eq!(TcpFlags::EMPTY.to_string(), "-");
        assert_eq!((TcpFlags::FIN | TcpFlags::PSH).to_string(), "FIN|PSH");
    }

    #[test]
    fn retransmit_policy_backs_off_exponentially() {
        let policy = RetransmitPolicy::default();
        policy.validate().unwrap();
        assert_eq!(policy.timeout_nanos(0), 200_000_000);
        assert_eq!(policy.timeout_nanos(1), 400_000_000);
        assert_eq!(policy.timeout_nanos(3), 1_600_000_000);
        assert_eq!(policy.max_jitter_nanos(0), 20_000_000);

        let json = serde_json::to_string(&policy).unwrap();
        let back: RetransmitPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, policy);
        // Omitted fields fall back to the defaults.
        let partial: RetransmitPolicy = serde_json::from_str("{\"max_retries\":2}").unwrap();
        assert_eq!(partial.max_retries, 2);
        assert_eq!(partial.timeout_ms, 200.0);

        assert!(RetransmitPolicy {
            timeout_ms: 0.0,
            ..RetransmitPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetransmitPolicy {
            backoff: 0.5,
            ..RetransmitPolicy::default()
        }
        .validate()
        .is_err());
        assert!(RetransmitPolicy {
            jitter: 2.0,
            ..RetransmitPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn classification_helpers() {
        let syn = TcpHeader::new(1000, 80, TcpFlags::SYN);
        assert!(syn.is_syn());
        assert!(!syn.is_syn_ack());
        let syn_ack = TcpHeader::new(80, 1000, TcpFlags::SYN_ACK);
        assert!(syn_ack.is_syn_ack());
        assert!(!syn_ack.is_syn());
        let rst = TcpHeader::new(80, 1000, TcpFlags::RST);
        assert!(rst.is_rst());
        let fin = TcpHeader::new(80, 1000, TcpFlags::FIN | TcpFlags::ACK);
        assert!(!fin.is_rst() && !fin.is_syn());
    }

    #[test]
    fn roundtrip() {
        let mut hdr = TcpHeader::new(49152, 80, TcpFlags::SYN);
        hdr.sequence = 0xdead_beef;
        hdr.acknowledgment = 0x1234_5678;
        hdr.window = 1024;
        hdr.checksum = 0xabcd;
        hdr.urgent = 7;
        let bytes = hdr.encode();
        assert_eq!(bytes.len(), TCP_HEADER_LEN);
        let (decoded, consumed) = TcpHeader::decode(&bytes).unwrap();
        assert_eq!(consumed, TCP_HEADER_LEN);
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = TcpHeader::new(1, 2, TcpFlags::SYN).encode();
        assert!(matches!(
            TcpHeader::decode(&bytes[..10]).unwrap_err(),
            NetError::Truncated { .. }
        ));
    }

    #[test]
    fn decode_rejects_bad_data_offset() {
        let mut bytes = TcpHeader::new(1, 2, TcpFlags::SYN).encode();
        bytes[12] = 2 << 4;
        assert!(matches!(
            TcpHeader::decode(&bytes).unwrap_err(),
            NetError::InvalidLength { .. }
        ));
    }

    #[test]
    fn decode_skips_options_when_data_offset_larger() {
        let mut bytes = TcpHeader::new(1, 2, TcpFlags::SYN).encode();
        bytes[12] = 6 << 4; // 24-byte header
        bytes.extend_from_slice(&[0u8; 4]);
        let (_, consumed) = TcpHeader::decode(&bytes).unwrap();
        assert_eq!(consumed, 24);
    }
}
