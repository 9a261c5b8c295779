//! Flow identification.
//!
//! The load balancer's only state is a *flow table* mapping flows to the
//! server that accepted them; this module defines the key of that table.

use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::net::Ipv6Addr;

use serde::{Deserialize, Serialize};

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
    /// Any other protocol number.
    Other(u8),
}

impl Protocol {
    /// Protocol number as carried in the IPv6 next-header chain.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }
}

impl From<u8> for Protocol {
    fn from(value: u8) -> Self {
        match value {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

/// A 5-tuple identifying a flow from the point of view of the load balancer:
/// (client address, VIP, client port, VIP port, protocol).
///
/// The key is always expressed in the *client → VIP* direction, regardless of
/// the direction of the packet it was extracted from, so that both directions
/// of a connection map to the same entry.
///
/// The stable 64-bit hash of the tuple is carried with the key, so per-packet
/// map operations and consistent-hashing decisions never re-hash the tuple
/// fields.  [`FlowKey::new`] computes it; a key extracted from a packet that
/// carries its flow's hash (see [`Packet::flow_key_forward`]) takes it from
/// there, so a flow is hashed where it is born and not again at every hop.
/// Fields are private to keep the cached hash coherent; use the accessors.
///
/// [`Packet::flow_key_forward`]: crate::Packet::flow_key_forward
#[derive(Debug, Clone, Copy)]
pub struct FlowKey {
    client: Ipv6Addr,
    vip: Ipv6Addr,
    client_port: u16,
    vip_port: u16,
    protocol: Protocol,
    /// FNV-1a + SplitMix64 finaliser over the tuple fields.
    hash: u64,
}

impl FlowKey {
    /// Creates a flow key in the client → VIP direction, hashing the tuple.
    pub fn new(
        client: Ipv6Addr,
        vip: Ipv6Addr,
        client_port: u16,
        vip_port: u16,
        protocol: Protocol,
    ) -> Self {
        FlowKey {
            client,
            vip,
            client_port,
            vip_port,
            protocol,
            hash: Self::compute_hash(client, vip, client_port, vip_port, protocol),
        }
    }

    /// Rebuilds a key whose hash is already known — `hash` must be what
    /// [`FlowKey::new`] computes for the same tuple.  Debug builds check.
    pub(crate) fn with_hash(
        client: Ipv6Addr,
        vip: Ipv6Addr,
        client_port: u16,
        vip_port: u16,
        protocol: Protocol,
        hash: u64,
    ) -> Self {
        debug_assert_eq!(
            hash,
            Self::compute_hash(client, vip, client_port, vip_port, protocol),
            "carried flow hash disagrees with the packet's 5-tuple"
        );
        FlowKey {
            client,
            vip,
            client_port,
            vip_port,
            protocol,
            hash,
        }
    }

    /// Client (external) address.
    pub fn client(&self) -> Ipv6Addr {
        self.client
    }

    /// Virtual IP address the client targeted.
    pub fn vip(&self) -> Ipv6Addr {
        self.vip
    }

    /// Client source port.
    pub fn client_port(&self) -> u16 {
        self.client_port
    }

    /// Destination (service) port.
    pub fn vip_port(&self) -> u16 {
        self.vip_port
    }

    /// Transport protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The key of the reverse direction (VIP → client); mostly useful in
    /// tests and assertions, since [`FlowKey`]s are normally always stored in
    /// the forward direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey::new(
            self.vip,
            self.client,
            self.vip_port,
            self.client_port,
            self.protocol,
        )
    }

    /// A stable 64-bit hash of the flow key, usable for consistent hashing
    /// and ECMP-style decisions.  This is a deterministic FNV-1a over the
    /// tuple fields followed by a SplitMix64 finaliser (FNV alone leaves the
    /// high bits poorly mixed for short, similar inputs), so that results
    /// are reproducible across runs and platforms and usable directly as
    /// ring points, table indices or hash-map bucket indices.  The key
    /// carries it, so this accessor is a plain field load on the per-packet
    /// fast path.
    pub fn stable_hash(&self) -> u64 {
        self.hash
    }

    fn compute_hash(
        client: Ipv6Addr,
        vip: Ipv6Addr,
        client_port: u16,
        vip_port: u16,
        protocol: Protocol,
    ) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for b in client.octets() {
            eat(b);
        }
        for b in vip.octets() {
            eat(b);
        }
        for b in client_port.to_be_bytes() {
            eat(b);
        }
        for b in vip_port.to_be_bytes() {
            eat(b);
        }
        eat(protocol.number());
        mix64(h)
    }
}

/// SplitMix64 finaliser, spreading hash values uniformly over the full
/// 64-bit range.
///
/// This is the single definition shared by the whole workspace:
/// [`FlowKey::stable_hash`] is pre-finalised with it, and the dispatchers in
/// `srlb-core` use the same function for ring points and table indices so
/// the two stay aligned by construction.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl PartialEq for FlowKey {
    fn eq(&self, other: &Self) -> bool {
        // The cached hash is a fast reject; the tuple comparison keeps
        // correctness under (astronomically unlikely) FNV collisions.
        self.hash == other.hash
            && self.client == other.client
            && self.vip == other.vip
            && self.client_port == other.client_port
            && self.vip_port == other.vip_port
            && self.protocol == other.protocol
    }
}

impl Eq for FlowKey {}

impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A [`Hasher`] that passes an already-hashed `u64` straight through, and
/// folds anything else cheaply and deterministically.
///
/// [`FlowKey`]'s `Hash` impl writes its cached FNV-1a + SplitMix64 hash as a
/// single `write_u64`, which this hasher returns verbatim; hashing a flow
/// key for a map operation is therefore a single field load.  Subsequent
/// writes (keys that emit more than one value) are folded in with a
/// SplitMix64 mix, and byte writes — an `Ipv6Addr` key — are folded a word
/// at a time from a fixed seed, so the hasher stays correct (every write
/// influences the result) for any key type it is handed, at a fraction of
/// SipHash's cost.  There is no per-process random seed: use it only for
/// keys the program itself generates, never for keys an adversary picks.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassthroughHasher {
    hash: u64,
    written: bool,
}

impl Hasher for PassthroughHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write_u64(&mut self, n: u64) {
        // Mixing the accumulated state *before* combining keeps the fold
        // order-sensitive (a plain `hash ^ n` would make [a, b] and [b, a]
        // collide).
        self.hash = if self.written {
            mix64(mix64(self.hash) ^ n)
        } else {
            n
        };
        self.written = true;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Keys that are not pre-hashed: seeded (the FNV offset basis) so a
        // lone word is never passed through unmixed, then one SplitMix64
        // round per 8-byte word, the last one zero-padded.
        if !self.written {
            self.hash = 0xcbf2_9ce4_8422_2325;
            self.written = true;
        }
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.hash = mix64(self.hash ^ u64::from_le_bytes(word));
        }
    }
}

/// [`BuildHasher`] producing [`PassthroughHasher`]s; see there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassthroughHashBuilder;

impl BuildHasher for PassthroughHashBuilder {
    type Hasher = PassthroughHasher;

    fn build_hasher(&self) -> PassthroughHasher {
        PassthroughHasher::default()
    }
}

/// Wire/serde form of the key: exactly the 5 tuple fields, so the cached
/// hash never appears in serialized output and is recomputed on load.
#[derive(Serialize, Deserialize)]
struct FlowKeyWire {
    client: Ipv6Addr,
    vip: Ipv6Addr,
    client_port: u16,
    vip_port: u16,
    protocol: Protocol,
}

impl Serialize for FlowKey {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        FlowKeyWire {
            client: self.client,
            vip: self.vip,
            client_port: self.client_port,
            vip_port: self.vip_port,
            protocol: self.protocol,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for FlowKey {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = FlowKeyWire::deserialize(deserializer)?;
        Ok(FlowKey::new(
            wire.client,
            wire.vip,
            wire.client_port,
            wire.vip_port,
            wire.protocol,
        ))
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}]:{} -> [{}]:{}/{}",
            self.client,
            self.client_port,
            self.vip,
            self.vip_port,
            self.protocol.number()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn key(port: u16) -> FlowKey {
        FlowKey::new(
            "2001:db8::1".parse().unwrap(),
            "2001:db8:1::80".parse().unwrap(),
            port,
            80,
            Protocol::Tcp,
        )
    }

    #[test]
    fn passthrough_hasher_returns_prehashed_value() {
        let f = key(77);
        assert_eq!(PassthroughHashBuilder.hash_one(f), f.stable_hash());
    }

    #[test]
    fn passthrough_hasher_folds_multiple_writes() {
        let h = |vals: &[u64]| {
            let mut hasher = PassthroughHashBuilder.build_hasher();
            for &v in vals {
                hasher.write_u64(v);
            }
            hasher.finish()
        };
        // Single pre-hashed write passes through verbatim …
        assert_eq!(h(&[5]), 5);
        // … but every write of a multi-value key influences the result.
        assert_ne!(h(&[1, 2]), h(&[3, 2]));
        assert_ne!(h(&[1, 2]), h(&[1, 3]));
        assert_ne!(h(&[1, 2]), h(&[2, 1]));
    }

    #[test]
    fn passthrough_hasher_fallback_distinguishes_byte_strings() {
        let h = |bytes: &[u8]| {
            let mut hasher = PassthroughHashBuilder.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"abc"), h(b"abd"));
        assert_eq!(h(b"abc"), h(b"abc"));
        assert_ne!(h(&[7]), 7, "a lone short word is mixed, not passed through");
        // Words beyond the first matter, in order.
        assert_ne!(h(b"01234567abcdefgh"), h(b"01234567abcdefgH"));
        assert_ne!(h(b"01234567abcdefgh"), h(b"abcdefgh01234567"));
    }

    #[test]
    fn passthrough_hasher_spreads_neighbouring_addresses() {
        // The directory's keys are addresses that differ in one low octet;
        // a hash map takes its bucket from the low bits and its tag from the
        // top seven, so both must vary across neighbours.
        let hashes: Vec<u64> = (0..64u16)
            .map(|n| PassthroughHashBuilder.hash_one(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, n)))
            .collect();
        let low: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let top: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 48, "low bits spread: {}", low.len());
        assert!(top.len() > 32, "tag bits spread: {}", top.len());
    }

    #[test]
    fn protocol_number_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from(n).number(), n);
        }
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::Udp.number(), 17);
    }

    #[test]
    fn reversed_twice_is_identity() {
        let k = key(4242);
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn accessors_expose_tuple_fields() {
        let k = key(4242);
        assert_eq!(k.client(), "2001:db8::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(k.vip(), "2001:db8:1::80".parse::<Ipv6Addr>().unwrap());
        assert_eq!(k.client_port(), 4242);
        assert_eq!(k.vip_port(), 80);
        assert_eq!(k.protocol(), Protocol::Tcp);
    }

    #[test]
    fn stable_hash_distinguishes_ports() {
        let mut hashes = std::collections::HashSet::new();
        for port in 1024..2048 {
            assert!(hashes.insert(key(port).stable_hash()));
        }
    }

    #[test]
    fn stable_hash_is_deterministic() {
        assert_eq!(key(1000).stable_hash(), key(1000).stable_hash());
    }

    #[test]
    fn cached_hash_matches_recomputation() {
        // The hash carried by the key is exactly the FNV-1a of the tuple
        // fields, i.e. what a freshly constructed identical key computes.
        let k = key(999);
        let fresh = FlowKey::new(
            k.client(),
            k.vip(),
            k.client_port(),
            k.vip_port(),
            k.protocol(),
        );
        assert_eq!(k.stable_hash(), fresh.stable_hash());
        assert_eq!(k, fresh);
    }

    #[test]
    fn serde_roundtrip_recomputes_hash() {
        let k = key(31000);
        let value = serde::to_value(&k).unwrap();
        // The serialized form carries only the 5 tuple fields.
        match &value {
            serde::Value::Map(fields) => {
                assert_eq!(fields.len(), 5);
                assert!(fields.iter().all(|(name, _)| name != "hash"));
            }
            other => panic!("expected map, got {other:?}"),
        }
        let back: FlowKey = serde::from_value(value).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.stable_hash(), k.stable_hash());
    }

    #[test]
    fn usable_as_hash_map_key() {
        let mut map = HashMap::new();
        map.insert(key(1), "a");
        map.insert(key(2), "b");
        assert_eq!(map.get(&key(1)), Some(&"a"));
        assert_eq!(map.get(&key(2)), Some(&"b"));
        assert_eq!(map.get(&key(3)), None);
    }

    #[test]
    fn display_contains_both_endpoints() {
        let text = key(5).to_string();
        assert!(text.contains("2001:db8::1"));
        assert!(text.contains(":80/6"));
    }
}
