//! Mapping between data-plane IPv6 addresses and simulation node ids.
//!
//! In the real system packets are routed by the network; in the simulator a
//! node that wants to transmit a packet must know which [`NodeId`] hosts the
//! destination address.  The `Directory` is that routing table, built once
//! by the experiment driver and cloned into every node.
//!
//! Two kinds of entry exist:
//!
//! * **unicast** — one address, one node ([`Directory::register`]),
//! * **ECMP tier** — one *anycast* address advertised by a whole tier of
//!   equal-cost nodes (a load-balancer fleet and its VIPs), resolved
//!   per-flow with the resilient ECMP hash of
//!   [`srlb_sim::ecmp_steer`] ([`Directory::register_tier`]).
//!
//! Each directory clone **owns** its tier memberships: a node's copy is a
//! plain value that nothing else can change behind it.  Membership only
//! changes between run segments, while no event is running, so the
//! experiment runner applies a route advertisement or withdrawal (`AddLb` /
//! `RemoveLb`) by re-registering the new [`Steering`] on the tier's
//! addresses in every directory that steers by it — its own, the client's
//! and each live server's — before the next segment starts.  Every node
//! therefore switches membership at the same segment boundary.

use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

use srlb_net::PassthroughHashBuilder;
use srlb_sim::{NodeId, Steering};

/// Creates the [`Steering`] model of a tier over the given nodes, ready for
/// [`Directory::register_tier`].
pub fn tier_members(members: Vec<NodeId>) -> Steering {
    Steering::new(members)
}

/// An address → node lookup table with optional ECMP tiers.
///
/// Both maps are keyed by addresses the experiment's own address plan
/// generates, so they use the cheap fixed-seed
/// [`PassthroughHashBuilder`] rather than SipHash: every forwarded packet
/// pays one lookup here.  The unicast table sits behind an [`Arc`], so the
/// per-node clones of a large cluster share one copy; composing a directory
/// ([`Directory::register`]) copies it only if it is already shared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Directory {
    entries: Arc<HashMap<Ipv6Addr, NodeId, PassthroughHashBuilder>>,
    tiers: HashMap<Ipv6Addr, Steering, PassthroughHashBuilder>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `addr` as hosted by `node`.  Registering the same address
    /// twice overwrites the previous owner and returns it.
    pub fn register(&mut self, addr: Ipv6Addr, node: NodeId) -> Option<NodeId> {
        Arc::make_mut(&mut self.entries).insert(addr, node)
    }

    /// Registers `addr` as an ECMP anycast address advertised by `tier`,
    /// replacing any membership this directory held for it.  Other clones
    /// are unaffected.  A tier entry shadows a unicast entry for the same
    /// address.
    pub fn register_tier(&mut self, addr: Ipv6Addr, tier: Steering) {
        self.tiers.insert(addr, tier);
    }

    /// Looks up the node hosting `addr` (unicast entries only; a tier
    /// address needs a flow hash — use [`Directory::lookup_flow`]).
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<NodeId> {
        self.entries.get(&addr).copied()
    }

    /// Looks up the node a packet of the flow with `flow_hash` should be
    /// delivered to: ECMP-steered across the tier if `addr` is an anycast
    /// tier address (`None` if the tier is currently empty), the unicast
    /// owner otherwise.
    pub fn lookup_flow(&self, addr: Ipv6Addr, flow_hash: u64) -> Option<NodeId> {
        match self.tiers.get(&addr) {
            Some(tier) => tier.select(flow_hash),
            None => self.lookup(addr),
        }
    }

    /// Number of registered addresses, unicast and tier alike (so
    /// `len() == 0` coincides with [`Directory::is_empty`]).
    pub fn len(&self) -> usize {
        self.entries.len() + self.tiers.len()
    }

    /// Returns `true` if no addresses (unicast or tier) are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.tiers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, n)
    }

    #[test]
    fn register_and_lookup() {
        let mut dir = Directory::new();
        assert!(dir.is_empty());
        assert_eq!(dir.register(addr(1), NodeId(10)), None);
        assert_eq!(dir.register(addr(2), NodeId(11)), None);
        assert_eq!(dir.lookup(addr(1)), Some(NodeId(10)));
        assert_eq!(dir.lookup(addr(2)), Some(NodeId(11)));
        assert_eq!(dir.lookup(addr(3)), None);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn reregistering_overwrites() {
        let mut dir = Directory::new();
        dir.register(addr(1), NodeId(10));
        assert_eq!(dir.register(addr(1), NodeId(20)), Some(NodeId(10)));
        assert_eq!(dir.lookup(addr(1)), Some(NodeId(20)));
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn flow_lookup_falls_back_to_unicast() {
        let mut dir = Directory::new();
        dir.register(addr(1), NodeId(10));
        assert_eq!(dir.lookup_flow(addr(1), 42), Some(NodeId(10)));
        assert_eq!(dir.lookup_flow(addr(9), 42), None);
    }

    #[test]
    fn tier_lookup_is_deterministic_and_member_bound() {
        let mut dir = Directory::new();
        let members = tier_members(vec![NodeId(1), NodeId(2), NodeId(3)]);
        dir.register_tier(addr(7), members.clone());
        assert!(!dir.is_empty());
        for h in 0..256u64 {
            let picked = dir.lookup_flow(addr(7), h).unwrap();
            assert_eq!(dir.lookup_flow(addr(7), h), Some(picked), "deterministic");
            assert!((1..=3).contains(&picked.0));
        }
        // A tier address has no unicast owner.
        assert_eq!(dir.lookup(addr(7)), None);
    }

    #[test]
    fn reregistering_replaces_membership_in_that_clone_only() {
        let mut dir = Directory::new();
        let mut tier = tier_members(vec![NodeId(1), NodeId(2)]);
        dir.register_tier(addr(7), tier.clone());
        let cloned = dir.clone();
        assert_eq!(cloned, dir);
        assert!((0..128u64).any(|h| cloned.lookup_flow(addr(7), h) == Some(NodeId(2))));

        // Withdraw NodeId(2) and re-register in `dir` alone.
        assert!(tier.remove(NodeId(2)));
        dir.register_tier(addr(7), tier.clone());
        assert_ne!(cloned, dir);
        for h in 0..128u64 {
            assert_eq!(dir.lookup_flow(addr(7), h), Some(NodeId(1)));
        }
        assert!((0..128u64).any(|h| cloned.lookup_flow(addr(7), h) == Some(NodeId(2))));

        // An emptied tier black-holes its flows.
        assert!(tier.remove(NodeId(1)));
        dir.register_tier(addr(7), tier);
        assert_eq!(dir.lookup_flow(addr(7), 3), None);
        assert!(cloned.lookup_flow(addr(7), 3).is_some());
    }
}
