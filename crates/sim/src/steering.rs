//! ECMP steering of flows across a tier of equal-cost nodes.
//!
//! A production load-balancer deployment is not one box: a *fleet* of
//! identical instances advertises the same virtual address, and the routers
//! in front spread flows across them with equal-cost multi-path (ECMP)
//! hashing of the 5-tuple.  This module is the simulator's model of that
//! router function, the companion of [`TopologyModel`](crate::TopologyModel)
//! on the *steering* axis: where the topology model decides link latencies
//! once the node layout is known, the steering model decides which tier
//! member each flow's packets are delivered to.
//!
//! The hash is **resilient** (highest-random-weight, a.k.a. rendezvous
//! hashing, as implemented by the "resilient ECMP" / consistent-hashing
//! FIB modes of modern routers): each member is ranked by mixing the flow
//! hash with the member's identity, and the flow goes to the highest-ranked
//! member.  Consequences, all property-tested in
//! `crates/sim/tests/proptest_steering.rs`:
//!
//! * **deterministic** — a flow's member depends only on the flow hash and
//!   the member set, never on arrival order or RNG state,
//! * **stable under unrelated membership change** — removing a member
//!   re-steers *only* the flows that were on it; adding a member steals
//!   only the flows it now wins,
//! * **balanced** — members receive near-equal shares of a large flow
//!   population.
//!
//! The caller supplies the flow hash (e.g. the pre-mixed
//! `FlowKey::stable_hash()` from `srlb-net`), so this crate stays free of
//! packet-format dependencies; a distinct salt decorrelates steering from
//! every other consumer of that hash (dispatch rings, flow tables).
//!
//! # Interplay with shard placement
//!
//! ECMP steering also settles a question for the parallel engine's
//! placement planner ([`crate::ShardPlan::topology_aware`]): which link
//! crossings are worth optimising.  Rendezvous hashing spreads flows *uniformly* over the LB
//! tier, so when shards follow racks the client → LB hop is cross-shard
//! for ≈ `(racks − 1) / racks` of flows **no matter how LBs are placed** —
//! that hop's cost is fixed by the steering model.  What placement *can*
//! keep local is the LB ↔ server hunting traffic, which is why the planner
//! co-shards each rack's LB with that rack's servers and takes its
//! lookahead from the cross-rack latency.

use crate::node::NodeId;

/// Salt mixed into every rank so ECMP steering is statistically independent
/// of other users of the same flow hash (candidate-selection rings, the
/// flow table's bucket index).
const STEERING_SALT: u64 = 0x9e6c_63d0_76cc_14a5;

/// SplitMix64 finaliser: a fast, high-quality 64-bit mixer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The highest-random-weight rank of `member` for a flow: deterministic in
/// `(flow_hash, member)` alone.
#[inline]
fn rank(flow_hash: u64, member: NodeId) -> u64 {
    mix(flow_hash ^ mix(member.0 as u64 ^ STEERING_SALT))
}

/// Steers a flow across `members` by resilient (rendezvous) ECMP hashing:
/// returns the member with the highest rank for `flow_hash`, or `None` when
/// the tier is empty.  Allocation-free and O(`members.len()`) — tier sizes
/// are single digits, so this is a handful of multiplies per packet.
#[inline]
pub fn ecmp_steer(flow_hash: u64, members: &[NodeId]) -> Option<NodeId> {
    members.iter().copied().max_by_key(|&m| rank(flow_hash, m))
}

/// A mutable ECMP tier: the declarative steering model the experiment
/// runner instantiates once the node layout is known, mirroring how
/// [`TopologyModel`](crate::TopologyModel) instantiates a
/// [`Topology`](crate::Topology).
///
/// Membership changes model route advertisements and withdrawals: a removed
/// member stops receiving *subsequent* packets, but packets already in the
/// fabric still deliver (the node itself is not touched).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Steering {
    members: Vec<NodeId>,
}

impl Steering {
    /// Creates a tier over `members`.
    pub fn new(members: Vec<NodeId>) -> Self {
        Steering { members }
    }

    /// The current member set, in insertion order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of members currently advertised.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if no member is advertised.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `member` is currently advertised.
    pub fn contains(&self, member: NodeId) -> bool {
        self.members.contains(&member)
    }

    /// Advertises `member` into the tier (no-op if already present).
    pub fn add(&mut self, member: NodeId) {
        if !self.members.contains(&member) {
            self.members.push(member);
        }
    }

    /// Withdraws `member` from the tier, returning whether it was present.
    pub fn remove(&mut self, member: NodeId) -> bool {
        let before = self.members.len();
        self.members.retain(|&m| m != member);
        self.members.len() != before
    }

    /// The member a flow with this hash is steered to, or `None` when the
    /// tier is empty.
    pub fn select(&self, flow_hash: u64) -> Option<NodeId> {
        ecmp_steer(flow_hash, &self.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(n: usize) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

    #[test]
    fn empty_tier_steers_nowhere() {
        assert_eq!(ecmp_steer(42, &[]), None);
        assert!(Steering::default().is_empty());
        assert_eq!(Steering::default().select(42), None);
    }

    #[test]
    fn single_member_gets_everything() {
        let members = tier(1);
        for h in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(ecmp_steer(h, &members), Some(NodeId(1)));
        }
    }

    #[test]
    fn selection_is_order_independent() {
        let forward = tier(4);
        let mut reversed = tier(4);
        reversed.reverse();
        for h in 0..512u64 {
            let h = mix(h);
            assert_eq!(ecmp_steer(h, &forward), ecmp_steer(h, &reversed));
        }
    }

    #[test]
    fn removal_only_moves_the_removed_members_flows() {
        let full = tier(4);
        let mut without_last = Steering::new(full.clone());
        assert!(without_last.remove(NodeId(4)));
        assert!(!without_last.remove(NodeId(4)), "already withdrawn");
        for h in 0..2048u64 {
            let h = mix(h.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let before = ecmp_steer(h, &full).unwrap();
            let after = without_last.select(h).unwrap();
            if before != NodeId(4) {
                assert_eq!(before, after, "unrelated flow re-steered");
            } else {
                assert_ne!(after, NodeId(4));
            }
        }
    }

    #[test]
    fn add_is_idempotent_and_reversible() {
        let mut s = Steering::new(tier(2));
        s.add(NodeId(3));
        s.add(NodeId(3));
        assert_eq!(s.len(), 3);
        assert_eq!(s.members(), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert!(s.remove(NodeId(3)));
        assert_eq!(s.members(), &tier(2)[..]);
    }

    #[test]
    fn four_way_tier_is_roughly_balanced() {
        let members = tier(4);
        let mut counts = [0usize; 5];
        let flows = 8_192;
        for i in 0..flows {
            let h = mix(i as u64);
            counts[ecmp_steer(h, &members).unwrap().0] += 1;
        }
        let expected = flows / 4;
        for &count in &counts[1..] {
            assert!(
                count * 2 > expected && count < expected * 2,
                "steering should balance within 2x of fair share, got {counts:?}"
            );
        }
    }
}
