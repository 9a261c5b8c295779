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
//! Tier membership is **shared** across directory clones through a
//! [`TierMembers`] handle: the experiment runner keeps the handle it
//! registered and mutates it mid-run (route advertisement / withdrawal on
//! `AddLb` / `RemoveLb` events), and every node's directory copy observes
//! the change on its next lookup — exactly like a routing-table update
//! propagating to the fabric.
//!
//! ## The steer path takes no lock
//!
//! Every VIP-bound packet is steered, and membership changes a handful of
//! times per run, so the two sides are split.  The handle carries the
//! [`Steering`] behind a lock *and* an epoch counter that
//! [`TierMembers::write`]'s guard bumps when it drops, still holding the
//! lock.  Each directory's tier entry caches a copy of the membership and
//! the epoch it was copied at; [`Directory::lookup_flow`] is one `Acquire`
//! load of the epoch, a compare, and the ECMP hash over the cached copy, and
//! goes to the lock only when the epoch moved (re-reading epoch and
//! membership together under it).  A lookup therefore sees every write that
//! *happens-before* it — the `Release` bump pairs with the `Acquire` load —
//! which is the only kind of write the engine has: the runner writes between
//! run segments, on the thread that then starts the next segment, with pool
//! workers parked behind the pool's own barrier.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use srlb_net::PassthroughHashBuilder;
use srlb_sim::{NodeId, Steering};

/// What the clones of one [`TierMembers`] handle share.
#[derive(Debug)]
struct SharedTier {
    steering: RwLock<Steering>,
    /// Number of write guards dropped so far.  Only ever changed with the
    /// write lock held, so a value read under the read lock belongs to the
    /// membership read with it.
    epoch: AtomicU64,
}

/// Shared, mutable membership of one ECMP tier: the [`Steering`] model
/// behind a lock, so route advertisement/withdrawal ([`Steering::add`] /
/// [`Steering::remove`]) through any clone of the handle is observed by
/// every directory that registered it, on its next lookup.
#[derive(Debug, Clone)]
pub struct TierMembers(Arc<SharedTier>);

/// Exclusive access to a tier's [`Steering`]; dropping it publishes the
/// change to every directory holding the tier.
#[derive(Debug)]
pub struct TierWriteGuard<'a> {
    steering: RwLockWriteGuard<'a, Steering>,
    epoch: &'a AtomicU64,
}

impl Deref for TierWriteGuard<'_> {
    type Target = Steering;
    fn deref(&self) -> &Steering {
        &self.steering
    }
}

impl DerefMut for TierWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Steering {
        &mut self.steering
    }
}

impl Drop for TierWriteGuard<'_> {
    fn drop(&mut self) {
        // Runs before the field drop that releases the lock.  `Release`
        // pairs with the `Acquire` load in `Directory::lookup_flow`.
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

impl TierMembers {
    /// Shared read access to the membership, as [`RwLock::read`].
    ///
    /// # Errors
    ///
    /// Fails if a thread panicked while holding the write guard.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, Steering>> {
        self.0.steering.read()
    }

    /// Exclusive access to the membership, as [`RwLock::write`]; every
    /// directory holding the tier re-reads it on its first lookup after the
    /// guard drops.
    ///
    /// # Errors
    ///
    /// Fails if a thread panicked while holding the write guard.
    pub fn write(&self) -> LockResult<TierWriteGuard<'_>> {
        let epoch = &self.0.epoch;
        match self.0.steering.write() {
            Ok(steering) => Ok(TierWriteGuard { steering, epoch }),
            Err(poisoned) => Err(PoisonError::new(TierWriteGuard {
                steering: poisoned.into_inner(),
                epoch,
            })),
        }
    }
}

/// Creates a [`TierMembers`] handle over the given nodes.
pub fn tier_members(members: Vec<NodeId>) -> TierMembers {
    TierMembers(Arc::new(SharedTier {
        steering: RwLock::new(Steering::new(members)),
        epoch: AtomicU64::new(0),
    }))
}

/// One directory's view of a tier: the shared handle plus this directory's
/// own copy of the membership, valid while the handle's epoch equals `seen`.
/// The copy is a cache and nothing else: it is refreshed behind `&self` and
/// takes no part in equality.
#[derive(Debug, Clone)]
struct TierEntry {
    shared: TierMembers,
    seen: Cell<u64>,
    cached: RefCell<Steering>,
}

/// An epoch no handle reaches (one bump per write guard), marking a copy
/// that was never taken.
const NEVER_SEEN: u64 = u64::MAX;

impl TierEntry {
    fn select(&self, flow_hash: u64) -> Option<NodeId> {
        if self.seen.get() != self.shared.0.epoch.load(Ordering::Acquire) {
            self.refresh();
        }
        self.cached.borrow().select(flow_hash)
    }

    /// Copies membership and epoch together, under the read lock.
    #[cold]
    fn refresh(&self) {
        // A poisoned lock means a writer already panicked; so does this.
        let steering = self.shared.read().expect("tier lock poisoned");
        self.cached.borrow_mut().clone_from(&steering);
        self.seen.set(self.shared.0.epoch.load(Ordering::Acquire));
    }
}

/// An address → node lookup table with optional ECMP tiers.
///
/// Both maps are keyed by addresses the experiment's own address plan
/// generates, so they use the cheap fixed-seed
/// [`PassthroughHashBuilder`] rather than SipHash: every forwarded packet
/// pays one lookup here.  The unicast table sits behind an [`Arc`], so the
/// per-node clones of a large cluster share one copy; composing a directory
/// ([`Directory::register`]) copies it only if it is already shared.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: Arc<HashMap<Ipv6Addr, NodeId, PassthroughHashBuilder>>,
    tiers: HashMap<Ipv6Addr, TierEntry, PassthroughHashBuilder>,
}

impl PartialEq for Directory {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.tiers.len() == other.tiers.len()
            // srlb-lint: allow(unordered-iter) -- `.all()` over every entry is order-independent; no order-sensitive value escapes
            && self.tiers.iter().all(|(addr, tier)| {
                other.tiers.get(addr).is_some_and(|o| {
                    *tier.shared.read().expect("tier lock poisoned")
                        == *o.shared.read().expect("tier lock poisoned")
                })
            })
    }
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

    /// Registers `addr` as an ECMP anycast address advertised by the tier
    /// behind `members`.  The handle is shared: later mutations through any
    /// clone of it are visible to every directory that holds the tier.
    /// A tier entry shadows a unicast entry for the same address.
    pub fn register_tier(&mut self, addr: Ipv6Addr, members: TierMembers) {
        let entry = TierEntry {
            shared: members,
            seen: Cell::new(NEVER_SEEN),
            cached: RefCell::default(),
        };
        self.tiers.insert(addr, entry);
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

    /// Removes the registration for `addr`, returning the node that hosted
    /// it.
    ///
    /// The directory is **cloned** into every node at construction, so this
    /// only affects the instance it is called on — use it while *composing*
    /// a directory, before distribution.  To black-hole a live address
    /// mid-run, remove the node from the network instead (packets to an
    /// empty node slot are dropped and counted), which is what the scenario
    /// engine does for server removal; to take a node out of a tier mid-run,
    /// mutate the shared [`TierMembers`] handle instead.
    pub fn unregister(&mut self, addr: Ipv6Addr) -> Option<NodeId> {
        Arc::make_mut(&mut self.entries).remove(&addr)
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
    fn unregister_removes_the_entry() {
        let mut dir = Directory::new();
        dir.register(addr(1), NodeId(10));
        assert_eq!(dir.unregister(addr(1)), Some(NodeId(10)));
        assert_eq!(dir.unregister(addr(1)), None);
        assert_eq!(dir.lookup(addr(1)), None);
        assert!(dir.is_empty());
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
    fn tier_membership_updates_propagate_to_clones() {
        let mut dir = Directory::new();
        let members = tier_members(vec![NodeId(1), NodeId(2)]);
        dir.register_tier(addr(7), members.clone());
        let cloned = dir.clone();
        assert_eq!(cloned, dir);

        // Withdraw NodeId(2) through the shared handle: both copies see it.
        assert!(members
            .write()
            .expect("tier lock poisoned")
            .remove(NodeId(2)));
        for h in 0..128u64 {
            assert_eq!(cloned.lookup_flow(addr(7), h), Some(NodeId(1)));
            assert_eq!(dir.lookup_flow(addr(7), h), Some(NodeId(1)));
        }

        // An emptied tier black-holes its flows.
        assert!(members
            .write()
            .expect("tier lock poisoned")
            .remove(NodeId(1)));
        assert_eq!(cloned.lookup_flow(addr(7), 3), None);
    }

    #[test]
    fn a_clone_on_another_thread_sees_a_write_made_after_the_move() {
        use std::sync::mpsc;

        let mut dir = Directory::new();
        let members = tier_members(vec![NodeId(1), NodeId(2)]);
        dir.register_tier(addr(7), members.clone());
        // Warm this copy's cache first, so the clone starts from a copy of
        // the old membership and has to notice the change by itself.
        assert!(dir.lookup_flow(addr(7), 0).is_some());
        let moved = dir.clone();

        let (written, wait_for_write) = mpsc::channel::<()>();
        let (looked_up, wait_for_lookup) = mpsc::channel::<Vec<Option<NodeId>>>();
        let worker = std::thread::spawn(move || {
            let before: Vec<_> = (0..64).map(|h| moved.lookup_flow(addr(7), h)).collect();
            looked_up.send(before).expect("main thread is listening");
            // The channel orders the write below before these lookups.
            wait_for_write
                .recv()
                .expect("main thread signals the write");
            (0..64)
                .map(|h| moved.lookup_flow(addr(7), h))
                .collect::<Vec<_>>()
        });

        let before = wait_for_lookup.recv().expect("worker looked up");
        assert!(before.contains(&Some(NodeId(2))), "both members take flows");
        assert!(members
            .write()
            .expect("tier lock poisoned")
            .remove(NodeId(2)));
        written.send(()).expect("worker is waiting");
        let after = worker.join().expect("worker finished");
        assert_eq!(after, vec![Some(NodeId(1)); 64]);
    }

    #[test]
    fn equality_compares_membership_not_cache_state() {
        let mut warm = Directory::new();
        let members = tier_members(vec![NodeId(1), NodeId(2)]);
        warm.register_tier(addr(7), members.clone());
        let cold = warm.clone();
        assert!(warm.lookup_flow(addr(7), 9).is_some());
        assert_eq!(warm, cold, "a warmed and a cold copy of one directory");

        // Stale on one side, refreshed on the other: still the same tier.
        members.write().expect("tier lock poisoned").add(NodeId(3));
        assert!(cold.lookup_flow(addr(7), 9).is_some());
        assert_eq!(warm, cold);

        // A different handle with different members is a different directory,
        // whatever either side has cached.
        let mut other = Directory::new();
        other.register_tier(addr(7), tier_members(vec![NodeId(1), NodeId(2)]));
        assert_ne!(warm, other);
        members
            .write()
            .expect("tier lock poisoned")
            .remove(NodeId(3));
        assert_eq!(warm, other);
    }

    #[test]
    fn an_emptied_tier_black_holes_the_very_next_lookup() {
        let mut dir = Directory::new();
        let members = tier_members(vec![NodeId(4)]);
        dir.register_tier(addr(7), members.clone());
        assert_eq!(dir.lookup_flow(addr(7), 11), Some(NodeId(4)));
        assert!(members
            .write()
            .expect("tier lock poisoned")
            .remove(NodeId(4)));
        assert_eq!(dir.lookup_flow(addr(7), 11), None);
        // And re-advertising is seen just as promptly.
        members.write().expect("tier lock poisoned").add(NodeId(5));
        assert_eq!(dir.lookup_flow(addr(7), 11), Some(NodeId(5)));
    }
}
