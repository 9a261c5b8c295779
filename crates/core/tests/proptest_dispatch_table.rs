//! Property: `ConsistentHashDispatcher`'s successor table answers exactly
//! what a walk of its ring answers.
//!
//! The reference model below is the ring the dispatcher used to keep and
//! walk per flow, kept verbatim: `(point, server)` pairs sorted as tuples,
//! a `partition_point` to the first point `≥` the hash, then a clockwise
//! walk (wrapping modulo the ring length) that skips servers already
//! chosen until `k` distinct ones are found.  The table must give
//! byte-identical candidate lists for every hash — arbitrary ones, hashes
//! exactly on a ring point and one either side of it, `0` and `u64::MAX` —
//! for any server set, virtual-node count and `k`, including `k` above the
//! server count.

use std::net::Ipv6Addr;

use proptest::prelude::*;
use srlb_core::dispatch::{CandidateList, ConsistentHashDispatcher, Dispatcher, MAX_CANDIDATES};
use srlb_net::{mix64, AddressPlan, FlowKey, Protocol, ServerId};
use srlb_sim::SimRng;

/// The ring walk the successor table replaces.
struct RingModel {
    /// `(point, server)` pairs sorted by point.
    ring: Vec<(u64, Ipv6Addr)>,
    k: usize,
}

impl RingModel {
    fn new(servers: &[Ipv6Addr], vnodes: usize, k: usize) -> Self {
        let mut ring = Vec::with_capacity(servers.len() * vnodes);
        for server in servers {
            for v in 0..vnodes {
                ring.push((Self::point(*server, v as u64), *server));
            }
        }
        ring.sort_unstable();
        RingModel {
            ring,
            k: k.min(servers.len()),
        }
    }

    fn point(server: Ipv6Addr, vnode: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in server.octets() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for b in vnode.to_be_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        mix64(h)
    }

    fn candidates(&self, h: u64) -> Vec<Ipv6Addr> {
        let mut out: Vec<Ipv6Addr> = Vec::new();
        let start = self.ring.partition_point(|&(p, _)| p < h);
        for i in 0..self.ring.len() {
            let (_, server) = self.ring[(start + i) % self.ring.len()];
            if !out.contains(&server) {
                out.push(server);
                if out.len() == self.k {
                    break;
                }
            }
        }
        out
    }
}

/// Distinct backend addresses from drawn server ids, in draw order.
fn server_set(ids: &[u32]) -> Vec<Ipv6Addr> {
    let plan = AddressPlan::default();
    let mut servers: Vec<Ipv6Addr> = Vec::new();
    for &id in ids {
        let addr = plan.server_addr(ServerId(id));
        if !servers.contains(&addr) {
            servers.push(addr);
        }
    }
    servers
}

proptest! {
    #[test]
    fn successor_table_equals_the_ring_walk(
        ids in prop::collection::vec(0u32..1000, 1..41),
        vnodes in 1usize..65,
        k in 1usize..=MAX_CANDIDATES,
        arbitrary in prop::collection::vec(any::<u64>(), 16),
        on_points in prop::collection::vec(any::<usize>(), 16),
        ports in prop::collection::vec(1u16..u16::MAX, 16),
    ) {
        let servers = server_set(&ids);
        let model = RingModel::new(&servers, vnodes, k);
        let mut table = ConsistentHashDispatcher::new(servers.clone(), vnodes, k);
        prop_assert_eq!(table.ring_size(), model.ring.len());
        prop_assert_eq!(table.fanout(), model.k);

        let mut hashes = vec![0, u64::MAX];
        hashes.extend(&arbitrary);
        for &i in &on_points {
            let (point, _) = model.ring[i % model.ring.len()];
            hashes.extend([point, point.wrapping_sub(1), point.wrapping_add(1)]);
        }
        let mut out = CandidateList::new();
        for &h in &hashes {
            table.candidates_for_hash(h, &mut out);
            prop_assert_eq!(out.as_slice(), &model.candidates(h)[..], "hash {:#x}", h);
        }

        // And through the trait, at real flows' hashes.
        let plan = AddressPlan::default();
        let mut rng = SimRng::new(1);
        for &port in &ports {
            let flow = FlowKey::new(plan.client_addr(0), plan.vip(0), port, 80, Protocol::Tcp);
            table.candidates_into(&flow, &mut rng, &mut out);
            prop_assert_eq!(out.as_slice(), &model.candidates(flow.stable_hash())[..]);
        }
    }
}
