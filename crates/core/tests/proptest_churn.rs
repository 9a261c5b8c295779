//! Property-based tests for dispatcher behaviour under server churn:
//! remapping bounds on single-backend add/remove.
//!
//! The properties pin the guarantees the scenario engine's churn presets
//! rely on:
//!
//! * consistent hashing is *minimally disruptive*, exactly: removing a
//!   backend moves only the flows it owned, and adding one moves flows only
//!   onto the new backend,
//! * Maglev is minimally disruptive within a tolerance: every flow owned by
//!   a removed backend moves, and collateral movement (flows whose owner
//!   did not change membership) stays a small fraction of the population.
//!
//! The runner applies churn by building a fresh dispatcher over the new
//! membership, so comparing two fresh builds is comparing before and after.

use std::net::Ipv6Addr;

use proptest::prelude::*;
use srlb_core::dispatch::{CandidateList, ConsistentHashDispatcher, Dispatcher, MaglevDispatcher};
use srlb_net::{AddressPlan, FlowKey, Protocol, ServerId};
use srlb_sim::SimRng;

fn servers(n: u32) -> Vec<Ipv6Addr> {
    let plan = AddressPlan::default();
    (0..n).map(|i| plan.server_addr(ServerId(i))).collect()
}

fn flow(client: u32, port: u16) -> FlowKey {
    let plan = AddressPlan::default();
    FlowKey::new(
        plan.client_addr(client),
        plan.vip(0),
        port.max(1),
        80,
        Protocol::Tcp,
    )
}

/// A deterministic probe-flow population large enough for stable fractions.
fn probes(count: u32) -> Vec<FlowKey> {
    (0..count)
        .map(|i| flow(i / 997, (i % 997) as u16 + 1))
        .collect()
}

/// First-candidate (owner) assignment of every probe under `dispatcher`.
fn owners(dispatcher: &mut dyn Dispatcher, flows: &[FlowKey]) -> Vec<Ipv6Addr> {
    let mut rng = SimRng::new(1);
    let mut out = CandidateList::new();
    flows
        .iter()
        .map(|f| {
            dispatcher.candidates_into(f, &mut rng, &mut out);
            out.as_slice()[0]
        })
        .collect()
}

proptest! {
    /// Consistent hashing, removal: flows not owned by the removed backend
    /// keep their owner *exactly*; flows it owned all move elsewhere.
    #[test]
    fn consistent_hash_removal_moves_only_owned_flows(
        n in 3u32..16,
        removed_index in 0u32..16,
        vnodes in 16usize..96,
    ) {
        let removed_index = removed_index % n;
        let pool = servers(n);
        let removed = pool[removed_index as usize];
        let flows = probes(512);

        let mut before = ConsistentHashDispatcher::new(pool.clone(), vnodes, 2);
        let owners_before = owners(&mut before, &flows);

        let shrunk: Vec<Ipv6Addr> =
            pool.iter().copied().filter(|a| *a != removed).collect();
        let mut after = ConsistentHashDispatcher::new(shrunk, vnodes, 2);
        let owners_after = owners(&mut after, &flows);

        for (old, new) in owners_before.iter().zip(&owners_after) {
            if *old == removed {
                prop_assert_ne!(*new, removed);
            } else {
                prop_assert_eq!(*new, *old);
            }
        }
    }

    /// Consistent hashing, addition: a flow either keeps its owner or moves
    /// onto the newly added backend — never onto another survivor.
    #[test]
    fn consistent_hash_addition_moves_flows_only_onto_the_new_server(
        n in 2u32..16,
        vnodes in 16usize..96,
    ) {
        let pool = servers(n);
        let added = AddressPlan::default().server_addr(ServerId(n));
        let flows = probes(512);

        let mut before = ConsistentHashDispatcher::new(pool.clone(), vnodes, 2);
        let owners_before = owners(&mut before, &flows);

        let mut grown_pool = pool;
        grown_pool.push(added);
        let mut after = ConsistentHashDispatcher::new(grown_pool, vnodes, 2);
        let owners_after = owners(&mut after, &flows);

        let mut moved = 0usize;
        for (old, new) in owners_before.iter().zip(&owners_after) {
            if old != new {
                prop_assert_eq!(*new, added);
                moved += 1;
            }
        }
        // The new server takes roughly its fair share 1/(n+1); allow a wide
        // margin for small vnode counts.
        prop_assert!(
            (moved as f64) < 3.0 * flows.len() as f64 / (n as f64 + 1.0),
            "added server captured {moved} of {} flows",
            flows.len()
        );
    }

    /// Maglev, removal: every flow owned by the removed backend moves, and
    /// collateral movement (flows whose owner survived) stays below 15% of
    /// the population (measured ~2% at table size 2039; the bound leaves
    /// headroom for the smaller tables this test sweeps).
    #[test]
    fn maglev_removal_disruption_is_bounded(
        n in 3u32..14,
        removed_index in 0u32..14,
    ) {
        let removed_index = removed_index % n;
        let pool = servers(n);
        let removed = pool[removed_index as usize];
        let flows = probes(512);

        let mut before = MaglevDispatcher::new(pool.clone(), 2039, 2);
        let owners_before = owners(&mut before, &flows);

        let shrunk: Vec<Ipv6Addr> =
            pool.iter().copied().filter(|a| *a != removed).collect();
        let mut after = MaglevDispatcher::new(shrunk, 2039, 2);
        let owners_after = owners(&mut after, &flows);

        let mut collateral = 0usize;
        for (old, new) in owners_before.iter().zip(&owners_after) {
            if *old == removed {
                prop_assert_ne!(*new, removed);
            } else if old != new {
                collateral += 1;
            }
        }
        prop_assert!(
            (collateral as f64) < 0.15 * flows.len() as f64,
            "maglev moved {collateral} flows whose owner survived (of {})",
            flows.len()
        );
    }

    /// Maglev, addition: moved flows land overwhelmingly on the new backend;
    /// collateral movement stays below 15% of the population.
    #[test]
    fn maglev_addition_disruption_is_bounded(n in 2u32..14) {
        let pool = servers(n);
        let added = AddressPlan::default().server_addr(ServerId(n));
        let flows = probes(512);

        let mut before = MaglevDispatcher::new(pool.clone(), 2039, 2);
        let owners_before = owners(&mut before, &flows);

        let mut grown_pool = pool;
        grown_pool.push(added);
        let mut after = MaglevDispatcher::new(grown_pool, 2039, 2);
        let owners_after = owners(&mut after, &flows);

        let mut collateral = 0usize;
        let mut onto_new = 0usize;
        for (old, new) in owners_before.iter().zip(&owners_after) {
            if old != new {
                if *new == added {
                    onto_new += 1;
                } else {
                    collateral += 1;
                }
            }
        }
        prop_assert!(onto_new > 0, "the new server must capture some flows");
        prop_assert!(
            (collateral as f64) < 0.15 * flows.len() as f64,
            "maglev moved {collateral} flows not onto the new server (of {})",
            flows.len()
        );
    }
}
