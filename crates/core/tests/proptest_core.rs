//! Property-based tests for the load-balancer components: dispatcher
//! invariants (distinctness, membership, determinism) and flow-table
//! behaviour.

use std::net::Ipv6Addr;

use proptest::prelude::*;
use srlb_core::dispatch::{
    CandidateList, ConsistentHashDispatcher, Dispatcher, DispatcherConfig, MaglevDispatcher,
    RandomDispatcher,
};
use srlb_core::FlowState;
use srlb_net::{AddressPlan, FlowKey, Protocol, ServerId};
use srlb_sim::{SimDuration, SimRng, SimTime};

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

/// The candidates `d` writes for `f`, in a list of their own.
fn pick(d: &mut dyn Dispatcher, f: &FlowKey, rng: &mut SimRng) -> CandidateList {
    let mut out = CandidateList::new();
    d.candidates_into(f, rng, &mut out);
    out
}

proptest! {
    /// Every dispatcher returns exactly `min(k, n)` distinct candidates, all
    /// of which are members of the configured server set.
    #[test]
    fn dispatchers_return_distinct_members(
        n in 1u32..24,
        k in 1usize..6,
        client in 0u32..1000,
        port in 1u16..60000,
        seed in 0u64..1000,
    ) {
        let pool = servers(n);
        let configs = [
            DispatcherConfig::Random { k },
            DispatcherConfig::ConsistentHash { vnodes: 32, k },
            DispatcherConfig::Maglev { table_size: 251, k },
        ];
        let f = flow(client, port);
        let mut rng = SimRng::new(seed);
        for config in configs {
            let mut dispatcher = config.build(pool.clone());
            let candidates = pick(dispatcher.as_mut(), &f, &mut rng);
            prop_assert_eq!(candidates.len(), k.min(n as usize));
            let unique: std::collections::HashSet<_> = candidates.iter().collect();
            prop_assert_eq!(unique.len(), candidates.len(), "candidates must be distinct");
            for c in candidates.iter() {
                prop_assert!(pool.contains(c), "candidate {c} not in the server set");
            }
        }
    }

    /// Hash-based dispatchers are deterministic per flow: the same flow
    /// always maps to the same candidate list, independent of the RNG.
    #[test]
    fn hash_dispatchers_are_per_flow_deterministic(
        n in 2u32..24,
        client in 0u32..1000,
        port in 1u16..60000,
    ) {
        let pool = servers(n);
        let f = flow(client, port);
        let mut rng_a = SimRng::new(1);
        let mut rng_b = SimRng::new(999);

        let mut ring = ConsistentHashDispatcher::new(pool.clone(), 32, 2);
        prop_assert_eq!(&pick(&mut ring, &f, &mut rng_a)[..], &pick(&mut ring, &f, &mut rng_b)[..]);

        let mut maglev = MaglevDispatcher::new(pool, 251, 2);
        prop_assert_eq!(&pick(&mut maglev, &f, &mut rng_a)[..], &pick(&mut maglev, &f, &mut rng_b)[..]);
    }

    /// The random dispatcher with the same seed produces the same candidate
    /// sequence (experiment reproducibility).
    #[test]
    fn random_dispatcher_is_seed_deterministic(
        n in 2u32..24,
        seed in 0u64..1000,
        flows in prop::collection::vec((0u32..100, 1u16..60000), 1..50),
    ) {
        let pool = servers(n);
        let run = |seed: u64| {
            let mut d = RandomDispatcher::power_of_two(pool.clone());
            let mut rng = SimRng::new(seed);
            flows
                .iter()
                .map(|&(c, p)| pick(&mut d, &flow(c, p), &mut rng).to_vec())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// The flow table behaves identically to a SipHash-keyed `HashMap`
    /// model under an arbitrary interleaving of learn / lookup / remove:
    /// the pass-through hasher over the pre-finalised key hash changes only
    /// *how* buckets are found, never what the map contains.
    #[test]
    fn flow_table_matches_siphash_model(
        ops in prop::collection::vec(
            // (op selector, client, port, server)
            (0u8..3, 0u32..20, 1u16..40, 0u32..12),
            1..200,
        ),
    ) {
        let plan = AddressPlan::default();
        let mut table = FlowState::with_default_timeout();
        let mut model: std::collections::HashMap<FlowKey, Ipv6Addr> =
            std::collections::HashMap::new();
        for &(op, client, port, server) in &ops {
            let f = flow(client, port);
            let addr = plan.server_addr(ServerId(server));
            match op {
                0 => {
                    table.learn(f, addr, SimTime::ZERO);
                    model.insert(f, addr);
                }
                1 => {
                    prop_assert_eq!(
                        table.lookup(&f, SimTime::ZERO),
                        model.get(&f).copied()
                    );
                }
                _ => {
                    prop_assert_eq!(table.remove(&f), model.remove(&f));
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        for (f, addr) in &model {
            prop_assert_eq!(table.peek(f), Some(*addr));
        }
    }

    /// The flow table returns exactly what was learned, expires only idle
    /// entries, and its size never exceeds the number of distinct flows.
    #[test]
    fn flow_table_learn_lookup_expire(
        entries in prop::collection::vec((0u32..50, 1u16..1000, 0u32..12, 0u64..100), 1..100),
        timeout_s in 1u64..100,
    ) {
        let plan = AddressPlan::default();
        let mut table = FlowState::new(SimDuration::from_secs(timeout_s));
        let mut last_learned = std::collections::HashMap::new();
        let mut max_time = 0u64;
        for &(client, port, server, at) in &entries {
            let f = flow(client, port);
            let addr = plan.server_addr(ServerId(server));
            table.learn(f, addr, SimTime::from_secs_f64(at as f64));
            last_learned.insert(f, (addr, at));
            max_time = max_time.max(at);
        }
        prop_assert_eq!(table.len(), last_learned.len());
        // Lookups return the last-learned owner; performing them at the end
        // of the learning phase also refreshes every entry's activity stamp.
        for (f, (addr, _)) in &last_learned {
            prop_assert_eq!(table.peek(f), Some(*addr));
            prop_assert_eq!(
                table.lookup(f, SimTime::from_secs_f64(max_time as f64)),
                Some(*addr)
            );
        }
        // Expiring right after the refresh clears nothing; expiring beyond
        // the idle timeout clears everything.
        prop_assert_eq!(table.expire_idle(SimTime::from_secs_f64(max_time as f64)), 0);
        let removed = table.expire_idle(SimTime::from_secs_f64(
            (max_time + timeout_s + 1) as f64 + 1.0,
        ));
        prop_assert_eq!(removed, last_learned.len());
        prop_assert!(table.is_empty());
    }
}
