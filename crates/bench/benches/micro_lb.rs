//! Micro-benchmarks of the load balancer's per-flow operations: candidate
//! selection (random two-choice, consistent hash, Maglev), ECMP steering
//! across the LB tier, and flow-table learn/lookup.

use criterion::{criterion_group, criterion_main, Criterion};
use srlb_core::dispatch::{
    CandidateList, ConsistentHashDispatcher, Dispatcher, MaglevDispatcher, RandomDispatcher,
};
use srlb_core::FlowState;
use srlb_net::{AddressPlan, FlowKey, Protocol};
use srlb_sim::{ecmp_steer, NodeId, SimRng, SimTime};

fn flows(n: u16) -> Vec<FlowKey> {
    let plan = AddressPlan::default();
    (0..n)
        .map(|p| {
            FlowKey::new(
                plan.client_addr(0),
                plan.vip(0),
                1024 + p,
                80,
                Protocol::Tcp,
            )
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let plan = AddressPlan::default();
    let servers: Vec<_> = plan.server_addrs(12).collect();
    let keys = flows(1024);
    let mut rng = SimRng::new(1);

    // The dispatch benches measure the production fast path: candidates
    // written into a reusable buffer, no per-flow allocation.
    let mut out = CandidateList::new();

    let mut random = RandomDispatcher::power_of_two(servers.clone());
    c.bench_function("dispatch_random_two_choice", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            random.candidates_into(&keys[i], &mut rng, &mut out);
            criterion::black_box(out.as_slice().len())
        })
    });

    let mut ring = ConsistentHashDispatcher::new(servers.clone(), 128, 2);
    c.bench_function("dispatch_consistent_hash", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            ring.candidates_into(&keys[i], &mut rng, &mut out);
            criterion::black_box(out.as_slice().len())
        })
    });

    let mut maglev = MaglevDispatcher::new(servers.clone(), 65_537, 2);
    c.bench_function("dispatch_maglev", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            maglev.candidates_into(&keys[i], &mut rng, &mut out);
            criterion::black_box(out.as_slice().len())
        })
    });

    let tier: Vec<NodeId> = (1..=4).map(NodeId).collect();
    c.bench_function("steer_ecmp_tier4", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            criterion::black_box(ecmp_steer(keys[i].stable_hash(), &tier))
        })
    });

    c.bench_function("flow_table_learn_and_lookup", |b| {
        let mut table = FlowState::with_default_timeout();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            table.learn(keys[i], servers[i % servers.len()], SimTime::ZERO);
            criterion::black_box(table.lookup(&keys[i], SimTime::ZERO))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
