//! Ablation A2: candidate-selection policy at the load balancer.
//!
//! Compares the paper's uniform-random two-choice selection against
//! consistent hashing and a Maglev table (the related-work baselines), with
//! the same SR4 acceptance policy, at ρ = 0.88.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srlb_core::dispatch::DispatcherConfig;
use srlb_core::spec::{ExperimentSpec, PolicyKind};
use srlb_core::Runner;
use srlb_server::PolicyConfig;

fn run_with_dispatcher(dispatcher: DispatcherConfig) -> f64 {
    let policy = PolicyKind::Explicit {
        dispatcher,
        acceptance: PolicyConfig::Static { threshold: 4 },
    };
    let spec = ExperimentSpec::poisson_paper(0.88, policy)
        .with_queries(500)
        .with_seed(42);
    Runner::new(spec)
        .expect("valid spec")
        .run()
        .mean_response_seconds()
}

fn bench(c: &mut Criterion) {
    let cases = [
        ("random_k2", DispatcherConfig::Random { k: 2 }),
        (
            "consistent_hash",
            DispatcherConfig::ConsistentHash { vnodes: 128, k: 2 },
        ),
        (
            "maglev",
            DispatcherConfig::Maglev {
                table_size: 2039,
                k: 2,
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation_dispatchers");
    group.sample_size(10);
    for (name, dispatcher) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &dispatcher, |b, d| {
            b.iter(|| criterion::black_box(run_with_dispatcher(*d)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
