//! Ablation A1: effect of the number of candidates k in the SR list.
//!
//! The paper (citing Mitzenmacher) argues that two candidates capture most of
//! the benefit; this bench sweeps k = 1..=7 — up to the route limit of
//! `MAX_SEGMENTS - 1` candidates plus the VIP in one Service Hunting SRH —
//! with the SR4 acceptance policy at ρ = 0.88 so both the runtime and the
//! resulting mean response times can be compared across the whole feasible
//! range.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srlb_core::spec::{ExperimentSpec, PolicyKind};
use srlb_core::Runner;
use srlb_server::PolicyConfig;

fn run_with_candidates(k: usize) -> f64 {
    let policy = if k == 1 {
        PolicyKind::RoundRobin
    } else {
        PolicyKind::Custom {
            candidates: k,
            policy: PolicyConfig::Static { threshold: 4 },
        }
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
    let mut group = c.benchmark_group("ablation_candidates");
    group.sample_size(10);
    // The upper bound is MAX_CANDIDATES = MAX_SEGMENTS - 1: the widest
    // candidate list that still fits a Service Hunting route.
    assert_eq!(srlb_core::dispatch::MAX_CANDIDATES, 7);
    for k in 1..=7usize {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| criterion::black_box(run_with_candidates(k)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
