//! Ablation A3: SRdyn adaptation-window size.
//!
//! The paper fixes the SRdyn window at 50 decisions with an acceptance band
//! of [0.4, 0.6]; this bench varies the window size to show how the choice
//! affects the policy (and its runtime cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use srlb_core::spec::{ExperimentSpec, PolicyKind};
use srlb_core::Runner;
use srlb_server::PolicyConfig;

fn run_with_window(window: u32) -> f64 {
    let policy = PolicyKind::Custom {
        candidates: 2,
        policy: PolicyConfig::Dynamic {
            initial_threshold: 1,
            window_size: window,
            low_ratio: 0.4,
            high_ratio: 0.6,
        },
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
    let mut group = c.benchmark_group("ablation_dyn_window");
    group.sample_size(10);
    for window in [10u32, 50, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| criterion::black_box(run_with_window(w)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
